"""Page cache configuration.

Collects the kernel tunables the model depends on, with defaults matching a
stock Linux kernel (the values used on the paper's CentOS 8.1 cluster):

* ``vm.dirty_ratio`` = 20 % — foreground writes block once dirty data
  exceeds this fraction of memory;
* ``vm.dirty_expire_centisecs`` = 3000 (30 s) — age after which dirty data
  is flushed by the periodical flusher;
* ``vm.dirty_writeback_centisecs`` = 500 (5 s) — period of the flusher
  thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import MB


@dataclass
class PageCacheConfig:
    """Tunables of the simulated page cache.

    Attributes
    ----------
    dirty_ratio:
        Maximum fraction of memory that may hold dirty data before
        foreground writes must flush (``vm.dirty_ratio``).
    dirty_expire:
        Age in seconds after which dirty blocks are flushed by the
        periodical flusher (``vm.dirty_expire_centisecs`` / 100).
    writeback_interval:
        Period in seconds of the flusher thread
        (``vm.dirty_writeback_centisecs`` / 100).
    chunk_size:
        Granularity of simulated file accesses (bytes): the only
        chunk-size setting; every page-cached read and write, local or
        NFS, moves files in chunks of this size.
    dirty_threshold_base:
        ``"total"`` computes the dirty threshold against total memory (a
        horizontal line, as plotted in Fig. 4b); ``"available"`` computes it
        against free + reclaimable memory, closer to the kernel formula.
    evict_from_active:
        If true, eviction may spill to the active list when the inactive
        list holds no more clean blocks.  The paper's model only evicts from
        the inactive list; enabling this avoids memory exhaustion in corner
        cases and is used by the reference model.
    protect_written_files:
        If true, eviction skips blocks of files that are currently being
        written.  This reproduces the kernel idiosyncrasy the paper reports
        being unable to model easily (File 3 staying fully cached after
        Write 2 in Exp 1 / 100 GB); it is enabled in the calibrated
        reference model and disabled in the paper-faithful simulators.
    periodic_flushing:
        Whether to run the background periodical-flush process.
    eviction_policy:
        Victim-selection policy of the cache: a registered name (``"lru"``,
        ``"arc"``, ``"2q"``, ``"clock-pro"``, ``"priority"``), an
        :class:`~repro.pagecache.policy.EvictionPolicy` instance
        (single-host simulations only — instances bind to exactly one
        memory manager), a policy subclass, or a zero-argument factory.
        The default ``"lru"`` reproduces the pre-policy cache
        bit-identically (pinned by the parity suite).
    """

    dirty_ratio: float = 0.20
    dirty_expire: float = 30.0
    writeback_interval: float = 5.0
    chunk_size: float = 100 * MB
    dirty_threshold_base: str = "total"
    evict_from_active: bool = False
    protect_written_files: bool = False
    periodic_flushing: bool = True
    #: Eviction-policy spec: a registered name, an ``EvictionPolicy``
    #: instance, a subclass, or a zero-argument factory.
    eviction_policy: object = "lru"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is inconsistent."""
        if not (0.0 < self.dirty_ratio <= 1.0):
            raise ConfigurationError(
                f"dirty_ratio must be in (0, 1], got {self.dirty_ratio}"
            )
        if self.dirty_expire < 0:
            raise ConfigurationError("dirty_expire must be >= 0")
        if self.writeback_interval <= 0:
            raise ConfigurationError("writeback_interval must be positive")
        if self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.dirty_threshold_base not in ("total", "available"):
            raise ConfigurationError(
                "dirty_threshold_base must be 'total' or 'available', got "
                f"{self.dirty_threshold_base!r}"
            )
        # Imported lazily: policy.py pulls in the LRU machinery, which the
        # configuration module must not load at import time.
        from repro.pagecache.policy import _policy_factory

        _policy_factory(self.eviction_policy)

    def with_updates(self, **kwargs) -> "PageCacheConfig":
        """Return a copy of the configuration with some fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def reference(cls) -> "PageCacheConfig":
        """Higher-fidelity configuration used by the calibrated reference model."""
        return cls(
            dirty_threshold_base="available",
            evict_from_active=True,
            protect_written_files=True,
        )
