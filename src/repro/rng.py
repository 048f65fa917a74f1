"""Deterministic seeded random number generation.

Scheduler experiments must be reproducible by construction: the same seed
must produce the same job mix, the same arrival times and therefore the
same schedule, on every machine and every run.  :class:`DeterministicRNG`
wraps :class:`random.Random` behind a small, explicit API (an explicit seed
is mandatory — there is no "seed from the clock" path) and adds
:meth:`DeterministicRNG.spawn` to derive independent child streams from
string keys, so that e.g. the arrival process and the job-size draws do not
perturb each other when one of them changes.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(seed: int, key: str) -> int:
    """Derive a child seed from ``(seed, key)``, stable across platforms.

    This is the seed-derivation primitive behind
    :meth:`DeterministicRNG.spawn` and the sweep engine's per-point seeds
    (:func:`repro.experiments.runner.run_sweep`'s ``base_seed``): SHA-256 of
    ``"{seed}:{key}"``, so the result depends only on the two inputs —
    never on process, platform or hash randomization.
    """
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRNG:
    """A seeded random source for reproducible experiments.

    Parameters
    ----------
    seed:
        Mandatory integer seed.  Two generators built with the same seed
        produce identical sequences.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._random = random.Random(seed)
        #: API-level draws made so far.  Snapshot bookkeeping: together
        #: with ``seed`` (and :meth:`state_digest` as ground truth) this
        #: pins the stream position of a live generator, so a restored
        #: simulation can prove its RNG streams sit exactly where the
        #: original's did.
        self.n_draws = 0

    # ------------------------------------------------------------------ draws
    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        self.n_draws += 1
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        self.n_draws += 1
        return self._random.uniform(low, high)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (both ends included)."""
        self.n_draws += 1
        return self._random.randint(low, high)

    def exponential(self, rate: float) -> float:
        """Exponential variate with the given ``rate`` (mean ``1 / rate``).

        Computed by inversion from the underlying uniform so the draw
        consumes exactly one uniform, keeping derived streams easy to
        reason about.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.n_draws += 1
        u = self._random.random()
        return -math.log(1.0 - u) / rate

    def choice(self, sequence: Sequence[T]) -> T:
        """One uniformly chosen element of ``sequence``."""
        if not sequence:
            raise ValueError("cannot choose from an empty sequence")
        self.n_draws += 1
        return sequence[self._random.randrange(len(sequence))]

    def shuffled(self, sequence: Sequence[T]) -> List[T]:
        """A shuffled copy of ``sequence`` (the input is left untouched)."""
        items = list(sequence)
        self.n_draws += 1
        self._random.shuffle(items)
        return items

    # ------------------------------------------------------------------ state
    def state_digest(self) -> str:
        """Digest of the underlying generator state (16 hex chars).

        The Mersenne Twister state is a tuple of plain integers whose
        ``repr`` is platform-independent, so equal digests mean the two
        generators will produce identical futures.
        """
        state = self._random.getstate()
        return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()[:16]

    # ---------------------------------------------------------------- streams
    def spawn(self, key: str) -> "DeterministicRNG":
        """Return an independent child generator derived from ``key``.

        The child's sequence depends only on ``(seed, key)``, not on how
        many draws the parent has made, so adding draws to one part of an
        experiment never changes the values seen by another part.
        """
        return DeterministicRNG(derive_seed(self.seed, key))

    def __repr__(self) -> str:
        return f"DeterministicRNG(seed={self.seed})"
