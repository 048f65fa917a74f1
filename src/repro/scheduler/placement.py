"""Pluggable placement strategies.

Once a policy has picked a job, the placement strategy picks the node it
runs on, among the nodes with enough free cores:

* :class:`RoundRobinPlacement` — cycle through the nodes;
* :class:`LeastLoadedPlacement` — most free cores first;
* :class:`CacheLocalityPlacement` — the paper-specific strategy: score each
  node by how many bytes of the job's input files are already resident in
  that node's page cache (via the node's
  :class:`~repro.pagecache.memory_manager.MemoryManager`), and send the job
  where its data is hot.  Cold datasets are spread by a stable hash of the
  input-file names, which doubles as dataset/node affinity: the second job
  over a dataset lands on the node the first one warmed.
"""

from __future__ import annotations

import zlib
from typing import Dict, Sequence, TYPE_CHECKING, Tuple, Union

from repro.errors import ConfigurationError
from repro.scheduler.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.scheduler.cluster import NodeState


class PlacementStrategy:
    """Base class of placement strategies."""

    #: Registry name of the strategy.
    name = "placement"

    def select_node(self, job: Job, candidates: Sequence["NodeState"],
                    now: float = 0.0) -> "NodeState":
        """Choose one of ``candidates`` (non-empty, all fit the job)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RoundRobinPlacement(PlacementStrategy):
    """Cycle through the eligible nodes in order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select_node(self, job: Job, candidates: Sequence["NodeState"],
                    now: float = 0.0) -> "NodeState":
        node = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return node


class LeastLoadedPlacement(PlacementStrategy):
    """Most free cores first (ties: fewest running jobs, then node name)."""

    name = "least-loaded"

    def select_node(self, job: Job, candidates: Sequence["NodeState"],
                    now: float = 0.0) -> "NodeState":
        return min(
            candidates,
            key=lambda node: (-node.free_cores, node.n_running, node.name),
        )


def _stable_hash(key: str) -> int:
    """Deterministic string hash (Python's ``hash`` is salted per process)."""
    return zlib.crc32(key.encode("utf-8"))


class CacheLocalityPlacement(PlacementStrategy):
    """Place jobs where their input bytes are already in the page cache.

    Each candidate node is scored by the number of bytes of the job's
    input files currently resident in the node's page cache; the job goes
    to the highest-scoring node (ties broken by load, then name).  When no
    candidate holds any input byte (cold dataset, or the warm node is
    full), the node is chosen by rendezvous (highest-random-weight)
    hashing of ``(dataset, node)``: every node has a fixed per-dataset
    weight, and the heaviest *available* node wins.  Jobs over the same
    dataset therefore keep landing on the same node whenever it has room —
    regardless of which other nodes happen to be busy — so hash affinity
    bootstraps cache affinity.
    """

    name = "cache"

    def __init__(self) -> None:
        #: Memoized rendezvous weights, keyed by ``(dataset_key, node)``.
        #: Bounded by #datasets × #nodes, and hit on every cold dispatch —
        #: without it each dispatch re-hashed every candidate node.
        self._weights: Dict[Tuple[str, str], int] = {}

    def score(self, job: Job, node: "NodeState") -> float:
        """Bytes of the job's input files cached on ``node`` (0 without a
        page cache)."""
        manager = node.host.memory_manager
        if manager is None:
            return 0.0
        return manager.cached_bytes([f.name for f in job.input_files()])

    def _weight(self, dataset_key: str, node_name: str) -> int:
        key = (dataset_key, node_name)
        weight = self._weights.get(key)
        if weight is None:
            weight = self._weights[key] = _stable_hash(
                f"{dataset_key}|{node_name}"
            )
        return weight

    def select_node(self, job: Job, candidates: Sequence["NodeState"],
                    now: float = 0.0) -> "NodeState":
        # Dispatch hot path: one pass over the candidates, the job's input
        # names built once, one ``cached_bytes`` call per candidate (this
        # is :meth:`score`, inlined).  Highest cached-byte score wins,
        # ties broken by (most free cores, fewest running jobs, name)
        # keeping the earliest candidate on full ties.
        names = [f.name for f in job.input_files()]
        best_node = None
        best_score = 0.0
        best_tie = None
        for node in candidates:
            manager = node.host.memory_manager
            score = 0.0 if manager is None else manager.cached_bytes(names)
            if score <= 0.0:
                continue
            tie = (-node.free_cores, node.n_running, node.name)
            if (best_node is None or score > best_score
                    or (score == best_score and tie < best_tie)):
                best_node, best_score, best_tie = node, score, tie
        if best_node is not None:
            return best_node
        dataset_key = "|".join(sorted(names))
        return max(
            candidates,
            key=lambda node: (self._weight(dataset_key, node.name), node.name),
        )


class FailureAwarePlacement(CacheLocalityPlacement):
    """Cache locality, discounted by a node's failure history.

    Same scoring as :class:`CacheLocalityPlacement`, but each node's
    cached-byte score is divided by ``1 + n_failures``: a node that keeps
    crashing loses its locality advantage — its cache is cold after every
    crash anyway, and work placed there keeps being rolled back.  When no
    candidate caches the job's inputs, the cold path picks among the
    candidates with the fewest recorded crashes, by rendezvous hash.  With
    no failure history the strategy is plain cache locality.
    """

    name = "failure-aware"

    def score(self, job: Job, node: "NodeState") -> float:
        score = super().score(job, node)
        return score / (1.0 + node.n_failures)

    def select_node(self, job: Job, candidates: Sequence["NodeState"],
                    now: float = 0.0) -> "NodeState":
        names = [f.name for f in job.input_files()]
        best_node = None
        best_score = 0.0
        best_tie = None
        for node in candidates:
            manager = node.host.memory_manager
            score = 0.0 if manager is None else manager.cached_bytes(names)
            score /= 1.0 + node.n_failures
            if score <= 0.0:
                continue
            tie = (-node.free_cores, node.n_running, node.name)
            if (best_node is None or score > best_score
                    or (score == best_score and tie < best_tie)):
                best_node, best_score, best_tie = node, score, tie
        if best_node is not None:
            return best_node
        # Cold path: rendezvous hashing, but crash-prone nodes are only
        # picked when every healthier candidate is unavailable.
        dataset_key = "|".join(sorted(names))
        return max(
            candidates,
            key=lambda node: (-node.n_failures,
                              self._weight(dataset_key, node.name),
                              node.name),
        )


#: Strategies constructible by name.
PLACEMENTS = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
    CacheLocalityPlacement.name: CacheLocalityPlacement,
    "cache-aware": CacheLocalityPlacement,
    FailureAwarePlacement.name: FailureAwarePlacement,
}


def make_placement(placement: Union[str, PlacementStrategy]) -> PlacementStrategy:
    """Resolve a placement name (or pass an instance through)."""
    if isinstance(placement, PlacementStrategy):
        return placement
    try:
        return PLACEMENTS[placement]()
    except KeyError:
        raise ConfigurationError(
            f"unknown placement strategy {placement!r}; "
            f"known strategies: {sorted(set(PLACEMENTS))}"
        ) from None
