"""Unit tests of the placement strategies."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.des import Environment
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.memory_manager import MemoryManager
from repro.platform.host import Host
from repro.platform.memory import MemoryDevice
from repro.scheduler.cluster import NodeState
from repro.scheduler.job import Job
from repro.scheduler.placement import (
    CacheLocalityPlacement,
    FailureAwarePlacement,
    LeastLoadedPlacement,
    RoundRobinPlacement,
    make_placement,
)
from repro.simulator.workflow import Task, Workflow
from repro.units import GiB, MB, MBps


def cached_node(env, name: str, cores: int = 4) -> NodeState:
    """A node with a page cache the tests can populate directly."""
    memory = MemoryDevice.symmetric(env, f"{name}.ram", 4812 * MBps, size=16 * GiB)
    host = Host(env, name, cores=cores, memory=memory)
    host.memory_manager = MemoryManager(
        env, memory, PageCacheConfig(periodic_flushing=False), name=f"{name}.mm"
    )
    return NodeState(host, storage=None)


def reading_job(name: str, *files: File, cores: int = 1, job_id: int = 0) -> Job:
    workflow = Workflow(name)
    workflow.add_task(Task(f"{name}_t", flops=1e9, inputs=list(files)))
    job = Job(workflow, cores=cores, label=name)
    job.id = job_id
    return job


class TestRoundRobin:
    def test_cycles_through_candidates(self, env):
        nodes = [cached_node(env, f"n{i}") for i in range(3)]
        placement = RoundRobinPlacement()
        job = reading_job("job", File("f", 1 * MB))
        picked = [placement.select_node(job, nodes).name for _ in range(6)]
        assert picked == ["n0", "n1", "n2", "n0", "n1", "n2"]


class TestLeastLoaded:
    def test_prefers_most_free_cores(self, env):
        busy = cached_node(env, "busy")
        idle = cached_node(env, "idle")
        filler = reading_job("filler", File("x", 1 * MB), cores=3, job_id=9)
        filler.start_time = 0.0
        busy.allocate(filler)
        job = reading_job("job", File("f", 1 * MB))
        assert LeastLoadedPlacement().select_node(job, [busy, idle]).name == "idle"

    def test_breaks_ties_by_name(self, env):
        nodes = [cached_node(env, "b"), cached_node(env, "a")]
        job = reading_job("job", File("f", 1 * MB))
        assert LeastLoadedPlacement().select_node(job, nodes).name == "a"


class TestCacheLocality:
    def test_scores_cached_input_bytes(self, env):
        cold = cached_node(env, "cold")
        warm = cached_node(env, "warm")
        dataset = File("dataset", 100 * MB)
        warm.host.memory_manager.add_to_cache(dataset.name, 60 * MB, storage=None)
        job = reading_job("job", dataset)

        placement = CacheLocalityPlacement()
        assert placement.score(job, warm) == pytest.approx(60 * MB)
        assert placement.score(job, cold) == 0.0
        assert placement.select_node(job, [cold, warm]).name == "warm"

    def test_prefers_largest_residency(self, env):
        lukewarm = cached_node(env, "lukewarm")
        hot = cached_node(env, "hot")
        dataset = File("dataset", 100 * MB)
        lukewarm.host.memory_manager.add_to_cache(dataset.name, 10 * MB, storage=None)
        hot.host.memory_manager.add_to_cache(dataset.name, 90 * MB, storage=None)
        job = reading_job("job", dataset)
        assert CacheLocalityPlacement().select_node(job, [lukewarm, hot]).name == "hot"

    def test_cold_datasets_hash_to_a_stable_node(self, env):
        nodes = [cached_node(env, f"n{i}") for i in range(4)]
        placement = CacheLocalityPlacement()
        job = reading_job("job", File("dataset7", 100 * MB))
        first = placement.select_node(job, nodes)
        # Same dataset, same candidates: always the same node (affinity).
        assert all(
            placement.select_node(job, nodes) is first for _ in range(5)
        )

    def test_cold_datasets_spread_over_nodes(self, env):
        nodes = [cached_node(env, f"n{i}") for i in range(4)]
        placement = CacheLocalityPlacement()
        picked = {
            placement.select_node(
                reading_job(f"job{i}", File(f"dataset{i}", 100 * MB)), nodes
            ).name
            for i in range(16)
        }
        assert len(picked) > 1

    def test_nodes_without_page_cache_score_zero(self, env):
        bare = NodeState(Host(env, "bare", cores=4), storage=None)
        job = reading_job("job", File("dataset", 100 * MB))
        assert CacheLocalityPlacement().score(job, bare) == 0.0


# A cache state: (file index, size in MB, promoted to the active list).
cache_states = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from([0.1, 1 / 3, 1 / 7, 2000 / 3]),
              st.booleans()),
    max_size=12,
)


def fill_cache(node: NodeState, state) -> None:
    """Put ``state``'s fragments into the node's two LRU lists."""
    lists = node.host.memory_manager.lists
    for clock, (index, size, active) in enumerate(state):
        lru = lists.active if active else lists.inactive
        lru.push(f"f{index}", False, None, size * MB, float(clock),
                 float(clock))
        lists.balance()


def reference_select(placement, job, candidates, penalty=None):
    """Placement as scored before ``MemoryManager.cached_bytes``: one
    ``cached_amount`` call per node and input file."""
    files = job.input_files()
    best_node, best_score, best_tie = None, 0.0, None
    for node in candidates:
        manager = node.host.memory_manager
        score = (0.0 if manager is None
                 else sum(manager.cached_amount(f.name) for f in files))
        if penalty is not None:
            score /= 1.0 + penalty * node.n_failures
        if score <= 0.0:
            continue
        tie = (-node.free_cores, node.n_running, node.name)
        if (best_node is None or score > best_score
                or (score == best_score and tie < best_tie)):
            best_node, best_score, best_tie = node, score, tie
    if best_node is not None:
        return best_node
    dataset_key = "|".join(sorted(f.name for f in files))
    if penalty is None:
        return max(candidates, key=lambda node: (
            placement._weight(dataset_key, node.name), node.name))
    return max(candidates, key=lambda node: (
        -node.n_failures, placement._weight(dataset_key, node.name), node.name))


class TestCachedBytesScoring:
    @settings(max_examples=80, deadline=None)
    @given(state=cache_states,
           names=st.lists(st.integers(0, 7).map(lambda i: f"f{i}"),
                          max_size=6))
    # Three terms that each round up: a plain left-to-right loop ends one
    # ulp above the compensated sum of Python 3.12 and later.
    @example(state=[(0, 2000 / 3, False), (1, 1 / 7, False)],
             names=["f0", "f1", "f1"])
    def test_cached_bytes_equals_the_per_file_sum(self, state, names):
        node = cached_node(Environment(), "n")
        fill_cache(node, state)
        manager = node.host.memory_manager
        expected = float(sum(manager.cached_amount(name) for name in names))
        assert manager.cached_bytes(names).hex() == expected.hex()

    @settings(max_examples=80, deadline=None)
    @given(states=st.lists(cache_states, min_size=1, max_size=4),
           busy=st.lists(st.integers(0, 3), min_size=4, max_size=4),
           failures=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           inputs=st.lists(st.integers(0, 7), min_size=1, max_size=3,
                           unique=True))
    def test_placement_picks_the_node_the_old_scoring_picks(
            self, states, busy, failures, inputs):
        env = Environment()
        nodes = []
        for i, state in enumerate(states):
            node = cached_node(env, f"n{i}")
            fill_cache(node, state)
            node.n_failures = failures[i]
            if busy[i]:
                filler = reading_job(f"filler{i}", File("x", MB),
                                     cores=busy[i], job_id=100 + i)
                filler.start_time = 0.0
                node.allocate(filler)
            nodes.append(node)
        job = reading_job("job", *(File(f"f{i}", 10 * MB) for i in inputs))
        cache = CacheLocalityPlacement()
        assert (cache.select_node(job, nodes)
                is reference_select(cache, job, nodes))
        failure_aware = FailureAwarePlacement()
        assert (failure_aware.select_node(job, nodes)
                is reference_select(failure_aware, job, nodes, penalty=1.0))


class TestRegistry:
    def test_make_placement_by_name(self):
        assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
        assert isinstance(make_placement("least-loaded"), LeastLoadedPlacement)
        assert isinstance(make_placement("cache"), CacheLocalityPlacement)
        assert isinstance(make_placement("cache-aware"), CacheLocalityPlacement)

    def test_make_placement_passthrough_and_unknown(self):
        placement = RoundRobinPlacement()
        assert make_placement(placement) is placement
        with pytest.raises(ConfigurationError):
            make_placement("random")
