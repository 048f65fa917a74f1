"""Unit and integration tests of the pluggable eviction-policy API.

The byte-identity of the default LRU policy is pinned by the parity suite
(``tests/test_pagecache_parity.py``); these tests cover the policy zoo
itself: registry construction, the per-policy state machines (ARC ghost
lists, 2Q promotion discipline, CLOCK-Pro hand rotation, priority-weighted
ordering under preemption), the victim cursor, the survival forecast, and
the scheduler-to-cache job hooks through a full preemptive simulation.
"""

from __future__ import annotations

import pytest

from repro.des import Environment
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.pagecache import IOController, MemoryManager, PageCacheConfig
from repro.pagecache.policy import (
    ARCPolicy,
    ClockProPolicy,
    EvictionPolicy,
    LRUPolicy,
    POLICIES,
    PriorityWeightedPolicy,
    TwoQPolicy,
    make_eviction_policy,
)
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.units import GB, MB, MBps


def make_cache(policy, *, memory_size=512 * MB, chunk_size=16 * MB):
    """A single-host cache stack with ``policy`` installed."""
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 2000 * MBps, size=memory_size)
    disk = Disk.symmetric(env, "disk", 200 * MBps)
    config = PageCacheConfig(
        chunk_size=chunk_size,
        periodic_flushing=False,
        eviction_policy=policy,
    )
    mm = MemoryManager(env, memory, config, name="policy-mm")
    return env, mm, IOController(env, mm), disk


def next_victim(mm, lru):
    """The fragment the policy would evict next from ``lru`` (not
    removed), as its run and stamp."""
    cursor = mm.policy.clean_cursor(lru)
    try:
        run = cursor.next()
        return None if run is None else (run, run.row[run.head + 3])
    finally:
        cursor.close()


def read(env, io, disk, filename, size):
    """Run one whole-file read to completion."""
    process = env.process(
        io.read_file(filename, size, disk, use_anonymous_memory=False),
        name=f"read-{filename}",
    )
    env.run(until=process)


class TestRegistry:
    @pytest.mark.parametrize("name,cls", sorted(POLICIES.items()))
    def test_every_registered_name_constructs(self, name, cls):
        policy = make_eviction_policy(name)
        assert isinstance(policy, cls)
        assert policy.name in POLICIES

    def test_default_is_lru(self):
        assert isinstance(make_eviction_policy(None), LRUPolicy)
        assert isinstance(make_eviction_policy("lru"), LRUPolicy)

    def test_instance_passes_through(self):
        policy = ARCPolicy()
        assert make_eviction_policy(policy) is policy

    def test_class_and_factory_specs(self):
        assert isinstance(make_eviction_policy(TwoQPolicy), TwoQPolicy)
        assert isinstance(
            make_eviction_policy(lambda: ClockProPolicy(ghost_capacity=8)),
            ClockProPolicy,
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown eviction policy"):
            make_eviction_policy("mru")
        with pytest.raises(ConfigurationError, match="unknown eviction policy"):
            PageCacheConfig(eviction_policy="mru")

    def test_bad_spec_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_eviction_policy(42)

    def test_config_validates_policy_spec(self):
        with pytest.raises(ConfigurationError):
            PageCacheConfig(eviction_policy="not-a-policy")
        assert PageCacheConfig().eviction_policy == "lru"

    def test_double_bind_rejected(self):
        policy = ARCPolicy()
        env, mm, _, _ = make_cache(policy)
        assert mm.policy is policy
        with pytest.raises(ConfigurationError, match="already bound"):
            make_cache(policy)

    def test_rebinding_same_manager_is_idempotent(self):
        policy = ARCPolicy()
        env, mm, _, _ = make_cache(policy)
        policy.bind(mm)  # no-op, not an error


class TestLRUPolicyEquivalence:
    def test_trace_identical_to_implicit_default(self):
        # A seed the goldens don't cover: the explicit LRUPolicy object
        # must replay exactly like the built-in default dispatch.
        from parity_workload import run_parity_workload

        base = run_parity_workload(seed=777, n_ops=60)
        via_policy = run_parity_workload(
            seed=777, n_ops=60, eviction_policy=LRUPolicy()
        )
        assert via_policy == base

    def test_no_hooks_wanted(self):
        assert LRUPolicy.wants_events is False
        assert LRUPolicy.wants_job_events is False


class TestARCGhostLists:
    def test_second_access_promotes_to_frequency_list(self):
        arc = ARCPolicy()
        arc.on_insert("a", 1.0, 0.0)
        assert "a" in arc._t1
        arc.on_access("a", 1.0, 1.0)
        assert "a" not in arc._t1 and "a" in arc._t2
        assert arc.stats.promotions == 1

    def test_chunk_streaming_does_not_promote(self):
        arc = ARCPolicy()
        arc.on_insert("a", 1.0, 0.0)
        arc.on_insert("a", 1.0, 0.1)  # second chunk of the same read
        assert "a" in arc._t1 and "a" not in arc._t2

    def test_full_eviction_moves_to_ghost_and_ghost_hit_adapts(self):
        arc = ARCPolicy()
        arc.on_insert("a", 1.0, 0.0)
        arc.on_evicted("a", 1.0, resident_after=0.0)
        assert "a" in arc._b1 and "a" not in arc._t1
        p_before = arc._p
        arc.on_insert("a", 1.0, 2.0)  # recency ghost hit
        assert "a" in arc._t2 and "a" not in arc._b1
        assert arc._p > p_before
        assert arc.stats.ghost_hits == 1

    def test_frequency_ghost_hit_shrinks_p(self):
        arc = ARCPolicy()
        arc.on_insert("a", 1.0, 0.0)
        arc.on_access("a", 1.0, 1.0)  # -> T2
        arc.on_evicted("a", 1.0, resident_after=0.0)  # -> B2
        assert "a" in arc._b2
        arc._p = 3.0
        arc.on_insert("a", 1.0, 2.0)
        assert arc._p < 3.0 and "a" in arc._t2

    def test_partial_eviction_keeps_tracking(self):
        arc = ARCPolicy()
        arc.on_insert("a", 2.0, 0.0)
        arc.on_evicted("a", 1.0, resident_after=1.0)
        assert "a" in arc._t1 and "a" not in arc._b1

    def test_ghost_capacity_bounded(self):
        arc = ARCPolicy(ghost_capacity=2)
        for i in range(4):
            name = f"f{i}"
            arc.on_insert(name, 1.0, float(i))
            arc.on_evicted(name, 1.0, resident_after=0.0)
        assert len(arc._b1) == 2
        assert "f0" not in arc._b1 and "f3" in arc._b1

    def test_scan_resistance_in_victim_order(self):
        # Hot (re-referenced) files rank after one-shot scans.
        env, mm, io, disk = make_cache(ARCPolicy(), memory_size=1 * GB)
        read(env, io, disk, "hot", 64 * MB)
        read(env, io, disk, "hot", 64 * MB)  # second read -> T2
        read(env, io, disk, "scan", 64 * MB)
        order = mm.policy.victim_order(mm.lists.inactive, frozenset())
        assert order.index("scan") < order.index("hot")


class TestTwoQPromotion:
    def test_probation_hits_do_not_promote(self):
        twoq = TwoQPolicy()
        twoq.on_insert("a", 1.0, 0.0)
        twoq.on_access("a", 1.0, 1.0)
        twoq.on_access("a", 1.0, 2.0)
        assert "a" in twoq._a1in and "a" not in twoq._am

    def test_ghost_hit_earns_main_queue(self):
        twoq = TwoQPolicy()
        twoq.on_insert("a", 1.0, 0.0)
        twoq.on_evicted("a", 1.0, resident_after=0.0)
        assert "a" in twoq._a1out
        twoq.on_insert("a", 1.0, 2.0)
        assert "a" in twoq._am and "a" not in twoq._a1out
        assert twoq.stats.ghost_hits == 1

    def test_a1in_is_fifo_by_first_insert(self):
        twoq = TwoQPolicy()
        twoq.on_insert("first", 1.0, 0.0)
        twoq.on_insert("second", 1.0, 1.0)
        twoq.on_insert("first", 1.0, 2.0)  # later chunk: position fixed
        assert list(twoq._a1in) == ["first", "second"]

    def test_victim_order_drains_probation_before_main(self):
        env, mm, io, disk = make_cache(TwoQPolicy(), memory_size=1 * GB)
        read(env, io, disk, "resident", 64 * MB)
        # Fall out of probation and return: earns Am.
        mm.policy.on_evicted("resident", 64 * MB, resident_after=0.0)
        mm.policy.on_insert("resident", 64 * MB, env.now)
        read(env, io, disk, "probation", 64 * MB)
        order = mm.policy.victim_order(mm.lists.inactive, frozenset())
        assert order.index("probation") < order.index("resident")


class TestClockProRotation:
    def test_insert_is_cold_in_test_without_reference(self):
        cp = ClockProPolicy()
        cp.on_insert("a", 1.0, 0.0)
        hot, ref, test, _ = cp._resident["a"]
        assert (hot, ref, test) == (False, False, True)
        cp.on_insert("a", 1.0, 0.1)  # streaming chunk: still unreferenced
        assert cp._resident["a"][cp._REF] is False

    def test_hand_promotes_referenced_cold_in_test(self):
        cp = ClockProPolicy()
        cp.on_insert("a", 1.0, 0.0)
        cp.on_access("a", 1.0, 1.0)
        cp._rotate_hand()
        entry = cp._resident["a"]
        assert entry[cp._HOT] is True and entry[cp._REF] is False
        assert cp.stats.promotions == 1

    def test_hand_gives_second_chance_past_test_period(self):
        cp = ClockProPolicy()
        cp.on_insert("a", 1.0, 0.0)
        cp._resident["a"][cp._TEST] = False  # test period expired
        cp.on_access("a", 1.0, 1.0)
        seq_before = cp._resident["a"][cp._SEQ]
        cp._rotate_hand()
        entry = cp._resident["a"]
        assert entry[cp._HOT] is False  # not promoted
        assert entry[cp._TEST] is True  # new test period
        assert entry[cp._SEQ] > seq_before  # moved behind the hand

    def test_cold_eviction_in_test_leaves_ghost_and_ghost_returns_hot(self):
        cp = ClockProPolicy()
        cp.on_insert("a", 1.0, 0.0)
        cp.on_evicted("a", 1.0, resident_after=0.0)
        assert "a" in cp._ghost
        cp.on_insert("a", 1.0, 2.0)
        assert cp._resident["a"][cp._HOT] is True
        assert cp.stats.ghost_hits == 1

    def test_victim_order_evicts_cold_before_hot(self):
        env, mm, io, disk = make_cache(ClockProPolicy(), memory_size=1 * GB)
        read(env, io, disk, "hotfile", 64 * MB)
        mm.policy.on_evicted("hotfile", 64 * MB, resident_after=0.0)
        mm.policy.on_insert("hotfile", 64 * MB, env.now)  # ghost -> hot
        read(env, io, disk, "coldfile", 64 * MB)
        order = mm.policy.victim_order(mm.lists.inactive, frozenset())
        assert order.index("coldfile") < order.index("hotfile")


class TestPriorityWeightedOrdering:
    def test_priority_and_preemption_reorder_victims(self):
        env, mm, io, disk = make_cache(PriorityWeightedPolicy(),
                                       memory_size=1 * GB)
        for name in ("urgent", "victim", "plain"):
            read(env, io, disk, name, 64 * MB)
        assert mm.wants_job_events is True
        mm.notify_job_dispatch(["urgent"], priority=5, wait=2.0)
        mm.notify_job_dispatch(["victim"], priority=0)
        mm.notify_job_preempted(["victim"])
        order = mm.policy.victim_order(mm.lists.inactive, frozenset())
        assert order[0] == "victim"  # preempted: loses residency first
        assert order[-1] == "urgent"  # high priority: evicted last
        assert mm.policy.stats.demotions == 1

    def test_redispatch_lifts_preemption_penalty(self):
        policy = PriorityWeightedPolicy()
        policy.on_insert("a", 1.0, 0.0)
        base = policy.score("a", 1.0)
        policy.on_job_preempted(["a"])
        assert policy.score("a", 1.0) == pytest.approx(
            base - policy.preemption_penalty
        )
        policy.on_job_dispatch(["a"], priority=0)
        assert policy.score("a", 1.0) == pytest.approx(base)
        assert policy.stats.promotions == 1

    def test_negative_wait_clamped(self):
        policy = PriorityWeightedPolicy(wait_weight=1.0)
        policy.on_insert("a", 1.0, 0.0)
        policy.on_job_dispatch(["a"], priority=0, wait=-5.0)
        assert policy._owner_wait.get("a", 0.0) == 0.0

    def test_frequency_beats_recency(self):
        policy = PriorityWeightedPolicy()
        now = 10.0
        policy._touches["frequent"] = (5.0, 6)
        policy._touches["recent"] = (10.0, 1)
        assert policy.score("frequent", now) > policy.score("recent", now)


class TestVictimCursor:
    def test_peek_then_pop_agree_and_pop_removes(self):
        env, mm, io, disk = make_cache(ARCPolicy(), memory_size=1 * GB)
        read(env, io, disk, "a", 64 * MB)
        read(env, io, disk, "b", 64 * MB)
        lru = mm.lists.inactive
        peeked = next_victim(mm, lru)
        assert peeked is not None
        filename = peeked[0].filename
        before = mm.lists.cached_of_file(filename)
        cursor = mm.policy.clean_cursor(lru)
        run = cursor.next()
        popped = (run, run.row[run.head + 3])
        lru.take(run, run.head)
        cursor.close()
        assert popped == peeked
        assert mm.lists.cached_of_file(filename) < before
        assert next_victim(mm, lru) != popped

    def test_excluded_file_never_surfaces(self):
        env, mm, io, disk = make_cache(TwoQPolicy(), memory_size=1 * GB)
        read(env, io, disk, "a", 64 * MB)
        read(env, io, disk, "b", 64 * MB)
        cursor = mm.policy.clean_cursor(mm.lists.inactive, ["a"])
        seen = set()
        run = cursor.next()
        while run is not None:
            seen.add(run.filename)
            mm.lists.inactive.take(run, run.head)
            run = cursor.next()
        assert seen == {"b"}

    def test_empty_cache_yields_no_victim(self):
        env, mm, _, _ = make_cache(ARCPolicy())
        assert next_victim(mm, mm.lists.inactive) is None


class TestPredictedSurvival:
    def test_uncached_file_is_zero(self):
        env, mm, _, _ = make_cache(ARCPolicy())
        assert mm.predicted_survival("ghost", 10.0) == 0.0

    def test_no_pressure_is_one(self):
        env, mm, io, disk = make_cache(ARCPolicy(), memory_size=1 * GB)
        read(env, io, disk, "a", 64 * MB)
        assert mm.predicted_survival("a", 100.0) == 1.0

    def test_zero_horizon_is_one(self):
        env, mm, io, disk = make_cache(ARCPolicy(), memory_size=1 * GB)
        read(env, io, disk, "a", 64 * MB)
        assert mm.predicted_survival("a", 0.0) == 1.0

    def test_under_pressure_monotone_in_horizon(self):
        env, mm, io, disk = make_cache(ARCPolicy(), memory_size=256 * MB)
        # Overflow the cache so the eviction rate is nonzero.
        for i in range(6):
            read(env, io, disk, f"f{i}", 128 * MB)
        read(env, io, disk, "probe", 64 * MB)
        values = [mm.predicted_survival("probe", h) for h in (0.5, 5.0, 50.0)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_works_for_default_lru_policy(self):
        env, mm, io, disk = make_cache("lru", memory_size=256 * MB)
        for i in range(6):
            read(env, io, disk, f"f{i}", 128 * MB)
        read(env, io, disk, "probe", 64 * MB)
        value = mm.predicted_survival("probe", 5.0)
        assert 0.0 <= value <= 1.0


class TestSchedulerJobHooks:
    def _preemptive_simulation(self):
        simulation = Simulation(
            config=SimulationConfig(
                cache_mode="writeback", trace_interval=None,
                page_cache=PageCacheConfig(eviction_policy="priority"),
            ),
        )
        simulation.create_cluster_platform(1, cores_per_node=4,
                                           with_nfs_server=False)
        simulation.create_cluster_scheduler(policy="preemptive-priority",
                                            placement="round-robin")
        return simulation

    def test_dispatch_and_preemption_reach_the_policy(self):
        simulation = self._preemptive_simulation()
        dataset = File("dataset", 200 * MB)
        simulation.stage_file_replicated(dataset)
        low = Workflow("low")
        low.add_task(Task.from_cpu_time(
            "work", 10.0, inputs=[dataset],
            outputs=[File("low_out", 50 * MB)],
        ))
        simulation.submit_job(low, cores=4, arrival_time=0.0,
                              estimated_runtime=10.0, label="low")
        high = Workflow("high")
        high.add_task(Task("high_t", flops=1e9))
        simulation.submit_job(high, cores=2, arrival_time=2.0,
                              estimated_runtime=1.0, priority=1,
                              label="high")
        result = simulation.run()

        assert result.scheduler.n_preemptions == 1
        policy = simulation.scheduler.nodes[0].host.memory_manager.policy
        assert isinstance(policy, PriorityWeightedPolicy)
        # low dispatched, preempted, re-dispatched; high dispatched.
        assert policy.stats.job_dispatches >= 3
        assert policy.stats.job_preemptions == 1
        assert policy.stats.demotions >= 1
        assert policy.stats.promotions >= 1  # the re-dispatch lifted it

    def test_lru_default_gets_no_job_events(self):
        simulation = Simulation(
            config=SimulationConfig(cache_mode="writeback",
                                    trace_interval=None),
        )
        simulation.create_cluster_platform(1, cores_per_node=4,
                                           with_nfs_server=False)
        simulation.create_cluster_scheduler(policy="preemptive-priority",
                                            placement="round-robin")
        manager = simulation.scheduler.nodes[0].host.memory_manager
        assert manager.wants_job_events is False
        assert isinstance(manager.policy, LRUPolicy)


class TestPolicyStatsPublishing:
    def test_policy_stats_published_per_host(self):
        simulation = Simulation(
            config=SimulationConfig(
                cache_mode="writeback", trace_interval=None,
                page_cache=PageCacheConfig(eviction_policy="arc"),
            ),
            observe=True,
        )
        simulation.create_cluster_platform(1, cores_per_node=4,
                                           with_nfs_server=False)
        service = simulation.create_storage_service("node1", "/local",
                                                    cache_mode="writeback")
        dataset = File("dataset", 100 * MB)
        simulation.stage_file(dataset, service)
        workflow = Workflow("w")
        workflow.add_task(Task.from_cpu_time("t", 0.5, inputs=[dataset]))
        simulation.submit_workflow(workflow, host="node1", storage=service)
        result = simulation.run()
        exported = result.observer.registry.as_dict()
        policy_series = {
            name: series for name, series in exported.items()
            if name.startswith("cache.policy.")
        }
        assert "cache.policy.inserts" in policy_series, sorted(exported)
        labels = next(iter(policy_series["cache.policy.inserts"]))
        assert "policy=arc" in labels


class TestCustomPolicySubclass:
    def test_minimal_subclass_only_needs_victim_order(self):
        class MRUPolicy(EvictionPolicy):
            name = "mru-test"

            def victim_order(self, lru, excluded):
                files = self._evictable_files(lru, excluded)
                files.sort(reverse=True)
                return files

        env, mm, io, disk = make_cache(MRUPolicy(), memory_size=1 * GB)
        read(env, io, disk, "a", 64 * MB)
        read(env, io, disk, "b", 64 * MB)
        run, _stamp = next_victim(mm, mm.lists.inactive)
        assert run.filename == "b"
