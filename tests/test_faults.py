"""Tests of the seeded fault-injection layer (crashes, stragglers, elasticity).

Unit tests pin the :class:`FaultPlan` validation and the failure-aware
placement; integration tests drive crashes through the whole stack — the
scheduler's checkpoint-rollback-requeue path, page-cache invalidation,
flow aborts and the exact byte accounting after a mid-transfer crash —
and check that every run is deterministic and every submitted job still
completes.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ElasticNodeSpec,
    FaultInjector,
    FaultPlan,
    NodeFaultSpec,
    StragglerSpec,
)
from repro.filesystem.file import File
from repro.platform.host import Host
from repro.scheduler.cluster import NodeState
from repro.scheduler.job import Job
from repro.scheduler.placement import (
    FailureAwarePlacement,
    make_placement,
)
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.snapshot import run_experiment
from repro.units import MB


# ----------------------------------------------------------------- plan
class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        plan = FaultPlan()
        assert plan.is_zero
        assert not plan

    def test_any_spec_makes_plan_nonzero(self):
        assert not FaultPlan(node_faults=(NodeFaultSpec(mtbf=10.0),)).is_zero
        assert not FaultPlan(stragglers=(StragglerSpec(),)).is_zero
        assert not FaultPlan(elastic=(ElasticNodeSpec(node="node1"),)).is_zero

    def test_lists_are_coerced_to_tuples(self):
        plan = FaultPlan(node_faults=[NodeFaultSpec(mtbf=5.0)])
        assert isinstance(plan.node_faults, tuple)

    @pytest.mark.parametrize("kwargs", [
        dict(mtbf=0.0),
        dict(mtbf=-1.0),
        dict(mtbf=10.0, mttr=-1.0),
        dict(mtbf=10.0, first_failure_after=-1.0),
        dict(mtbf=10.0, max_failures=-1),
    ])
    def test_node_fault_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            NodeFaultSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(compute_factor=0.0),
        dict(compute_factor=1.5),
        dict(io_factor=-0.1),
        dict(period=10.0),  # period without a finite duration
        dict(period=5.0, duration=10.0),  # period <= duration
        dict(max_delay=-1.0),
    ])
    def test_straggler_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StragglerSpec(**kwargs)

    def test_elastic_validation(self):
        with pytest.raises(ConfigurationError):
            ElasticNodeSpec(node="")  # a concrete node is required
        with pytest.raises(ConfigurationError):
            ElasticNodeSpec(node="*")  # no wildcard for elastic nodes
        with pytest.raises(ConfigurationError):
            ElasticNodeSpec(node="node1", join_time=5.0, leave_time=1.0)

    def test_duplicate_elastic_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(elastic=(
                ElasticNodeSpec(node="node1"),
                ElasticNodeSpec(node="node1", join_time=1.0),
            ))


# ------------------------------------------------- failure-aware placement
def make_node(env, name: str, cores: int = 4, n_failures: int = 0) -> NodeState:
    node = NodeState(Host(env, name, cores=cores), storage=None)
    node.n_failures = n_failures
    return node


def io_job(label: str = "job", dataset: str = "dataset") -> Job:
    workflow = Workflow(label)
    workflow.add_task(Task.from_cpu_time(
        "work", 1.0, inputs=[File(dataset, 100 * MB)],
    ))
    return Job(workflow, cores=1, arrival_time=0.0, label=label)


class TestFailureAwarePlacement:
    def test_registered_by_name(self):
        strategy = make_placement("failure-aware")
        assert isinstance(strategy, FailureAwarePlacement)

    def test_cold_path_avoids_crash_prone_nodes(self, env):
        healthy = make_node(env, "n1")
        flaky = make_node(env, "n2", n_failures=3)
        job = io_job()
        # Whatever the rendezvous weights say, the node with failure
        # history is only picked when no healthier candidate exists.
        chosen = FailureAwarePlacement().select_node(job, [healthy, flaky])
        assert chosen is healthy
        assert FailureAwarePlacement().select_node(job, [flaky]) is flaky

    def test_zero_history_matches_cache_locality(self, env):
        nodes = [make_node(env, f"n{i}") for i in range(4)]
        job = io_job()
        aware = FailureAwarePlacement().select_node(job, nodes)
        plain = make_placement("cache").select_node(job, nodes)
        assert aware is plain


# ----------------------------------------------------------- integration
def cluster_simulation(n_nodes: int = 1, cores_per_node: int = 4, *,
                       cache_mode: str = "writeback",
                       fault_plan=None,
                       placement: str = "round-robin") -> Simulation:
    simulation = Simulation(
        config=SimulationConfig(cache_mode=cache_mode, trace_interval=None),
        fault_plan=fault_plan,
    )
    simulation.create_cluster_platform(
        n_nodes, cores_per_node=cores_per_node, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(
        policy="preemptive-priority", placement=placement
    )
    return simulation


def submit_io_job(simulation: Simulation, label: str, cpu_time: float, *,
                  dataset: File, output_size: float, cores: int = 4,
                  arrival: float = 0.0) -> Job:
    workflow = Workflow(label)
    workflow.add_task(Task.from_cpu_time(
        "work", cpu_time, inputs=[dataset],
        outputs=[File(f"{label}_out", output_size)],
    ))
    return simulation.submit_job(
        workflow, cores=cores, arrival_time=arrival,
        estimated_runtime=cpu_time, label=label,
    )


def inject_crash(simulation: Simulation, node_name: str, *,
                 at: float, repair_after: float) -> None:
    """Schedule one deterministic crash/repair outside any fault plan."""
    scheduler = simulation.scheduler
    scheduler.fault_mode = True  # requeued work needs the kick wakeup
    env = simulation.env

    def killer():
        yield env.timeout(at)
        node = next(n for n in scheduler.nodes if n.name == node_name)
        scheduler.fail_node(node_name)
        # Let the victims' interrupts deliver (rollback releases memory)
        # before the page cache is dropped — the injector does the same.
        yield env.timeout(0)
        if node.host.memory_manager is not None:
            node.host.memory_manager.invalidate_all()
        yield env.timeout(repair_after)
        scheduler.restore_node(node_name)

    env.process(killer(), name=f"crash-{node_name}")


class TestCrashRestart:
    def test_crashed_job_restarts_and_completes(self):
        simulation = cluster_simulation()
        dataset = File("dataset", 100 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "low", 5.0, dataset=dataset,
                      output_size=50 * MB)
        inject_crash(simulation, "node1", at=2.0, repair_after=3.0)
        result = simulation.run()

        record = next(r for r in result.scheduler.records if r.label == "low")
        assert record.restarts == 1
        assert record.preemptions == 0
        metrics = result.scheduler
        assert metrics.n_jobs == 1  # the restarted job completed
        assert metrics.n_node_failures == 1
        assert metrics.n_job_restarts == 1
        # The in-flight segment earned zero credit: ~2s of compute lost.
        assert metrics.lost_work_seconds > 0.0

    def test_crash_on_sole_node_needs_kick_to_resume(self):
        # Single node, repair long after the queue drained to empty: the
        # scheduler has nothing to wait on but the kick; if the kick were
        # broken this run would deadlock instead of completing.
        simulation = cluster_simulation()
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "only", 1.0, dataset=dataset,
                      output_size=10 * MB)
        inject_crash(simulation, "node1", at=0.5, repair_after=10.0)
        result = simulation.run()

        record = next(r for r in result.scheduler.records if r.label == "only")
        assert record.restarts == 1
        # Resumed only after the repair at t = 0.5 + 10.
        assert record.end_time > 10.5

    def test_mid_transfer_crash_leaves_byte_accounting_exact(self):
        # Satellite: crash while the job's 1000 MB output is streaming
        # through the page cache to disk.  The partial dirty output must
        # be rolled back (cache and disk), the page cache invalidated,
        # and the restarted attempt must leave exactly one copy of
        # everything — the PR 5 accounting invariants under a crash.
        simulation = cluster_simulation(cache_mode="writethrough")
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "low", 1.0, dataset=dataset,
                      output_size=1000 * MB)
        # t=2.0 is mid-write: ~1s compute, then ~2.15s streaming to disk.
        inject_crash(simulation, "node1", at=2.0, repair_after=1.0)
        result = simulation.run()

        record = next(r for r in result.scheduler.records if r.label == "low")
        assert record.restarts == 1
        node = simulation.scheduler.nodes[0]
        # Exactly the dataset plus one completed output copy on disk —
        # no leaked partial transfer, no double-allocation.
        assert node.storage.disk.used == pytest.approx(1010 * MB)
        # All anonymous memory released (the crash rollback released the
        # killed attempt's footprint; completion released the rest).
        manager = node.host.memory_manager
        assert manager.anonymous == pytest.approx(0.0)
        # The cache's extent bookkeeping survived the invalidation.
        manager.lists.assert_consistent()
        # Exactly one *completed* write operation was traced.
        assert len(result.operations_of("write", "low")) == 1

    def test_flows_abort_cleanly_on_crash_during_read(self):
        simulation = cluster_simulation(cache_mode="writeback")
        dataset = File("dataset", 1000 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "reader", 1.0, dataset=dataset,
                      output_size=10 * MB)
        # t=0.5 is mid-read (1000 MB at 465 MBps takes ~2.15s).
        inject_crash(simulation, "node1", at=0.5, repair_after=1.0)
        result = simulation.run()

        record = next(r for r in result.scheduler.records
                      if r.label == "reader")
        assert record.restarts == 1
        node = simulation.scheduler.nodes[0]
        # After invalidation the retry re-read from disk; both the disk
        # channels and the cache are consistent.
        assert node.storage.disk.used == pytest.approx(1010 * MB)
        node.host.memory_manager.lists.assert_consistent()


class TestFaultPlanRuns:
    def _run(self, plan, n_jobs: int = 12):
        return run_experiment(
            "exp6", placement="cache", policy="preemptive-priority",
            n_jobs=n_jobs, n_nodes=3, n_datasets=4, input_size=200 * MB,
            output_size=50 * MB, fault_plan=plan,
        )

    def test_seeded_crashes_are_deterministic(self):
        plan = FaultPlan(seed=7, node_faults=(
            NodeFaultSpec(mtbf=8.0, mttr=2.0),
        ))
        first = self._run(plan)
        second = self._run(plan)
        assert first.makespan == second.makespan
        assert first.n_node_failures == second.n_node_failures
        assert first.n_job_restarts == second.n_job_restarts
        assert first.lost_work_seconds == second.lost_work_seconds
        assert first.n_node_failures > 0
        # Every submitted job completed despite the crashes.
        assert first.n_jobs == 12

    def test_fault_seed_changes_fault_times(self):
        base = FaultPlan(seed=7, node_faults=(NodeFaultSpec(mtbf=8.0, mttr=2.0),))
        other = FaultPlan(seed=8, node_faults=(NodeFaultSpec(mtbf=8.0, mttr=2.0),))
        assert self._run(base).makespan != self._run(other).makespan

    def test_zero_plan_is_byte_identical_to_no_plan(self):
        with_plan = self._run(FaultPlan())
        without = self._run(None)
        assert with_plan.makespan == without.makespan
        assert with_plan.cache_hit_ratio == without.cache_hit_ratio
        assert with_plan.mean_wait_time == without.mean_wait_time
        assert with_plan.mean_bounded_slowdown == without.mean_bounded_slowdown
        assert with_plan.n_node_failures == 0

    def test_nonzero_plan_requires_cluster_scheduler(self):
        plan = FaultPlan(node_faults=(NodeFaultSpec(mtbf=10.0),))
        simulation = Simulation(
            config=SimulationConfig(trace_interval=None), fault_plan=plan
        )
        simulation.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            simulation.run()

    def test_unknown_elastic_node_rejected(self):
        plan = FaultPlan(elastic=(ElasticNodeSpec(node="nope"),))
        simulation = cluster_simulation(n_nodes=2, fault_plan=plan)
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "job", 1.0, dataset=dataset,
                      output_size=10 * MB)
        with pytest.raises(ConfigurationError):
            simulation.run()


class TestStragglers:
    def test_rates_restored_exactly_after_window(self):
        plan = FaultPlan(seed=3, stragglers=(
            StragglerSpec(node="node1", compute_factor=0.5, io_factor=0.5,
                          start=0.5, duration=2.0),
        ))
        simulation = cluster_simulation(fault_plan=plan)
        dataset = File("dataset", 100 * MB)
        simulation.stage_file_replicated(dataset)
        submit_io_job(simulation, "job", 6.0, dataset=dataset,
                      output_size=10 * MB)
        host = simulation.host("node1")
        speed_before = host.cpu.speed
        bandwidths_before = [
            channel.bandwidth for channel in host.channels()
        ]
        simulation.run()
        # Exact (==) restoration: the injector records and restores the
        # original rates verbatim instead of multiplying back.
        assert host.cpu.speed == speed_before
        assert [c.bandwidth for c in host.channels()] == bandwidths_before

    def test_straggler_slows_the_run_deterministically(self):
        def run(plan):
            simulation = cluster_simulation(fault_plan=plan)
            dataset = File("dataset", 200 * MB)
            simulation.stage_file_replicated(dataset)
            submit_io_job(simulation, "job", 4.0, dataset=dataset,
                          output_size=10 * MB)
            return simulation.run().scheduler.makespan

        # The slowdown must be in force *before* the compute segment is
        # granted a core (CPU speed is sampled at grant time), so the
        # window opens at t=0 — the job's read still takes ~0.43s.
        plan = FaultPlan(seed=3, stragglers=(
            StragglerSpec(node="node1", compute_factor=0.25),
        ))
        slow_a, slow_b = run(plan), run(plan)
        fast = run(None)
        assert slow_a == slow_b
        assert slow_a > fast


class TestElasticCapacity:
    def test_late_joiner_takes_work_and_drains_before_leaving(self):
        plan = FaultPlan(elastic=(
            ElasticNodeSpec(node="node2", join_time=2.0, leave_time=6.0,
                            drain_poll=0.5),
        ))
        simulation = cluster_simulation(n_nodes=2, fault_plan=plan)
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        for i in range(6):
            submit_io_job(simulation, f"job{i}", 2.0, dataset=dataset,
                          output_size=10 * MB, cores=4, arrival=0.2 * i)
        result = simulation.run()

        records = {r.label: r for r in result.scheduler.records}
        assert len(records) == 6  # everything completed
        node2_jobs = [r for r in records.values() if r.node == "node2"]
        # The late joiner took work once it joined...
        assert node2_jobs
        assert min(r.start_time for r in node2_jobs) >= 2.0
        # ...and is draining (left) at the end of the run.
        node2 = next(n for n in simulation.scheduler.nodes
                     if n.name == "node2")
        assert node2.draining
        assert not node2.running

    def test_withheld_node_gets_no_work_before_join(self):
        plan = FaultPlan(elastic=(
            ElasticNodeSpec(node="node2", join_time=100.0),
        ))
        simulation = cluster_simulation(n_nodes=2, fault_plan=plan)
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        for i in range(4):
            submit_io_job(simulation, f"job{i}", 1.0, dataset=dataset,
                          output_size=10 * MB, arrival=0.0)
        result = simulation.run()
        assert all(r.node == "node1" for r in result.scheduler.records)


class TestFaultInjectorWiring:
    def test_zero_plan_starts_nothing(self, env):
        # Unit-level: a zero plan must not flip the scheduler into fault
        # mode (that would change event ordering and break parity).
        class _Scheduler:
            fault_mode = False

        scheduler = _Scheduler()
        injector = FaultInjector(env, scheduler, FaultPlan())
        injector.start()
        assert injector.processes == []
        assert scheduler.fault_mode is False
