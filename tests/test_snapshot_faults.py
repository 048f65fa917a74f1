"""Snapshot × fault-injection edge cases, and leave-vs-repair precedence.

The tentpole invariant (restore ≡ uninterrupted run) is easiest to break
when the snapshot lands in an awkward moment: mid-preemption, mid
flow-transfer, or with a node crashed and awaiting repair.  These tests
steer simulations into exactly those states before snapshotting.

The precedence tests pin the crash-vs-elastic-leave race: a node that
leaves the cluster (elastic drain-then-leave) stays gone — a repair from
its crash/repair stream arriving afterwards is discarded, never
resurrecting the departed node.
"""

from __future__ import annotations

from repro.faults.plan import (
    ElasticNodeSpec,
    FaultPlan,
    NodeFaultSpec,
)
from repro.filesystem.file import File
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.snapshot import (
    build_experiment,
    canonical_json,
    capture_state,
    finish_point,
    restore_simulation,
    run_experiment,
    write_snapshot,
)
from repro.units import MB


def canon(point) -> str:
    return canonical_json(point)


def step_into_state(sim, predicate, *, dt=0.25, limit=500.0) -> bool:
    """Advance ``sim`` in small steps until ``predicate(sim)`` holds."""
    t = sim.env.now
    while t < limit and not sim.completed:
        t += dt
        sim.step_until(t)
        if sim.completed:
            break
        if predicate(sim):
            return True
    return False


# --------------------------------------------------- awkward-moment snapshots
class TestSnapshotMidFaults:
    def test_snapshot_mid_preemption(self, tmp_path):
        """Snapshot while a preemption is suspending a running job."""
        kwargs = dict(policy="preemptive-priority", placement="cache",
                      load_factor=40.0)
        reference = run_experiment("exp7", **kwargs)

        sim = build_experiment("exp7", **kwargs)
        hit = step_into_state(
            sim,
            lambda s: bool(s.scheduler._suspending) or any(
                executor.suspended for executor in s.scheduler.executors
            ),
            dt=0.1,
        )
        assert hit, "replay never entered a preemption window"
        path = write_snapshot(sim, tmp_path / "mid-preempt.json")
        resumed = finish_point(sim.recipe, restore_simulation(path).run())
        assert canon(resumed) == canon(reference)

    def test_snapshot_mid_flow_transfer(self, tmp_path):
        """Snapshot while bytes are mid-flight on a shared channel."""
        kwargs = dict(simulator="wrench-cache", n_apps=4)
        reference = run_experiment("exp2", **kwargs)

        sim = build_experiment("exp2", **kwargs)

        def flows_in_flight(s):
            return any(
                channel._flows
                for host in s.platform.hosts.values()
                for channel in host.channels()
            )

        hit = step_into_state(sim, flows_in_flight, dt=0.5)
        assert hit, "no transfer was in flight at any boundary"
        # The capture must actually record the in-flight flows.
        state = capture_state(sim)
        assert any(
            channel["flows"]
            for host in state["hosts"].values()
            for channel in host["channels"]
        )
        path = write_snapshot(sim, tmp_path / "mid-flow.json")
        resumed = finish_point(sim.recipe, restore_simulation(path).run())
        assert canon(resumed) == canon(reference)

    def test_snapshot_with_node_down(self, tmp_path):
        """Snapshot while a crashed node awaits repair."""
        plan = FaultPlan(
            seed=11,
            node_faults=[NodeFaultSpec(node="*", mtbf=30.0, mttr=5.0)],
        )
        kwargs = dict(placement="cache", n_jobs=60, fault_plan=plan)
        reference = run_experiment("exp6", **kwargs)
        assert reference.n_node_failures > 0

        sim = build_experiment("exp6", **kwargs)
        hit = step_into_state(
            sim,
            lambda s: any(not node.up for node in s.scheduler.nodes),
            dt=0.25,
        )
        assert hit, "no node was down at any boundary"
        state = capture_state(sim)
        assert any(not node["up"] for node in state["scheduler"]["nodes"])
        # The fault streams' RNG positions travel in the capture.
        assert state["faults"]["rngs"], "expected live fault RNG streams"
        assert all(len(entry) == 4 for entry in state["faults"]["rngs"])

        path = write_snapshot(sim, tmp_path / "node-down.json")
        resumed = finish_point(sim.recipe, restore_simulation(path).run())
        assert canon(resumed) == canon(reference)
        assert resumed.n_node_failures == reference.n_node_failures
        assert resumed.n_job_restarts == reference.n_job_restarts


# ---------------------------------------------------------- leave-wins race
def two_node_simulation(fault_plan=None) -> Simulation:
    simulation = Simulation(
        config=SimulationConfig(cache_mode="writeback", trace_interval=None),
        fault_plan=fault_plan,
    )
    simulation.create_cluster_platform(
        2, cores_per_node=4, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(
        policy="preemptive-priority", placement="round-robin"
    )
    return simulation


def submit_job(simulation, label, cpu_time, dataset, *, cores=4):
    workflow = Workflow(label)
    workflow.add_task(Task.from_cpu_time(
        "work", cpu_time, inputs=[dataset],
        outputs=[File(f"{label}_out", 10 * MB)],
    ))
    return simulation.submit_job(workflow, cores=cores, arrival_time=0.0,
                                 estimated_runtime=cpu_time, label=label)


class TestLeaveWinsPrecedence:
    def _started(self, fault_plan=None) -> Simulation:
        simulation = two_node_simulation(fault_plan)
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)
        submit_job(simulation, "j1", 3.0, dataset)
        submit_job(simulation, "j2", 3.0, dataset)
        return simulation

    def test_leave_marks_node_unavailable(self):
        simulation = self._started()
        scheduler = simulation.scheduler
        scheduler.leave_node("node2")
        node = scheduler.node("node2")
        assert node.left and node.draining and not node.available
        # Idempotent.
        scheduler.leave_node("node2")
        assert node.left

    def test_repair_after_leave_is_discarded(self):
        simulation = self._started()
        scheduler = simulation.scheduler
        scheduler.fault_mode = True
        env = simulation.env

        def race():
            yield env.timeout(1.0)
            scheduler.drain_node("node2")
            # Crash lands while the node is draining...
            yield env.timeout(0.5)
            scheduler.fail_node("node2")
            yield env.timeout(0.5)
            # ...the drain completes (nothing runs on a crashed node)
            # and the node leaves...
            scheduler.leave_node("node2")
            yield env.timeout(2.0)
            # ...and the late repair from the crash stream is discarded.
            scheduler.restore_node("node2")

        env.process(race(), name="race")
        simulation.run()
        node = scheduler.node("node2")
        assert node.left
        assert not node.up, "repair resurrected a departed node"
        assert not node.available

    def test_crash_on_left_node_is_discarded(self):
        simulation = self._started()
        scheduler = simulation.scheduler
        scheduler.fault_mode = True
        env = simulation.env

        def race():
            yield env.timeout(1.0)
            scheduler.leave_node("node2")
            yield env.timeout(0.5)
            assert scheduler.fail_node("node2") == []

        env.process(race(), name="race")
        simulation.run()
        node = scheduler.node("node2")
        assert node.left
        assert node.n_failures == 0
        assert scheduler.n_node_failures == 0

    def test_undrain_after_leave_is_discarded(self):
        simulation = self._started()
        scheduler = simulation.scheduler
        scheduler.leave_node("node2")
        scheduler.undrain_node("node2")
        assert scheduler.node("node2").draining
        assert not scheduler.node("node2").available

    def test_injector_crash_during_drain_leaves_node_gone(self):
        """Full stack: the crash stream's repair never undoes the leave."""
        plan = FaultPlan(
            seed=5,
            node_faults=[NodeFaultSpec(node="node2", mtbf=1.0, mttr=500.0,
                                       first_failure_after=2.0,
                                       max_failures=1)],
            elastic=[ElasticNodeSpec(node="node2", join_time=0.0,
                                     leave_time=1.0, drain_poll=0.25)],
        )
        simulation = self._started(plan)
        # Long job keeps node2 draining (not left) when the crash lands.
        dataset = File("dataset2", 10 * MB)
        simulation.stage_file_replicated(dataset)
        result = simulation.run()
        node = simulation.scheduler.node("node2")
        assert node.left
        assert not node.up, "repair resurrected a departed node"
        # Every job still completed (restarted on the surviving node).
        assert result.scheduler.n_jobs == 2

    def test_leave_wins_run_is_deterministic(self):
        plan = FaultPlan(
            seed=5,
            node_faults=[NodeFaultSpec(node="node2", mtbf=1.0, mttr=500.0,
                                       first_failure_after=2.0,
                                       max_failures=1)],
            elastic=[ElasticNodeSpec(node="node2", join_time=0.0,
                                     leave_time=1.0, drain_poll=0.25)],
        )

        def run_once():
            simulation = self._started(plan)
            result = simulation.run()
            return canonical_json(result.scheduler.as_dict())

        assert run_once() == run_once()
