"""Tests of preemptive priority scheduling (checkpoint-and-requeue).

Unit tests exercise the :class:`PreemptivePriorityPolicy` planner alone;
integration tests drive the whole stack through the :class:`Simulation`
facade and check the timing, the checkpoint credit (lost-work penalty),
the rollback of partial outputs, and the page-cache residency restored on
resume.
"""

from __future__ import annotations

import pytest

from repro.filesystem.file import File
from repro.platform.host import Host
from repro.scheduler.cluster import NodeState
from repro.scheduler.job import Job
from repro.scheduler.policies import PreemptivePriorityPolicy
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.units import MB


def compute_job(name: str, cpu_time: float, *, cores: int = 1,
                arrival: float = 0.0, priority: int = 0,
                job_id: int = 0) -> Job:
    workflow = Workflow(name)
    workflow.add_task(Task(f"{name}_t", flops=cpu_time * 1e9))
    job = Job(workflow, cores=cores, arrival_time=arrival,
              estimated_runtime=cpu_time, priority=priority, label=name)
    job.id = job_id
    return job


def make_node(env, name: str = "n1", cores: int = 4) -> NodeState:
    return NodeState(Host(env, name, cores=cores), storage=None)


def running(node: NodeState, job: Job, started: float) -> Job:
    job.start_time = started
    job.last_start_time = started
    node.allocate(job)
    return job


class TestPolicyOrderAndPlan:
    def test_orders_by_priority_then_arrival(self):
        jobs = [
            compute_job("low", 1.0, arrival=0.0, priority=0, job_id=0),
            compute_job("high-late", 1.0, arrival=5.0, priority=2, job_id=1),
            compute_job("high-early", 1.0, arrival=1.0, priority=2, job_id=2),
        ]
        ordered = PreemptivePriorityPolicy().order(jobs)
        assert [job.label for job in ordered] == ["high-early", "high-late", "low"]

    def test_plan_picks_lowest_priority_least_elapsed_victims(self, env):
        node = make_node(env, cores=4)
        old_low = running(node, compute_job("old", 50.0, cores=2, job_id=1), started=0.0)
        new_low = running(node, compute_job("new", 50.0, cores=2, job_id=2), started=8.0)
        head = compute_job("urgent", 1.0, cores=2, priority=5, job_id=3)
        plan = PreemptivePriorityPolicy().plan_preemption([head], [node], now=10.0)
        assert plan is not None
        assert plan.job is head
        # One victim suffices; the most recently started loses least work.
        assert [victim.label for victim in plan.victims] == ["new"]
        assert old_low in node.running.values()

    def test_plan_accumulates_victims_until_fit(self, env):
        node = make_node(env, cores=4)
        running(node, compute_job("a", 50.0, cores=2, job_id=1), started=0.0)
        running(node, compute_job("b", 50.0, cores=2, job_id=2), started=0.0)
        head = compute_job("urgent", 1.0, cores=4, priority=1, job_id=3)
        plan = PreemptivePriorityPolicy().plan_preemption([head], [node], now=1.0)
        assert plan is not None
        assert len(plan.victims) == 2

    def test_no_plan_against_equal_or_higher_priority(self, env):
        node = make_node(env, cores=4)
        running(node, compute_job("peer", 50.0, cores=4, priority=1, job_id=1), 0.0)
        head = compute_job("urgent", 1.0, cores=4, priority=1, job_id=2)
        assert PreemptivePriorityPolicy().plan_preemption([head], [node], 1.0) is None

    def test_no_plan_when_victims_insufficient(self, env):
        node = make_node(env, cores=4)
        running(node, compute_job("low", 50.0, cores=1, job_id=1), 0.0)
        running(node, compute_job("peer", 50.0, cores=3, priority=7, job_id=2), 0.0)
        head = compute_job("urgent", 1.0, cores=4, priority=5, job_id=3)
        assert PreemptivePriorityPolicy().plan_preemption([head], [node], 1.0) is None

    def test_plan_respects_pinned_node(self, env):
        pinned_to = make_node(env, "n1", cores=4)
        other = make_node(env, "n2", cores=4)
        running(pinned_to, compute_job("low1", 50.0, cores=4, job_id=1), 0.0)
        running(other, compute_job("low2", 50.0, cores=4, job_id=2), 0.0)
        head = compute_job("urgent", 1.0, cores=4, priority=5, job_id=3)
        head.pinned_node = "n2"
        plan = PreemptivePriorityPolicy().plan_preemption([head], [pinned_to, other], 1.0)
        assert plan is not None
        assert plan.node.name == "n2"
        assert [victim.label for victim in plan.victims] == ["low2"]

    def test_plan_prefers_fewest_victims_across_nodes(self, env):
        split = make_node(env, "n1", cores=4)
        whole = make_node(env, "n2", cores=4)
        running(split, compute_job("s1", 50.0, cores=2, job_id=1), 0.0)
        running(split, compute_job("s2", 50.0, cores=2, job_id=2), 0.0)
        running(whole, compute_job("w", 50.0, cores=4, job_id=3), 0.0)
        head = compute_job("urgent", 1.0, cores=4, priority=5, job_id=4)
        plan = PreemptivePriorityPolicy().plan_preemption([head], [split, whole], 1.0)
        assert plan is not None
        assert [victim.label for victim in plan.victims] == ["w"]


def cluster_simulation(n_nodes: int = 1, cores_per_node: int = 4, *,
                       placement: str = "round-robin",
                       cache_mode: str = "writeback",
                       lost_work_penalty: float = 0.0) -> Simulation:
    simulation = Simulation(
        config=SimulationConfig(cache_mode=cache_mode, trace_interval=None)
    )
    simulation.create_cluster_platform(
        n_nodes, cores_per_node=cores_per_node, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(
        policy="preemptive-priority",
        placement=placement,
        lost_work_penalty=lost_work_penalty,
    )
    return simulation


def submit_compute(simulation: Simulation, label: str, cpu_time: float, *,
                   cores: int, arrival: float, priority: int = 0) -> Job:
    workflow = Workflow(label)
    workflow.add_task(Task(f"{label}_t", flops=cpu_time * 1e9))
    return simulation.submit_job(
        workflow, cores=cores, arrival_time=arrival,
        estimated_runtime=cpu_time, priority=priority, label=label,
    )


class TestPreemptiveScheduling:
    def test_high_priority_preempts_and_victim_resumes(self):
        simulation = cluster_simulation()
        submit_compute(simulation, "low", 10.0, cores=4, arrival=0.0)
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=1)
        result = simulation.run()

        records = {record.label: record for record in result.scheduler.records}
        # The high-priority job starts the moment it arrives.
        assert records["high"].start_time == pytest.approx(2.0)
        assert records["high"].wait_time == pytest.approx(0.0)
        # The victim checkpointed 2s of compute, resumed after the urgent
        # job finished, and redid nothing (no lost-work penalty).
        low = records["low"]
        assert low.preemptions == 1
        assert low.end_time == pytest.approx(11.0)
        assert low.runtime == pytest.approx(10.0)
        assert result.scheduler.n_preemptions == 1

    def test_lost_work_penalty_is_redone_on_resume(self):
        simulation = cluster_simulation(lost_work_penalty=1.5)
        submit_compute(simulation, "low", 10.0, cores=4, arrival=0.0)
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=1)
        result = simulation.run()

        low = next(r for r in result.scheduler.records if r.label == "low")
        # 2s done, 1.5s lost: 9.5s remain after the resume at t=3.
        assert low.end_time == pytest.approx(12.5)
        assert low.runtime == pytest.approx(11.5)

    def test_no_preemption_between_equal_priorities(self):
        simulation = cluster_simulation()
        submit_compute(simulation, "first", 5.0, cores=4, arrival=0.0)
        submit_compute(simulation, "second", 1.0, cores=4, arrival=1.0)
        result = simulation.run()

        records = {record.label: record for record in result.scheduler.records}
        assert result.scheduler.n_preemptions == 0
        assert records["second"].start_time == pytest.approx(5.0)

    def test_victim_resumes_on_its_checkpoint_node(self):
        simulation = cluster_simulation(n_nodes=2, cores_per_node=2)
        submit_compute(simulation, "low1", 10.0, cores=2, arrival=0.0)
        submit_compute(simulation, "low2", 10.0, cores=2, arrival=0.0)
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=3)
        result = simulation.run()

        records = {record.label: record for record in result.scheduler.records}
        victim = next(r for r in records.values() if r.preemptions == 1)
        scheduler = simulation.scheduler
        job = next(j for j in scheduler.jobs if j.label == victim.label)
        # The requeued job was pinned to (and finished on) the node
        # holding its checkpoint.
        assert job.pinned_node == victim.node

    def test_preempted_io_job_rolls_back_and_rereads_from_cache(self):
        simulation = cluster_simulation(cache_mode="writeback")
        dataset = File("dataset", 200 * MB)
        simulation.stage_file_replicated(dataset)

        low = Workflow("low")
        low.add_task(Task.from_cpu_time(
            "work", 10.0, inputs=[dataset], outputs=[File("low_out", 50 * MB)],
        ))
        simulation.submit_job(low, cores=4, arrival_time=0.0,
                              estimated_runtime=10.0, label="low")
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=1)
        result = simulation.run()

        records = {record.label: record for record in result.scheduler.records}
        assert records["low"].preemptions == 1
        # Two read attempts were traced: the original and the resume; the
        # resume is served (almost) entirely by the page cache left warm
        # through the suspension.
        reads = [op for op in result.operations_of("read", "low")]
        assert len(reads) == 2
        assert reads[1].cache_bytes >= 0.9 * dataset.size
        assert reads[1].duration < reads[0].duration
        # The rollback deallocated the interrupted attempt's output: the
        # node disk holds exactly the dataset and one copy of the output.
        node = simulation.scheduler.nodes[0]
        assert node.storage.disk.used == pytest.approx(250 * MB)
        # All anonymous memory was released (suspension releases the
        # checkpointed task's footprint; completion releases the rest).
        assert node.host.memory_manager.anonymous == pytest.approx(0.0)

    def test_preemption_during_write_rolls_back_partial_output(self):
        simulation = cluster_simulation(cache_mode="writethrough")
        dataset = File("dataset", 10 * MB)
        simulation.stage_file_replicated(dataset)

        low = Workflow("low")
        low.add_task(Task.from_cpu_time(
            "work", 1.0, inputs=[dataset], outputs=[File("low_out", 1000 * MB)],
        ))
        simulation.submit_job(low, cores=4, arrival_time=0.0,
                              estimated_runtime=4.0, label="low")
        # Arrives while "low" streams its 1000 MB output to disk.
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=1)
        result = simulation.run()

        records = {record.label: record for record in result.scheduler.records}
        assert records["low"].preemptions == 1
        node = simulation.scheduler.nodes[0]
        # No double-allocation: dataset + exactly one output copy.
        assert node.storage.disk.used == pytest.approx(1010 * MB)
        # Exactly one completed write operation was traced.
        assert len(result.operations_of("write", "low")) == 1

    def test_priority_class_metrics_split_classes(self):
        simulation = cluster_simulation()
        submit_compute(simulation, "low", 10.0, cores=4, arrival=0.0)
        submit_compute(simulation, "high", 1.0, cores=2, arrival=2.0, priority=1)
        result = simulation.run()

        classes = result.scheduler.priority_class_metrics()
        assert sorted(classes) == [0, 1]
        assert classes[1].n_jobs == 1
        assert classes[1].mean_wait_time == pytest.approx(0.0)
        assert classes[1].mean_bounded_slowdown == pytest.approx(1.0)
        assert classes[0].preemptions == 1
        # The victim started immediately (wait 0) but its turnaround now
        # exceeds its runtime: the preemption cost lands in its slowdown.
        assert classes[0].mean_bounded_slowdown > 1.0


class TestComputeCreditAccuracy:
    """``CPU.cancel`` reports the seconds an interrupted computation held a
    core: the executor credits that much work to the task's checkpoint."""

    def test_core_queueing_time_earns_no_checkpoint_credit(self, env):
        """A task interrupted while queued for a busy core executed nothing."""
        from repro.des.events import Interrupt

        cpu = Host(env, "n1", cores=1).cpu
        observed = {}

        def run_hog():
            yield cpu.execute(10e9)

        def run_queued():
            work = cpu.execute(10e9)
            try:
                yield work
            except Interrupt:
                observed["executed"] = cpu.cancel(work)

        env.process(run_hog())
        victim = env.process(run_queued())

        def interrupter():
            yield env.timeout(3.0)
            victim.interrupt("preempt")

        env.process(interrupter())
        env.run()
        # Three wall-clock seconds elapsed, but the core was never granted.
        assert observed["executed"] == 0.0

    def test_granted_core_reports_executed_seconds(self, env):
        from repro.des.events import Interrupt

        cpu = Host(env, "n1", cores=1).cpu
        observed = {}

        def run():
            work = cpu.execute(10e9)
            try:
                yield work
            except Interrupt:
                observed["executed"] = cpu.cancel(work)

        victim = env.process(run())

        def interrupter():
            yield env.timeout(4.0)
            victim.interrupt("preempt")

        env.process(interrupter())
        env.run()
        assert observed["executed"] == pytest.approx(4.0)
        # The cancelled computation released its core at the interrupt.
        assert cpu.busy_cores == 0

    def test_interrupt_in_the_instant_the_computation_ends(self, env):
        """The computation's own timeout fires first, then the interrupter's
        (queued later at the same time): the task gets the interrupt after
        the computation ended but before it resumed, and the whole 10 s
        still count."""
        from repro.des.events import Interrupt

        cpu = Host(env, "n1", cores=1).cpu
        observed = {}

        def run():
            work = cpu.execute(10e9)
            try:
                yield work
            except Interrupt:
                observed["alive"] = work.is_alive
                observed["executed"] = cpu.cancel(work)

        victim = env.process(run())

        def interrupter():
            yield env.timeout(1.0)
            yield env.timeout(9.0)
            victim.interrupt("preempt")

        env.process(interrupter())
        env.run()
        assert observed == {"alive": False, "executed": 10.0}
        assert cpu.busy_cores == 0


class TestPriorityAging:
    """aging_rate bounds low-priority starvation (ROADMAP Exp 7 follow-up)."""

    def test_rejects_negative_rate(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PreemptivePriorityPolicy(aging_rate=-0.1)

    def test_effective_priority_grows_with_waiting(self):
        policy = PreemptivePriorityPolicy(aging_rate=0.5)
        job = compute_job("j", 1.0, arrival=10.0, priority=1)
        assert policy.effective_priority(job, now=10.0) == pytest.approx(1.0)
        assert policy.effective_priority(job, now=14.0) == pytest.approx(3.0)
        # Jobs submitted in the future (trace replays) never get credit.
        assert policy.effective_priority(job, now=5.0) == pytest.approx(1.0)

    def test_zero_rate_keeps_strict_priority_order(self):
        jobs = [
            compute_job("low", 1.0, arrival=0.0, priority=0, job_id=0),
            compute_job("high", 1.0, arrival=100.0, priority=2, job_id=1),
        ]
        ordered = PreemptivePriorityPolicy().order(jobs, now=1000.0)
        assert [job.label for job in ordered] == ["high", "low"]

    def test_starved_job_overtakes_fresher_high_priority(self):
        # Aging overtakes *later* arrivals: every queued job ages at the
        # same rate, so a low-priority job never catches one it co-waits
        # with, but any high-priority job arriving more than
        # priority_gap / rate seconds later starts behind it — which is
        # the starvation pattern (an endless stream of fresh arrivals).
        policy = PreemptivePriorityPolicy(aging_rate=0.02)
        starved = compute_job("starved", 1.0, arrival=0.0, priority=0, job_id=0)
        early = compute_job("early", 1.0, arrival=50.0, priority=2, job_id=1)
        late = compute_job("late", 1.0, arrival=150.0, priority=2, job_id=2)
        # At t=50 the starved job's credit (1 point) trails the 2-point gap.
        assert policy.order([starved, early], now=50.0)[0].label == "early"
        # At t=150 its credit (3 points) beats the newcomer's bare priority.
        assert policy.order([starved, late], now=150.0)[0].label == "starved"

    def test_aged_head_blocks_queue_until_it_runs(self, env):
        # Once an aged low-priority job reaches the head, strict
        # head-of-line scheduling reserves the next fitting allocation
        # for it: a fresh high-priority job cannot jump past it.
        policy = PreemptivePriorityPolicy(aging_rate=1.0)
        node = make_node(env, cores=4)
        running(node, compute_job("hog", 100.0, cores=4, job_id=9), started=0.0)
        starved = compute_job("starved", 1.0, arrival=0.0, priority=0, job_id=0)
        fresh = compute_job("fresh", 1.0, arrival=99.0, priority=2, job_id=1)
        queue = [starved, fresh]
        assert policy.order(queue, now=100.0)[0].label == "starved"
        # No room: nothing is selected, but the starved job stays the head
        # (it is not skipped in favour of the high-priority arrival).
        assert policy.select(queue, [node], now=100.0) is None
        node.release(node.running[9])
        decision = policy.select(queue, [node], now=100.0)
        assert decision is not None and decision.job.label == "starved"

    def test_aging_does_not_enable_preemption_of_higher_priority(self, env):
        # Aging affects ordering only: an aged batch job never suspends a
        # running job of a higher raw priority class.
        policy = PreemptivePriorityPolicy(aging_rate=1.0)
        node = make_node(env, cores=4)
        running(node, compute_job("interactive", 50.0, cores=4, priority=2,
                                  job_id=9), started=0.0)
        starved = compute_job("starved", 1.0, arrival=0.0, priority=0, job_id=0)
        assert policy.order([starved], now=1000.0)[0].label == "starved"
        assert policy.plan_preemption([starved], [node], now=1000.0) is None

    def test_starved_job_eventually_runs_in_simulation(self):
        # End to end: a stream of high-priority jobs saturates a single
        # node.  Without aging the low-priority job waits for the whole
        # stream; with aging it reaches the head and runs much earlier.
        def replay(aging_rate):
            simulation = Simulation(config=SimulationConfig(
                cache_mode="writeback", trace_interval=None))
            simulation.create_cluster_platform(1, cores_per_node=2,
                                               with_nfs_server=False)
            simulation.create_cluster_scheduler(
                policy=PreemptivePriorityPolicy(aging_rate=aging_rate),
                placement="round-robin",
            )
            low_workflow = Workflow("low")
            low_workflow.add_task(Task("low_t", flops=1e9))
            simulation.submit_job(low_workflow, cores=1, arrival_time=0.0,
                                  estimated_runtime=1.0, priority=0,
                                  label="low")
            for index in range(30):
                workflow = Workflow(f"hi{index}")
                workflow.add_task(Task(f"hi{index}_t", flops=4e9))
                simulation.submit_job(workflow, cores=2,
                                      arrival_time=0.1 * index,
                                      estimated_runtime=4.0, priority=5,
                                      label=f"hi{index}")
            result = simulation.run()
            records = {r.label: r for r in result.scheduler.records}
            return records["low"]

        without_aging = replay(0.0)
        with_aging = replay(2.0)
        # The aged run starts the starved job well before the stream ends;
        # the strict run keeps it waiting until every high-priority job
        # (which needs both cores) has finished.
        assert with_aging.start_time < without_aging.start_time
        assert with_aging.wait_time < without_aging.wait_time
