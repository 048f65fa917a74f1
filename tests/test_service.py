"""Tests of the simulation service: streaming scheduler, submission
queue and log, job specs, the in-process service lifecycle, warm-start
restores, and the off-main-thread sweep timeout.

The governing invariant (shared with ``test_service_recovery.py``): the
durable submission log fully determines the results — a recovered or
replayed run is byte-identical to the uninterrupted one.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    SchedulingError,
    ServiceBackpressure,
    ServiceDraining,
    SnapshotError,
)
from repro.scheduler.arrivals import SubmissionQueue
from repro.service import (
    JobSpec,
    LogEntry,
    ServiceConfig,
    SimulationService,
    SubmissionLog,
    apply_entry,
    build_service_cluster,
    canonical_result,
    replay_entries,
    replay_result,
)
from repro.service.log import OP_CLOSE, OP_SUBMIT, SubmissionLogError
from repro.snapshot import (
    SimRecipe,
    SnapshotPlan,
    apply_live_overrides,
    capture_state,
    fingerprint,
    read_snapshot_doc,
    restore_simulation,
    to_jsonable,
    warm_start_values,
    write_snapshot,
)
from repro.units import MB

#: A tiny service cluster every test here can afford to replay.
SMALL_PARAMS = dict(
    n_nodes=2, cores_per_node=2, n_datasets=3,
    input_size=32 * MB, chunk_size=16 * MB,
)
SMALL_RECIPE = SimRecipe("service-cluster", dict(SMALL_PARAMS))


def small_service(tmp_path, **kwargs):
    kwargs.setdefault("recipe", SMALL_RECIPE)
    return SimulationService(tmp_path / "svc", **kwargs)


def spec_dict(label, dataset=0, runtime=1.0, **extra):
    return {"label": label, "dataset": dataset, "runtime": runtime, **extra}


# ------------------------------------------------------------ streaming
class TestStreamingScheduler:
    def build(self):
        return build_service_cluster(**SMALL_PARAMS)

    def test_feed_requires_streaming(self):
        from repro.scheduler.job import Job
        from repro.simulator.simulation import Simulation, SimulationConfig
        from repro.simulator.workflow import Workflow

        sim = Simulation(config=SimulationConfig(chunk_size=16 * MB))
        sim.create_cluster_platform(2, cores_per_node=2,
                                    with_nfs_server=False)
        scheduler = sim.create_cluster_scheduler()
        with pytest.raises(SchedulingError, match="streaming"):
            scheduler.feed(Job(Workflow("j0")))
        with pytest.raises(SchedulingError, match="streaming"):
            scheduler.close_stream()

    def test_submit_delegates_to_feed_and_close_ends_run(self):
        sim = self.build()
        sim.submit_job(
            JobSpec.from_dict(spec_dict("j0")).build_workflow(
                sim.service_datasets),
            label="j0",
        )
        sim.scheduler.close_stream()
        result = sim.run()
        assert result.scheduler.n_jobs == 1

    def test_mid_run_feed_and_past_arrival_clamped(self):
        sim = self.build()
        sim.step_until(5.0)
        job = sim.submit_job(
            JobSpec.from_dict(spec_dict("late")).build_workflow(
                sim.service_datasets),
            arrival_time=1.0, label="late",
        )
        # A job cannot arrive in the simulated past.
        assert job.arrival_time == sim.env.now
        sim.scheduler.close_stream()
        result = sim.run()
        record = result.scheduler.records[0]
        assert record.arrival_time >= 5.0

    def test_feed_after_close_raises(self):
        sim = self.build()
        sim.scheduler.close_stream()
        sim.scheduler.close_stream()  # idempotent
        with pytest.raises(SchedulingError, match="closed"):
            sim.submit_job(
                JobSpec.from_dict(spec_dict("j1")).build_workflow(
                    sim.service_datasets),
                label="j1",
            )

    def test_empty_closed_stream_completes(self):
        sim = self.build()
        sim.scheduler.close_stream()
        result = sim.run()
        assert result.scheduler.n_jobs == 0

    def test_duplicate_label_rejected(self):
        sim = self.build()
        workflow = JobSpec.from_dict(spec_dict("dup")).build_workflow(
            sim.service_datasets)
        sim.submit_job(workflow, label="dup")
        with pytest.raises(SchedulingError, match="unique label"):
            sim.submit_job(workflow, label="dup")

    def test_telemetry_ticks_do_not_move_the_injection_clock(
            self, monkeypatch):
        """An op logged at ``t`` is applied at ``t``, observed or not.

        The DES sampler's 1 s ticks are events only an observed run has.
        A pause must leave both clocks at ``t`` — not at their last event
        — or a replayed close (or submit) wakes the scheduler at a
        different simulated time than the live service did.
        """
        sims = []
        for observed in (True, False):
            if observed:
                monkeypatch.setenv("REPRO_OBS", "1")
            else:
                monkeypatch.delenv("REPRO_OBS")
            sim = self.build()
            assert (sim.observer is not None) is observed
            sims.append(sim)
        t = 3.5
        entries = [
            LogEntry(seq=0, op=OP_SUBMIT, t=0.0, spec=spec_dict("j0")),
            LogEntry(seq=1, op=OP_CLOSE, t=t),
        ]
        for sim in sims:
            sim.step_until(0.0)
            apply_entry(sim, entries[0])
            sim.step_until(t)
            assert sim.env.now == t
        observed, unobserved = sims
        # t lies between a sampler tick and the next real event.
        assert unobserved.scheduler.jobs[0].end_time < 3.0
        assert observed.env.peek() == 4.0 < unobserved.env.peek()
        for sim in sims:
            apply_entry(sim, entries[1])
        assert (canonical_result(observed.run())
                == canonical_result(unobserved.run()))


# ------------------------------------------------------- submission queue
class TestSubmissionQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SubmissionQueue(0)

    def test_offer_and_drain_preserve_order(self):
        queue = SubmissionQueue(4)
        for item in ("a", "b", "c"):
            assert queue.offer(item)
        assert len(queue) == 3
        assert queue.drain(timeout=0) == ["a", "b", "c"]
        assert len(queue) == 0

    def test_offer_beyond_bound_is_rejected_not_dropped(self):
        queue = SubmissionQueue(2)
        assert queue.offer(1) and queue.offer(2)
        assert not queue.offer(3)
        assert queue.n_rejected == 1
        assert queue.n_accepted == 2
        # The rejected item never entered the queue.
        assert queue.drain(timeout=0) == [1, 2]

    def test_drain_times_out_empty(self):
        queue = SubmissionQueue(2)
        start = time.perf_counter()
        assert queue.drain(timeout=0.05) == []
        assert time.perf_counter() - start < 1.0

    def test_drain_wakes_on_offer(self):
        queue = SubmissionQueue(2)
        got = []

        def consumer():
            got.extend(queue.drain(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.offer("x")
        thread.join(5.0)
        assert got == ["x"]


# ------------------------------------------------------------- job specs
class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict(spec_dict("j", dataset=2, runtime=3.5,
                                           cores=2, priority=1))
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_dict(spec_dict("j", nodes=4))

    def test_dataset_and_runtime_required(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            JobSpec.from_dict({"label": "j"})

    def test_default_label(self):
        spec = JobSpec.from_dict({"dataset": 0, "runtime": 1.0},
                                 default_label="job7")
        assert spec.label == "job7"

    @pytest.mark.parametrize("patch,match", [
        (dict(dataset=9), "out of range"),
        (dict(dataset=True), "integer index"),
        (dict(runtime=0.0), "runtime"),
        (dict(cores=0), "cores"),
        (dict(cores=64), "largest node"),
        (dict(arrival_time=-1.0), "arrival_time"),
        (dict(output_size=-1.0), "output_size"),
    ])
    def test_validation(self, patch, match):
        spec = JobSpec.from_dict(spec_dict("j", **patch))
        with pytest.raises(ConfigurationError, match=match):
            spec.validate(n_datasets=3, max_cores=8)

    def test_build_workflow_reads_one_dataset(self):
        sim = build_service_cluster(**SMALL_PARAMS)
        workflow = JobSpec.from_dict(
            spec_dict("j", dataset=1)).build_workflow(sim.service_datasets)
        task = workflow.tasks[0]
        assert [f.name for f in task.inputs] == ["dataset1"]
        assert [f.name for f in task.outputs] == ["j_out"]


# --------------------------------------------------------- submission log
class TestSubmissionLog:
    def entry(self, seq, t=0.0, op=OP_SUBMIT, **kw):
        spec = spec_dict(f"j{seq}") if op == OP_SUBMIT else None
        return LogEntry(seq=seq, op=op, t=t, spec=spec, **kw)

    def test_append_then_read_round_trips(self, tmp_path):
        log = SubmissionLog(tmp_path / "s.log")
        log.append(self.entry(0, t=0.0, token="tok"))
        log.append(self.entry(1, t=2.5))
        log.append(self.entry(2, t=3.0, op=OP_CLOSE))
        log.close()
        entries = SubmissionLog(tmp_path / "s.log").entries()
        assert [(e.seq, e.op, e.t) for e in entries] == [
            (0, OP_SUBMIT, 0.0), (1, OP_SUBMIT, 2.5), (2, OP_CLOSE, 3.0)]
        assert entries[0].token == "tok"

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0))
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "op": "subm')  # crash mid-append
        assert len(SubmissionLog(path).entries()) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "s.log"
        lines = [json.dumps(self.entry(0).as_dict()), "garbage",
                 json.dumps(self.entry(2, t=1.0).as_dict())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SubmissionLogError, match="corrupt at line 2"):
            SubmissionLog(path).entries()

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "s.log"
        for entry in (self.entry(0), self.entry(2, t=1.0)):
            SubmissionLog(path).append(entry)
        with pytest.raises(SubmissionLogError, match="out of sequence"):
            SubmissionLog(path).entries()

    def test_time_going_backwards_raises(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0, t=5.0))
        log.append(self.entry(1, t=1.0))
        with pytest.raises(SubmissionLogError, match="backwards"):
            SubmissionLog(path).entries()

    def test_close_must_be_final(self, tmp_path):
        path = tmp_path / "s.log"
        log = SubmissionLog(path)
        log.append(self.entry(0, op=OP_CLOSE))
        log.append(self.entry(1, t=1.0))
        with pytest.raises(SubmissionLogError, match="not the final"):
            SubmissionLog(path).entries()


# ---------------------------------------------------------------- service
class TestSimulationService:
    def test_submit_drain_and_replay_identical(self, tmp_path):
        service = small_service(
            tmp_path, snapshot_plan=SnapshotPlan.fixed(2.0, keep=3)
        ).start()
        acks = [
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=0.5 + 0.25 * i))
            for i in range(4)
        ]
        assert [ack["seq"] for ack in acks] == [0, 1, 2, 3]
        assert all(ack["t"] >= 0.0 for ack in acks)
        summary = service.drain(timeout=60.0)
        assert summary["jobs_submitted"] == 4
        assert summary["jobs_completed"] == 4

        # The log + recipe fully determine the results.
        entries = service.log.entries()
        assert entries[-1].op == OP_CLOSE
        reference = canonical_result(replay_result(service.recipe, entries))
        assert service.canonical_result() == reference
        # ... and the canonical result was durably written.
        on_disk = (service.data_dir / "result.json").read_text("utf-8")
        assert on_disk == reference

    def test_idempotent_token(self, tmp_path):
        service = small_service(tmp_path).start()
        first = service.submit(spec_dict("one"), token="tok-1")
        again = service.submit(spec_dict("one"), token="tok-1")
        assert again == {**first, "duplicate": True}
        # Only one durable entry, only one job.
        assert len(service.log.entries()) == 1
        service.drain(timeout=60.0)
        assert service.summary()["jobs_completed"] == 1

    def test_duplicate_label_rejected_before_logging(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("same"))
        with pytest.raises(ConfigurationError, match="unique"):
            service.submit(spec_dict("same"))
        assert len(service.log.entries()) == 1
        service.drain(timeout=60.0)

    def test_invalid_spec_rejected_unlogged(self, tmp_path):
        service = small_service(tmp_path).start()
        with pytest.raises(ConfigurationError, match="out of range"):
            service.submit(spec_dict("bad", dataset=99))
        assert service.log.entries() == []
        service.drain(timeout=60.0)

    def test_backpressure_when_queue_full(self, tmp_path):
        # Unstarted service: nothing drains the queue, so the bound hits.
        service = small_service(tmp_path, queue_capacity=2)
        for i in range(2):
            assert service.queue.offer(("t", spec_dict(f"j{i}"), None))
        with pytest.raises(ServiceBackpressure) as excinfo:
            service.submit(spec_dict("over"))
        assert excinfo.value.retry_after >= 1.0
        assert service.queue.n_rejected == 1

    def test_draining_rejects_submissions(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("j0"))
        service.request_drain()
        with pytest.raises(ServiceDraining):
            service.submit(spec_dict("j1"))
        service.drain(timeout=60.0)

    def test_job_status_walks_the_lifecycle(self, tmp_path):
        # Admit and advance by hand, without the worker thread, so every
        # state is observed deterministically.
        service = small_service(tmp_path)
        service._recover()
        sim = service._sim

        def admit(spec):
            future = Future()
            service._admit(None, spec, future)
            return future.result(timeout=0)

        for i in range(2):  # both 2-core nodes busy for 5 s
            admit(spec_dict(f"busy{i}", cores=2, runtime=5.0))
        admit(spec_dict("watched", cores=2, runtime=1.0, arrival_time=2.0))
        states = [service.job_status("watched")["state"]]
        for _ in range(200):
            if states[-1] == "completed":
                break
            sim.step_until(sim.env.now + 0.25)
            state = service.job_status("watched")["state"]
            if state != states[-1]:
                states.append(state)
        assert states == ["scheduled", "queued", "running", "completed"]
        done = service.job_status("watched")
        assert done["node"] in {node.name for node in sim.scheduler.nodes}
        assert done["wait_time"] == done["start_time"] - 2.0 > 0.0
        with pytest.raises(KeyError):
            service.job_status("nope")

    def test_job_status_and_metrics(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("watched"))
        with pytest.raises(KeyError):
            service.job_status("nope")
        status = service.job_status("watched")
        assert status["state"] in ("accepted", "scheduled", "queued",
                                   "running", "completed")
        metrics = service.metrics()
        assert metrics["queue"]["capacity"] == 64
        assert metrics["sim"]["submitted"] == 1
        service.drain(timeout=60.0)
        assert service.job_status("watched")["state"] == "completed"
        assert service.health()["status"] == "drained"
        assert not service.ready

    def test_snapshot_now(self, tmp_path):
        service = small_service(tmp_path).start()
        service.submit(spec_dict("j0"))
        meta = service.snapshot_now()
        assert meta["applied_seq"] == 1
        assert (service.data_dir / "snapshots").glob("svc-*.json")
        service.drain(timeout=60.0)

    def test_recipe_mismatch_rejected(self, tmp_path):
        small_service(tmp_path)
        other = SimRecipe("service-cluster", dict(SMALL_PARAMS, n_nodes=3))
        with pytest.raises(ConfigurationError, match="different"):
            small_service(tmp_path, recipe=other)

    def test_recipe_required_on_first_open(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no recipe"):
            SimulationService(tmp_path / "fresh")


class TestServiceRecovery:
    """In-process recovery: re-open a data directory and converge.

    Recovery is log replay; snapshots are an opt-in audit that recovery
    never reads.
    """

    def run_and_abandon(self, tmp_path, n_jobs=4):
        """Run a service to completion, return its data dir + reference.

        The drained dir stands in for a crash *after* the close op; the
        mid-run crash (copy-while-running) is covered below and the real
        SIGKILL in ``test_service_recovery.py``.
        """
        service = small_service(tmp_path).start()
        for i in range(n_jobs):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=0.5 + 0.5 * i))
        service.drain(timeout=60.0)
        return service.data_dir, service.canonical_result()

    def midrun_copy(self, tmp_path, n_jobs=4):
        """Submit ``n_jobs``, copy the data dir (an open log), drain."""
        service = small_service(tmp_path).start()
        for i in range(n_jobs):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=1.0))
        # Wait until the worker has advanced into the work, then copy
        # the dir — a crash at an arbitrary moment before the drain.
        deadline = time.monotonic() + 30.0
        while (service.metrics()["sim"]["now"] <= 0.0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        crashed_dir = tmp_path / "crashed-copy"
        shutil.copytree(service.data_dir, crashed_dir)
        service.drain(timeout=60.0)
        return crashed_dir

    def test_reopen_closed_log_reproduces_result(self, tmp_path):
        data_dir, reference = self.run_and_abandon(tmp_path)
        (data_dir / "result.json").unlink()
        recovered = SimulationService(data_dir).start()
        recovered.join(timeout=60.0)
        assert recovered._drained.wait(60.0)
        assert recovered.canonical_result() == reference
        assert (data_dir / "result.json").read_text("utf-8") == reference

    def test_midrun_copy_recovers_byte_identical(self, tmp_path):
        crashed_dir = self.midrun_copy(tmp_path)
        entries = SubmissionLog(crashed_dir / "submissions.log").entries()
        assert entries, "the copy should hold acknowledged submissions"
        reference = canonical_result(
            replay_result(SMALL_RECIPE, entries)
        )
        recovered = SimulationService(crashed_dir).start()
        summary = recovered.drain(timeout=60.0)
        assert summary["jobs_completed"] == sum(
            1 for e in entries if e.op == OP_SUBMIT
        )
        assert recovered.canonical_result() == reference

    def test_reopen_reports_entries_replayed(self, tmp_path):
        crashed_dir = self.midrun_copy(tmp_path, n_jobs=3)
        n_entries = len(SubmissionLog(crashed_dir / "submissions.log")
                        .entries())
        assert n_entries == 3
        recovered = SimulationService(crashed_dir).start()
        health = recovered.health()
        assert health["status"] == "ok"
        assert health["recovery_entries"] == n_entries
        assert health["recovery_seconds"] > 0.0
        service_metrics = recovered.metrics()["service"]
        assert service_metrics["service.recoveries"] == {"": 1.0}
        assert recovered.job_status("job2")["label"] == "job2"
        recovered.drain(timeout=60.0)

    def test_default_config_writes_no_snapshots(self, tmp_path):
        service = ServiceConfig(data_dir=tmp_path / "svc",
                                recipe=SMALL_RECIPE).build_service().start()
        for i in range(3):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=1.0 + i))
        service.drain(timeout=60.0)
        assert service.summary()["jobs_completed"] == 3
        assert not (service.data_dir / "snapshots").exists()

    def test_stale_and_corrupt_snapshots_are_ignored(self, tmp_path):
        crashed_dir = self.midrun_copy(tmp_path)
        entries = SubmissionLog(crashed_dir / "submissions.log").entries()
        reference = canonical_result(replay_result(SMALL_RECIPE, entries))
        # A snapshot of some other history, plus one torn file.
        other = build_service_cluster(**SMALL_PARAMS)
        other.step_until(2.0)
        snap_dir = crashed_dir / "snapshots"
        stale = write_snapshot(other, snap_dir / "svc-00000003.json")
        corrupt = snap_dir / "svc-00000007.json"
        corrupt.write_text("{ not json", encoding="utf-8")
        before = {path: path.read_bytes() for path in (stale, corrupt)}

        recovered = SimulationService(crashed_dir).start()
        audit = Path(recovered.snapshot_now()["path"])
        assert audit == snap_dir / "svc-00000008.json"
        recovered.drain(timeout=60.0)
        assert recovered.canonical_result() == reference
        assert {path: path.read_bytes() for path in before} == before

    def test_audit_snapshot_fingerprint_matches_replay(self, tmp_path):
        service = small_service(
            tmp_path, snapshot_plan=SnapshotPlan.fixed(0.5, keep=50)
        ).start()
        for i in range(3):
            service.submit(spec_dict(f"job{i}", dataset=i % 3,
                                     runtime=1.0))
        service.snapshot_now()
        service.drain(timeout=60.0)
        entries = service.log.entries()
        paths = sorted((service.data_dir / "snapshots").glob("svc-*.json"))
        assert len(paths) >= 2
        for path in paths:
            doc = read_snapshot_doc(path)
            applied = doc["service"]["applied_seq"]
            sim = replay_entries(SMALL_RECIPE, entries[:applied])
            sim.step_until(doc["t"])
            replayed = fingerprint(to_jsonable(capture_state(sim)))
            assert replayed == doc["fingerprint"], path.name


# ------------------------------------------------------------ warm starts
class TestWarmStart:
    """Branching variants off one snapshot (the exp10 machinery).

    Warm starts need a recipe-complete workload — the snapshot's recipe
    must rebuild the *whole* submission history — so they use exp6, just
    like ``run_exp10`` (service snapshots carry their history in the
    submission log instead and recover through the service protocol).
    """

    EXP6 = dict(n_jobs=12, n_nodes=2, n_datasets=3, cores_per_node=8)

    def snapshot(self, tmp_path):
        from repro.experiments.exp6_cluster import build_exp6

        sim = build_exp6(**self.EXP6)
        sim.step_until(3.0)
        return write_snapshot(sim, tmp_path / "branch.json")

    def test_restore_with_recipe_overrides(self, tmp_path):
        path = self.snapshot(tmp_path)
        sim = restore_simulation(path, overrides={"placement":
                                                  "round-robin"})
        assert type(sim.scheduler.placement).__name__.startswith("RoundRobin")
        result = sim.run()
        assert result.scheduler.n_jobs == self.EXP6["n_jobs"]

    def test_live_override_unknown_key_raises(self, tmp_path):
        path = self.snapshot(tmp_path)
        sim = restore_simulation(path, verify=False)
        with pytest.raises(SnapshotError, match="cannot be applied"):
            apply_live_overrides(sim, {"n_nodes": 5})

    def test_warm_equals_cold_per_variant(self, tmp_path):
        path = self.snapshot(tmp_path)
        variants = [{"policy": "fifo", "placement": "cache"},
                    {"policy": "sjf", "placement": "round-robin"}]

        def finish(_recipe, result):
            metrics = result.scheduler
            return (metrics.n_jobs, metrics.makespan,
                    metrics.mean_wait_time)

        warm = warm_start_values(path, variants, finish=finish,
                                 verify=False)
        cold = []
        for overrides in variants:
            sim = restore_simulation(path, verify=False)
            apply_live_overrides(sim, overrides)
            cold.append(finish(None, sim.run()))
        assert warm == cold

    def test_warm_start_propagates_variant_failure(self, tmp_path):
        path = self.snapshot(tmp_path)
        with pytest.raises(SnapshotError, match="failed"):
            warm_start_values(path, [{"policy": "no-such-policy"}],
                              verify=False)


# ---------------------------------------------- off-main-thread timeouts
class TestWatchdogTimeout:
    """The sweep timeout must arm off the main thread (service workers)."""

    def run_in_thread(self, target):
        box = {}

        def wrapper():
            try:
                box["value"] = target()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(target=wrapper)
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive(), "worker thread hung"
        if "error" in box:
            raise box["error"]
        return box["value"]

    def test_timeout_fires_off_main_thread(self):
        from repro.experiments.runner import (
            SweepPointError, make_spec, register_experiment, run_sweep,
        )

        def spin(**kwargs):
            while True:
                time.sleep(0.005)

        register_experiment("svc-spin", spin)
        with pytest.raises(SweepPointError) as excinfo:
            self.run_in_thread(
                lambda: run_sweep([make_spec("svc-spin")], timeout=0.2,
                                  workers=1)
            )
        assert "PointTimeoutError" in str(excinfo.value)

    def test_fast_point_off_main_thread_unaffected(self):
        from repro.experiments.runner import (
            make_spec, register_experiment, run_sweep,
        )

        register_experiment("svc-fast", lambda **kw: "done")
        results = self.run_in_thread(
            lambda: run_sweep([make_spec("svc-fast")], timeout=30.0,
                              workers=1)
        )
        assert results[0].value == "done"
