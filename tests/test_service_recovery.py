"""End-to-end crash recovery of the supervised service.

The acceptance invariant of the service mode: a SIGKILLed worker is
restarted by the supervisor, recovers by replaying the durable
submission log, loses **no acknowledged submission** — and the drained
canonical result is byte-identical to what an uninterrupted run of the
same submissions would have produced (:func:`repro.service.replay_result`
is the reference).  Backpressure is
exercised over real HTTP: beyond the queue bound the server answers 429
with a Retry-After header, never dropping the submission silently.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    ServiceConfig,
    SimulationService,
    SubmissionLog,
    Supervisor,
    canonical_result,
    make_server,
    replay_result,
)
from repro.snapshot import SimRecipe
from repro.units import MB

SMALL_PARAMS = dict(
    n_nodes=2, cores_per_node=2, n_datasets=3,
    input_size=32 * MB, chunk_size=16 * MB,
)
SMALL_RECIPE = SimRecipe("service-cluster", dict(SMALL_PARAMS))


def http_json(method, url, body=None, headers=None, timeout=30.0):
    """One JSON request; returns ``(status, decoded-or-text)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, exc.read()
        payload = json.loads(raw) if raw else {}
        payload["_headers"] = dict(exc.headers)
        return status, payload
    text = raw.decode("utf-8")
    try:
        return status, json.loads(text)
    except ValueError:
        return status, text


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met within the timeout")


# --------------------------------------------------------- kill -9 recovery
class TestSupervisorRecovery:
    def test_sigkill_recovery_is_byte_identical(self, tmp_path):
        data_dir = tmp_path / "svc"
        config = ServiceConfig(
            data_dir=data_dir,
            recipe=SMALL_RECIPE,
            port=0,
            queue_capacity=16,
        )
        supervisor = Supervisor(config, max_restarts=3,
                                backoff=0.05).start()
        try:
            port = supervisor.port()
            base = f"http://127.0.0.1:{port}"
            status, health = http_json("GET", f"{base}/healthz")
            assert status == 200 and health["status"] == "ok"

            # Three acknowledged submissions, each with a token.
            acks = {}
            for i in range(3):
                status, ack = http_json("POST", f"{base}/jobs", {
                    "label": f"job{i}", "dataset": i % 3,
                    "runtime": 1.0 + 0.5 * i, "token": f"tok-{i}",
                })
                assert status == 201, ack
                acks[f"tok-{i}"] = ack

            # Let the worker advance into the jobs, then kill -9 it.
            wait_until(lambda: http_json(
                "GET", f"{base}/metrics")[1]["sim"]["now"] > 0.5)
            killed_pid = supervisor.kill_worker()

            # The supervisor restarts the worker; it replays the log in
            # the data dir and publishes a fresh port.
            def recovered_port():
                if not supervisor.alive:
                    return None
                try:
                    port = supervisor.port(timeout=0.1)
                except Exception:
                    return None
                if supervisor.pid == killed_pid:
                    return None
                try:
                    status, health = http_json(
                        "GET", f"http://127.0.0.1:{port}/healthz",
                        timeout=2.0)
                except Exception:
                    return None
                return port if status == 200 else None

            port = wait_until(recovered_port)
            base = f"http://127.0.0.1:{port}"
            assert supervisor.restarts >= 1

            # An acknowledged pre-crash token is still known: the retry
            # is answered as a duplicate, not logged twice.
            status, again = http_json("POST", f"{base}/jobs", {
                "label": "job0", "dataset": 0, "runtime": 1.0,
                "token": "tok-0",
            })
            assert status == 200, again
            assert again["duplicate"] is True
            assert again["seq"] == acks["tok-0"]["seq"]

            # The service keeps accepting new work after recovery.
            for i in range(3, 5):
                status, ack = http_json("POST", f"{base}/jobs", {
                    "label": f"job{i}", "dataset": i % 3, "runtime": 1.0,
                })
                assert status == 201, ack

            status, summary = http_json("POST", f"{base}/drain", {})
            assert status == 200, summary
            assert summary["jobs_submitted"] == 5
            assert summary["jobs_completed"] == 5

            # Clean exit ends supervision.
            assert supervisor.wait(timeout=30.0)
            assert not supervisor.gave_up
        finally:
            supervisor.stop(timeout=30.0)

        # No acknowledged submission was lost, and the recovered run is
        # byte-identical to an uninterrupted replay of the log.
        log = SubmissionLog(data_dir / "submissions.log")
        entries = log.entries()
        assert sum(1 for e in entries if e.op == "submit") == 5
        reference = canonical_result(replay_result(SMALL_RECIPE, entries))
        on_disk = (data_dir / "result.json").read_text("utf-8")
        assert on_disk == reference

    def test_graceful_stop_exits_zero(self, tmp_path):
        config = ServiceConfig(
            data_dir=tmp_path / "svc",
            recipe=SMALL_RECIPE,
            port=0,
        )
        supervisor = Supervisor(config, backoff=0.05).start()
        port = supervisor.port()
        status, ack = http_json(
            "POST", f"http://127.0.0.1:{port}/jobs",
            {"dataset": 0, "runtime": 0.5})
        assert status == 201, ack
        assert supervisor.stop(timeout=30.0) == 0
        assert supervisor.restarts == 0


# --------------------------------------------------------- http contract
class TestHTTPContract:
    """The HTTP surface against an in-process server."""

    @pytest.fixture
    def server(self, tmp_path):
        service = SimulationService(tmp_path / "svc", recipe=SMALL_RECIPE,
                                    queue_capacity=2)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield service, f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()

    def test_backpressure_is_429_with_retry_after(self, server):
        service, base = server
        # The worker is deliberately not started: nothing drains the
        # queue, so filling it to capacity forces the bound.
        for i in range(2):
            assert service.queue.offer((None, {"dataset": 0,
                                               "runtime": 1.0}, None))
        status, payload = http_json("POST", f"{base}/jobs",
                                    {"dataset": 0, "runtime": 1.0})
        assert status == 429
        assert payload["retry_after"] >= 1.0
        retry_after = {k.lower(): v for k, v in
                       payload["_headers"].items()}["retry-after"]
        assert float(retry_after) >= 1.0
        # Rejected explicitly, not silently dropped: the queue still
        # holds exactly the accepted submissions.
        assert len(service.queue) == 2
        assert service.queue.n_rejected == 1

    def test_not_ready_and_unknown_routes(self, server):
        _service, base = server
        assert http_json("GET", f"{base}/readyz")[0] == 503
        assert http_json("GET", f"{base}/result")[0] == 404
        assert http_json("GET", f"{base}/summary")[0] == 404
        assert http_json("GET", f"{base}/jobs/nope")[0] == 404
        assert http_json("GET", f"{base}/bogus")[0] == 404
        assert http_json("POST", f"{base}/bogus")[0] == 404

    def test_full_lifecycle_over_http(self, tmp_path):
        service = SimulationService(tmp_path / "svc",
                                    recipe=SMALL_RECIPE).start()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            assert http_json("GET", f"{base}/readyz")[0] == 200
            # Spec validation happens in the worker; the client still
            # gets a crisp 400 for an impossible spec, unlogged.
            status, payload = http_json("POST", f"{base}/jobs",
                                        {"dataset": 99, "runtime": 1.0})
            assert status == 400
            assert "out of range" in payload["error"]

            status, ack = http_json(
                "POST", f"{base}/jobs",
                {"label": "only", "dataset": 1, "runtime": 0.5},
                headers={"Idempotency-Key": "header-token"})
            assert status == 201
            # The Idempotency-Key header works like a body token.
            status, again = http_json(
                "POST", f"{base}/jobs",
                {"label": "only", "dataset": 1, "runtime": 0.5},
                headers={"Idempotency-Key": "header-token"})
            assert status == 200 and again["duplicate"] is True

            status, job = http_json("GET", f"{base}/jobs/only")
            assert status == 200 and job["label"] == "only"

            status, summary = http_json("POST", f"{base}/drain", {})
            assert status == 200 and summary["jobs_completed"] == 1

            # Fetch /result raw: the byte-identity claim is about the
            # exact canonical text, not a decoded equivalent.
            with urllib.request.urlopen(f"{base}/result",
                                        timeout=30.0) as response:
                assert response.status == 200
                text = response.read().decode("utf-8")
            entries = service.log.entries()
            assert text == canonical_result(
                replay_result(SMALL_RECIPE, entries))
            assert http_json("GET", f"{base}/healthz")[1]["status"] == \
                "drained"
        finally:
            server.shutdown()
