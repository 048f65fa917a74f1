#!/usr/bin/env python3
"""Service mode: submit simulation jobs over HTTP, survive a crash.

This example boots the supervised simulation service on a throwaway data
directory, drives it the way any external client would — plain HTTP/JSON
with the standard library — and demonstrates the robustness headline:

* streaming submissions with idempotent tokens (safe retries),
* a kill -9 of the worker process mid-run,
* automatic restart + recovery by replaying the durable submission log
  (no acknowledged job is lost),
* graceful drain with a final summary.

Run it with::

    PYTHONPATH=src python examples/service_client.py

Everything is headless and self-contained; the service listens on an
ephemeral localhost port and the data directory is removed on exit.
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.service import ServiceConfig, Supervisor
from repro.snapshot import SimRecipe
from repro.units import MB

N_JOBS = 8


def call(method: str, url: str, body=None, timeout: float = 30.0):
    """One JSON request against the service; returns (status, payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        return exc.code, json.loads(raw) if raw else {}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "service-data"
        recipe = SimRecipe("service-cluster", dict(
            n_nodes=2, cores_per_node=4, n_datasets=4,
            input_size=64 * MB, chunk_size=32 * MB,
        ))
        supervisor = Supervisor(
            ServiceConfig(data_dir=data_dir, recipe=recipe, port=0),
            max_restarts=3, backoff=0.1,
        ).start()
        try:
            base = f"http://127.0.0.1:{supervisor.port()}"
            print(f"service listening on {base}")

            print(f"\nsubmitting {N_JOBS} jobs ...")
            for i in range(N_JOBS):
                status, ack = call("POST", f"{base}/jobs", {
                    "label": f"analysis{i}",
                    "dataset": i % 4,
                    "runtime": 1.0 + 0.5 * (i % 3),
                    "token": f"client-token-{i}",  # idempotent retries
                })
                print(f"  POST /jobs -> {status} "
                      f"seq={ack['seq']} t={ack['t']:.2f}")

            # A retried token is acknowledged once, not re-run.
            status, dup = call("POST", f"{base}/jobs", {
                "label": "analysis0", "dataset": 0, "runtime": 1.0,
                "token": "client-token-0",
            })
            print(f"  retried token -> {status} "
                  f"duplicate={dup.get('duplicate')}")

            # Crash the worker mid-run; the supervisor restarts it and
            # recovery replays the submission log.
            time.sleep(0.5)
            killed = supervisor.kill_worker()
            print(f"\nkill -9 worker pid {killed} ...")
            while supervisor.pid == killed or not supervisor.alive:
                time.sleep(0.05)
            base = f"http://127.0.0.1:{supervisor.port()}"
            status, health = call("GET", f"{base}/healthz")
            print(f"recovered: pid {supervisor.pid}, "
                  f"restarts {supervisor.restarts}, health {health}")

            status, metrics = call("GET", f"{base}/metrics")
            sim = metrics["sim"]
            print(f"\nmetrics: t={sim['now']:.2f}s "
                  f"submitted={sim['submitted']} "
                  f"completed={sim['completed']} "
                  f"running={sim['running']}")

            status, job = call("GET", f"{base}/jobs/analysis0")
            print(f"job analysis0: {job['state']}")

            print("\ndraining ...")
            status, summary = call("POST", f"{base}/drain", {},
                                   timeout=120.0)
            print(f"summary: {summary['jobs_completed']}/"
                  f"{summary['jobs_submitted']} jobs, "
                  f"makespan {summary['makespan']:.2f}s, "
                  f"cache hit ratio {summary['cache_hit_ratio']:.2f}")
            supervisor.wait(timeout=60.0)
        finally:
            supervisor.stop(timeout=60.0)
    print("\ndone — no acknowledged submission was lost.")


if __name__ == "__main__":
    main()
