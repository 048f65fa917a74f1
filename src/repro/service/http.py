"""Stdlib-only HTTP/JSON front end of the simulation service.

Routes (all JSON)::

    POST /jobs       submit one job spec; body may carry "token" for
                     idempotent retries (or use the Idempotency-Key
                     header).  201 accepted / 200 duplicate / 400 invalid
                     / 429 + Retry-After backpressure / 503 draining.
    GET  /jobs/<label>   lifecycle state of one job.
    GET  /metrics    service + simulation metrics (repro.obs registry).
    GET  /healthz    liveness (ok / draining / drained / crashed).
    GET  /readyz     200 while accepting submissions, 503 otherwise.
    GET  /result     canonical result JSON (404 until drained).
    GET  /summary    small summary of the drained run (404 until drained).
    POST /snapshot   take an out-of-band audit snapshot now.
    POST /drain      graceful shutdown: finish accepted jobs, write the
                     result; blocks until done and returns the summary.

Built on ``http.server.ThreadingHTTPServer`` — per-request threads feed
the service's bounded admission queue; the backpressure contract is
surfaced as 429 with a Retry-After header, never a silent drop.
"""

from __future__ import annotations

import json
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    ServiceBackpressure,
    ServiceDraining,
    ServiceError,
)
from repro.service.core import SimulationService

#: Cap on accepted request bodies (a job spec is tiny).
MAX_BODY_BYTES = 1 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: SimulationService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # --------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the supervisor's business, not stderr's

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown, so the connection cannot be
            # reused for a next request: answer and close it.
            self.close_connection = True
            raise ConfigurationError(f"invalid Content-Length {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ConfigurationError(
                f"request body too large ({length} bytes)"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            data = json.loads(raw or b"{}")
        except ValueError:
            raise ConfigurationError("request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise ConfigurationError("request body must be a JSON object")
        return data

    # ----------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, service.health())
            elif path == "/readyz":
                ready = service.ready
                self._send_json(200 if ready else 503, {"ready": ready})
            elif path == "/metrics":
                self._send_json(200, service.metrics())
            elif path == "/summary":
                try:
                    self._send_json(200, service.summary())
                except ServiceError as exc:
                    self._send_json(404, {"error": str(exc)})
            elif path == "/result":
                try:
                    self._send_text(200, service.canonical_result())
                except ServiceError as exc:
                    self._send_json(404, {"error": str(exc)})
            elif path.startswith("/jobs/"):
                label = path[len("/jobs/"):]
                try:
                    self._send_json(200, service.job_status(label))
                except KeyError:
                    self._send_json(
                        404, {"error": f"unknown job {label!r}"}
                    )
            else:
                self._send_json(404, {"error": f"unknown route {path!r}"})
        except Exception as exc:  # noqa: BLE001 - never kill the server
            self._send_json(500, {"error": repr(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        service = self.server.service
        path = self.path.rstrip("/")
        try:
            if path == "/jobs":
                self._submit(service)
            elif path == "/snapshot":
                self._send_json(200, service.snapshot_now())
            elif path == "/drain":
                body = self._read_body()
                timeout = body.get("timeout")
                summary = service.drain(
                    float(timeout) if timeout is not None else 300.0
                )
                self._send_json(200, summary)
            else:
                self._send_json(404, {"error": f"unknown route {path!r}"})
        except ConfigurationError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceError as exc:
            self._send_json(500, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - never kill the server
            self._send_json(500, {"error": repr(exc)})

    def _submit(self, service: SimulationService) -> None:
        body = self._read_body()
        token = body.pop("token", None) or self.headers.get("Idempotency-Key")
        spec = body.pop("spec", None)
        if spec is None:
            spec = body  # flat bodies are accepted too
        try:
            ack = service.submit(spec, token=token)
        except ServiceBackpressure as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
            return
        except ServiceDraining as exc:
            self._send_json(503, {"error": str(exc)})
            return
        except ConfigurationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except FutureTimeoutError:
            self._send_json(
                504,
                {"error": "the submission was not admitted in time; "
                          "retry with the same token"},
            )
            return
        self._send_json(200 if ack.get("duplicate") else 201, ack)


def make_server(service: SimulationService, host: str = "127.0.0.1",
                port: int = 0) -> ServiceHTTPServer:
    """Bind (but do not start) the service's HTTP server."""
    return ServiceHTTPServer((host, port), service)
