"""OpenAI-compatible chat-completions endpoint serving the simulated model.

Usage::

    python3 benchmarks/endpoint.py --workload infer_http --seed 1

It rebuilds the workload's scripts from the seed, binds an ephemeral port on
127.0.0.1, prints ``PORT <n>`` on stdout and serves until its stdin closes,
so it never outlives the benchmark that started it.

Each keep-alive connection is served on its own thread, so the simulated
service times of concurrent clients overlap as they would on a batching
server.  ``TCP_NODELAY`` is set on every connection: without it, delayed ACK
against Nagle's algorithm adds about 40 ms to each loopback round trip and
the endpoint, not the program, would set the latency figures.

Besides ``POST /v1/chat/completions`` it answers ``GET /stats`` (counters
since the last reset) and ``POST /reset``.  On ``infer_http_faults`` the
workload's fault schedule applies to an instance's first call: one ``429``
with ``Retry-After: 0.05``, or a ``503`` on every attempt.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import simmodel  # noqa: E402

RETRY_AFTER_S = "0.05"


class FaultSchedule:
    """Decides, per attempt, whether a request is refused; thread-safe."""

    def __init__(self, faults: Dict[str, str]) -> None:
        self.faults = faults
        self._lock = threading.Lock()
        self._attempts: Dict[Tuple[str, int], int] = {}

    def reset(self) -> None:
        with self._lock:
            self._attempts.clear()

    def status_for(self, instance_id: Optional[str], round_no: int) -> int:
        kind = self.faults.get(instance_id or "")
        if not kind or round_no != 0:
            return 200
        with self._lock:
            key = (instance_id, round_no)
            seen = self._attempts.get(key, 0)
            self._attempts[key] = seen + 1
        if kind == "503":
            return 503
        return 429 if seen == 0 else 200


class SimServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, workload: simmodel.Workload) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.model = simmodel.SimModel(workload.scripts)
        self.schedule = FaultSchedule(workload.faults)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.counters = simmodel.Counters()
            self.status_counts: Dict[str, int] = {}
        self.schedule.reset()

    def count_status(self, status: int) -> None:
        with self._lock:
            self.status_counts[str(status)] = self.status_counts.get(str(status), 0) + 1

    def stats(self) -> dict:
        with self._lock:
            out = self.counters.snapshot()
            out["requests_by_status"] = dict(self.status_counts)
        out["requests"] = sum(out["requests_by_status"].values())
        return out


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: SimServer

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send(self, status: int, payload: dict, headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        return json.loads(self.rfile.read(length) or b"{}")

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        request = self._read_json()
        if self.path == "/reset":
            self.server.reset()
            self._send(200, {"ok": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        content = request["messages"][-1]["content"]
        done = self.server.model.complete(
            content, request.get("stop"), int(request.get("max_tokens") or 1024)
        )
        status = self.server.schedule.status_for(done.instance_id, done.round)
        self.server.count_status(status)
        if status == 429:
            self._send(429, {"error": "rate limited"}, {"Retry-After": RETRY_AFTER_S})
            return
        if status != 200:
            self._send(status, {"error": "unavailable"})
            return
        busy = done.service_ms
        time.sleep(busy / 1000.0)
        self.server.counters.record(content, done.text, busy)
        self._send(
            200,
            {
                "object": "chat.completion",
                "model": request.get("model", "sim"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": done.text},
                        "finish_reason": done.finish_reason,
                    }
                ],
                "usage": {
                    "prompt_tokens": done.prompt_tokens,
                    "completion_tokens": done.decoded_tokens,
                },
            },
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(simmodel.WORKLOAD_SIZES))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = SimServer(simmodel.make_workload(args.workload, args.seed))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print("PORT %d" % server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    except (OSError, ValueError):
        pass
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


if __name__ == "__main__":
    main()
