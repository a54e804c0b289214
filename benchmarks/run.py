#!/usr/bin/env python3
"""Offline benchmark of the plan -> SQL -> splice -> resume loop.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload infer_http --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload, one process each

Workloads (see benchmarks/README.md for why each exists):

* ``infer_http``: ``run_instance`` from 2 closed-loop client threads sharing
  one ``HttpBackend`` against the simulated model served on loopback, then
  ``write_traces``/``write_outcomes`` and ``build_report``, as
  ``tabreason infer`` followed by ``tabreason eval``.
* ``infer_http_faults``: the same against an endpoint that refuses some
  first calls (one 429 with ``Retry-After``, or 503 on every attempt).
* ``teacher_local``: the ``build-dataset`` chain (``generate_candidates`` ->
  ``consistency_filter`` -> ``write_candidates`` -> ``export_jsonl``) plus
  ``build_report`` on large tables, the simulated model in-process.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs untraced and traced passes and prints the per-layer metrics.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit status is 1 when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("infer_http", "teacher_local", "infer_http_faults")
SETUP_REPEATS = 5
CLIENTS = 2

sys.path.insert(0, HERE)

import simmodel  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_program():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tabreason", "__init__.py")):
        sys.exit("benchmark: no program source at %s; run from a full checkout" % SRC)
    sys.path.insert(0, SRC)
    import tabreason

    if not os.path.abspath(tabreason.__file__).startswith(SRC + os.sep):
        sys.exit("benchmark: imported tabreason from %s, not %s" % (tabreason.__file__, SRC))
    from tabreason import backends, dataset, evaluation, orchestrator, responses, tables

    return backends, dataset, evaluation, orchestrator, responses, tables


backends, dataset, evaluation, orchestrator, responses, tables = _import_program()


class Recorder(backends.Backend):
    """Passes each call to the program's backend and keeps (request, reply) per instance."""

    def __init__(self, inner) -> None:
        super().__init__()
        self.inner = inner
        self._lock = threading.Lock()
        self.calls: Dict[Optional[str], List[Tuple[str, str]]] = {}

    def generate(self, request, tag=None):
        result = self.inner.generate(request, tag=tag)
        with self._lock:
            self.calls.setdefault(tag, []).append((request.messages[-1]["content"], result.text))
        return result


class LocalBackend(backends.Backend):
    """The simulated model in-process, with no service time."""

    def __init__(self, model: simmodel.SimModel) -> None:
        super().__init__()
        self.model = model

    def generate(self, request, tag=None):
        done = self.model.complete(request.messages[-1]["content"], request.stop, request.max_new_tokens)
        finish = done.finish_reason if done.text else "error"
        self.counter.record(tag)
        return backends.GenerationResult(text=done.text, finish_reason=finish)


class Endpoint:
    """The simulated model behind HTTP, in a child process that exits when we do."""

    def __init__(self, workload: str, seed: int) -> None:
        import requests

        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "endpoint.py"), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("endpoint did not start: %r" % line)
        self.base_url = "http://127.0.0.1:%d" % int(line.split()[1])
        self.session = requests.Session()
        self.session.trust_env = False

    def stats(self) -> dict:
        return self.session.get(self.base_url + "/stats", timeout=30).json()

    def reset(self) -> None:
        self.session.post(self.base_url + "/reset", json={}, timeout=30).raise_for_status()

    def close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Setup:
    """Inputs, the program's backend and (for HTTP workloads) the endpoint."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = simmodel.make_workload(workload, seed)
        path = os.path.join(OUT, "instances_%s.jsonl" % workload)
        with open(path, "w", encoding="utf-8") as fh:
            for inst in self.workload.instances:
                fh.write(json.dumps(inst) + "\n")
        self.instances = tables.load_instances(path)
        self.endpoint: Optional[Endpoint] = None
        if workload == "teacher_local":
            self.backend = LocalBackend(simmodel.SimModel(self.workload.scripts))
        else:
            self.endpoint = Endpoint(workload, seed)
            # as `tabreason infer --backend http` builds it
            self.backend = backends.HttpBackend(
                backends.HttpConfig(base_url=self.endpoint.base_url + "/v1", model="sim")
            )
            for _ in range(3):
                self.backend.generate(backends.GenerationRequest.single_user("warm-up"))
            self.endpoint.reset()

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


# ---------------------------------------------------------------------------
# one pass over the workload's instances


class Pass:
    def __init__(self) -> None:
        self.wall_s = 0.0
        self.latencies_ms: List[float] = []
        self.calls: Dict[Optional[str], List[Tuple[str, str]]] = {}
        self.finals: Dict[str, str] = {}
        self.server: dict = {}
        self.errors: List[str] = []
        self.accuracy = 0.0
        self.statuses: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self.candidates = self.kept = self.tagged = 0  # teacher_local only


def infer_pass(setup: Setup, config) -> Pass:
    result = Pass()
    instances = setup.instances
    recorder = Recorder(setup.backend)
    outputs: List[Optional[tuple]] = [None] * len(instances)
    latencies: List[float] = [0.0] * len(instances)
    crashes: List[str] = []
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(instances):
                return
            start = time.perf_counter()
            try:
                outputs[i] = orchestrator.run_instance(instances[i], recorder, config)
            except Exception as exc:  # a crash is a gate failure, keep the other client going
                with lock:
                    crashes.append("%s: %s: %s" % (instances[i].id, type(exc).__name__, exc))
            latencies[i] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = [o for o in outputs if o is not None]
    orchestrator.write_traces(done, os.path.join(OUT, "traces.jsonl"))
    orchestrator.write_outcomes(done, os.path.join(OUT, "outcomes.jsonl"))
    report = None
    if len(done) == len(instances):
        report = evaluation.build_report([o for o, _ in done], [t for _, t in done], instances)
    result.wall_s = time.perf_counter() - start

    result.errors.extend(crashes)
    result.latencies_ms = latencies
    result.calls = recorder.calls
    if report is not None:
        result.accuracy = report.scores["accuracy"]
    for outcome, trace in done:
        result.finals[outcome.instance_id] = trace.final_generation
        result.statuses[outcome.instance_id] = outcome.status
        want = setup.workload.expected[outcome.instance_id]
        if want is None:
            if outcome.status == "ok":
                result.errors.append("%s: planned failure came back ok" % outcome.instance_id)
        elif outcome.status != "ok":
            result.errors.append("%s: status %s (%s)" % (outcome.instance_id, outcome.status, outcome.error))
        elif outcome.final_answer.to_dict() != want:
            result.errors.append("%s: answer %s, expected %s" % (outcome.instance_id, outcome.final_answer.to_dict(), want))
    return result


def teacher_pass(setup: Setup, config) -> Pass:
    result = Pass()
    instances = setup.instances
    recorder = Recorder(setup.backend)
    candidates = []
    errors = []
    start = time.perf_counter()
    for instance in instances:
        t0 = time.perf_counter()
        got, failed = dataset.generate_candidates([instance], recorder, config=config)
        result.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        candidates.extend(got)
        errors.extend(failed)
    kept, _ = dataset.consistency_filter(candidates, instances)
    dataset.write_candidates(candidates, os.path.join(OUT, "candidates.jsonl"))
    written = dataset.export_jsonl(kept, instances, os.path.join(OUT, "train.jsonl"), segment="full", config=config) if kept else 0
    by_id = {c.instance_id: c for c in candidates}
    outcomes = [
        orchestrator.Outcome(
            instance_id=i.id,
            final_answer=by_id[i.id].extracted_answer if i.id in by_id else responses.FinalAnswer.missing(),
            api_calls=len(recorder.calls.get(i.id, ())),
            status="ok" if i.id in by_id else "backend_error",
        )
        for i in instances
    ]
    report = evaluation.build_report(outcomes, None, instances)
    result.wall_s = time.perf_counter() - start

    result.calls = recorder.calls
    result.accuracy = report.scores["accuracy"]
    result.kept = len(kept)
    result.tagged = sum(1 for c in candidates if c.error_tags)
    result.candidates = len(candidates)
    result.errors.extend("%s: generation failed: %s" % (e.instance_id, e.error) for e in errors)
    if written != len(kept):
        result.errors.append("export wrote %d pairs for %d kept candidates" % (written, len(kept)))
    wl = setup.workload
    for c in candidates:
        result.finals[c.instance_id] = c.teacher_response
        result.statuses[c.instance_id] = "ok"
        if c.extracted_answer.to_dict() != wl.expected[c.instance_id]:
            result.errors.append("%s: answer %s, expected %s" % (c.instance_id, c.extracted_answer.to_dict(), wl.expected[c.instance_id]))
        if c.consistent != wl.expected_correct[c.instance_id]:
            result.errors.append("%s: consistent=%s, expected %s" % (c.instance_id, c.consistent, wl.expected_correct[c.instance_id]))
    return result


def run_pass(setup: Setup, config) -> Pass:
    if setup.endpoint is not None:
        setup.endpoint.reset()
    gc.collect()
    run = teacher_pass if setup.workload.name == "teacher_local" else infer_pass
    result = run(setup, config)
    if setup.endpoint is not None:
        result.server = setup.endpoint.stats()
    if abs(result.accuracy - setup.workload.expected_accuracy) > 1e-9:
        result.errors.append(
            "accuracy %.6f, expected %.6f" % (result.accuracy, setup.workload.expected_accuracy)
        )
    # keep only the figures, so the texts of earlier passes do not add to peak RSS
    result.counts = counts(result, len(setup.instances))
    result.calls, result.finals = {}, {}
    return result


def run_passes(setup: Setup, config, seconds: float) -> List[Pass]:
    """Whole passes until the next one would overrun ``seconds`` (at least one)."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(setup, config))
        walls = [p.wall_s for p in passes]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def counts(p: Pass, n: int) -> Dict[str, float]:
    """Count metrics of one pass: calls and char/4 token estimates per instance."""
    calls = [c for cs in p.calls.values() for c in cs]
    decoded_chars = sum(len(text) for _, text in calls)
    survived = sum(simmodel.surviving_decoded_chars(p.calls.get(iid, []), final) for iid, final in p.finals.items())
    return {
        "api_calls_per_instance": len(calls) / n,
        "est_prompt_tokens_per_instance": sum(simmodel.est_tokens(c) for c, _ in calls) / n,
        "est_decoded_tokens_per_instance": sum(simmodel.est_tokens(t) for _, t in calls) / n,
        "discarded_decoded_share": 1.0 - survived / decoded_chars if decoded_chars else 0.0,
    }


def percentile(samples: Sequence[float], q: int) -> float:
    """The q-th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(setup_times: List[float], passes: List[Pass], n: int) -> Dict[str, float]:
    samples = [x for p in passes for x in p.latencies_ms]
    first = passes[0].counts
    ok = sum(1 for s in passes[0].statuses.values() if s == "ok")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": statistics.median(n / p.wall_s for p in passes),
        "latency_p50_ms": statistics.median(samples),
        "latency_p95_ms": percentile(samples, 95),
    }
    metrics.update(first)
    metrics["accuracy"] = passes[0].accuracy
    metrics["ok_share"] = ok / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(tr: Tracer, passes: List[Pass], untraced: List[Pass], n_instances: int) -> Tuple[Dict[str, float], dict]:
    n = n_instances * len(passes)

    def ms(name: str) -> float:
        return sum(s.ms for s in tr.by_name(name)) / n

    def per(name: str) -> float:
        return len(tr.by_name(name)) / n

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    trunc = tr.by_name("tables.truncate")
    rows_in = sum(s.attrs.get("rows_in", 0) for s in trunc)
    rows_out = sum(s.attrs.get("rows_out", s.attrs.get("rows_in", 0)) for s in trunc)
    gen = tr.by_name("backends.generate")
    loop = tr.by_name("sql.loop")
    runs = tr.by_name("orchestrator.run_instance")
    rounds = sum(s.attrs.get("rounds", 0) for s in runs)
    sql_rounds = sum(s.attrs.get("sql_rounds", 0) for s in runs)
    run_ids = {s.id for s in runs}
    generate_in_runs = sum(s.ms for s in gen if s.parent in run_ids)
    run_ms = sum(s.ms for s in runs)
    server = [p.server for p in passes if p.server]
    completed = sum(s.get("calls", 0) for s in server)
    requests_sent = sum(s.get("requests", 0) for s in server)
    candidates = sum(p.candidates for p in passes)
    errors_by_class: Dict[str, int] = {}
    for s in loop:
        if s.error:
            errors_by_class[s.error] = errors_by_class.get(s.error, 0) + 1
    overhead = statistics.median(p.wall_s for p in passes) / statistics.median(p.wall_s for p in untraced)
    metrics = {
        "tables.truncate_ms": ms("tables.truncate"),
        "tables.rows_dropped_share": share(rows_in - rows_out, rows_in),
        "prompts.build_calls": per("prompts.build"),
        "prompts.build_ms": ms("prompts.build"),
        "backends.generate_calls": len(gen) / n,
        "backends.generate_ms": ms("backends.generate"),
        "backends.attempts_per_call": share(requests_sent, completed) if server else 1.0,
        "backends.backoff_ms": ms("backends.backoff"),
        "backends.failed_calls": sum(1 for s in gen if s.error) / n,
        "model.busy_ms": sum(s.get("busy_ms", 0.0) for s in server) / n,
        "responses.segment_calls": per("responses.segment"),
        "responses.segment_chars": sum(s.attrs.get("chars", 0) for s in tr.by_name("responses.segment")) / n,
        "responses.segment_ms": ms("responses.segment"),
        "responses.extract_ms": ms("responses.extract"),
        "sql.loop_statements": len(loop) / n,
        "sql.loop_ms": ms("sql.loop"),
        "sql.loop_error_share": share(sum(errors_by_class.values()), len(loop)),
        "sql.retag_statements": per("sql.retag"),
        "sql.retag_ms": ms("sql.retag"),
        "sql.rows_scanned": sum(s.attrs.get("rows", 0) for s in tr.by_name("sql.retag")) / n,
        "orchestrator.rounds": rounds / n,
        "orchestrator.fallback_share": share(sum(s.attrs.get("fallbacks", 0) for s in runs), sql_rounds),
        "orchestrator.cap_share": share(sum(1 for s in runs if s.attrs.get("cap")), len(runs)),
        "orchestrator.self_ms": tr.self_ms("orchestrator.run_instance") / n,
        "orchestrator.write_ms": ms("orchestrator.write"),
        "orchestrator.local_share": share(run_ms - generate_in_runs, run_ms),
        "evaluation.report_ms": ms("evaluation.report"),
        "dataset.tag_ms": ms("dataset.tag"),
        "dataset.filter_ms": ms("dataset.filter"),
        "dataset.export_ms": ms("dataset.export"),
        "dataset.kept_share": share(sum(p.kept for p in passes), candidates),
        "dataset.tagged_share": share(sum(p.tagged for p in passes), candidates),
        "trace.overhead_share": overhead,
    }
    detail = {"sql_loop_errors_by_class": errors_by_class, "absent_hooks": tr.absent,
              "spans": len(tr.spans), "traced_passes": len(passes), "untraced_passes": len(untraced)}
    return metrics, detail


# ---------------------------------------------------------------------------
# the run record


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(OUT, exist_ok=True)
    os.environ.pop("OPENAI_API_KEY", None)  # never send a real key, even to loopback
    config = orchestrator.RunConfig()
    setup_times: List[float] = []
    setup: Optional[Setup] = None
    try:
        for _ in range(SETUP_REPEATS if not trace else 1):
            if setup is not None:
                setup.close()
                setup = None
                gc.collect()
            start = time.perf_counter()
            setup = Setup(name, seed)
            setup_times.append(time.perf_counter() - start)
        n = len(setup.instances)
        detail: dict = {}
        if name == "teacher_local":
            # the first passes grow the heap; an unmeasured pass gets past that
            run_pass(setup, config)
        if not trace:
            passes = run_passes(setup, config, seconds)
            metrics = end_to_end(setup_times, passes, n)
            checked = passes
        else:
            untraced = run_passes(setup, config, seconds / 2)
            tr = Tracer()
            tr.install(setup.backend)
            try:
                passes = run_passes(setup, config, seconds / 2)
            finally:
                tr.uninstall()
            metrics, detail = per_layer(tr, passes, untraced, n)
            tr.write(os.path.join(OUT, "spans_%s_seed%d.jsonl" % (name, seed)))
            checked = untraced + passes
    finally:
        if setup is not None:
            setup.close()

    errors = [e for p in checked for e in p.errors]
    for p in checked[1:]:
        if p.counts != checked[0].counts:
            errors.append("count metrics differ between passes of one run")
            break
    unit_of = units()
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "model_constants": simmodel.MODEL_CONSTANTS,
        "setup_repeats": len(setup_times),
        "setup_s_each": setup_times,
        "passes": len(checked),
        "instances_per_pass": n,
        "latency_samples": sum(len(p.latencies_ms) for p in checked),
        "pass_wall_s": [p.wall_s for p in checked],
        "metrics": metrics,
        "detail": detail,
        "gate_errors": errors[:50],
    }
    with open(os.path.join(OUT, "record_%s_seed%d_trace%d.json" % (name, seed, int(trace))), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    samples = record["latency_samples"]
    print("workload %s  seed %d  %d passes x %d instances  setup x%d  latency samples %d (%d beyond p95)"
          % (name, seed, len(checked), n, len(setup_times), samples, samples // 20))
    if detail.get("absent_hooks"):
        print("absent hooks: %s" % ", ".join(detail["absent_hooks"]))
    for key, value in metrics.items():
        print("  %-36s %14.4f %s" % (key, value, unit_of.get(key, "")))
    for e in errors[:10]:
        print("gate: %s" % e, file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": n * len(checked),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
