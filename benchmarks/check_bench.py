"""Checks of the benchmark itself: the simulated model, its endpoint, the
correctness gate, the counters and the tracer.

Run from the repository root::

    python3 -m pytest -q benchmarks/check_bench.py

The file name keeps these checks out of the default test collection: they
start an endpoint process and time a loopback round trip.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the checkout's src on sys.path)
import simmodel  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tabreason import backends, orchestrator, sql, tables  # noqa: E402


def _prompt(query: str) -> str:
    return "## Question\n%s\n\n## Table Context\n| a |\n\n## Task\nx\n\n## Answer" % query


def _script_with_blocks(workload: simmodel.Workload, n: int) -> simmodel.Script:
    return next(s for s in workload.scripts.values() if len(s.blocks) == n)


@pytest.fixture(scope="module")
def infer_workload() -> simmodel.Workload:
    return simmodel.make_workload("infer_http", 3)


def _local_setup(workload: simmodel.Workload, backend=None) -> types.SimpleNamespace:
    instances = [tables.instance_from_dict(d) for d in workload.instances]
    model = simmodel.SimModel(workload.scripts)
    return types.SimpleNamespace(
        workload=workload,
        instances=instances,
        backend=backend or run.LocalBackend(model),
        endpoint=None,
    )


# -- the simulated model -------------------------------------------------------


def test_same_seed_gives_same_inputs():
    a = simmodel.make_workload("teacher_local", 5)
    b = simmodel.make_workload("teacher_local", 5)
    c = simmodel.make_workload("teacher_local", 6)
    assert a.instances == b.instances and a.expected == b.expected
    assert a.instances != c.instances


def test_est_tokens_is_the_programs_proxy():
    for text in ("", "a", "abcd", "abcde", "x" * 1001):
        assert simmodel.est_tokens(text) == tables.estimate_tokens(text)


def test_stop_cuts_before_first_stop_string(infer_workload):
    script = _script_with_blocks(infer_workload, 3)
    model = simmodel.SimModel(infer_workload.scripts)
    content = _prompt(next(q for q, s in infer_workload.scripts.items() if s is script))
    full = model.complete(content, None, 1024)
    assert full.finish_reason == "stop" and full.text.startswith(script.opening)
    marker_at = min(full.text.find(m) for m in simmodel.MARKERS if m in full.text)
    cut = model.complete(content, list(simmodel.MARKERS), 1024)
    assert cut.finish_reason == "stop"
    assert cut.text == full.text[:marker_at]
    assert model.complete(content, ["never appears"], 1024).text == full.text


def test_max_tokens_cuts_at_four_chars_per_token(infer_workload):
    model = simmodel.SimModel(infer_workload.scripts)
    content = _prompt(next(iter(infer_workload.scripts)))
    full = model.complete(content, None, 1024).text
    short = model.complete(content, None, 10)
    assert short.finish_reason == "length" and short.text == full[:40]
    # a stop string beyond the length limit does not rescue the generation
    late = full[60:70]
    assert model.complete(content, [late], 10).finish_reason == "length"
    assert short.decoded_tokens == simmodel.est_tokens(short.text)


def test_round_and_answer_follow_the_spliced_result(infer_workload):
    script = _script_with_blocks(infer_workload, 1)
    query = next(q for q, s in infer_workload.scripts.items() if s is script)
    model = simmodel.SimModel(infer_workload.scripts)
    first = model.complete(_prompt(query), None, 1024).text
    cut = simmodel.marker_cuts(first)[0]
    fake = "| COUNT(*) |\n| 987654 |" if script.answer_kind != "list" else "| Name |\n| Zed Zed |"
    resumed = model.complete(_prompt(query) + first[:cut] + "\n" + fake, None, 1024)
    assert resumed.round == 1
    assert script.blocks[0].sql not in resumed.text
    assert resumed.text.strip().splitlines()[-1] == script.answer_line(
        script.answer_value(simmodel.parse_grid(fake.split("\n")))
    )


# -- the endpoint ---------------------------------------------------------------


def test_endpoint_sets_nodelay_and_round_trip_is_low_milliseconds():
    import endpoint

    assert endpoint.Handler.disable_nagle_algorithm is True
    ep = run.Endpoint("infer_http", 1)
    try:
        client = backends.HttpBackend(backends.HttpConfig(base_url=ep.base_url + "/v1", model="sim"))
        request = backends.GenerationRequest.single_user("ping")
        for _ in range(3):
            client.generate(request)
        trips = []
        for _ in range(20):
            start = time.perf_counter()
            client.generate(request)
            trips.append((time.perf_counter() - start) * 1000.0)
        service = simmodel.service_ms(simmodel.est_tokens("ping"), simmodel.est_tokens(simmodel.WARMUP_TEXT))
        # about 0.6 ms of HTTP on loopback; Nagle plus delayed ACK would add ~40 ms
        assert statistics.median(trips) - service < 8.0, trips
        assert ep.stats()["calls"] == 23
    finally:
        ep.close()
    assert ep.proc.poll() is not None


# -- the correctness gate -------------------------------------------------------


def test_gate_passes_on_the_program(infer_workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.run_pass(_local_setup(infer_workload), orchestrator.RunConfig())
    assert result.errors == []
    assert result.accuracy == pytest.approx(infer_workload.expected_accuracy)


def test_gate_fails_when_claimed_results_are_kept(infer_workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))

    def never_runs(sql_text, table):
        raise sql.SqlError("execution disabled")

    # every block now falls back to the model's own claimed result
    monkeypatch.setattr(orchestrator, "run_statement", never_runs)
    result = run.run_pass(_local_setup(infer_workload), orchestrator.RunConfig())
    assert any("expected" in e and "answer" in e for e in result.errors)
    assert any(e.startswith("accuracy") for e in result.errors)


def test_planned_failures_are_not_gate_errors(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    workload = simmodel.make_workload("infer_http_faults", 2)
    refused = {iid for iid, kind in workload.faults.items() if kind == "503"}

    class Refusing(run.LocalBackend):
        def generate(self, request, tag=None):
            if tag in refused:
                raise backends.BackendUnavailable("HTTP 503")
            return super().generate(request, tag)

    setup = _local_setup(workload, Refusing(simmodel.SimModel(workload.scripts)))
    result = run.run_pass(setup, orchestrator.RunConfig())
    assert result.errors == []
    assert sum(1 for s in result.statuses.values() if s != "ok") == len(refused) == 2


# -- counters --------------------------------------------------------------------


def test_counters_reproduce_the_repo_transcripts():
    sys.path.insert(0, os.path.join(run.ROOT, "tests"))
    from transcripts import ALL_CASES

    p = run.Pass()
    for case in ALL_CASES:
        recorder = run.Recorder(backends.ReplayBackend.from_texts(case.script))
        _, trace = orchestrator.run_instance(case.instance, recorder)
        p.calls.update(recorder.calls)
        p.finals[case.instance.id] = trace.final_generation
    got = run.counts(p, len(ALL_CASES))
    assert got["api_calls_per_instance"] == pytest.approx(1.8)
    ratio = got["est_prompt_tokens_per_instance"] / got["est_decoded_tokens_per_instance"]
    assert ratio == pytest.approx(5.7, abs=0.1)
    assert got["discarded_decoded_share"] == pytest.approx(0.307, abs=0.001)


def test_surviving_chars_ignore_spliced_text():
    prompt = "P"
    first = "plan\n```sql\nSELECT 1\n```\nExecuted result:\n| x |\n| 2 |\n\nso 2"
    cut = simmodel.marker_cuts(first)[0]
    partial = first[:cut] + "\n| x |\n| 1 |"
    second = "\n\nso 1"
    calls = [(prompt, first), (prompt + partial, second)]
    assert simmodel.surviving_decoded_chars(calls, partial + second) == cut + len(second)


# -- the tracer ------------------------------------------------------------------


def test_tracer_links_spans_and_reports_absent_hooks(infer_workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(
        tracer_mod,
        "HOOKS",
        tracer_mod.HOOKS
        + (
            ("tabreason.orchestrator", "no_such_function", "x", None, None),
            ("tabreason.no_such_module", "f", "y", None, None),
        ),
    )
    setup = _local_setup(infer_workload)
    setup.instances = setup.instances[:10]
    originals = (orchestrator.run_statement, orchestrator.run_instance, backends.time)
    tr = tracer_mod.Tracer()
    tr.install(setup.backend)
    try:
        result = run.infer_pass(setup, orchestrator.RunConfig())
    finally:
        tr.uninstall()
    assert (orchestrator.run_statement, orchestrator.run_instance, backends.time) == originals
    assert "generate" not in vars(setup.backend)
    assert result.errors == []
    assert tr.absent == ["tabreason.orchestrator.no_such_function", "tabreason.no_such_module.f"]
    ids = {s.id: s for s in tr.spans}
    assert all(s.parent is None or s.parent in ids for s in tr.spans)
    for s in tr.by_name("backends.generate"):
        assert ids[s.parent].name == "orchestrator.run_instance"
        assert s.instance == ids[s.parent].instance
    runs = tr.by_name("orchestrator.run_instance")
    assert len(runs) == 10 and all(s.attrs["rounds"] >= 1 for s in runs)
    assert 0 < tr.self_ms("orchestrator.run_instance") < sum(s.ms for s in runs)
    path = tmp_path / "spans.jsonl"
    tr.write(str(path))
    assert len(path.read_text().splitlines()) == len(tr.spans)
