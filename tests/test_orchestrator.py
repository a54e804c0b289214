"""End-to-end loop behavior on replayed transcripts, plus config and traces."""

import json
import os
import re
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabreason import orchestrator
from tabreason.backends import (
    Backend,
    GenerationResult,
    ReplayBackend,
    ScriptEntry,
    request_key,
)
from tabreason.dataset import generate_candidates
from tabreason.evaluation import build_report
from tabreason.jsonl import from_fields, to_fields
from tabreason.orchestrator import (
    OUTCOME_NO_SQL,
    OUTCOME_OK,
    OUTCOME_SQL_ERROR,
    RunConfig,
    Trace,
    load_run_config,
    load_traces,
    run_batch,
    run_config_from_pairs,
    run_instance,
    write_traces,
)
from tabreason.prompts import build_task_prompt
from tabreason.responses import RESULT_MARKERS, FinalAnswer, segment_response
from tabreason.tables import GoldAnswer, Instance, Table

from transcripts import ALL_CASES, CHEF_CASE, DELTA_GREEN_CASE, JUDGES_CASE


SMALL_TABLE = Table(["a", "b"], [["1", "2"]])


def small_instance(**kwargs):
    defaults = dict(
        id="t1",
        task="short_qa",
        query="what is the value of a?",
        table=SMALL_TABLE,
        gold=GoldAnswer(answers=("1",)),
    )
    defaults.update(kwargs)
    return Instance(**defaults)


# ---------------------------------------------------------------------------
# replayed real transcripts


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_replayed_transcripts(case):
    backend = ReplayBackend.from_texts(case.script)
    outcome, trace = run_instance(case.instance, backend)
    assert outcome.status == "ok"
    assert outcome.api_calls == case.expected_api_calls
    assert trace.api_calls == case.expected_api_calls
    if case.expected_label is not None:
        assert outcome.final_answer.label == case.expected_label
    if case.expected_answers:
        assert outcome.final_answer.answers == case.expected_answers
    if case.expected_injection is not None:
        injections = [r.injected_text for r in trace.rounds if r.injected_text]
        assert case.expected_injection in injections
    sql_rounds = [r for r in trace.rounds if r.detected_sql]
    for r in sql_rounds:
        assert r.fallback_used == case.expect_fallback


def test_injection_replaces_the_claimed_result():
    backend = ReplayBackend.from_texts(CHEF_CASE.script)
    _, trace = run_instance(CHEF_CASE.instance, backend)
    # the engine's own grid, not the transcript's fenced claim
    assert "| Name |\n| Damaris Phillips |" in trace.final_generation
    assert "```\nName\nDamaris Phillips\n```" not in trace.final_generation
    # the trace keeps the claim the splice replaced
    assert trace.rounds[0].claimed_result == "Name\nDamaris Phillips"


def test_fallback_injects_the_claimed_result_verbatim():
    backend = ReplayBackend.from_texts(DELTA_GREEN_CASE.script)
    outcome, trace = run_instance(DELTA_GREEN_CASE.instance, backend)
    assert outcome.status == "ok"
    failed = [r for r in trace.rounds if r.execution_outcome == OUTCOME_SQL_ERROR]
    assert len(failed) == 1
    assert failed[0].fallback_used
    assert failed[0].injected_text == DELTA_GREEN_CASE.expected_injection
    assert failed[0].error_detail
    assert outcome.final_answer.label == "SUPPORTS"


def test_an_unfenced_claim_ends_at_its_first_blank_line():
    """The prose paragraph after a claim is not part of it, so a fallback does not inject it."""
    text = (
        "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\nExecuted result:\n| a |\n| 1 |\n\n"
        "- So a is 1.\n\n3. Answer\nThe final answer is 1."
    )
    assert segment_response(text).sql_blocks[0].claimed_result == "| a |\n| 1 |"
    backend = ReplayBackend.from_texts([text, "\nThe final answer is 1."])
    _, trace = run_instance(small_instance(), backend)
    failed = trace.rounds[0]
    assert (failed.execution_outcome, failed.fallback_used) == (OUTCOME_SQL_ERROR, True)
    assert (failed.claimed_result, failed.injected_text) == ("| a |\n| 1 |", "| a |\n| 1 |")


def test_round_structure_for_single_injection():
    backend = ReplayBackend.from_texts(JUDGES_CASE.script)
    _, trace = run_instance(JUDGES_CASE.instance, backend)
    assert [r.execution_outcome for r in trace.rounds] == [OUTCOME_OK, OUTCOME_NO_SQL]
    assert trace.rounds[0].generation is not None
    assert trace.rounds[1].generation is not None
    assert trace.rounds[1].detected_sql is None
    assert not trace.stopped_on_cap


# ---------------------------------------------------------------------------
# synthetic loops


_LOOPING_SQL = "\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n| a |\n| 9 |\n\nstill thinking"


def test_injection_cap_stops_the_loop():
    script = ["plan" + _LOOPING_SQL, _LOOPING_SQL, _LOOPING_SQL]
    backend = ReplayBackend.from_texts(script)
    config = RunConfig(max_injection_rounds=2)
    outcome, trace = run_instance(small_instance(), backend, config)
    assert trace.stopped_on_cap
    assert outcome.api_calls == 3  # 1 initial + 2 injection rounds
    outcomes = [r.execution_outcome for r in trace.rounds]
    assert outcomes == [OUTCOME_OK, OUTCOME_OK, OUTCOME_NO_SQL]


def test_two_blocks_resolved_across_rounds():
    script = [
        "first\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n| a |\n| 9 |\n\nmore",
        "\n\nsecond\n```sql\nSELECT `b` FROM w\n```\nExecuted result:\n| b |\n| 9 |\n\nmore",
        "\n\nThe final answer is 2.",
    ]
    backend = ReplayBackend.from_texts(script)
    outcome, trace = run_instance(small_instance(), backend)
    assert outcome.api_calls == 3
    assert [r.detected_sql for r in trace.rounds] == [
        "SELECT `a` FROM w",
        "SELECT `b` FROM w",
        None,
    ]
    assert trace.rounds[0].injected_text == "| a |\n| 1 |"
    assert trace.rounds[1].injected_text == "| b |\n| 2 |"
    assert outcome.final_answer.answers == ("2",)
    assert not trace.stopped_on_cap


def test_a_fence_in_a_later_round_does_not_reopen_settled_text():
    """A fence the model writes later cannot close an opener the loop already passed.

    The first call leaves a ```sql opener unclosed before the block it runs.
    Read from the start of the text, the second call's opener would close
    it, and the swallowed block b would never run.
    """
    script = [
        "plan\n```sql\nan opener nothing closes\n\nSQL:\nSELECT `a` FROM w\nExecuted result:\n9",
        "\n\n```sql\nSELECT `b` FROM w\n```\nExecuted result:\n9\n\nmore",
        "\n\nThe final answer is 2.",
    ]
    outcome, trace = run_instance(small_instance(), ReplayBackend.from_texts(script))
    assert outcome.api_calls == 3
    assert [r.detected_sql for r in trace.rounds] == ["SELECT `a` FROM w", "SELECT `b` FROM w", None]
    assert [r.injected_text for r in trace.rounds[:2]] == ["| a |\n| 1 |", "| b |\n| 2 |"]
    assert outcome.final_answer.answers == ("2",)


def test_block_without_marker_gets_one_appended():
    script = [
        "plan\n```sql\nSELECT `a` FROM w\n```",
        "\nThe final answer is 1.",
    ]
    backend = ReplayBackend.from_texts(script)
    outcome, trace = run_instance(small_instance(), backend)
    assert outcome.status == "ok"
    assert "Executed result:\n| a |\n| 1 |" in trace.final_generation
    assert outcome.final_answer.answers == ("1",)


@pytest.mark.parametrize("keep_claims", [False, True])
def test_backend_failure_mid_run_gives_partial_trace(keep_claims):
    # the claim is wrong, and the script ends before the correcting call
    text = "plan\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n| a |\n| 9 |"
    text += "\nThe final answer is 9."
    backend = ReplayBackend.from_texts([text])
    instance = small_instance(gold=GoldAnswer(answers=("9",)))
    outcome, trace = run_instance(instance, backend, keep_claims=keep_claims)
    assert outcome.status == "backend_error"
    assert outcome.error == "replay script has no responses left"
    assert outcome == trace.outcome and trace.status == "backend_error"
    assert outcome.api_calls == 1
    assert trace.prompt and trace.final_generation == text
    assert len(trace.rounds) == 1
    assert trace.rounds[0].execution_outcome == OUTCOME_OK
    # the unfinished run is not answered from the claim it was about to replace
    assert outcome.final_answer.kind == "missing"
    report = build_report([outcome], [trace], [instance])
    assert report.scores["accuracy"] == 0.0


class DiesOnCall(Backend):
    """Answers from ``texts`` until call ``n``, which fails as no backend does."""

    def __init__(self, texts, n):
        super().__init__()
        self.texts, self.n, self.contents = list(texts), n, []

    def generate(self, request, tag=None):
        self.contents.append(request.messages[0]["content"])
        if len(self.contents) == self.n:
            raise RuntimeError("model process died")
        self.counter.record(tag)
        return GenerationResult(text=self.texts.pop(0), finish_reason="stop")


def test_a_crash_mid_run_ends_on_a_trace_with_the_prompt_and_rounds_it_reached(caplog):
    first = "plan\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n"
    backend = DiesOnCall([first], n=2)
    outcome, trace = run_instance(small_instance(), backend)
    assert (trace.status, trace.error) == ("crashed", "model process died")
    assert outcome == trace.outcome
    assert trace.prompt == backend.contents[0]
    assert trace.api_calls == 1 and len(trace.rounds) == 1
    assert (trace.rounds[0].generation, trace.rounds[0].injected_text) == (first, "| a |\n| 1 |")
    assert trace.final_generation == first
    # not a backend failure, so it is logged with its traceback
    assert [r.getMessage() for r in caplog.records if r.exc_info] == ["instance t1 failed"]


def test_a_fault_inside_the_loop_ends_as_crashed_not_as_a_backend_error(monkeypatch):
    """Such a run used to be named ``backend_error`` though every call it made succeeded."""
    def broken(text):
        raise IndexError("segmenter fault")

    monkeypatch.setattr(orchestrator, "segment_response", broken)
    outcome, trace = run_instance(small_instance(), ReplayBackend.from_texts(["The final answer is 1."]))
    assert (outcome.status, outcome.error) == ("crashed", "segmenter fault")
    assert outcome == trace.outcome and outcome.final_answer.kind == "missing"
    assert trace.final_generation == "The final answer is 1."


def test_table_is_truncated_to_the_configured_budget():
    table = Table(
        ["i", "text"], [[str(i), "row text %d" % i] for i in range(60)]
    )
    instance = small_instance(table=table)
    script = ["The final answer is 1."]
    config = RunConfig(table_token_budget=120, include_demo=False)
    _, trace = run_instance(instance, ReplayBackend.from_texts(script), config)
    assert "| row text 0 |" in trace.prompt
    assert "| row text 59 |" not in trace.prompt
    # the caller's table is untouched
    assert table.n_rows == 60


@pytest.mark.parametrize(
    "labels,gold,conclusion,answer",
    [
        (("True", "FALSE"), "FALSE", "The claim is false.", "FALSE"),
        (("false", "true"), "true", "The claim is TRUE.", "true"),
        (("supports", "Refutes", "not enough info"), "Refutes", "So the claim: REFUTES.", "Refutes"),
        (None, "false", "The claim is FALSE.", "false"),
        (None, "NOT ENOUGH INFO", "Hence: not enough info.", "NOT ENOUGH INFO"),
    ],
    ids=["binary_mixed_case", "binary_reordered", "threeway_mixed_case", "binary_by_gold", "threeway_by_gold"],
)
def test_a_verdict_is_one_of_the_instances_labels_as_written_else_of_its_family(labels, gold, conclusion, answer):
    instance = small_instance(task="fact_verification", labels=labels, gold=GoldAnswer(label=gold))
    outcome, _ = run_instance(instance, ReplayBackend.from_texts([conclusion]))
    assert outcome.final_answer == FinalAnswer(kind="label", label=answer)


# ---------------------------------------------------------------------------
# batches


def _single_call_script(instance, text, config=RunConfig()):
    from tabreason.prompts import build_task_prompt

    prompt = build_task_prompt(instance, include_demo=config.include_demo)
    return ScriptEntry(response=text, key=request_key([{"role": "user", "content": prompt}]))


def test_run_batch_preserves_input_order():
    # A distinct query per instance gives each its own script key; with one
    # shared key the threads would take the answers in call order.
    instances = [
        small_instance(id="i%d" % n, query="what is the value of a (case %d)?" % n)
        for n in range(6)
    ]
    entries = [
        _single_call_script(inst, "The final answer is %d." % n)
        for n, inst in enumerate(instances)
    ]
    backend = ReplayBackend(entries)
    results = run_batch(instances, backend, parallelism=3)
    assert [outcome.instance_id for outcome, _ in results] == [i.id for i in instances]
    assert [outcome.final_answer.answers for outcome, _ in results] == [
        (str(n),) for n in range(6)
    ]


def test_run_batch_isolates_failures():
    good = small_instance(id="good")
    bad = small_instance(id="bad", query="a different, unscripted question?")
    backend = ReplayBackend([_single_call_script(good, "The final answer is 1.")])
    results = run_batch([bad, good], backend, parallelism=2)
    assert results[0][0].status == "backend_error"
    assert results[1][0].status == "ok"
    assert results[1][0].final_answer.answers == ("1",)


class CrashOn(Backend):
    """Answers every instance at once, but fails as no backend does on the one tagged ``crash_id``."""

    in_call_order = False

    def __init__(self, crash_id):
        super().__init__()
        self.crash_id = crash_id

    def generate(self, request, tag=None):
        if tag == self.crash_id:
            raise RuntimeError("model process died")
        self.counter.record(tag)
        return GenerationResult(text="The final answer is 1.", finish_reason="stop")


def test_a_crash_in_run_batch_is_on_its_trace_alike_at_any_parallelism(tmp_path):
    instances = [small_instance(id="i%d" % n) for n in range(6)]
    written = []
    for parallelism in (1, 8):
        results = run_batch(instances, CrashOn("i3"), parallelism=parallelism)
        path = tmp_path / ("traces_p%d.jsonl" % parallelism)
        write_traces(results, str(path))
        written.append(path.read_bytes())
    assert written[0] == written[1]
    trace = load_traces(str(tmp_path / "traces_p1.jsonl"))[3]
    assert (trace.instance_id, trace.status, trace.error) == ("i3", "crashed", "model process died")
    assert trace.prompt == build_task_prompt(instances[3]) and trace.rounds == ()
    assert results[3] == (trace.outcome, trace)
    assert [o.status for o, _ in results] == ["ok"] * 3 + ["crashed"] + ["ok"] * 2


def test_run_batch_rejects_bad_parallelism():
    with pytest.raises(ValueError):
        run_batch([small_instance()], ReplayBackend.from_texts(["x"]), parallelism=0)


def test_mean_api_calls():
    instances = [small_instance(id="a"), small_instance(id="b")]
    entries = [_single_call_script(i, "The final answer is 1.") for i in instances]
    results = run_batch(instances, ReplayBackend(entries))
    outcomes = [outcome for outcome, _ in results]
    assert build_report(outcomes, None, instances).mean_api_calls == 1.0
    assert build_report([], None, []).mean_api_calls == 0.0


# ---------------------------------------------------------------------------
# config and trace persistence


def test_run_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# every key set away from its default\n"
        "max_new_tokens=512\n"
        "temperature=0.7\n"
        "table_token_budget=2048\n"
        "\n"
        "max_injection_rounds = 6\n"
        "include_demo=false\n",
        encoding="utf-8",
    )
    config = RunConfig(
        max_new_tokens=512,
        temperature=0.7,
        table_token_budget=2048,
        max_injection_rounds=6,
        include_demo=False,
    )
    default = RunConfig()
    assert all(getattr(config, f.name) != getattr(default, f.name) for f in fields(RunConfig))
    assert load_run_config(str(path)) == config


def test_the_readme_config_block_loads_as_the_default_config(tmp_path):
    """The defaults README documents cannot drift from ``RunConfig``'s."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^Run configs .*?^```\n(.*?)^```$", readme, re.M | re.S).group(1)
    path = tmp_path / "run.cfg"
    path.write_text(block, encoding="utf-8")
    assert load_run_config(str(path)) == RunConfig()


def test_run_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError):
        run_config_from_pairs({"max_new_tokens": "10", "typo_key": "1"})
    # the result markers and the fallback are fixed, not settings
    retired = {"fallback_on_sql_error": "true", "result_markers": "Output:"}
    with pytest.raises(ValueError, match="^unknown config keys: fallback_on_sql_error, result_markers$"):
        run_config_from_pairs(retired)
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\nmax_new_tokens=10\nmax_new_tokens 10\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_run_config(str(path))
    assert str(info.value) == "%s:3: expected key=value" % path


@pytest.mark.parametrize(
    "text",
    ["max_new_tokens=5\nmax_new_tokens=6\n", "max_new_tokens=5\n# again\n max_new_tokens = 5\n"],
    ids=["another-value", "same-value"],
)
def test_a_config_that_repeats_a_key_is_refused_naming_the_line(tmp_path, text):
    """The second value used to replace the first without a word."""
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_run_config(str(path))
    assert str(info.value) == "%s:%d: max_new_tokens given twice" % (path, text.count("\n"))


def test_run_config_parses_bools():
    assert run_config_from_pairs({"include_demo": "false"}).include_demo is False
    assert run_config_from_pairs({"include_demo": "yes"}).include_demo is True
    with pytest.raises(ValueError):
        run_config_from_pairs({"include_demo": "maybe"})


def test_trace_round_trip(tmp_path):
    backend = ReplayBackend.from_texts(JUDGES_CASE.script)
    results = [run_instance(JUDGES_CASE.instance, backend)]
    trace = results[0][1]
    assert from_fields(Trace, to_fields(trace)) == trace

    path = tmp_path / "traces.jsonl"
    write_traces(results, str(path))
    assert load_traces(str(path)) == [trace]


def test_traces_without_status_or_error_load_as_ok(tmp_path):
    _, trace = run_instance(JUDGES_CASE.instance, ReplayBackend.from_texts(JUDGES_CASE.script))
    data = to_fields(trace)
    del data["status"], data["error"]
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    [loaded] = load_traces(str(path))
    assert (loaded.status, loaded.error) == ("ok", None)
    assert loaded == trace
    path.write_text(json.dumps(data) + "\n" + json.dumps({**data, "status": "bogus"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_traces(str(path))
    assert str(info.value) == (
        "%s:2: bad trace: status must be one of ('ok', 'backend_error', 'crashed'), got 'bogus'" % path)


def test_traces_without_claims_still_load():
    _, trace = run_instance(JUDGES_CASE.instance, ReplayBackend.from_texts(JUDGES_CASE.script))
    data = to_fields(trace)
    assert list(data["rounds"][0])[-3:] == ["claimed_result", "finish_reason", "attempts"]
    for record in data["rounds"]:
        del record["claimed_result"]
    loaded = from_fields(Trace, data)
    assert [r.claimed_result for r in loaded.rounds] == [None] * len(trace.rounds)
    assert loaded == replace(
        trace, rounds=tuple(replace(r, claimed_result=None) for r in trace.rounds)
    )


def test_traces_without_finish_reason_still_load():
    _, trace = run_instance(JUDGES_CASE.instance, ReplayBackend.from_texts(JUDGES_CASE.script))
    data = to_fields(trace)
    for record in data["rounds"]:
        del record["finish_reason"]
    loaded = from_fields(Trace, data)
    assert loaded == replace(
        trace, rounds=tuple(replace(r, finish_reason=None) for r in trace.rounds)
    )


def test_traces_without_attempts_still_load():
    _, trace = run_instance(JUDGES_CASE.instance, ReplayBackend.from_texts(JUDGES_CASE.script))
    assert [r.attempts for r in trace.rounds] == [1] * len(trace.rounds)
    data = to_fields(trace)
    for record in data["rounds"]:
        del record["attempts"]
    loaded = from_fields(Trace, data)
    assert loaded == replace(
        trace, rounds=tuple(replace(r, attempts=None) for r in trace.rounds)
    )


def test_finish_reason_is_recorded_per_round():
    backend = ReplayBackend(
        [
            ScriptEntry(response="plan\n```sql\nSELECT `a` FROM w\n```"),
            ScriptEntry(response="\nThe final answer is", finish_reason="length"),
        ]
    )
    _, trace = run_instance(small_instance(), backend)
    assert [r.finish_reason for r in trace.rounds] == ["stop", "length"]


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "key,value",
    [
        ("max_new_tokens", "0"),
        ("temperature", "-0.5"),
        ("temperature", "inf"),
        ("table_token_budget", "-1"),
        ("max_injection_rounds", "-1"),
    ],
)
def test_run_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        run_config_from_pairs({key: value})


@pytest.mark.parametrize(
    "key,text,kind",
    [
        ("max_new_tokens", "abc", "whole number"),
        ("temperature", "warm", "number"),
        ("include_demo", "maybe", "boolean"),
    ],
)
def test_a_config_value_that_does_not_parse_names_its_key(tmp_path, key, text, kind):
    path = tmp_path / "bad.cfg"
    path.write_text("%s=%s\n" % (key, text), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_run_config(str(path))
    assert str(info.value) == "%s: %s must be a %s, got %r" % (path, key, kind, text)


def test_run_config_accepts_boundary_values():
    config = run_config_from_pairs(
        {"temperature": "0", "table_token_budget": "0", "max_injection_rounds": "0"}
    )
    assert (config.table_token_budget, config.max_injection_rounds) == (0, 0)


# ---------------------------------------------------------------------------
# replay guard


def test_run_batch_refuses_unkeyed_replay_in_parallel():
    instances = [small_instance(id="a"), small_instance(id="b")]
    backend = ReplayBackend.from_texts(["The final answer is 1."] * 3)
    with pytest.raises(ValueError, match="unkeyed"):
        run_batch(instances, backend, parallelism=2)
    # one worker, or one instance, still plays the script back in order
    assert [o.status for o, _ in run_batch(instances, backend)] == ["ok", "ok"]
    assert run_batch(instances[:1], backend, parallelism=4)[0][0].status == "ok"


class HoldsBackI0(Backend):
    """Passes each call to ``inner``, holding ``i0``'s back 50 ms; it states no call order of its own."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def generate(self, request, tag=None):
        if tag == "i0":
            time.sleep(0.05)
        return self.inner.generate(request, tag=tag)


def test_run_batch_refuses_a_backend_that_does_not_say_it_may_answer_out_of_order():
    """Such a wrapper used to run in parallel and hand i0 the answer scripted for i1."""
    instances = [small_instance(id="i0"), small_instance(id="i1")]
    backend = HoldsBackI0(ReplayBackend.from_texts(["The final answer is 1.", "The final answer is 2."]))
    with pytest.raises(ValueError, match="needs parallelism 1"):
        run_batch(instances, backend, parallelism=2)
    results = run_batch(instances, backend)
    assert [o.final_answer.answers for o, _ in results] == [("1",), ("2",)]


# ---------------------------------------------------------------------------
# stopping at the result marker


class StoppingReplay(Backend):
    """Replays texts or script entries in order, cut at the first stop string as an endpoint cuts."""

    def __init__(self, texts):
        super().__init__()
        self.inner = ReplayBackend(
            [t if isinstance(t, ScriptEntry) else ScriptEntry(response=t) for t in texts])
        self.requests = []

    def generate(self, request, tag=None):
        self.requests.append(request)
        result = self.inner.generate(request, tag=tag)
        self.counter.record(tag)
        hits = [result.text.find(s) for s in request.stop or ()]
        cut = min((at for at in hits if at >= 0), default=len(result.text))
        return GenerationResult(text=result.text[:cut], finish_reason=result.finish_reason)


def test_calls_stop_at_the_markers_until_the_cap():
    script = ["plan" + _LOOPING_SQL, _LOOPING_SQL, _LOOPING_SQL]
    backend = StoppingReplay(script)
    outcome, trace = run_instance(small_instance(), backend, RunConfig(max_injection_rounds=2))
    assert [r.stop for r in backend.requests] == [RESULT_MARKERS] * 2 + [None]
    assert outcome.api_calls == 3
    assert trace.stopped_on_cap
    # the stopped calls left no claim; the unstopped one wrote its own
    assert trace.rounds[0].generation == "plan\n```sql\nSELECT `a` FROM w\n```\n"
    assert [r.claimed_result for r in trace.rounds[:2]] == [None, None]
    assert trace.rounds[2].generation == _LOOPING_SQL


def test_every_marker_fits_in_the_stop_strings_of_one_request():
    """Chat-completions endpoints accept at most four stop strings."""
    assert 1 <= len(RESULT_MARKERS) <= 4


def test_teacher_runs_are_not_stopped_and_keep_their_claims():
    backend = StoppingReplay(JUDGES_CASE.script)
    candidates, errors = generate_candidates([JUDGES_CASE.instance], backend)
    assert errors == []
    assert [r.stop for r in backend.requests] == [None, None]
    assert candidates[0].error_tags == ("execution_mismatch",)


def test_failed_block_the_call_stopped_at_resumes_with_nothing_injected():
    backend = StoppingReplay(DELTA_GREEN_CASE.script)
    outcome, trace = run_instance(DELTA_GREEN_CASE.instance, backend)
    assert outcome.final_answer.label == "SUPPORTS"
    assert outcome.api_calls == 2
    failed = trace.rounds[0]
    assert failed.execution_outcome == OUTCOME_SQL_ERROR
    assert failed.error_detail
    assert failed.claimed_result is None
    assert failed.injected_text is None
    assert not failed.fallback_used
    assert trace.final_generation == (
        failed.generation + RESULT_MARKERS[0] + DELTA_GREEN_CASE.script[1]
    )


def test_failed_block_stopped_at_in_a_later_round_resumes_with_nothing_injected():
    """In a later round too, a failed block the call stopped at resumes after its marker."""
    lookup = "\n\n```sql\nSELECT `%s` FROM w\n```\nExecuted result:\n9\n\nmore"
    script = [lookup % "a", lookup % "b", lookup % "nope", "\n\nThe final answer is 2."]
    backend = StoppingReplay(script)
    outcome, trace = run_instance(small_instance(), backend)
    assert outcome.api_calls == 4
    failed = trace.rounds[2]
    assert (failed.execution_outcome, failed.claimed_result) == (OUTCOME_SQL_ERROR, None)
    assert (failed.fallback_used, failed.injected_text) == (False, None)
    assert outcome.final_answer.answers == ("2",)


_FAILED_THEN_ANOTHER = (
    "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\n\nSQL:\nSELECT `a` FROM w\n"
    "Executed result:\n| a |\n| 1 |\n\nThe final answer is 1."
)


@pytest.mark.parametrize("keep_claims", [False, True], ids=["stopped", "claims_kept"])
def test_failed_block_without_a_claim_lets_the_next_block_run_from_the_text_in_hand(
    keep_claims, monkeypatch
):
    """No claim to fall back on and another block written after it: settle it, make no call and no new scan.

    A teacher's right claim on the second block is read on in place, so its
    run scans only the one generation.
    """
    scans = []
    segment = orchestrator.segment_response

    def counted(*args):
        scans.append(args)
        return segment(*args)

    monkeypatch.setattr(orchestrator, "segment_response", counted)
    backend = StoppingReplay([_FAILED_THEN_ANOTHER, "\n\nThe final answer is 1."])
    outcome, trace = run_checked(small_instance(), backend, keep_claims=keep_claims)
    # one scan of the first generation, and a stopped run's one of the text after its call
    assert len(scans) == (1 if keep_claims else 2)
    failed, ran = trace.rounds[:2]
    assert (failed.execution_outcome, failed.claimed_result) == (OUTCOME_SQL_ERROR, None)
    assert (failed.fallback_used, failed.injected_text) == (False, None)
    assert failed.generation is not None
    assert (ran.generation, ran.detected_sql) == (None, "SELECT `a` FROM w")
    assert (ran.execution_outcome, ran.injected_text) == (OUTCOME_OK, "| a |\n| 1 |")
    # a stopped call ends at the second block's marker; the result is spliced in there
    assert outcome.api_calls == (1 if keep_claims else 2)
    assert trace.final_generation == _FAILED_THEN_ANOTHER
    assert outcome.final_answer.answers == ("1",)


_FAILED_WITH_SQL_IN_ITS_CLAIM = (
    "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\nExecuted result:\n"
    "```\nSQL:\nSELECT COUNT(*) FROM w\n```\n\nSo there is one row.\n\nThe final answer is 1."
)


@pytest.mark.parametrize("keep_claims", [False, True], ids=["stopped", "claims_kept"])
def test_sql_in_an_injected_claim_is_never_run(keep_claims):
    """The fallback injects the claim without its fence; the SQL it holds is the loop's text, not the model's."""
    then = "\n\nThe final answer is 1."
    backend = ReplayBackend.from_texts([_FAILED_WITH_SQL_IN_ITS_CLAIM, then, then])
    outcome, trace = run_instance(small_instance(), backend, keep_claims=keep_claims)
    assert outcome.status == "ok"
    ran = [r for r in trace.rounds if r.detected_sql is not None]
    assert [r.detected_sql for r in ran] == ["SELECT `a` FROM w GROUP BY `a`"]
    assert (ran[0].fallback_used, ran[0].injected_text) == (True, "SQL:\nSELECT COUNT(*) FROM w")
    assert outcome.api_calls == backend.counter.total == (1 if keep_claims else 2)
    assert not trace.stopped_on_cap
    assert outcome.final_answer.answers == ("1",)


def test_labeled_block_resumes_with_the_decoded_text_kept():
    first = "plan\nSQL:\nSELECT `a` FROM w\n\nExecuted result:\n| a |\n| 9 |\n\nmore"
    backend = StoppingReplay([first, "\nThe final answer is 1."])
    outcome, trace = run_instance(small_instance(), backend)
    decoded = "plan\nSQL:\nSELECT `a` FROM w\n\n"
    assert trace.rounds[0].generation == decoded
    continuation = backend.requests[1].messages[0]["content"]
    assert continuation == trace.prompt + decoded + "Executed result:\n| a |\n| 1 |"
    assert outcome.final_answer.answers == ("1",)


# ---------------------------------------------------------------------------
# reading on when the model already wrote the result


def run_checked(instance, backend, config=RunConfig(), **kwargs):
    """run_instance on a StoppingReplay, checking its call accounting and requests.

    Every call is counted once, on the round that read its generation, and
    each request extends the one before it.
    """
    outcome, trace = run_instance(instance, backend, config, **kwargs)
    made = sum(1 for r in trace.rounds if r.generation is not None)
    assert outcome.api_calls == trace.api_calls == backend.counter.total == made
    contents = [r.messages[0]["content"] for r in backend.requests]
    assert all(later.startswith(earlier) for earlier, later in zip(contents, contents[1:]))
    return outcome, trace


ROWS_TABLE = Table(["a", "b"], [["1", "2"], ["3", "4"]])
_LOOKUP = "plan\n```sql\nSELECT `a` FROM w WHERE `b` = 2\n```\nExecuted result:\n%s"
_RIGHT = "| a |\n| 1 |"
_AFTER = "\n\n3. Answer\nThe final answer is 1."
_SECOND = (
    "\n\nSQL:\nSELECT `a` FROM w WHERE `b` = 4\nExecuted result:\n| a |\n| 5 |"
    "\n\n3. Answer\nThe final answer is 3."
)


@pytest.mark.parametrize(
    "claim",
    [_RIGHT, _RIGHT + "\n\n- So a is 1.", _RIGHT + "\n\n- So a is 1.\n\nStill a."],
    ids=["whole_claim", "claim_then_prose", "claim_then_two_paragraphs"],
)
def test_a_right_claim_is_read_on_without_a_call(claim):
    backend = StoppingReplay([_LOOKUP % claim + _SECOND, "\n\nThe final answer is 3."])
    instance = small_instance(table=ROWS_TABLE)
    outcome, trace = run_checked(instance, backend, keep_claims=True)
    assert outcome.api_calls == 2
    first, second, last = trace.rounds
    # the claim is the table; the prose after its blank line is not part of it
    assert (first.generation, first.claimed_result, first.injected_text) == (
        _LOOKUP % claim + _SECOND, _RIGHT, _RIGHT)
    # the second block is read from the first generation; its wrong claim needs a call
    assert (second.generation, second.finish_reason, second.attempts) == (None, None, None)
    assert (second.execution_outcome, second.injected_text) == (OUTCOME_OK, "| a |\n| 3 |")
    assert last.execution_outcome == OUTCOME_NO_SQL
    assert backend.requests[1].messages[0]["content"] == (
        trace.prompt + _LOOKUP % claim + "\n\nSQL:\nSELECT `a` FROM w WHERE `b` = 4"
        "\nExecuted result:\n| a |\n| 3 |")
    assert outcome.final_answer.answers == ("3",)


@pytest.mark.parametrize(
    "after",
    [_AFTER, "\n\n- So a is 7."],
    # prose after the claim's blank line is not part of the claim but text that follows it
    ids=["heading", "prose_only"],
)
def test_a_fallback_claim_is_read_on_without_a_call(after):
    text = (
        "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\nExecuted result:\n| a |\n| 7 |"
        + after
    )
    backend = StoppingReplay([text])
    outcome, trace = run_checked(small_instance(), backend, keep_claims=True)
    assert outcome.api_calls == 1
    (failed,) = trace.rounds
    assert (failed.execution_outcome, failed.fallback_used) == (OUTCOME_SQL_ERROR, True)
    assert (failed.claimed_result, failed.injected_text) == ("| a |\n| 7 |", "| a |\n| 7 |")
    assert trace.final_generation == text


_SPLICED_SECOND = "\n\nSQL:\nSELECT `a` FROM w WHERE `b` = 4\nExecuted result:\n| a |\n| 3 |"
_FENCED_RIGHT = "```\n%s\n```" % _RIGHT


@pytest.mark.parametrize(
    "text,spliced",
    [
        (_LOOKUP % ("\n" + _RIGHT) + _SECOND, _LOOKUP % ("\n" + _RIGHT) + _SPLICED_SECOND),
        (_LOOKUP % _FENCED_RIGHT + _SECOND, _LOOKUP % _FENCED_RIGHT + _SPLICED_SECOND),
        (
            _LOOKUP % ("\n\n" + _FENCED_RIGHT) + _SECOND,
            _LOOKUP % ("\n\n" + _FENCED_RIGHT) + _SPLICED_SECOND,
        ),
        (
            (_LOOKUP % _RIGHT + _SECOND).replace("\n", "\r\n"),
            "plan\r\n```sql\r\nSELECT `a` FROM w WHERE `b` = 2\r\n```\r\nExecuted result:\r\n| a |\r\n| 1 |"
            "\r\n\r\nSQL:\r\nSELECT `a` FROM w WHERE `b` = 4\r\nExecuted result:\n| a |\n| 3 |",
        ),
        (
            (_LOOKUP % _FENCED_RIGHT).replace("\n", "\r\n") + _SECOND,
            (_LOOKUP % _FENCED_RIGHT).replace("\n", "\r\n") + _SPLICED_SECOND,
        ),
    ],
    ids=["blank_line", "fenced", "blank_line_and_fenced", "crlf", "fenced_crlf"],
)
def test_a_wrapped_right_claim_is_read_on_without_a_call(text, spliced):
    """The claim keeps its wrapping: the next request extends the model's own bytes up to the next marker."""
    backend = StoppingReplay([text, "\n\nThe final answer is 3."])
    outcome, trace = run_checked(small_instance(table=ROWS_TABLE), backend, keep_claims=True)
    assert outcome.api_calls == 2
    first, second, last = trace.rounds
    assert (first.generation, first.claimed_result, first.injected_text) == (text, _RIGHT, _RIGHT)
    assert (second.generation, second.execution_outcome) == (None, OUTCOME_OK)
    assert backend.requests[1].messages[0]["content"] == trace.prompt + spliced
    assert trace.final_generation == spliced + "\n\nThe final answer is 3."
    assert last.execution_outcome == OUTCOME_NO_SQL
    assert outcome.final_answer.answers == ("3",)


_FAILING = "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\nExecuted result:\n"


@pytest.mark.parametrize(
    "wrapped,prose",
    [
        ("```\n| a |\n| 7 |\n```", ""),
        ("\n```\n| a |\n| 7 |\n```", ""),
        # the next block's intro follows the claim after a blank line; it is not injected
        ("\n| a |\n| 7 |", "\n\n- Then b."),
    ],
    ids=["fenced", "blank_line_and_fenced", "blank_line_and_prose"],
)
def test_a_wrapped_fallback_claim_is_read_on_without_a_call(wrapped, prose):
    claim = "| a |\n| 7 |"
    rest = prose + "\nSQL:\nSELECT `a` FROM w\nExecuted result:\n| a |\n| 1 |" + _AFTER
    backend = StoppingReplay([_FAILING + wrapped + rest])
    outcome, trace = run_checked(small_instance(), backend, keep_claims=True)
    assert outcome.api_calls == 1
    failed, ran = trace.rounds
    assert (failed.execution_outcome, failed.fallback_used) == (OUTCOME_SQL_ERROR, True)
    assert (failed.claimed_result, failed.injected_text) == (claim, claim)
    assert (ran.generation, ran.execution_outcome) == (None, OUTCOME_OK)
    # the claim keeps its wrapping, and the intro is in the text once, as the model wrote it
    assert trace.final_generation == _FAILING + wrapped + rest
    assert outcome.final_answer.answers == ("1",)


# How a claim may be wrapped under its marker, as the random scripts below draw it.
_WRAPPINGS = {
    "plain": "\n%s",
    "blank_line": "\n\n%s",
    "fenced": "\n```\n%s\n```",
    "blank_line_and_fenced": "\n\n```\n%s\n```",
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("wrapping", _WRAPPINGS.values(), ids=_WRAPPINGS.keys())
def test_a_teacher_whose_every_claim_is_right_keeps_its_first_generation(wrapping, newline, monkeypatch):
    """One call and one scan; every later round is read on from that call's text, left as written."""
    scans = []
    segment = orchestrator.segment_response
    monkeypatch.setattr(orchestrator, "segment_response", lambda *a: scans.append(a) or segment(*a))
    text = (
        "plan\n```sql\nSELECT `a` FROM w WHERE `b` = 2\n```\nExecuted result:" + wrapping % _RIGHT
        + "\n\nSQL:\nSELECT `a` FROM w WHERE `b` = 4\nExecuted result:" + wrapping % "| a |\n| 3 |"
        + "\n\nSQL:\nSELECT `b` FROM w WHERE `a` = 3\nExecuted result:" + wrapping % "| b |\n| 4 |"
        + "\n\nThe final answer is 4."
    ).replace("\n", newline)
    backend = StoppingReplay([text])
    outcome, trace = run_checked(small_instance(table=ROWS_TABLE), backend, keep_claims=True)
    assert outcome.api_calls == 1
    assert len(scans) == 1
    assert trace.rounds[0].generation == text
    assert [r.generation for r in trace.rounds[1:]] == [None, None]
    assert all(r.execution_outcome == OUTCOME_OK for r in trace.rounds)
    assert [r.injected_text for r in trace.rounds] == [r.claimed_result for r in trace.rounds]
    assert trace.final_generation == text
    assert outcome.final_answer.answers == ("4",)


@pytest.mark.parametrize(
    "first",
    [
        _LOOKUP % "| a |\n| 1 |\n| 3 |" + _AFTER,
        _LOOKUP % "| a |\n| 1 |\n| 3 |\n\n- So a is 1." + _AFTER,
        ScriptEntry(response=_LOOKUP % _RIGHT + _AFTER, finish_reason="length"),
        _LOOKUP % _RIGHT,
        _LOOKUP % _RIGHT + "\n\n  \n",
        _LOOKUP % ("```\n%s\n```\n\n  \n" % _RIGHT),
        # a failed last block whose marker is followed by a heading: no claim to fall back on
        "plan\n```sql\nSELECT `a` FROM w GROUP BY `a`\n```\nExecuted result:\n\n2. Then" + _AFTER,
        # a block that ran, whose marker is followed by a heading
        _LOOKUP % _AFTER,
        _LOOKUP % ("```\n%s\n\n- So a is 1.\n```" % _RIGHT) + _AFTER,
        _LOOKUP % ("```\n%s\n```sql\nSELECT `a` FROM w WHERE `b` = 4\n```\nExecuted result:\n%s" % (
            _RIGHT, "| a |\n| 3 |")) + _AFTER,
        _LOOKUP % ("```\n%s\n``` so a is 1." % _RIGHT) + _AFTER,
    ],
    ids=["result_is_a_prefix_of_the_claim", "result_is_a_prefix_of_the_claimed_table", "length",
         "nothing_follows", "only_blanks_follow", "only_blanks_follow_the_fence", "no_claim",
         "no_claim_on_a_block_that_ran", "fence_holds_more_than_the_result", "unclosed_fence",
         "fence_line_carries_text"],
)
def test_the_loop_calls_again_unless_the_claim_is_the_result(first):
    """Each case breaks one condition; a 1-row result under a 2-row claim is a prefix of the text.

    The unclosed fence holds exactly the result and ends before the next
    block's ```sql line; that block is lost with the call, as after any
    splice the model is called again for.
    """
    backend = StoppingReplay([first, "\nThe final answer is 1."])
    outcome, trace = run_checked(small_instance(table=ROWS_TABLE), backend, keep_claims=True)
    assert outcome.api_calls == 2
    assert [r.generation is not None for r in trace.rounds] == [True, True]
    assert trace.rounds[1].execution_outcome == OUTCOME_NO_SQL
    assert outcome.final_answer.answers == ("1",)


def test_a_stopped_call_is_not_read_on_though_a_marker_in_another_case_kept_its_claim():
    """Stop strings match exactly; reading on here would end the run on text cut at a marker."""
    text = (_LOOKUP % _RIGHT + _SECOND).replace("Executed result:", "EXECUTED RESULT:", 1)
    backend = StoppingReplay([text, _SECOND])
    config = RunConfig(max_injection_rounds=1)
    outcome, trace = run_checked(small_instance(table=ROWS_TABLE), backend, config)
    assert [r.stop for r in backend.requests] == [RESULT_MARKERS, None]
    first, last = trace.rounds
    assert (first.claimed_result, first.injected_text) == (_RIGHT, _RIGHT)
    assert first.generation == text[: text.index("Executed result:")]
    assert last.generation == _SECOND
    assert trace.stopped_on_cap
    assert outcome.final_answer.answers == ("3",)


@pytest.mark.parametrize("keep_claims", [False, True], ids=["stopped", "claims_kept"])
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_transcripts_count_every_call_once_and_extend_each_request(case, keep_claims):
    run_checked(case.instance, StoppingReplay(case.script), keep_claims=keep_claims)


# ---------------------------------------------------------------------------
# random scripted generations

_RANDOM_SQL = (
    "SELECT `a` FROM w WHERE `b` = 2",  # runs
    "SELECT `a` FROM w GROUP BY `a`",  # fails to parse
    "SELECT `zz` FROM w",  # names an unknown column
)
_RANDOM_CLAIMS = (None, _RIGHT, "9", _RIGHT + "\n\n- So a is 1.", "SQL:\nSELECT COUNT(*) FROM w")


@st.composite
def _random_generation(draw, first):
    """Prose, then SQL blocks each with or without a marker and a claim, then maybe an answer.

    A claim sits right under its marker or after a blank line, fenced or not.
    """
    text = "plan" if first else ""
    for _ in range(draw(st.integers(0, 3))):
        sql = draw(st.sampled_from(_RANDOM_SQL))
        text += draw(st.sampled_from(["\n", "\n\n"]))
        text += draw(st.sampled_from(["```sql\n%s\n```", "SQL:\n%s"])) % sql
        marker = draw(st.sampled_from((None,) + RESULT_MARKERS + ("EXECUTED RESULT:",)))
        if marker is not None:
            claim = draw(st.sampled_from(_RANDOM_CLAIMS))
            text += "\n" + marker
            if claim is not None:
                wrapping = draw(st.sampled_from(list(_WRAPPINGS.values())))
                text += wrapping % claim
    ending = draw(st.sampled_from([None, "The final answer is 1.", "- still thinking"]))
    if ending is not None or not text:
        text += "\n\n" + (ending or "")
    return ScriptEntry(response=text, finish_reason=draw(st.sampled_from(["stop", "length"])))


@st.composite
def _random_script(draw):
    """A first generation and up to five continuations; about a third are cut to fail call k."""
    script = [draw(_random_generation(first=True))]
    script += draw(st.lists(_random_generation(first=False), max_size=5))
    return script[: draw(st.integers(0, 3 * len(script)))]


def _injected_spans(trace, requests):
    """Where each result the loop injected lies in the final generation.

    A result is injected only before a call, and it ends that call's
    request, whose text past the prompt the final generation starts with.
    """
    spans = []
    calls = iter(requests[1:])
    for before, after in zip(trace.rounds, trace.rounds[1:]):
        if after.generation is not None:
            end = len(next(calls).messages[0]["content"]) - len(trace.prompt)
            spans.append((end - len(before.injected_text or ""), end))
    return spans


# A failed block whose claim holds SQL, under a marker no stop string cuts
# and with nothing after the claim, so both modes make a call and splice the
# claim in; the SQL in it is the loop's text, never run.
_SQL_IN_A_FAILED_CLAIM = (
    "plan\nSQL:\nSELECT `a` FROM w GROUP BY `a`\nEXECUTED RESULT:\n```\nSQL:\nSELECT COUNT(*) FROM w\n```"
)
_ANOTHER_BLOCK = "\n\nSQL:\nSELECT `a` FROM w WHERE `b` = 2\nExecuted result:\n| a |\n| 1 |"
_ANSWER = "\n\nThe final answer is 1."


@pytest.mark.parametrize("keep_claims", [False, True], ids=["stopped", "claims_kept"])
@pytest.mark.parametrize("cap", range(5))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(script=_random_script())
@example(script=[ScriptEntry(response=t) for t in (
    _SQL_IN_A_FAILED_CLAIM, _ANOTHER_BLOCK + _ANSWER, _ANSWER)])
@example(script=[ScriptEntry(response=t) for t in (_SQL_IN_A_FAILED_CLAIM, _ANSWER)])
def test_random_scripts_keep_the_loop_invariants(script, cap, keep_claims):
    config = RunConfig(max_injection_rounds=cap)
    backend = StoppingReplay(script)
    outcome, trace = run_checked(
        small_instance(table=ROWS_TABLE), backend, config, keep_claims=keep_claims)
    assert (outcome.status == "backend_error") == (len(backend.requests) > len(script))
    for r in trace.rounds:
        assert r.injected_text is None or r.execution_outcome == OUTCOME_OK or r.fallback_used
        assert not r.fallback_used or r.injected_text is not None
        # a failed block falls back exactly when the model wrote a claim for it
        failed = r.execution_outcome == OUTCOME_SQL_ERROR
        assert r.fallback_used == (failed and r.claimed_result is not None)
    segments = segment_response(trace.final_generation)
    assert segments.reassemble() == trace.final_generation
    if outcome.status == "ok":
        # every block the model wrote ran, unless it lies past the cap; a block
        # that starts in a result the loop injected is not the model's
        injected = _injected_spans(trace, backend.requests)
        written = [
            b.sql_text for b in segments.sql_blocks
            if not any(start <= b.span[0] < end for start, end in injected)
        ]
        ran = [r.detected_sql for r in trace.rounds if r.detected_sql is not None]
        assert written[: len(ran)] == ran
        assert len(written) == len(ran) or trace.stopped_on_cap
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        write_traces([(outcome, trace)], path)
        assert load_traces(path) == [trace]
