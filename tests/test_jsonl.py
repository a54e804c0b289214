"""JSONL files and the records in them: the writers' form, and the kinds each field takes."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabreason.backends import RecordingBackend, ReplayBackend, ScriptEntry
from tabreason.dataset import export_jsonl, generate_candidates, write_candidates
from tabreason.jsonl import from_fields, read_jsonl, write_jsonl
from tabreason.orchestrator import RoundRecord, Trace, run_batch, write_outcomes, write_traces
from tabreason.responses import FinalAnswer
from tabreason.tables import GoldAnswer, Instance, SentenceContext, Table, dump_instances

PLAN = "```sql\nSELECT `Név` FROM w WHERE `Város` = 'Köln'\n```\nResult:\n| Név |\n| Ángel |"
ANSWER = "So it is Ángel.\nThe final answer is Ángel."


def test_every_writer_keeps_non_ascii_text_one_compact_object_per_line(tmp_path):
    instance = Instance(
        id="ü1",
        task="short_qa",
        query="Wer wohnt in Köln?",
        table=Table(["Név", "Város"], [["Zoë", "東京"], ["Ángel", "Köln"]]),
        sentences=(SentenceContext(text="Straße", title="Köln"),),
        gold=GoldAnswer(answers=("Ángel",)),
    )
    recorder = RecordingBackend(ReplayBackend.from_texts([PLAN, ANSWER]))
    results = run_batch([instance], recorder)
    candidates, errors = generate_candidates(
        [instance], ReplayBackend.from_texts([PLAN, ANSWER])
    )
    assert not errors and candidates[0].consistent

    files = {name: tmp_path / (name + ".jsonl") for name in
             ("instances", "traces", "outcomes", "candidates", "pairs", "script")}
    dump_instances([instance], str(files["instances"]))
    write_traces(results, str(files["traces"]))
    write_outcomes(results, str(files["outcomes"]))
    write_candidates(candidates, str(files["candidates"]))
    export_jsonl(candidates, [instance], str(files["pairs"]))
    recorder.write_script(str(files["script"]))

    for name, path in files.items():
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[-1] == "", name
        for line in lines[:-1]:
            assert line == json.dumps(json.loads(line), ensure_ascii=False), name
        assert "Ángel" in text, name
        assert "\\u" not in text, name
    assert len(files["script"].read_text(encoding="utf-8").splitlines()) == 2


# ---------------------------------------------------------------------------
# from_fields: which JSON value may stand in which record field

ROUND = {"generation": "g", "detected_sql": "SELECT 1", "execution_outcome": "ok",
         "injected_text": "1", "fallback_used": False, "error_detail": None,
         "claimed_result": "1", "finish_reason": "stop", "attempts": 1}
FINAL_ANSWER = {"kind": "short", "answers": ["a"]}
TRACE = {"instance_id": "q1", "prompt": "p", "rounds": [dict(ROUND), dict(ROUND)], "final_generation": "g",
         "final_answer": FINAL_ANSWER, "api_calls": 2, "stopped_on_cap": False, "status": "ok",
         "error": None}
SCRIPT_LINE = {"key": "k", "response": "r", "finish_reason": "stop"}

TEXT, NULL, WHOLE, BOOL, LIST, OBJECT = ("string", "null", "whole number", "boolean", "list",
                                         "JSON object")
ROUND_KINDS = {
    ("generation",): {TEXT, NULL}, ("detected_sql",): {TEXT, NULL},
    ("execution_outcome",): {TEXT}, ("injected_text",): {TEXT, NULL},
    ("fallback_used",): {BOOL}, ("error_detail",): {TEXT, NULL},
    ("claimed_result",): {TEXT, NULL}, ("finish_reason",): {TEXT, NULL},
    ("attempts",): {WHOLE, NULL},
}
FINAL_ANSWER_KINDS = {("kind",): {TEXT}, ("answers",): {LIST}, ("answers", 0): {TEXT},
                ("label",): {TEXT, NULL}, ("text",): {TEXT, NULL}}
TRACE_KINDS = {
    ("instance_id",): {TEXT}, ("prompt",): {TEXT}, ("rounds",): {LIST}, ("rounds", 1): {OBJECT},
    ("final_generation",): {TEXT}, ("final_answer",): {OBJECT}, ("api_calls",): {WHOLE},
    ("stopped_on_cap",): {BOOL}, ("status",): {TEXT}, ("error",): {TEXT, NULL},
    **{("rounds", 1) + path: kinds for path, kinds in ROUND_KINDS.items()},
    **{("final_answer",) + path: kinds for path, kinds in FINAL_ANSWER_KINDS.items()},
}
SCRIPT_KINDS = {("key",): {TEXT, NULL}, ("response",): {TEXT}, ("finish_reason",): {TEXT}}

JSON_VALUES = {
    TEXT: st.text(max_size=4),
    NULL: st.none(),
    WHOLE: st.integers(),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    BOOL: st.booleans(),
    LIST: st.lists(st.integers(), max_size=2),
    OBJECT: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}

# (record type, a valid JSON form, a field's path in it, the JSON kinds that field takes)
FIELD_CASES = [
    (cls, valid, path, kinds)
    for cls, valid, table in ((Trace, TRACE, TRACE_KINDS), (RoundRecord, ROUND, ROUND_KINDS),
                              (FinalAnswer, FINAL_ANSWER, FINAL_ANSWER_KINDS),
                              (ScriptEntry, SCRIPT_LINE, SCRIPT_KINDS))
    for path, kinds in table.items()
]


def _path_name(path):
    return "".join(
        "[%d]" % step if isinstance(step, int) else ("." if i else "") + step
        for i, step in enumerate(path)
    )


def _replaced(record, path, value):
    record = copy.deepcopy(record)
    holder = record
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return record


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_a_value_of_a_wrong_kind_fails_naming_its_field(data):
    for cls, valid, path, kinds in FIELD_CASES:
        for kind in sorted(JSON_VALUES.keys() - kinds):
            value = data.draw(JSON_VALUES[kind])
            with pytest.raises(ValueError) as info:
                from_fields(cls, _replaced(valid, path, value))
            assert str(info.value).startswith("%s must be a " % _path_name(path)), (kind, value)
            assert str(info.value).endswith(", got %s" % type(value).__name__)


def test_an_absent_field_keeps_its_default_and_unknown_keys_are_ignored():
    line = {**SCRIPT_LINE, "note": [1]}
    del line["finish_reason"]
    assert from_fields(ScriptEntry, line) == ScriptEntry(response="r", key="k")
    trace = copy.deepcopy(TRACE)
    del trace["rounds"][1]["execution_outcome"]
    with pytest.raises(KeyError, match="rounds\\[1\\].execution_outcome"):
        from_fields(Trace, trace)


def test_blank_lines_are_skipped_and_still_counted(tmp_path):
    path = tmp_path / "b.jsonl"
    path.write_text('{"x":1}\n\n   \n{"x":2}\n', encoding="utf-8")
    assert read_jsonl(str(path), dict, "rec") == [{"x": 1}, {"x": 2}]
    path.write_text('{"x":1}\n\n   \n[2]\n', encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_jsonl(str(path), dict, "rec")
    assert str(info.value) == "%s:4: bad rec: rec must be a JSON object, got list" % path


def test_a_write_that_fails_partway_leaves_no_partial_file(tmp_path):
    def records():
        yield {"id": "a"}
        raise RuntimeError("the second record cannot be built")

    path = tmp_path / "out.jsonl"
    path.write_text("earlier lines\n")
    with pytest.raises(RuntimeError, match="second record"):
        write_jsonl(str(path), records())
    assert not path.exists()
