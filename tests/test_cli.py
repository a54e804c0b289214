"""Command-line interface: subcommands, exit codes, and file outputs."""

import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import tabreason
from tabreason.backends import ReplayBackend, ScriptEntry, request_key, write_script
from tabreason.cli import dispatch
from tabreason.evaluation import EvalReport
from tabreason.prompts import build_judge_prompt, build_task_prompt
from tabreason.tables import (
    GoldAnswer,
    Instance,
    Table,
    dump_instances,
    table_to_dict,
)

from transcripts import ALL_CASES


TABLE = Table(
    ["Name", "Nationality"],
    [["Edith", "Kenya"], ["Ann", "Kenya"], ["Ivana", "Russia"]],
)


def make_instance(id, gold="2"):
    return Instance(
        id=id,
        task="short_qa",
        query="how many athletes are from Kenya?",
        table=TABLE,
        gold=GoldAnswer(answers=(gold,)),
    )


def keyed_entry(instance, response):
    prompt = build_task_prompt(instance)
    return ScriptEntry(
        response=response, key=request_key([{"role": "user", "content": prompt}])
    )


@pytest.fixture
def workdir(tmp_path):
    """A data file with two instances and a replay script covering both."""
    instances = [make_instance("q1", gold="2"), make_instance("q2", gold="3")]
    data = tmp_path / "instances.jsonl"
    dump_instances(instances, str(data))
    script = tmp_path / "script.jsonl"
    write_script(
        [
            keyed_entry(instances[0], "Count them.\nThe final answer is 2."),
            keyed_entry(instances[1], "Count them.\nThe final answer is 2."),
        ],
        str(script),
    )
    return tmp_path, instances, data, script


# ---------------------------------------------------------------------------
# sql


def test_sql_command_prints_the_grid(tmp_path, capsys):
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(table_to_dict(TABLE)), encoding="utf-8")
    rc = dispatch(
        ["sql", "--table", str(table_file), "--query",
         "SELECT `Name` FROM w WHERE `Nationality` = 'Kenya'"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "| Name |\n| Edith |\n| Ann |\n"


def test_sql_command_accepts_wrapped_payload(tmp_path, capsys):
    table_file = tmp_path / "table.json"
    table_file.write_text(
        json.dumps({"table": table_to_dict(TABLE)}), encoding="utf-8"
    )
    rc = dispatch(["sql", "--table", str(table_file), "--query", "SELECT COUNT(*) FROM w"])
    assert rc == 0
    assert "| 3 |" in capsys.readouterr().out


def test_sql_command_reports_query_errors(tmp_path, capsys):
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(table_to_dict(TABLE)), encoding="utf-8")
    rc = dispatch(["sql", "--table", str(table_file), "--query", "SELECT `Points` FROM w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Points" in captured.err


@pytest.mark.parametrize(
    "payload",
    [{"headers": ["Name"], "rows": [5]}, {"headers": "xyz", "rows": ["abc"]}, ["Name"]],
    ids=["number-row", "string-headers", "array"],
)
def test_sql_command_rejects_a_malformed_table(tmp_path, capsys, payload):
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(payload), encoding="utf-8")
    rc = dispatch(["sql", "--table", str(table_file), "--query", "SELECT COUNT(*) FROM w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: bad table: table " % table_file)


def test_sql_command_names_a_missing_table_file(tmp_path, capsys):
    table_file = tmp_path / "missing.json"
    rc = dispatch(["sql", "--table", str(table_file), "--query", "SELECT COUNT(*) FROM w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read %s: " % table_file)


def test_sql_command_names_a_table_file_that_is_not_json(tmp_path, capsys):
    table_file = tmp_path / "table.json"
    table_file.write_text("Name,Nationality\n", encoding="utf-8")
    rc = dispatch(["sql", "--table", str(table_file), "--query", "SELECT COUNT(*) FROM w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: bad table: Expecting value: line 1 column 1 (char 0)\n" % (
        table_file)


# ---------------------------------------------------------------------------
# infer and eval


def test_infer_then_eval(workdir, capsys):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    outcomes = tmp_path / "outcomes.jsonl"
    rc = dispatch(
        [
            "infer",
            "--data", str(data),
            "--backend", "replay:%s" % script,
            "--out", str(traces),
            "--outcomes", str(outcomes),
            "--parallelism", "2",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "ran 2 instances, 0 failed" in captured.err
    assert len(traces.read_text().splitlines()) == 2
    assert len(outcomes.read_text().splitlines()) == 2

    report_json = tmp_path / "report.json"
    rc = dispatch(
        [
            "eval",
            "--data", str(data),
            "--traces", str(traces),
            "--json", str(report_json),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    report = json.loads(report_json.read_text())
    # q1 matches its gold, q2 does not
    assert report["scores"]["accuracy"] == 0.5
    assert report["evaluated"] == 2


def test_infer_reports_backend_failures(workdir, capsys):
    tmp_path, instances, data, script = workdir
    # a script that only covers the first instance
    short_script = tmp_path / "short.jsonl"
    write_script(
        [keyed_entry(instances[0], "The final answer is 2.")], str(short_script)
    )
    rc = dispatch(
        [
            "infer",
            "--data", str(data),
            "--backend", "replay:%s" % short_script,
            "--out", str(tmp_path / "t.jsonl"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "instance q2 failed" in err
    assert "1 failed" in err


def test_infer_says_how_many_runs_were_cut_off(workdir, capsys):
    """A run whose last call stopped at ``max_new_tokens`` keeps status ok; stderr counts it."""
    tmp_path, instances, data, _ = workdir
    script, traces = tmp_path / "cut.jsonl", tmp_path / "traces.jsonl"
    cut = replace(keyed_entry(instances[0], "The final answer is 2."), finish_reason="length")
    write_script([cut, keyed_entry(instances[1], "The final answer is 3.")], str(script))
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    assert capsys.readouterr().err == (
        "ran 2 instances, 0 failed, 1 cut off at max_new_tokens, traces written to %s\n" % traces)


def test_eval_reports_the_status_each_trace_line_carries(workdir, capsys):
    tmp_path, instances, data, script = workdir
    short_script = tmp_path / "short.jsonl"
    write_script([keyed_entry(instances[0], "The final answer is 2.")], str(short_script))
    traces, report_json = tmp_path / "t.jsonl", tmp_path / "report.json"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % short_script,
                     "--out", str(traces)]) == 1
    capsys.readouterr()
    assert dispatch(["eval", "--data", str(data), "--traces", str(traces),
                     "--json", str(report_json)]) == 0
    out = capsys.readouterr().out
    assert json.loads(report_json.read_text())["statuses"] == {"ok": 1, "backend_error": 1, "crashed": 0}
    assert re.search(r"^status\[ok\] +1$", out, re.M)
    assert re.search(r"^status\[backend_error\] +1$", out, re.M)


def test_infer_missing_data_file(tmp_path, capsys):
    rc = dispatch(
        [
            "infer",
            "--data", str(tmp_path / "missing.jsonl"),
            "--backend", "replay:%s" % (tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "t.jsonl"),
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,backend", [("infer", "--backend"), ("build-dataset", "--teacher")]
)
def test_an_empty_config_path_fails_as_an_unreadable_file(workdir, capsys, command, backend):
    tmp_path, _, data, script = workdir
    rc = dispatch([command, "--data", str(data), backend, "replay:%s" % script,
                   "--out", str(tmp_path / "out.jsonl"), "--config", ""])
    assert rc == 1
    assert "No such file or directory: ''" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,backend", [("infer", "--backend"), ("build-dataset", "--teacher")]
)
def test_a_missing_config_file_is_named(workdir, capsys, command, backend):
    tmp_path, _, data, script = workdir
    config = tmp_path / "missing.cfg"
    rc = dispatch([command, "--data", str(data), backend, "replay:%s" % script,
                   "--out", str(tmp_path / "out.jsonl"), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read %s: " % config)
    assert not (tmp_path / "out.jsonl").exists()


def test_a_config_value_error_names_the_file(workdir, capsys):
    tmp_path, _, data, script = workdir
    config = tmp_path / "run.cfg"
    config.write_text("max_new_tokens=10\ntypo_key=1\n", encoding="utf-8")
    rc = dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                   "--out", str(tmp_path / "out.jsonl"), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s: unknown config keys: typo_key\n" % config


@pytest.mark.parametrize(
    "command,backend", [("infer", "--backend"), ("build-dataset", "--teacher")]
)
@pytest.mark.parametrize(
    "line", ["result_markers=Executed result:|Output:", "fallback_on_sql_error=false"]
)
def test_a_config_naming_a_fixed_setting_is_refused(workdir, capsys, command, backend, line):
    """The result markers and the SQL-error fallback are fixed, not config keys."""
    tmp_path, _, data, script = workdir
    config = tmp_path / "run.cfg"
    config.write_text("max_new_tokens=10\n%s\n" % line, encoding="utf-8")
    rc = dispatch([command, "--data", str(data), backend, "replay:%s" % script,
                   "--out", str(tmp_path / "out.jsonl"), "--config", str(config)])
    assert rc == 1
    key = line.split("=")[0]
    assert capsys.readouterr().err == "error: %s: unknown config keys: %s\n" % (config, key)
    assert not (tmp_path / "out.jsonl").exists()


def test_an_eval_json_path_that_cannot_be_written_is_named(workdir, capsys):
    tmp_path, _, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    capsys.readouterr()
    report_json = tmp_path / "missing" / "report.json"
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--json", str(report_json)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % report_json)


def test_an_eval_json_write_that_fails_leaves_no_file(workdir, capsys, monkeypatch):
    tmp_path, _, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    capsys.readouterr()

    def no_space(self):
        raise OSError("no space left on device")

    monkeypatch.setattr(EvalReport, "to_json", no_space)
    report_json = tmp_path / "report.json"
    report_json.write_text("an earlier report\n", encoding="utf-8")
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--json", str(report_json)])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot write %s: no space left on device\n" % (
        report_json)
    assert not report_json.exists()


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({"id": "q1", "task": "short_qa", "query": "q",
                    "table": {"headers": ["Name"], "rows": [5]}}),
        json.dumps(["q1", "short_qa"]),
        json.dumps({"id": "q1", "task": "short_qa", "query": "q",
                    "table": {"headers": ["Name"], "rows": []}, "sentences": ["abc"]}),
        json.dumps({"id": "q1", "task": "short_qa", "query": "q",
                    "table": {"headers": ["Name"], "rows": []}, "tags": [1]}),
        json.dumps({"id": "q1", "task": "short_qa", "query": "q",
                    "table": {"headers": ["Name"], "rows": []}, "gold": 5}),
    ],
    ids=["number-row", "array-line", "string-sentence", "list-tags", "number-gold"],
)
def test_infer_rejects_a_malformed_instance_file(tmp_path, capsys, line):
    data = tmp_path / "instances.jsonl"
    data.write_text(line + "\n", encoding="utf-8")
    rc = dispatch(
        [
            "infer",
            "--data", str(data),
            "--backend", "replay:%s" % (tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "t.jsonl"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s:1: bad instance: " % data)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line,reason",
    [
        ("{}", "missing key 'instance_id'"),
        ("[1]", "trace must be a JSON object"),
        ({"rounds": [5]}, "rounds[0] must be a JSON object, got int"),
        ({"api_calls": "x"}, "api_calls must be a whole number, got str"),
        ({"stopped_on_cap": "no"}, "stopped_on_cap must be a boolean, got str"),
        ({"rounds": [{"generation": 5, "detected_sql": None, "execution_outcome": "no_sql"}]},
         "rounds[0].generation must be a string or null, got int"),
        ({"final_answer": {"kind": "short", "answers": [5]}},
         "final_answer.answers[0] must be a string, got int"),
        ({"final_answer": {"kind": "label", "label": 7}},
         "final_answer.label must be a string or null, got int"),
        ({"final_answer": {"kind": "bogus"}},
         "kind must be one of ('short', 'label', 'free', 'missing'), got 'bogus'"),
        ({"status": "bogus"}, "status must be one of ('ok', 'backend_error', 'crashed'), got 'bogus'"),
    ],
    ids=["empty-object", "array-line", "number-round", "string-api-calls",
         "string-stopped-on-cap", "number-generation", "number-answer", "number-label",
         "unknown-answer-kind", "unknown-status"],
)
def test_eval_rejects_a_malformed_trace_file(workdir, capsys, line, reason):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
              "--out", str(traces)])
    first, second = traces.read_text(encoding="utf-8").splitlines()
    if isinstance(line, dict):
        line = json.dumps({**json.loads(second), **line})
    traces.write_text(first + "\n" + line + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s:2: bad trace: " % traces)
    assert reason in err
    assert "Traceback" not in err


def test_eval_with_judge_backend(workdir, capsys):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    dispatch(
        ["infer", "--data", str(data), "--backend", "replay:%s" % script,
         "--out", str(traces)]
    )
    capsys.readouterr()

    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    rc = dispatch(
        [
            "eval",
            "--data", str(data),
            "--traces", str(traces),
            "--judge-backend", "replay:%s" % judge_script,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "judge" in out


def test_eval_writes_the_judge_counts_to_its_json_report(workdir, capsys):
    tmp_path, _, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    report = tmp_path / "report.json"
    assert dispatch(["eval", "--data", str(data), "--traces", str(traces),
                     "--judge-backend", "replay:%s" % judge_script, "--json", str(report)]) == 0
    assert json.loads(report.read_text())["judge_counts"] == {"yes": 1, "no": 1, "unparseable": 0}


def test_a_judge_backend_error_ends_eval_without_a_report(workdir, capsys):
    tmp_path, _, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"),
                  ScriptEntry(response="", finish_reason="error", error="HTTP 503")], str(judge_script))
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--judge-backend", "replay:%s" % judge_script, "--json", str(report)])
    assert rc == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "backend error: HTTP 503\n")
    assert not report.exists()


def test_judge_prompts_show_each_answer_and_gold_as_one_line(tmp_path, capsys, monkeypatch):
    instances = [make_instance("q1"), make_instance("q2")]
    instances[0] = replace(instances[0], gold=GoldAnswer(answers=("Edith", "Ann")))
    data = tmp_path / "instances.jsonl"
    dump_instances(instances, str(data))
    script = tmp_path / "script.jsonl"
    write_script([keyed_entry(instances[0], "List them.\nThe final answer is Edith, Ann."),
                  keyed_entry(instances[1], "I cannot tell.")], str(script))
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    prompts = []
    original = ReplayBackend.generate
    monkeypatch.setattr(
        ReplayBackend, "generate",
        lambda self, request, tag=None: prompts.append(request.messages[-1]["content"])
        or original(self, request, tag=tag),
    )
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    assert dispatch(["eval", "--data", str(data), "--traces", str(traces),
                     "--judge-backend", "replay:%s" % judge_script]) == 0
    capsys.readouterr()
    assert prompts == [
        build_judge_prompt(instances[0].query, "Edith; Ann", "Edith, Ann"),
        build_judge_prompt(instances[1].query, "2", "(no answer)"),
    ]


@pytest.fixture
def played(monkeypatch):
    """The tags of the replay calls made from here on."""
    tags = []
    original = ReplayBackend.generate
    monkeypatch.setattr(
        ReplayBackend, "generate",
        lambda self, request, tag=None: tags.append(tag) or original(self, request, tag=tag),
    )
    return tags


def test_eval_with_judge_backend_checks_ids_before_judging(workdir, capsys, played):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
              "--out", str(traces)])
    first, second = traces.read_text(encoding="utf-8").splitlines()
    second = json.dumps({**json.loads(second), "instance_id": "q9"})
    traces.write_text(first + "\n" + second + "\n", encoding="utf-8")
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    played.clear()
    capsys.readouterr()
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--judge-backend", "replay:%s" % judge_script])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: outcome ids do not match instance ids\n"
    assert played == []


def test_eval_names_an_instance_without_gold_before_judging(workdir, capsys, played):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
              "--out", str(traces)])
    dump_instances([instances[0], replace(instances[1], gold=None)], str(data))
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    played.clear()
    capsys.readouterr()
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--judge-backend", "replay:%s" % judge_script])
    assert rc == 1
    assert capsys.readouterr().err == "error: instance 'q2' has no gold answer\n"
    assert played == []


def _write_neither_family(data):
    """Make the second instance of ``data`` take a label set of neither family; returns the refusal."""
    first = data.read_text(encoding="utf-8").splitlines()[0]
    entailed = {**json.loads(first), "id": "q2", "task": "fact_verification",
                "gold": {"label": "entailed"}, "labels": ["entailed", "refuted"]}
    data.write_text(first + "\n" + json.dumps(entailed) + "\n", encoding="utf-8")
    return ("error: %s:2: bad instance: labels ['entailed', 'refuted']"
            " match neither true/false nor SUPPORTS/REFUTES/NOT ENOUGH INFO\n" % data)


def test_eval_names_a_label_set_of_neither_family_before_judging(workdir, capsys, played):
    tmp_path, instances, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
              "--out", str(traces)])
    refusal = _write_neither_family(data)
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    played.clear()
    capsys.readouterr()
    rc = dispatch(["eval", "--data", str(data), "--traces", str(traces),
                   "--judge-backend", "replay:%s" % judge_script])
    assert rc == 1
    assert capsys.readouterr().err == refusal
    assert played == []


# ---------------------------------------------------------------------------
# build-dataset


def test_build_dataset_filters_and_exports(workdir, capsys):
    tmp_path, instances, data, script = workdir
    out = tmp_path / "train.jsonl"
    cands = tmp_path / "candidates.jsonl"
    rc = dispatch(
        [
            "build-dataset",
            "--data", str(data),
            "--teacher", "replay:%s" % script,
            "--out", str(out),
            "--candidates", str(cands),
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "dropped q2" in err
    assert "kept 1 of 2 candidates" in err
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in records] == ["q1"]
    assert len(cands.read_text().splitlines()) == 2


TWO_RIGHT_CLAIMS = (
    "```sql\nSELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'\n```\n"
    "Executed result:\n| COUNT(*) |\n| 2 |\n\n"
    "```sql\nSELECT `Name` FROM w WHERE `Nationality` = 'Kenya'\n```\n"
    "Executed result:\n| Name |\n| Edith |\n| Ann |\n\n"
    "The final answer is 2."
)


def test_build_dataset_counts_the_kept_pairs_per_tag(tmp_path, capsys):
    instances = [make_instance("capped"), make_instance("wrong_claim"), make_instance("plain"),
                 make_instance("dropped", gold="3")]
    data = tmp_path / "instances.jsonl"
    dump_instances(instances, str(data))
    config = tmp_path / "run.cfg"
    config.write_text("max_injection_rounds=1\n", encoding="utf-8")
    script = tmp_path / "script.jsonl"
    texts = [
        TWO_RIGHT_CLAIMS,  # its second block lies past the cap
        "```sql\nSELECT COUNT(*) FROM w\n```\nExecuted result:\n| COUNT(*) |\n| 2 |\n\n...",
        "\n\nThe final answer is 2.",
        "The final answer is 2.",
        TWO_RIGHT_CLAIMS,
    ]
    write_script([ScriptEntry(response=t) for t in texts], str(script))
    rc = dispatch(["build-dataset", "--data", str(data), "--teacher", "replay:%s" % script,
                   "--config", str(config), "--out", str(tmp_path / "train.jsonl")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "dropped dropped: answer '2' does not match gold '3'"
    assert err[-1] == "kept pairs by tag: execution_mismatch 1, sql_error 0, stopped_on_cap 1; untagged 1"
    pairs = [json.loads(line) for line in (tmp_path / "train.jsonl").read_text().splitlines()]
    assert [(r["id"], r["tags"]) for r in pairs] == [
        ("capped", ["stopped_on_cap"]), ("wrong_claim", ["execution_mismatch"]), ("plain", [])]


def test_build_dataset_refuses_a_repeated_id_before_any_call(workdir, capsys, played):
    """The consistency filter used to find the repeat after every teacher call was made."""
    tmp_path, instances, data, script = workdir
    dump_instances([instances[0], instances[1], instances[0]], str(data))
    rc = dispatch(["build-dataset", "--data", str(data), "--teacher", "replay:%s" % script,
                   "--out", str(tmp_path / "train.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s:3: bad instance: duplicate instance id 'q1'\n" % data
    assert played == []


def test_build_dataset_fails_when_nothing_survives(workdir, capsys):
    tmp_path, instances, data, _ = workdir
    # both teacher answers disagree with gold
    wrong = tmp_path / "wrong.jsonl"
    write_script(
        [
            keyed_entry(instances[0], "The final answer is 9."),
            keyed_entry(instances[1], "The final answer is 9."),
        ],
        str(wrong),
    )
    rc = dispatch(
        [
            "build-dataset",
            "--data", str(data),
            "--teacher", "replay:%s" % wrong,
            "--out", str(tmp_path / "train.jsonl"),
        ]
    )
    assert rc == 1
    assert "no candidates survived" in capsys.readouterr().err


def test_build_dataset_names_an_instance_without_gold_before_the_teacher_runs(
    workdir, capsys, played
):
    tmp_path, instances, data, script = workdir
    dump_instances([instances[0], replace(instances[1], gold=None)], str(data))
    rc = dispatch(["build-dataset", "--data", str(data), "--teacher", "replay:%s" % script,
                   "--out", str(tmp_path / "train.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: instance 'q2' has no gold answer\n"
    assert played == []
    assert not (tmp_path / "train.jsonl").exists()


@pytest.mark.parametrize("command,flag", [("infer", "--backend"), ("build-dataset", "--teacher")])
def test_a_label_set_of_neither_family_is_named_before_the_first_call(
    workdir, capsys, played, command, flag
):
    tmp_path, instances, data, script = workdir
    refusal = _write_neither_family(data)
    out = tmp_path / "out.jsonl"
    rc = dispatch([command, "--data", str(data), flag, "replay:%s" % script, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == refusal
    assert played == []
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/out.jsonl", "a-directory"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("infer", "--out"),
        ("infer", "--outcomes"),
        ("infer", "--record"),
        ("build-dataset", "--out"),
        ("build-dataset", "--candidates"),
        ("build-dataset", "--record"),
        ("eval", "--json"),
    ],
)
def test_an_output_that_cannot_be_written_is_refused_before_the_first_call(
    workdir, capsys, played, command, flag, target
):
    tmp_path, _, data, script = workdir
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    judge_script = tmp_path / "judge.jsonl"
    write_script([ScriptEntry(response="Yes"), ScriptEntry(response="No")], str(judge_script))
    (tmp_path / "a-directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    played.clear()
    capsys.readouterr()
    if command == "eval":
        argv = ["eval", "--data", str(data), "--traces", str(traces),
                "--judge-backend", "replay:%s" % judge_script]
    else:
        backend = "--backend" if command == "infer" else "--teacher"
        argv = [command, "--data", str(data), backend, "replay:%s" % script,
                "--out", str(tmp_path / "out.jsonl")]
    bad = tmp_path / target
    rc = dispatch(argv + [flag, str(bad)])  # a second --out replaces the first
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % bad)
    assert played == []
    assert sorted(tmp_path.rglob("*")) == before


def test_build_dataset_sampling(workdir, capsys):
    tmp_path, instances, data, script = workdir
    out = tmp_path / "train.jsonl"
    rc = dispatch(
        [
            "build-dataset",
            "--data", str(data),
            "--teacher", "replay:%s" % script,
            "--out", str(out),
            "--sample", "2",
            "--seed", "1",
            "--segment", "answer-only",
        ]
    )
    assert rc == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["response"] == "The final answer is 2."


# ---------------------------------------------------------------------------
# usage errors


# ---------------------------------------------------------------------------
# recording a run


@pytest.fixture
def transcripts(tmp_path):
    """The transcript cases as a data file, and an unkeyed script that plays them in order."""
    data = tmp_path / "transcripts.jsonl"
    dump_instances([case.instance for case in ALL_CASES], str(data))
    script = tmp_path / "unkeyed.jsonl"
    write_script([ScriptEntry(response=t) for case in ALL_CASES for t in case.script], str(script))
    return tmp_path, data, script


@pytest.mark.parametrize(
    "command,backend_flag,outputs",
    [
        ("infer", "--backend", {"--out": "traces.jsonl", "--outcomes": "outcomes.jsonl"}),
        ("build-dataset", "--teacher", {"--out": "pairs.jsonl", "--candidates": "candidates.jsonl"}),
    ],
    ids=["infer", "build-dataset"],
)
def test_a_recorded_run_replays_byte_for_byte_in_parallel(
    transcripts, capsys, command, backend_flag, outputs
):
    tmp_path, data, script = transcripts
    recorded = tmp_path / "recorded.jsonl"

    def run(name, backend, *extra):
        (tmp_path / name).mkdir()
        files = [arg for flag, file in outputs.items() for arg in (flag, str(tmp_path / name / file))]
        return dispatch([command, "--data", str(data), backend_flag, backend, *files, *extra])

    assert run("first", "replay:%s" % script, "--record", str(recorded)) == 0
    assert ReplayBackend.from_script(str(recorded)).keyed
    assert run("again", "replay:%s" % recorded, "--parallelism", "4") == 0
    for file in outputs.values():
        assert (tmp_path / "again" / file).read_bytes() == (tmp_path / "first" / file).read_bytes()


@pytest.mark.parametrize(
    "command,backend_flag,outputs",
    [
        ("infer", "--backend", {"--out": "traces.jsonl", "--outcomes": "outcomes.jsonl"}),
        ("build-dataset", "--teacher", {"--out": "pairs.jsonl", "--candidates": "candidates.jsonl"}),
    ],
    ids=["infer", "build-dataset"],
)
@pytest.mark.parametrize(
    "case,status",
    [("budget-too-small", {"infer": 1, "build-dataset": 1}), ("no-instances", {"infer": 0, "build-dataset": 1})],
    ids=["budget-too-small", "no-instances"],
)
def test_recording_a_run_that_made_no_call_changes_nothing_else(
    workdir, capsys, played, command, backend_flag, outputs, case, status
):
    """``--record`` used to refuse to write an empty script, losing the run's outputs and failure lines."""
    tmp_path, _, data, script = workdir
    config = tmp_path / "run.cfg"
    config.write_text("table_token_budget=1\n" if case == "budget-too-small" else "", encoding="utf-8")
    if case == "no-instances":
        data.write_text("", encoding="utf-8")
    recorded = tmp_path / "recorded.jsonl"

    def run(name, *extra):
        (tmp_path / name).mkdir()
        files = [arg for flag, file in outputs.items() for arg in (flag, str(tmp_path / name / file))]
        rc = dispatch([command, "--data", str(data), backend_flag, "replay:%s" % script,
                       "--config", str(config), *files, *extra])
        written = {file: (tmp_path / name / file).read_bytes()
                   for file in outputs.values() if (tmp_path / name / file).exists()}
        return rc, capsys.readouterr().err.replace(name, "<run>"), written

    plain = run("plain")
    assert plain[0] == status[command]
    if case == "budget-too-small":
        assert "instance q1 failed: budget 1 cannot hold metadata and header (6 tokens)\n" in plain[1]
    assert run("recorded", "--record", str(recorded)) == plain
    assert played == []
    assert recorded.read_bytes() == b""


class _ChatHandler(BaseHTTPRequestHandler):
    """A chat-completions endpoint whose every answer is the same short conclusion."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.calls += 1
        raw = json.dumps({"choices": [{"message": {"content": "Count them.\nThe final answer is 2."},
                                       "finish_reason": "stop"}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


def test_infer_over_http_records_a_script_that_replays_byte_for_byte(workdir, monkeypatch):
    tmp_path, _, data, _ = workdir
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.calls = 0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    recorded = tmp_path / "recorded.jsonl"

    def run(name, *backend):
        (tmp_path / name).mkdir()
        return dispatch(["infer", "--data", str(data), *backend,
                         "--out", str(tmp_path / name / "traces.jsonl"),
                         "--outcomes", str(tmp_path / name / "outcomes.jsonl")])

    try:
        base_url = "http://127.0.0.1:%d/v1" % server.server_address[1]
        assert run("live", "--backend", "http", "--base-url", base_url, "--model", "m",
                   "--record", str(recorded)) == 0
    finally:
        server.shutdown()
        server.server_close()
    assert server.calls == 2
    assert ReplayBackend.from_script(str(recorded)).keyed
    assert run("again", "--backend", "replay:%s" % recorded, "--parallelism", "2") == 0
    for file in ("traces.jsonl", "outcomes.jsonl"):
        assert (tmp_path / "again" / file).read_bytes() == (tmp_path / "live" / file).read_bytes()


def test_a_recorded_failure_replays_byte_for_byte_in_parallel(transcripts, capsys):
    tmp_path, data, _ = transcripts
    # one response short, so the last instance's last call fails
    short = tmp_path / "short.jsonl"
    write_script([ScriptEntry(response=t) for case in ALL_CASES for t in case.script][:-1], str(short))
    recorded = tmp_path / "recorded.jsonl"

    def run(name, backend, *extra):
        (tmp_path / name).mkdir()
        rc = dispatch(["infer", "--data", str(data), "--backend", backend, *extra,
                       "--out", str(tmp_path / name / "traces.jsonl"),
                       "--outcomes", str(tmp_path / name / "outcomes.jsonl")])
        return rc, capsys.readouterr().err.replace(name, "<run>")

    first = run("first", "replay:%s" % short, "--record", str(recorded))
    assert first[0] == 1
    assert "instance %s failed: replay script has no responses left" % ALL_CASES[-1].instance.id in first[1]
    assert run("again", "replay:%s" % recorded, "--parallelism", "4") == first
    for file in ("traces.jsonl", "outcomes.jsonl"):
        assert (tmp_path / "again" / file).read_bytes() == (tmp_path / "first" / file).read_bytes()


def test_recording_does_not_lift_the_unkeyed_replay_guard(transcripts, capsys):
    tmp_path, data, script = transcripts
    recorded = tmp_path / "recorded.jsonl"
    rc = dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                   "--out", str(tmp_path / "t.jsonl"), "--parallelism", "2", "--record", str(recorded)])
    assert rc == 1
    assert "unkeyed replay script needs parallelism 1" in capsys.readouterr().err
    assert not recorded.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        dispatch(["frobnicate"])
    assert exc_info.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        dispatch(["infer", "--data", "x.jsonl"])
    assert exc_info.value.code == 2


def test_eval_has_no_metrics_flag(capsys):
    # the report decides its scores: accuracy always, macro F1 with threeway instances
    with pytest.raises(SystemExit) as exc_info:
        dispatch(["eval", "--data", "x.jsonl", "--traces", "t.jsonl", "--metrics", "accuracy"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --metrics" in capsys.readouterr().err


@pytest.fixture(params=["infer", "build-dataset", "eval"])
def backend_argv(request, workdir, capsys):
    """Arguments that run one command up to building the backend its flag names, and the file
    that command would write.

    ``eval`` gets the traces of a replayed ``infer`` first, so it reaches its judge backend.
    """
    tmp_path, _, data, script = workdir
    out = tmp_path / "out.jsonl"
    if request.param == "infer":
        return ["infer", "--data", str(data), "--out", str(out), "--backend"], out
    if request.param == "build-dataset":
        return ["build-dataset", "--data", str(data), "--out", str(out), "--teacher"], out
    traces = tmp_path / "traces.jsonl"
    assert dispatch(["infer", "--data", str(data), "--backend", "replay:%s" % script,
                     "--out", str(traces)]) == 0
    capsys.readouterr()
    return ["eval", "--data", str(data), "--traces", str(traces), "--json", str(out),
            "--judge-backend"], out


USAGE = "usage: tabreason [-h] {infer,eval,sql,build-dataset} ...\n"


def test_unknown_backend_spec_exits_2(backend_argv, capsys):
    argv, out = backend_argv
    with pytest.raises(SystemExit) as exc_info:
        dispatch(argv + ["carrier-pigeon"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err == USAGE + "tabreason: error: unknown backend spec 'carrier-pigeon'\n"
    assert not out.exists()


def test_http_backend_requires_url_and_model(backend_argv, capsys):
    argv, out = backend_argv
    with pytest.raises(SystemExit) as exc_info:
        dispatch(argv + ["http"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err == (
        USAGE + "tabreason: error: http backend requires --base-url and --model\n")
    assert not out.exists()


def test_http_backend_bad_url_exits_2_naming_the_field(backend_argv, capsys):
    argv, out = backend_argv
    with pytest.raises(SystemExit) as exc_info:
        dispatch(argv + ["http", "--base-url", "localhost:8000/v1", "--model", "m"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err == USAGE + (
        "tabreason: error: http backend: base_url must start with http:// or https://, got 'localhost:8000/v1'\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("infer", "--parallelism", "0"),
        ("infer", "--parallelism", "two"),
        ("build-dataset", "--parallelism", "0"),
        ("build-dataset", "--sample", "-1"),
        ("build-dataset", "--sample", "0"),
    ],
)
def test_count_flags_below_one_exit_2(workdir, capsys, command, flag, value):
    tmp_path, _, data, script = workdir
    out = tmp_path / "out.jsonl"
    backend_flag = "--backend" if command == "infer" else "--teacher"
    with pytest.raises(SystemExit) as exc_info:
        dispatch([command, "--data", str(data), "--out", str(out),
                  backend_flag, "replay:%s" % script, flag, value])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tabreason %s [-h]" % command)
    assert err.endswith("tabreason %s: error: argument %s: must be a positive integer, got %r\n"
                        % (command, flag, value))
    assert not out.exists()


# ---------------------------------------------------------------------------
# declared entry point


def declared_console_script():
    """The `tabreason` entry of `[project.scripts]` in the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        value = tomllib.load(f)["project"]["scripts"]["tabreason"]
    return EntryPoint(name="tabreason", value=value, group="console_scripts")


def test_console_script_runs(tmp_path):
    """The declared console script runs as a process against the imported source.

    The wrapper is the one an installer writes for a console script; it runs
    with the `tabreason` package this suite imported first on PYTHONPATH, not
    whatever `tabreason` happens to be on PATH.
    """
    entry = declared_console_script()
    exe = tmp_path / "tabreason"
    exe.write_text(
        f"import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    package_root = str(Path(tabreason.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(table_to_dict(TABLE)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(exe),
         "sql", "--table", str(table_file), "--query", "SELECT COUNT(*) FROM w"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "| COUNT(*) |\n| 3 |\n"
