"""JSONL output: every writer keeps non-ASCII text verbatim, one object per line."""

import json

from tabreason.backends import RecordingBackend, ReplayBackend
from tabreason.dataset import export_jsonl, generate_candidates, write_candidates
from tabreason.orchestrator import run_batch, write_outcomes, write_traces
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
