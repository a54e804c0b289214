"""Golden run: every file the CLI writes, pinned byte for byte.

The inputs under ``tests/data/golden/`` are the five transcript cases plus
seven instances written for this run: a block the call stopped at that fails
to run, a generation cut off at ``max_new_tokens``, a run that ends in a
backend error, a teacher response with ``**1.``-style headings and
non-ASCII text, a run that writes one block more than the injection cap
allows, and two responses whose claims are already right, which the teacher
run reads on through without another call: one with each claim right under
its marker, one with a claim after a blank line and a fenced claim.  ``script.jsonl`` is a keyed replay script recorded once with
``RecordingBackend`` over :class:`ScriptedModel`, so the test needs no model.

The test runs ``infer`` (at parallelism 1 and 8), ``eval --json`` and
``build-dataset`` (once per ``--segment``) over those inputs, loads and
rewrites the instances, traces and script, and compares each file with its
golden copy.  A format change shows up here as a unified diff; regenerate
the golden files on purpose with::

    PYTHONPATH=src python tests/test_golden.py

which prints each file it rewrote, with the number of lines that changed,
and names the files it left unchanged.
"""

import difflib
import re
import shutil
import tempfile
from collections import deque
from pathlib import Path

from tabreason.backends import (
    Backend,
    BackendUnavailable,
    GenerationResult,
    RecordingBackend,
    load_script,
    write_script,
)
from tabreason.cli import dispatch
from tabreason.dataset import SEGMENT_CHOICES
from tabreason.orchestrator import load_run_config, load_traces, run_batch, write_traces
from tabreason.tables import (
    GoldAnswer,
    Instance,
    SentenceContext,
    Table,
    dump_instances,
    load_instances,
)

from transcripts import ALL_CASES

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

ROSTER = Table(
    ["Player", "Club", "Goals"],
    [["Zoë Ångström", "Köln", "12"], ["Ana Petrović", "Zürich", "7"], ["Lea Kim", "Köln", "3"]],
    caption="2021 scorers",
)


def _instance(id, task, query, gold, **extra):
    return Instance(id=id, task=task, query=query, table=ROSTER, gold=gold, **extra)


EXTRA_INSTANCES = (
    _instance("stopped_block", "short_qa", "how many clubs are listed?",
              GoldAnswer(answers=("2",)), tags={"program_solvable": False}),
    _instance("length_cut", "short_qa", "who scored the most goals?",
              GoldAnswer(answers=("Zoë Ångström",)), tags={"program_solvable": True}),
    _instance("backend_error", "fact_verification", "Lea Kim scored 3 goals.",
              GoldAnswer(label="true"), labels=("true", "false")),
    _instance("bold_headings", "short_qa", "how many goals did the Köln players score?",
              GoldAnswer(answers=("15",)), tags={"program_solvable": True},
              sentences=(SentenceContext(text="Köln won the cup.", title="Köln"),)),
    _instance("cap_hit", "short_qa", "how many goals did the three players score in total?",
              GoldAnswer(answers=("22",)), tags={"program_solvable": True}),
    _instance("claims_right", "short_qa", "how many goals did Ana Petrović score for her club?",
              GoldAnswer(answers=("7",)), tags={"program_solvable": True}),
    _instance("claims_wrapped", "short_qa", "how many goals did Lea Kim score for her club?",
              GoldAnswer(answers=("3",)), tags={"program_solvable": True}),
)

_BOLD_PLAN = """**1. Plan**
- Add up the goals of every player from Köln.

**2. Write SQL and execute SQL**
```sql
SELECT SUM(`Goals`) FROM w WHERE `Club` = 'Köln'
```
Executed result:
15"""

_BOLD_POST = """

**3. Step-by-step reasoning**
- Zoë Ångström scored 12 and Lea Kim 3, so Köln's players scored 15.

The final answer is 15."""

# One block per call; the fifth comes after the four injections the run allows.
_CAP_LOOKUP = "\n\n```sql\nSELECT `Goals` FROM w WHERE `Player` = '%s'\n```\nExecuted result:\n%s"
_CAP_CALLS = [
    "1. Plan\n- Look up each player's goals, then add them up." + _CAP_LOOKUP % ("Zoë Ångström", "12"),
    _CAP_LOOKUP % ("Ana Petrović", "7"),
    _CAP_LOOKUP % ("Lea Kim", "3"),
    "\n\n```sql\nSELECT COUNT(*) FROM w\n```\nExecuted result:\n3",
    "\n\nSQL:\nSELECT SUM(`Goals`) FROM w\nExecuted result:\n22\n\nThe final answer is 22.",
]

# Both claims equal the executed results (the second has a prose paragraph
# after its table), so build-dataset reads on through one call's text; infer,
# whose calls would stop at the markers, still makes a call per block.  Asked
# again, the model words its reasoning differently, so a teacher run that
# called again would change the pinned candidates and pairs.
_CLAIMS_RIGHT = """1. Plan
- Look up Ana Petrović's club, then her goals.

2. Write SQL and execute SQL
```sql
SELECT `Club` FROM w WHERE `Player` = 'Ana Petrović'
```
Executed result:
| Club |
| Zürich |

SQL:
SELECT `Goals` FROM w WHERE `Player` = 'Ana Petrović'
Executed result:
| Goals |
| 7 |

- She plays for Zürich, and these are all her goals.

3. Step-by-step reasoning
- Ana Petrović scored 7 goals for Zürich.

The final answer is 7."""


_REASKED = _CLAIMS_RIGHT.replace("- Ana Petrović scored", "- Asked again: Ana Petrović scored")

# The same, with the first claim after a blank line and the second fenced:
# the teacher run still reads on, and its text keeps the wrapping.
_CLAIMS_WRAPPED = """1. Plan
- Look up Lea Kim's club, then her goals.

2. Write SQL and execute SQL
```sql
SELECT `Club` FROM w WHERE `Player` = 'Lea Kim'
```
Executed result:

| Club |
| Köln |

SQL:
SELECT `Goals` FROM w WHERE `Player` = 'Lea Kim'
Executed result:
```
| Goals |
| 3 |
```

3. Step-by-step reasoning
- Lea Kim scored 3 goals for Köln.

The final answer is 3."""

_REASKED_WRAPPED = _CLAIMS_WRAPPED.replace("- Lea Kim scored", "- Asked again: Lea Kim scored")


def _continuations(text, *claims):
    """What a model that ignores stop strings writes after each claim of ``text`` is spliced in."""
    return [text[text.index(claim) + len(claim):] for claim in claims]


# Each instance's generations in call order; an exception is raised instead.
RESPONSES = {
    **{case.instance.id: list(case.script) for case in ALL_CASES},
    "stopped_block": [
        "1. Plan\n- Count the distinct clubs.\n\n2. Write SQL\n```sql\n"
        "SELECT `Club`, COUNT(*) FROM w GROUP BY `Club`\n```\nExecuted result:",
        "\n\n3. Reasoning\n- The clubs are Köln and Zürich.\n\nThe final answer is 2.",
    ],
    "length_cut": [("1. Plan\n- Find the row with the most goals, which is", "length")],
    "backend_error": [
        "1. Plan\n- Look up Lea Kim.\n\n2. Write SQL\n```sql\n"
        "SELECT `Goals` FROM w WHERE `Player` = 'Lea Kim'\n```\nExecuted result:\n3",
        BackendUnavailable("gave up after 3 attempts (HTTP 503)"),
    ],
    "bold_headings": [_BOLD_PLAN + _BOLD_POST, _BOLD_POST],
    "cap_hit": _CAP_CALLS,
    "claims_right": [_CLAIMS_RIGHT, *_continuations(_REASKED, "| Zürich |", "| 7 |")],
    "claims_wrapped": [
        _CLAIMS_WRAPPED, *_continuations(_REASKED_WRAPPED, "| Köln |", "| 3 |\n```")],
}


class ScriptedModel(Backend):
    """Serves each instance's generations in call order, found by the tag the loop sends."""

    def __init__(self, responses):
        super().__init__()
        self._queues = {id: deque(items) for id, items in responses.items()}

    def generate(self, request, tag=None):
        item = self._queues[tag].popleft()
        if isinstance(item, Exception):
            raise item
        text, finish_reason = item if isinstance(item, tuple) else (item, "stop")
        return GenerationResult(text=text, finish_reason=finish_reason)


def run_cli(inputs: Path, out: Path) -> None:
    """Write every output file of the golden run from ``inputs`` into ``out``."""
    data, script = str(inputs / "instances.jsonl"), "replay:%s" % (inputs / "script.jsonl")
    config = ["--config", str(inputs / "run.cfg")]
    for parallelism in (1, 8):
        argv = ["infer", "--data", data, "--backend", script, *config, "--parallelism", str(parallelism),
                "--out", str(out / ("traces_p%d.jsonl" % parallelism))]
        if parallelism == 1:
            argv += ["--outcomes", str(out / "outcomes.jsonl")]
        assert dispatch(argv) == 1  # backend_error fails
    assert dispatch(["eval", "--data", data, "--traces", str(out / "traces_p1.jsonl"),
                     "--json", str(out / "report.json")]) == 0
    for segment in SEGMENT_CHOICES:
        argv = ["build-dataset", "--data", data, "--teacher", script, *config, "--segment", segment,
                "--out", str(out / ("pairs_%s.jsonl" % segment))]
        if segment == "full":
            argv += ["--candidates", str(out / "candidates.jsonl")]
        assert dispatch(argv) == 1  # backend_error fails
    dump_instances(load_instances(data), str(out / "instances_reloaded.jsonl"))
    write_script(load_script(str(inputs / "script.jsonl")), str(out / "script_reloaded.jsonl"))
    write_traces([(None, t) for t in load_traces(str(out / "traces_p1.jsonl"))],
                 str(out / "traces_reloaded.jsonl"))


# output file -> the golden file it must equal
EXPECTED = {
    "traces_p1.jsonl": "traces.jsonl",
    "traces_p8.jsonl": "traces.jsonl",
    "traces_reloaded.jsonl": "traces.jsonl",
    "outcomes.jsonl": "outcomes.jsonl",
    "report.json": "report.json",
    "candidates.jsonl": "candidates.jsonl",
    **{"pairs_%s.jsonl" % s: "pairs_%s.jsonl" % s for s in SEGMENT_CHOICES},
    "instances_reloaded.jsonl": "instances.jsonl",
    "script_reloaded.jsonl": "script.jsonl",
}


def _changed_lines(old: str, new: str) -> int:
    """How many lines were replaced, added or removed between two versions of a file."""
    matcher = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(), autojunk=False)
    return sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal")


def regenerate() -> None:
    """Record the inputs, write every golden file afresh, and print which files changed."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    before = {path.name: path.read_text("utf-8") for path in GOLDEN.iterdir()}
    instances = [case.instance for case in ALL_CASES] + list(EXTRA_INSTANCES)
    dump_instances(instances, str(GOLDEN / "instances.jsonl"))
    (GOLDEN / "run.cfg").write_text("include_demo=false\n", encoding="utf-8")
    recorder = RecordingBackend(ScriptedModel(RESPONSES))
    run_batch(instances, recorder, load_run_config(str(GOLDEN / "run.cfg")))
    recorder.write_script(str(GOLDEN / "script.jsonl"))
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(GOLDEN, Path(tmp))
        for produced, golden in EXPECTED.items():
            if golden not in ("instances.jsonl", "script.jsonl"):
                shutil.copyfile(Path(tmp) / produced, GOLDEN / golden)
    unchanged = []
    for path in sorted(GOLDEN.iterdir()):
        old, new = before.get(path.name, ""), path.read_text("utf-8")
        if path.name in before and old == new:
            unchanged.append(path.name)
        else:
            print("rewrote golden/%s: %d lines changed" % (path.name, _changed_lines(old, new)))
    print("unchanged: %s" % (", ".join(unchanged) or "none"))


def _first_difference(produced: str, golden: str, want: str, got: str) -> str:
    """A unified diff of the first line that differs, split at JSON member boundaries."""
    want_lines, got_lines = want.split("\n"), got.split("\n")
    for i, (a, b) in enumerate(zip(want_lines, got_lines)):
        if a != b:
            break
    else:
        return "%s: %d lines written, %d in golden/%s" % (
            produced, len(got_lines), len(want_lines), golden)
    split = re.compile(r'(?<=,) (?=")')
    diff = difflib.unified_diff(split.split(a), split.split(b), "golden/%s:%d" % (golden, i + 1),
                                "%s:%d" % (produced, i + 1), lineterm="", n=1)
    return "\n".join(list(diff)[:40])


def test_every_output_file_matches_its_golden_copy(tmp_path, capsys):
    run_cli(GOLDEN, tmp_path)
    capsys.readouterr()
    mismatches = []
    for produced, golden in EXPECTED.items():
        want = (GOLDEN / golden).read_bytes().decode("utf-8")
        got = (tmp_path / produced).read_bytes().decode("utf-8")
        if got != want:
            mismatches.append(_first_difference(produced, golden, want, got))
    assert not mismatches, "%d of %d files differ; the first:\n%s" % (
        len(mismatches), len(EXPECTED), mismatches[0])


if __name__ == "__main__":
    regenerate()
