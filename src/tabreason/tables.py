"""Table model, prompt serialization and the JSONL instance format.

A table arrives as JSON (``headers``, ``rows`` and optional ``page_title``,
``section_title`` and ``caption``) and reaches the model as a text grid:
the metadata lines, then one line per row with cells separated by ``|``.
This module owns that serialization, the splitting of such grid lines back
into cells, the token-budget truncation used before prompting, and the
numeric coercion rule shared by the SQL engine and the answer evaluator.

A cell is a plain ``str`` with surrounding whitespace trimmed; ``Table``
itself does the trimming, whatever builds it.  A row is a tuple of such
strings, which the garbage collector stops tracking after its first pass.

Equal cells of one :func:`load_instances` call are one object: the load
keeps one ``dict`` from each trimmed cell to its first copy, shared by every
table and header it reads, and drops it when it returns.  Tables repeat
most of their cells (names, years, countries, ranks), so this keeps a
large file at a fraction of the memory ``json.loads`` gives it.  Tables
built any other way keep their own strings.  ``sys.intern`` is not used:
interned strings are immortal on Python 3.12, so a long-running process
would keep every cell it ever loaded.

A literal pipe inside a cell is escaped as ``\\|`` in serialized form and
unescaped by :func:`split_pipe_line`, so a serialized line splits back into
its cells exactly.  The strings ``""`` and ``"-"`` both mean "empty cell";
the dash is preserved verbatim when re-serializing.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from itertools import accumulate, chain, repeat
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .jsonl import read_jsonl, require, write_jsonl

EMPTY_MARKERS = ("", "-")

TASK_SHORT_QA = "short_qa"
TASK_FACT_VERIFICATION = "fact_verification"
TASK_FREE_QA = "free_qa"
KNOWN_TASKS = (TASK_SHORT_QA, TASK_FACT_VERIFICATION, TASK_FREE_QA)


class BudgetTooSmall(ValueError):
    """Raised when even the metadata and header exceed the token budget."""


@dataclass(frozen=True)
class SentenceContext:
    """A supporting sentence, optionally titled."""

    text: str
    title: Optional[str] = None


@dataclass(frozen=True)
class GoldAnswer:
    """Reference answer: a list of strings for QA, or a label for verification."""

    answers: Optional[Tuple[str, ...]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.answers is None) == (self.label is None):
            raise ValueError("gold must carry exactly one of answers or label")
        if self.answers is not None:
            object.__setattr__(self, "answers", tuple(self.answers))


@dataclass(frozen=True)
class Table:
    """An immutable rectangular grid of trimmed strings, with optional metadata.

    ``memo`` is not a field: given a dict, each trimmed header and cell is
    replaced by the first equal string the dict has seen (see the module
    docstring).
    """

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    page_title: Optional[str] = None
    section_title: Optional[str] = None
    caption: Optional[str] = None
    memo: InitVar[Optional[Dict[str, str]]] = None

    def __post_init__(self, memo: Optional[Dict[str, str]]) -> None:
        if not self.headers:
            raise ValueError("table needs at least one column")
        headers, rows = tuple(self.headers), tuple(self.rows)
        width = len(headers)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    "row %d has %d cells, expected %d" % (i, len(row), width)
                )
        # One pass over the header and every row, regrouped by width.
        cells = [str(c).strip() for c in chain(headers, *rows)]
        if memo is not None:
            cells = map(memo.setdefault, cells, cells)
        grid = zip(*[iter(cells)] * width)
        object.__setattr__(self, "headers", next(grid))
        object.__setattr__(self, "rows", tuple(grid))

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Instance:
    """One task item: a question or claim grounded in a table."""

    id: str
    task: str
    query: str
    table: Table
    sentences: Tuple[SentenceContext, ...] = ()
    gold: Optional[GoldAnswer] = None
    tags: Dict[str, object] = field(default_factory=dict)
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.task not in KNOWN_TASKS:
            raise ValueError("unknown task %r" % (self.task,))
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))


# ---------------------------------------------------------------------------
# grid lines


def _escape_cell(text: str) -> str:
    return text.replace("|", "\\|")


def split_pipe_line(line: str) -> List[str]:
    """Split a grid line on unescaped pipes, honouring ``\\|`` escapes."""
    if "\\" not in line:
        cells = line.split("|")
    else:
        cells = []
        buf: List[str] = []
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch == "\\" and i + 1 < n and line[i + 1] == "|":
                buf.append("|")
                i += 2
                continue
            if ch == "|":
                cells.append("".join(buf))
                buf = []
                i += 1
                continue
            buf.append(ch)
            i += 1
        cells.append("".join(buf))
    # Leading/trailing pipes produce empty boundary fields; drop them so that
    # "| a | b |" and "a | b" both yield two cells.
    if len(cells) > 1 and line.lstrip().startswith("|") and cells[0].strip() == "":
        cells = cells[1:]
    if len(cells) > 1 and _ends_with_unescaped_pipe(line) and cells[-1].strip() == "":
        cells = cells[:-1]
    return [c.strip() for c in cells]


def _ends_with_unescaped_pipe(line: str) -> bool:
    stripped = line.rstrip()
    if not stripped.endswith("|"):
        return False
    backslashes = 0
    for ch in reversed(stripped[:-1]):
        if ch == "\\":
            backslashes += 1
        else:
            break
    return backslashes % 2 == 0


def serialize_for_prompt(table: Table) -> str:
    """Render a table in the canonical prompt format.

    Metadata lines come first when present, then the header row, then data
    rows, all pipe-separated with single-space padding.
    """
    head = "\n".join(_head_lines(table))
    rows = table.rows
    if not rows:
        return head
    body = " |\n| ".join(map(" | ".join, rows))
    # Each row holds width - 1 separator pipes and each line break two more;
    # any other pipe is inside a cell, which then needs escaping.
    if body.count("|") != len(rows) * (len(table.headers) + 1) - 2:
        return head + "\n" + "\n".join(map(_format_grid_line, rows))
    return head + "\n| " + body + " |"


def _head_lines(table: Table) -> List[str]:
    """The metadata lines and the header row: what truncation never drops."""
    lines: List[str] = []
    if table.page_title:
        lines.append("Page Title: %s" % table.page_title)
    if table.section_title:
        lines.append("Section title: %s" % table.section_title)
    if table.caption:
        lines.append("Caption: %s" % table.caption)
    lines.append(_format_grid_line(table.headers))
    return lines


def _format_grid_line(values: Sequence[str]) -> str:
    line = " | ".join(values)
    # More pipes than separators means some cell holds one and needs escaping.
    if line.count("|") > len(values) - 1:
        line = " | ".join([_escape_cell(v) for v in values])
    return "| " + line + " |"


# ---------------------------------------------------------------------------
# token budgeting


def estimate_tokens(text: str) -> int:
    """Cheap token-count proxy: one token per four characters, rounded up."""
    return (len(text) + 3) // 4


# Rows measured per step by truncate_to_budget; most kept prefixes fit in one.
_TRUNCATE_CHUNK = 256


def truncate_to_budget(table: Table, budget: int) -> Table:
    """Drop trailing rows until the serialized table fits the token budget.

    Header and metadata are never dropped; if they alone do not fit under
    ``budget``, :class:`BudgetTooSmall` is raised.  The kept rows are always
    a prefix of the original rows.
    """
    base = "\n".join(_head_lines(table))
    if estimate_tokens(base) >= budget:
        raise BudgetTooSmall(
            "budget %d cannot hold metadata and header (%d tokens)"
            % (budget, estimate_tokens(base))
        )
    # A row fits while the text up to it stays within 4 * budget characters.
    # It costs a line break, "| " and " |", its joined cells and one
    # backslash for each pipe inside a cell (pipes beyond its width - 1
    # separators).
    limit = 4 * budget
    per_row = 6 - len(table.headers)
    total = len(base)
    kept = 0
    rows = table.rows
    for at in range(0, len(rows), _TRUNCATE_CHUNK):
        joined = list(map(" | ".join, rows[at : at + _TRUNCATE_CHUNK]))
        costs = map(add, map(len, joined), map(str.count, joined, repeat("|")))
        ends = list(accumulate(map(add, costs, repeat(per_row)), initial=total))
        fit = bisect_right(ends, limit) - 1
        kept += fit
        if fit < len(joined):
            break
        total = ends[-1]
    if kept == table.n_rows:
        return table
    # The kept rows are already normalised; share them instead of rebuilding.
    cut = copy.copy(table)
    object.__setattr__(cut, "rows", table.rows[:kept])
    return cut


# ---------------------------------------------------------------------------
# numeric coercion


_NUMBER_RE = re.compile(r"^(?:\d+\.?\d*|\.\d+)$")


def cell_as_number(value: Optional[str]) -> Optional[float]:
    """Coerce a cell to a float, or return ``None``.

    Strips thousands commas and a leading sign; a trailing ``%`` divides the
    value by 100.  Anything else that is not a plain decimal literal (dates,
    times, ranges, text) yields ``None``.
    """
    if value is None:
        return None
    # Shortcuts for the commonest cells, each giving what the full rule
    # gives: plain ASCII digits, and text led by a letter (never a number).
    if value.isdigit() and value.isascii():
        return float(value)
    text = value.strip()
    if text in EMPTY_MARKERS or text[0].isalpha():
        return None
    percent = text.endswith("%")
    if percent:
        text = text[:-1].strip()
    text = text.replace(",", "")
    sign = 1.0
    if text[:1] in ("+", "-"):
        sign = -1.0 if text[0] == "-" else 1.0
        text = text[1:]
    if not _NUMBER_RE.match(text):
        return None
    number = sign * float(text)
    if percent:
        number /= 100.0
    return number


def format_number(value: float) -> str:
    """Render a float the way cells print: integers without a decimal point."""
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# instance (de)serialization


def table_to_dict(table: Table) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if table.page_title is not None:
        out["page_title"] = table.page_title
    if table.section_title is not None:
        out["section_title"] = table.section_title
    if table.caption is not None:
        out["caption"] = table.caption
    out["headers"] = list(table.headers)
    out["rows"] = [list(row) for row in table.rows]
    return out


def table_from_dict(data: Dict[str, object], memo: Optional[Dict[str, str]] = None) -> Table:
    """Build a table from its JSON form; a wrongly shaped value raises ``ValueError``.

    ``memo`` is passed on to :class:`Table`.
    """
    require(data, dict, "table", "JSON object")
    headers = data.get("headers")
    rows = data.get("rows", [])
    require(headers, (list, tuple), "table headers", "list")
    require(rows, (list, tuple), "table rows", "list")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            require(row, (list, tuple), "table row %d" % i, "list")
    return Table(
        headers=headers,
        rows=rows,
        page_title=data.get("page_title"),
        section_title=data.get("section_title"),
        caption=data.get("caption"),
        memo=memo,
    )


def instance_to_dict(instance: Instance) -> Dict[str, object]:
    out: Dict[str, object] = {
        "id": instance.id,
        "task": instance.task,
        "query": instance.query,
        "table": table_to_dict(instance.table),
    }
    if instance.sentences:
        out["sentences"] = [
            {"text": s.text} if s.title is None else {"title": s.title, "text": s.text}
            for s in instance.sentences
        ]
    if instance.gold is not None:
        if instance.gold.answers is not None:
            out["gold"] = {"answers": list(instance.gold.answers)}
        else:
            out["gold"] = {"label": instance.gold.label}
    if instance.labels is not None:
        out["labels"] = list(instance.labels)
    if instance.tags:
        out["tags"] = dict(instance.tags)
    return out


def instance_from_dict(data: Dict[str, object], memo: Optional[Dict[str, str]] = None) -> Instance:
    """Build an instance from its JSON form; a wrongly shaped value raises ``ValueError``.

    ``memo`` is passed on to :class:`Table`.
    """
    require(data, dict, "instance", "JSON object")
    gold = None
    g = data.get("gold")
    if g is not None:
        require(g, dict, "gold", "JSON object")
        if "answers" in g:
            require(g["answers"], (list, tuple), "gold answers", "list")
            gold = GoldAnswer(answers=tuple(str(a) for a in g["answers"]))
        elif "label" in g:
            gold = GoldAnswer(label=str(g["label"]))
        else:
            raise ValueError("gold must carry answers or label")
    sentences = data.get("sentences", [])
    for i, s in enumerate(sentences):
        require(s, dict, "sentence %d" % i, "JSON object")
    labels = data.get("labels")
    if labels is not None:
        require(labels, (list, tuple), "labels", "list")
    tags = data.get("tags", {})
    require(tags, dict, "tags", "JSON object")
    return Instance(
        id=str(data["id"]),
        task=str(data["task"]),
        query=str(data["query"]),
        table=table_from_dict(data["table"], memo),
        sentences=tuple(
            SentenceContext(text=str(s["text"]), title=s.get("title")) for s in sentences
        ),
        gold=gold,
        tags=dict(tags),
        labels=tuple(str(l) for l in labels) if labels is not None else None,
    )


def load_instances(path: str) -> List[Instance]:
    """Read instances from a JSONL file, one object per line.

    Equal headers and cells across the whole file are one object each.
    """
    memo: Dict[str, str] = {}
    return read_jsonl(path, functools.partial(instance_from_dict, memo=memo), "instance")


def dump_instances(instances: Iterable[Instance], path: str) -> None:
    write_jsonl(path, (instance_to_dict(inst) for inst in instances))
