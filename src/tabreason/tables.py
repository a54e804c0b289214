"""Table model, prompt serialization and the JSONL instance format.

A table arrives as JSON (``headers``, ``rows`` and optional ``page_title``,
``section_title`` and ``caption``) and reaches the model as a text grid:
the metadata lines, then one line per row with cells separated by ``|``.
This module owns that serialization, the splitting of such grid lines back
into cells, the token-budget truncation used before prompting, and the
numeric coercion rule shared by the SQL engine and the answer evaluator.
It owns the verification label sets too, and :func:`match_label`, the one
``casefold`` label comparison that loading, extraction and scoring share.

A table is held as the grid text the model sees.  ``Table`` trims every
header and cell to a plain ``str``, whatever builds it, and then renders
and escapes its rows once: :class:`GridRows` keeps the row lines joined by
``\n`` and the offset where each line ends.  A prompt adds the metadata and
header lines to that text, and truncation is one bisection over the
offsets.  Rows are split back out of the text when they are read.  Only the
copy :func:`working_copy` makes for one run keeps what it split, so the SQL
loop splits a table once; a loaded table never holds row tuples.

A literal pipe inside a cell is escaped as ``\\|`` in serialized form and
unescaped by :func:`split_pipe_line`, so a serialized line splits back into
its cells exactly.  The strings ``""`` and ``"-"`` both mean "empty cell";
the dash is preserved verbatim when re-serializing.
"""

from __future__ import annotations

import collections.abc
import copy
import math
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .jsonl import read_jsonl, require, to_fields, write_jsonl

EMPTY_MARKERS = ("", "-")

TASK_SHORT_QA = "short_qa"
TASK_FACT_VERIFICATION = "fact_verification"
TASK_FREE_QA = "free_qa"
KNOWN_TASKS = (TASK_SHORT_QA, TASK_FACT_VERIFICATION, TASK_FREE_QA)

LABELS_BINARY: Tuple[str, ...] = ("true", "false")
LABELS_THREEWAY: Tuple[str, ...] = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")


def match_label(text: str, labels: Sequence[str]) -> Optional[str]:
    """The one of ``labels`` that ``text`` equals under ``casefold``, as written there; else ``None``."""
    folded = text.casefold()
    return next((label for label in labels if label.casefold() == folded), None)


class BudgetTooSmall(ValueError):
    """Raised when even the metadata and header exceed the token budget."""


@dataclass(frozen=True)
class SentenceContext:
    """A supporting sentence, optionally titled."""

    text: str
    title: Optional[str] = None


@dataclass(frozen=True)
class GoldAnswer:
    """Reference answer: a non-empty list of non-blank strings for QA, or a label for verification.

    Each value is read as text, and a label is trimmed, as table cells are,
    so its family and its score read the same text.
    """

    answers: Optional[Tuple[str, ...]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.answers is None) == (self.label is None):
            raise ValueError("gold must carry exactly one of answers or label")
        if self.answers is not None:
            object.__setattr__(self, "answers", tuple(map(str, self.answers)))
            if not self.answers:
                raise ValueError("gold answers must not be empty")
            if not all(map(str.strip, self.answers)):
                raise ValueError("gold answers must not be blank")
        else:
            object.__setattr__(self, "label", str(self.label).strip())
            if not self.label:
                raise ValueError("gold label must not be blank")

    @property
    def as_text(self) -> str:
        """The gold answer as one line of text, as drop reasons and the judge show it."""
        return self.label or "; ".join(self.answers or ())


class GridRows(collections.abc.Sequence):
    """A table's rows, held as the grid lines a prompt shows them in.

    ``text`` is the row lines joined by ``"\\n"`` and ``ends[i]`` the offset
    where line ``i`` ends.  The rows read as tuples of cells, split out of
    the text on each read unless ``keep`` is set, in which case the first
    read's tuples are kept.  Equal texts are equal rows.
    """

    __slots__ = ("text", "ends", "_keep", "_split")

    def __init__(self, text: str, ends: array, keep: bool = False) -> None:
        self.text, self.ends, self._keep = text, ends, keep
        self._split: Optional[Tuple[Tuple[str, ...], ...]] = None

    def _rows(self) -> Tuple[Tuple[str, ...], ...]:
        rows = self._split or _split_rows(self.text, self.ends)
        if self._keep:
            self._split = rows
        return rows

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        return iter(self._rows())

    def __getitem__(self, index):
        return self._rows()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GridRows):
            return self.text == other.text
        return self._rows() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return repr(self._rows())


def _render(rows: List[Tuple[str, ...]], width: int) -> GridRows:
    """The grid lines of trimmed ``rows``, each cell pipe escaped."""
    lines = list(map("| {} |".format, map(" | ".join, rows)))
    text = "\n".join(lines)
    # Each line holds width + 1 pipes; any other pipe is inside a cell.
    if text.count("|") != len(rows) * (width + 1):
        lines = list(map(_format_grid_line, rows))
        text = "\n".join(lines)
    ends = accumulate(map((1).__add__, map(len, lines)), initial=-1)
    return GridRows(text, array("q", islice(ends, 1, None)))


def _split_rows(text: str, ends: Sequence[int]) -> Tuple[Tuple[str, ...], ...]:
    """The cells of each grid line in ``text``, which ends where ``ends`` say."""
    # Without a backslash no cell holds a pipe, and with one line break per
    # row boundary none holds a newline: the separators split it exactly.
    if "\\" not in text and text.count("\n") == len(ends) - 1:
        lines = text[2:-2].split(" |\n| ")
        return tuple(map(tuple, map(str.split, lines, repeat(" | "))))
    starts = chain((0,), map((1).__add__, ends))
    return tuple(tuple(split_pipe_line(text[a:b])) for a, b in zip(starts, ends))


@dataclass(frozen=True)
class Table:
    """An immutable rectangular grid of trimmed strings, with optional metadata.

    ``rows`` may be given as any sequence of rows as wide as ``headers``;
    the table keeps them rendered, as :class:`GridRows`.
    """

    headers: Tuple[str, ...]
    rows: GridRows
    page_title: Optional[str] = None
    section_title: Optional[str] = None
    caption: Optional[str] = None

    def __post_init__(self) -> None:
        headers, rows = tuple(self.headers), tuple(self.rows)
        if not headers:
            raise ValueError("table needs at least one column")
        width = len(headers)
        if not all(map(width.__eq__, map(len, rows))):
            i, row = next((i, row) for i, row in enumerate(rows) if len(row) != width)
            raise ValueError("row %d has %d cells, expected %d" % (i, len(row), width))
        # One pass over the header and every row, regrouped by width.
        cells = map(str.strip, map(str, chain(headers, *rows)))
        grid = zip(*[cells] * width)
        object.__setattr__(self, "headers", next(grid))
        object.__setattr__(self, "rows", _render(list(grid), width))

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def working_copy(table: Table) -> Table:
    """A copy of ``table`` for one run: it keeps its rows once they are split."""
    own = copy.copy(table)
    object.__setattr__(own, "rows", GridRows(table.rows.text, table.rows.ends, keep=True))
    return own


@dataclass(frozen=True)
class Instance:
    """One task item grounded in a table; its gold is a label for verification, answers otherwise."""

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
        wanted = "label" if self.task == TASK_FACT_VERIFICATION else "answers"
        if self.gold is not None and getattr(self.gold, wanted) is None:
            raise ValueError("a %s gold must carry %r" % (self.task, wanted))
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if wanted == "answers":
                raise ValueError("a %s instance takes no labels" % self.task)
        family = self.label_family
        if wanted == "label" and family is None:
            raise ValueError("labels %r match neither %s nor %s"
                             % (list(self.labels), "/".join(LABELS_BINARY), "/".join(LABELS_THREEWAY)))
        if family and self.gold is not None and match_label(self.gold.label, family) is None:
            raise ValueError("gold label %r is not one of %s"
                             % (self.gold.label, "/".join(self.labels or family)))

    @property
    def label_family(self) -> Optional[Tuple[str, ...]]:
        """The labels a verification gold must be one of: the set ``labels`` name under :func:`match_label`,
        else binary for a true/false gold and three-way otherwise.  ``None`` for QA or unmatched labels."""
        if self.task != TASK_FACT_VERIFICATION:
            return None
        if self.labels is not None:
            return next((f for f in (LABELS_BINARY, LABELS_THREEWAY)
                         if {match_label(label, f) for label in self.labels} == set(f)), None)
        binary = self.gold is not None and match_label(self.gold.label, LABELS_BINARY) is not None
        return LABELS_BINARY if binary else LABELS_THREEWAY


# ---------------------------------------------------------------------------
# grid lines


_SEPARATOR = re.compile(r"(?<!\\)\|")  # a pipe no backslash escapes


def split_pipe_line(line: str) -> List[str]:
    """Split a grid line on unescaped pipes, honouring ``\\|`` escapes."""
    if "\\" not in line:
        cells = line.split("|")
    else:
        cells = [c.replace("\\|", "|") for c in _SEPARATOR.split(line)]
    # Leading/trailing pipes produce empty boundary fields; drop them so that
    # "| a | b |" and "a | b" both yield two cells.
    if len(cells) > 1 and line.lstrip().startswith("|") and cells[0].strip() == "":
        cells = cells[1:]
    if len(cells) > 1 and line.rstrip().endswith("|") and cells[-1].strip() == "":
        cells = cells[:-1]
    return [c.strip() for c in cells]


def serialize_for_prompt(table: Table) -> str:
    """Render a table in the canonical prompt format.

    Metadata lines come first when present, then the header row, then data
    rows, all pipe-separated with single-space padding.
    """
    head = _head(table)
    return head + "\n" + table.rows.text if table.n_rows else head


def _head(table: Table) -> str:
    """The metadata lines and the header row: what truncation never drops."""
    lines: List[str] = []
    if table.page_title:
        lines.append("Page Title: %s" % table.page_title)
    if table.section_title:
        lines.append("Section title: %s" % table.section_title)
    if table.caption:
        lines.append("Caption: %s" % table.caption)
    lines.append(_format_grid_line(table.headers))
    return "\n".join(lines)


def _format_grid_line(values: Sequence[str]) -> str:
    line = " | ".join(values)
    # More pipes than separators means some cell holds one and needs escaping.
    if line.count("|") > len(values) - 1:
        line = " | ".join([v.replace("|", "\\|") for v in values])
    return "| " + line + " |"


# ---------------------------------------------------------------------------
# token budgeting


def estimate_tokens(text: str) -> int:
    """Cheap token-count proxy: one token per four characters, rounded up."""
    return (len(text) + 3) // 4


def truncate_to_budget(table: Table, budget: int) -> Table:
    """Drop trailing rows until the serialized table fits the token budget.

    Header and metadata are never dropped; if they alone do not fit under
    ``budget``, :class:`BudgetTooSmall` is raised.  The kept rows are always
    a prefix of the original rows.
    """
    head = _head(table)
    if estimate_tokens(head) >= budget:
        raise BudgetTooSmall(
            "budget %d cannot hold metadata and header (%d tokens)"
            % (budget, estimate_tokens(head))
        )
    # A row fits while the text up to it stays within 4 * budget characters:
    # the head, a line break and the rows' text up to that row's end.
    rows = table.rows
    kept = bisect_right(rows.ends, 4 * budget - len(head) - 1)
    if kept == len(rows):
        return table
    text = rows.text[: rows.ends[kept - 1]] if kept else ""
    cut = copy.copy(table)
    object.__setattr__(cut, "rows", GridRows(text, rows.ends[:kept]))
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


_METADATA = ("page_title", "section_title", "caption")


def table_to_dict(table: Table) -> Dict[str, object]:
    out = {name: getattr(table, name) for name in _METADATA if getattr(table, name) is not None}
    out["headers"] = list(table.headers)
    out["rows"] = [list(row) for row in table.rows]
    return out


def table_from_dict(data: Dict[str, object]) -> Table:
    """Build a table from its JSON form; a wrongly shaped value raises ``ValueError``."""
    require(data, dict, "table", "JSON object")
    headers = data.get("headers")
    rows = data.get("rows", [])
    require(headers, (list, tuple), "table headers", "list")
    require(rows, (list, tuple), "table rows", "list")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            require(row, (list, tuple), "table row %d" % i, "list")
    return Table(headers=headers, rows=rows, **{name: data.get(name) for name in _METADATA})


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
        out["gold"] = {k: v for k, v in to_fields(instance.gold).items() if v is not None}
    if instance.labels is not None:
        out["labels"] = list(instance.labels)
    if instance.tags:
        out["tags"] = dict(instance.tags)
    return out


def instance_from_dict(data: Dict[str, object]) -> Instance:
    """Build an instance from its JSON form; a wrongly shaped value raises ``ValueError``."""
    require(data, dict, "instance", "JSON object")
    gold = data.get("gold")
    if gold is not None:
        require(gold, dict, "gold", "JSON object")
        if gold.get("answers") is not None:
            require(gold["answers"], (list, tuple), "gold answers", "list")
        gold = GoldAnswer(answers=gold.get("answers"), label=gold.get("label"))
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
        table=table_from_dict(data["table"]),
        sentences=tuple(
            SentenceContext(text=str(s["text"]), title=s.get("title")) for s in sentences
        ),
        gold=gold,
        tags=dict(tags),
        labels=tuple(str(l) for l in labels) if labels is not None else None,
    )


def load_instances(path: str) -> List[Instance]:
    """Read instances from a JSONL file, one object per line; no id may repeat."""
    ids = set()

    def parse(data: Dict[str, object]) -> Instance:
        instance = instance_from_dict(data)
        if instance.id in ids:
            raise ValueError("duplicate instance id %r" % instance.id)
        ids.add(instance.id)
        return instance

    return read_jsonl(path, parse, "instance")


def dump_instances(instances: Iterable[Instance], path: str) -> None:
    write_jsonl(path, (instance_to_dict(inst) for inst in instances))
