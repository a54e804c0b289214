"""Segmentation and answer extraction for model generations.

A generation may embed SQL in two shapes: a fenced block opened by a line
starting with ```` ```sql ```` and closed by the next line starting with
```` ``` ```` (an opener that meets another ```` ```sql ```` line first is
never closed, so it is prose), or a bare ``SQL:`` line followed by
statement lines.  Either shape may be followed by a result-marker line
(``Executed result:``, ``Expected Result:``, matched case-insensitively)
introducing the result the model claims the query produces.

Segmentation is lossless: the prefix text, the raw text of each detected
block, and the suffix text concatenate back to the original string,
byte for byte.  That property is what lets the pipeline cut a generation at
a result marker, splice in the real execution output, and ask the model to
continue from there.

Scanning only moves forward: whether a line opens a block, and where that
block ends, depends on that line and the lines after it, never on earlier
text.  So segmenting from the start of block k yields the whole text's
blocks k.. with every offset shifted by that start, which lets the loop
scan each round from the last block it resumed after instead of from the
top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add
from typing import List, NamedTuple, Optional, Sequence, Tuple

DEFAULT_RESULT_MARKERS: Tuple[str, ...] = (
    "Executed result:",
    "Expected Result:",
    "Expected result:",
)

_NUMBERED_HEADING_RE = re.compile(r"^\s*(?:\*\*)?\s*\d+\s*[.)]")
_TEXTBF_RE = re.compile(r"\\text(?:bf|it|tt)?\{([^{}]*)\}")
_FINAL_ANSWER_RE = re.compile(r"the final answer is[:\s]\s*(.+)$", re.IGNORECASE)
_ANSWER_SEPARATOR_RE = re.compile(r"\s*,\s*|\s+and\s+")
# The comma of "<Month> <day>, <year>" is part of the date, not a separator.
_DATE_COMMA_RE = re.compile(
    r"\b(?:January|February|March|April|May|June|July|August|September|October"
    r"|November|December)\s+\d{1,2}(\s*,\s*)\d{4}\b",
    re.IGNORECASE,
)

ANSWER_KINDS = ("short", "label", "free", "missing")

LABELS_BINARY: Tuple[str, ...] = ("true", "false")
LABELS_THREEWAY: Tuple[str, ...] = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")


@dataclass(frozen=True)
class SqlBlock:
    """One detected SQL region inside a generation."""

    sql_text: str
    claimed_result: Optional[str]
    span: Tuple[int, int]
    text: str = field(repr=False)
    marker_end: Optional[int] = None
    sql_end: int = 0


@dataclass(frozen=True)
class ResponseSegments:
    prefix_text: str
    sql_blocks: Tuple[SqlBlock, ...]
    suffix_text: str

    def reassemble(self) -> str:
        return self.prefix_text + "".join(b.text for b in self.sql_blocks) + self.suffix_text


@dataclass(frozen=True)
class FinalAnswer:
    """The answer pulled from a generation's concluding lines."""

    kind: str  # one of ANSWER_KINDS
    answers: Tuple[str, ...] = ()
    label: Optional[str] = None
    text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ANSWER_KINDS:
            raise ValueError("kind must be one of %s, got %r" % (ANSWER_KINDS, self.kind))

    @classmethod
    def missing(cls) -> "FinalAnswer":
        return cls(kind="missing")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "short":
            out["answers"] = list(self.answers)
        elif self.kind == "label":
            out["label"] = self.label
        elif self.kind == "free":
            out["text"] = self.text
        return out



class _Lines(NamedTuple):
    """A text's lines as parallel lists, indexed by line number."""

    start: List[int]
    content_end: List[int]
    full_end: List[int]
    content: List[str]  # the line without its line break


def _split_lines(text: str) -> _Lines:
    raw = text.splitlines(keepends=True)
    content = list(map(str.rstrip, raw, repeat("\r\n", len(raw))))
    offsets = list(accumulate(map(len, raw), initial=0))
    start = offsets[:-1]
    return _Lines(start, list(map(add, start, map(len, content))), offsets[1:], content)


def _is_block_start(line: str) -> bool:
    stripped = line.strip().lower()
    return stripped.startswith("```sql") or stripped == "sql:"


def segment_response(
    text: str, markers: Sequence[str] = DEFAULT_RESULT_MARKERS
) -> ResponseSegments:
    """Split a generation into prose and SQL blocks without losing a byte."""
    lines = _split_lines(text)
    marker_set = {m.lower() for m in markers}
    found: List[dict] = []
    i = 0
    n = len(lines.content)
    while i < n:
        stripped = lines.content[i].strip()
        low = stripped.lower()
        if low.startswith("```sql"):
            parsed = _scan_fenced_block(text, lines, i, marker_set)
            if parsed is None:
                i += 1
                continue
            found.append(parsed)
            i = parsed.pop("next_line")
            continue
        if low == "sql:":
            parsed = _scan_labeled_block(text, lines, i, marker_set)
            if parsed is None:
                i += 1
                continue
            found.append(parsed)
            i = parsed.pop("next_line")
            continue
        i += 1

    if not found:
        return ResponseSegments(prefix_text=text, sql_blocks=(), suffix_text="")

    blocks: List[SqlBlock] = []
    for idx, info in enumerate(found):
        start = info["start"]
        if idx + 1 < len(found):
            end = found[idx + 1]["start"]
        else:
            end = info["end"]
        blocks.append(
            SqlBlock(
                sql_text=info["sql_text"],
                claimed_result=info["claimed"],
                span=(start, end),
                text=text[start:end],
                marker_end=info["marker_end"],
                sql_end=info["sql_end"],
            )
        )
    prefix = text[: blocks[0].span[0]]
    suffix = text[blocks[-1].span[1]:]
    return ResponseSegments(
        prefix_text=prefix, sql_blocks=tuple(blocks), suffix_text=suffix
    )


def _scan_fenced_block(
    text: str, lines: _Lines, open_i: int, marker_set: set
) -> Optional[dict]:
    n = len(lines.content)
    close_i = None
    for j in range(open_i + 1, n):
        fence = lines.content[j].strip()
        if fence.startswith("```"):
            # A later opener means nothing closes this one.
            if fence.lower().startswith("```sql"):
                return None
            close_i = j
            break
    if close_i is None:
        return None
    sql_text = "\n".join(lines.content[open_i + 1 : close_i]).strip()
    sql_end = lines.content_end[close_i]
    end = lines.full_end[close_i]
    next_line = close_i + 1

    marker_end: Optional[int] = None
    marker_line: Optional[int] = None
    # The closing fence line may carry the marker itself ("```Expected Result:").
    fence_rest = lines.content[close_i].strip()[3:].strip()
    if fence_rest and fence_rest.lower() in marker_set:
        marker_line = close_i
        marker_end = lines.content_end[close_i]
    elif not fence_rest:
        probe = close_i + 1
        while probe < n and not lines.content[probe].strip():
            probe += 1
        if probe < n and lines.content[probe].strip().lower() in marker_set:
            marker_line = probe
            marker_end = lines.content_end[probe]

    claimed = None
    if marker_line is not None:
        claimed, end, next_line = _scan_claimed(text, lines, marker_line, marker_set)
    return {
        "start": lines.start[open_i],
        "end": end,
        "next_line": next_line,
        "sql_text": sql_text,
        "sql_end": sql_end,
        "marker_end": marker_end,
        "claimed": claimed,
    }


def _scan_labeled_block(
    text: str, lines: _Lines, label_i: int, marker_set: set
) -> Optional[dict]:
    n = len(lines.content)
    stmt: List[int] = []
    j = label_i + 1
    while j < n:
        stripped = lines.content[j].strip()
        if (
            not stripped
            or stripped.lower() in marker_set
            or _is_block_start(lines.content[j])
            or stripped.startswith("```")
            or _NUMBERED_HEADING_RE.match(lines.content[j])
        ):
            break
        stmt.append(j)
        j += 1
    if not stmt:
        return None
    sql_text = "\n".join([lines.content[k] for k in stmt]).strip()
    sql_end = lines.content_end[stmt[-1]]
    end = lines.full_end[stmt[-1]]
    next_line = stmt[-1] + 1

    probe = stmt[-1] + 1
    while probe < n and not lines.content[probe].strip():
        probe += 1
    marker_end: Optional[int] = None
    claimed = None
    if probe < n and lines.content[probe].strip().lower() in marker_set:
        marker_end = lines.content_end[probe]
        claimed, end, next_line = _scan_claimed(text, lines, probe, marker_set)
    return {
        "start": lines.start[label_i],
        "end": end,
        "next_line": next_line,
        "sql_text": sql_text,
        "sql_end": sql_end,
        "marker_end": marker_end,
        "claimed": claimed,
    }


def _scan_claimed(
    text: str, lines: _Lines, marker_i: int, marker_set: set
) -> Tuple[Optional[str], int, int]:
    """Collect the claimed-result text that follows a marker line.

    Returns (claimed_text_or_None, span_end_offset, next_line_index).
    """
    n = len(lines.content)
    probe = marker_i + 1
    while probe < n and not lines.content[probe].strip():
        probe += 1
    if probe >= n:
        return None, lines.full_end[marker_i], marker_i + 1

    first = lines.content[probe].strip()
    if first.startswith("```") and not first.lower().startswith("```sql"):
        # Fenced claimed result: take the fence contents verbatim.
        close = None
        for k in range(probe + 1, n):
            if lines.content[k].strip().startswith("```"):
                close = k
                break
        if close is None:
            claimed = "\n".join(lines.content[probe + 1 :])
            return claimed.strip("\n") or None, lines.full_end[-1], n
        claimed = "\n".join(lines.content[probe + 1 : close])
        return claimed.strip("\n") or None, lines.full_end[close], close + 1

    if _is_block_start(lines.content[probe]) or _NUMBERED_HEADING_RE.match(
        lines.content[probe]
    ):
        return None, lines.full_end[marker_i], marker_i + 1

    collected: List[int] = []
    k = probe
    while k < n:
        stripped = lines.content[k].strip()
        if _is_block_start(lines.content[k]):
            break
        if not stripped:
            look = k + 1
            while look < n and not lines.content[look].strip():
                look += 1
            if look >= n:
                break
            if _NUMBERED_HEADING_RE.match(lines.content[look]) or _is_block_start(
                lines.content[look]
            ):
                break
            collected.append(k)
            k += 1
            continue
        collected.append(k)
        k += 1
    while collected and not lines.content[collected[-1]].strip():
        collected.pop()
    if not collected:
        return None, lines.full_end[marker_i], marker_i + 1
    claimed = "\n".join([lines.content[idx] for idx in collected])
    last = collected[-1]
    return claimed, lines.full_end[last], last + 1


def claimed_table(claimed: str) -> str:
    """The first paragraph of a claimed result: the table the block claims.

    The segmenter lets a claim run on over blank lines into prose that is
    not a heading or a new block, so only the text before the claim's first
    blank line is the result the model wrote for the block.
    """
    lines = claimed.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            return "\n".join(lines[:i])
    return claimed


def resume_prefix(
    text: str,
    block: SqlBlock,
    markers: Sequence[str] = DEFAULT_RESULT_MARKERS,
) -> str:
    """Truncate ``text`` right after ``block``'s result-marker line.

    ``block`` is one of the blocks :func:`segment_response` found in
    ``text``.  When it has no marker, the first configured marker is put on
    the line after the SQL so the caller can inject an execution result
    beneath it.  When only whitespace follows such a block (the generation
    stopped where the marker belongs), ``text`` is kept byte for byte and the
    marker goes on the next line, so the next prompt extends exactly the text
    the model decoded.
    """
    if block.marker_end is not None:
        return text[: block.marker_end]
    if not text[block.sql_end:].strip():
        return text + ("" if text.endswith("\n") else "\n") + markers[0]
    return text[: block.sql_end] + "\n" + markers[0]


# ---------------------------------------------------------------------------
# final-answer extraction


def strip_emphasis(line: str) -> str:
    line = _TEXTBF_RE.sub(r"\1", line)
    return line.replace("**", "")


def strip_decorations(text: str) -> str:
    quotes = {'"': '"', "'": "'", "`": "`", "\u201c": "\u201d", "\u2018": "\u2019"}
    prev = None
    while prev != text:
        prev = text
        text = text.strip()
        while text.endswith("."):
            text = text[:-1].rstrip()
        if len(text) >= 2 and text[0] in quotes and text.endswith(quotes[text[0]]):
            text = text[1:-1].strip()
    return text


def _label_pattern(labels: Sequence[str]) -> "re.Pattern[str]":
    ordered = sorted(labels, key=len, reverse=True)
    return re.compile(
        r"\b(?:" + "|".join(re.escape(l) for l in ordered) + r")\b", re.IGNORECASE
    )


def extract_final_answer(
    text: str,
    task: str,
    labels: Optional[Sequence[str]] = None,
) -> FinalAnswer:
    """Pull the concluding answer from a generation's last lines.

    Only the last five non-empty lines are considered; when several lines
    match, the last match wins.  Never raises: an unrecognized conclusion
    yields ``FinalAnswer.missing()``.
    """
    tail = [l for l in text.splitlines() if l.strip()][-5:]
    if task == "fact_verification":
        label_set = tuple(labels) if labels else LABELS_THREEWAY
        pattern = _label_pattern(label_set)
        hit: Optional[str] = None
        for line in tail:
            for m in pattern.finditer(strip_emphasis(line)):
                hit = m.group(0)
        if hit is None:
            return FinalAnswer.missing()
        canonical = {l.lower(): l for l in label_set}
        return FinalAnswer(kind="label", label=canonical[hit.lower()])

    found: Optional[str] = None
    for line in tail:
        for m in _FINAL_ANSWER_RE.finditer(strip_emphasis(line)):
            found = m.group(1)
    if found is None:
        return FinalAnswer.missing()
    answer = strip_decorations(found)
    if not answer:
        return FinalAnswer.missing()
    if task == "free_qa":
        return FinalAnswer(kind="free", text=answer)
    parts = [p for p in map(str.strip, _split_answers(answer)) if p]
    if not parts:
        return FinalAnswer.missing()
    return FinalAnswer(kind="short", answers=tuple(parts))


def _split_answers(answer: str) -> List[str]:
    """Split a short answer at its commas and ``and``s, keeping dates whole."""
    date_commas = {m.span(1) for m in _DATE_COMMA_RE.finditer(answer)}
    parts: List[str] = []
    start = 0
    for sep in _ANSWER_SEPARATOR_RE.finditer(answer):
        if sep.span() not in date_commas:
            parts.append(answer[start : sep.start()])
            start = sep.end()
    parts.append(answer[start:])
    return parts
