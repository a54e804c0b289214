"""Segmentation and answer extraction for model generations.

A generation may embed SQL in two shapes: a fenced block opened by a line
starting with ```` ```sql ```` and closed by the next line starting with
```` ``` ```` (an opener that meets another ```` ```sql ```` line first is
never closed, so it is prose), or a bare ``SQL:`` line followed by
statement lines.  Either shape may be followed by a result-marker line
(``Executed result:``, ``Expected Result:``, matched case-insensitively)
introducing the result the model claims the query produces.  An unfenced
claim ends at its first blank line or at the next block, whichever comes
first; what follows it is prose.  A claim may be fenced too; like an opener,
a claim fence that meets a ```` ```sql ```` line before a plain fence is
never closed, and the claim ends just before that line, which opens the next
block.

Segmentation is lossless: the prefix text, the raw text of each detected
block, and the suffix text concatenate back to the original string,
byte for byte.  That property is what lets the pipeline cut a generation at
a result marker, splice in the real execution output, and ask the model to
continue from there.

Each line's role (blank, prose, numbered heading, result marker, ``SQL:``
label, ```` ```sql ```` opener or other fence) is decided once, from that
line alone, and scans only move forward: whether a line opens a block, and
where that block ends, depends on the roles of that line and the lines
after it, never on earlier text.  So segmenting from block k's start yields
the whole text's blocks k.. with every offset shifted by that start, which
lets the loop scan each round from the last block it resumed after.

Answer extraction keeps no label set of its own: it reads a verification
answer against the labels it is given, and refuses a call without them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .tables import TASK_FACT_VERIFICATION, TASK_FREE_QA, match_label

# The shipped demonstrations write their results under the first marker,
# and every stopped call sends all of them as its stop strings.
RESULT_MARKERS: Tuple[str, ...] = (
    "Executed result:",
    "Expected Result:",
    "Expected result:",
)
_MARKER_SET = frozenset(m.lower() for m in RESULT_MARKERS)

_NUMBERED_HEADING_RE = re.compile(r"^\s*(?:\*\*)?\s*(\d+)\s*[.)]")
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


@dataclass(frozen=True)
class SqlBlock:
    """One detected SQL region inside a generation.

    Offsets are into the segmented text.  ``claim_end`` is where the text
    after the claim starts: after the closing fence of a fenced claim, after
    the last line of an unfenced one (the line before its first blank line
    or the next block).  It is None without a claim, and for a fence that is
    never closed or whose closing line carries more than the fence.
    """

    sql_text: str
    claimed_result: Optional[str]
    span: Tuple[int, int]
    text: str = field(repr=False)
    marker_end: Optional[int] = None
    sql_end: int = 0
    claim_end: Optional[int] = None


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

    @property
    def as_text(self) -> str:
        """The answer as one line of text, as drop reasons and the judge show it."""
        return self.label or self.text or ", ".join(self.answers)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "short":
            out["answers"] = list(self.answers)
        elif self.kind == "label":
            out["label"] = self.label
        elif self.kind == "free":
            out["text"] = self.text
        return out


# A line's role, which _kind decides from that line alone.
_BLANK, _PROSE, _HEADING, _MARKER, _LABEL = "blank", "prose", "heading", "marker", "label"
_OPENER, _BARE_FENCE, _MARKER_FENCE, _FENCE = "opener", "bare fence", "marker fence", "fence"
_FENCES = frozenset((_OPENER, _BARE_FENCE, _MARKER_FENCE, _FENCE))
_ROLES = _FENCES | {_BLANK, _PROSE, _HEADING, _MARKER, _LABEL}
_STARTS = frozenset((_OPENER, _LABEL))
_NOT_BLANK, _NOT_PROSE = _ROLES - {_BLANK}, _ROLES - {_PROSE}
_UNFENCED_CLAIM_ENDS = _STARTS | {_BLANK}
# A line led (after blanks) by none of these nor a digit is prose, found without case folding.
_LEADS = frozenset("`*sS" + "".join(m[0].lower() + m[0].upper() for m in RESULT_MARKERS))


def _kind(line: str) -> str:
    """The role of ``line`` (without its line break) in a generation."""
    stripped = line.strip()
    if not stripped:
        return _BLANK
    if stripped[0] not in _LEADS and not stripped[0].isdecimal():
        return _PROSE
    folded = stripped.lower()
    if folded.startswith("```sql"):
        return _OPENER
    if folded.startswith("```"):
        rest = folded[3:].strip()
        return _MARKER_FENCE if rest in _MARKER_SET else _FENCE if rest else _BARE_FENCE
    if folded in _MARKER_SET:
        return _MARKER
    if folded == "sql:":
        return _LABEL
    return _HEADING if _NUMBERED_HEADING_RE.match(stripped) else _PROSE


class _Lines(NamedTuple):
    """A text's lines as parallel lists, indexed by line number."""

    start: List[int]
    content_end: List[int]
    full_end: List[int]
    content: List[str]  # the line without its line break
    kind: List[str]  # the line's role, from _kind


def _split_lines(text: str) -> _Lines:
    raw = text.splitlines(keepends=True)
    content = list(map(str.rstrip, raw, repeat("\r\n", len(raw))))
    offsets = list(accumulate(map(len, raw), initial=0))
    start = offsets[:-1]
    ends = list(map(add, start, map(len, content)))
    return _Lines(start, ends, offsets[1:], content, list(map(_kind, content)))


def _next(lines: _Lines, i: int, roles: FrozenSet[str]) -> int:
    """The first line at or after ``i`` whose role is in ``roles``; the line count when none."""
    kind = lines.kind
    while i < len(kind) and kind[i] not in roles:
        i += 1
    return i


def _marker_after(lines: _Lines, last: int) -> Optional[int]:
    """The result-marker line of a block whose last SQL line is ``last``, if any.

    A closing fence line may carry the marker itself; one that carries
    other text leaves the block without a marker.
    """
    if lines.kind[last] in (_MARKER_FENCE, _FENCE):
        return last if lines.kind[last] == _MARKER_FENCE else None
    probe = _next(lines, last + 1, _NOT_BLANK)
    return probe if probe < len(lines.kind) and lines.kind[probe] == _MARKER else None


class _Claim(NamedTuple):
    text: Optional[str]
    last_line: int  # the block's last line
    end: Optional[int] = None


# A scanned block: its start offset, the first line after its own text, and
# the SqlBlock fields that do not wait on the next block's start.
_Scanned = Tuple[int, int, Dict[str, object]]


def segment_response(text: str) -> ResponseSegments:
    """Split a generation into prose and SQL blocks without losing a byte."""
    lines = _split_lines(text)
    found: List[_Scanned] = []
    i = _next(lines, 0, _STARTS)
    while i < len(lines.kind):
        block = _scan_block(lines, i)
        if block:
            found.append(block)
        i = _next(lines, block[1] if block else i + 1, _STARTS)
    if not found:
        return ResponseSegments(prefix_text=text, sql_blocks=(), suffix_text="")

    # A block's span runs on over prose up to the next block's start.
    starts = [start for start, _, _ in found]
    ends = starts[1:] + [lines.full_end[found[-1][1] - 1]]
    blocks = tuple(
        SqlBlock(span=(start, end), text=text[start:end], **facts)
        for (start, _, facts), end in zip(found, ends)
    )
    return ResponseSegments(
        prefix_text=text[: starts[0]], sql_blocks=blocks, suffix_text=text[ends[-1]:]
    )


def _scan_block(lines: _Lines, open_i: int) -> Optional[_Scanned]:
    """The block opened on line ``open_i``, or None when that line opens none."""
    kind = lines.kind
    if kind[open_i] == _OPENER:
        body_end = last = _next(lines, open_i + 1, _FENCES)
        if last == len(kind) or kind[last] == _OPENER:  # never closed
            return None
    else:
        body_end = _next(lines, open_i + 1, _NOT_PROSE)
        if body_end == open_i + 1:
            return None
        last = body_end - 1
    marker_i = _marker_after(lines, last)
    claim = _Claim(None, last) if marker_i is None else _scan_claimed(lines, marker_i)
    facts = dict(
        sql_text="\n".join(lines.content[open_i + 1 : body_end]).strip(),
        claimed_result=claim.text,
        marker_end=None if marker_i is None else lines.content_end[marker_i],
        sql_end=lines.content_end[last],
        claim_end=claim.end,
    )
    return lines.start[open_i], claim.last_line + 1, facts


def _scan_claimed(lines: _Lines, marker_i: int) -> _Claim:
    """The claimed result under the marker on line ``marker_i``, where it ends, and the block's last line.

    A fenced claim is the fence's contents verbatim.  An unfenced claim ends
    at its first blank line or at a new block, whichever comes first; the
    text after it is prose.  A numbered heading right after the marker
    leaves the block without a claim.
    """
    kind = lines.kind
    first = _next(lines, marker_i + 1, _NOT_BLANK)
    if first == len(kind) or kind[first] in (_OPENER, _LABEL, _HEADING):
        return _Claim(None, marker_i)
    if kind[first] in _FENCES:
        close = _next(lines, first + 1, _FENCES)
        claimed = "\n".join(lines.content[first + 1 : close]).strip("\n") or None
        if close == len(kind) or kind[close] == _OPENER:  # never closed
            return _Claim(claimed, close - 1)
        bare = claimed is not None and kind[close] == _BARE_FENCE
        return _Claim(claimed, close, lines.content_end[close] if bare else None)
    k = _next(lines, first + 1, _UNFENCED_CLAIM_ENDS)
    return _Claim("\n".join(lines.content[first:k]), k - 1, lines.content_end[k - 1])


def resume_prefix(text: str, block: SqlBlock) -> str:
    """Truncate ``text`` right after ``block``'s result-marker line.

    ``block`` is one of the blocks :func:`segment_response` found in
    ``text``.  When it has no marker, the first result marker is put on
    the line after the SQL so the caller can inject an execution result
    beneath it.  When only whitespace follows such a block (the generation
    stopped where the marker belongs), ``text`` is kept byte for byte and the
    marker goes on the next line, so the next prompt extends exactly the text
    the model decoded.
    """
    if block.marker_end is not None:
        return text[: block.marker_end]
    if not text[block.sql_end:].strip():
        return text + ("" if text.endswith("\n") else "\n") + RESULT_MARKERS[0]
    return text[: block.sql_end] + "\n" + RESULT_MARKERS[0]


def section_starts(text: str) -> Dict[str, int]:
    """Offsets of the first ``1.``/``2.``/``3.`` headings, in order.

    They open a response's plan, SQL and reasoning sections; a heading
    counts only after the one numbered before it.
    """
    starts: Dict[str, int] = {}
    offset = 0
    expected = "1"
    for line in text.splitlines(keepends=True):
        match = _NUMBERED_HEADING_RE.match(line)
        if match and match.group(1) == expected:
            starts[expected] = offset
            if expected == "3":
                break
            expected = chr(ord(expected) + 1)
        offset += len(line)
    return starts


def last_lines(text: str, count: int) -> List[str]:
    """The last ``count`` non-blank lines of ``text``, in order."""
    return [line for line in text.splitlines() if line.strip()][-count:]


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


def extract_final_answer(
    text: str,
    task: str,
    labels: Optional[Sequence[str]] = None,
) -> FinalAnswer:
    """Pull the concluding answer from a generation's last lines.

    Only the last five non-empty lines are considered; when several lines
    match, the last match wins.  A verification answer is the label that
    match names under :func:`~tabreason.tables.match_label`, as ``labels``
    write it; without ``labels`` a verification call raises ``ValueError``.
    Otherwise an unrecognized conclusion yields ``FinalAnswer.missing()``.
    """
    tail = last_lines(text, 5)
    if task == TASK_FACT_VERIFICATION:
        if not labels:
            raise ValueError("a %s answer is read against labels, and none were given" % task)
        longest_first = map(re.escape, sorted(labels, key=len, reverse=True))
        pattern = re.compile(r"\b(?:%s)\b" % "|".join(longest_first), re.IGNORECASE)
        hits = [m.group(0) for line in tail for m in pattern.finditer(strip_emphasis(line))]
        label = match_label(hits[-1], labels) if hits else None
        return FinalAnswer(kind="label", label=label) if label else FinalAnswer.missing()

    found: Optional[str] = None
    for line in tail:
        for m in _FINAL_ANSWER_RE.finditer(strip_emphasis(line)):
            found = m.group(1)
    if found is None:
        return FinalAnswer.missing()
    answer = strip_decorations(found)
    if not answer:
        return FinalAnswer.missing()
    if task == TASK_FREE_QA:
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
