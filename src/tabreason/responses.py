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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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

LABELS_BINARY: Tuple[str, ...] = ("true", "false")
LABELS_THREEWAY: Tuple[str, ...] = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")


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


def _skip_blank(lines: _Lines, i: int) -> int:
    """The first non-blank line at or after ``i``; the line count when none."""
    while i < len(lines.content) and not lines.content[i].strip():
        i += 1
    return i


def _fence_end(lines: _Lines, open_i: int) -> Tuple[int, bool]:
    """The first fence line after ``open_i``, and whether it closes that fence.

    A ```` ```sql ```` line opens the next block, so it closes nothing.  With
    no fence line left, the line count and ``False``.
    """
    for j in range(open_i + 1, len(lines.content)):
        if lines.content[j].strip().startswith("```"):
            return j, not _is_block_start(lines.content[j])
    return len(lines.content), False


def _ends_claim(lines: _Lines, i: int) -> bool:
    """Whether line ``i`` (the line count at the end) stops a claim it would open.

    ``i`` is the first non-blank line after the marker.
    """
    return (
        i == len(lines.content)
        or _is_block_start(lines.content[i])
        or bool(_NUMBERED_HEADING_RE.match(lines.content[i]))
    )


def _marker_after(lines: _Lines, last: int) -> Optional[int]:
    """The result-marker line after a block's last SQL line ``last``, if any."""
    probe = _skip_blank(lines, last + 1)
    if probe < len(lines.content) and lines.content[probe].strip().lower() in _MARKER_SET:
        return probe
    return None


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
    i = 0
    while i < len(lines.content):
        block = _is_block_start(lines.content[i]) and _scan_block(lines, i)
        if block:
            found.append(block)
            i = block[1]
        else:
            i += 1
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
    n = len(lines.content)
    if lines.content[open_i].strip().startswith("```"):
        body_end, closed = _fence_end(lines, open_i)
        if not closed:
            return None
        last = body_end
        # The closing fence line may carry the marker itself ("```Expected Result:").
        fence_rest = lines.content[last].strip()[3:].strip()
        if fence_rest:
            marker_i = last if fence_rest.lower() in _MARKER_SET else None
        else:
            marker_i = _marker_after(lines, last)
    else:
        body_end = open_i + 1
        while body_end < n:
            line = lines.content[body_end]
            stripped = line.strip()
            if (
                not stripped
                or stripped.lower() in _MARKER_SET
                or stripped.startswith("```")
                or _is_block_start(line)
                or _NUMBERED_HEADING_RE.match(line)
            ):
                break
            body_end += 1
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
    text after it is prose.
    """
    first = _skip_blank(lines, marker_i + 1)
    if _ends_claim(lines, first):
        return _Claim(None, marker_i)
    if lines.content[first].strip().startswith("```"):  # not ```sql: that ended the claim
        close, closed = _fence_end(lines, first)
        claimed = "\n".join(lines.content[first + 1 : close]).strip("\n") or None
        if not closed:
            return _Claim(claimed, close - 1)
        bare = claimed is not None and lines.content[close].strip() == "```"
        return _Claim(claimed, close, lines.content_end[close] if bare else None)
    k, n = first + 1, len(lines.content)
    while k < n and lines.content[k].strip() and not _is_block_start(lines.content[k]):
        k += 1
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
    tail = last_lines(text, 5)
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
