"""Generation segmentation, resume prefixes, and final-answer extraction."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabreason.jsonl import from_fields
from tabreason.responses import (
    RESULT_MARKERS,
    FinalAnswer,
    _split_lines,
    extract_final_answer,
    resume_prefix,
    segment_response,
)

from transcripts import (
    ALL_CASES,
    CONCLUSION_FIXTURES,
    LABELS_THREEWAY,
    SEGMENTATION_PIECES,
)


FENCED = """Let me plan.

1. Plan the reasoning steps.

2. Write SQL and execute SQL
```sql
SELECT `Name` FROM w WHERE `Eliminated` = 'Winner'
```
Expected Result:
```
Name
Damaris Phillips
```

3. Step-by-step reasoning
The final answer is Damaris Phillips."""

LABELED = """plan text

2. Write SQL and execute SQL
SQL:
SELECT `Name` FROM w WHERE `Rank` = 1
Executed result:
| Name |
| Ann |

3. Answer
The final answer is Ann."""


# ---------------------------------------------------------------------------
# segmentation


def test_fenced_block_shape():
    seg = segment_response(FENCED)
    assert len(seg.sql_blocks) == 1
    block = seg.sql_blocks[0]
    assert block.sql_text == "SELECT `Name` FROM w WHERE `Eliminated` = 'Winner'"
    assert block.claimed_result == "Name\nDamaris Phillips"
    assert block.marker_end is not None


def test_labeled_block_shape():
    seg = segment_response(LABELED)
    assert len(seg.sql_blocks) == 1
    block = seg.sql_blocks[0]
    assert block.sql_text == "SELECT `Name` FROM w WHERE `Rank` = 1"
    assert block.claimed_result == "| Name |\n| Ann |"


def test_marker_sharing_the_closing_fence_line():
    text = "x\n```sql\nSELECT `a` FROM w\n```Expected Result:\n\n```\na\n1\n```\ndone"
    seg = segment_response(text)
    block = seg.sql_blocks[0]
    assert block.sql_text == "SELECT `a` FROM w"
    assert block.claimed_result == "a\n1"
    assert seg.reassemble() == text


def test_markers_match_case_insensitively():
    text = "```sql\nSELECT `a` FROM w\n```\nEXECUTED RESULT:\n| a |\n| 1 |"
    block = segment_response(text).sql_blocks[0]
    assert block.claimed_result == "| a |\n| 1 |"


def test_unfenced_claim_stops_at_numbered_heading():
    text = (
        "2. SQL step\nSQL:\nSELECT `a` FROM w\nExecuted result:\n| a |\n| 1 |\n"
        "\n3. Answer prediction\nprose"
    )
    block = segment_response(text).sql_blocks[0]
    assert block.claimed_result == "| a |\n| 1 |"


def test_block_without_marker_has_no_claim():
    text = "plan\n\n```sql\nSELECT `a` FROM w\n```\njust prose after."
    block = segment_response(text).sql_blocks[0]
    assert block.claimed_result is None
    assert block.marker_end is None


def test_non_sql_fences_are_prose():
    text = "```python\nprint('hi')\n```\nno sql here"
    seg = segment_response(text)
    assert seg.sql_blocks == ()
    assert seg.reassemble() == text


def test_two_blocks_in_one_generation():
    text = (
        "step one\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n| a |\n| 1 |\n\n"
        "step two\n```sql\nSELECT `b` FROM w\n```\nExecuted result:\n| b |\n| 2 |\n\n"
        "The final answer is 2."
    )
    seg = segment_response(text)
    assert [b.sql_text for b in seg.sql_blocks] == [
        "SELECT `a` FROM w",
        "SELECT `b` FROM w",
    ]
    assert seg.reassemble() == text


def test_a_later_sql_fence_does_not_close_an_unclosed_opener():
    """An opener no plain fence closes before the next ```sql line is prose."""
    text = (
        "plan\n```sql\nan opener nothing closes\n\nSQL:\nSELECT `a` FROM w\n"
        "Executed result:\n9\n\n```sql\nSELECT `b` FROM w\n```\nThe final answer is 9."
    )
    seg = segment_response(text)
    assert [(b.sql_text, b.claimed_result) for b in seg.sql_blocks] == [
        ("SELECT `a` FROM w", "9"),
        ("SELECT `b` FROM w", None),
    ]
    assert seg.prefix_text == "plan\n```sql\nan opener nothing closes\n\n"
    assert seg.reassemble() == text


def test_an_unclosed_claim_fence_ends_before_the_next_sql_fence():
    """A claim fence a later ```sql line meets first ends just before that line."""
    text = (
        "plan\n```sql\nSELECT `a` FROM w\n```\nExecuted result:\n```\n| a |\n| 1 |\n"
        "```sql\nSELECT `b` FROM w\n```\nExecuted result:\n9"
    )
    seg = segment_response(text)
    assert [(b.sql_text, b.claimed_result) for b in seg.sql_blocks] == [
        ("SELECT `a` FROM w", "| a |\n| 1 |"),
        ("SELECT `b` FROM w", "9"),
    ]
    assert seg.sql_blocks[1].span[0] == text.index("```sql\nSELECT `b`")
    assert seg.reassemble() == text


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_real_transcripts_reassemble_exactly(case):
    seg = segment_response(case.transcript)
    assert seg.reassemble() == case.transcript


@pytest.mark.parametrize("case", [str, str.upper, str.lower], ids=["as_written", "upper", "lower"])
@pytest.mark.parametrize("marker", RESULT_MARKERS)
def test_every_result_marker_opens_a_claim_in_any_case(marker, case):
    text = "plan\n```sql\nSELECT `a` FROM w\n```\n" + case(marker) + "\n| a |\n| 1 |\n\nSo a is 1."
    block = segment_response(text).sql_blocks[0]
    assert block.claimed_result == "| a |\n| 1 |"
    assert text[block.sql_end : block.marker_end].strip() == case(marker)
    assert resume_prefix(text, block) == text[: text.index(case(marker)) + len(marker)]


def test_a_line_that_is_no_result_marker_opens_no_claim():
    text = "```sql\nSELECT `a` FROM w\n```\nOutput:\n| a |"
    block = segment_response(text).sql_blocks[0]
    assert (block.claimed_result, block.marker_end) == (None, None)


# fragments that stress every boundary the scanner cares about
_FRAGMENTS = (
    "",
    "\n",
    "\n\n",
    "plain prose line\n",
    "1. Understand the question.\n",
    "2. Write SQL and execute SQL\n",
    "3. Answer prediction\n",
    "```sql\n",
    "```SQL\n",
    "```\n",
    "```Expected Result:\n",
    "SQL:\n",
    "sql:\n",
    "SELECT `Name` FROM w WHERE `x` = 1\n",
    "SELECT COUNT(*) FROM w\n",
    "Expected Result:\n",
    "Expected result:\n",
    "Executed result:\n",
    "Executed result:\n| a |\n\nprose after the claim\n",
    "| Name | Rank |\n",
    "| Damaris Phillips | 1 |\n",
    "Name\n",
    "   indented text\n",
    "The final answer is X.\n",
    "``` sql\n",
    "````\n",
    "text with ``` inline\n",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30))
def test_segmentation_never_loses_bytes(pieces):
    """prefix + blocks + suffix is always the original text, byte for byte."""
    text = "".join(pieces)
    segments = segment_response(text)
    assert segments.reassemble() == text
    # an unfenced claim ends at its first blank line
    for block in segments.sql_blocks:
        claimed = block.claimed_result
        if claimed is not None and not text[block.marker_end:].lstrip().startswith("```"):
            assert all(line.strip() for line in claimed.split("\n"))


def test_only_cr_and_lf_are_cut_from_line_content():
    """Offsets and claims keep trailing blanks and every line break but \\r and \\n."""
    text = (
        "plan \r\n```sql \r\nSELECT `a` FROM w  \r\n```\r\nExecuted result:  \r\n"
        "| a |  \r\n| 1 |\x0c| 2 |\t\r\n\r\n3. Answer\r\nSQL:\x0cSELECT 1 \r\n"
    )
    segments = segment_response(text)
    assert segments.prefix_text == "plan \r\n"
    assert segments.suffix_text == ""
    fenced, labeled = segments.sql_blocks
    assert fenced.claimed_result == "| a |  \n| 1 |\x0c\n| 2 |\t"
    assert (fenced.span, fenced.sql_end, fenced.marker_end) == ((7, 98), 40, 60)
    assert text[: fenced.marker_end].endswith("Executed result:  ")
    assert labeled.sql_text == "SELECT 1"
    assert (labeled.span, labeled.sql_end, labeled.marker_end) == ((98, 114), 112, None)
    assert resume_prefix(text, labeled) == text + RESULT_MARKERS[0]


def _segmentation_texts():
    """Criterion 5's seeded random texts, then every generation in the transcripts."""
    rng = random.Random(987123)
    for _ in range(10_000):
        yield "".join(
            rng.choice(SEGMENTATION_PIECES) for _ in range(rng.randint(0, 20))
        )
    for case in ALL_CASES:
        yield case.transcript
        yield from case.script
    for _name, text, _task, _labels, _expected in CONCLUSION_FIXTURES:
        yield text


# sha256 over every field segment_response and resume_prefix produce for
# _segmentation_texts(); a change here is a change in segmentation output.
# After a deliberate change, print the new digest with:
#   PYTHONPATH=src python tests/test_responses.py
SEGMENTATION_DIGEST = "dda92830307bf1facc9dd4fb7a28728435b575adaefadada94525b852cbfda14"


def _segmentation_digest() -> str:
    digest = hashlib.sha256()
    for text in _segmentation_texts():
        segments = segment_response(text)
        blocks = [
            [
                block.sql_text,
                block.claimed_result,
                list(block.span),
                block.marker_end,
                block.sql_end,
                block.claim_end,
                block.text,
                resume_prefix(text, block),
            ]
            for block in segments.sql_blocks
        ]
        record = [segments.prefix_text, segments.suffix_text, blocks]
        digest.update(json.dumps(record).encode("ascii") + b"\n")
    return digest.hexdigest()


def test_segmentation_output_digest_is_pinned():
    """Every segment field and resume prefix is what it was when the digest was recorded."""
    assert _segmentation_digest() == SEGMENTATION_DIGEST


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SEGMENTATION_PIECES), max_size=30))
def test_segmenting_from_a_block_start_finds_the_same_blocks(pieces):
    """From block k's start, the blocks are k.. of the whole text, offsets shifted.

    The loop scans each round from the last block it resumed after; this is
    what makes that scan see the blocks a scan of the whole text would.
    """
    text = "".join(pieces)
    blocks = segment_response(text).sql_blocks
    for k, block in enumerate(blocks):
        base = block.span[0]
        shift = lambda at: None if at is None else at + base
        tail = segment_response(text[base:])
        assert tail.prefix_text == ""
        assert len(tail.sql_blocks) == len(blocks) - k
        for whole, part in zip(blocks[k:], tail.sql_blocks):
            assert (part.sql_text, part.claimed_result, part.text) == (
                whole.sql_text, whole.claimed_result, whole.text)
            assert (tuple(map(shift, part.span)), shift(part.marker_end), shift(part.sql_end),
                    shift(part.claim_end)) == (
                whole.span, whole.marker_end, whole.sql_end, whole.claim_end)
            assert text[:base] + resume_prefix(text[base:], part) == resume_prefix(text, whole)


@pytest.mark.parametrize(
    "claimed,table",
    [
        ("| a |\n| 1 |", "| a |\n| 1 |"),
        ("| a |\n| 1 |\n\n- So a is 1.", "| a |\n| 1 |"),
        ("| a |\n| 1 |\n \t\n- So a is 1.\n\nMore.", "| a |\n| 1 |"),
        ("9", "9"),
    ],
    ids=["table", "table_then_prose", "blank_line_of_spaces", "bare_value"],
)
def test_a_claims_table_is_its_first_paragraph(claimed, table):
    """An unfenced claim ends at its first blank line; what follows is prose."""
    text = "```sql\nSELECT `a` FROM w\n```\nExecuted result:\n" + claimed
    block = segment_response(text).sql_blocks[0]
    assert block.claimed_result == table
    assert block.claim_end == text.index(table) + len(table)


# ---------------------------------------------------------------------------
# line roles

_HEADING_REFERENCE_RE = re.compile(r"^\s*(?:\*\*)?\s*(\d+)\s*[.)]")
_FOLDED_MARKERS = {marker.lower() for marker in RESULT_MARKERS}


def _role_reference(line):
    """A line's role by the five line tests the segmenter once repeated at each use.

    They are the blank test, the block-start test, the fence test (with what a
    closing fence carries), the result-marker test and the heading test.
    """
    stripped = line.strip()
    if not stripped:
        return "blank"
    if stripped.lower().startswith("```sql"):
        return "opener"
    if stripped.lower() == "sql:":
        return "label"
    if stripped.startswith("```"):
        rest = stripped[3:].strip()
        if not rest:
            return "bare fence"
        return "marker fence" if rest.lower() in _FOLDED_MARKERS else "fence"
    if stripped.lower() in _FOLDED_MARKERS:
        return "marker"
    return "heading" if _HEADING_REFERENCE_RE.match(line) else "prose"


_ONE_LINE_PER_ROLE = [
    (" \t\u2003\x0c", "blank"),
    ("So `a` is 2; ```sql is inline here.", "prose"),
    ("  **\u0663 ) Answer prediction", "heading"),
    ("\u2003expected RESULT:  ", "marker"),
    ("  Sql:", "label"),
    ("```SQL (the query)", "opener"),
    ("  ```  ", "bare fence"),
    ("``` executed Result:\x85", "marker fence"),
    ("```\u017fql", "fence"),
]


@pytest.mark.parametrize("line,role", _ONE_LINE_PER_ROLE, ids=[role for _, role in _ONE_LINE_PER_ROLE])
def test_a_line_gets_its_role_from_itself_alone(line, role):
    assert _role_reference(line) == role
    assert _split_lines(line).kind == [role]
    assert _split_lines("```sql\n" + line + "\r\nExecuted result:").kind[1] == role


def _in_case(marker, bits):
    """``marker`` with its k-th character upper-cased where bit k of ``bits`` is set."""
    return "".join(c.upper() if bits >> k & 1 else c.lower() for k, c in enumerate(marker))


_LINE_PIECES = st.one_of(
    st.sampled_from(
        ["\u017f", "\u212a", "\u0130", "\u0663", "\u00b2", "\u2003", "**", "`", "```",
         "SQL:", "\u017fql:", "sql", "e", "x", "1", ".", ")", " ", "\t"]
    ),
    st.builds(_in_case, st.sampled_from(RESULT_MARKERS), st.integers(0, 2**16 - 1)),
)
_LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_LINE_PIECES, _LINE_BREAKS), max_size=60).map("".join))
def test_every_line_gets_the_role_the_reference_gives_it(text):
    """Long s, Kelvin sign and dotted I do not fold to a marker or ``sql``; Arabic-Indic digits head a section."""
    split = _split_lines(text)
    assert split.kind == [_role_reference(line) for line in split.content]


# ---------------------------------------------------------------------------
# resume prefixes


def test_resume_cuts_right_after_the_marker():
    prefix = resume_prefix(LABELED, segment_response(LABELED).sql_blocks[0])
    assert prefix.endswith("SELECT `Name` FROM w WHERE `Rank` = 1\nExecuted result:")
    assert "| Ann |" not in prefix


def test_resume_appends_marker_when_block_has_none():
    text = "plan\n\n```sql\nSELECT `a` FROM w\n```\nprose."
    prefix = resume_prefix(text, segment_response(text).sql_blocks[0])
    assert prefix == "plan\n\n```sql\nSELECT `a` FROM w\n```\n" + RESULT_MARKERS[0]


@pytest.mark.parametrize(
    "text,added",
    [
        ("plan\nSQL:\nSELECT `a` FROM w\n\n", RESULT_MARKERS[0]),
        ("plan\n```sql\nSELECT `a` FROM w\n```\n", RESULT_MARKERS[0]),
        ("plan\n```sql\nSELECT `a` FROM w\n```", "\n" + RESULT_MARKERS[0]),
    ],
    ids=["labeled", "fenced", "fenced_no_newline"],
)
def test_resume_keeps_a_generation_that_stopped_at_the_marker(text, added):
    assert resume_prefix(text, segment_response(text).sql_blocks[0]) == text + added


def test_resume_prefix_is_a_prefix_of_the_text():
    for case in ALL_CASES:
        for block in segment_response(case.transcript).sql_blocks:
            prefix = resume_prefix(case.transcript, block)
            if block.marker_end is not None:
                assert case.transcript.startswith(prefix)


# ---------------------------------------------------------------------------
# final-answer extraction


@pytest.mark.parametrize(
    "name,text,task,labels,expected",
    CONCLUSION_FIXTURES,
    ids=[row[0] for row in CONCLUSION_FIXTURES],
)
def test_conclusion_fixtures(name, text, task, labels, expected):
    assert extract_final_answer(text, task, labels) == expected


def test_short_answer_splits_on_comma_and_and():
    got = extract_final_answer("The final answer is cats, dogs and birds.", "short_qa")
    assert got.answers == ("cats", "dogs", "birds")


@pytest.mark.parametrize(
    "conclusion,answers",
    [
        ("December 31, 1849", ("December 31, 1849",)),
        ("December 31 , 1849", ("December 31 , 1849",)),
        ("may 5,2020 and June 1, 2021", ("may 5,2020", "June 1, 2021")),
        ("Paris, December 31, 1849", ("Paris", "December 31, 1849")),
        ("31, 1849", ("31", "1849")),
        ("December 31, 18490", ("December 31", "18490")),
    ],
    ids=["date", "spaced-comma", "two-dates", "place-then-date", "no-month", "five-digit-year"],
)
def test_a_comma_between_month_day_and_year_separates_no_answers(conclusion, answers):
    got = extract_final_answer("The final answer is %s." % conclusion, "short_qa")
    assert got.answers == answers


def test_last_match_wins():
    text = "The final answer is 3.\nWait, let me recheck.\nThe final answer is 4."
    assert extract_final_answer(text, "short_qa").answers == ("4",)


def test_only_last_five_nonempty_lines_are_scanned():
    filler = "\n".join("line %d" % i for i in range(5))
    text = "The final answer is 3.\n" + filler
    assert extract_final_answer(text, "short_qa") == FinalAnswer.missing()


def test_label_requires_word_boundary():
    text = "This claim is falsely attributed."
    got = extract_final_answer(text, "fact_verification", ("true", "false"))
    assert got == FinalAnswer.missing()


def test_label_casing_is_canonicalized():
    got = extract_final_answer(
        "the answer is refutes.", "fact_verification", LABELS_THREEWAY
    )
    assert got.label == "REFUTES"


def test_a_verification_call_without_labels_is_refused():
    """Extraction keeps no label set of its own: the instance's labels decide."""
    with pytest.raises(ValueError, match="labels"):
        extract_final_answer("The final answer is false.", "fact_verification")


@pytest.mark.parametrize(
    "conclusion,label",
    [
        ("The answer is \u017fUPPORTS.", "SUPPORTS"),  # a long s casefolds to s
        ("The answer is NOT ENOUGH \u0131NFO.", None),  # a dotless i stays itself
        ("The answer is NOT ENOUGH \u0130NFO.", None),  # a dotted capital I folds to i plus a dot
    ],
    ids=["long-s", "dotless-i", "dotted-capital-i"],
)
def test_a_match_names_a_label_only_if_it_casefolds_to_one(conclusion, label):
    """The label pattern also pairs letters that casefold apart; such a match names no label."""
    expected = FinalAnswer.missing() if label is None else FinalAnswer(kind="label", label=label)
    assert extract_final_answer(conclusion, "fact_verification", LABELS_THREEWAY) == expected


def test_missing_cases_never_raise():
    assert extract_final_answer("", "short_qa") == FinalAnswer.missing()
    assert extract_final_answer("no conclusion", "free_qa") == FinalAnswer.missing()
    assert extract_final_answer("The final answer is .", "short_qa") == FinalAnswer.missing()
    assert (
        extract_final_answer("nothing here", "fact_verification", LABELS_THREEWAY)
        == FinalAnswer.missing()
    )


def test_a_short_answer_of_only_separators_is_missing():
    assert extract_final_answer("The final answer is , ,", "short_qa") == FinalAnswer.missing()


def test_trailing_quotes_and_periods_stripped():
    got = extract_final_answer('The final answer is "Paris".', "short_qa")
    assert got.answers == ("Paris",)


def test_final_answer_round_trip():
    samples = (
        FinalAnswer(kind="short", answers=("a", "b")),
        FinalAnswer(kind="label", label="SUPPORTS"),
        FinalAnswer(kind="free", text="a sentence"),
        FinalAnswer.missing(),
    )
    for answer in samples:
        assert from_fields(FinalAnswer, answer.to_dict()) == answer


if __name__ == "__main__":
    print(_segmentation_digest())
