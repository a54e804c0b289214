"""Tables: serialization and grid-line splitting, numeric coercion, truncation, JSONL."""

import dataclasses
import gc
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabreason import orchestrator
from tabreason.backends import ReplayBackend
from tabreason.orchestrator import RunConfig, run_instance
from tabreason.prompts import build_task_prompt
from tabreason.tables import (
    BudgetTooSmall,
    GoldAnswer,
    GridRows,
    Instance,
    SentenceContext,
    Table,
    cell_as_number,
    dump_instances,
    estimate_tokens,
    format_number,
    instance_from_dict,
    instance_to_dict,
    load_instances,
    split_pipe_line,
    serialize_for_prompt,
    table_from_dict,
    table_to_dict,
    truncate_to_budget,
    working_copy,
)


def _escape_cell(text):
    return text.replace("|", "\\|")


def make_table(**kwargs):
    return Table(
        ["Rank", "Name", "Nationality"],
        [
            ["1", "Jackline Kosgei", "Kenya"],
            ["2", "Eunice Cherono", "Kenya"],
            ["3", "Albina Ivanova", "Russia"],
        ],
        **kwargs,
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_rows_must_match_header_width():
    with pytest.raises(ValueError):
        Table(headers=("a", "b"), rows=(("1",),))


def _assert_trimmed_str_cells(table, expected):
    assert table.rows == expected
    assert all(type(c) is str for row in table.rows for c in row)


def test_cell_trims_surrounding_whitespace():
    """Every way of building a table stores trimmed str cells."""
    expected = (("x", "1"), ("-", ""))
    _assert_trimmed_str_cells(
        Table(headers=(" a ", "b"), rows=(("  x  ", 1), [" - ", "   "])), expected
    )
    table = Table(["a", "b"], [["  x\t", 1], ["-", " "]])
    _assert_trimmed_str_cells(table, expected)
    assert table.headers == ("a", "b")
    _assert_trimmed_str_cells(
        table_from_dict({"headers": ["a", "b"], "rows": [[" x ", 1], ["-", " "]]}), expected
    )
    _assert_trimmed_str_cells(
        dataclasses.replace(table, rows=((" x", " 1 "), (" -", ""))), expected
    )


def test_dash_cell_round_trips_verbatim():
    table = Table(["a", "b"], [["-", ""]])
    assert serialize_for_prompt(table).splitlines()[1] == "| - |  |"
    assert table_to_dict(table)["rows"] == [["-", ""]]
    assert cell_as_number(table.rows[0][0]) is None


def test_table_dimensions():
    table = make_table()
    assert table.n_rows == 3


def test_gold_answer_requires_exactly_one_side():
    with pytest.raises(ValueError):
        GoldAnswer()
    with pytest.raises(ValueError):
        GoldAnswer(answers=("2",), label="SUPPORTS")
    assert GoldAnswer(answers=("2",)).answers == ("2",)
    assert GoldAnswer(label="REFUTES").label == "REFUTES"


@pytest.mark.parametrize(
    "fields,reason",
    [
        ({"label": "   "}, "gold label must not be blank"),
        ({"label": ""}, "gold label must not be blank"),
        ({"answers": ("  ",)}, "gold answers must not be blank"),
        ({"answers": ("2", "")}, "gold answers must not be blank"),
    ],
    ids=["blank-label", "empty-label", "blank-answer", "one-empty-answer"],
)
def test_gold_answer_refuses_a_blank_value(fields, reason):
    # a blank gold scores every answer wrong, so it is refused where it is built
    with pytest.raises(ValueError, match=reason):
        GoldAnswer(**fields)


def test_gold_answer_as_text_joins_multiple_golds():
    assert GoldAnswer(answers=("Edith Masai", "Ann Wanjiru")).as_text == "Edith Masai; Ann Wanjiru"
    assert GoldAnswer(answers=("2",)).as_text == "2"
    assert GoldAnswer(label="REFUTES").as_text == "REFUTES"


def test_instance_rejects_unknown_task():
    with pytest.raises(ValueError):
        Instance(
            id="x",
            task="multiple_choice",
            query="q",
            table=make_table(),
            gold=GoldAnswer(answers=("a",)),
        )


# ---------------------------------------------------------------------------
# grid-line splitting


def test_parse_plain_grid():
    assert split_pipe_line("1 | Jackline Kosgei | Kenya") == ["1", "Jackline Kosgei", "Kenya"]


def test_parse_grid_with_boundary_pipes():
    assert split_pipe_line("| a | b |") == ["a", "b"]
    assert split_pipe_line("|  |") == [""]


def test_escaped_pipe_is_data_not_separator():
    assert split_pipe_line("left \\| right | 2") == ["left | right", "2"]
    assert split_pipe_line("| a | b \\| |") == ["a", "b |"]


def _split_pipe_line_reference(line):
    """The escape-aware character loop, run on every line, with the boundary-pipe rules."""
    cells, buf, i = [], [], 0
    while i < len(line):
        if line[i] == "\\" and line[i + 1 : i + 2] == "|":
            buf.append("|")
            i += 2
        elif line[i] == "|":
            cells.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(line[i])
            i += 1
    cells.append("".join(buf))
    stripped = line.rstrip()
    trailing_backslashes = len(stripped[:-1]) - len(stripped[:-1].rstrip("\\"))
    if len(cells) > 1 and line.lstrip().startswith("|") and not cells[0].strip():
        cells = cells[1:]
    if (
        len(cells) > 1
        and stripped.endswith("|")
        and trailing_backslashes % 2 == 0
        and not cells[-1].strip()
    ):
        cells = cells[:-1]
    return [c.strip() for c in cells]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet="a |\\", max_size=16))
@example("\\|")
@example("\\\\|")
@example("a | b\\")
@example("| a \\| b |")
@example("| a | b \\\\|")
def test_split_pipe_line_matches_the_character_loop(line):
    """The plain-split path and the escape path agree with the character loop."""
    assert split_pipe_line(line) == _split_pipe_line_reference(line)


# ---------------------------------------------------------------------------
# serialization round-trip


def test_serialize_includes_metadata_then_grid():
    table = make_table(page_title="Goodwill Games", caption="Marathon")
    text = serialize_for_prompt(table)
    lines = text.splitlines()
    assert lines[0] == "Page Title: Goodwill Games"
    assert lines[1] == "Caption: Marathon"
    assert lines[2] == "| Rank | Name | Nationality |"
    assert [tuple(split_pipe_line(line)) for line in lines[2:]] == [table.headers, *table.rows]


# The grid format is line-oriented, so cells cannot contain anything
# str.splitlines() treats as a line break (\n, \r, \x0b, \x0c, \x85, ...).
_cell_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=12,
).filter(lambda s: len(("x" + s + "x").splitlines()) == 1)


@settings(max_examples=200, deadline=None)
@given(
    headers=st.lists(_cell_text.filter(lambda s: s.strip()), min_size=1, max_size=5),
    body=st.lists(st.lists(_cell_text, min_size=1, max_size=5), max_size=6),
)
def test_round_trip_arbitrary_cells(headers, body):
    """Splitting each serialized line gives back the trimmed cells, pipes included."""
    rows = [(row + [""] * len(headers))[: len(headers)] for row in body]
    table = Table(headers, rows)
    lines = serialize_for_prompt(table).split("\n")
    assert [tuple(split_pipe_line(line)) for line in lines] == [table.headers, *table.rows]


def _escaped_line(values):
    """A grid line with every cell escaped."""
    return "| " + " | ".join(_escape_cell(v) for v in values) + " |"


def _joined_line(values):
    """Join the cells; escape every cell when the line has more pipes than separators."""
    line = " | ".join(values)
    if line.count("|") > len(values) - 1:
        line = " | ".join([_escape_cell(v) for v in values])
    return "| " + line + " |"


def _serialize_reference(table, grid_line=_escaped_line):
    """Metadata lines, then one grid line per header and row, one line at a time."""
    lines = []
    if table.page_title:
        lines.append("Page Title: %s" % table.page_title)
    if table.section_title:
        lines.append("Section title: %s" % table.section_title)
    if table.caption:
        lines.append("Caption: %s" % table.caption)
    lines.extend(map(grid_line, (table.headers, *table.rows)))
    return "\n".join(lines)


_grid_cell = st.text(alphabet="ab |\\\n", max_size=6) | _cell_text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    headers=st.lists(_grid_cell, min_size=1, max_size=4),
    body=st.lists(st.lists(_grid_cell, min_size=4, max_size=4), max_size=6),
    page_title=st.none() | _cell_text,
    section_title=st.none() | _grid_cell,
    caption=st.none() | _cell_text,
)
@example(headers=["a", "b"], body=[["x", "y"], ["1", "2"]], page_title=None, section_title=None,
         caption=None)
@example(headers=["a|b", "c"], body=[["x", "|"], ["1", "2"]], page_title="t", section_title="s",
         caption=None)
@example(headers=["a", "b"], body=[["\\|", " | "], ["x\ny", "-"]], page_title=None,
         section_title=None, caption="c|")
def test_serialize_matches_per_cell_escaping(headers, body, page_title, section_title, caption):
    """The stored text is the line-by-line rendering, and escaping per line changes no byte."""
    table = Table(headers, [row[: len(headers)] for row in body], page_title=page_title,
                  section_title=section_title, caption=caption)
    text = serialize_for_prompt(table)
    assert text == _serialize_reference(table, _joined_line) == _serialize_reference(table)


# ---------------------------------------------------------------------------
# numeric coercion


@pytest.mark.parametrize(
    "text,expected",
    [
        ("12", 12.0),
        ("12.5", 12.5),
        (".5", 0.5),
        ("-3", -3.0),
        ("+3", 3.0),
        ("2,000", 2000.0),
        ("1,234,567", 1234567.0),
        ("43%", 0.43),
        ("-5%", -0.05),
        ("  7  ", 7.0),
        ("", None),
        ("-", None),
        ("n/a", None),
        ("w 21 - 20", None),
        ("november 16 , 2003", None),
        ("1-0", None),
        ("12:00", None),
        ("(149)%", None),
        ("100% wool", None),
        ("+-5", None),
    ],
)
def test_cell_as_number(text, expected):
    assert cell_as_number(text) == expected


def test_cell_as_number_accepts_cells_and_none():
    assert cell_as_number("73010") == 73010.0
    assert cell_as_number(None) is None


_NUMBER_RE = re.compile(r"^(?:\d+\.?\d*|\.\d+)$")


def _cell_as_number_reference(value):
    """The regex path alone: trim, take off %, commas and a sign, match a decimal."""
    if value is None:
        return None
    text = value.strip()
    if text in ("", "-"):
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
    return number / 100.0 if percent else number


# ASCII and non-ASCII digits (Arabic-Indic, fullwidth, superscript two), signs,
# separators and letters that may lead a cell.
_NUMBERISH = "0123456789" + "\u0663\uff11\u00b2" + "+-,.% " + "aZ\u00e9\u01c5"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet=_NUMBERISH, max_size=8))
@example("73010")
@example("\u0663\u0664")
@example("\u00b2")
@example("-0")
@example(" 12 ")
@example("a1")
@example("\u00e93")
@example("1,234%")
@example("")
def test_cell_as_number_matches_the_regex_path(text):
    """The digit-only and leading-letter shortcuts return what the regex path does."""
    assert repr(cell_as_number(text)) == repr(_cell_as_number_reference(text))


def test_format_number():
    assert format_number(3.0) == "3"
    assert format_number(-3.0) == "-3"
    assert format_number(0.43) == "0.43"
    assert format_number(2.5) == "2.5"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10**12, max_value=10**12))
def test_integral_floats_print_without_point(n):
    assert format_number(float(n)) == str(n)


# ---------------------------------------------------------------------------
# budgets


def test_estimate_tokens_is_char_quarter():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_truncate_keeps_table_unchanged_when_it_fits():
    table = make_table()
    out = truncate_to_budget(table, 10_000)
    assert out.n_rows == table.n_rows


def test_truncate_drops_trailing_rows():
    table = make_table()
    full = estimate_tokens(serialize_for_prompt(table))
    out = truncate_to_budget(table, full - 1)
    assert out.n_rows < table.n_rows
    assert out.headers == table.headers
    assert list(out.rows[0]) == ["1", "Jackline Kosgei", "Kenya"]


def test_truncate_rejects_budget_smaller_than_header():
    table = make_table(page_title="x" * 400)
    with pytest.raises(BudgetTooSmall):
        truncate_to_budget(table, 5)


@settings(max_examples=150, deadline=None)
@given(
    headers=st.lists(_cell_text, min_size=1, max_size=3),
    body=st.lists(st.lists(_cell_text, min_size=3, max_size=3), max_size=30),
    meta=st.tuples(*[st.none() | _cell_text] * 3),
    budget=st.integers(min_value=30, max_value=400),
)
def test_truncation_soundness(headers, body, meta, budget):
    """The result is the longest row prefix that fits."""
    page_title, section_title, caption = meta

    def build(rows):
        return Table(
            headers, rows, page_title=page_title, section_title=section_title, caption=caption
        )

    table = build([row[: len(headers)] for row in body])
    if estimate_tokens(serialize_for_prompt(build([]))) >= budget:
        with pytest.raises(BudgetTooSmall):
            truncate_to_budget(table, budget)
        return
    out = truncate_to_budget(table, budget)
    kept = out.n_rows
    assert type(out) is Table
    assert out == build(table.rows[:kept])
    assert estimate_tokens(serialize_for_prompt(out)) <= budget
    if kept < table.n_rows:
        assert estimate_tokens(serialize_for_prompt(build(table.rows[: kept + 1]))) > budget


def _kept_rows_reference(table, budget):
    """The row-by-row loop: add each escaped grid line while the estimate fits."""
    head = _serialize_reference(dataclasses.replace(table, rows=()))
    if estimate_tokens(head) >= budget:
        raise BudgetTooSmall(budget)
    total = len(head)
    kept = 0
    for row in table.rows:
        line = "| " + " | ".join(_escape_cell(v) for v in row) + " |"
        if (total + 1 + len(line) + 3) // 4 > budget:
            break
        total += 1 + len(line)
        kept += 1
    return kept


_pipe_cell = st.text(alphabet="ab |\\\n", max_size=5) | _cell_text
_MANY = 600  # rows; a long table


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    pool=st.lists(st.lists(_pipe_cell, min_size=3, max_size=3), min_size=1, max_size=6),
    n_rows=st.integers(min_value=1, max_value=_MANY),
    meta=st.tuples(*[st.none() | _pipe_cell] * 3),
    cut=st.integers(min_value=0, max_value=_MANY),
    slack=st.integers(min_value=-2, max_value=2),
)
@example(pool=[["a\\", "|", "b\\|"]], n_rows=_MANY // 2 + 1,
         meta=("t|", None, "c\\"), cut=_MANY // 4, slack=0)
@example(pool=[["x", "y", "z"]], n_rows=_MANY, meta=(None, None, None), cut=_MANY // 2, slack=0)
@example(pool=[["x\ny", "", "-"]], n_rows=_MANY, meta=(None, None, None), cut=1, slack=0)
def test_truncation_keeps_the_rows_the_row_loop_keeps(pool, n_rows, meta, cut, slack):
    """On long tables, with metadata, cell pipes, escapes, newlines and trailing backslashes."""
    page_title, section_title, caption = meta
    rows = [pool[i % len(pool)] for i in range(n_rows)]
    table = Table(["h1", "h|2", "h3\\"], rows,
                  page_title=page_title, section_title=section_title, caption=caption)
    prefix = dataclasses.replace(table, rows=table.rows[: min(cut, n_rows)])
    budget = max(1, estimate_tokens(_serialize_reference(prefix)) + slack)
    try:
        want = _kept_rows_reference(table, budget)
    except BudgetTooSmall:
        with pytest.raises(BudgetTooSmall):
            truncate_to_budget(table, budget)
        return
    assert truncate_to_budget(table, budget).rows == table.rows[:want]


# ---------------------------------------------------------------------------
# dict / JSONL round-trips


def test_table_dict_round_trip():
    table = make_table(page_title="Goodwill Games", section_title="Results")
    data = table_to_dict(table)
    back = table_from_dict(json.loads(json.dumps(data)))
    assert back.headers == table.headers
    assert back.page_title == "Goodwill Games"
    assert back.section_title == "Results"
    assert [list(r) for r in back.rows] == [
        list(r) for r in table.rows
    ]


def test_instance_round_trip(tmp_path):
    instances = [
        Instance(
            id="q1",
            task="short_qa",
            query="how many medals were won by Kenya?",
            table=make_table(caption="Marathon"),
            sentences=(SentenceContext(text="Held in 2001.", title="Goodwill Games"),),
            gold=GoldAnswer(answers=("2",)),
            tags={"program_solvable": False},
        ),
        Instance(
            id="q2",
            task="fact_verification",
            query="Kenya won 3 medals.",
            table=make_table(),
            gold=GoldAnswer(label="REFUTES"),
            labels=("SUPPORTS", "REFUTES", "NOT ENOUGH INFO"),
        ),
    ]
    path = tmp_path / "data.jsonl"
    dump_instances(instances, str(path))
    back = load_instances(str(path))
    assert back == instances


def _instance_line(**table):
    data = instance_to_dict(
        Instance(id="q1", task="short_qa", query="q", table=make_table(),
                 gold=GoldAnswer(answers=("2",)))
    )
    data["table"].update(table)
    return json.dumps(data)


def _instance_with(**fields):
    return json.dumps({**json.loads(_instance_line()), **fields})


@pytest.mark.parametrize(
    "line,reason",
    [
        (_instance_line(headers="xyz", rows=["abc"]), "headers must be a list"),
        (_instance_line(rows=["abc"]), "row 0 must be a list"),
        (_instance_line(rows=[["1", "a", "b"], 5]), "table row 1 must be a list, got int"),
        (_instance_line(rows=5), "rows must be a list"),
        (json.dumps([1, 2]), "instance must be a JSON object"),
        (json.dumps({"id": "q1", "task": "short_qa", "query": "q", "table": []}),
         "table must be a JSON object"),
        (_instance_with(sentences=["abc"]), "sentence 0 must be a JSON object"),
        (_instance_with(tags=[1]), "tags must be a JSON object"),
        (_instance_with(gold=5), "gold must be a JSON object"),
        (_instance_with(gold={"answers": "24"}), "gold answers must be a list"),
        (_instance_with(labels=5), "labels must be a list"),
        ('{"id": "q1", "task"', "Expecting"),
        (_instance_with(gold={"answers": ["2"], "label": "SUPPORTS"}),
         "gold must carry exactly one of answers or label"),
        (_instance_with(gold={"answers": []}), "gold answers must not be empty"),
        (_instance_with(gold={"answers": [" "]}), "gold answers must not be blank"),
        (_instance_with(task="fact_verification", gold={"label": "  "}),
         "gold label must not be blank"),
        (_instance_with(task="fact_verification", gold={"answers": ["2"]}),
         "a fact_verification gold must carry 'label'"),
        (_instance_with(gold={"label": "SUPPORTS"}), "a short_qa gold must carry 'answers'"),
        (_instance_with(task="fact_verification", gold={"label": "entailed"},
                        labels=["entailed", "refuted"]),
         "labels ['entailed', 'refuted'] match neither true/false nor SUPPORTS/REFUTES/NOT ENOUGH INFO"),
        (_instance_with(task="fact_verification", gold={"label": "SUPPORTS"}, labels=[]),
         "labels [] match neither true/false nor SUPPORTS/REFUTES/NOT ENOUGH INFO"),
        (_instance_with(labels=["true", "false"]), "a short_qa instance takes no labels"),
        (_instance_with(task="free_qa", labels=["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"]),
         "a free_qa instance takes no labels"),
        (_instance_with(task="fact_verification", gold={"label": "entailed"}),
         "gold label 'entailed' is not one of SUPPORTS/REFUTES/NOT ENOUGH INFO"),
        (_instance_with(task="fact_verification", gold={"label": "SUPPORTS"}, labels=["True", "False"]),
         "gold label 'SUPPORTS' is not one of True/False"),
        (_instance_line(), "duplicate instance id 'q1'"),
    ],
    ids=["string-headers", "string-row", "number-row", "number-rows", "array-line", "array-table",
         "string-sentence", "list-tags", "number-gold", "string-answers", "number-labels", "torn-line",
         "gold-with-both", "empty-answers", "blank-answer", "blank-label",
         "verification-with-answers", "qa-with-label", "labels-of-neither-family", "empty-labels",
         "short-qa-with-labels", "free-qa-with-labels", "gold-outside-its-family",
         "gold-outside-its-labels", "repeated-id"],
)
def test_load_instances_names_malformed_lines(tmp_path, line, reason):
    path = tmp_path / "data.jsonl"
    path.write_text(_instance_line() + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_instances(str(path))
    assert str(info.value).startswith("%s:2: bad instance: " % path)
    assert reason in str(info.value)


def test_load_instances_refuses_a_table_without_columns(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(_instance_line() + "\n" + _instance_line(headers=[]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_instances(str(path))
    assert str(info.value) == "%s:2: bad instance: table needs at least one column" % path


# ---------------------------------------------------------------------------
# the stored grid text


# Cells with separators, escapes, line breaks, empty markers and non-ASCII text.
_stored_cell = st.text(alphabet="ab |\\\n-\u00e9\u6771 ", max_size=6) | st.sampled_from(
    ["|", "\\", "\\|", "\n", "-", "", " x ", "a\\", "\\ |", "Zo\u00eb", "\u6771\u4eac"]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    headers=st.lists(_stored_cell, min_size=1, max_size=4),
    body=st.lists(st.lists(_stored_cell, min_size=4, max_size=4), max_size=8),
)
@example(headers=["a"], body=[["\\"], ["|"]])
@example(headers=["a", "b"], body=[["a\\", "|b"], ["x\ny", ""]])
@example(headers=["a", "b"], body=[["x\n", "| y"], ["-", "\u00e9"]])
def test_rows_read_back_from_the_stored_text(headers, body):
    """``Table(h, r).rows`` is ``r`` trimmed, whichever split reads it back."""
    rows = [row[: len(headers)] for row in body]
    table = Table(headers, rows)
    trimmed = tuple(tuple(c.strip() for c in row) for row in rows)
    assert table.rows == trimmed
    assert tuple(table.rows) == trimmed
    assert table.headers == tuple(h.strip() for h in headers)
    assert serialize_for_prompt(table) == _serialize_reference(table, _joined_line)


def test_the_stored_text_is_the_prompt_rows_and_each_offset_ends_a_line():
    table = make_table(page_title="Goodwill Games")
    rows = table.rows
    assert type(rows) is GridRows
    assert serialize_for_prompt(table) == (
        "Page Title: Goodwill Games\n| Rank | Name | Nationality |\n" + rows.text
    )
    assert rows.text.split("\n") == [
        "| 1 | Jackline Kosgei | Kenya |",
        "| 2 | Eunice Cherono | Kenya |",
        "| 3 | Albina Ivanova | Russia |",
    ]
    assert list(rows.ends) == [31, 62, 94]
    assert rows.text[31] == rows.text[62] == "\n" and len(rows.text) == 94
    empty = Table(["a"], [])
    assert empty.rows.text == "" and len(empty.rows.ends) == 0
    assert serialize_for_prompt(empty) == "| a |"


def test_a_cell_with_a_line_break_keeps_its_row_whole():
    table = Table(["a", "b"], [["x\ny", "1"], ["z", "2"]])
    assert table.rows.text == "| x\ny | 1 |\n| z | 2 |"
    assert list(table.rows.ends) == [11, 21]
    assert table.rows == (("x\ny", "1"), ("z", "2"))
    assert truncate_to_budget(table, estimate_tokens("| a | b |\n| x\ny | 1 |")).rows == (
        ("x\ny", "1"),
    )


def test_rows_compare_as_tables_and_tuples():
    table = make_table()
    assert table == make_table()
    assert table.rows == make_table().rows
    assert table.rows != Table(["a", "b", "c"], [["1", "x", "y"]]).rows
    assert table.rows[0] == ("1", "Jackline Kosgei", "Kenya")
    assert table.rows[1:] == (("2", "Eunice Cherono", "Kenya"), ("3", "Albina Ivanova", "Russia"))
    assert hash(table) == hash(make_table())
    assert "Albina Ivanova" in repr(table)


def _holds_row_tuples(table):
    """Whether anything the table's rows refer to is a tuple of split rows."""
    return any(isinstance(ref, tuple) for ref in gc.get_referents(table.rows))


def test_a_loaded_table_holds_its_text_and_offsets_only(tmp_path):
    path = tmp_path / "data.jsonl"
    dump_instances([Instance(id="q1", task="short_qa", query="q", table=make_table())], str(path))
    (loaded,) = load_instances(str(path))
    rows = loaded.table.rows
    assert sorted(type(ref).__name__ for ref in gc.get_referents(rows)
                  if ref is not GridRows) == ["NoneType", "array", "bool", "str"]
    assert rows[2] == ("3", "Albina Ivanova", "Russia")
    assert len(rows) == 3 and list(rows) == list(make_table().rows)
    assert not _holds_row_tuples(loaded.table)


def test_only_a_working_copy_keeps_its_split_rows():
    table = make_table()
    cut = truncate_to_budget(table, estimate_tokens(serialize_for_prompt(table)) - 1)
    for t in (table, cut):
        assert t.rows[0] == ("1", "Jackline Kosgei", "Kenya")
        assert not _holds_row_tuples(t)
    own = working_copy(cut)
    assert own == cut and own.rows.text is cut.rows.text and own.rows.ends is cut.rows.ends
    first = own.rows[0]
    assert _holds_row_tuples(own) and own.rows[0] is first
    assert not _holds_row_tuples(cut)


def test_after_run_instance_the_loaded_table_holds_no_parsed_rows(tmp_path, monkeypatch):
    rows = [["%d" % i, "Player %d" % i, "Kenya" if i % 3 else "Russia"] for i in range(400)]
    instance = Instance(id="q1", task="short_qa", query="How many are from Kenya?",
                        table=Table(["Rank", "Name", "Nationality"], rows),
                        gold=GoldAnswer(answers=("266",)))
    path = tmp_path / "data.jsonl"
    dump_instances([instance], str(path))
    (loaded,) = load_instances(str(path))
    prompted = []

    def _build_task_prompt(work, **kwargs):
        prompted.append(work)
        return build_task_prompt(work, **kwargs)

    monkeypatch.setattr(orchestrator, "build_task_prompt", _build_task_prompt)
    for budget in (400, 0):  # truncated, and whole (no budget)
        replies = ReplayBackend.from_texts([
            "```sql\nSELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'\n```\nExecuted result:\n9",
            "\n\nThe final answer is 9.",
        ])
        outcome, trace = run_instance(loaded, replies, RunConfig(table_token_budget=budget))
        assert outcome.status == "ok"
        assert trace.rounds[0].execution_outcome == "ok"
        work = prompted.pop()
        assert work.table is not loaded.table and 0 < work.table.n_rows <= loaded.table.n_rows
        assert (work.table.n_rows < loaded.table.n_rows) == bool(budget)  # cut to the budget
        assert work.table.rows[0] is work.table.rows[0]  # the run's own copy keeps its rows
        assert not _holds_row_tuples(loaded.table)
    assert loaded.table.rows == instance.table.rows


def test_a_table_built_elsewhere_trims_and_coerces_as_before():
    table = Table(["a"], [[5], [" x "]])
    assert table.rows == (("5",), ("x",))
    assert table == Table(["a"], [["5"], ["x"]])
    assert table == Table(iter(["a"]), iter([[5], [" x "]]))
    assert table == Table(["a"], table.rows) == dataclasses.replace(table, caption=None)


def test_instance_dict_shape():
    instance = Instance(
        id="q1",
        task="short_qa",
        query="q",
        table=make_table(),
        gold=GoldAnswer(answers=("2", "3")),
    )
    data = instance_to_dict(instance)
    assert data["gold"] == {"answers": ["2", "3"]}
    assert "labels" not in data
    assert instance_from_dict(data) == instance
