"""Tables: serialization and grid-line splitting, numeric coercion, truncation, JSONL."""

import dataclasses
import gc
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabreason.tables import (
    _TRUNCATE_CHUNK,
    BudgetTooSmall,
    GoldAnswer,
    Instance,
    SentenceContext,
    Table,
    _escape_cell,
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
)


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


def _serialize_reference(table):
    """Metadata lines, then every grid line escaped cell by cell."""
    lines = []
    if table.page_title:
        lines.append("Page Title: %s" % table.page_title)
    if table.section_title:
        lines.append("Section title: %s" % table.section_title)
    if table.caption:
        lines.append("Caption: %s" % table.caption)
    for values in (table.headers, *table.rows):
        lines.append("| " + " | ".join(_escape_cell(v) for v in values) + " |")
    return "\n".join(lines)


_grid_cell = st.text(alphabet="ab |\\", max_size=6) | _cell_text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    headers=st.lists(_grid_cell, min_size=1, max_size=4),
    body=st.lists(st.lists(_grid_cell, min_size=4, max_size=4), max_size=6),
    page_title=st.none() | _cell_text,
    caption=st.none() | _cell_text,
)
@example(headers=["a", "b"], body=[["x", "y"], ["1", "2"]], page_title=None, caption=None)
@example(headers=["a|b", "c"], body=[["x", "|"], ["1", "2"]], page_title="t", caption=None)
@example(headers=["a", "b"], body=[["\\|", " | "]], page_title=None, caption="c|")
def test_serialize_matches_per_cell_escaping(headers, body, page_title, caption):
    """Joining first and escaping only lines with extra pipes changes no byte."""
    table = Table(
        headers, [row[: len(headers)] for row in body], page_title=page_title, caption=caption
    )
    assert serialize_for_prompt(table) == _serialize_reference(table)


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
    """The result is the longest row prefix that fits, sharing the already-normalised rows."""
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
    gc.collect(0)  # untracks the new table's row tuples
    out = truncate_to_budget(table, budget)
    kept = out.n_rows
    assert type(out) is Table
    assert out == build(table.rows[:kept])
    assert estimate_tokens(serialize_for_prompt(out)) <= budget
    if kept < table.n_rows:
        assert estimate_tokens(serialize_for_prompt(build(table.rows[: kept + 1]))) > budget
    # Rows shared with the input stay out of GC tracking; rebuilt rows would not.
    assert not any(gc.is_tracked(row) for row in out.rows)


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


_pipe_cell = st.text(alphabet="ab |\\", max_size=5) | _cell_text


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    pool=st.lists(st.lists(_pipe_cell, min_size=3, max_size=3), min_size=1, max_size=6),
    n_rows=st.integers(min_value=2 * _TRUNCATE_CHUNK + 1, max_value=3 * _TRUNCATE_CHUNK),
    meta=st.tuples(*[st.none() | _pipe_cell] * 3),
    cut=st.integers(min_value=0, max_value=3 * _TRUNCATE_CHUNK),
    slack=st.integers(min_value=-2, max_value=2),
)
@example(pool=[["a\\", "|", "b\\|"]], n_rows=2 * _TRUNCATE_CHUNK + 1,
         meta=("t|", None, "c\\"), cut=_TRUNCATE_CHUNK, slack=0)
@example(pool=[["x", "y", "z"]], n_rows=3 * _TRUNCATE_CHUNK,
         meta=(None, None, None), cut=2 * _TRUNCATE_CHUNK, slack=0)
def test_chunked_truncation_keeps_the_rows_the_row_loop_keeps(pool, n_rows, meta, cut, slack):
    """Over several chunks, with metadata, cell pipes, escapes and trailing backslashes."""
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
    ],
    ids=["string-headers", "string-row", "number-row", "number-rows", "array-line", "array-table",
         "string-sentence", "list-tags", "number-gold", "string-answers", "number-labels", "torn-line"],
)
def test_load_instances_names_malformed_lines(tmp_path, line, reason):
    path = tmp_path / "data.jsonl"
    path.write_text(_instance_line() + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_instances(str(path))
    assert str(info.value).startswith("%s:2: bad instance: " % path)
    assert reason in str(info.value)


def test_loaded_rows_are_plain_strings_outside_gc_tracking(tmp_path):
    """Row tuples hold only ``str`` cells, shared or not, so the collector stops tracking them."""
    table = Table(
        ["Name", "Score"], [["row %d" % i, str(i * 11)] for i in range(40)]
    )
    instance = Instance(id="q1", task="short_qa", query="q", table=table,
                        gold=GoldAnswer(answers=("2",)))
    path = tmp_path / "data.jsonl"
    dump_instances([instance, instance], str(path))
    loaded = load_instances(str(path))
    cut = truncate_to_budget(loaded[0].table, 60)
    assert 0 < cut.n_rows < table.n_rows
    assert all(a is b for ra, rb in zip(loaded[0].table.rows, loaded[1].table.rows)
               for a, b in zip(ra, rb))
    gc.collect()
    for t in [inst.table for inst in loaded] + [cut]:
        assert not gc.is_tracked(t.headers)
        for row in t.rows:
            assert not gc.is_tracked(row)
            assert all(type(c) is str for c in row)


# ---------------------------------------------------------------------------
# cells shared within one load


def _load_lines(tmp_path, *tables):
    """Write one instance per table (given in JSON form) and load the file once."""
    path = tmp_path / "shared.jsonl"
    lines = [json.dumps({"id": "q%d" % i, "task": "short_qa", "query": "q", "table": table})
             for i, table in enumerate(tables)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_instances(str(path))


def test_equal_cells_of_one_load_are_one_object(tmp_path):
    first, second = _load_lines(
        tmp_path,
        {"headers": ["Name", "Nationality"], "rows": [["Kenya Kosgei", "Kenya"], ["Ivanova", " Kenya "]]},
        {"headers": ["Nationality", "Home"], "rows": [["Kenya", "Kenya"], ["Russia", "Kenya Kosgei"]]},
    )
    kenya = first.table.rows[0][1]
    assert kenya == "Kenya"
    assert first.table.rows[1][1] is kenya  # trimmed first, then shared
    assert second.table.rows[0][0] is kenya and second.table.rows[0][1] is kenya
    assert second.table.rows[1][1] is first.table.rows[0][0]
    assert second.table.headers[0] is first.table.headers[1]


def test_separate_loads_share_no_cell(tmp_path):
    """No cache outlives a load.  (CPython shares one-character strings anyway, so none is used.)"""
    table = Table(["Rank", "Name"], [["10", "Kosgei"], ["11", "Kosgei"]])
    path = tmp_path / "data.jsonl"
    dump_instances([Instance(id="q1", task="short_qa", query="q", table=table)] * 2, str(path))
    once, again = load_instances(str(path)), load_instances(str(path))

    def cell_ids(instances):
        return {id(c) for inst in instances
                for c in inst.table.headers + tuple(c for row in inst.table.rows for c in row)}

    assert once == again
    assert len(cell_ids(once)) == 5
    assert not cell_ids(once) & cell_ids(again)


def test_a_table_built_elsewhere_trims_and_coerces_as_before():
    table = Table(["a"], [[5], [" x "]])
    assert table.rows == (("5",), ("x",))
    assert table == Table(["a"], [["5"], ["x"]], memo={})
    assert table == Table(iter(["a"]), iter([[5], [" x "]]))


def test_a_large_load_keeps_one_object_per_distinct_value(tmp_path):
    n = 5000
    (instance,) = _load_lines(tmp_path, {
        "headers": ["Nationality", "Year", "Club", "Rank"],
        "rows": [["Nation %d" % (i % 37), str(1950 + i % 60), "Club %d" % (i % 211), str(10 + i % 90)]
                 for i in range(n)],
    })
    cells = [c for row in instance.table.rows for c in row]
    assert len(cells) == 4 * n
    assert len({id(c) for c in cells}) == len(set(cells)) == 37 + 60 + 211 + 90


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
