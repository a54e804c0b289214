"""SQL engine: parsing, execution semantics, errors, oracle equivalence."""

import logging
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabreason.sql import (
    END,
    IDENT,
    NUMBER,
    PUNCT,
    QIDENT,
    STRING,
    AggregateMixedWithColumns,
    SqlError,
    SqlSyntaxError,
    Token,
    UnknownColumn,
    UnterminatedBacktick,
    UnterminatedString,
    execute,
    format_result,
    parse_select,
    run_statement,
    tokenize,
)
from tabreason.tables import Table

from sql_oracle import oracle_execute, random_case


TABLE = Table(
    ["Rank", "Name", "Nationality", "Time", "Votes %"],
    [
        ["1", "Jackline Kosgei", "Kenya", "2:23:07", "43%"],
        ["2", "Eunice Cherono", "Kenya", "2:23:10", "21%"],
        ["3", "Albina Ivanova", "Russia", "2:23:19", "12%"],
        ["4", "Sylvia Skvortsova", "Russia", "2:24:09", ""],
        ["-", "Lornah Kiplagat", "Netherlands", "", "24%"],
    ],
    caption="marathon results",
)


def grid(result: Table):
    return [list(row) for row in result.rows]


# ---------------------------------------------------------------------------
# projections


def test_select_single_column():
    result = run_statement("SELECT `Name` FROM w WHERE `Nationality` = 'Russia'", TABLE)
    assert result.headers == ("Name",)
    assert grid(result) == [["Albina Ivanova"], ["Sylvia Skvortsova"]]


def test_select_star_keeps_all_columns_and_order():
    result = run_statement("SELECT * FROM w WHERE `Rank` > 2", TABLE)
    assert result.headers == TABLE.headers
    assert [row[1] for row in result.rows] == ["Albina Ivanova", "Sylvia Skvortsova"]


def test_multiple_columns_preserve_projection_order():
    result = run_statement("SELECT `Time`, `Rank` FROM w WHERE `Rank` = 1", TABLE)
    assert result.headers == ("Time", "Rank")
    assert grid(result) == [["2:23:07", "1"]]


def test_unquoted_identifiers_and_case_insensitive_keywords():
    result = run_statement("select name from w where nationality = 'Kenya'", TABLE)
    assert result.headers == ("Name",)
    assert len(result.rows) == 2


def test_header_resolution_ignores_case_and_inner_whitespace():
    result = run_statement("SELECT `votes  %` FROM w WHERE `Rank` = 3", TABLE)
    assert result.headers == ("Votes %",)
    assert grid(result) == [["12%"]]


def test_duplicate_headers_resolve_to_first_and_warn(caplog):
    table = Table(
        ["Rank", "Score", "score"], [["1", "1", "10"], ["2", "2", "20"]]
    )
    with caplog.at_level(logging.WARNING, logger="tabreason.sql"):
        result = run_statement("SELECT `score` FROM w", table)
    assert grid(result) == [["1"], ["2"]]
    assert any("duplicate column" in rec.message for rec in caplog.records)
    # a query that never names the duplicated header is not warned about
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tabreason.sql"):
        result = run_statement("SELECT `Rank` FROM w", table)
    assert grid(result) == [["1"], ["2"]]
    assert caplog.records == []


def test_distinct_keeps_first_occurrence_order():
    result = run_statement("SELECT DISTINCT `Nationality` FROM w", TABLE)
    assert grid(result) == [["Kenya"], ["Russia"], ["Netherlands"]]


def test_distinct_applies_to_whole_projected_tuple():
    table = Table(["a", "b"], [["1", "x"], ["1", "y"], ["1", "x"]])
    result = run_statement("SELECT DISTINCT `a`, `b` FROM w", table)
    assert grid(result) == [["1", "x"], ["1", "y"]]


def test_trailing_semicolon_is_allowed():
    assert run_statement("SELECT `Name` FROM w;", TABLE).headers == ("Name",)


# ---------------------------------------------------------------------------
# predicates


@pytest.mark.parametrize(
    "sql,names",
    [
        ("SELECT `Name` FROM w WHERE `Rank` >= 3", ["Albina Ivanova", "Sylvia Skvortsova"]),
        # "-" does not coerce, so it falls back to string order: "-" < "2"
        ("SELECT `Name` FROM w WHERE `Rank` < 2", ["Jackline Kosgei", "Lornah Kiplagat"]),
        ("SELECT `Name` FROM w WHERE `Rank` != 1 AND `Nationality` = 'Kenya'", ["Eunice Cherono"]),
        ("SELECT `Name` FROM w WHERE `Rank` <> 1 AND `Nationality` = 'Kenya'", ["Eunice Cherono"]),
        ("SELECT `Name` FROM w WHERE `Rank` = 1 OR `Rank` = 3", ["Jackline Kosgei", "Albina Ivanova"]),
        ("SELECT `Name` FROM w WHERE NOT `Nationality` = 'Kenya' AND `Rank` <= 3", ["Albina Ivanova", "Lornah Kiplagat"]),
        ("SELECT `Name` FROM w WHERE (`Rank` = 1 OR `Rank` = 2) AND `Nationality` = 'Kenya'", ["Jackline Kosgei", "Eunice Cherono"]),
        ("SELECT `Name` FROM w WHERE `Nationality` IN ('Russia', 'Netherlands') AND `Rank` = 4", ["Sylvia Skvortsova"]),
        ("SELECT `Name` FROM w WHERE `Nationality` NOT IN ('Kenya', 'Russia')", ["Lornah Kiplagat"]),
        ("SELECT `Name` FROM w WHERE `Name` LIKE '%kosgei%'", ["Jackline Kosgei"]),
        ("SELECT `Name` FROM w WHERE `Name` LIKE 'j%'", ["Jackline Kosgei"]),
        ("SELECT `Name` FROM w WHERE `Name` LIKE '_unice%'", ["Eunice Cherono"]),
        ("SELECT `Name` FROM w WHERE `Name` NOT LIKE '%a%'", ["Eunice Cherono"]),
        ("SELECT `Name` FROM w WHERE `Time` = ''", ["Lornah Kiplagat"]),
    ],
)
def test_where_filtering(sql, names):
    result = run_statement(sql, TABLE)
    assert grid(result) == [[n] for n in names]


def test_like_is_full_match_not_substring():
    table = Table(["a"], [["abc"], ["xabcx"]])
    assert grid(run_statement("SELECT `a` FROM w WHERE `a` LIKE 'abc'", table)) == [["abc"]]
    assert grid(run_statement("SELECT `a` FROM w WHERE `a` LIKE '%abc%'", table)) == [["abc"], ["xabcx"]]


def test_comparison_is_numeric_only_when_both_sides_coerce():
    table = Table(["v"], [["9"], ["10"], ["x10"]])
    # "9" and "10" compare numerically; "x10" falls back to "x10" > "9"
    assert grid(run_statement("SELECT `v` FROM w WHERE `v` > 9", table)) == [
        ["10"],
        ["x10"],
    ]
    # a numeric-looking string literal still compares numerically
    assert grid(run_statement("SELECT `v` FROM w WHERE `v` > '1'", table)) == [
        ["9"],
        ["10"],
        ["x10"],
    ]


def test_percent_and_comma_cells_compare_numerically():
    assert grid(
        run_statement("SELECT `Name` FROM w WHERE `Votes %` > 0.2", TABLE)
    ) == [["Jackline Kosgei"], ["Eunice Cherono"], ["Lornah Kiplagat"]]
    table = Table(["n"], [["2,000"], ["30"]])
    assert grid(run_statement("SELECT `n` FROM w WHERE `n` >= 2000", table)) == [["2,000"]]


def test_string_comparison_is_case_insensitive():
    assert len(run_statement("SELECT `Name` FROM w WHERE `Nationality` = 'KENYA'", TABLE).rows) == 2


def test_quote_escaping_in_string_literals():
    table = Table(["name"], [["O'Brien"], ["Smith"]])
    result = run_statement("SELECT `name` FROM w WHERE `name` = 'O''Brien'", table)
    assert grid(result) == [["O'Brien"]]


# ---------------------------------------------------------------------------
# aggregates


@pytest.mark.parametrize(
    "sql,header,value",
    [
        ("SELECT COUNT(*) FROM w", "COUNT(*)", "5"),
        ("SELECT COUNT(`Name`) FROM w", "COUNT(Name)", "5"),
        ("SELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'", "COUNT(*)", "2"),
        ("SELECT SUM(`rank`) FROM w", "SUM(Rank)", "10"),
        ("SELECT AVG(`Rank`) FROM w", "AVG(Rank)", "2.5"),
        ("SELECT MIN(`Rank`) FROM w", "MIN(Rank)", "1"),
        ("SELECT MAX(`Votes %`) FROM w", "MAX(Votes %)", "0.43"),
        ("SELECT COUNT(*) AS n FROM w", "n", "5"),
    ],
)
def test_aggregates(sql, header, value):
    result = run_statement(sql, TABLE)
    assert result.headers == (header,)
    assert grid(result) == [[value]]


def test_count_counts_all_rows_even_non_numeric():
    # Rank column has a "-" cell; COUNT does not skip it.
    result = run_statement("SELECT COUNT(`Rank`) FROM w", TABLE)
    assert grid(result) == [["5"]]
    # but SUM does skip it
    assert grid(run_statement("SELECT SUM(`Rank`) FROM w", TABLE)) == [["10"]]


def test_aggregate_over_no_coercible_values_is_empty_cell():
    result = run_statement("SELECT SUM(`Time`) FROM w", TABLE)
    assert grid(result) == [[""]]
    result = run_statement("SELECT AVG(`Rank`) FROM w WHERE `Rank` > 100", TABLE)
    assert grid(result) == [[""]]


def test_count_star_of_empty_selection_is_zero():
    result = run_statement("SELECT COUNT(*) FROM w WHERE `Rank` > 100", TABLE)
    assert grid(result) == [["0"]]


def test_multiple_aggregates_in_one_statement():
    result = run_statement("SELECT MIN(`Rank`), MAX(`Rank`) FROM w", TABLE)
    assert result.headers == ("MIN(Rank)", "MAX(Rank)")
    assert grid(result) == [["1", "4"]]


def test_aggregates_cannot_mix_with_plain_columns():
    with pytest.raises(AggregateMixedWithColumns):
        run_statement("SELECT `Name`, COUNT(*) FROM w", TABLE)


# ---------------------------------------------------------------------------
# errors


def test_unknown_column_reports_name():
    with pytest.raises(UnknownColumn) as exc_info:
        run_statement("SELECT `Publisher` FROM w", TABLE)
    assert "Publisher" in str(exc_info.value)


def test_unknown_column_in_where_clause():
    with pytest.raises(UnknownColumn):
        run_statement("SELECT `Name` FROM w WHERE `Points` = 1", TABLE)


@pytest.mark.parametrize(
    "sql,table",
    [
        ("SELECT `Name` FROM w WHERE `Name` LIKE '%' OR `Points` = 2", TABLE),
        ("SELECT `Name` FROM w WHERE `Rank` > 99 AND `Points` = 2", TABLE),
        ("SELECT `Name` FROM w WHERE `Points` = 1", Table(TABLE.headers, [])),
        ("SELECT `Name`, COUNT(*) FROM w WHERE `Points` = 1", TABLE),
        ("SELECT `Name` FROM w WHERE `Points` = 1 OR `Goals` = 2", TABLE),
        ("SELECT `Name` FROM w WHERE NOT `Points` IN (1) AND `Goals` NOT LIKE 'x'", TABLE),
    ],
    ids=[
        "or-short-circuit",
        "and-short-circuit",
        "zero-rows",
        "before-aggregate-mixing",
        "first-unknown-named",
        "under-not-in-and",
    ],
)
def test_unknown_where_column_fails_whatever_the_rows(sql, table):
    """Every column a query names is resolved before any row is read."""
    with pytest.raises(UnknownColumn) as exc_info:
        run_statement(sql, table)
    assert "Points" in str(exc_info.value)


def test_count_of_unknown_column_is_checked():
    with pytest.raises(UnknownColumn):
        run_statement("SELECT COUNT(`Points`) FROM w", TABLE)


@pytest.mark.parametrize("fn", ["SUM", "AVG", "MIN", "MAX"])
def test_numeric_aggregate_of_star_fails_at_the_star(fn):
    sql = "SELECT %s(*) FROM w" % fn
    with pytest.raises(SqlSyntaxError) as exc_info:
        parse_select(sql)
    assert exc_info.value.position == sql.index("*")
    assert "%s requires a column argument" % fn in str(exc_info.value)


@pytest.mark.parametrize(
    "sql",
    [
        "DELETE FROM w",
        "SELECT `Name` FROM",
        "SELECT FROM w",
        "SELECT `Name` `Rank` FROM w",
        "SELECT `Name` FROM w WHERE",
        "SELECT `Name` FROM w WHERE `Rank` =",
        "SELECT `Name` FROM w WHERE `Rank` IN ()",
        "SELECT `Name` FROM w WHERE (`Rank` = 1",
        "SELECT `Name` FROM w extra",
        "SELECT *, `Name` FROM w",
    ],
)
def test_malformed_statements_raise(sql):
    with pytest.raises(SqlError):
        run_statement(sql, TABLE)


@pytest.mark.parametrize(
    "sql,clause",
    [
        ("SELECT `Name` FROM w ORDER BY `Rank`", "ORDER"),
        ("SELECT `Nationality`, COUNT(*) FROM w GROUP BY `Nationality`", "GROUP"),
        ("SELECT `Name` FROM w LIMIT 3", "LIMIT"),
        ("SELECT `Name` FROM w JOIN t2", "JOIN"),
        ("SELECT `Name` FROM w WHERE `Rank` = 1 HAVING 1", "HAVING"),
        # the syntax error comes before the unknown column is looked up
        ("SELECT `Points` FROM w ORDER BY `Rank`", "ORDER"),
    ],
)
def test_unsupported_clauses_name_the_clause(sql, clause):
    with pytest.raises(SqlSyntaxError) as exc_info:
        run_statement(sql, TABLE)
    assert ("unsupported clause: %s" % clause) in str(exc_info.value)


@pytest.mark.parametrize(
    "where,message",
    [
        ("a NOT = 1", "expected LIKE or IN after NOT (at position 28)"),
        ("a 1", "expected comparison operator (at position 24)"),
        ("b LIKE 1", "LIKE pattern must be a quoted string (at position 29)"),
    ],
)
def test_a_malformed_condition_says_what_was_expected_and_where(where, message):
    with pytest.raises(SqlSyntaxError) as exc_info:
        parse_select("SELECT a FROM w WHERE " + where)
    assert str(exc_info.value) == message


def test_unterminated_string_literal():
    with pytest.raises(SqlError):
        run_statement("SELECT `Name` FROM w WHERE `Name` = 'open", TABLE)


def test_unterminated_backtick_identifier():
    with pytest.raises(SqlError):
        run_statement("SELECT `Name FROM w", TABLE)


def test_from_source_name_is_not_validated():
    # the statement runs against the supplied table regardless of the name
    for source in ("w", "t1", "`my table`", "results_2001"):
        result = run_statement("SELECT `Name` FROM %s WHERE `Rank` = 1" % source, TABLE)
        assert grid(result) == [["Jackline Kosgei"]]


# ---------------------------------------------------------------------------
# purity and formatting


def test_execute_does_not_mutate_the_table():
    table = Table(["a"], [["1"], ["2"]])
    before = [list(r) for r in table.rows]
    execute(parse_select("SELECT `a` FROM w WHERE `a` = '1'"), table)
    assert [list(r) for r in table.rows] == before


def test_one_parsed_query_resolves_columns_per_table():
    query = parse_select("SELECT `Name` FROM w WHERE `Rank` > 1")
    first = Table(["Rank", "Name"], [["1", "a"], ["2", "b"]])
    second = Table(["Name", "Note", "Rank"], [["c", "x", "3"], ["d", "y", "0"]])
    assert grid(execute(query, first)) == [["b"]]
    assert grid(execute(query, second)) == [["c"]]
    assert grid(execute(query, first)) == [["b"]]


def test_format_result_pipe_grid():
    result = run_statement("SELECT `Name`, `Rank` FROM w WHERE `Rank` IN (1, 2)", TABLE)
    assert format_result(result) == (
        "| Name | Rank |\n"
        "| Jackline Kosgei | 1 |\n"
        "| Eunice Cherono | 2 |"
    )


def test_format_result_empty_selection():
    result = run_statement("SELECT `Name` FROM w WHERE `Rank` > 100", TABLE)
    assert format_result(result) == "| Name |\n(no rows)"


# ---------------------------------------------------------------------------
# randomized equivalence against the independent oracle


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_matches_naive_oracle(seed):
    """The engine agrees with a naive row-scan interpreter on random queries."""
    headers, rows, sql_text, spec = random_case(random.Random(seed))
    expected_headers, expected_rows = oracle_execute(spec, headers, rows)
    result = run_statement(sql_text, Table(headers, rows))
    assert result.headers == tuple(expected_headers)
    assert grid(result) == [list(r) for r in expected_rows]


# ---------------------------------------------------------------------------
# the tokenizer against the per-character scanner it replaced


def _tokenize_reference(text):
    """The per-character scanner: one branch per token kind, tried in order."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            parts = []
            j = i + 1
            while True:
                if j >= n:
                    raise UnterminatedString("unterminated string literal at position %d" % i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token(STRING, "".join(parts), i, j + 1))
            i = j + 1
            continue
        if ch == "`":
            close = text.find("`", i + 1)
            if close < 0:
                raise UnterminatedBacktick("unterminated backtick identifier at position %d" % i)
            tokens.append(Token(QIDENT, text[i + 1:close], i, close + 1))
            i = close + 1
            continue
        for kind, pattern in ((NUMBER, r"\d+(?:\.\d*)?|\.\d+"), (IDENT, r"[A-Za-z_][A-Za-z0-9_]*")):
            m = re.compile(pattern).match(text, i)
            if m:
                tokens.append(Token(kind, m.group(0), i, m.end()))
                i = m.end()
                break
        else:
            if text[i:i + 2] in ("!=", "<=", ">=", "<>"):
                tokens.append(Token(PUNCT, text[i:i + 2], i, i + 2))
                i += 2
            elif ch in "(),*=<>;+-":
                tokens.append(Token(PUNCT, ch, i, i + 1))
                i += 1
            else:
                raise SqlSyntaxError("unexpected character %r" % ch, i)
    tokens.append(Token(END, "", n, n))
    return tokens


def _tokens_or_error(tokenize_fn, text):
    try:
        return [(t.kind, t.value, t.start, t.end) for t in tokenize_fn(text)]
    except SqlError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_TOKEN_PIECES = (
    "'", "''", "'''", "`", "``", "!=", "<>", "<=", ">=", "<", ">", "=", "!", "+", "-",
    "1", "07", "2.5", "3.", ".", ".5", "\u0663", "\u00a0", " ", "\t", "\n", "\x1c",
    "a", "_b", "x9", "SELECT", "\u00e9", "(", ")", ",", "*", ";", "#", "?", '"', "\\",
)


@st.composite
def _token_inputs(draw):
    """An oracle statement with random pieces spliced in, or pieces alone."""
    text = ""
    if draw(st.booleans()):
        text = random_case(random.Random(draw(st.integers(0, 2**32 - 1))))[2]
    for piece in draw(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=12)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    return text


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_token_inputs())
def test_tokenizer_matches_the_per_character_reference(text):
    """The same tokens, or the same error class, message and position."""
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_tokenize_reference, text)


def test_tokenizer_matches_the_reference_on_the_oracle_statements():
    rng = random.Random(20240517)
    for _ in range(500):
        sql_text = random_case(rng)[2]
        assert _tokens_or_error(tokenize, sql_text) == _tokens_or_error(_tokenize_reference, sql_text)
