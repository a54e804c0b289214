"""A small SQL SELECT dialect executed directly over in-memory tables.

The accepted grammar covers the statements models actually write for
single-table lookups:

    select    := SELECT [DISTINCT] projections FROM name [WHERE predicate] [;]
    projections := '*' | item (',' item)*
    item      := column [AS alias]
               | FN '(' column ')' [AS alias]            FN in COUNT SUM AVG MIN MAX
               | COUNT '(' '*' ')' [AS alias]
    predicate := disjunction of AND/OR/NOT terms with parentheses
    term      := column (= | != | <> | < | <= | > | >=) literal
               | column [NOT] LIKE 'pattern'              % any run, _ one char
               | column [NOT] IN '(' literal (',' literal)* ')'
    literal   := 'single-quoted string' | number          '' escapes a quote
    column    := bare_name | `backtick quoted, may contain spaces`

GROUP BY, ORDER BY, LIMIT, JOIN and friends are rejected with a syntax
error naming the unsupported clause.  The FROM name is accepted and
ignored; execution always targets the provided table.

A parsed query holds its projections as :class:`Item` tuples and its
WHERE clause as a builder: a function that takes a table's columns and
returns the row test.  So one parsed query runs on any table, and
:func:`execute` resolves every column the query names (the WHERE clause
first, in source order, then the projections) before it reads any row.
An unknown column is always an error, also where AND/OR would
short-circuit or the table has no rows.

Comparison semantics: when both sides coerce to numbers via
:func:`tabreason.tables.cell_as_number` the comparison is numeric,
otherwise it falls back to case-insensitive string comparison.  LIKE is
case-insensitive and must match the whole cell.  Aggregates skip cells
that fail numeric coercion, except COUNT which counts rows.
"""

from __future__ import annotations

import logging
import operator
import re
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .tables import Table, cell_as_number, format_number, serialize_for_prompt

logger = logging.getLogger(__name__)


class SqlError(ValueError):
    """Base class for tokenizer, parser, and executor failures."""


class UnterminatedString(SqlError):
    pass


class UnterminatedBacktick(SqlError):
    pass


class SqlSyntaxError(SqlError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownColumn(SqlError):
    pass


class AggregateMixedWithColumns(SqlError):
    pass


# ---------------------------------------------------------------------------
# tokenizer

IDENT = "ident"
QIDENT = "qident"
STRING = "string"
NUMBER = "number"
PUNCT = "punct"
END = "end"

RESERVED = frozenset(
    ["SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN", "AS"]
)
AGGREGATES = frozenset(["COUNT", "SUM", "AVG", "MIN", "MAX"])
UNSUPPORTED_CLAUSES = frozenset(
    ["GROUP", "ORDER", "LIMIT", "JOIN", "HAVING", "UNION", "OFFSET",
     "INNER", "LEFT", "RIGHT", "OUTER", "CROSS", "EXCEPT", "INTERSECT"]
)


class Token(NamedTuple):
    kind: str
    value: str
    start: int
    end: int


# One alternative per token kind, named by it and tried in this order.  A
# string's closing quote is the first one not followed by another (``''``
# escapes a quote); "bad" is any character no kind can start at.
_TOKEN_RE = re.compile(
    r"""(?P<space>\s+)
      | (?P<string>'(?:[^']|'')*'(?!'))
      | (?P<qident>`[^`]*`)
      | (?P<number>\d+(?:\.\d*)?|\.\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[!<>]=|<>|[(),*=<>;+-])
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> List[Token]:
    """Split a statement into tokens, keeping source positions."""
    tokens: List[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        if kind == "space":
            continue
        if kind == "bad":
            if value == "'":
                raise UnterminatedString("unterminated string literal at position %d" % start)
            if value == "`":
                raise UnterminatedBacktick(
                    "unterminated backtick identifier at position %d" % start
                )
            raise SqlSyntaxError("unexpected character %r" % value, start)
        if kind == STRING:
            value = value[1:-1].replace("''", "'")
        elif kind == QIDENT:
            value = value[1:-1]
        tokens.append(Token(kind, value, start, m.end()))
    tokens.append(Token(END, "", len(text), len(text)))
    return tokens


Literal = Union[str, float]
_RowTest = Callable[[Sequence[str]], bool]
# A parsed WHERE clause: given a table's resolver, it returns the row test.
_Builder = Callable[["_Resolver"], _RowTest]


class Item(NamedTuple):
    """One projected column, or ``fn`` over it; ``COUNT(*)`` has no column."""

    column: Optional[str]
    alias: Optional[str] = None
    fn: Optional[str] = None


class SqlQuery(NamedTuple):
    projections: Tuple[Item, ...]  # empty for SELECT *
    where: Optional[_Builder] = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != END:
            self.pos += 1
        return tok

    def error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.peek().start)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == IDENT and tok.value.upper() == word

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error("expected %s" % word)

    def accept_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok.kind == PUNCT and tok.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise self.error("expected %r" % value)

    # grammar ---------------------------------------------------------------

    def parse(self) -> SqlQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        projections = self.parse_projections()
        self.expect_keyword("FROM")
        self.parse_name("table name")
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_or()
        self.accept_punct(";")
        tok = self.peek()
        if tok.kind != END:
            if tok.kind == IDENT and tok.value.upper() in UNSUPPORTED_CLAUSES:
                raise self.error("unsupported clause: %s" % tok.value.upper())
            raise self.error("unexpected token %r" % tok.value)
        return SqlQuery(projections, where, distinct)

    def parse_projections(self) -> Tuple[Item, ...]:
        if self.accept_punct("*"):
            return ()
        items = [self.parse_projection_item()]
        while self.accept_punct(","):
            items.append(self.parse_projection_item())
        return tuple(items)

    def parse_projection_item(self) -> Item:
        tok = self.peek()
        if (
            tok.kind == IDENT
            and tok.value.upper() in AGGREGATES
            and self.tokens[self.pos + 1].kind == PUNCT
            and self.tokens[self.pos + 1].value == "("
        ):
            fn = self.advance().value.upper()
            self.expect_punct("(")
            if fn != "COUNT" and self.peek().value == "*":
                raise self.error("%s requires a column argument" % fn)
            arg = None if self.accept_punct("*") else self.parse_name("column name")
            self.expect_punct(")")
            return Item(arg, self.parse_alias(), fn)
        name = self.parse_name("column name")
        return Item(name, self.parse_alias())

    def parse_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.parse_name("alias")
        return None

    def parse_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind == QIDENT:
            self.advance()
            return tok.value
        if tok.kind == IDENT and tok.value.upper() not in RESERVED:
            self.advance()
            return tok.value
        raise self.error("expected %s" % what)

    def parse_or(self) -> _Builder:
        parts = [self.parse_and()]
        while self.accept_keyword("OR"):
            parts.append(self.parse_and())
        return _joined(any, parts)

    def parse_and(self) -> _Builder:
        parts = [self.parse_unary()]
        while self.accept_keyword("AND"):
            parts.append(self.parse_unary())
        return _joined(all, parts)

    def parse_unary(self) -> _Builder:
        if self.accept_keyword("NOT"):
            return _negated(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> _Builder:
        if self.accept_punct("("):
            inner = self.parse_or()
            self.expect_punct(")")
            return inner
        column = self.parse_name("column name")
        if self.accept_keyword("NOT"):
            if self.accept_keyword("LIKE"):
                return _negated(self.parse_like(column))
            if self.accept_keyword("IN"):
                return _negated(self.parse_in(column))
            raise self.error("expected LIKE or IN after NOT")
        if self.accept_keyword("LIKE"):
            return self.parse_like(column)
        if self.accept_keyword("IN"):
            return self.parse_in(column)
        tok = self.peek()
        if tok.kind == PUNCT and tok.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if tok.value == "<>" else tok.value
            value = self.parse_literal()
            return lambda resolver: _compare_test(resolver.index(column), op, value)
        raise self.error("expected comparison operator")

    def parse_like(self, column: str) -> _Builder:
        tok = self.peek()
        if tok.kind != STRING:
            raise self.error("LIKE pattern must be a quoted string")
        self.advance()
        regex = _like_regex(tok.value.casefold())

        def build(resolver: _Resolver) -> _RowTest:
            idx = resolver.index(column)
            return lambda row: regex.fullmatch(row[idx].casefold()) is not None

        return build

    def parse_in(self, column: str) -> _Builder:
        self.expect_punct("(")
        values = [self.parse_literal()]
        while self.accept_punct(","):
            values.append(self.parse_literal())
        self.expect_punct(")")

        def build(resolver: _Resolver) -> _RowTest:
            tests = [_compare_test(resolver.index(column), "=", v) for v in values]
            return lambda row: any(t(row) for t in tests)

        return build

    def parse_literal(self) -> Literal:
        tok = self.peek()
        if tok.kind == STRING:
            self.advance()
            return tok.value
        sign = 1.0
        if tok.kind == PUNCT and tok.value in ("+", "-"):
            sign = -1.0 if tok.value == "-" else 1.0
            self.advance()
            tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return sign * float(tok.value)
        raise self.error("expected a string or numeric literal")


def parse_select(text: str) -> SqlQuery:
    """Parse one SELECT statement, raising :class:`SqlSyntaxError` on failure.

    No table is needed: the WHERE clause is held as a builder that
    :func:`execute` hands a table's columns to get the row test.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# execution


def _normalize_header(name: str) -> str:
    return " ".join(name.split()).casefold()


class _Resolver:
    def __init__(self, table: Table) -> None:
        self.by_name: Dict[str, List[int]] = {}
        for idx, header in enumerate(table.headers):
            self.by_name.setdefault(_normalize_header(header), []).append(idx)

    def index(self, name: str) -> int:
        found = self.by_name.get(_normalize_header(name))
        if not found:
            raise UnknownColumn("unknown column %r" % name)
        if len(found) > 1:
            logger.warning("duplicate column %r; using the first occurrence", name)
        return found[0]


def _like_regex(pattern: str) -> "re.Pattern[str]":
    out: List[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare_test(idx: int, op: str, value: Literal) -> _RowTest:
    """Test cell ``idx`` against a literal coerced once, to a number and to casefolded text."""
    test = _OPERATORS[op]
    number = value if isinstance(value, float) else cell_as_number(value)
    text = (value if isinstance(value, str) else format_number(value)).casefold()

    def check(row: Sequence[str]) -> bool:
        cell = row[idx]
        left = cell_as_number(cell) if number is not None else None
        if left is not None:
            return test(left, number)
        return test(cell.casefold(), text)

    return check


def _joined(combine: Callable[..., bool], parts: List[_Builder]) -> _Builder:
    """AND (``all``) or OR (``any``) of parts, whose columns resolve in source order."""
    if len(parts) == 1:
        return parts[0]

    def build(resolver: _Resolver) -> _RowTest:
        tests = [part(resolver) for part in parts]
        return lambda row: combine(t(row) for t in tests)

    return build


def _negated(part: _Builder) -> _Builder:
    def build(resolver: _Resolver) -> _RowTest:
        test = part(resolver)
        return lambda row: not test(row)

    return build


# COUNT counts rows; the others reduce the numbers a column coerces to.
_NUMERIC_AGGREGATES = {
    "SUM": sum,
    "AVG": lambda ns: sum(ns) / len(ns),
    "MIN": min,
    "MAX": max,
}


def _aggregate(fn: str, idx: Optional[int], rows: Sequence[Sequence[str]]) -> str:
    """The value of one aggregate column; ``idx`` is None for ``COUNT(*)``."""
    if fn == "COUNT":
        return str(len(rows))
    numbers = [n for n in (cell_as_number(row[idx]) for row in rows) if n is not None]
    return format_number(_NUMERIC_AGGREGATES[fn](numbers)) if numbers else ""


def execute(query: SqlQuery, table: Table) -> Table:
    """Run a parsed query against a table, returning a result table.

    Every column the query names is resolved against this table before
    any row is read: the WHERE clause first, in source order, then the
    projections.  The input table is never modified.  Row order follows
    the input for plain projections; aggregate queries return a single row.
    """
    resolver = _Resolver(table)
    keep = None if query.where is None else query.where(resolver)
    items = query.projections
    n_aggregates = sum(item.fn is not None for item in items)
    if 0 < n_aggregates < len(items):
        raise AggregateMixedWithColumns(
            "aggregates cannot be mixed with plain columns"
        )
    if items:
        indices: Sequence[Optional[int]] = [
            None if item.column is None else resolver.index(item.column) for item in items
        ]
        shown = ["*" if i is None else table.headers[i] for i in indices]
        headers: Sequence[str] = [
            item.alias or (name if item.fn is None else "%s(%s)" % (item.fn, name))
            for item, name in zip(items, shown)
        ]
    else:  # SELECT *
        indices, headers = range(len(table.headers)), table.headers

    rows = table.rows if keep is None else [r for r in table.rows if keep(r)]
    if n_aggregates:
        values = tuple(_aggregate(item.fn, i, rows) for item, i in zip(items, indices))
        return Table(headers=headers, rows=(values,))
    projected = [tuple(row[i] for i in indices) for row in rows]
    if query.distinct:
        projected = list(dict.fromkeys(projected))
    return Table(headers=headers, rows=tuple(projected))


def format_result(result: Table) -> str:
    """Render an execution result as pipe-separated lines, header first.

    An empty result keeps its header and shows ``(no rows)`` beneath it.
    """
    text = serialize_for_prompt(result)
    return text if result.n_rows else text + "\n(no rows)"


def run_statement(sql_text: str, table: Table) -> Table:
    """Parse and execute in one step."""
    return execute(parse_select(sql_text), table)
