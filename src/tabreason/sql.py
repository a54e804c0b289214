"""A small SQL SELECT dialect executed directly over in-memory tables.

The accepted grammar covers the statements models actually write for
single-table lookups:

    select    := SELECT [DISTINCT] projections FROM name [WHERE predicate] [;]
    projections := '*' | item (',' item)*
    item      := column [AS alias]
               | FN '(' ('*' | column) ')' [AS alias]    FN in COUNT SUM AVG MIN MAX
    predicate := disjunction of AND/OR/NOT terms with parentheses
    term      := column (= | != | <> | < | <= | > | >=) literal
               | column [NOT] LIKE 'pattern'              % any run, _ one char
               | column [NOT] IN '(' literal (',' literal)* ')'
    literal   := 'single-quoted string' | number          '' escapes a quote
    column    := bare_name | `backtick quoted, may contain spaces`

GROUP BY, ORDER BY, LIMIT, JOIN and friends are rejected with a syntax
error naming the unsupported clause.  The FROM name is accepted and
ignored; execution always targets the provided table.

Comparison semantics: when both sides coerce to numbers via
:func:`tabreason.tables.cell_as_number` the comparison is numeric,
otherwise it falls back to case-insensitive string comparison.  LIKE is
case-insensitive and must match the whole cell.  Aggregates skip cells
that fail numeric coercion, except COUNT which counts rows.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .tables import Table, cell_as_number, format_number

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


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    start: int
    end: int


_BARE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_TOKEN_RE = re.compile(r"\d+(?:\.\d*)?|\.\d+")
_TWO_CHAR_PUNCT = ("!=", "<=", ">=", "<>")
_ONE_CHAR_PUNCT = "(),*=<>;+-"


def tokenize(text: str) -> List[Token]:
    """Split a statement into tokens, keeping source positions."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            value, end = _scan_string(text, i)
            tokens.append(Token(STRING, value, i, end))
            i = end
            continue
        if ch == "`":
            close = text.find("`", i + 1)
            if close < 0:
                raise UnterminatedBacktick(
                    "unterminated backtick identifier at position %d" % i
                )
            tokens.append(Token(QIDENT, text[i + 1:close], i, close + 1))
            i = close + 1
            continue
        m = _NUMBER_TOKEN_RE.match(text, i)
        if m:
            tokens.append(Token(NUMBER, m.group(0), i, m.end()))
            i = m.end()
            continue
        m = _BARE_IDENT_RE.match(text, i)
        if m:
            tokens.append(Token(IDENT, m.group(0), i, m.end()))
            i = m.end()
            continue
        if text[i:i + 2] in _TWO_CHAR_PUNCT:
            tokens.append(Token(PUNCT, text[i:i + 2], i, i + 2))
            i += 2
            continue
        if ch in _ONE_CHAR_PUNCT:
            tokens.append(Token(PUNCT, ch, i, i + 1))
            i += 1
            continue
        raise SqlSyntaxError("unexpected character %r" % ch, i)
    tokens.append(Token(END, "", n, n))
    return tokens


def _scan_string(text: str, start: int) -> Tuple[str, int]:
    parts: List[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise UnterminatedString("unterminated string literal at position %d" % start)


# ---------------------------------------------------------------------------
# AST

Literal = Union[str, float]


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class ColumnItem:
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class AggregateCall:
    fn: str
    arg: Optional[str]  # None means '*'
    alias: Optional[str] = None


Projection = Union[Star, ColumnItem, AggregateCall]


@dataclass(frozen=True)
class Cmp:
    column: str
    op: str
    value: Literal


@dataclass(frozen=True)
class Like:
    column: str
    pattern: str


@dataclass(frozen=True)
class InList:
    column: str
    values: Tuple[Literal, ...]


@dataclass(frozen=True)
class Not:
    part: "Predicate"


@dataclass(frozen=True)
class And:
    parts: Tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple["Predicate", ...]


Predicate = Union[Cmp, Like, InList, Not, And, Or]


@dataclass(frozen=True)
class SqlQuery:
    projections: Tuple[Projection, ...]
    source: str
    where: Optional[Predicate] = None
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
        source = self.parse_name("table name")
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_or()
        self.accept_punct(";")
        tok = self.peek()
        if tok.kind != END:
            if tok.kind == IDENT and tok.value.upper() in UNSUPPORTED_CLAUSES:
                raise self.error("unsupported clause: %s" % tok.value.upper())
            raise self.error("unexpected token %r" % tok.value)
        return SqlQuery(
            projections=tuple(projections),
            source=source,
            where=where,
            distinct=distinct,
        )

    def parse_projections(self) -> List[Projection]:
        if self.accept_punct("*"):
            return [Star()]
        items: List[Projection] = [self.parse_projection_item()]
        while self.accept_punct(","):
            items.append(self.parse_projection_item())
        return items

    def parse_projection_item(self) -> Projection:
        tok = self.peek()
        if (
            tok.kind == IDENT
            and tok.value.upper() in AGGREGATES
            and self.tokens[self.pos + 1].kind == PUNCT
            and self.tokens[self.pos + 1].value == "("
        ):
            fn = self.advance().value.upper()
            self.expect_punct("(")
            arg: Optional[str]
            if self.accept_punct("*"):
                arg = None
            else:
                arg = self.parse_name("column name")
            self.expect_punct(")")
            alias = self.parse_alias()
            return AggregateCall(fn=fn, arg=arg, alias=alias)
        name = self.parse_name("column name")
        alias = self.parse_alias()
        return ColumnItem(name=name, alias=alias)

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

    def parse_or(self) -> Predicate:
        parts = [self.parse_and()]
        while self.accept_keyword("OR"):
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def parse_and(self) -> Predicate:
        parts = [self.parse_unary()]
        while self.accept_keyword("AND"):
            parts.append(self.parse_unary())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def parse_unary(self) -> Predicate:
        if self.accept_keyword("NOT"):
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Predicate:
        if self.accept_punct("("):
            inner = self.parse_or()
            self.expect_punct(")")
            return inner
        column = self.parse_name("column name")
        if self.accept_keyword("NOT"):
            if self.accept_keyword("LIKE"):
                return Not(self.parse_like(column))
            if self.accept_keyword("IN"):
                return Not(self.parse_in(column))
            raise self.error("expected LIKE or IN after NOT")
        if self.accept_keyword("LIKE"):
            return self.parse_like(column)
        if self.accept_keyword("IN"):
            return self.parse_in(column)
        tok = self.peek()
        if tok.kind == PUNCT and tok.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if tok.value == "<>" else tok.value
            return Cmp(column=column, op=op, value=self.parse_literal())
        raise self.error("expected comparison operator")

    def parse_like(self, column: str) -> Like:
        tok = self.peek()
        if tok.kind != STRING:
            raise self.error("LIKE pattern must be a quoted string")
        self.advance()
        return Like(column=column, pattern=tok.value)

    def parse_in(self, column: str) -> InList:
        self.expect_punct("(")
        values = [self.parse_literal()]
        while self.accept_punct(","):
            values.append(self.parse_literal())
        self.expect_punct(")")
        return InList(column=column, values=tuple(values))

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
    """Parse one SELECT statement, raising :class:`SqlSyntaxError` on failure."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# execution


def _normalize_header(name: str) -> str:
    return " ".join(name.split()).casefold()


class _Resolver:
    def __init__(self, table: Table) -> None:
        self.table = table
        self.by_name = {}
        for idx, header in enumerate(table.headers):
            key = _normalize_header(header)
            if key in self.by_name:
                logger.warning(
                    "duplicate column %r; using the first occurrence", header
                )
                continue
            self.by_name[key] = idx

    def index(self, name: str) -> int:
        key = _normalize_header(name)
        if key not in self.by_name:
            raise UnknownColumn("unknown column %r" % name)
        return self.by_name[key]


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


def _literal_as_text(value: Literal) -> str:
    return value if isinstance(value, str) else format_number(value)


def _compare(cell_text: str, op: str, value: Literal) -> bool:
    left_num = cell_as_number(cell_text)
    right_num = value if isinstance(value, float) else cell_as_number(value)
    if left_num is not None and right_num is not None:
        lhs: object = left_num
        rhs: object = right_num
    else:
        lhs = cell_text.casefold()
        rhs = _literal_as_text(value).casefold()
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise SqlError("unknown operator %r" % op)


def _eval_predicate(pred: Predicate, row: Sequence[str], resolver: _Resolver) -> bool:
    if isinstance(pred, Cmp):
        cell = row[resolver.index(pred.column)]
        return _compare(cell, pred.op, pred.value)
    if isinstance(pred, Like):
        cell = row[resolver.index(pred.column)]
        return _like_regex(pred.pattern.casefold()).fullmatch(cell.casefold()) is not None
    if isinstance(pred, InList):
        cell = row[resolver.index(pred.column)]
        return any(_compare(cell, "=", v) for v in pred.values)
    if isinstance(pred, Not):
        return not _eval_predicate(pred.part, row, resolver)
    if isinstance(pred, And):
        return all(_eval_predicate(p, row, resolver) for p in pred.parts)
    if isinstance(pred, Or):
        return any(_eval_predicate(p, row, resolver) for p in pred.parts)
    raise TypeError("unknown predicate node %r" % (pred,))


def _aggregate_header(call: AggregateCall, resolver: _Resolver) -> str:
    if call.alias:
        return call.alias
    if call.arg is None:
        return "%s(*)" % call.fn
    return "%s(%s)" % (call.fn, resolver.table.headers[resolver.index(call.arg)])


def _compute_aggregate(
    call: AggregateCall, rows: Sequence[Sequence[str]], resolver: _Resolver
) -> str:
    if call.fn == "COUNT":
        if call.arg is not None:
            resolver.index(call.arg)  # validate the column exists
        return str(len(rows))
    idx = resolver.index(call.arg) if call.arg is not None else None
    if idx is None:
        raise SqlSyntaxError("%s requires a column argument" % call.fn, 0)
    numbers = [
        n for n in (cell_as_number(row[idx]) for row in rows) if n is not None
    ]
    if not numbers:
        return ""
    if call.fn == "SUM":
        return format_number(sum(numbers))
    if call.fn == "AVG":
        return format_number(sum(numbers) / len(numbers))
    if call.fn == "MIN":
        return format_number(min(numbers))
    if call.fn == "MAX":
        return format_number(max(numbers))
    raise SqlError("unknown aggregate %r" % call.fn)


def execute(query: SqlQuery, table: Table) -> Table:
    """Run a parsed query against a table, returning a result table.

    The input table is never modified.  Row order follows the input for
    plain projections; aggregate queries return a single row.
    """
    resolver = _Resolver(table)
    if query.where is not None:
        rows = [r for r in table.rows if _eval_predicate(query.where, r, resolver)]
    else:
        rows = list(table.rows)

    has_aggregate = any(isinstance(p, AggregateCall) for p in query.projections)
    has_column = any(isinstance(p, (ColumnItem, Star)) for p in query.projections)
    if has_aggregate and has_column:
        raise AggregateMixedWithColumns(
            "aggregates cannot be mixed with plain columns"
        )

    if has_aggregate:
        headers = tuple(_aggregate_header(p, resolver) for p in query.projections)
        out_rows: Tuple[Tuple[str, ...], ...] = (
            tuple(_compute_aggregate(p, rows, resolver) for p in query.projections),
        )
        return Table(headers=headers, rows=out_rows)

    if len(query.projections) == 1 and isinstance(query.projections[0], Star):
        headers = table.headers
        indices = list(range(len(table.headers)))
    else:
        headers_list: List[str] = []
        indices = []
        for item in query.projections:
            assert isinstance(item, ColumnItem)
            idx = resolver.index(item.name)
            indices.append(idx)
            headers_list.append(item.alias or table.headers[idx])
        headers = tuple(headers_list)

    projected = [tuple(row[i] for i in indices) for row in rows]
    if query.distinct:
        projected = list(dict.fromkeys(projected))
    return Table(headers=headers, rows=tuple(projected))


def format_result(result: Table) -> str:
    """Render an execution result as pipe-separated lines, header first.

    An empty result keeps its header and shows ``(no rows)`` beneath it.
    """
    lines = ["| " + " | ".join(h.replace("|", "\\|") for h in result.headers) + " |"]
    if not result.rows:
        lines.append("(no rows)")
    else:
        for row in result.rows:
            lines.append("| " + " | ".join(c.replace("|", "\\|") for c in row) + " |")
    return "\n".join(lines)


def run_statement(sql_text: str, table: Table) -> Table:
    """Parse and execute in one step."""
    return execute(parse_select(sql_text), table)
