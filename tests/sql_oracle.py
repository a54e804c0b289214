"""Naive row-scan oracle plus a random query generator.

The oracle interprets a small query description (plain tuples and dicts,
never the engine's parsed query) directly over lists of strings,
re-implementing the documented semantics from scratch: first-match column
resolution after whitespace/case normalization, numeric comparison only
when both sides parse as numbers, case-insensitive full-match LIKE,
aggregates that skip non-numeric cells, and first-occurrence DISTINCT.  Equivalence tests parse
and execute the generated SQL text with the real engine and compare against
this interpreter.
"""

import math
import re

# ---------------------------------------------------------------------------
# independent value semantics


_DECIMAL = re.compile(r"(?:\d+\.?\d*|\.\d+)\Z")


def as_number(text):
    """Parse a cell the way the engine's coercion contract describes."""
    text = text.strip()
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
    if not _DECIMAL.match(text):
        return None
    value = sign * float(text)
    return value / 100.0 if percent else value


def fmt_number(value):
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _norm_header(name):
    return " ".join(name.split()).casefold()


def _resolve(headers, name):
    wanted = _norm_header(name)
    for idx, header in enumerate(headers):
        if _norm_header(header) == wanted:
            return idx
    raise KeyError(name)


def _literal_text(value):
    return value if isinstance(value, str) else fmt_number(value)


def _compare(cell, op, value):
    left = as_number(cell)
    right = value if isinstance(value, float) else as_number(value)
    if left is not None and right is not None:
        lhs, rhs = left, right
    else:
        lhs, rhs = cell.casefold(), _literal_text(value).casefold()
    return {
        "=": lhs == rhs,
        "!=": lhs != rhs,
        "<": lhs < rhs,
        "<=": lhs <= rhs,
        ">": lhs > rhs,
        ">=": lhs >= rhs,
    }[op]


def _like(cell, pattern):
    regex = []
    for ch in pattern.casefold():
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.fullmatch("".join(regex), cell.casefold(), re.DOTALL) is not None


def _matches(pred, row, headers):
    kind = pred[0]
    if kind == "cmp":
        _, column, op, value = pred
        return _compare(row[_resolve(headers, column)], op, value)
    if kind == "like":
        _, column, pattern = pred
        return _like(row[_resolve(headers, column)], pattern)
    if kind == "in":
        _, column, values = pred
        cell = row[_resolve(headers, column)]
        return any(_compare(cell, "=", v) for v in values)
    if kind == "not":
        return not _matches(pred[1], row, headers)
    if kind == "and":
        return all(_matches(p, row, headers) for p in pred[1])
    if kind == "or":
        return any(_matches(p, row, headers) for p in pred[1])
    raise ValueError(pred)


def oracle_execute(spec, headers, rows):
    """Evaluate a generated query description; returns (headers, rows)."""
    kept = [row for row in rows if spec["where"] is None or _matches(spec["where"], row, headers)]

    projections = spec["projections"]
    if projections and projections[0][0] == "agg":
        out = []
        names = []
        for _, fn, arg, alias in projections:
            if fn == "COUNT":
                if arg is not None:
                    _resolve(headers, arg)
                value = str(len(kept))
            else:
                idx = _resolve(headers, arg)
                numbers = [n for n in (as_number(r[idx]) for r in kept) if n is not None]
                if not numbers:
                    value = ""
                elif fn == "SUM":
                    value = fmt_number(sum(numbers))
                elif fn == "AVG":
                    value = fmt_number(sum(numbers) / len(numbers))
                elif fn == "MIN":
                    value = fmt_number(min(numbers))
                else:
                    value = fmt_number(max(numbers))
            out.append(value)
            if alias:
                names.append(alias)
            elif arg is None:
                names.append("%s(*)" % fn)
            else:
                names.append("%s(%s)" % (fn, headers[_resolve(headers, arg)]))
        return names, [out]

    if projections[0][0] == "star":
        indices = list(range(len(headers)))
        names = list(headers)
    else:
        indices = []
        names = []
        for _, name, alias in projections:
            idx = _resolve(headers, name)
            indices.append(idx)
            names.append(alias or headers[idx])
    projected = [[row[i] for i in indices] for row in kept]
    if spec["distinct"]:
        seen = set()
        unique = []
        for row in projected:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        projected = unique
    return names, projected


# ---------------------------------------------------------------------------
# random tables and queries


_WORDS = [
    "alpha", "Beta", "gamma ray", "delta", "Omega", "west", "North East",
    "w 21 - 20", "l 10 - 31", "november 16 , 2003", "total", "-", "",
    "Kenya", "russia", "100% wool", "n/a",
]

_HEADER_POOL = [
    "Name", "Rank", "Score", "score", "Left office", "Attendance",
    "Culinary P.O.V.", "date", "result", "Votes %", "Notes", "week",
]


def _random_cell(rng):
    roll = rng.random()
    if roll < 0.25:
        return str(rng.randint(-50, 9999))
    if roll < 0.40:
        return "%.2f" % rng.uniform(-100, 100)
    if roll < 0.50:
        return "%d%%" % rng.randint(0, 150)
    if roll < 0.58:
        return "{:,}".format(rng.randint(1000, 9000000))
    if roll < 0.65:
        return rng.choice(["", "-"])
    return rng.choice(_WORDS)


def random_table(rng, max_cols=8, max_rows=20):
    n_cols = rng.randint(1, max_cols)
    n_rows = rng.randint(0, max_rows)
    headers = rng.sample(_HEADER_POOL, n_cols)
    if n_cols >= 2 and rng.random() < 0.15:
        headers[-1] = headers[0].upper()  # duplicate after normalization
    rows = [[_random_cell(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    return headers, rows


def _quote_ident(name, rng):
    safe = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) and name.upper() not in {
        "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN", "AS",
        "COUNT", "SUM", "AVG", "MIN", "MAX",
    }
    if safe and rng.random() < 0.5:
        return name
    return "`%s`" % name


def _quote_string(value):
    return "'%s'" % value.replace("'", "''")


def _random_value(rng, headers, rows, idx):
    column_cells = [row[idx] for row in rows if row[idx].strip()]
    if column_cells and rng.random() < 0.6:
        return rng.choice(column_cells)
    if rng.random() < 0.5:
        return float(rng.randint(-20, 120))
    return rng.choice(_WORDS) or "x"


def _literal_sql(value):
    return _quote_string(value) if isinstance(value, str) else fmt_number(value)


def _random_like_pattern(rng, headers, rows, idx):
    cells = [row[idx] for row in rows if row[idx]]
    base = rng.choice(cells) if cells and rng.random() < 0.7 else rng.choice(_WORDS)
    if not base:
        base = "a"
    lo = rng.randint(0, max(0, len(base) - 1))
    hi = rng.randint(lo + 1, len(base))
    pattern = base[lo:hi]
    if rng.random() < 0.8:
        pattern = "%" + pattern
    if rng.random() < 0.8:
        pattern = pattern + "%"
    if pattern and rng.random() < 0.3:
        pos = rng.randrange(len(pattern))
        if pattern[pos] not in "%_":
            pattern = pattern[:pos] + "_" + pattern[pos + 1 :]
    return pattern


def _random_predicate(rng, headers, rows, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.18:
        parts = [_random_predicate(rng, headers, rows, depth + 1) for _ in range(rng.randint(2, 3))]
        return (rng.choice(["and", "or"]), parts)
    if depth < 2 and roll < 0.28:
        return ("not", _random_predicate(rng, headers, rows, depth + 1))
    idx = rng.randrange(len(headers))
    column = headers[idx]
    if roll < 0.55:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return ("cmp", column, op, _random_value(rng, headers, rows, idx))
    if roll < 0.8:
        return ("like", column, _random_like_pattern(rng, headers, rows, idx))
    values = [_random_value(rng, headers, rows, idx) for _ in range(rng.randint(1, 4))]
    return ("in", column, values)


def _predicate_sql(pred, rng):
    kind = pred[0]
    if kind == "cmp":
        _, column, op, value = pred
        shown = "<>" if op == "!=" and rng.random() < 0.3 else op
        return "%s %s %s" % (_quote_ident(column, rng), shown, _literal_sql(value))
    if kind == "like":
        _, column, pattern = pred
        keyword = rng.choice(["LIKE", "like"])
        return "%s %s %s" % (_quote_ident(column, rng), keyword, _quote_string(pattern))
    if kind == "in":
        _, column, values = pred
        return "%s IN (%s)" % (
            _quote_ident(column, rng),
            ", ".join(_literal_sql(v) for v in values),
        )
    if kind == "not":
        return "NOT (%s)" % _predicate_sql(pred[1], rng)
    joiner = " AND " if kind == "and" else " OR "
    return joiner.join("(%s)" % _predicate_sql(p, rng) for p in pred[1])


_ALIASES = ["total", "hits", "c", "Value2", "num_rows"]


def random_query(rng, headers, rows):
    """Build one supported query; returns (sql_text, spec)."""
    roll = rng.random()
    if roll < 0.25:
        count = rng.randint(1, 2)
        projections = []
        for _ in range(count):
            fn = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
            if fn == "COUNT" and rng.random() < 0.5:
                arg = None
            else:
                arg = rng.choice(headers)
            alias = rng.choice(_ALIASES) if rng.random() < 0.4 else None
            projections.append(("agg", fn, arg, alias))
        distinct = False
    elif roll < 0.4:
        projections = [("star",)]
        distinct = rng.random() < 0.3
    else:
        count = rng.randint(1, min(3, len(headers)))
        projections = []
        for name in rng.sample(headers, count):
            alias = rng.choice(_ALIASES) if rng.random() < 0.2 else None
            projections.append(("col", name, alias))
        distinct = rng.random() < 0.3
    where = _random_predicate(rng, headers, rows) if rng.random() < 0.75 and headers else None

    select_kw = rng.choice(["SELECT", "select", "Select"])
    parts = [select_kw]
    if distinct:
        parts.append(rng.choice(["DISTINCT", "distinct"]))
    rendered = []
    for item in projections:
        if item[0] == "star":
            rendered.append("*")
        elif item[0] == "col":
            _, name, alias = item
            text = _quote_ident(name, rng)
            if alias:
                text += " %s %s" % (rng.choice(["AS", "as"]), alias)
            rendered.append(text)
        else:
            _, fn, arg, alias = item
            shown_fn = fn if rng.random() < 0.7 else fn.lower()
            text = "%s(%s)" % (shown_fn, "*" if arg is None else _quote_ident(arg, rng))
            if alias:
                text += " %s %s" % (rng.choice(["AS", "as"]), alias)
            rendered.append(text)
    parts.append(", ".join(rendered))
    parts.append(rng.choice(["FROM", "from"]))
    parts.append(rng.choice(["w", "Table", "`my table`", "t1"]))
    if where is not None:
        parts.append(rng.choice(["WHERE", "where"]))
        parts.append(_predicate_sql(where, rng))
    sql_text = " ".join(parts)
    if rng.random() < 0.1:
        sql_text += " ;"
    if rng.random() < 0.2:
        sql_text = "  " + sql_text.replace(" FROM ", "\nFROM ").replace(" WHERE ", "\n  WHERE ")
    return sql_text, {"projections": projections, "where": where, "distinct": distinct}


def random_case(rng, max_cols=8, max_rows=20):
    """One full (table, query) pair for equivalence testing."""
    headers, rows = random_table(rng, max_cols=max_cols, max_rows=max_rows)
    sql_text, spec = random_query(rng, headers, rows)
    return headers, rows, sql_text, spec
