"""JSONL files: one JSON object per line, and the records they hold.

Every file the package reads or writes by lines (instances, traces,
outcomes, replay scripts, candidates and training pairs) goes through
:func:`read_jsonl` and :func:`write_jsonl`, and every other file the CLI
reads or writes (a run config, a table, a report) through :func:`open_text`
or :func:`read_json`, so the error rules live here:

* a file that cannot be opened, read or written, or that :func:`check_writable`
  finds could not be written, raises :class:`IoFailure`, an ``OSError``:
  ``cannot read PATH: ...`` or ``cannot write PATH: ...``;
* a write that fails partway, in the file or in the records given to it,
  removes the file it began (a device or a pipe stays);
* a line that is not JSON, is not a JSON object, or that the record parser
  rejects with ``ValueError``, ``KeyError`` or ``TypeError`` raises
  ``ValueError("path:line: bad <what>: ...")``; a whole-file JSON document
  fails the same way, as ``path: bad <what>: ...``.

Blank lines are skipped on read.  Each record is written as
``json.dumps(record, ensure_ascii=False)`` and a newline, so non-ASCII
text is kept verbatim.

Which JSON value may stand in which record field is decided here as well,
by :func:`from_fields` and its mirror image :func:`to_fields`, from the
field annotations of a frozen dataclass: ``str``, ``int`` (a ``bool`` is
not one), ``bool``, ``Optional[X]``, ``Tuple[X, ...]`` as a JSON list and
nested records as JSON objects.  Rules beyond shape stay in each record's
``__post_init__``, a settings record's as :func:`check_fields` rules.  The
instance format, which coerces its values, checks them with :func:`require`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import typing
from typing import Callable, Dict, Iterable, Iterator, List, TextIO, Tuple, Type, TypeVar, Union

T = TypeVar("T")


class IoFailure(OSError):
    """A file could not be opened, read or written."""


def require(
    value: object, kinds: Union[type, Tuple[type, ...]], what: str, name: str
) -> None:
    """Raise ``ValueError("<what> must be a <name>, got <type>")`` unless ``value`` fits.

    A ``bool`` does not fit ``int``.
    """
    if not isinstance(value, kinds) or (kinds is int and isinstance(value, bool)):
        raise ValueError("%s must be a %s, got %s" % (what, name, type(value).__name__))


def check_fields(record: object, rules: Iterable[Tuple[str, bool, str]]) -> None:
    """Raise ``ValueError("<field> <rule>, got <value>")`` for the first ``(field, ok, rule)`` not ok."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError("%s %s, got %r" % (name, rule, getattr(record, name)))


def check_writable(path: str) -> None:
    """Raise :class:`IoFailure` unless ``path`` is a writable file or can be made one; create nothing."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else directory, os.W_OK):
        fault = ("is a directory" if os.path.isdir(path)
                 else "permission denied" if os.path.isdir(directory) else "no such directory")
        raise IoFailure("cannot write %s: %s" % (path, fault))


@contextlib.contextmanager
def open_text(path: str, mode: str = "r") -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text to read (``"r"``) or write (``"w"``), under the rules above.

    An ``OSError`` anywhere in the block becomes :class:`IoFailure` naming
    the path, and a write whose block fails removes the file it began.
    """
    opened = False
    try:
        with open(path, mode, encoding="utf-8") as fh:
            opened = True
            yield fh
    except BaseException as exc:
        if mode == "w" and opened and os.path.isfile(path):
            os.remove(path)
        if isinstance(exc, OSError):
            verb = "write" if mode == "w" else "read"
            raise IoFailure("cannot %s %s: %s" % (verb, path, exc)) from exc
        raise


def _bad(exc: Exception) -> object:
    """Why a record parser rejected its input, as an error message says it."""
    return "missing key %s" % exc if isinstance(exc, KeyError) else exc


def read_json(path: str, parse: Callable[[object], T], what: str) -> T:
    """Parse the one JSON document in ``path`` with ``parse``; ``what`` names it in errors."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError("%s: bad %s: %s" % (path, what, _bad(exc))) from None


def read_jsonl(path: str, parse: Callable[[dict], T], what: str) -> List[T]:
    """Parse each non-blank line of ``path`` with ``parse``; ``what`` names a record in errors."""
    records: List[T] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError(
                        "%s must be a JSON object, got %s" % (what, type(data).__name__)
                    )
                records.append(parse(data))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError("%s:%d: bad %s: %s" % (path, lineno, what, _bad(exc))) from None
    return records


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """Write each record, as it comes, as one line of ``path``, replacing the file."""
    with open_text(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


KIND_NAMES = {str: "string", int: "whole number", float: "number", bool: "boolean",
              dict: "JSON object", list: "list"}


@functools.lru_cache(maxsize=None)
def _field_specs(cls: type) -> Tuple[Tuple[str, object, bool], ...]:
    """Each field of ``cls`` as (name, resolved annotation, whether it has a default)."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name],
         f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _value(value: object, annotation: object, path: str, nullable: bool = False) -> object:
    """``value`` read as ``annotation``; ``path`` names it in errors."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Union:  # Optional[X]
        return None if value is None else _value(value, args[0], path, nullable=True)
    kind = list if origin is tuple else dict if dataclasses.is_dataclass(annotation) else annotation
    require(value, kind, path, KIND_NAMES[kind] + (" or null" if nullable else ""))
    if origin is tuple:  # Tuple[X, ...]
        return tuple(_value(item, args[0], "%s[%d]" % (path, i)) for i, item in enumerate(value))
    if kind is dict:
        return from_fields(annotation, value, path + ".")
    return value


def from_fields(cls: Type[T], data: Dict[str, object], prefix: str = "") -> T:
    """Build record ``cls`` from a JSON object; ``prefix`` is its path inside an enclosing record.

    Keys that name no field are ignored, and an absent field keeps its
    default; one without a default raises ``KeyError(<path>)``.  A value of
    the wrong kind raises ``ValueError("<path> must be a <kind>, got
    <type>")``, where a nested path reads ``rounds[2].generation``.
    """
    values = {}
    for name, annotation, has_default in _field_specs(cls):
        if name in data:
            values[name] = _value(data[name], annotation, prefix + name)
        elif not has_default:
            raise KeyError(prefix + name)
    return cls(**values)


def to_fields(value: object) -> object:
    """The JSON form of a record: its fields in declaration order, tuples as lists.

    A record that defines ``to_dict`` is written in that form.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return [to_fields(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return {name: to_fields(getattr(value, name)) for name, _, _ in _field_specs(type(value))}
