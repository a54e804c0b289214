"""JSONL files: one JSON object per line.

Every file the package reads or writes by lines (instances, traces,
outcomes, replay scripts, candidates and training pairs) goes through
:func:`read_jsonl` and :func:`write_jsonl`, so the error rules live here:

* a file that cannot be opened, read or written raises :class:`IoFailure`,
  which is an ``OSError``;
* a line that is not JSON, is not a JSON object, or that the record parser
  rejects with ``ValueError``, ``KeyError`` or ``TypeError`` raises
  ``ValueError("path:line: bad <what>: ...")``.

Record parsers check the shape of each value with :func:`require`.  Blank
lines are skipped on read.  Each record is written as
``json.dumps(record, ensure_ascii=False)`` and a newline, so non-ASCII
text is kept verbatim.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, List, Tuple, TypeVar, Union

T = TypeVar("T")


class IoFailure(OSError):
    """A JSONL file could not be opened, read or written."""


def require(
    value: object, kinds: Union[type, Tuple[type, ...]], what: str, name: str
) -> None:
    """Raise ``ValueError("<what> must be a <name>, got <type>")`` unless ``value`` fits."""
    if not isinstance(value, kinds):
        raise ValueError("%s must be a %s, got %s" % (what, name, type(value).__name__))


def read_jsonl(path: str, parse: Callable[[dict], T], what: str) -> List[T]:
    """Parse each non-blank line of ``path`` with ``parse``; ``what`` names a record in errors."""
    records: List[T] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
                    reason = "missing key %s" % exc if isinstance(exc, KeyError) else exc
                    raise ValueError("%s:%d: bad %s: %s" % (path, lineno, what, reason)) from None
    except OSError as exc:
        raise IoFailure("cannot read %s: %s" % (path, exc)) from exc
    return records


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """Write each record as one line of ``path``, replacing the file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise IoFailure("cannot write %s: %s" % (path, exc)) from exc
