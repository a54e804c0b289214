"""Spans around the calls into each layer of the program, from outside it.

The tracer replaces module attributes (``tabreason.orchestrator.run_statement``
and so on) with timing wrappers for the duration of a traced run and puts
the originals back afterwards.  The program is not edited: a call is traced
when the calling module looks the name up in its own namespace, which is how
the loop, dataset and evaluation code call each other today.  A hook whose
module or attribute no longer exists after a refactor is reported as absent
and skipped.

Each span records its name, start, end, parent span and instance id.  Spans
are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple


def _rows_in_out(args, kwargs, result) -> dict:
    table = args[0] if args else kwargs.get("table")
    out = {"rows_in": len(table.rows)}
    if result is not None:
        out["rows_out"] = len(result.rows)
    return out


def _chars(args, kwargs, result) -> dict:
    text = args[0] if args else kwargs.get("text", "")
    return {"chars": len(text)}


def _rows_scanned(args, kwargs, result) -> dict:
    table = args[1] if len(args) > 1 else kwargs.get("table")
    return {"rows": len(table.rows)}


def _instance_arg(index: int, key: str) -> Callable[[tuple, dict], Optional[str]]:
    def get(args: tuple, kwargs: dict) -> Optional[str]:
        instance = args[index] if len(args) > index else kwargs.get(key)
        return getattr(instance, "id", None)

    return get


def _round_facts(args, kwargs, result) -> dict:
    """Round facts of one instance, read off the trace ``run_instance`` returns."""
    try:
        outcome, trace = result
        return {
            "rounds": len(trace.rounds),
            "sql_rounds": sum(1 for r in trace.rounds if r.detected_sql is not None),
            "fallbacks": sum(1 for r in trace.rounds if r.fallback_used),
            "cap": bool(trace.stopped_on_cap),
            "status": outcome.status,
        }
    except (TypeError, ValueError, AttributeError):
        return {}


def _tag_kwarg(args: tuple, kwargs: dict) -> Optional[str]:
    return kwargs.get("tag")


# (module, attribute, span name, attribute recorder, instance-id getter)
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("tabreason.orchestrator", "run_instance", "orchestrator.run_instance", _round_facts, _instance_arg(0, "instance")),
    ("tabreason.orchestrator", "truncate_to_budget", "tables.truncate", _rows_in_out, None),
    ("tabreason.orchestrator", "build_task_prompt", "prompts.build", None, None),
    ("tabreason.orchestrator", "segment_response", "responses.segment", _chars, None),
    ("tabreason.orchestrator", "resume_prefix", "responses.resume_prefix", None, None),
    ("tabreason.orchestrator", "run_statement", "sql.loop", _rows_scanned, None),
    ("tabreason.orchestrator", "extract_final_answer", "responses.extract", None, None),
    ("tabreason.orchestrator", "write_traces", "orchestrator.write", None, None),
    ("tabreason.orchestrator", "write_outcomes", "orchestrator.write", None, None),
    ("tabreason.responses", "segment_response", "responses.segment", _chars, None),
    ("tabreason.dataset", "tag_response_errors", "dataset.tag", None, _instance_arg(1, "instance")),
    ("tabreason.dataset", "segment_response", "responses.segment", _chars, None),
    ("tabreason.dataset", "run_statement", "sql.retag", _rows_scanned, None),
    ("tabreason.dataset", "truncate_to_budget", "tables.truncate", _rows_in_out, None),
    ("tabreason.dataset", "build_task_prompt", "prompts.build", None, None),
    ("tabreason.dataset", "consistency_filter", "dataset.filter", None, None),
    ("tabreason.dataset", "write_candidates", "orchestrator.write", None, None),
    ("tabreason.dataset", "export_jsonl", "dataset.export", None, None),
    ("tabreason.evaluation", "build_report", "evaluation.report", None, None),
)


_INHERITED = object()  # marks an attribute that came from the class, not the instance


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "instance", "error", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional["Span"], instance: Optional[str]) -> None:
        self.id = sid
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.instance = instance if instance is not None else (parent.instance if parent else None)
        self.start = 0.0
        self.end = 0.0
        self.error: Optional[str] = None
        self.attrs: Dict[str, Any] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self, origin: float) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "instance": self.instance,
            "start_ms": round((self.start - origin) * 1000.0, 4),
            "end_ms": round((self.end - origin) * 1000.0, 4),
        }
        if self.error:
            out["error"] = self.error
        out.update(self.attrs)
        return out


class Tracer:
    """Installs wrappers, collects spans, and restores the program afterwards."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: Optional[Callable] = None,
        instance_of: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._id_lock:
                sid = next(tracer._ids)
            span = Span(sid, name, stack[-1] if stack else None,
                        instance_of(args, kwargs) if instance_of else None)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if record is not None:
                    span.attrs.update(record(args, kwargs, result))
                tracer.spans.append(span)

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._restore.append((owner, attr, own[attr] if attr in own else _INHERITED))
        setattr(owner, attr, value)

    def install(self, backend: Any) -> None:
        """Wrap every hook that exists; ``backend.generate`` and backoff sleeps too."""
        for module_name, attr, name, record, instance_of in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append("%s.%s" % (module_name, attr))
                continue
            self._patch(module, attr, self.wrap(getattr(module, attr), name, record, instance_of))
        self._patch(backend, "generate", self.wrap(backend.generate, "backends.generate", None, _tag_kwarg))
        backends = importlib.import_module("tabreason.backends")
        clock = getattr(backends, "time", None)
        if isinstance(clock, types.ModuleType) and hasattr(clock, "sleep"):
            proxy = types.SimpleNamespace(**{k: getattr(clock, k) for k in dir(clock) if not k.startswith("__")})
            proxy.sleep = self.wrap(clock.sleep, "backends.backoff")
            self._patch(backends, "time", proxy)
        else:
            self.absent.append("tabreason.backends.time.sleep")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self, name: str) -> float:
        """Total self time of the named spans: duration minus their children's."""
        ids = {s.id for s in self.spans if s.name == name}
        total = sum(s.ms for s in self.spans if s.id in ids)
        return total - sum(s.ms for s in self.spans if s.parent in ids)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(self.origin)))
                fh.write("\n")
