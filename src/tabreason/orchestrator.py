"""Drives generation with SQL execution spliced into the model's output.

One instance runs as a loop: prompt the model, look for the first SQL block
that has not been handled yet, execute it against the instance table, cut
the response right after the block's result marker, append the real
execution output, and ask the model to continue from there.  The loop stops
when a continuation brings no new SQL or the injection budget is spent.

Each scan starts at the last block the loop called the model after: the
text before that block is settled, and no later scan re-reads it.  So a
fence the model writes later cannot reinterpret text the loop has already
acted on, and a scan costs the text since that block, not the whole
generation.  A block that starts in text the loop wrote (the marker it
resumed at and the result it injected) is never run: SQL in an injected
claim is not the model's.  The loop asks the model in one place and scans
only after that call, whose first request continues an empty text; a round
that reads on or only settles a failed block keeps the text and its blocks.

Every call that could still have a block executed asks the backend to stop
at the result markers, so the model decodes no result of its own for the
splice to throw away; the call after the budget is spent runs unstopped and
writes its own claims and conclusion.  Teacher runs (``keep_claims=True``)
never stop early, because their tags compare each claim with the real
result.

When the generation in hand already holds the injected result (the call
ended with ``stop``, the injected result equals the claim the model wrote
under the marker, however wrapped, and text follows the claim), no call is
made: the loop counts the injection and reads on to the next block in the
text as written, wrapping included, so later requests extend exactly the
bytes the model decoded.  Only teacher runs read on.  A stopped call can
still keep a claim when the model writes a marker in another case (the
segmenter matches markers in any case, stop strings match exactly), and
reading on from it would put off, past the cap, the unstopped call that
writes the conclusion.

When the SQL cannot be parsed or executed, the model's own claimed result
is kept instead (the fallback), so the run still proceeds.  A failed block
without a claim has nothing to fall back on: when the model stopped at its
marker the loop resumes right after it with nothing injected, and when
another block follows it the loop handles that block from the text in hand.

Every round is recorded in a :class:`Trace`, including why each call
stopped (``finish_reason``) and how many requests it took (``attempts``);
a batch writes traces as JSONL in input order so runs are comparable byte
for byte across parallelism settings.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .backends import BACKEND_FAILURES, Backend, GenerationRequest, GenerationResult
from .jsonl import KIND_NAMES, check_fields, from_fields, open_text, read_jsonl, to_fields, write_jsonl
from .prompts import build_task_prompt
from .responses import (
    RESULT_MARKERS,
    FinalAnswer,
    SqlBlock,
    extract_final_answer,
    resume_prefix,
    segment_response,
)
from .sql import SqlError, format_result, run_statement
from .tables import Instance, truncate_to_budget, working_copy

logger = logging.getLogger(__name__)

OUTCOME_OK = "ok"
OUTCOME_SQL_ERROR = "sql_error"
OUTCOME_NO_SQL = "no_sql"


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a run; defaults follow the reference setup."""

    max_new_tokens: int = 1024
    temperature: float = 0.0
    table_token_budget: int = 3000
    max_injection_rounds: int = 4
    include_demo: bool = True

    def __post_init__(self) -> None:
        # a run's requests carry these two values, so they obey the request's rules
        GenerationRequest((), max_new_tokens=self.max_new_tokens, temperature=self.temperature)
        check_fields(self, (
            ("table_token_budget", self.table_token_budget >= 0, "must be non-negative"),
            ("max_injection_rounds", self.max_injection_rounds >= 0, "must be non-negative"),
        ))


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, text: str, default: object) -> object:
    """Read ``text`` as the type of field ``key``'s default value."""
    try:
        return _BOOLEANS[text.lower()] if isinstance(default, bool) else type(default)(text)
    except (KeyError, ValueError):
        raise ValueError("%s must be a %s, got %r" % (key, KIND_NAMES[type(default)], text)) from None


def load_run_config(path: str) -> RunConfig:
    """Parse a key=value config file; unknown or repeated keys fail loudly, and every error names the file."""
    values: Dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in values:
                raise ValueError("%s:%d: %s given twice" % (path, lineno, key))
            values[key] = value
    try:
        return run_config_from_pairs(values)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def run_config_from_pairs(values: Dict[str, str]) -> RunConfig:
    known = {f.name: f.default for f in fields(RunConfig)}
    unknown = values.keys() - known.keys()
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    return RunConfig(**{key: _parse_value(key, text, known[key]) for key, text in values.items()})


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one round: a generation and the block handled on it.

    ``generation`` is None for rounds that made no call: a round that only
    skipped over a failed block with no claim and another block after it,
    or one whose block was read on from the previous generation, because
    the model had already written the result under the marker or after
    blank lines, fenced or not; that text is left as written,
    and ``injected_text`` is the result the loop confirmed in place.
    ``claimed_result`` is the result the model wrote under the block's
    marker, read before the splice replaced it; it is None when the call
    stopped at the marker.  Unfenced, it ends at its first blank line, so
    tags, the read-on rule and a fallback all use the same claim.
    ``fallback_used`` is true only when a claim was injected for a failed
    block.
    ``finish_reason`` is why the backend ended
    ``generation`` (``stop``, ``length`` or ``error``), and ``attempts`` how
    many requests it took; both are None when the round made no call.
    """

    generation: Optional[str]
    detected_sql: Optional[str]
    execution_outcome: str
    injected_text: Optional[str] = None
    fallback_used: bool = False
    error_detail: Optional[str] = None
    claimed_result: Optional[str] = None
    finish_reason: Optional[str] = None
    attempts: Optional[int] = None


STATUSES = ("ok", "backend_error", "crashed")


@dataclass(frozen=True)
class Trace:
    """The one record of an instance's run; its :class:`Outcome` is read from it.

    ``status`` is ``ok``, ``backend_error`` when the backend failed, or
    ``crashed`` when anything else raised; ``error`` then says why, and
    ``final_answer`` is missing.  Traces written before either field
    existed load as ``ok`` with no error; a loaded trace keeps the answer
    it recorded.
    """

    instance_id: str
    prompt: str
    rounds: Tuple[RoundRecord, ...]
    final_generation: str
    final_answer: FinalAnswer
    api_calls: int
    stopped_on_cap: bool = False
    status: str = "ok"
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError("status must be one of %s, got %r" % (STATUSES, self.status))

    @property
    def outcome(self) -> "Outcome":
        return Outcome(
            instance_id=self.instance_id,
            final_answer=self.final_answer,
            api_calls=self.api_calls,
            status=self.status,
            error=self.error,
        )


@dataclass(frozen=True)
class Outcome:
    """What ``--outcomes`` writes of a run; built from its trace by :attr:`Trace.outcome`."""

    instance_id: str
    final_answer: FinalAnswer
    api_calls: int
    status: str = "ok"
    error: Optional[str] = None


def run_instance(
    instance: Instance,
    backend: Backend,
    config: RunConfig = RunConfig(),
    *,
    keep_claims: bool = False,
) -> Tuple[Outcome, Trace]:
    """Run the plan/SQL/reason loop for one instance.

    Returns the run's outcome, read from its trace, and the trace.  The
    answer is read once, from the text of a run that finished.  Any failure
    ends the run with status ``backend_error`` (the backend's) or ``crashed``
    (the program's), its error and a missing answer, on a trace that keeps
    the prompt, the rounds the run finished and the text it assembled.
    Calls made while a block can still be executed stop at the result
    markers unless ``keep_claims`` is set, which lets the model write the
    claims that teacher tags are checked against; only such runs read on
    past a claim that is already the result.
    """
    stop = None if keep_claims else RESULT_MARKERS
    prompt = assembled = ""
    rounds: List[RoundRecord] = []
    answer = FinalAnswer.missing()
    injections = 0
    stopped_on_cap = False
    error: Optional[str] = None
    status = "ok"

    def _record(pending: Optional[GenerationResult], **details: object) -> None:
        rounds.append(
            RoundRecord(
                generation=pending.text if pending is not None else None,
                finish_reason=pending.finish_reason if pending is not None else None,
                attempts=pending.attempts if pending is not None else None,
                **details,
            )
        )

    try:
        table = instance.table
        if config.table_token_budget:
            table = truncate_to_budget(table, config.table_token_budget)
        # the run's own working copy, so the table's rows are split once
        work = replace(instance, table=working_copy(table))
        prompt = build_task_prompt(work, include_demo=config.include_demo)
        # assembled[:base] is settled: it ends at the start of the last block
        # the loop called the model after, and no round scans it again.
        base = 0
        partial: Optional[str] = ""  # the text the next call continues
        while partial is not None:
            request = GenerationRequest.single_user(
                prompt + partial,
                max_new_tokens=config.max_new_tokens,
                temperature=config.temperature,
                stop=stop if injections < config.max_injection_rounds else None,
            )
            pending = in_hand = backend.generate(request, tag=instance.id)
            assembled = partial + pending.text
            tail = assembled[base:]
            # ``blocks`` are the blocks of ``tail``, and ``i`` is the next one
            # to handle.  The model's text resumes at the end of ``partial``: a
            # block that starts before it is the one just handled or lies in
            # text the loop wrote, and is never run.
            blocks = segment_response(tail).sql_blocks
            resumed_at = len(partial) - base
            i = sum(1 for b in blocks if b.span[0] < resumed_at)
            partial = None
            while i < len(blocks) and injections < config.max_injection_rounds:
                block = blocks[i]
                i += 1
                detail: Optional[str] = None
                fallback = False
                resume = True
                try:
                    injected = format_result(run_statement(block.sql_text, work.table))
                    outcome = OUTCOME_OK
                except SqlError as exc:
                    outcome = OUTCOME_SQL_ERROR
                    detail = str(exc)
                    # Without a claim there is nothing to fall back on.  A
                    # block the call stopped at resumes after its marker with
                    # nothing injected; one with another block after it is
                    # settled, and that block is handled from the text in hand.
                    fallback = block.claimed_result is not None
                    injected = block.claimed_result
                    resume = fallback or i == len(blocks)
                _record(
                    pending,
                    detected_sql=block.sql_text,
                    execution_outcome=outcome,
                    injected_text=injected,
                    fallback_used=fallback,
                    error_detail=detail,
                    claimed_result=block.claimed_result,
                )
                pending = None
                if not resume:
                    continue
                injections += 1
                if keep_claims and _read_on_from(in_hand, tail, block, injected):
                    continue  # the text is unchanged, and so are its blocks
                partial = assembled[:base] + resume_prefix(tail, block)
                base += block.span[0]
                if injected is not None:
                    partial = partial + "\n" + injected
                break
        stopped_on_cap = i < len(blocks)
        if pending is not None:
            _record(pending, detected_sql=None, execution_outcome=OUTCOME_NO_SQL)
        # labels an instance wrote come back as it wrote them
        answer = extract_final_answer(assembled, work.task, work.labels or work.label_family)
    except Exception as exc:  # whatever happened, the run ends on its trace
        error = str(exc)
        if isinstance(exc, BACKEND_FAILURES):
            status = "backend_error"
            logger.warning("instance %s: backend error: %s", instance.id, error)
        else:
            status = "crashed"
            logger.exception("instance %s failed", instance.id)

    trace = Trace(
        instance_id=instance.id,
        prompt=prompt,
        rounds=tuple(rounds),
        final_generation=assembled,
        final_answer=answer,
        api_calls=sum(1 for r in rounds if r.generation is not None),
        stopped_on_cap=stopped_on_cap,
        status=status,
        error=error,
    )
    return trace.outcome, trace


def _read_on_from(
    generation: GenerationResult, tail: str, block: SqlBlock, injected: Optional[str]
) -> bool:
    """Whether the model's text in ``tail`` already holds the injected result, so no call is needed.

    That is when the generation ended on its own (``stop``) and ``injected``
    is the claim the model wrote under ``block``'s marker, however wrapped:
    blank lines after the marker, a fence, or both.  A result that is only a
    prefix of a longer claim does not count, and non-blank text must follow
    the claim.
    """
    end = block.claim_end
    if generation.finish_reason != "stop" or injected != block.claimed_result or end is None:
        return False
    return bool(tail[end:].strip())


def run_batch(
    instances: Sequence[Instance],
    backend: Backend,
    config: RunConfig = RunConfig(),
    parallelism: int = 1,
    *,
    keep_claims: bool = False,
) -> List[Tuple[Outcome, Trace]]:
    """Run many instances, preserving input order in the results.

    Each instance is isolated: :func:`run_instance` ends any failure on the
    instance's own trace, with the prompt and rounds it reached, and its
    neighbours run on.  A backend that must be called in call order (an
    unkeyed replay script, recorded or not, or any backend that does not
    set ``in_call_order`` false) is refused when several instances would
    run concurrently.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    concurrent = parallelism > 1 and len(instances) > 1
    if concurrent and backend.in_call_order:
        raise ValueError("an unkeyed replay script needs parallelism 1, as does any backend that answers in "
                         "call order; record a keyed script to run in parallel")

    run = functools.partial(run_instance, backend=backend, config=config, keep_claims=keep_claims)
    if not concurrent:
        return list(map(run, instances))
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run, instances))


def write_traces(results: Sequence[Tuple[Outcome, Trace]], path: str) -> None:
    """Write traces as JSONL, one line per instance, in the given order."""
    write_jsonl(path, (to_fields(trace) for _, trace in results))


def write_outcomes(results: Sequence[Tuple[Outcome, Trace]], path: str) -> None:
    write_jsonl(path, (to_fields(outcome) for outcome, _ in results))


def load_traces(path: str) -> List[Trace]:
    return read_jsonl(path, functools.partial(from_fields, Trace), "trace")
