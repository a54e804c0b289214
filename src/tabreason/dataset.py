"""Builds instruction-tuning pairs from teacher generations.

A teacher model runs through the same execution-in-the-loop pipeline used
for inference.  Candidates whose final answer disagrees with the gold
annotation are dropped, and automatically detectable defects are tagged so
exports can exclude or study them.

Each candidate carries the prompt its teacher run sent, read from the
run's trace, so an exported pair is the exact prompt and response the
teacher saw; the candidates file leaves the prompt out.

Tags are read from the loop's trace, never recomputed: ``sql_error`` when
a block the loop ran could not be parsed or executed against the table the
model saw, ``execution_mismatch`` when the result the model claimed for a
block (before the splice replaced it) disagrees with the one the loop
injected, and ``stopped_on_cap`` when the run spent
``max_injection_rounds`` with a block left unrun.  So not every result in a
kept response was executed: under the marker of a block tagged
``sql_error`` sits the model's own claim, if it wrote one, kept by the
fallback, and in a run tagged ``stopped_on_cap`` the claims of the blocks
past the cap are the model's too.  ``build-dataset`` prints how many kept
pairs carry each of :data:`TAGS` and how many carry none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .backends import Backend
from .evaluation import IdMismatch, normalize_answer, score_outcome
from .orchestrator import (
    OUTCOME_OK,
    OUTCOME_SQL_ERROR,
    RunConfig,
    Trace,
    run_batch,
)
from .jsonl import to_fields, write_jsonl
from .responses import FinalAnswer, last_lines, section_starts
from .tables import Instance, split_pipe_line

TAG_SQL_ERROR = "sql_error"
TAG_EXECUTION_MISMATCH = "execution_mismatch"
TAG_STOPPED_ON_CAP = "stopped_on_cap"
TAGS = (TAG_EXECUTION_MISMATCH, TAG_SQL_ERROR, TAG_STOPPED_ON_CAP)

SEGMENT_CHOICES = ("full", "reasoning-only", "planning-only", "answer-only")


@dataclass(frozen=True)
class Candidate:
    instance_id: str
    prompt: str
    teacher_response: str
    extracted_answer: FinalAnswer
    consistent: bool
    error_tags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Dropped:
    candidate: Candidate
    reason: str


def sample_instances(
    instances: Sequence[Instance], count: int, seed: int
) -> List[Instance]:
    """Uniformly sample ``count`` instances, keeping the original order."""
    if count >= len(instances):
        return list(instances)
    picked = random.Random(seed).sample(range(len(instances)), count)
    return [instances[i] for i in sorted(picked)]


def generate_candidates(
    instances: Sequence[Instance],
    backend: Backend,
    config: RunConfig = RunConfig(),
    parallelism: int = 1,
) -> Tuple[List[Candidate], List[Trace]]:
    """Run the teacher over instances and collect responses as candidates.

    Instances whose run failed, at the backend or anywhere else, are
    returned as their traces instead of candidates; each names the error
    and keeps the prompt and rounds its run reached.  One input yields
    exactly one of the two.  The teacher is never stopped at a result
    marker: its tags compare the results it claimed with the ones the loop
    injected.
    """
    results = run_batch(
        instances,
        backend,
        config=config,
        parallelism=parallelism,
        keep_claims=True,
    )
    candidates: List[Candidate] = []
    failed: List[Trace] = []
    for instance, (outcome, trace) in zip(instances, results):
        if trace.status != "ok":
            failed.append(trace)
            continue
        candidate = Candidate(
            instance_id=instance.id,
            prompt=trace.prompt,
            teacher_response=trace.final_generation,
            extracted_answer=trace.final_answer,
            consistent=score_outcome(outcome, instance),
            error_tags=trace_error_tags(trace),
        )
        candidates.append(candidate)
    return candidates, failed


def trace_error_tags(trace: Trace) -> Tuple[str, ...]:
    """Machine-checkable defects of a teacher run, read from its rounds.

    ``sql_error`` marks a run with at least one round whose block could not
    be parsed or executed.  ``execution_mismatch`` marks a run with an
    executed block whose claimed result (unfenced, it ends at its first
    blank line) disagrees with the injected execution output (compared
    cell-by-cell after answer normalization, ignoring row order and an
    optional header line).  ``stopped_on_cap`` marks a run that spent
    ``max_injection_rounds`` with a block left unrun: the claims from that
    block on are the model's own.
    """
    tags = {TAG_STOPPED_ON_CAP} if trace.stopped_on_cap else set()
    for record in trace.rounds:
        if record.execution_outcome == OUTCOME_SQL_ERROR:
            tags.add(TAG_SQL_ERROR)
        elif (
            record.execution_outcome == OUTCOME_OK
            and record.claimed_result is not None
            and not _claims_match(record.claimed_result, record.injected_text)
        ):
            tags.add(TAG_EXECUTION_MISMATCH)
    return tuple(sorted(tags))


def _grid(text: str) -> List[Tuple[str, ...]]:
    rows: List[Tuple[str, ...]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append(tuple(normalize_answer(cell) for cell in split_pipe_line(line)))
    return rows


def _claims_match(claimed: str, actual: str) -> bool:
    # ``actual`` is ``format_result`` output, which always starts with its header line
    actual_grid = _grid(actual)
    claimed_grid = _grid(claimed)
    header, body = actual_grid[0], actual_grid[1:]
    if claimed_grid and claimed_grid[0] == header:
        claimed_grid = claimed_grid[1:]
    return sorted(claimed_grid) == sorted(body)


def consistency_filter(
    candidates: Sequence[Candidate], instances: Sequence[Instance]
) -> Tuple[List[Candidate], List[Dropped]]:
    """Partition candidates into gold-consistent and dropped-with-reason.

    ``load_instances`` refuses a file that repeats an id; the repeated-id
    check here guards library callers that build their own lists.
    """
    by_id: Dict[str, Instance] = {}
    for instance in instances:
        if instance.id in by_id:
            raise IdMismatch("duplicate instance id %r" % instance.id)
        by_id[instance.id] = instance
    kept: List[Candidate] = []
    dropped: List[Dropped] = []
    for candidate in candidates:
        instance = by_id.get(candidate.instance_id)
        if instance is None:
            raise IdMismatch("candidate %r has no instance" % candidate.instance_id)
        if candidate.consistent:
            kept.append(candidate)
            continue
        answer = candidate.extracted_answer
        if answer.kind == "missing":
            reason = "no final answer found"
        else:
            reason = "answer %r does not match gold %r" % (answer.as_text, instance.gold.as_text)
        dropped.append(Dropped(candidate=candidate, reason=reason))
    return kept, dropped


def select_segment(response: str, segment: str) -> str:
    """Cut a response down to the requested training shape.

    ``full`` keeps everything; ``reasoning-only`` removes the plan section;
    ``planning-only`` removes the final reasoning body but keeps the
    concluding answer sentence; ``answer-only`` keeps just that sentence.
    Responses without recognizable numbered sections are left whole (except
    for ``answer-only``, which always reduces to the last non-empty line).
    """
    if segment not in SEGMENT_CHOICES:
        raise ValueError("unknown segment %r" % segment)
    if segment == "full":
        return response
    conclusion = "".join(last_lines(response, 1))
    if segment == "answer-only":
        return conclusion
    starts = section_starts(response)
    if segment == "reasoning-only":
        if "1" not in starts or "2" not in starts:
            return response
        return response[: starts["1"]] + response[starts["2"] :]
    # planning-only
    if "3" not in starts:
        return response
    head = response[: starts["3"]].rstrip()
    return head + "\n\n" + conclusion if conclusion else head


def export_jsonl(
    candidates: Sequence[Candidate],
    instances: Sequence[Instance],
    path: str,
    segment: str = "full",
    config: RunConfig = RunConfig(),
) -> int:
    """Write training pairs as JSONL; returns the number of lines written.

    Each pair's prompt is the one the candidate's teacher run sent.
    ``instances`` serves only to check that every candidate has one;
    ``config`` is no longer read.  Every id and the segment are checked
    before the file is opened; each pair is then written as it is built.
    """
    if not candidates:
        raise ValueError("no candidates to export")
    if segment not in SEGMENT_CHOICES:
        raise ValueError("unknown segment %r" % segment)
    ids = {instance.id for instance in instances}
    for candidate in candidates:
        if candidate.instance_id not in ids:
            raise IdMismatch("candidate %r has no instance" % candidate.instance_id)
    pairs = (
        {
            "id": c.instance_id,
            "prompt": c.prompt,
            "response": select_segment(c.teacher_response, segment),
            "tags": list(c.error_tags),
        }
        for c in candidates
    )
    write_jsonl(path, pairs)
    return len(candidates)


def write_candidates(candidates: Iterable[Candidate], path: str) -> None:
    """Write candidates as JSONL without their prompts, which their traces hold."""
    records = (to_fields(candidate) for candidate in candidates)
    write_jsonl(path, ({k: v for k, v in r.items() if k != "prompt"} for r in records))
