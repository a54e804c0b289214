"""Scoring of predicted answers against gold annotations.

Matching is intentionally forgiving about surface form: answers are
lowercased, emphasis and quoting are stripped, whitespace and comma spacing
are normalized, and strings that are entirely numeric are canonicalized
through the same coercion the SQL engine uses (so "2,000" equals "2000" and
"48%" equals "0.48").  Verification tasks score by label; QA tasks score by
denotation (multiset equality of normalized answers).  An LLM judge is
available as a separate opt-in metric.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .backends import Backend, GenerationRequest
from .orchestrator import STATUSES, Outcome, Trace
from .prompts import build_judge_prompt
from .responses import LABELS_THREEWAY, strip_decorations, strip_emphasis
from .tables import TASK_FACT_VERIFICATION, Instance, cell_as_number, format_number


class LengthMismatch(ValueError):
    """Prediction and gold sequences have different lengths."""


class IdMismatch(ValueError):
    """Two sequences of records do not carry the same ids in the same order."""


_COMMA_RE = re.compile(r"\s*,\s*")
_WS_RE = re.compile(r"\s+")


def normalize_answer(text: str) -> str:
    """Reduce an answer string to a canonical comparison form."""
    text = strip_emphasis(text)
    text = strip_decorations(text.strip())
    number = cell_as_number(text)
    if number is not None:
        return format_number(number)
    text = text.lower()
    text = _WS_RE.sub(" ", text)
    text = _COMMA_RE.sub(", ", text)
    return text.strip()


def denotation_match(predicted: Sequence[str], gold: Sequence[str]) -> bool:
    """True iff the two answer lists are equal as normalized multisets."""
    if not gold:
        raise ValueError("gold answer list must not be empty")
    return Counter(map(normalize_answer, predicted)) == Counter(
        map(normalize_answer, gold)
    )


@dataclass(frozen=True)
class MacroF1:
    value: float
    per_class: Mapping[str, float]
    absent_classes: Tuple[str, ...] = ()


def three_class_f1(predictions: Sequence[str], golds: Sequence[str]) -> MacroF1:
    """Macro-averaged F1 over the three-way label set, :data:`LABELS_THREEWAY`.

    Classes that occur in neither sequence contribute an F1 of 0 and are
    listed in ``absent_classes`` so reports can flag them.
    """
    if len(predictions) != len(golds):
        raise LengthMismatch(
            "got %d predictions for %d golds" % (len(predictions), len(golds))
        )
    if not golds:
        raise ValueError("cannot score empty label sequences")
    canon = {label.casefold(): label for label in LABELS_THREEWAY}

    def _canon(raw: str) -> str:
        return canon.get(raw.casefold(), raw)

    pred = [_canon(p) for p in predictions]
    gold = [_canon(g) for g in golds]
    per_class: Dict[str, float] = {}
    absent: List[str] = []
    for label in LABELS_THREEWAY:
        tp = sum(1 for p, g in zip(pred, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(pred, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(pred, gold) if p != label and g == label)
        if tp == fp == fn == 0:
            absent.append(label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            per_class[label] = 0.0
        else:
            per_class[label] = 2 * precision * recall / (precision + recall)
    value = sum(per_class.values()) / len(LABELS_THREEWAY)
    return MacroF1(value=value, per_class=per_class, absent_classes=tuple(absent))


@dataclass(frozen=True)
class JudgeVerdict:
    verdict: str  # "yes" | "no" | "unparseable"
    raw: str


_VERDICT_RE = re.compile(r"^\W*(yes|no)\b", re.IGNORECASE)
# a verdict is one word; the budget leaves room for a short lead-in
JUDGE_MAX_NEW_TOKENS = 16


def judge_verdict(question: str, gold: str, predicted: str, backend: Backend) -> JudgeVerdict:
    """Ask the backend whether ``predicted`` answers the question correctly."""
    prompt = build_judge_prompt(question, gold, predicted)
    request = GenerationRequest.single_user(
        prompt, max_new_tokens=JUDGE_MAX_NEW_TOKENS, temperature=0.0
    )
    raw = backend.generate(request, tag="judge").text
    match = _VERDICT_RE.match(raw.strip())
    if match is None:
        return JudgeVerdict(verdict="unparseable", raw=raw)
    return JudgeVerdict(verdict=match.group(1).lower(), raw=raw)


def score_outcome(outcome: Outcome, instance: Instance) -> bool:
    """Binary correctness of one outcome; missing answers are wrong."""
    answer = outcome.final_answer
    if answer.kind == "missing":
        return False
    if instance.task == TASK_FACT_VERIFICATION:
        return answer.label is not None and answer.label.casefold() == instance.gold.label.casefold()
    if answer.kind == "short":
        return denotation_match(answer.answers, instance.gold.answers)
    predicted = answer.text if answer.text is not None else " ".join(answer.answers)
    target = normalize_answer(predicted)
    return any(normalize_answer(g) == target for g in instance.gold.answers)


@dataclass(frozen=True)
class TagGroup:
    count: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0


@dataclass(frozen=True)
class EvalReport:
    scores: Mapping[str, float]
    breakdowns: Mapping[str, Mapping[str, TagGroup]]
    mean_api_calls: float
    evaluated: int
    missing_answer: int
    statuses: Mapping[str, int]
    macro_f1: Optional[MacroF1] = None
    judge_counts: Mapping[str, int] = field(default_factory=dict)
    cut_off: Optional[int] = None

    def to_dict(self) -> dict:
        data = {
            "scores": dict(self.scores),
            "breakdowns": {
                key: {
                    value: {"count": g.count, "correct": g.correct, "accuracy": g.accuracy}
                    for value, g in groups.items()
                }
                for key, groups in self.breakdowns.items()
            },
            "mean_api_calls": self.mean_api_calls,
            "evaluated": self.evaluated,
            "missing_answer": self.missing_answer,
            "statuses": dict(self.statuses),
        }
        if self.cut_off is not None:
            data["cut_off"] = self.cut_off
        if self.macro_f1 is not None:
            data["macro_f1"] = {
                "value": self.macro_f1.value,
                "per_class": dict(self.macro_f1.per_class),
                "absent_classes": list(self.macro_f1.absent_classes),
            }
        if self.judge_counts:
            data["judge_counts"] = dict(self.judge_counts)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_UNTAGGED = "(untagged)"


def check_ids(
    outcomes: Sequence[Outcome],
    traces: Optional[Sequence[Trace]],
    instances: Sequence[Instance],
) -> None:
    """Raise :class:`IdMismatch` unless outcomes and traces follow the instances' ids."""
    if [o.instance_id for o in outcomes] != [i.id for i in instances]:
        raise IdMismatch("outcome ids do not match instance ids")
    if traces is not None and [t.instance_id for t in traces] != [i.id for i in instances]:
        raise IdMismatch("trace ids do not match instance ids")


def check_gold(instances: Sequence[Instance]) -> None:
    """Raise ``ValueError`` naming the first instance that has no gold answer to score against."""
    for instance in instances:
        if instance.gold is None:
            raise ValueError("instance %r has no gold answer" % instance.id)


def build_report(
    outcomes: Sequence[Outcome],
    traces: Optional[Sequence[Trace]],
    instances: Sequence[Instance],
    judge_verdicts: Optional[Mapping[str, JudgeVerdict]] = None,
) -> EvalReport:
    """Score a run against its instances and group results by tags.

    Accuracy is always reported, and the macro F1 too when threeway
    verification instances are present.  ``statuses`` counts the outcomes
    per status, every known status included.  Given traces, ``cut_off``
    counts the runs that finished on a call cut off at ``max_new_tokens``;
    they keep their answers and their status.  Judge verdicts, if supplied,
    are tallied separately and never folded into accuracy.
    """
    check_ids(outcomes, traces, instances)

    flags = [score_outcome(o, i) for o, i in zip(outcomes, instances)]
    evaluated = len(outcomes)
    missing = sum(1 for o in outcomes if o.final_answer.kind == "missing")
    statuses = Counter(dict.fromkeys(STATUSES, 0))
    statuses.update(o.status for o in outcomes)
    scores = {"accuracy": (sum(flags) / evaluated) if evaluated else 0.0}

    macro: Optional[MacroF1] = None
    threeway_pairs = [
        (o.final_answer.label or "", i.gold.label)
        for o, i in zip(outcomes, instances)
        if i.label_family == LABELS_THREEWAY
    ]
    if threeway_pairs:
        macro = three_class_f1(
            [p for p, _ in threeway_pairs], [g for _, g in threeway_pairs]
        )
        scores["three_class_f1"] = macro.value

    keys = sorted({key for inst in instances for key in (inst.tags or {})})
    breakdowns: Dict[str, Dict[str, TagGroup]] = {}
    for key in keys:
        groups: Dict[str, List[bool]] = {}
        for inst, flag in zip(instances, flags):
            tags = inst.tags or {}
            value = str(tags[key]) if key in tags else _UNTAGGED
            groups.setdefault(value, []).append(flag)
        breakdowns[key] = {
            value: TagGroup(count=len(hits), correct=sum(hits))
            for value, hits in sorted(groups.items())
        }

    judge_counts: Dict[str, int] = {}
    if judge_verdicts:
        tally = Counter(v.verdict for v in judge_verdicts.values())
        judge_counts = {k: tally.get(k, 0) for k in ("yes", "no", "unparseable")}

    return EvalReport(
        scores=scores,
        breakdowns=breakdowns,
        mean_api_calls=sum(o.api_calls for o in outcomes) / evaluated if evaluated else 0.0,
        evaluated=evaluated,
        missing_answer=missing,
        statuses=dict(statuses),
        macro_f1=macro,
        judge_counts=judge_counts,
        cut_off=None if traces is None else sum(map(cut_off, traces)),
    )


def cut_off(trace: Trace) -> bool:
    """Whether a run finished on a call that ended at ``max_new_tokens``; it keeps status ``ok``."""
    finishes = [r.finish_reason for r in trace.rounds if r.finish_reason is not None]
    return trace.status == "ok" and finishes[-1:] == ["length"]


def render_report(report: EvalReport) -> str:
    """Format a report as a fixed-width text table."""
    lines: List[str] = []
    width = 28
    lines.append("%-*s %10s" % (width, "metric", "value"))
    lines.append("-" * (width + 11))
    for name in sorted(report.scores):
        lines.append("%-*s %10.4f" % (width, name, report.scores[name]))
    lines.append("%-*s %10.4f" % (width, "mean_api_calls", report.mean_api_calls))
    lines.append("%-*s %10d" % (width, "evaluated", report.evaluated))
    lines.append("%-*s %10d" % (width, "missing_answer", report.missing_answer))
    if report.cut_off is not None:
        lines.append("%-*s %10d" % (width, "cut_off", report.cut_off))
    for status, count in report.statuses.items():
        lines.append("%-*s %10d" % (width, "status[%s]" % status, count))
    if report.macro_f1 is not None:
        for label, value in report.macro_f1.per_class.items():
            lines.append("%-*s %10.4f" % (width, "f1[%s]" % label, value))
        if report.macro_f1.absent_classes:
            lines.append(
                "%-*s %10s"
                % (width, "absent_classes", ",".join(report.macro_f1.absent_classes))
            )
    if report.judge_counts:
        for verdict in ("yes", "no", "unparseable"):
            lines.append(
                "%-*s %10d" % (width, "judge[%s]" % verdict, report.judge_counts.get(verdict, 0))
            )
    for key, groups in report.breakdowns.items():
        lines.append("")
        lines.append("%-*s %6s %8s %10s" % (width, "tag:" + key, "count", "correct", "accuracy"))
        lines.append("-" * (width + 27))
        for value, group in groups.items():
            lines.append(
                "%-*s %6d %8d %10.4f"
                % (width, value, group.count, group.correct, group.accuracy)
            )
    return "\n".join(lines)
