"""Prompt assembly for the three task families.

Prompts are built from plain-text pieces shipped under ``tabreason/data``:
a one-shot demonstration per task family and a task instruction that tells
the model to plan, write SQL with an expected result, and then reason to a
final answer.  Sections appear in a fixed order ending with ``## Answer`` so
the generation starts exactly where the answer belongs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from importlib import resources
from typing import Dict, Optional, Tuple

from .tables import Instance, TASK_FACT_VERIFICATION, TASK_FREE_QA, TASK_SHORT_QA, serialize_for_prompt
from .responses import LABELS_BINARY, LABELS_THREEWAY


@dataclass(frozen=True)
class TaskKind:
    """A task, the family of prompt pieces it is asked with, and for verification its labels.

    ``family`` is the suffix of the ``instruction_*`` and ``demo_*`` pieces.
    """

    name: str
    family: str
    labels: Optional[Tuple[str, ...]] = None


SHORT_QA = TaskKind(TASK_SHORT_QA, TASK_SHORT_QA)
FREE_QA = TaskKind(TASK_FREE_QA, TASK_FREE_QA)
FACT_BINARY = TaskKind(TASK_FACT_VERIFICATION, "fact_binary", LABELS_BINARY)
FACT_THREEWAY = TaskKind(TASK_FACT_VERIFICATION, "fact_threeway", LABELS_THREEWAY)


def task_kind_for(instance: Instance) -> TaskKind:
    """The prompt family and, for verification, the labels: ``instance.labels`` as written, else
    its :attr:`~tabreason.tables.Instance.label_family`, which ``Instance`` has checked."""
    if instance.task != TASK_FACT_VERIFICATION:
        return SHORT_QA if instance.task == TASK_SHORT_QA else FREE_QA
    kind = FACT_BINARY if instance.label_family == LABELS_BINARY else FACT_THREEWAY
    return replace(kind, labels=instance.labels) if instance.labels else kind


@functools.lru_cache(maxsize=None)
def _pieces() -> Dict[str, str]:
    """The text pieces under ``tabreason/data``, by file stem; read on first use."""
    data = resources.files("tabreason").joinpath("data")
    return {
        piece.name[: -len(".txt")]: piece.read_text("utf-8").rstrip("\n")
        for piece in data.iterdir()
        if piece.name.endswith(".txt")
    }


def build_task_prompt(instance: Instance, include_demo: bool = True) -> str:
    """Assemble the full prompt for one instance.

    Section order: optional demonstration, the question or claim, the table
    context, sentence context when present, the task instruction, and a
    trailing ``## Answer`` header.
    """
    kind = task_kind_for(instance)
    pieces = _pieces()
    parts = []
    demo = pieces.get("demo_" + kind.family)
    if include_demo and demo:
        parts.append(demo)
    heading = "## Claim" if kind.name == TASK_FACT_VERIFICATION else "## Question"
    parts.append("%s\n%s" % (heading, instance.query))
    parts.append("## Table Context\n%s" % serialize_for_prompt(instance.table))
    if instance.sentences:
        lines = [
            "%s: %s" % (s.title, s.text) if s.title else s.text
            for s in instance.sentences
        ]
        parts.append("## Sentence Context\n%s" % "\n".join(lines))
    parts.append("## Task\n%s" % pieces["instruction_" + kind.family])
    parts.append("## Answer")
    return "\n\n".join(parts)


def build_judge_prompt(question: str, gold: str, predicted: str) -> str:
    """Fill the yes/no answer-checking prompt; ``gold`` is ``GoldAnswer.as_text``."""
    return _pieces()["judge_prompt"].format(
        question=question, gold=gold, predicted=predicted
    )
