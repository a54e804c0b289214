"""Prompt assembly for the three task families.

Prompts are built from plain-text pieces shipped under ``tabreason/data``:
a one-shot demonstration per task family and a task instruction that tells
the model to plan, write SQL with an expected result, and then reason to a
final answer.  Sections appear in a fixed order ending with ``## Answer`` so
the generation starts exactly where the answer belongs.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Dict

from .tables import Instance, TASK_FACT_VERIFICATION, serialize_for_prompt
from .responses import LABELS_BINARY


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
    trailing ``## Answer`` header.  The demonstration and instruction are
    the ``demo_*`` and ``instruction_*`` pieces of the instance's family: its
    task, or for verification ``fact_binary`` or ``fact_threeway`` by its
    :attr:`~tabreason.tables.Instance.label_family`.
    """
    family = instance.task
    verification = family == TASK_FACT_VERIFICATION
    if verification:
        family = "fact_binary" if instance.label_family == LABELS_BINARY else "fact_threeway"
    pieces = _pieces()
    parts = []
    demo = pieces.get("demo_" + family)
    if include_demo and demo:
        parts.append(demo)
    parts.append("%s\n%s" % ("## Claim" if verification else "## Question", instance.query))
    parts.append("## Table Context\n%s" % serialize_for_prompt(instance.table))
    if instance.sentences:
        lines = [
            "%s: %s" % (s.title, s.text) if s.title else s.text
            for s in instance.sentences
        ]
        parts.append("## Sentence Context\n%s" % "\n".join(lines))
    parts.append("## Task\n%s" % pieces["instruction_" + family])
    parts.append("## Answer")
    return "\n\n".join(parts)


def build_judge_prompt(question: str, gold: str, predicted: str) -> str:
    """Fill the yes/no answer-checking prompt; ``gold`` is ``GoldAnswer.as_text``."""
    return _pieces()["judge_prompt"].format(
        question=question, gold=gold, predicted=predicted
    )
