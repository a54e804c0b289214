"""Prompt assembly: task resolution, section order, demos, judge prompt."""

import pytest

from tabreason.prompts import (
    FACT_BINARY,
    FACT_THREEWAY,
    FREE_QA,
    SHORT_QA,
    TaskKind,
    _pieces,
    build_judge_prompt,
    build_task_prompt,
    task_kind_for,
)
from tabreason.responses import RESULT_MARKERS, segment_response
from tabreason.tables import GoldAnswer, Instance, SentenceContext, Table


TABLE = Table(
    ["Name", "Medal"],
    [["Edith Masai", "Gold"], ["Ann Wanjiru", "Bronze"]],
    page_title="Goodwill Games",
)


def make_instance(task="short_qa", **kwargs):
    defaults = dict(
        id="x1",
        task=task,
        query="how many athletes are from Kenya?",
        table=TABLE,
        gold=GoldAnswer(answers=("2",)),
    )
    if task == "fact_verification" and "gold" not in kwargs:
        defaults["gold"] = GoldAnswer(label="REFUTES")
    defaults.update(kwargs)
    return Instance(**defaults)


# ---------------------------------------------------------------------------
# task resolution


def test_task_kinds():
    assert task_kind_for(make_instance("short_qa")) == SHORT_QA
    assert task_kind_for(make_instance("free_qa")) == FREE_QA


def test_fact_verification_labels_inferred_from_gold():
    threeway = make_instance("fact_verification", gold=GoldAnswer(label="REFUTES"))
    assert task_kind_for(threeway) == FACT_THREEWAY
    binary = make_instance("fact_verification", gold=GoldAnswer(label="false"))
    assert task_kind_for(binary) == FACT_BINARY


def test_explicit_labels_win_over_gold():
    """A false gold no longer selects the binary set under three-way labels: the instance is refused."""
    with pytest.raises(ValueError, match=r"^gold label 'false' is not one of SUPPORTS/REFUTES/NOT ENOUGH INFO$"):
        make_instance(
            "fact_verification",
            gold=GoldAnswer(label="false"),
            labels=("SUPPORTS", "REFUTES", "NOT ENOUGH INFO"),
        )


@pytest.mark.parametrize(
    "labels,kind",
    [
        (("True", "FALSE"), FACT_BINARY),
        (("false", "true"), FACT_BINARY),
        (("supports", "Refutes", "not enough info"), FACT_THREEWAY),
    ],
    ids=["binary_mixed_case", "binary_reordered", "threeway_mixed_case"],
)
def test_a_label_set_picks_its_family_whatever_its_case(labels, kind):
    """The instance keeps its own labels, which the extractor accepts; the family picks the pieces."""
    instance = make_instance("fact_verification", labels=labels, gold=GoldAnswer(label=labels[1]))
    assert task_kind_for(instance) == TaskKind(kind.name, kind.family, labels)
    assert _pieces()["instruction_" + kind.family] in build_task_prompt(instance)


def test_a_label_set_of_neither_family_is_refused():
    """Such an instance used to get the three-way instruction, whose labels its extractor refuses."""
    message = "labels ['entailed', 'refuted'] match neither true/false nor SUPPORTS/REFUTES/NOT ENOUGH INFO"
    with pytest.raises(ValueError) as caught:
        make_instance(
            "fact_verification", gold=GoldAnswer(label="entailed"), labels=("entailed", "refuted")
        )
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# prompt assembly


def test_section_order_and_answer_tail():
    instance = make_instance(
        sentences=(SentenceContext(text="Held in Brisbane.", title="Goodwill Games"),)
    )
    prompt = build_task_prompt(instance)
    question = prompt.index("## Question")
    table = prompt.index("## Table Context")
    sentences = prompt.index("## Sentence Context")
    task = prompt.index("## Task")
    assert question < table < sentences < task
    assert prompt.endswith("## Answer")
    assert "Goodwill Games: Held in Brisbane." in prompt
    assert "| Edith Masai | Gold |" in prompt


def test_every_demo_writes_its_results_under_the_first_marker():
    """The loop adds ``RESULT_MARKERS[0]`` under a block without one, as the demos write it."""
    demos = {name: text for name, text in _pieces().items() if name.startswith("demo_")}
    assert demos
    for name, text in demos.items():
        blocks = segment_response(text).sql_blocks
        assert blocks, name
        for block in blocks:
            assert block.claimed_result, name
            assert text[block.sql_end : block.marker_end].strip() == RESULT_MARKERS[0], name


def test_demo_is_present_exactly_once_and_can_be_disabled():
    instance = make_instance()
    demo = _pieces()["demo_short_qa"]
    with_demo = build_task_prompt(instance)
    assert with_demo.count(demo) == 1
    assert with_demo.startswith(demo)
    without = build_task_prompt(instance, include_demo=False)
    assert demo not in without
    assert without.startswith("## Question")


def test_instruction_appears_exactly_once():
    instance = make_instance()
    prompt = build_task_prompt(instance)
    instruction = _pieces()["instruction_short_qa"]
    assert prompt.count(instruction) == 1


def test_fact_verification_uses_claim_heading():
    instance = make_instance("fact_verification", query="Kenya won 3 medals.")
    prompt = build_task_prompt(instance)
    assert "## Claim\nKenya won 3 medals." in prompt
    assert "## Question" not in prompt


def test_binary_and_threeway_pick_different_pieces():
    pieces = _pieces()
    binary = build_task_prompt(
        make_instance("fact_verification", gold=GoldAnswer(label="true"))
    )
    threeway = build_task_prompt(
        make_instance("fact_verification", gold=GoldAnswer(label="SUPPORTS"))
    )
    assert pieces["instruction_fact_binary"] in binary
    assert pieces["instruction_fact_threeway"] in threeway
    assert pieces["demo_fact_binary"] in binary
    assert pieces["demo_fact_threeway"] in threeway


def test_free_qa_has_no_demo():
    prompt = build_task_prompt(make_instance("free_qa"))
    assert prompt.startswith("## Question")


def test_sentence_section_omitted_without_sentences():
    prompt = build_task_prompt(make_instance())
    assert "## Sentence Context" not in prompt


# ---------------------------------------------------------------------------
# judge prompt


def test_judge_prompt_fills_all_three_slots():
    prompt = build_judge_prompt(
        "when was the venue built?", "1849", "December 31, 1849"
    )
    assert "when was the venue built?" in prompt
    assert "1849" in prompt
    assert "December 31, 1849" in prompt
