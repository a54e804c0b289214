"""Prompt assembly: prompt families, section order, demos, judge prompt."""

import pytest

from tabreason.prompts import _pieces, build_judge_prompt, build_task_prompt
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
# prompt families


FAMILIES = ("short_qa", "free_qa", "fact_binary", "fact_threeway")


@pytest.mark.parametrize(
    "instance,family",
    [
        (make_instance("short_qa"), "short_qa"),
        (make_instance("free_qa"), "free_qa"),
        (make_instance("fact_verification", gold=GoldAnswer(label="false")), "fact_binary"),
        (make_instance("fact_verification", gold=GoldAnswer(label="true")), "fact_binary"),
        (make_instance("fact_verification", gold=GoldAnswer(label="REFUTES")), "fact_threeway"),
        (make_instance("fact_verification", gold=GoldAnswer(label="SUPPORTS")), "fact_threeway"),
        (make_instance("fact_verification", labels=("True", "FALSE"), gold=GoldAnswer(label="FALSE")),
         "fact_binary"),
        (make_instance("fact_verification", labels=("false", "true"), gold=GoldAnswer(label="true")),
         "fact_binary"),
        (make_instance("fact_verification", labels=("supports", "Refutes", "not enough info"),
                       gold=GoldAnswer(label="Refutes")), "fact_threeway"),
    ],
    ids=["short_qa", "free_qa", "binary_by_false_gold", "binary_by_true_gold", "threeway_by_refutes_gold",
         "threeway_by_supports_gold", "binary_mixed_case", "binary_reordered", "threeway_mixed_case"],
)
def test_a_prompt_holds_its_familys_instruction_and_demo_and_no_other(instance, family):
    """Free QA has no demonstration; a label set picks its family whatever its case or order."""
    pieces = _pieces()
    prompt = build_task_prompt(instance)
    for other in FAMILIES:
        assert (pieces["instruction_" + other] in prompt) == (other == family), other
        demo = pieces.get("demo_" + other)
        assert (demo is not None and demo in prompt) == (other == family != "free_qa"), other


def test_explicit_labels_win_over_gold():
    """A false gold no longer selects the binary set under three-way labels: the instance is refused."""
    with pytest.raises(ValueError, match=r"^gold label 'false' is not one of SUPPORTS/REFUTES/NOT ENOUGH INFO$"):
        make_instance(
            "fact_verification",
            gold=GoldAnswer(label="false"),
            labels=("SUPPORTS", "REFUTES", "NOT ENOUGH INFO"),
        )


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
