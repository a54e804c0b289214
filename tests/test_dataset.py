"""Teacher-response collection, trace-based error tags, filtering, and exports."""

import json

import pytest

from tabreason.backends import ReplayBackend, ScriptEntry, request_key
from tabreason.dataset import (
    SEGMENT_CHOICES,
    TAG_EXECUTION_MISMATCH,
    TAG_SQL_ERROR,
    Candidate,
    IdMismatch,
    consistency_filter,
    export_jsonl,
    generate_candidates,
    sample_instances,
    select_segment,
    trace_error_tags,
)
from tabreason.orchestrator import RunConfig, run_instance
from tabreason.prompts import build_task_prompt
from tabreason.responses import FinalAnswer
from tabreason.sql import format_result, run_statement
from tabreason.tables import GoldAnswer, Instance, Table, truncate_to_budget

from transcripts import JUDGES_CASE


TABLE = Table(
    ["Name", "Nationality"],
    [["Edith", "Kenya"], ["Ann", "Kenya"], ["Ivana", "Russia"]],
)


def make_instance(id, gold="2"):
    return Instance(
        id=id,
        task="short_qa",
        query="how many athletes are from Kenya?",
        table=TABLE,
        gold=GoldAnswer(answers=(gold,)),
    )


def keyed_entry(instance, response, config=RunConfig()):
    prompt = build_task_prompt(instance, include_demo=config.include_demo)
    return ScriptEntry(
        response=response, key=request_key([{"role": "user", "content": prompt}])
    )


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_and_order_preserving():
    pool = [make_instance("i%02d" % n) for n in range(30)]
    first = sample_instances(pool, 10, seed=7)
    second = sample_instances(pool, 10, seed=7)
    assert first == second
    assert len(first) == 10
    ids = [i.id for i in first]
    assert ids == sorted(ids)  # original order is preserved


def test_sampling_more_than_available_returns_everything():
    pool = [make_instance("a"), make_instance("b")]
    assert sample_instances(pool, 5, seed=1) == pool


# ---------------------------------------------------------------------------
# candidate generation


def test_generate_candidates_scores_against_gold():
    good = make_instance("good", gold="2")
    bad = make_instance("bad", gold="3")
    failing = make_instance("failing")
    backend = ReplayBackend(
        [
            keyed_entry(good, "Both Edith and Ann are Kenyan.\nThe final answer is 2."),
            keyed_entry(bad, "Counting loosely.\nThe final answer is 2."),
        ]
    )
    candidates, errors = generate_candidates([good, bad, failing], backend)
    assert [c.instance_id for c in candidates] == ["good", "bad"]
    assert [e.instance_id for e in errors] == ["failing"]
    assert errors[0].status == "backend_error" and "used up" in errors[0].error
    assert candidates[0].consistent
    assert candidates[0].extracted_answer == FinalAnswer(kind="short", answers=("2",))
    assert not candidates[1].consistent
    assert candidates[0].error_tags == ()


def test_every_instance_becomes_candidate_or_error():
    instances = [make_instance("a"), make_instance("b")]
    backend = ReplayBackend([keyed_entry(instances[0], "The final answer is 2.")])
    candidates, errors = generate_candidates(instances, backend)
    assert len(candidates) + len(errors) == len(instances)


# ---------------------------------------------------------------------------
# error tagging


SQL_OK = (
    "2. Write SQL and execute SQL\n"
    "```sql\nSELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'\n```\n"
    "Executed result:\n| COUNT(*) |\n| 2 |\n\n"
    "3. Answer\nThe final answer is 2."
)

SQL_WRONG_CLAIM = (
    "2. Write SQL and execute SQL\n"
    "```sql\nSELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'\n```\n"
    "Executed result:\n| COUNT(*) |\n| 3 |\n\n"
    "3. Answer\nThe final answer is 3."
)

SQL_BROKEN = (
    "2. Write SQL and execute SQL\n"
    "```sql\nSELECT `Points` FROM w\n```\n"
    "Executed result:\n| Points |\n| 10 |\n\n"
    "3. Answer\nThe final answer is 10."
)


def tags_for(script, instance=None):
    """Run ``script`` (one reply per loop call) and tag the resulting trace."""
    instance = instance or make_instance("x")
    _, trace = run_instance(instance, ReplayBackend.from_texts(script))
    return trace_error_tags(trace)


def test_accurate_claim_gets_no_tags():
    assert tags_for([SQL_OK, "The final answer is 2."]) == ()


def test_wrong_claim_is_tagged_as_execution_mismatch():
    assert tags_for([SQL_WRONG_CLAIM, "The final answer is 2."]) == (
        TAG_EXECUTION_MISMATCH,
    )


def test_unexecutable_sql_is_tagged():
    assert tags_for([SQL_BROKEN, "The final answer is 10."]) == (TAG_SQL_ERROR,)


def test_both_tags_can_appear_together():
    # the splice drops what follows the first claim, so the second block
    # arrives in the continuation
    script = [
        SQL_WRONG_CLAIM + "\n\n" + SQL_BROKEN,
        "\n\n" + SQL_BROKEN,
        "The final answer is 10.",
    ]
    assert tags_for(script) == (TAG_EXECUTION_MISMATCH, TAG_SQL_ERROR)


SQL_OK_TWICE = SQL_OK.replace(
    "\n\n3. Answer",
    "\n\n```sql\nSELECT `Name` FROM w WHERE `Nationality` = 'Kenya'\n```\n"
    "Executed result:\n| Name |\n| Edith |\n| Ann |\n\n3. Answer",
)


@pytest.mark.parametrize("cap,tags", [(1, ("stopped_on_cap",)), (2, ())])
def test_a_kept_run_that_stopped_on_the_cap_is_tagged(cap, tags):
    """At a cap of 1 the second block never ran, though every executed claim was right."""
    instance = make_instance("capped")
    candidates, errors = generate_candidates(
        [instance], ReplayBackend.from_texts([SQL_OK_TWICE]), RunConfig(max_injection_rounds=cap)
    )
    kept, dropped = consistency_filter(candidates, [instance])
    assert (errors, dropped) == ([], [])
    assert kept[0].error_tags == tags


def test_claim_comparison_ignores_row_order_and_header():
    response = (
        "```sql\nSELECT `Name` FROM w WHERE `Nationality` = 'Kenya'\n```\n"
        "Executed result:\n| Ann |\n| Edith |\n\n3. done\nThe final answer is 2."
    )
    # actual order is Edith, Ann; the claim lists them reversed and headerless
    assert tags_for([response, "The final answer is 2."]) == ()


def test_claim_comparison_normalizes_cells():
    table = Table(["Share"], [["0.48"]])
    instance = Instance(
        id="pct",
        task="short_qa",
        query="what share?",
        table=table,
        gold=GoldAnswer(answers=("48%",)),
    )
    response = (
        "```sql\nSELECT `Share` FROM w\n```\n"
        "Executed result:\n| Share |\n| 48% |\n\n3. Answer\nThe final answer is 48%."
    )
    assert tags_for([response, "The final answer is 48%."], instance) == ()


@pytest.mark.parametrize(
    "claim,tags",
    [("| COUNT(*) |\n| 2 |", ()), ("| COUNT(*) |\n| 3 |", (TAG_EXECUTION_MISMATCH,))],
    ids=["right_table", "wrong_table"],
)
def test_a_claim_is_tagged_by_its_table_not_the_prose_after_it(claim, tags):
    """An unfenced claim ends at its first blank line, so the prose after it is not compared."""
    response = (
        "```sql\nSELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'\n```\n"
        "Executed result:\n%s\n\n- First we look at the count.\n\n3. Answer\n"
        "The final answer is 2." % claim
    )
    backend = ReplayBackend.from_texts([response, "The final answer is 2."])
    _, trace = run_instance(make_instance("x"), backend)
    assert trace.rounds[0].claimed_result == claim
    assert trace_error_tags(trace) == tags


@pytest.mark.parametrize(
    "cell,tags", [("1", ()), ("2", (TAG_EXECUTION_MISMATCH,))], ids=["right", "wrong"]
)
def test_a_blank_line_inside_a_fenced_claim_is_not_a_row(cell, tags):
    table = Table(["a"], [["1"]])
    instance = Instance(
        id="fenced", task="short_qa", query="a?", table=table, gold=GoldAnswer(answers=("1",))
    )
    claim = "| a |\n\n| %s |" % cell
    response = "```sql\nSELECT `a` FROM w\n```\nExecuted result:\n```\n%s\n```\n" % claim
    backend = ReplayBackend.from_texts([response, "The final answer is 1."])
    _, trace = run_instance(instance, backend)
    assert trace.rounds[0].claimed_result == claim
    assert trace.rounds[0].injected_text == "| a |\n| 1 |"
    assert trace_error_tags(trace) == tags


def test_response_without_sql_has_no_tags():
    assert tags_for(["Just prose.\nThe final answer is 2."]) == ()


def test_claim_overwritten_by_the_splice_is_still_tagged():
    # round 1 claims 1849-12-31; the loop injects December 31 , 1849
    backend = ReplayBackend.from_texts(JUDGES_CASE.script)
    candidates, errors = generate_candidates([JUDGES_CASE.instance], backend)
    assert errors == []
    assert candidates[0].error_tags == (TAG_EXECUTION_MISMATCH,)


def test_claims_are_checked_against_the_truncated_table():
    table = Table(
        ["Name", "Nationality"],
        [["runner %03d" % n, "Kenya" if n % 2 == 0 else "Russia"] for n in range(400)],
    )
    config = RunConfig(table_token_budget=300)
    sql = "SELECT COUNT(*) FROM w WHERE `Nationality` = 'Kenya'"
    seen = run_statement(sql, truncate_to_budget(table, config.table_token_budget))
    assert seen.rows != run_statement(sql, table).rows  # truncation changes the count
    count = seen.rows[0][0]
    instance = Instance(
        id="big",
        task="short_qa",
        query="how many runners are from Kenya?",
        table=table,
        gold=GoldAnswer(answers=(count,)),
    )
    response = (
        "```sql\n%s\n```\nExecuted result:\n%s\n\n3. Answer\nThe final answer is %s."
        % (sql, format_result(seen), count)
    )
    backend = ReplayBackend.from_texts([response, "The final answer is %s." % count])
    candidates, _ = generate_candidates([instance], backend, config=config)
    assert candidates[0].consistent
    assert candidates[0].error_tags == ()


# ---------------------------------------------------------------------------
# consistency filter


def make_candidate(id, answer, consistent, response="r"):
    return Candidate(
        instance_id=id,
        prompt="the prompt %s saw" % id,
        teacher_response=response,
        extracted_answer=answer,
        consistent=consistent,
    )


def test_filter_partitions_without_loss():
    instances = [make_instance("a"), make_instance("b", gold="3"), make_instance("c")]
    candidates = [
        make_candidate("a", FinalAnswer(kind="short", answers=("2",)), True),
        make_candidate("b", FinalAnswer(kind="short", answers=("2",)), False),
        make_candidate("c", FinalAnswer.missing(), False),
    ]
    kept, dropped = consistency_filter(candidates, instances)
    assert [c.instance_id for c in kept] == ["a"]
    assert [d.candidate.instance_id for d in dropped] == ["b", "c"]
    assert len(kept) + len(dropped) == len(candidates)
    assert dropped[0].reason == "answer '2' does not match gold '3'"
    assert dropped[1].reason == "no final answer found"


def test_filter_rejects_unknown_candidate_id():
    with pytest.raises(IdMismatch):
        consistency_filter(
            [make_candidate("ghost", FinalAnswer.missing(), False)],
            [make_instance("a")],
        )


def test_filter_rejects_duplicate_instance_ids():
    with pytest.raises(IdMismatch):
        consistency_filter([], [make_instance("a"), make_instance("a")])


# ---------------------------------------------------------------------------
# segment selection


SECTIONED = (
    "1. Understand the question.\n"
    "- The question asks for a count.\n"
    "\n"
    "2. Write SQL and execute SQL\n"
    "```sql\nSELECT COUNT(*) FROM w\n```\n"
    "Executed result:\n| COUNT(*) |\n| 3 |\n"
    "\n"
    "3. Answer prediction\n"
    "- Three rows in total.\n"
    "\n"
    "The final answer is 3."
)


def test_full_segment_is_identity():
    assert select_segment(SECTIONED, "full") == SECTIONED


def test_answer_only_is_the_conclusion_line():
    assert select_segment(SECTIONED, "answer-only") == "The final answer is 3."


def test_reasoning_only_drops_the_plan_section():
    cut = select_segment(SECTIONED, "reasoning-only")
    assert cut.startswith("2. Write SQL")
    assert "Understand the question" not in cut
    assert cut.endswith("The final answer is 3.")


def test_planning_only_keeps_plan_and_conclusion():
    cut = select_segment(SECTIONED, "planning-only")
    assert cut.startswith("1. Understand the question.")
    assert "SELECT COUNT(*)" in cut
    assert "Three rows in total" not in cut
    assert cut.endswith("The final answer is 3.")


def test_unnumbered_responses_pass_through():
    plain = "no sections here\nThe final answer is 1."
    assert select_segment(plain, "reasoning-only") == plain
    assert select_segment(plain, "planning-only") == plain
    assert select_segment(plain, "answer-only") == "The final answer is 1."


def test_unknown_segment_raises():
    with pytest.raises(ValueError):
        select_segment(SECTIONED, "sql-only")
    assert "sql-only" not in SEGMENT_CHOICES


# ---------------------------------------------------------------------------
# exports and persistence


def test_export_writes_training_pairs(tmp_path):
    instances = [make_instance("a"), make_instance("b")]
    candidates = [
        make_candidate("a", FinalAnswer(kind="short", answers=("2",)), True, SQL_OK),
        make_candidate("b", FinalAnswer(kind="short", answers=("2",)), True, SQL_OK),
    ]
    path = tmp_path / "train.jsonl"
    written = export_jsonl(candidates, instances, str(path))
    assert written == 2
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in records] == ["a", "b"]
    assert records[0]["response"] == SQL_OK
    assert records[0]["prompt"] == "the prompt a saw"
    assert records[0]["tags"] == []


def test_export_writes_the_prompt_the_teacher_run_sent(tmp_path):
    """Pairs carry the prompt from the run's trace, not one rebuilt from the export's config."""
    config = RunConfig(include_demo=False)
    instances = [make_instance("a"), make_instance("b", gold="3")]
    candidates, errors = generate_candidates(
        instances, ReplayBackend.from_texts([SQL_OK, SQL_OK]), config=config
    )
    assert not errors
    path = tmp_path / "train.jsonl"
    assert export_jsonl(candidates, instances, str(path)) == 2
    for instance, line in zip(instances, path.read_text().splitlines()):
        _, trace = run_instance(instance, ReplayBackend.from_texts([SQL_OK]), config,
                                keep_claims=True)
        assert trace.api_calls == 1
        assert trace.prompt == build_task_prompt(instance, include_demo=False)
        assert json.loads(line)["prompt"] == trace.prompt != build_task_prompt(instance)


def test_export_applies_segment_selection(tmp_path):
    instances = [make_instance("a")]
    candidates = [
        make_candidate("a", FinalAnswer(kind="short", answers=("3",)), True, SECTIONED)
    ]
    path = tmp_path / "answers.jsonl"
    export_jsonl(candidates, instances, str(path), segment="answer-only")
    record = json.loads(path.read_text())
    assert record["response"] == "The final answer is 3."


def test_export_is_deterministic(tmp_path):
    instances = [make_instance("a")]
    candidates = [make_candidate("a", FinalAnswer(kind="short", answers=("2",)), True, SQL_OK)]
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    export_jsonl(candidates, instances, str(first))
    export_jsonl(candidates, instances, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_export_requires_candidates(tmp_path):
    with pytest.raises(ValueError):
        export_jsonl([], [make_instance("a")], str(tmp_path / "x.jsonl"))


def test_export_checks_ids_and_segment_before_opening_the_file(tmp_path):
    candidates = [make_candidate("a", FinalAnswer(kind="short", answers=("2",)), True, SQL_OK)]
    path = tmp_path / "train.jsonl"
    path.write_text("earlier pairs\n")
    with pytest.raises(IdMismatch):
        export_jsonl(candidates, [make_instance("b")], str(path))
    with pytest.raises(ValueError, match="unknown segment 'sql-only'"):
        export_jsonl(candidates, [make_instance("a")], str(path), segment="sql-only")
    assert path.read_text() == "earlier pairs\n"
