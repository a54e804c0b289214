"""Answer normalization, denotation matching, macro F1, and run reports."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabreason.backends import ReplayBackend
from tabreason.evaluation import (
    IdMismatch,
    JudgeVerdict,
    LengthMismatch,
    build_report,
    denotation_match,
    judge_verdict,
    normalize_answer,
    render_report,
    score_outcome,
    three_class_f1,
)
from tabreason.orchestrator import Outcome, RoundRecord, Trace
from tabreason.responses import FinalAnswer
from tabreason.tables import GoldAnswer, Instance, Table


THREEWAY = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")
TABLE = Table(["a"], [["1"]])


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Damaris Phillips", "damaris phillips"),
        ("  Damaris   Phillips ", "damaris phillips"),
        ("48%", "0.48"),
        ("0.48", "0.48"),
        ("2,000", "2000"),
        ("3.0", "3"),
        ("**2**", "2"),
        ("\\textbf{2}", "2"),
        ('"Paris".', "paris"),
        ("December 31 , 1849", "december 31, 1849"),
        ("December 31, 1849", "december 31, 1849"),
        ("W 24 - 20", "w 24 - 20"),
    ],
)
def test_normalize_answer(raw, expected):
    assert normalize_answer(raw) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


def test_denotation_match_is_order_insensitive():
    assert denotation_match(["1849", "December 31"], ["December 31", "1849"])


def test_denotation_match_counts_duplicates():
    assert not denotation_match(["a", "a"], ["a"])
    assert denotation_match(["a", "a"], ["A", "a"])


def test_denotation_match_normalizes_each_side():
    assert denotation_match(["48%"], ["0.48"])
    assert denotation_match(["2,000"], ["2000"])
    assert not denotation_match(["48%"], ["46.5%"])


def test_denotation_match_rejects_empty_gold():
    with pytest.raises(ValueError):
        denotation_match(["x"], [])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=10), min_size=1, max_size=5), st.randoms())
def test_denotation_match_is_permutation_invariant(gold, rng):
    shuffled = list(gold)
    rng.shuffle(shuffled)
    assert denotation_match(shuffled, gold)


# ---------------------------------------------------------------------------
# macro F1


def brute_force_f1(preds, golds, label):
    tp = sum(1 for p, g in zip(preds, golds) if p == g == label)
    fp = sum(1 for p, g in zip(preds, golds) if p == label != g)
    fn = sum(1 for p, g in zip(preds, golds) if g == label != p)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def test_three_class_f1_hand_fixture():
    golds = ["SUPPORTS", "SUPPORTS", "REFUTES", "REFUTES", "NOT ENOUGH INFO"]
    preds = ["SUPPORTS", "SUPPORTS", "REFUTES", "NOT ENOUGH INFO", "SUPPORTS"]
    result = three_class_f1(preds, golds)
    assert result.per_class["SUPPORTS"] == pytest.approx(0.8)
    assert result.per_class["REFUTES"] == pytest.approx(2 / 3)
    assert result.per_class["NOT ENOUGH INFO"] == pytest.approx(0.0)
    assert result.value == pytest.approx((0.8 + 2 / 3) / 3)
    assert result.absent_classes == ()


def test_three_class_f1_flags_absent_classes():
    result = three_class_f1(["SUPPORTS"], ["SUPPORTS"])
    assert result.per_class["SUPPORTS"] == 1.0
    assert set(result.absent_classes) == {"REFUTES", "NOT ENOUGH INFO"}
    assert result.value == pytest.approx(1 / 3)


def test_three_class_f1_canonicalizes_case():
    result = three_class_f1(["supports"], ["SUPPORTS"])
    assert result.per_class["SUPPORTS"] == 1.0


def test_three_class_f1_validates_lengths():
    with pytest.raises(LengthMismatch):
        three_class_f1(["SUPPORTS"], [])
    with pytest.raises(ValueError):
        three_class_f1([], [])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(THREEWAY), st.sampled_from(THREEWAY)),
        min_size=1,
        max_size=40,
    )
)
def test_three_class_f1_matches_brute_force(pairs):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    result = three_class_f1(preds, golds)
    expected = [brute_force_f1(preds, golds, label) for label in THREEWAY]
    for label, want in zip(THREEWAY, expected):
        assert abs(result.per_class[label] - want) < 1e-12
    assert abs(result.value - sum(expected) / 3) < 1e-12


# ---------------------------------------------------------------------------
# outcome scoring


def make_instance(task, gold, id="q1", **kwargs):
    return Instance(id=id, task=task, query="q?", table=TABLE, gold=gold, **kwargs)


def make_outcome(answer, id="q1", api_calls=2):
    return Outcome(instance_id=id, final_answer=answer, api_calls=api_calls)


def test_score_label_case_insensitive():
    instance = make_instance("fact_verification", GoldAnswer(label="REFUTES"))
    assert score_outcome(make_outcome(FinalAnswer(kind="label", label="refutes")), instance)
    assert not score_outcome(make_outcome(FinalAnswer(kind="label", label="SUPPORTS")), instance)


@pytest.mark.parametrize("gold,answer", [(" True ", "true"), ("SUPPORTS ", "SUPPORTS")])
def test_a_gold_label_with_surrounding_whitespace_scores_as_its_family(gold, answer):
    instance = make_instance("fact_verification", GoldAnswer(label=gold))
    outcome = make_outcome(FinalAnswer(kind="label", label=answer))
    assert score_outcome(outcome, instance)
    report = build_report([outcome], None, [instance])
    assert report.scores["accuracy"] == 1.0
    if "three_class_f1" in report.scores:  # the three-way family only
        assert report.scores["three_class_f1"] == pytest.approx(1 / 3)


def test_score_short_uses_denotation():
    instance = make_instance("short_qa", GoldAnswer(answers=("December 31", "1849")))
    good = FinalAnswer(kind="short", answers=("1849", "december 31"))
    bad = FinalAnswer(kind="short", answers=("1849",))
    assert score_outcome(make_outcome(good), instance)
    assert not score_outcome(make_outcome(bad), instance)


def test_score_free_text_matches_any_gold():
    instance = make_instance("free_qa", GoldAnswer(answers=("The winner was Ann.", "Ann won.")))
    answer = FinalAnswer(kind="free", text="ann  won.")
    assert score_outcome(make_outcome(answer), instance)
    assert not score_outcome(make_outcome(FinalAnswer(kind="free", text="Bob won.")), instance)


def test_score_missing_is_wrong():
    instance = make_instance("short_qa", GoldAnswer(answers=("1",)))
    assert not score_outcome(make_outcome(FinalAnswer.missing()), instance)


def test_score_percent_against_decimal_gold():
    instance = make_instance("short_qa", GoldAnswer(answers=("46.5%",)))
    assert not score_outcome(
        make_outcome(FinalAnswer(kind="short", answers=("48%",))), instance
    )
    assert score_outcome(
        make_outcome(FinalAnswer(kind="short", answers=("0.465",))), instance
    )


# ---------------------------------------------------------------------------
# judge


def test_judge_verdicts():
    for raw, expected in (("Yes", "yes"), ("No.", "no"), ("hmm", "unparseable")):
        backend = ReplayBackend.from_texts([raw])
        verdict = judge_verdict("q?", "gold", "pred", backend)
        assert verdict == JudgeVerdict(verdict=expected, raw=raw)
        assert backend.counter.total == 1


# ---------------------------------------------------------------------------
# reports


def fixture_run():
    instances = [
        make_instance(
            "fact_verification",
            GoldAnswer(label="SUPPORTS"),
            id="v1",
            tags={"program_solvable": True},
        ),
        make_instance(
            "fact_verification",
            GoldAnswer(label="REFUTES"),
            id="v2",
            tags={"program_solvable": False},
        ),
        make_instance("short_qa", GoldAnswer(answers=("2",)), id="s1"),
    ]
    outcomes = [
        make_outcome(FinalAnswer(kind="label", label="SUPPORTS"), id="v1"),
        make_outcome(FinalAnswer(kind="label", label="SUPPORTS"), id="v2"),
        make_outcome(FinalAnswer.missing(), id="s1", api_calls=1),
    ]
    return outcomes, instances


def test_build_report_scores_and_macro():
    outcomes, instances = fixture_run()
    report = build_report(outcomes, None, instances)
    assert report.evaluated == 3
    assert report.missing_answer == 1
    assert report.scores["accuracy"] == pytest.approx(1 / 3)
    assert report.macro_f1 is not None
    assert "three_class_f1" in report.scores
    assert report.mean_api_calls == pytest.approx((2 + 2 + 1) / 3)


def test_build_report_breakdowns_partition_instances():
    outcomes, instances = fixture_run()
    report = build_report(outcomes, None, instances)
    groups = report.breakdowns["program_solvable"]
    assert sum(g.count for g in groups.values()) == len(instances)
    assert groups["True"].count == 1
    assert groups["True"].correct == 1
    assert groups["False"].count == 1
    assert groups["False"].correct == 0
    assert groups["(untagged)"].count == 1


def test_build_report_validates_id_order():
    outcomes, instances = fixture_run()
    with pytest.raises(IdMismatch):
        build_report(list(reversed(outcomes)), None, instances)
    traces = [Trace(o.instance_id, "", (), "", o.final_answer, o.api_calls) for o in outcomes]
    with pytest.raises(IdMismatch, match="^trace ids do not match instance ids$"):
        build_report(outcomes, list(reversed(traces)), instances)


def test_report_without_threeway_instances_has_no_f1():
    instance = make_instance("short_qa", GoldAnswer(answers=("2",)))
    outcome = make_outcome(FinalAnswer(kind="short", answers=("2",)))
    report = build_report([outcome], None, [instance])
    assert report.macro_f1 is None
    assert report.scores == {"accuracy": 1.0}


def test_judge_counts_are_tallied_separately():
    outcomes, instances = fixture_run()
    verdicts = {
        "v1": JudgeVerdict(verdict="yes", raw="Yes"),
        "v2": JudgeVerdict(verdict="no", raw="No"),
    }
    report = build_report(outcomes, None, instances, judge_verdicts=verdicts)
    assert report.judge_counts == {"yes": 1, "no": 1, "unparseable": 0}
    # accuracy is untouched by the judge
    assert report.scores["accuracy"] == pytest.approx(1 / 3)


def test_report_serialization_and_rendering():
    outcomes, instances = fixture_run()
    report = build_report(outcomes, None, instances)
    data = json.loads(report.to_json())
    assert data["evaluated"] == 3
    assert 0.0 <= data["scores"]["accuracy"] <= 1.0
    text = render_report(report)
    assert "accuracy" in text
    assert "three_class_f1" in text
    assert "program_solvable" in text


def test_a_finished_run_whose_last_call_was_cut_off_is_counted_and_keeps_its_answer():
    outcomes, instances = fixture_run()

    def trace(outcome, finishes, status="ok"):
        rounds = tuple(
            RoundRecord(generation=None if f is None else "text", detected_sql=None,
                        execution_outcome="no_sql", finish_reason=f, attempts=f and 1)
            for f in finishes
        )
        return Trace(outcome.instance_id, "", rounds, "", outcome.final_answer,
                     outcome.api_calls, status=status)

    traces = [
        trace(outcomes[0], ["stop", "length", None]),  # the last call was cut off
        trace(outcomes[1], ["length", "stop"]),  # an earlier call was
        trace(outcomes[2], ["length"], status="backend_error"),  # a later call failed
    ]
    untraced = build_report(outcomes, None, instances)
    report = build_report([t.outcome for t in traces], traces, instances)
    assert report.cut_off == 1
    assert report.to_dict()["cut_off"] == 1
    assert re.search(r"^cut_off +1$", render_report(report), re.M)
    assert report.scores == untraced.scores
    assert report.statuses == {"ok": 2, "backend_error": 1, "crashed": 0}
    assert untraced.cut_off is None
    assert "cut_off" not in untraced.to_dict()
    assert "cut_off" not in render_report(untraced)
