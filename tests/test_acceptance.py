"""Release gate: the nine properties this package is required to satisfy.

Each test prints exactly one ``criterion N (<name>): PASS|FAIL`` line on the
real terminal (bypassing capture) so a plain ``pytest tests/test_acceptance.py``
run shows the full scorecard at a glance.
"""

import random
import time

from tabreason.backends import RecordingBackend, ReplayBackend
from tabreason.dataset import consistency_filter, generate_candidates
from tabreason.evaluation import score_outcome, three_class_f1
from tabreason.orchestrator import Outcome, RunConfig, run_batch, run_instance, write_traces
from tabreason.responses import extract_final_answer, segment_response
from tabreason.sql import run_statement
from tabreason.tables import (
    BudgetTooSmall,
    GoldAnswer,
    Instance,
    Table,
    estimate_tokens,
    serialize_for_prompt,
    truncate_to_budget,
)

from sql_oracle import oracle_execute, random_case
from transcripts import (
    ALL_CASES,
    CONCLUSION_FIXTURES,
    DELTA_GREEN_CASE,
    DELTA_GREEN_CLAIMED,
    JUDGES_CASE,
    SEGMENTATION_PIECES,
)


def _verdict(capfd, number, slug, check):
    """Run a criterion check and print its PASS/FAIL line unconditionally."""
    ok = False
    error = None
    try:
        ok = bool(check())
    except Exception as exc:
        error = exc
    with capfd.disabled():
        print("criterion %d (%s): %s" % (number, slug, "PASS" if ok else "FAIL"))
    if error is not None:
        raise error
    assert ok, "criterion %d (%s) failed" % (number, slug)


# ---------------------------------------------------------------------------
# 1. engine equivalence against the naive oracle


def test_criterion_1_sql_oracle_equivalence(capfd):
    def check():
        rng = random.Random(20240517)
        start = time.perf_counter()
        for _ in range(500):
            headers, rows, sql_text, spec = random_case(rng)
            want_headers, want_rows = oracle_execute(spec, headers, rows)
            result = run_statement(sql_text, Table(headers, rows))
            if result.headers != tuple(want_headers):
                return False
            if [list(r) for r in result.rows] != [list(r) for r in want_rows]:
                return False
        return (time.perf_counter() - start) < 5.0

    _verdict(capfd, 1, "sql-oracle-equivalence", check)


# ---------------------------------------------------------------------------
# 2. transcript replay


def test_criterion_2_transcript_replay(capfd):
    def check():
        for case in ALL_CASES:
            backend = ReplayBackend.from_texts(case.script)
            outcome, _ = run_instance(case.instance, backend)
            if outcome.status != "ok":
                return False
            if outcome.api_calls != case.expected_api_calls:
                return False
            answer = outcome.final_answer
            if case.expected_label is not None and answer.label != case.expected_label:
                return False
            if case.expected_answers and answer.answers != case.expected_answers:
                return False
        return True

    _verdict(capfd, 2, "transcript-replay", check)


# ---------------------------------------------------------------------------
# 3. injected text is the engine's result, not the model's claim


def test_criterion_3_injection_correctness(capfd):
    def check():
        backend = ReplayBackend.from_texts(JUDGES_CASE.script)
        _, trace = run_instance(JUDGES_CASE.instance, backend)
        injected = [r.injected_text for r in trace.rounds if r.injected_text is not None]
        if injected != ["| Left office |\n| December 31 , 1849 |"]:
            return False
        return "1849-12-31" not in trace.final_generation

    _verdict(capfd, 3, "injection-correctness", check)


# ---------------------------------------------------------------------------
# 4. fallback to the claimed result on execution failure


def test_criterion_4_fallback(capfd):
    def check():
        backend = ReplayBackend.from_texts(DELTA_GREEN_CASE.script)
        _, trace = run_instance(DELTA_GREEN_CASE.instance, backend)
        failed = [r for r in trace.rounds if r.fallback_used]
        if len(failed) != 1:
            return False
        return failed[0].injected_text == DELTA_GREEN_CLAIMED

    _verdict(capfd, 4, "fallback", check)


# ---------------------------------------------------------------------------
# 5. segmentation never loses a byte


def test_criterion_5_lossless_segmentation(capfd):
    def check():
        rng = random.Random(987123)
        for _ in range(10_000):
            text = "".join(
                rng.choice(SEGMENTATION_PIECES) for _ in range(rng.randint(0, 20))
            )
            if segment_response(text).reassemble() != text:
                return False
        return True

    _verdict(capfd, 5, "lossless-segmentation", check)


# ---------------------------------------------------------------------------
# 6. concluding sentences extract the expected answers


def test_criterion_6_answer_extraction(capfd):
    def check():
        if len(CONCLUSION_FIXTURES) < 10:
            return False
        for _, text, task, labels, expected in CONCLUSION_FIXTURES:
            if extract_final_answer(text, task, labels) != expected:
                return False
        return True

    _verdict(capfd, 6, "answer-extraction", check)


# ---------------------------------------------------------------------------
# 7. consistency filter keeps exactly the gold-consistent candidates


def _filter_fixture():
    table = Table(
        ["Fiscal Years", "Cost of revenue"],
        [["2019", "1,387.9"], ["2018", "1,437.8"]],
    )
    instances = [
        Instance(
            id="keep-short",
            task="short_qa",
            query="which fiscal year is listed first?",
            table=table,
            gold=GoldAnswer(answers=("2019",)),
        ),
        Instance(
            id="keep-label",
            task="fact_verification",
            query="Cost of revenue fell from 2018 to 2019.",
            table=table,
            gold=GoldAnswer(label="SUPPORTS"),
        ),
        Instance(
            id="drop-percent",
            task="short_qa",
            query="what was the change in gross margin?",
            table=table,
            gold=GoldAnswer(answers=("46.5%",)),
        ),
        Instance(
            id="drop-missing",
            task="short_qa",
            query="how many years are shown?",
            table=table,
            gold=GoldAnswer(answers=("2",)),
        ),
        Instance(
            id="drop-label",
            task="fact_verification",
            query="Cost of revenue rose from 2018 to 2019.",
            table=table,
            gold=GoldAnswer(label="REFUTES"),
        ),
    ]
    responses = {
        "keep-short": "Reading the first row.\nThe final answer is 2019.",
        "keep-label": "Costs decreased.\nTherefore, the answer is SUPPORTS.",
        # the model computes 48% where the annotation says 46.5%
        "drop-percent": "Computing the margin change.\nThe final answer is 48%.",
        "drop-missing": "I could not finish the computation.",
        "drop-label": "Costs decreased.\nTherefore, the answer is SUPPORTS.",
    }
    return instances, responses


def test_criterion_7_consistency_filter(capfd):
    def check():
        from tabreason.backends import ScriptEntry, request_key
        from tabreason.prompts import build_task_prompt

        instances, responses = _filter_fixture()
        entries = [
            ScriptEntry(
                response=responses[i.id],
                key=request_key(
                    [{"role": "user", "content": build_task_prompt(i)}]
                ),
            )
            for i in instances
        ]
        candidates, errors = generate_candidates(instances, ReplayBackend(entries))
        if errors:
            return False
        kept, dropped = consistency_filter(candidates, instances)
        if sorted(c.instance_id for c in kept) != ["keep-label", "keep-short"]:
            return False
        if sorted(d.candidate.instance_id for d in dropped) != [
            "drop-label",
            "drop-missing",
            "drop-percent",
        ]:
            return False
        # the 48% answer was dropped precisely for disagreeing with 46.5%
        percent = [d for d in dropped if d.candidate.instance_id == "drop-percent"][0]
        if "48%" not in percent.reason or "46.5%" not in percent.reason:
            return False
        # every kept candidate re-scores as correct
        by_id = {i.id: i for i in instances}
        for candidate in kept:
            outcome = Outcome(
                instance_id=candidate.instance_id,
                final_answer=candidate.extracted_answer,
                api_calls=1,
            )
            if not score_outcome(outcome, by_id[candidate.instance_id]):
                return False
        return True

    _verdict(capfd, 7, "consistency-filter", check)


# ---------------------------------------------------------------------------
# 8. metrics: macro F1 vs brute force, truncation soundness


def test_criterion_8_metrics(capfd):
    def check():
        golds = ["SUPPORTS", "SUPPORTS", "REFUTES", "REFUTES", "NOT ENOUGH INFO"]
        preds = ["SUPPORTS", "SUPPORTS", "REFUTES", "NOT ENOUGH INFO", "SUPPORTS"]
        result = three_class_f1(preds, golds)
        labels = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")
        for label in labels:
            tp = sum(1 for p, g in zip(preds, golds) if p == g == label)
            fp = sum(1 for p, g in zip(preds, golds) if p == label != g)
            fn = sum(1 for p, g in zip(preds, golds) if g == label != p)
            if tp == 0:
                expected = 0.0
            else:
                precision = tp / (tp + fp)
                recall = tp / (tp + fn)
                expected = 2 * precision * recall / (precision + recall)
            if abs(result.per_class[label] - expected) > 1e-9:
                return False
        brute_macro = sum(
            result.per_class[label] for label in labels
        ) / len(labels)
        if abs(result.value - brute_macro) > 1e-9:
            return False

        rng = random.Random(424242)
        words = ("alpha", "beta", "gamma", "delta", "42", "3.5", "w 24 - 20")
        for _ in range(200):
            n_cols = rng.randint(1, 5)
            n_rows = rng.randint(0, 40)
            headers = ["col %d" % i for i in range(n_cols)]
            rows = [
                [rng.choice(words) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            table = Table(headers, rows)
            budget = rng.randint(10, 500)
            try:
                cut = truncate_to_budget(table, budget)
            except BudgetTooSmall:
                # the header alone must genuinely exceed the budget
                header_only = Table(headers, [])
                if estimate_tokens(serialize_for_prompt(header_only)) <= budget:
                    return False
                continue
            if estimate_tokens(serialize_for_prompt(cut)) > budget:
                return False
            if cut.headers != table.headers:
                return False
            kept = [tuple(r) for r in cut.rows]
            original = [tuple(r) for r in table.rows]
            if kept != original[: len(kept)]:
                return False
        return True

    _verdict(capfd, 8, "metrics", check)


# ---------------------------------------------------------------------------
# 9. batch runs are deterministic across parallelism levels


def test_criterion_9_determinism(capfd, tmp_path):
    def check():
        instances = [case.instance for case in ALL_CASES]
        flat = [text for case in ALL_CASES for text in case.script]
        recorder = RecordingBackend(ReplayBackend.from_texts(flat))
        run_batch(instances, recorder, parallelism=1)
        script = tmp_path / "recorded.jsonl"
        recorder.write_script(str(script))

        paths = []
        for parallelism in (1, 8):
            backend = ReplayBackend.from_script(str(script))
            results = run_batch(instances, backend, parallelism=parallelism)
            if any(outcome.status != "ok" for outcome, _ in results):
                return False
            path = tmp_path / ("traces_p%d.jsonl" % parallelism)
            write_traces(results, str(path))
            paths.append(path)
        return paths[0].read_bytes() == paths[1].read_bytes()

    _verdict(capfd, 9, "determinism", check)
