"""Command-line interface.

Four subcommands: ``infer`` runs the execution-in-the-loop pipeline over a
JSONL dataset, ``eval`` scores saved traces, ``sql`` runs one query against
a table file, and ``build-dataset`` produces filtered training pairs from a
teacher backend.  Machine-readable output goes to files or stdout;
diagnostics go to stderr.  Exit status is 0 on success, 1 when individual
items failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from . import dataset as dataset_mod
from .backends import (
    BACKEND_FAILURES,
    Backend,
    HttpBackend,
    HttpConfig,
    RecordingBackend,
    ReplayBackend,
)
from .evaluation import build_report, check_gold, check_ids, cut_off, judge_verdict, render_report
from .jsonl import check_writable, open_text, read_json
from .orchestrator import (
    RunConfig,
    Trace,
    load_run_config,
    load_traces,
    run_batch,
    write_outcomes,
    write_traces,
)
from .sql import SqlError, format_result, run_statement
from .tables import Instance, Table, load_instances, table_from_dict

T = TypeVar("T")


def _positive_int(text: str) -> int:
    """An argparse type for a count that must be at least 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)


def _add_backend_flags(
    parser: argparse.ArgumentParser, flag: str, spec_help: str, required: bool = True
) -> None:
    """Add ``flag``, which takes a backend spec, and the flags an ``http`` spec reads."""
    parser.add_argument(flag, required=required, help=spec_help)
    parser.add_argument("--base-url", help="API root for the http backend")
    parser.add_argument("--model", help="model name for the http backend")
    parser.add_argument(
        "--api-key-env",
        default="OPENAI_API_KEY",
        help="environment variable holding the API key (default %(default)s)",
    )


def _add_run_flags(parser: argparse.ArgumentParser, flag: str) -> None:
    """Add the flags of a command that runs the loop on the backend ``flag`` names."""
    parser.add_argument("--config", help="key=value run config file")
    parser.add_argument("--parallelism", type=_positive_int, default=1)
    _add_backend_flags(parser, flag, "backend spec: 'replay:SCRIPT.jsonl' or 'http'")
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="also write every call made as a keyed replay script (replay:PATH runs it at any parallelism)",
    )


def _make_backend(spec: str, args: argparse.Namespace, parser: argparse.ArgumentParser) -> Backend:
    if spec.startswith("replay:"):
        return ReplayBackend.from_script(spec[len("replay:") :])
    if spec != "http":
        parser.error("unknown backend spec %r" % spec)
    if not args.base_url or not args.model:
        parser.error("http backend requires --base-url and --model")
    try:
        config = HttpConfig(
            base_url=args.base_url,
            model=args.model,
            api_key_env=args.api_key_env,
        )
    except ValueError as exc:
        parser.error("http backend: %s" % exc)
    return HttpBackend(config)


def _run(
    loop: Callable[..., T],
    instances: Sequence[Instance],
    spec: str,
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
) -> T:
    """Run ``loop`` (``run_batch`` or ``generate_candidates``) on the backend ``spec`` names."""
    backend = _make_backend(spec, args, parser)
    if args.record:
        backend = RecordingBackend(backend)
    config = load_run_config(args.config) if args.config is not None else RunConfig()
    results = loop(instances, backend, config=config, parallelism=args.parallelism)
    if args.record:
        backend.write_script(args.record)
    return results


def _print_failures(failed: Iterable[Trace]) -> None:
    for item in failed:
        print("instance %s failed: %s" % (item.instance_id, item.error), file=sys.stderr)


def _table_of(payload: object) -> Table:
    """The table of a ``sql --table`` file: a table object, or one wrapped under ``"table"``."""
    return table_from_dict(payload.get("table", payload) if isinstance(payload, dict) else payload)


def _cmd_sql(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    table = read_json(args.table, _table_of, "table")
    try:
        result = run_statement(args.query, table)
    except SqlError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(format_result(result))
    return 0


def _cmd_infer(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    instances = load_instances(args.data)
    results = _run(run_batch, instances, args.backend, args, parser)
    write_traces(results, args.out)
    if args.outcomes:
        write_outcomes(results, args.outcomes)
    failures = [t for _, t in results if t.status != "ok"]
    _print_failures(failures)
    print(
        "ran %d instances, %d failed, %d cut off at max_new_tokens, traces written to %s"
        % (len(results), len(failures), sum(cut_off(t) for _, t in results), args.out),
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    instances = load_instances(args.data)
    traces = load_traces(args.traces)
    outcomes = [t.outcome for t in traces]
    check_ids(outcomes, traces, instances)
    check_gold(instances)
    verdicts = None
    if args.judge_backend:
        judge = _make_backend(args.judge_backend, args, parser)
        verdicts = {}
        for outcome, instance in zip(outcomes, instances):
            verdicts[outcome.instance_id] = judge_verdict(
                instance.query, instance.gold.as_text,
                outcome.final_answer.as_text or "(no answer)", judge
            )
    report = build_report(outcomes, traces, instances, judge_verdicts=verdicts)
    if args.json:
        with open_text(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(render_report(report))
    return 0


def _cmd_build_dataset(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    instances = load_instances(args.data)
    if args.sample is not None:
        instances = dataset_mod.sample_instances(instances, args.sample, seed=args.seed)
    check_gold(instances)
    candidates, errors = _run(dataset_mod.generate_candidates, instances, args.teacher, args, parser)
    kept, dropped = dataset_mod.consistency_filter(candidates, instances)
    if args.candidates:
        dataset_mod.write_candidates(candidates, args.candidates)
    _print_failures(errors)
    for drop in dropped:
        print(
            "dropped %s: %s" % (drop.candidate.instance_id, drop.reason),
            file=sys.stderr,
        )
    if not kept:
        print("no candidates survived the consistency filter", file=sys.stderr)
        return 1
    written = dataset_mod.export_jsonl(kept, instances, args.out, segment=args.segment)
    print(
        "kept %d of %d candidates (%d errors), wrote %d pairs to %s"
        % (len(kept), len(candidates), len(errors), written, args.out),
        file=sys.stderr,
    )
    tagged = Counter(tag for candidate in kept for tag in candidate.error_tags)
    print(
        "kept pairs by tag: %s; untagged %d"
        % (", ".join("%s %d" % (tag, tagged[tag]) for tag in dataset_mod.TAGS),
           sum(1 for candidate in kept if not candidate.error_tags)),
        file=sys.stderr,
    )
    return 1 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabreason",
        description="Plan-then-execute table reasoning over LLM backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="run inference over a JSONL dataset")
    p_infer.add_argument("--data", required=True, help="instances JSONL file")
    p_infer.add_argument("--out", required=True, help="trace JSONL output path")
    p_infer.add_argument("--outcomes", help="optional outcome JSONL output path")
    _add_run_flags(p_infer, "--backend")
    p_infer.set_defaults(handler=_cmd_infer)

    p_eval = sub.add_parser("eval", help="score saved traces against gold answers")
    p_eval.add_argument("--traces", required=True, help="trace JSONL file from infer")
    p_eval.add_argument("--data", required=True, help="instances JSONL file")
    p_eval.add_argument("--json", help="also write the report as JSON to this path")
    _add_backend_flags(p_eval, "--judge-backend", "optional judge backend spec", required=False)
    p_eval.set_defaults(handler=_cmd_eval)

    p_sql = sub.add_parser("sql", help="run one query against a table JSON file")
    p_sql.add_argument("--table", required=True, help="table JSON file")
    p_sql.add_argument("--query", required=True, help="query text")
    p_sql.set_defaults(handler=_cmd_sql)

    p_build = sub.add_parser(
        "build-dataset",
        help="build filtered training pairs",
        description="Build gold-consistent training pairs from a teacher backend. Each pair's "
        "tags name its defects (%s); stderr gives the number of kept pairs per tag and with "
        "none." % ", ".join(dataset_mod.TAGS),
    )
    p_build.add_argument("--data", required=True, help="instances JSONL file")
    p_build.add_argument("--out", required=True, help="training-pair JSONL output path")
    p_build.add_argument("--segment", default="full", choices=dataset_mod.SEGMENT_CHOICES)
    p_build.add_argument("--sample", type=_positive_int, help="sample this many instances")
    p_build.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_build.add_argument("--candidates", help="optional path to save raw candidates")
    _add_run_flags(p_build, "--teacher")
    p_build.set_defaults(handler=_cmd_build_dataset)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for output in filter(None, map(vars(args).get, ("out", "outcomes", "candidates", "record", "json"))):
            check_writable(output)  # before any call
        return args.handler(args, parser)
    except BACKEND_FAILURES as exc:
        print("backend error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
