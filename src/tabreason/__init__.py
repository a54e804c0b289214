"""Table reasoning with planned SQL execution injected into LLM generations.

The package covers the full loop: serialize a table into a prompt, let the
model plan and write SQL, execute that SQL for real, splice the result back
into the generation, and score or distill the final answers.
"""

from .backends import (
    Backend,
    BackendUnavailable,
    GenerationRequest,
    GenerationResult,
    HttpBackend,
    HttpConfig,
    RecordingBackend,
    ReplayBackend,
    ScriptEntry,
    ScriptExhausted,
    ScriptMismatch,
)
from .evaluation import (
    EvalReport,
    build_report,
    denotation_match,
    judge_verdict,
    normalize_answer,
    render_report,
    three_class_f1,
)
from .orchestrator import (
    Outcome,
    RoundRecord,
    RunConfig,
    Trace,
    run_batch,
    run_instance,
)
from .prompts import build_judge_prompt, build_task_prompt
from .responses import (
    FinalAnswer,
    ResponseSegments,
    SqlBlock,
    extract_final_answer,
    resume_prefix,
    segment_response,
)
from .sql import (
    SqlError,
    SqlSyntaxError,
    UnknownColumn,
    execute,
    format_result,
    parse_select,
    run_statement,
)
from .tables import (
    GoldAnswer,
    Instance,
    SentenceContext,
    Table,
    cell_as_number,
    dump_instances,
    load_instances,
    serialize_for_prompt,
    truncate_to_budget,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendUnavailable",
    "EvalReport",
    "FinalAnswer",
    "GenerationRequest",
    "GenerationResult",
    "GoldAnswer",
    "HttpBackend",
    "HttpConfig",
    "Instance",
    "Outcome",
    "RecordingBackend",
    "ReplayBackend",
    "ResponseSegments",
    "RoundRecord",
    "RunConfig",
    "ScriptEntry",
    "ScriptExhausted",
    "ScriptMismatch",
    "SentenceContext",
    "SqlBlock",
    "SqlError",
    "SqlSyntaxError",
    "Table",
    "Trace",
    "UnknownColumn",
    "build_judge_prompt",
    "build_report",
    "build_task_prompt",
    "cell_as_number",
    "denotation_match",
    "dump_instances",
    "execute",
    "extract_final_answer",
    "format_result",
    "judge_verdict",
    "load_instances",
    "normalize_answer",
    "parse_select",
    "render_report",
    "resume_prefix",
    "run_batch",
    "run_instance",
    "run_statement",
    "segment_response",
    "serialize_for_prompt",
    "three_class_f1",
    "truncate_to_budget",
    "__version__",
]
