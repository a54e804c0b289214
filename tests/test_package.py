"""Top-level re-exports, and the library calls the offline benchmark makes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tabreason
from tabreason import backends, dataset, evaluation, orchestrator, responses, tables


def test_all_matches_the_public_names_the_package_imports():
    tree = ast.parse(Path(tabreason.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(tabreason.__all__)) == []
    assert len(set(tabreason.__all__)) == len(tabreason.__all__)
    missing = [name for name in tabreason.__all__ if not hasattr(tabreason, name)]
    assert missing == []


def test_every_module_names_each_name_it_imports():
    """A module-level import that the module never names is dead weight."""
    unused = []
    for path in sorted(Path(tabreason.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in named:
                    unused.append("%s:%d: %s" % (path.name, node.lineno, bound))
    assert unused == []


def test_every_module_level_name_is_read_or_imported():
    """A module-level name that its module never reads and no other module imports is dead."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(tabreason.__file__).parent.glob("*.py"))}
    imported = set()
    for tree in trees.values():
        modules = {}  # local name -> module, for ``from . import dataset as dataset_mod``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                imported.add((modules[node.value.id], node.attr))
    dead = []
    for filename, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in bound:
                if not (name.startswith("__") or name in read
                        or (filename[:-3], name) in imported):
                    dead.append("%s:%d %s" % (filename, node.lineno, name))
    assert dead == []


# All that the loop may know of a backend (the interface, never a concrete class)
# and of prompts (the prompt itself: an instance decides its own family and labels).
LOOP_IMPORTS = {
    "backends": {"Backend", "GenerationRequest", "GenerationResult", "BACKEND_FAILURES"},
    "prompts": {"build_task_prompt"},
}


def test_modules_reach_each_other_only_through_public_names():
    """A rule is decided in one module, so no other module imports its ``_`` names.

    The loop module sees only the backend interface, since a backend says
    itself whether it must run in call order, and only ``build_task_prompt``
    of ``prompts``, since an instance holds its own prompt family and labels.
    """
    crossings = []
    for path in sorted(Path(tabreason.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> module, for ``from . import dataset as dataset_mod``
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                    continue
                if alias.name.startswith("_"):
                    crossings.append("%s imports %s.%s" % (path.stem, node.module, alias.name))
                allowed = LOOP_IMPORTS.get(node.module) if path.stem == "orchestrator" else None
                if allowed is not None and alias.name not in allowed:
                    crossings.append("orchestrator imports %s.%s" % (node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")):
                crossings.append("%s reads %s.%s" % (path.stem, modules[node.value.id], node.attr))
    assert crossings == []


def test_importing_the_package_loads_no_http_client_module():
    """The HTTP stack is imported where a request is made, not by ``import tabreason``."""
    code = (
        "import sys, tabreason\n"
        "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request', 'email.utils',"
        " 'hashlib') if m in sys.modules))\n"
        "print(tabreason.HttpBackend.__name__)\n"
    )
    src = str(Path(tabreason.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\nHttpBackend\n"


class _Scripted(backends.Backend):
    """Answers every call at once, as the benchmark's in-process model backend does."""

    def generate(self, request, tag=None):
        assert request.messages[-1]["content"] and request.max_new_tokens > 0
        self.counter.record(tag)
        return backends.GenerationResult(text="The final answer is 2.", finish_reason="stop")


def test_the_calls_the_benchmark_makes_keep_their_shapes(tmp_path):
    """``benchmarks/run.py`` drives the library through exactly these calls."""
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps({
        "id": "q1", "task": "short_qa", "query": "How many are from Kenya?",
        "table": {"headers": ["Name", "Nationality"], "rows": [["Edith", "Kenya"], ["Ann", "Kenya"]]},
        "gold": {"answers": ["2"]},
    }) + "\n", encoding="utf-8")
    instances = tables.load_instances(str(path))
    config = orchestrator.RunConfig()
    for name in ("run_instance", "truncate_to_budget", "build_task_prompt", "segment_response",
                 "resume_prefix", "run_statement", "extract_final_answer", "write_traces",
                 "write_outcomes"):
        assert callable(getattr(orchestrator, name)), name  # the benchmark's tracer hooks these
    backend = _Scripted()
    backends.Backend().counter.record("q1")

    # infer workloads
    done = [orchestrator.run_instance(instances[0], backend, config)]
    orchestrator.write_traces(done, str(tmp_path / "traces.jsonl"))
    orchestrator.write_outcomes(done, str(tmp_path / "outcomes.jsonl"))
    report = evaluation.build_report([o for o, _ in done], [t for _, t in done], instances)
    assert report.scores["accuracy"] == 1.0
    outcome, trace = done[0]
    assert (outcome.instance_id, outcome.status, outcome.error) == ("q1", "ok", None)
    assert outcome.final_answer.to_dict() == {"kind": "short", "answers": ["2"]}
    assert trace.final_generation == "The final answer is 2."

    # teacher_local
    got, failed = dataset.generate_candidates([instances[0]], backend, config=config)
    assert failed == []
    kept, _ = dataset.consistency_filter(got, instances)
    dataset.write_candidates(got, str(tmp_path / "candidates.jsonl"))
    written = dataset.export_jsonl(kept, instances, str(tmp_path / "train.jsonl"), segment="full",
                                   config=config)
    assert written == 1
    c = got[0]
    assert (c.instance_id, c.teacher_response, c.consistent, c.error_tags) == (
        "q1", "The final answer is 2.", True, ())
    assert c.extracted_answer.to_dict() == outcome.final_answer.to_dict()
    outcomes = [
        orchestrator.Outcome(instance_id=i.id, final_answer=responses.FinalAnswer.missing(),
                             api_calls=0, status="backend_error")
        for i in instances
    ]
    assert evaluation.build_report(outcomes, None, instances).scores["accuracy"] == 0.0
    assert backend.counter.total == 2
