"""The loop's behaviour over the benchmark's simulated workloads, pinned as one digest.

``benchmarks/simmodel.py`` builds seed 101 of ``infer_http``,
``infer_http_faults`` and ``teacher_local``: the instances and the scripted
model that answers them.  Every instance runs through ``run_instance`` with
:class:`SimBackend`, an in-process backend over ``SimModel.complete`` that
applies the fault schedule as ``benchmarks/endpoint.py`` does and reports
attempts as ``HttpBackend`` records them: a ``503`` instance's first call
raises ``BackendUnavailable``, a ``429`` instance's first call takes two
attempts.  ``teacher_local`` runs with ``keep_claims=True``, and its
``build-dataset`` chain (``generate_candidates`` -> ``consistency_filter`` ->
``write_candidates`` / ``export_jsonl``) is hashed as well.

A change in any trace, answer, drop reason or written byte changes the
digest.  After a deliberate change, print the new digest with::

    PYTHONPATH=src python tests/test_workload_digest.py

and the digest of each of seeds 101-110 with ``--all-seeds``.
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

from tabreason import dataset
from tabreason.backends import Backend, BackendUnavailable, GenerationResult
from tabreason.jsonl import write_jsonl
from tabreason.orchestrator import RunConfig, run_instance, write_outcomes, write_traces
from tabreason.tables import load_instances


def _load_simmodel():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "simmodel.py"
    spec = importlib.util.spec_from_file_location("simmodel", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("simmodel", module)
    spec.loader.exec_module(module)
    return module


simmodel = _load_simmodel()

WORKLOADS = ("infer_http", "infer_http_faults", "teacher_local")
SEEDS = tuple(range(101, 111))

# sha256 over _workload_digest(101); a change here is a change in what the
# loop, its answers or the dataset chain produce on the simulated workloads.
WORKLOAD_DIGEST = "c6f3834923e3dc209b917572c48a40bcf34bcc82df981e6af348d3f03dd96616"


class SimBackend(Backend):
    """The simulated model in process, with the endpoint's fault schedule and no service time."""

    def __init__(self, workload) -> None:
        super().__init__()
        self.model = simmodel.SimModel(workload.scripts)
        self.faults = workload.faults
        self.refused = set()

    def generate(self, request, tag=None):
        done = self.model.complete(request.messages[-1]["content"], request.stop, request.max_new_tokens)
        kind = self.faults.get(done.instance_id or "") if done.round == 0 else None
        attempts = 1
        if kind == "503":
            raise BackendUnavailable("gave up after 3 attempts (HTTP 503)")
        if kind == "429" and done.instance_id not in self.refused:
            self.refused.add(done.instance_id)
            attempts = 2
        finish = done.finish_reason if done.text else "error"
        return GenerationResult(text=done.text, finish_reason=finish, attempts=attempts)


def _run_workload(name: str, seed: int, out: Path) -> None:
    """Write every output of one workload's run into ``out``."""
    workload = simmodel.make_workload(name, seed)
    write_jsonl(str(out / "instances.jsonl"), workload.instances)
    instances = load_instances(str(out / "instances.jsonl"))
    teacher = name == "teacher_local"
    config = RunConfig()
    backend = SimBackend(workload)
    results = [run_instance(i, backend, config, keep_claims=teacher) for i in instances]
    write_traces(results, str(out / "traces.jsonl"))
    write_outcomes(results, str(out / "outcomes.jsonl"))
    if not teacher:
        return
    candidates, failed = dataset.generate_candidates(instances, SimBackend(workload), config=config)
    kept, dropped = dataset.consistency_filter(candidates, instances)
    write_traces([(None, t) for t in failed], str(out / "failed.jsonl"))
    write_jsonl(str(out / "dropped.jsonl"),
                ({"id": d.candidate.instance_id, "reason": d.reason} for d in dropped))
    dataset.write_candidates(candidates, str(out / "candidates.jsonl"))
    dataset.export_jsonl(kept, instances, str(out / "train.jsonl"))


def _workload_digest(seed: int) -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            out = Path(tmp) / name
            out.mkdir()
            _run_workload(name, seed, out)
            for path in sorted(out.iterdir()):
                digest.update(("%s/%s\n" % (name, path.name)).encode("utf-8"))
                digest.update(path.read_bytes())
    return digest.hexdigest()


def test_simulated_workloads_digest_is_pinned():
    """Every trace, outcome and dataset file of seed 101 is what it was when the digest was recorded."""
    assert _workload_digest(SEEDS[0]) == WORKLOAD_DIGEST


if __name__ == "__main__":
    if "--all-seeds" in sys.argv[1:]:
        for seed in SEEDS:
            print(seed, _workload_digest(seed))
    else:
        print(_workload_digest(SEEDS[0]))
