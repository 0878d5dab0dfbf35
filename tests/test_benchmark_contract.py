"""The names the benchmark harness in ``perfbench/`` reaches into ``sphelim``
for: every traced function still resolves, scans still accept the keyword
the workloads pass, and every workload still runs and passes its own checks
at smoke-test size."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from sphelim.limits import DirectSystem, classify_scan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_perfbench("tracing").TRACED
WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TRACED],
                         ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("system, level", [
    (DirectSystem("group-su", (1,)), 12),
    (DirectSystem("grass-real", (1, 1), fixed_p=2), 12),
], ids=["infinite-rank", "finite-rank"])
def test_classify_scan_takes_the_workload_keywords(system, level):
    seq, report = classify_scan(system, level, batch=level, max_workers=1)
    assert (seq, report) == classify_scan(system, level, batch=level)
    assert seq.levels[-1] == level


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name):
    # the benchmark's own oracles pass every operation, and a wrong expected
    # value fails exactly the first
    workload = WORKLOADS[name](random.Random(1), True)
    results = [workload.run(op) for op in workload.ops]
    assert results
    checks = [(workload.check(i, op, result, False), workload.check(i, op, result, True))
              for i, (op, result) in enumerate(zip(workload.ops, results))]
    assert all(right for right, _ in checks)
    assert [i for i, (_, wrong) in enumerate(checks) if not wrong] == [0]
