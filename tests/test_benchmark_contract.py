"""The names the benchmark harness in ``perfbench/`` reaches into ``sphelim``
for: every traced function still resolves, and scans still accept the
keyword the workloads pass."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sphelim.limits import DirectSystem, classify_scan

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracing().TRACED


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
