"""Run one sphelim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass is a fresh process
(``worker.py``) that imports sphelim from ``src``, builds the workload's
inputs from the seed and runs its fixed work serially.  Passes repeat
until ``--seconds`` are spent (at least ``MIN_PASSES``), and a metric is
the median of its per-pass values.  The first pass also checks every
output against independent oracles; every later pass must reproduce its
outputs exactly.

Times are in reference seconds (``calibration.py``), which take the host's
momentary speed out; the summary line also gives them raw.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the end-to-end metrics, the traced ones the per-layer metrics, and
the difference of their median wall times is the tracing overhead.

stdout: an environment record, a summary with the end-to-end metrics, the
exact-output digest and ``fail_ratio``, then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are the
end-to-end ones untraced and the per-layer ones traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("oracle_grid", "deep_chain", "stable_chain", "mc_sphere")
MIN_PASSES = 3        # untraced passes per run, for the medians
MIN_TRACED = 2        # traced passes per traced run
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
BLAS_THREADS = 1      # at most nproc; one serial process needs no more
RUN_LIMIT_S = 170.0   # a run ends well inside its 180 s allowance

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rootdata.build_space.calls": "count",
    "rootdata.build_space.self_s": "s",
    "rootdata.weight_from_xi.self_s": "s",
    "rootdata.rho.self_s": "s",
    "cfunc.c_value.calls": "count",
    "cfunc.c_value.self_s": "s",
    "cfunc.c_value.p50_us": "us",
    "cfunc.c_value.level_slope": "1",
    "cfunc.c_value.result_bits_max": "bit",
    "cfunc.c_gamma.calls": "count",
    "cfunc.c_gamma.self_s": "s",
    "limits.classify_scan.calls": "count",
    "limits.classify_scan.self_s": "s",
    "limits.c_sequence.self_s": "s",
    "limits.CSequence.extended.self_s": "s",
    "limits.classify.calls": "count",
    "limits.classify.self_s": "s",
    "limits.propagate.calls": "count",
    "limits.propagate.self_s": "s",
    "limits.divergence_certificate.self_s": "s",
    "limits.levels_scanned": "count",
    "sphere.mc_functional_equation.calls": "count",
    "sphere.mc_functional_equation.self_s": "s",
    "sphere.samples": "count",
    "sphere.us_per_sample": "us",
    "sphere.zonal_eval.self_s": "s",
    "sphere.haar_rotation.self_s": "s",
    "sphere.sample_cost_slope": "1",
    "cli.fmt_fraction.calls": "count",
    "cli.fmt_fraction.self_s": "s",
    "cli.fmt_float.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.span_coverage": "1",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy.percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples (operation x
    pass) beyond it in the smallest run of MIN_PASSES passes; 50 if none."""
    count = ops_per_pass * MIN_PASSES
    return next((p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10), 50.0)


def timings(passes: list, tail: float, kind: str) -> dict:
    """Set-up, wall and operation times of a run, raw (kind "") or in
    reference seconds (kind "_ref"): medians over passes.  Every pass runs
    the same operations, so an operation's latency is its median."""
    plain = [p for traced, p in passes if not traced]
    op_s = [statistics.median(times) for times in zip(*(p[f"op{kind}_s"] for p in plain))]
    return {
        "setup_s": statistics.median(p[f"setup{kind}_s"] for _, p in passes),
        "wall_s": statistics.median(p[f"wall{kind}_s"] for p in plain),
        "op_p50_ms": percentile(op_s, 50) * 1e3,
        "op_tail_ms": percentile(op_s, tail) * 1e3,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(args, index: int, traced: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    if index == 0:
        cmd.append("--check")
    if traced:
        cmd.append("--traced")
        if index == 1:
            SPANS_DIR.mkdir(exist_ok=True)
            cmd += ["--spans", str(SPANS_DIR / f"spans-{args.workload}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt one expected value, to prove the checks bite")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "sphelim" / "__init__.py").is_file():
        print(f"error: no sphelim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    passes: list[tuple[bool, dict]] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t = time.perf_counter()
            passes.append((traced, run_pass(args, len(passes), traced, env,
                                            started + RUN_LIMIT_S)))
            spent, last = time.perf_counter() - started, time.perf_counter() - t
            untraced = sum(not tr for tr, _ in passes)
            enough = (untraced >= MIN_PASSES
                      and (not args.trace or len(passes) - untraced >= MIN_TRACED))
            if enough and spent + last > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for tr, p in passes if not tr]
    traced_passes = [p for tr, p in passes if tr]
    first = plain[0]
    ops_per_pass = len(first["op_s"])
    attempted = failed = 0
    for _, p in passes:
        bad = set(first["failed"]) | set(p["failed"])
        bad |= {i for i, (h, h0) in enumerate(zip(p["op_hashes"], first["op_hashes"])) if h != h0}
        attempted += len(p["op_s"])
        failed += len(bad)
    digests = {p["digest"] for _, p in passes}
    tail = tail_percentile(ops_per_pass)
    values = timings(passes, tail, "_ref")
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    end_to_end = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    metrics = end_to_end
    if traced_passes:
        layer = {k: statistics.median(p["layers"][k] for p in traced_passes)
                 for k in PER_LAYER if k != "trace.overhead_s"}
        layer["trace.overhead_s"] = (statistics.median(p["wall_ref_s"] for p in traced_passes)
                                     - values["wall_s"])
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}

    print(json.dumps({"env": {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **first["env"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": args.seed,
    }}))
    print(json.dumps({
        "workload": args.workload,
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "ops_per_pass": ops_per_pass,
        "op_samples": ops_per_pass * len(plain),
        "op_tail_pct": tail,
        "fail_ratio": failed / attempted,
        "digest": first["digest"],
        "digests_agree": len(digests) == 1,
        "end_to_end": end_to_end,
        "raw": timings(passes, tail, ""),
    }))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
