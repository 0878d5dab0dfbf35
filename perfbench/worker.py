"""One pass of one workload, in a fresh process, as a CLI run would start.

Set-up (importing sphelim from the checkout's ``src`` and building the
inputs) is timed from the first line of this file, so the package's caches
start cold.  The operations then run serially and each is timed, with
calibration rounds between them (``calibration.py``); every time is
reported raw and in reference seconds.  The optional tracer wraps the
layers only around that loop.  After the timed region come the digest,
the correctness checks and the span dump.  The pass prints one JSON
object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--check] [--traced]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_info() -> dict:
    """NumPy version, and the version and thread count of its BLAS."""
    import numpy

    info = {"numpy": numpy.__version__, "blas": "unknown",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unknown")}
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["blas"] = get_config().decode()
                    info["blas_threads"] = get_threads()
                    return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--check", action="store_true", help="run the correctness checks")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt one expected value, to prove the checks bite")
    parser.add_argument("--traced", action="store_true", help="record layer spans")
    parser.add_argument("--spans", help="write the spans here as JSON lines")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import sphelim

    if Path(sphelim.__file__).resolve().parent != SRC / "sphelim":
        raise SystemExit(f"imported sphelim from {sphelim.__file__}, not from {SRC}")
    from calibration import Calibration
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](random.Random(args.seed), args.tiny)
    setup_s = time.perf_counter() - T0

    calibration = Calibration()
    calibration.measure()
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    results, intervals, failed = [], [], set()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            results.append(workload.run(op))
        except Exception:
            traceback.print_exc()
            results.append(None)
            failed.add(i)
        intervals.append((t, time.perf_counter()))
        calibration.measure_if_due()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    calibration.measure()
    op_s = [end - start for start, end in intervals]
    scales = [calibration.scale(start, end) for start, end in intervals]
    op_ref_s = [d * k for d, k in zip(op_s, scales)]

    rendered = [workload.render(op, r) if r is not None else None
                for op, r in zip(workload.ops, results)]
    digest = hashlib.sha256("\n".join(
        sorted(f"{key}\t{exact}" for key, exact, _ in filter(None, rendered))).encode())
    if args.check:
        for i, (op, result) in enumerate(zip(workload.ops, results)):
            try:
                if result is not None and not workload.check(i, op, result, args.wrong_expected):
                    failed.add(i)
            except Exception:
                traceback.print_exc()
                failed.add(i)
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * calibration.scale(T0, T0 + setup_s),
        "wall_s": sum(op_s),
        "wall_ref_s": sum(op_ref_s),
        "op_s": op_s,
        "op_ref_s": op_ref_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "op_hashes": [hashlib.sha1(r[2].encode()).hexdigest()[:16] if r else None
                      for r in rendered],
        "failed": sorted(failed),
        "env": blas_info(),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, scales, out["wall_ref_s"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
