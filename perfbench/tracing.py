"""Span tracing from outside the package.

``Tracer.install`` replaces each traced public function at every module
attribute of the ``sphelim`` package that is bound to it, so a call made
by another layer through its own import is recorded too.  Spans
``(name, start, end, parent, op, info)`` stay in memory; ``uninstall``
puts the original functions back.  ``info`` is an optional per-function
summary of the call (a rank, a bit length, an output size) taken from its
arguments and result.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


# (defining module, attribute path, info extractor or None)
TRACED = (
    ("sphelim.rootdata", "build_space", None),
    ("sphelim.rootdata", "weight_from_xi", None),
    ("sphelim.rootdata", "rho", None),
    ("sphelim.cfunc", "c_value", lambda args, result: (args[0].rank, _bits(result))),
    ("sphelim.cfunc", "c_gamma", None),
    ("sphelim.limits", "classify_scan", lambda args, result: len(result[0].levels)),
    ("sphelim.limits", "c_sequence", None),
    ("sphelim.limits", "CSequence.extended", None),
    ("sphelim.limits", "classify", None),
    ("sphelim.limits", "propagate", None),
    ("sphelim.limits", "divergence_certificate", None),
    ("sphelim.sphere", "mc_functional_equation", lambda args, result: (args[0], result.samples)),
    ("sphelim.sphere", "zonal_eval", None),
    ("sphelim.sphere", "haar_rotation", None),
    ("sphelim.cli", "fmt_fraction", lambda args, result: len(result)),
    ("sphelim.cli", "fmt_float", lambda args, result: len(result)),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                summary = info(args, result) if info is not None and result is not None else None
                spans[idx] = (name, start, end, parent, self.op, summary)

        return traced

    def install(self) -> None:
        package = [mod for key, mod in sys.modules.items()
                   if key == "sphelim" or key.startswith("sphelim.")]
        for module, path, info in TRACED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, path), original, info)
            holders = [owner] if outer else [mod for mod in package
                                             if getattr(mod, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def _loglog_slope(points: dict) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two x."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x in points]
    ys = [math.log(y) for y in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: list, scales: list[float], wall_s: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name.

    Times are in reference seconds: each span is rescaled by its
    operation's factor from ``scales``, and ``wall_s`` is already rescaled.
    """
    durations = [(end - start) * scales[op] for _, start, end, _, op, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent, _, _), dur in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += dur
    out = {}
    for module, path, _ in TRACED:
        name = span_name(module, path)
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    top_s = 0.0
    c_value_us: list[float] = []
    by_rank: dict[int, list[float]] = {}
    by_n: dict[int, list[float]] = {}
    bits_max = levels = samples = out_bytes = 0
    mc_s = 0.0
    for idx, ((name, _, _, parent, _, info), dur) in enumerate(zip(spans, durations)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child_time[idx]
        if parent < 0:
            top_s += dur
        if info is None:
            continue
        if name == "cfunc.c_value":
            c_value_us.append(dur * 1e6)
            by_rank.setdefault(info[0], []).append(dur)
            bits_max = max(bits_max, info[1])
        elif name == "limits.classify_scan":
            levels += info
        elif name == "sphere.mc_functional_equation":
            samples += info[1]
            mc_s += dur
            by_n.setdefault(info[0], []).append(dur * 1e6 / info[1])
        elif name in ("cli.fmt_fraction", "cli.fmt_float"):
            out_bytes += info
    # c_value cost against level (= rank on infinite-rank chains), upper half
    top_rank = max(by_rank, default=0)
    upper = {r: statistics.median(d) for r, d in by_rank.items() if 2 * r >= top_rank}
    out.update({
        "cfunc.c_value.p50_us": statistics.median(c_value_us) if c_value_us else 0.0,
        "cfunc.c_value.level_slope": _loglog_slope(upper),
        "cfunc.c_value.result_bits_max": bits_max,
        "limits.levels_scanned": levels,
        "sphere.samples": samples,
        "sphere.us_per_sample": mc_s * 1e6 / samples if samples else 0.0,
        "sphere.sample_cost_slope": _loglog_slope(
            {n: statistics.median(v) for n, v in by_n.items()}),
        "cli.output_bytes": out_bytes,
        "trace.span_coverage": top_s / wall_s,
    })
    return out
