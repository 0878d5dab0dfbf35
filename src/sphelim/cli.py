"""Command-line interface.

Subcommands: ``catalog`` (the family table as JSON), ``c-eval`` (exact
overlap constants), ``limit-scan`` (chain scan plus convergence verdict),
``sphere-verify`` (zonal closed forms, ODE residual, Monte-Carlo identity),
``mc-check`` (standalone Monte-Carlo run).  ``sphelim --check`` runs the
built-in invariant suite and exits nonzero on any failure.  Only these last
three import ``sphere``, and with it NumPy, and only when they run.

Output conventions: rationals always print as "numerator/denominator",
floats as format(x, '.17g'), JSON with sorted keys.  All randomness is
seed-driven, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cfunc import c_oracle, c_value
from .limits import (
    DirectSystem,
    c_sequence,
    classify,
    classify_scan,
    divergence_certificate,
)
from .rootdata import (
    FAMILIES,
    build_space,
    fundamental_weights,
    lambda_alpha,
    pad_xi_coeffs,
    rho,
    simple_roots,
)


def fmt_int(k: int) -> str:
    """Decimal digits of an integer of any size: unlike ``str``, the
    conversion through ``Decimal`` is not bound by the interpreter's
    int-to-string digit limit (4,300 digits by default)."""
    return str(Decimal(k))


def fmt_fraction(fr: Fraction) -> str:
    if not isinstance(fr, Fraction):
        fr = Fraction(fr)
    return f"{fmt_int(fr.numerator)}/{fmt_int(fr.denominator)}"


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursive JSON-safe view: Fractions become 'num/den' strings."""
    if isinstance(obj, Fraction):
        return fmt_fraction(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def emit_json(obj, stream=None) -> None:
    print(json.dumps(to_jsonable(obj), sort_keys=True), file=stream or sys.stdout)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:  # int() refuses an empty field, so "1,,2" and "1," are bad lists
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_catalog(args) -> int:
    rows = []
    for fam in FAMILIES.values():
        if fam.param_kind == "pq":
            p = fam.fixed_p or 1
            example = {"p": p, "q": p + 1}
        else:
            example = {"n": max(fam.min_n, 2)}
        datum = build_space(fam.slug, **example)
        rows.append({
            "family": fam.slug,
            "row": fam.row,
            "group": fam.group,
            "subgroup": fam.subgroup,
            "pattern": fam.psi_label,
            "parameters": fam.param_kind,
            "distance_degree": fam.d,
            "example": {
                **example,
                "rank": datum.rank,
                "mult_middle": datum.mult_middle,
                "mult_alpha1": datum.mult_alpha1,
                "mult_half": datum.mult_half,
                "rho": [fmt_fraction(c) for c in rho(datum)],
            },
        })
    emit_json(rows)
    return 0


def cmd_c_eval(args) -> int:
    datum = build_space(args.family, p=args.p, q=args.q, n=args.n)
    failures = 0
    for coeffs in args.mu:
        line = {
            "family": datum.family,
            "params": dict(datum.params),
            "mu_xi": list(coeffs),
        }
        try:
            padded = pad_xi_coeffs(coeffs, datum.rank)
            value = c_value(datum, padded)
        except (ValueError, ArithmeticError) as exc:
            line["error"] = str(exc)
            failures += 1
        else:
            line["c_exact"] = fmt_fraction(value)
            line["c_float"] = fmt_float(value)
            # the magnitude survives where c_float underflows to 0
            line["c_log10"] = fmt_float(math.log10(value.numerator) - math.log10(value.denominator))
            if args.oracle:
                line["c_oracle_float"] = fmt_float(c_oracle(datum, padded))
        emit_json(line)
    return 1 if failures else 0


# Each limit-scan setting, as the keyword arguments of its flag; the same
# keys (with "-" or "_") are the config-file keys, read with the flag's type.
_SCAN_KEYS = {
    "family": {"choices": sorted(FAMILIES)},
    "coeffs": {"type": _parse_int_list,
               "help": "base fundamental-weight coefficients, e.g. 1,0"},
    "p": {"type": int, "help": "fixed p for Grassmannian chains"},
    "max_level": {"type": int, "help": "the scan prints the levels from the base to "
                                       "min(MAX_LEVEL, base + BATCH - 1) (default: no cap)"},
    "batch": {"type": int, "help": "how many levels from the base to scan (default 25)"},
    "csv": {"help": "write the level/value table here instead of stdout"},
}


def _load_config(path: str) -> dict:
    opts = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _SCAN_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            opts[key] = _SCAN_KEYS[key].get("type", str)(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} value {value!r} ({exc})") from None
    return opts


def _write_table(lines: list[str], path: str | None) -> None:
    """Write a CSV table to ``path``, or to stdout when no path is given."""
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_limit_scan(args) -> int:
    merged = _load_config(args.config) if args.config else {}
    merged.update((key, flag) for key in _SCAN_KEYS
                  if (flag := getattr(args, key)) is not None)
    if "family" not in merged or "coeffs" not in merged:
        raise ValueError("limit-scan needs family and coeffs (flags or config)")
    system = DirectSystem(merged.pop("family"), merged.pop("coeffs"), merged.pop("p", None))
    csv_path = merged.pop("csv", None)
    # only the settings given (max_level, batch) are passed, so the
    # defaults stay in classify_scan
    seq, report = classify_scan(system, **merged)
    csv_lines = ["level,c_num,c_den,c_float"]
    for level, value in zip(seq.levels, seq.values):
        csv_lines.append(f"{level},{fmt_int(value.numerator)},{fmt_int(value.denominator)},"
                         f"{fmt_float(value)}")
    _write_table(csv_lines, csv_path)
    emit_json({
        "verdict": report.verdict,
        "limit_estimate": report.limit_estimate,
        "evidence": report.evidence,
    })
    return 0


def cmd_sphere_verify(args) -> int:
    import numpy as np
    from .sphere import mc_functional_equation, ode_residual, planar_rotation, zonal_eval
    n, k = args.n, args.k
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    grid = np.linspace(-1.0, 1.0, args.grid)
    values = zonal_eval(n, k, grid)
    residual = ode_residual(n, k, grid)
    x = planar_rotation(n + 1, args.theta)
    y = planar_rotation(n + 1, args.theta_y)
    mc = mc_functional_equation(n, k, x, y, args.samples, args.seed)
    powers = grid ** k
    csv_lines = ["t,p,t_pow_k,residual"]
    for t, p, tk, res in zip(grid, values, powers, residual):
        csv_lines.append(f"{fmt_float(t)},{fmt_float(p)},{fmt_float(tk)},{fmt_float(res)}")
    _write_table(csv_lines, args.csv)
    emit_json({
        "n": n,
        "k": k,
        "max_abs_ode_residual": float(np.max(np.abs(residual))),
        "max_abs_power_gap": float(np.max(np.abs(powers - values))),
        "mc": {**mc._asdict(), "zscore": mc.zscore()},
    })
    return 0


def cmd_mc_check(args) -> int:
    from .sphere import haar_rotation, mc_functional_equation, planar_rotation
    n, k = args.n, args.k
    if not math.isfinite(args.max_z):
        raise ValueError(f"max-z must be a finite number, got {args.max_z}")
    if args.haar_xy:
        x = haar_rotation(n + 1, 1, args.seed + 101)[0]
        y = haar_rotation(n + 1, 1, args.seed + 202)[0]
    else:
        x = planar_rotation(n + 1, args.theta)
        y = planar_rotation(n + 1, args.theta_y)
    mc = mc_functional_equation(n, k, x, y, args.samples, args.seed)
    z = mc.zscore()
    ok = z <= args.max_z
    emit_json({
        **mc._asdict(), "n": n, "k": k,
        "zscore": z, "max_z": args.max_z, "pass": ok,
    })
    return 0 if ok else 1


# --------------------------------------------------------------------------
# built-in invariant suite


def _self_checks():
    import numpy as np
    from .sphere import (haar_rotation, haar_sample_stabilizer, mc_functional_equation,
                         ode_residual, planar_rotation, zonal_eval)

    def rank_one_values():
        datum = build_space("rank1-real", q=2)
        assert c_value(datum, (1,)) == Fraction(3, 8)
        assert c_value(build_space("rank1-real", q=3), (1,)) == Fraction(1, 3)
        for q in range(2, 13):
            got = c_value(build_space("rank1-real", q=q), (1,))
            assert got == Fraction(q + 1, 4 * q), (q, got)

    def normalization():
        for family, kwargs in (("group-su", {"n": 4}), ("group-sp", {"n": 3}),
                               ("grass-complex", {"p": 2, "q": 5}),
                               ("grass-real", {"p": 2, "q": 4}),
                               ("sp-over-u", {"n": 4}),
                               ("group-spin-even", {"n": 4})):
            datum = build_space(family, **kwargs)
            assert c_value(datum, (0,) * datum.rank) == 1

    def duality():
        for family, kwargs in (("group-su", {"n": 5}), ("group-spin-odd", {"n": 3}),
                               ("group-sp", {"n": 4}), ("group-spin-even", {"n": 5}),
                               ("grass-real", {"p": 3, "q": 6})):
            datum = build_space(family, **kwargs)
            alphas = simple_roots(datum)
            xis = fundamental_weights(datum)
            for i, xi in enumerate(xis):
                for j, alpha in enumerate(alphas):
                    want = 1 if i == j else 0
                    assert lambda_alpha(xi, alpha) == want, (family, i, j)

    def a_chain():
        system = DirectSystem("group-su", (1,))
        seq = c_sequence(system, range(1, 11))
        assert list(seq.values) == [Fraction(1, r + 1) for r in range(1, 11)]
        report = classify(seq)
        assert report.verdict == "ZeroLimit"
        # c(n+1)/c(n) = 1 - 1/(n+2) = 1 - kappa/n + O(n^-2) with kappa = 1
        certificate = report.evidence["certificate"]
        assert certificate["ratio_limit"] == 1 and certificate["kappa"] == 1, certificate

    def rank_one_chain():
        _, report = classify_scan(DirectSystem("rank1-real", (1,)), max_level=150)
        assert report.verdict == "PositiveLimit"
        assert report.evidence["limit"] == Fraction(1, 4)

    def row_eleven():
        assert c_value(build_space("sp-over-u", n=4), (1, 0, 0, 0)) == Fraction(5, 128)

    def certificates():
        assert divergence_certificate([1] * 100, [0] * 100, 1, 100) == Fraction(1, 101)
        assert divergence_certificate([Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2, 1, 2) == Fraction(5, 8)

    def gamma_oracle():
        for family, kwargs, coeffs in (("grass-complex", {"p": 2, "q": 5}, (1, 2)),
                                       ("group-sp", {"n": 3}, (0, 1, 1))):
            datum = build_space(family, **kwargs)
            exact = float(c_value(datum, coeffs))
            approx = c_oracle(datum, coeffs)
            assert abs(approx - exact) / exact < 1e-9, (family, exact, approx)

    def zonal_forms():
        grid = np.linspace(-1, 1, 101)
        n = 6
        want2 = ((n + 1) * grid ** 2 - 1) / n
        want3 = grid * ((n + 3) * grid ** 2 - 3) / n
        assert float(np.max(np.abs(zonal_eval(n, 2, grid) - want2))) < 1e-14
        assert float(np.max(np.abs(zonal_eval(n, 3, grid) - want3))) < 1e-14
        for k in range(9):
            assert float(np.max(np.abs(ode_residual(n, k, grid)))) < 1e-8
        gap = grid ** 2 - zonal_eval(n, 2, grid)
        assert float(np.max(np.abs(gap - (1 - grid ** 2) / n))) < 1e-14

    def haar_invariance():
        mats = haar_rotation(5, 64, seed=20240817)
        eye = np.eye(5)
        assert max(float(np.max(np.abs(m.T @ m - eye))) for m in mats) < 1e-12
        assert np.allclose(np.linalg.det(mats), 1.0, atol=1e-9)
        stab = haar_sample_stabilizer(4, 8, seed=7)
        x = mats[0]
        for h in stab:
            assert (h @ x @ stab[3])[0, 0] == (x @ stab[3])[0, 0]

    def mc_exact_cases():
        mc = mc_functional_equation(3, 0, planar_rotation(4, 1.0), planar_rotation(4, 0.5), 256, 1)
        assert mc.estimate == 1.0 and mc.target == 1.0 and mc.zscore() == 0.0
        mc2 = mc_functional_equation(3, 2, planar_rotation(4, 0.9), planar_rotation(4, 0.4), 4096, 11)
        assert mc2.zscore() <= 4.0, mc2
        # y fixes the base direction (b' = 0): every sample's t is x[0, 0]
        mc3 = mc_functional_equation(3, 3, planar_rotation(4, 0.9),
                                     planar_rotation(4, 0.4, axes=(1, 2)), 4096, 11)
        assert mc3.estimate == mc3.target and mc3.std_error == 0.0, mc3

    return [
        ("rank-one exact values", rank_one_values),
        ("normalization at the zero weight", normalization),
        ("simple-root / fundamental-weight duality", duality),
        ("type-A chain decays with certificate", a_chain),
        ("rank-one chain tends to exactly 1/4", rank_one_chain),
        ("row-11 value 5/128", row_eleven),
        ("divergence certificate products", certificates),
        ("log-gamma oracle agreement", gamma_oracle),
        ("zonal closed forms and ODE residual", zonal_forms),
        ("Haar orthogonality and exact bi-invariance", haar_invariance),
        ("Monte-Carlo exact cases", mc_exact_cases),
    ]


def run_self_check() -> int:
    failures = 0
    for name, fn in _self_checks():
        try:
            fn()
        except Exception as exc:  # report every failing invariant, keep going
            failures += 1
            print(f"FAIL - {name}: {exc!r}")
        else:
            print(f"ok - {name}")
    print(f"self-check: {'PASS' if not failures else 'FAIL'} ({failures} failures)")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphelim",
        description="Exact overlap constants on compact symmetric spaces, "
                    "rank dichotomy scans, and sphere zonal-limit checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--check", action="store_true",
                        help="run the built-in invariant suite and exit")
    sub = parser.add_subparsers(dest="command")

    p_cat = sub.add_parser("catalog", help="list the family table as JSON")
    p_cat.set_defaults(handler=cmd_catalog)

    p_eval = sub.add_parser("c-eval", help="exact overlap constants for one space")
    p_eval.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_eval.add_argument("--p", type=int)
    p_eval.add_argument("--q", type=int)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--mu", type=_parse_int_list, action="append", required=True,
                        help="fundamental-weight coefficients, e.g. 1,0,2 (repeatable)")
    p_eval.add_argument("--oracle", action="store_true",
                        help="also print the floating log-gamma evaluation")
    p_eval.set_defaults(handler=cmd_c_eval)

    p_scan = sub.add_parser("limit-scan", help="scan a chain and classify its limit")
    p_scan.add_argument("--config", help="key=value file; explicit flags win")
    for key, spec in _SCAN_KEYS.items():
        p_scan.add_argument("--" + key.replace("_", "-"), dest=key, **spec)
    p_scan.set_defaults(handler=cmd_limit_scan)

    p_sph = sub.add_parser("sphere-verify", help="zonal recurrence, ODE residual, MC identity")
    p_sph.add_argument("--n", type=int, required=True)
    p_sph.add_argument("--k", type=int, required=True)
    p_sph.add_argument("--grid", type=int, default=101)
    p_sph.add_argument("--samples", type=int, default=20000)
    p_sph.add_argument("--seed", type=int, default=20240817)
    p_sph.add_argument("--theta", type=float, default=0.9)
    p_sph.add_argument("--theta-y", type=float, default=0.4, dest="theta_y")
    p_sph.add_argument("--csv", help="write the grid table here instead of stdout")
    p_sph.set_defaults(handler=cmd_sphere_verify)

    p_mc = sub.add_parser("mc-check", help="Monte-Carlo functional-equation check")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--samples", type=int, default=100000)
    p_mc.add_argument("--seed", type=int, default=20240817)
    p_mc.add_argument("--theta", type=float, default=0.9)
    p_mc.add_argument("--theta-y", type=float, default=0.4, dest="theta_y")
    p_mc.add_argument("--haar-xy", action="store_true",
                      help="draw x and y from Haar measure instead of planar rotations")
    p_mc.add_argument("--max-z", type=float, default=4.0, dest="max_z")
    p_mc.set_defaults(handler=cmd_mc_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.check:
        return run_self_check()
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    # the one exit for bad input: every handler raises before its first
    # stdout write, so stdout stays empty
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
