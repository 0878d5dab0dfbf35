"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single ``[acceptance] PASS/FAIL criterion-N ...`` line
with its measured quantities (printed straight to the terminal, bypassing
capture), then asserts.  Runtime-budgeted criteria measure wall time with
``time.perf_counter`` and include it in the line.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import instances_at_rank, oracle_grid_instances
from sphelim.cfunc import c_gamma, c_value, overlap_q_squared
from sphelim.limits import (
    DirectSystem,
    c_sequence,
    classify_scan,
    divergence_certificate,
)
from sphelim.rootdata import build_space, rho, weight_from_xi
from sphelim.sphere import (
    mc_functional_equation,
    ode_residual,
    planar_rotation,
    zonal_eval,
)


@pytest.fixture
def report(capsys, request):
    def _report(ok: bool, detail: str):
        name = request.node.name.replace("test_", "", 1)
        with capsys.disabled():
            print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return _report


def test_criterion_01_normalization(report):
    """Zero weight gives exactly 1 on every catalog row at ranks 1..8."""
    t0 = time.perf_counter()
    checked = 0
    all_one = True
    for rank in range(1, 9):
        for datum in instances_at_rank(rank):
            all_one &= c_value(datum, (0,) * datum.rank) == 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = all_one and elapsed < 1.0
    report(ok, f"{checked} spaces over ranks 1..8, all exactly 1, {elapsed:.2f} s < 1 s")
    assert all_one
    assert elapsed < 1.0


def test_criterion_02_rank_one_exactness(report):
    """Sphere chain: c equals (n+1)/(4n) exactly and classifies to 1/4."""
    datum2 = build_space("rank1-real", q=2)
    exact = (c_value(datum2, (1,)) == Fraction(3, 8)
             and c_value(build_space("rank1-real", q=3), (1,)) == Fraction(1, 3)
             and c_value(build_space("rank1-real", q=4), (1,)) == Fraction(5, 16))
    for n in range(2, 51):
        exact &= c_value(build_space("rank1-real", q=n), (1,)) == Fraction(n + 1, 4 * n)
    _, verdict = classify_scan(DirectSystem("rank1-real", (1,)), max_level=150)
    classified = (verdict.verdict == "PositiveLimit"
                  and abs(verdict.limit_estimate - 0.25) <= 1e-3)
    ok = exact and classified
    report(ok, f"(n+1)/(4n) exact for n=2..50; classifier: {verdict.verdict} "
               f"estimate {verdict.limit_estimate:.6f} within 1e-3 of 0.25")
    assert exact
    assert classified


def test_criterion_03_oracle_agreement(report):
    """Exact product vs the log-Gamma oracle over the full coefficient grid
    (entries 0..4) on every family at ranks <= 6: relative gap <= 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    evaluations = 0
    for datum in oracle_grid_instances():
        rho_f = rho(datum).coeffs_f
        for coeffs in itertools.product(range(5), repeat=datum.rank):
            exact = float(c_value(datum, coeffs))
            mu_f = weight_from_xi(datum, coeffs).coeffs_f
            lam = tuple(a + b for a, b in zip(mu_f, rho_f))
            rel = abs(c_gamma(datum, lam) - exact) / exact
            worst = max(worst, rel)
            evaluations += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(ok, f"{evaluations} evaluations, worst relative gap {worst:.3e} <= 1e-9, "
               f"{elapsed:.1f} s < 60 s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_04_monotonicity(report):
    """Chains are nonincreasing, and adding any fundamental weight never
    increases the constant: 100 seeded spot checks, exact comparisons."""
    sequences_ok = True
    for system, top in [
        (DirectSystem("group-su", (1,)), 30),
        (DirectSystem("sp-over-u", (1,)), 30),
        (DirectSystem("group-spin-odd", (0, 1)), 30),
        (DirectSystem("grass-real", (1, 2), fixed_p=2), 40),
        (DirectSystem("grass-quaternion", (2, 1), fixed_p=2), 40),
    ]:
        seq = c_sequence(system, range(system.base_level, top))
        sequences_ok &= all(b <= a for a, b in zip(seq.values, seq.values[1:]))
    pool = [build_space("group-su", n=4), build_space("group-spin-odd", n=3),
            build_space("group-sp", n=3), build_space("grass-complex", p=2, q=5),
            build_space("su-over-sp", n=3), build_space("grass-real", p=3, q=5),
            build_space("so-over-u-odd", n=3), build_space("sp-over-u", n=4),
            build_space("group-spin-even", n=4), build_space("grass-quaternion", p=2, q=4)]
    rng = np.random.default_rng(20240817)
    spots_ok = True
    for _ in range(100):
        datum = pool[int(rng.integers(len(pool)))]
        base = tuple(int(c) for c in rng.integers(0, 4, size=datum.rank))
        j = int(rng.integers(datum.rank))
        bumped = tuple(c + (1 if i == j else 0) for i, c in enumerate(base))
        spots_ok &= c_value(datum, bumped) <= c_value(datum, base)
    ok = sequences_ok and spots_ok
    report(ok, "5 chains nonincreasing; 100 seeded bumps c(mu+xi_j) <= c(mu), all exact")
    assert sequences_ok
    assert spots_ok


def test_criterion_05_dichotomy(report):
    """Finite-rank systems stabilize to a positive limit; infinite-rank
    systems certify decay to zero and cross 1e-2 by level 500."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    finite_ok = True
    finite_runs = 0
    for family in ("grass-real", "grass-complex", "grass-quaternion"):
        for p in (1, 2, 3):
            for _ in range(3):
                coeffs = rng.integers(0, 3, size=p)
                if not coeffs.any():
                    coeffs[-1] = 1
                system = DirectSystem(family, tuple(int(c) for c in coeffs), fixed_p=p)
                _, rep = classify_scan(system, max_level=1200, batch=50)
                finite_ok &= rep.verdict == "PositiveLimit"
                finite_runs += 1
    infinite_ok = True
    crossings = {}
    floor = Fraction(1, 100)
    for family in ("group-su", "su-over-so", "su-over-sp", "sp-over-u"):
        system = DirectSystem(family, (1,))
        _, rep = classify_scan(system, max_level=500, batch=50)
        infinite_ok &= rep.verdict == "ZeroLimit"
        seq = c_sequence(system, range(1, 111))
        crossing = next((lvl for lvl, val in zip(seq.levels, seq.values)
                         if val < floor), None)
        crossings[family] = crossing
        infinite_ok &= crossing is not None and crossing <= 500
    elapsed = time.perf_counter() - t0
    ok = finite_ok and infinite_ok and elapsed < 300.0
    report(ok, f"{finite_runs} finite systems PositiveLimit; 4 infinite rows ZeroLimit "
               f"with c_n < 1e-2 by levels {sorted(set(crossings.values()))}; "
               f"{elapsed:.1f} s < 300 s")
    assert finite_ok
    assert infinite_ok
    assert elapsed < 300.0


def test_criterion_06_divergence_certificate(report):
    """Unit-coefficient partial products telescope to 1/(N+1), exactly."""
    ok = True
    for n_max in (10, 100, 1000, 10 ** 4):
        ok &= divergence_certificate([1] * n_max, [0] * n_max, 1, n_max) == Fraction(1, n_max + 1)
    report(ok, "partial product == 1/(N+1) exactly for N in {10, 100, 1000, 10000}")
    assert ok


def test_criterion_07_sphere_closed_forms(report):
    """Degree-1 and degree-2 closed forms and the defining ODE residual."""
    grid = np.linspace(-1.0, 1.0, 101)
    deg1_exact = all(np.array_equal(zonal_eval(n, 1, grid), grid) for n in range(2, 51))
    worst_deg2 = max(float(np.max(np.abs(zonal_eval(n, 2, grid) - ((n + 1) * grid ** 2 - 1) / n)))
                     for n in range(2, 51))
    worst_ode = max(float(np.max(np.abs(ode_residual(n, k, grid))))
                    for n in range(2, 21) for k in range(11))
    ok = deg1_exact and worst_deg2 <= 1e-12 and worst_ode < 1e-8
    report(ok, f"degree 1 exact for n=2..50; degree-2 gap {worst_deg2:.2e} <= 1e-12; "
               f"ODE residual {worst_ode:.2e} < 1e-8 for n<=20, k<=10")
    assert deg1_exact
    assert worst_deg2 <= 1e-12
    assert worst_ode < 1e-8


def test_criterion_08_pointwise_limit(report):
    """max_t |p_(n,k)(t) - t^k| shrinks monotonically in n and is < 0.05
    by n = 200, for k <= 3."""
    grid = np.linspace(-1.0, 1.0, 101)
    ok = True
    final_gaps = []
    for k in range(4):
        gaps = [float(np.max(np.abs(zonal_eval(n, k, grid) - grid ** k)))
                for n in (10, 20, 40, 80, 160)]
        ok &= all(b <= a for a, b in zip(gaps, gaps[1:]))
        gap200 = float(np.max(np.abs(zonal_eval(200, k, grid) - grid ** k)))
        final_gaps.append(gap200)
        ok &= gap200 < 0.05
    report(ok, f"gaps nonincreasing over n in {{10,20,40,80,160}}; at n=200: "
               f"{', '.join(f'{g:.4f}' for g in final_gaps)} all < 0.05 (k = 0..3)")
    assert ok


def test_criterion_09_functional_equation(report):
    """Monte-Carlo average over the stabilizer matches the product form:
    z-score <= 4 at 1e5 samples for n in {3,5,9}, k <= 3, fixed seeds."""
    t0 = time.perf_counter()
    worst_z = 0.0
    runs = 0
    for n in (3, 5, 9):
        x = planar_rotation(n + 1, 0.9)
        y = planar_rotation(n + 1, 0.4)
        for k in range(4):
            result = mc_functional_equation(n, k, x, y, samples=10 ** 5,
                                            seed=20240817 + 10 * n + k)
            worst_z = max(worst_z, result.zscore())
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 120.0
    report(ok, f"{runs} runs x 1e5 samples, worst |z| = {worst_z:.2f} <= 4, "
               f"{elapsed:.1f} s < 120 s")
    assert worst_z <= 4.0
    assert elapsed < 120.0


def test_criterion_10_chain_identity(report):
    """Two-step overlaps compose: q(m,l) = q(m,n) q(n,l) exactly at the
    squared-rational level, for every level triple in each finite sweep."""
    ok = True
    triples = 0
    for family in ("grass-real", "grass-complex", "grass-quaternion"):
        for p in (1, 2, 3):
            coeffs = tuple(1 + (i % 2) for i in range(p))
            data = {q: build_space(family, p=p, q=q) for q in range(p, p + 7)}
            levels = sorted(data)
            for lo, mid, hi in itertools.combinations(levels, 3):
                direct = overlap_q_squared(data[hi], data[lo], coeffs)
                stepped = (overlap_q_squared(data[hi], data[mid], coeffs)
                           * overlap_q_squared(data[mid], data[lo], coeffs))
                ok &= direct == stepped
                triples += 1
    report(ok, f"{triples} level triples across 9 finite sweeps, all exactly equal")
    assert ok
