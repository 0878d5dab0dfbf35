"""Exact overlap-product evaluation: frozen values, an independent
Gamma-function oracle, factor identities, and lattice rejection."""

import functools
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    instances_at_rank,
    inverse_weyl_dimension,
    memo_free_c_gamma,
    oracle_grid_instances,
    small_instances,
)
from sphelim import cfunc
from sphelim.cfunc import (
    CFactorParams,
    _gamma_class,
    _gamma_root_table,
    _product,
    _root_factor,
    _root_terms,
    _row_plan,
    _rows,
    c_factor_reference,
    c_gamma,
    c_oracle,
    c_value,
    overlap_q_squared,
)
from sphelim.limits import DirectSystem, c_sequence
from sphelim.rootdata import (
    FAMILIES,
    ROOT_PATTERNS,
    Weight,
    _f_ints_from_xi,
    build_space,
    iter_root_support,
    lambda_alpha,
    pad_xi_coeffs,
    positive_nonmultipliable_roots,
    rho,
    weight_from_xi,
    zero_weight,
)

INSTANCES = small_instances()
IDS = [d.family for d in INSTANCES]


def gamma_form(params: CFactorParams, dps: int = 50) -> mpmath.mpf:
    """Same factor via the Gamma function: with lam = rho + mu,

        Gamma(2 lam) Gamma(rho + x) Gamma(rho + y)
        -------------------------------------------------
        4^mu Gamma(2 rho) Gamma(lam + x) Gamma(lam + y)

    An independent closed form; agreement to ~dps digits certifies the
    integer-product evaluator.
    """
    with mpmath.workdps(dps):
        mu = params.mu_alpha
        rho = mpmath.mpf(params.rho_alpha.numerator) / params.rho_alpha.denominator
        x = mpmath.mpf(params.x_alpha.numerator) / params.x_alpha.denominator
        y = mpmath.mpf(params.y_alpha.numerator) / params.y_alpha.denominator
        lam = rho + mu
        num = mpmath.gamma(2 * lam) * mpmath.gamma(rho + x) * mpmath.gamma(rho + y)
        den = mpmath.power(4, mu) * mpmath.gamma(2 * rho) \
            * mpmath.gamma(lam + x) * mpmath.gamma(lam + y)
        return num / den


class TestCFactorParams:
    def test_from_multiplicities(self):
        params = CFactorParams.from_multiplicities(1, Fraction(1, 4), 0, 1)
        assert params == CFactorParams(1, Fraction(1, 4), Fraction(3, 4), Fraction(1, 4))

    def test_validation(self):
        with pytest.raises(ValueError, match="mu_alpha"):
            CFactorParams(-1, Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(ValueError, match="rho_alpha"):
            CFactorParams(1, Fraction(0), Fraction(1), Fraction(1))
        with pytest.raises(ValueError, match="x_alpha"):
            CFactorParams(1, Fraction(1), Fraction(1, 3), Fraction(1))
        with pytest.raises(ValueError, match="x_alpha"):
            CFactorParams(1, Fraction(1), Fraction(1, 4), Fraction(1))
        with pytest.raises(ValueError, match="y_alpha"):
            CFactorParams(1, Fraction(1), Fraction(1), Fraction(1, 4))

    def test_from_root_values(self):
        datum = build_space("rank1-real", q=2)
        root = positive_nonmultipliable_roots(datum)[0]  # 2 f_1
        params = CFactorParams.from_root(datum, (1,), root)
        assert params == CFactorParams(1, Fraction(1, 4), Fraction(3, 4), Fraction(1, 4))

    def test_from_root_rejects_zero_multiplicity(self):
        datum = build_space("grass-real", p=2, q=2)  # long roots vanish here
        long_root = positive_nonmultipliable_roots(datum)[-1]
        assert long_root.coeffs == (2, 0)
        with pytest.raises(ValueError, match="zero multiplicity"):
            CFactorParams.from_root(datum, (0, 0), long_root)

    def test_from_root_rejects_nonintegral_pairing(self):
        datum = build_space("group-sp", n=2)
        root = positive_nonmultipliable_roots(datum)[-1]
        assert root.coeffs == (2, 0)
        mu = Weight((Fraction(1), Fraction(3)))
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            CFactorParams.from_root(datum, mu, root)


class TestCFactor:
    def test_frozen_rank_one_values(self):
        assert c_factor_reference(CFactorParams(1, Fraction(1, 4), Fraction(3, 4),
                                                Fraction(1, 4))) == Fraction(3, 8)
        assert c_factor_reference(CFactorParams(1, Fraction(1, 2), Fraction(1),
                                                Fraction(1, 2))) == Fraction(1, 3)

    def test_mu_zero_is_one(self):
        assert c_factor_reference(CFactorParams(0, Fraction(7, 4), Fraction(5, 2),
                                                Fraction(9, 4))) == 1

    def test_trivial_multiplicity_profile_is_one(self):
        # x = 1/2, y = 0 encodes m = m_half = 0; every factor collapses to 1
        for mu in range(6):
            params = CFactorParams(mu, Fraction(3, 4), Fraction(1, 2), Fraction(0))
            assert c_factor_reference(params) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.integers(min_value=0, max_value=6),
        rho_num=st.integers(min_value=1, max_value=40),
        rho_den=st.sampled_from([1, 2, 4, 8]),
        m=st.integers(min_value=0, max_value=8),
        mh=st.integers(min_value=0, max_value=8),
    )
    def test_matches_reference_form_and_bounds(self, mu, rho_num, rho_den, m, mh):
        rho_a = Fraction(rho_num, rho_den)
        params = CFactorParams.from_multiplicities(mu, rho_a, m, mh)
        value = Fraction(*_root_factor(mu, int(8 * rho_a), 2 * (mh + 2), 2 * (mh + 2 * m)))
        assert value == c_factor_reference(params)
        assert 0 < value <= 1
        if mu > 0 and (m, mh) != (0, 0):
            assert value < 1

    @settings(max_examples=80, deadline=None)
    @given(
        mu=st.integers(min_value=0, max_value=5),
        rho_num=st.integers(min_value=1, max_value=24),
        m=st.integers(min_value=0, max_value=6),
        mh=st.integers(min_value=0, max_value=6),
    )
    def test_matches_gamma_oracle(self, mu, rho_num, m, mh):
        params = CFactorParams.from_multiplicities(mu, Fraction(rho_num, 4), m, mh)
        exact = Fraction(*_root_factor(mu, 2 * rho_num, 2 * (mh + 2), 2 * (mh + 2 * m)))
        with mpmath.workdps(50):
            oracle = gamma_form(params)
            exact_mp = mpmath.mpf(exact.numerator) / exact.denominator
            rel = abs(oracle - exact_mp) / exact_mp
            assert rel < mpmath.mpf("1e-40")


class TestRootFactorMemo:
    def test_entries_are_coprime_and_exact(self):
        """Every memo entry is the reference factor in lowest terms, for
        rho in eighths and quarter-integer x, y."""
        cases = 0
        for mu, rho8 in itertools.product(range(7), range(1, 25)):
            rho_a = Fraction(rho8, 8)
            for x4 in range(2, 8):
                for y4 in range(x4 - 2, x4 + 5):
                    params = CFactorParams(mu, rho_a, Fraction(x4, 4), Fraction(y4, 4))
                    num, den = _root_factor(mu, rho8, 2 * x4, 2 * y4)
                    assert den > 0 and math.gcd(num, den) == 1, params
                    assert Fraction(num, den) == c_factor_reference(params), params
                    cases += 1
        assert cases == 7 * 24 * 6 * 7

    @pytest.mark.parametrize("mu", [cfunc._SPLIT_TERMS - 1, cfunc._SPLIT_TERMS,
                                    cfunc._SPLIT_TERMS + 1, 2000])
    def test_long_runs_split_to_the_sequential_product(self, mu):
        """A run above the cutoff is multiplied in halves; the product, and
        the memo's reduced pair, are those of one sequential product."""
        for start in (1, 4, 13, 8 * mu + 3):
            assert cfunc._run_product(start, mu) == math.prod(range(start, start + 8 * mu, 8))
        key = (mu, 10, 6, 14)  # rho = 5/4, x = 3/4, y = 7/4
        (a, b), (c, d) = _root_terms(*key)
        fn, fd = (math.prod(range(s, s + 8 * mu, 8)) * math.prod(range(t, t + 8 * mu, 8))
                  for s, t in ((a, b), (c, d)))
        g = math.gcd(fn, fd)
        assert _root_factor.__wrapped__(*key) == (fn // g, fd // g)

    def test_memos_stay_bounded_over_the_criterion_3_sweep(self):
        """The root-factor memo, the oracle's class memo and every one of
        its per-class term memos, and the per-datum memos of the row plan
        and of the oracle's root table, hold the whole criterion-3
        working set: they stay within their bounds and never evict, so each
        key is computed once."""
        memos = (_root_factor, _gamma_class, _row_plan, _gamma_root_table)
        for memo in memos:
            memo.cache_clear()
        grid = oracle_grid_instances()
        for datum in grid:
            for coeffs in itertools.product(range(5), repeat=datum.rank):
                c_value(datum, coeffs)
                c_oracle(datum, coeffs)
        terms = class_memos(grid)  # read after the sweep
        assert len(terms) == _gamma_class.cache_info().currsize
        for memo in memos + terms:
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize
            assert info.misses == info.currsize and info.hits > info.misses


def class_memos(data) -> tuple:
    """The distinct per-class term memos that the data's oracle tables hold."""
    terms = {id(term): term for datum in data for term, _, _, _ in _gamma_root_table(datum)}
    return tuple(terms.values())


class TestRowPlan:
    """``_row_plan`` checks, once per datum, the rho pairings that rows can
    list: the single roots only where there are some and they are roots,
    the pair roots only where they are roots."""

    @pytest.mark.parametrize("datum, r4, coeffs", [
        (build_space("group-sp", n=3), (4, 4, 8), (0, 1, 0)),      # pairs: not increasing
        (build_space("group-sp", n=3), (0, 4, 8), (0, 0, 0)),      # single root 2f1: 0
        (build_space("group-spin-even", n=4), (-4, 0, 4, 8), (0, 0, 0, 0)),  # f1 + f2: -4
    ], ids=["nonincreasing", "single-root", "sum-root"])
    def test_nonpositive_rho_pairing_is_an_internal_error(self, monkeypatch, datum, r4, coeffs):
        # raised even at weights whose rows list no factor on the bad pairing
        monkeypatch.setattr(cfunc, "_rho4", lambda d: r4)
        _row_plan.cache_clear()
        try:
            with pytest.raises(ArithmeticError,
                               match="^internal error: nonpositive rho pairing on a root$"):
                c_value(datum, coeffs)
        finally:
            _row_plan.cache_clear()

    def test_no_alarm_where_rows_list_no_such_pairing(self):
        # sp-over-u at n = 1: 4 rho = (0,), no single roots (m_alpha1 = 0)
        # and no pairs; type A: single is set but there are no roots s f_j
        # (s = 0), and 4 rho starts at 0
        sp, su = build_space("sp-over-u", n=1), build_space("group-su", n=3)
        _row_plan.cache_clear()
        assert _row_plan(sp) == (2, True, None, (4, 4), (0,))
        assert _row_plan(su) == (0, False, (4, 8), (4, 8), (0, 8, 16))
        assert c_value(sp, (3,)) == 1  # the empty product
        for xi in ((0, 1), (2, 1), (3, 0)):
            assert c_value(su, xi) == inverse_weyl_dimension("A", _f_ints_from_xi(su.psi, xi))


class TestCValue:
    def test_normalization(self):
        for datum in INSTANCES:
            assert c_value(datum, (0,) * datum.rank) == 1
            assert c_value(datum, zero_weight(datum)) == 1

    def test_rank_one_real_closed_form(self):
        # first nontrivial values 3/8, 1/3, 5/16, ... = (q+1)/(4q)
        for q in range(2, 13):
            datum = build_space("rank1-real", q=q)
            assert c_value(datum, (1,)) == Fraction(q + 1, 4 * q)

    def test_rank_one_degenerate_circle(self):
        # q = 1 has no roots at all, so the product is empty for every weight
        datum = build_space("rank1-real", q=1)
        for k in range(4):
            assert c_value(datum, (k,)) == 1

    @pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
    def test_equals_product_over_roots(self, datum):
        coeffs = tuple(1 if j % 2 == 0 else 2 for j in range(datum.rank))
        mu = weight_from_xi(datum, coeffs)
        product = Fraction(1)
        for root in positive_nonmultipliable_roots(datum):
            m, mh = datum.mults_for(root.orbit)
            if m == 0 and mh == 0:
                continue
            product *= c_factor_reference(CFactorParams.from_root(datum, mu, root))
        assert c_value(datum, coeffs) == product

    def test_weight_and_coefficient_inputs_agree(self):
        datum = build_space("grass-quaternion", p=2, q=4)
        coeffs = (2, 1)
        assert c_value(datum, coeffs) == c_value(datum, weight_from_xi(datum, coeffs))

    def test_bounds(self):
        for datum in INSTANCES:
            value = c_value(datum, (1,) * datum.rank)
            assert 0 < value < 1

    def test_monotone_under_coordinate_increase(self):
        for datum in INSTANCES[:6]:
            base = (1,) * datum.rank
            c_base = c_value(datum, base)
            for j in range(datum.rank):
                bumped = tuple(k + (1 if i == j else 0) for i, k in enumerate(base))
                assert c_value(datum, bumped) <= c_base

    def test_rejects_nonlattice_weight(self):
        datum = build_space("su-over-so", n=3)
        with pytest.raises(ValueError, match=r"pairing with RestrictedRoot\(-f1\+f3, alpha1_orbit\) is 3/2"):
            c_value(datum, Weight((Fraction(0), Fraction(1), Fraction(3))))

    @pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
    def test_rejection_names_dense_lex_first_violation(self, datum):
        # brute force: every pattern root, sorted by its dense f-coefficients
        roots = sorted(positive_nonmultipliable_roots(datum), key=lambda r: r.coeffs)
        rng = random.Random(20240817)
        n = datum.psi.ambient_dim
        rejected = 0
        # mostly lattice-friendly coordinates, so that few roots fail and
        # the order among the failing ones decides the answer
        pool = (-2, -1, 0, 0, 1, 2, 2, 4, Fraction(1, 2), Fraction(-3, 2))
        for _ in range(200):
            vec = tuple(Fraction(rng.choice(pool)) for _ in range(n))
            first = next((r for r in roots
                          if (v := lambda_alpha(vec, r)).denominator != 1 or v < 0), None)
            if first is None:
                continue
            rejected += 1
            with pytest.raises(ValueError) as exc:
                c_value(datum, Weight(vec))
            assert f"pairing with {first!r} is {lambda_alpha(vec, first)}" in str(exc.value)
            # c_oracle reads a Weight by the same reader, so rejects it alike
            with pytest.raises(ValueError) as oracle_exc:
                c_oracle(datum, Weight(vec))
            assert str(oracle_exc.value) == str(exc.value)
        assert rejected > 0

    def test_rejects_negative_weight(self):
        datum = build_space("group-sp", n=2)
        with pytest.raises(ValueError, match="not in the spherical dominant lattice"):
            c_value(datum, Weight((Fraction(-2), Fraction(0))))

    def test_rejects_wrong_length(self):
        datum = build_space("group-sp", n=3)
        with pytest.raises(ValueError, match="need 3 coefficients, got 2"):
            c_value(datum, (1, 1))

    def test_sp_over_u_chain_values(self):
        # one exact value per level of the row-11 chain at its first weight
        expected = {1: Fraction(1), 2: Fraction(3, 8), 3: Fraction(1, 8),
                    4: Fraction(5, 128)}
        for n, want in expected.items():
            datum = build_space("sp-over-u", n=n)
            assert c_value(datum, (1,) + (0,) * (n - 1)) == want


def shifted_parameter(datum, coeffs) -> tuple[Fraction, ...]:
    """mu + rho in f-coordinates: where the floating-point oracle evaluates."""
    mu = weight_from_xi(datum, coeffs)
    return tuple(a + b for a, b in zip(mu.coeffs_f, rho(datum).coeffs_f))


@functools.cache
def criterion3_sample() -> tuple:
    """1,500 seeded (datum, coefficients) points of the criterion-3 grid."""
    rng = random.Random("c-oracle-shift")
    grid = oracle_grid_instances()
    sample = []
    for _ in range(1500):
        datum = rng.choice(grid)
        sample.append((datum, tuple(rng.randrange(5) for _ in range(datum.rank))))
    assert {d.psi.label for d, _ in sample} == {"A", "B", "C", "D"}
    return tuple(sample)


class TestCGammaOracle:
    def test_memo_keeps_every_float(self):
        """On a seeded criterion-3 sample, c_gamma with a cold memo and again
        with a warm one gives the memo-free sum to the last bit."""
        rng = random.Random("c-gamma-memo")
        grid = oracle_grid_instances()
        sample = []
        for _ in range(1500):
            datum = rng.choice(grid)
            sample.append((datum, tuple(rng.randrange(5) for _ in range(datum.rank))))
        # cold: no table holds a class memo from an earlier test
        _gamma_root_table.cache_clear()
        _gamma_class.cache_clear()
        for _ in range(2):
            for datum, coeffs in sample:
                lam = shifted_parameter(datum, coeffs)
                got = c_gamma(datum, lam)
                assert float.hex(got) == float.hex(memo_free_c_gamma(datum, lam)), (
                    datum.family, datum.params, coeffs)
        assert sum(term.cache_info().hits for term in class_memos(d for d, _ in sample)) > 0

    def test_table_rows_hold_only_ints_and_floats(self):
        """The table's rows hold no memo or other object the garbage
        collector tracks, so a table of many rows is left untracked, and
        each group's rows are one root class in iter_root_support order."""
        grid = oracle_grid_instances() + [build_space("group-sp", n=40),
                                          build_space("grass-real", p=12, q=30)]
        for datum in grid:
            groups = _gamma_root_table(datum)
            assert len(groups) <= 2, datum
            for term, scale, orbit, rows in groups:
                assert type(rows) is tuple and rows
                for row in rows:
                    assert type(row) is tuple and len(row) == 6
                    assert all(type(v) is int for v in row[:5]) and type(row[5]) is float
            roots = [(entries, orbit) for orbit, _, entries in iter_root_support(datum.psi)
                     if datum.mults_for(orbit) != (0, 0)]
            listed = [(((i0, v0), (i1, v1)) if v1 else ((i0, v0),), orbit)
                      for _, _, orbit, rows in groups for i0, v0, i1, v1, _, _ in rows]
            assert listed == roots, datum

    @pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
    def test_relative_agreement(self, datum):
        for coeffs in [(1,) * datum.rank,
                       tuple(2 if j == 0 else 0 for j in range(datum.rank)),
                       tuple(range(1, datum.rank + 1))]:
            exact = float(c_value(datum, coeffs))
            approx = c_gamma(datum, shifted_parameter(datum, coeffs))
            assert abs(approx - exact) / exact < 1e-9

    def test_accepts_weight_input(self):
        datum = build_space("rank1-real", q=4)
        exact = float(c_value(datum, (1,)))
        lam = Weight(shifted_parameter(datum, (1,)))  # f-vector (7/2,)
        assert lam.coeffs_f == (Fraction(7, 2),)
        assert abs(c_gamma(datum, lam) - exact) / exact < 1e-12

    @pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
    def test_c_oracle_is_c_gamma_at_the_shift(self, datum):
        """c_oracle's integer shift 4 mu + 4 rho gives c_gamma at mu + rho
        bit for bit, from coefficients and from a Weight: at three fixed
        weights of this instance and at the points of its family in a
        seeded criterion-3 sample, which spans types A, B, C and D."""
        sample = [(d, c) for d, c in criterion3_sample() if d.family == datum.family]
        assert sample
        fixed = [(0,) * datum.rank, (1,) * datum.rank, tuple(range(1, datum.rank + 1))]
        for d, coeffs in [(datum, c) for c in fixed] + sample:
            want = float.hex(c_gamma(d, shifted_parameter(d, coeffs)))
            assert float.hex(c_oracle(d, coeffs)) == want, (d.family, d.params, coeffs)
            assert float.hex(c_oracle(d, weight_from_xi(d, coeffs))) == want

    def test_rejects_a_coordinate_that_is_not_a_quarter_integer(self):
        datum = build_space("grass-complex", p=2, q=3)
        lam = list(shifted_parameter(datum, (1, 1)))
        lam[1] += Fraction(1, 3)
        with pytest.raises(ValueError, match=r"coordinate f2 = \S+ is not a quarter-integer"):
            c_gamma(datum, lam)
        # the length is checked before any coordinate is
        with pytest.raises(ValueError, match="^expected 3 f-coefficients, got 2$"):
            c_gamma(build_space("group-sp", n=3), (Fraction(1, 3), 2))
        # c_oracle takes the weights c_value takes, so such a Weight is
        # off the spherical dominant lattice and rejected as c_value does
        mu = list(weight_from_xi(datum, (1, 1)).coeffs_f)
        mu[1] += Fraction(1, 3)
        with pytest.raises(ValueError, match="not in the spherical dominant lattice: "
                                             r"pairing with RestrictedRoot\(-f1\+f2, middle\)"):
            c_oracle(datum, Weight(tuple(mu)))

    @pytest.mark.parametrize("datum, lam, message", [
        (build_space("rank1-real", q=4), (-1,), r"RestrictedRoot\(2f1, alpha1_orbit\) is -1/2"),
        (build_space("grass-complex", p=2, q=3), (3, 3), r"RestrictedRoot\(-f1\+f2, middle\) is 0"),
        (build_space("group-spin-even", n=4), (-1, 0, 1, 2),
         r"RestrictedRoot\(f1\+f2, alpha1_orbit\) is -1/2"),
    ], ids=["single-root", "pair-root", "sum-root"])
    def test_rejects_a_nonpositive_pairing(self, datum, lam, message):
        with pytest.raises(ValueError, match="pair positively with every root: pairing with "
                                             + message) as got:
            c_gamma(datum, lam)
        # the root rebuilt from the flat table row is the one the literal
        # sum meets first
        with pytest.raises(ValueError) as want:
            memo_free_c_gamma(datum, lam)
        assert str(got.value) == str(want.value)

    def test_c_gamma_and_c_oracle_are_the_literal_sum(self):
        """On a seeded criterion-3 sample, the flat table's sum is the
        literal root-by-root sum, float for float."""
        for datum, coeffs in criterion3_sample():
            want = memo_free_c_gamma(datum, shifted_parameter(datum, coeffs))
            assert c_gamma(datum, shifted_parameter(datum, coeffs)) == want, (datum, coeffs)
            assert c_oracle(datum, coeffs) == want, (datum, coeffs)

    def test_c_oracle_rejects_wrong_length(self):
        datum = build_space("group-sp", n=3)
        with pytest.raises(ValueError, match="need 3 coefficients"):
            c_oracle(datum, (1, 1))
        # a Weight with an extra f-coordinate is rejected, not truncated
        with pytest.raises(ValueError, match="expected 3 f-coefficients, got 4"):
            c_oracle(datum, Weight(weight_from_xi(datum, (1, 1, 1)).coeffs_f + (Fraction(0),)))


class TestOverlaps:
    def test_q_squared_between_sphere_levels(self):
        d3 = build_space("rank1-real", q=3)
        d2 = build_space("rank1-real", q=2)
        assert overlap_q_squared(d3, d2, (1,)) == Fraction(8, 9)

    def test_chain_identity(self):
        # q(m, l) = q(m, n) q(n, l), exactly at the squared level
        for fam, build in [
            ("grass-complex", lambda q: build_space("grass-complex", p=2, q=q)),
            ("sp-over-u", lambda n: build_space("sp-over-u", n=n)),
        ]:
            lo, mid, hi = build(3), build(5), build(8)
            coeffs = (1, 2)[: lo.rank] if fam == "grass-complex" else (1, 0, 1)
            direct = overlap_q_squared(hi, lo, coeffs)
            stepped = overlap_q_squared(hi, mid, coeffs) * overlap_q_squared(mid, lo, coeffs)
            assert direct == stepped

    def test_propagation_guards(self):
        d_a = build_space("grass-real", p=2, q=4)
        d_b = build_space("grass-complex", p=2, q=4)
        with pytest.raises(ValueError, match="families differ"):
            overlap_q_squared(d_a, d_b, (1,))
        with pytest.raises(ValueError, match="fixed rank p differs"):
            overlap_q_squared(build_space("grass-real", p=3, q=5), d_a, (1,))
        with pytest.raises(ValueError, match="at least"):
            overlap_q_squared(build_space("grass-real", p=2, q=3), d_a, (1,))
        with pytest.raises(ValueError, match="at least"):
            overlap_q_squared(build_space("sp-over-u", n=2), build_space("sp-over-u", n=3), (1,))


def pochhammer(a: Fraction, k: int) -> Fraction:
    return math.prod((a + i for i in range(k)), start=Fraction(1))


class TestOneReductionSchedule:
    def test_rank_one_jacobi_closed_form(self):
        """On a rank-one space c(k xi_1) is the e^{2ik theta} coefficient of the
        normalised Jacobi polynomial P_k^(a,b)(cos 2 theta): (k+a+b+1)_k /
        (4^k (a+1)_k), a = (m_alpha + m_2alpha - 1)/2, b = (m_2alpha - 1)/2.
        The real rows start at q = 2; their q = 1 member is the circle, with
        no roots."""
        cases = 0
        for family, q0 in (("rank1-real", 2), ("grass-real", 2),
                           ("grass-complex", 1), ("grass-quaternion", 1)):
            for q in range(q0, 31):
                datum = (build_space(family, q=q) if family == "rank1-real"
                         else build_space(family, p=1, q=q))
                m_a, m_2a = datum.mult_half, datum.mult_alpha1
                a, b = Fraction(m_a + m_2a - 1, 2), Fraction(m_2a - 1, 2)
                for k in range(8):
                    want = pochhammer(k + a + b + 1, k) / (4 ** k * pochhammer(a + 1, k))
                    assert c_value(datum, (k,)) == want, (family, q, k)
                    cases += 1
        assert cases == 944

    @pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
    def test_pair_is_in_lowest_terms(self, datum):
        rank = datum.rank
        for xi in ((1,) * rank, tuple(range(rank, 0, -1)), (4,) + (0,) * (rank - 1)):
            coeffs = _f_ints_from_xi(datum.psi, xi)
            for lo in range(len(coeffs) + 1):
                num, den = _product(_rows(datum, coeffs, lo))
                assert den > 0 and math.gcd(num, den) == 1, (xi, lo)

    def test_values_pinned(self):
        """SHA-256, pinned, of c_value over the criterion-3 instances with
        coefficient digits 0..2 and the nine infinite-rank rows at rank 60
        with xi_1, xi_2 and xi_2 + 2 xi_4: a change of reduction schedule
        must keep every Fraction."""
        cases = [(datum, coeffs) for datum in oracle_grid_instances()
                 for coeffs in itertools.product(range(3), repeat=datum.rank)]
        high = [datum for datum in instances_at_rank(60) if not datum.grassmannian]
        assert len(high) == 9
        cases += [(datum, pad_xi_coeffs(xi, 60))
                  for datum in high for xi in ((1,), (0, 1), (0, 1, 0, 2))]
        digest = hashlib.sha256()
        for datum, coeffs in cases:
            value = c_value(datum, coeffs)
            digest.update(f"{datum.family}{datum.params}{coeffs} "
                          f"{value.numerator}/{value.denominator}\n".encode())
        assert digest.hexdigest() == (
            "6ca7b2d38fd42775f7da43be890d1ff3b50f216888bc76837dbf81a249a54538")

    @pytest.mark.parametrize("family", ["group-su", "group-spin-odd", "group-sp",
                                        "group-spin-even"])
    def test_group_spaces_match_weyl_dimension(self, family):
        rng = random.Random(f"weyl-{family}")
        for _ in range(100):
            datum = build_space(family, n=rng.randint(4, 12))
            coeffs = tuple(rng.randrange(4) for _ in range(datum.rank))
            want = inverse_weyl_dimension(datum.psi.label,
                                          weight_from_xi(datum, coeffs).coeffs_f)
            assert c_value(datum, coeffs) == want, (datum.params, coeffs)

    def test_group_sp_matches_weyl_dimension_at_rank_200(self):
        datum = build_space("group-sp", n=200)
        coeffs = pad_xi_coeffs((0, 1, 0, 2), datum.rank)
        want = inverse_weyl_dimension("C", weight_from_xi(datum, coeffs).coeffs_f)
        assert c_value(datum, coeffs) == want

    def test_one_shot_matches_fold_at_high_rank(self):
        datum = build_space("group-sp", n=400)
        t0 = time.perf_counter()
        value = c_value(datum, pad_xi_coeffs((0, 1, 0, 2), datum.rank))
        elapsed = time.perf_counter() - t0
        fold = c_sequence(DirectSystem("group-sp", (0, 1, 0, 2)), range(4, 401))
        assert value == fold.values[-1]
        assert elapsed < 10.0

    def test_one_shot_matches_fold_at_rank_800(self):
        datum = build_space("group-sp", n=800)
        value = c_value(datum, pad_xi_coeffs((0, 1, 0, 2), datum.rank))
        fold = c_sequence(DirectSystem("group-sp", (0, 1, 0, 2)), range(4, 801))
        assert fold.levels[-1] == 800
        assert value == fold.values[-1]


def _run_cases(seed: str) -> list:
    """(datum, f-coefficients) over all thirteen catalog rows at ranks up to
    40, with mostly-zero fundamental-weight coefficients, so that the
    f-coefficients have long runs; plus D-fork weights, where f_1 < f_2."""
    rng = random.Random(seed)
    cases = []
    for rank in (1, 2, 4, rng.randint(5, 12), rng.randint(13, 25), rng.randint(26, 40)):
        for datum in instances_at_rank(rank, q_offset=rng.randint(0, 3)):
            xi = [rng.choice((1, 2)) if rng.random() < 0.2 else 0 for _ in range(rank)]
            if datum.psi.label == "D":
                xi[:2] = 0, rng.randint(1, 3)
            cases.append((datum, _f_ints_from_xi(datum.psi, xi), xi))
    return cases


RUN_CASES = _run_cases("runs")


class TestRunTelescoping:
    """A run of equal f-coefficients below a row is one factor (``_rows``):
    the identity behind it, the product it gives, and the factor count."""

    def test_pair_root_factor_is_a_pochhammer_ratio(self):
        """With x = 1/2 and y = m/2, as on every pair orbit, the four runs of
        mu terms of ``_root_terms`` reduce to (rho)_mu / (rho + m/2)_mu, as
        the second numerator run is the first denominator run, so a run of
        L pair roots, rho moving by m/2 per root, telescopes to one such
        factor of multiplicity L m at the run's smallest rho."""
        data = [build_space(row.slug, p=1, q=2) if row.param_kind == "pq"
                else build_space(row.slug, n=max(row.min_n, 2)) for row in FAMILIES.values()]
        pair_mults = sorted({d.mults_for(ROOT_PATTERNS[d.psi.label].pair_orbit)[0]
                             for d in data})
        assert pair_mults == [1, 2, 4]
        for m, mu, rho8 in itertools.product(pair_mults, range(6), range(1, 41)):
            num, den = ([range(s, s + 8 * mu, 8) for s in starts]
                        for starts in _root_terms(mu, rho8, 4, 4 * m))
            assert [len(run) for run in num + den] == [mu] * 4
            assert num[1] == den[0]
            r = Fraction(rho8, 8)
            want = pochhammer(r, mu) / pochhammer(r + Fraction(m, 2), mu)
            assert Fraction(math.prod(map(math.prod, num)),
                            math.prod(map(math.prod, den))) == want, (m, mu, rho8)
            for length in range(1, 5):  # the run [0, length) below a row
                run = math.prod((pochhammer(r + Fraction(m * i, 2), mu) for i in range(length)),
                                start=Fraction(1))
                run /= math.prod(pochhammer(r + Fraction(m * (i + 1), 2), mu)
                                 for i in range(length))
                assert Fraction(*_root_factor(mu, rho8, 4, 4 * m * length)) == run

    def test_covers_every_row_and_the_d_fork(self):
        assert {d.family for d, _, _ in RUN_CASES} == {row.slug for row in FAMILIES.values()}
        fork = [coeffs for d, coeffs, _ in RUN_CASES if d.psi.label == "D"]
        assert fork and all(coeffs[0] < coeffs[1] for coeffs in fork)
        assert max(d.rank for d, _, _ in RUN_CASES) > 25

    @pytest.mark.parametrize("index", range(len(RUN_CASES)))
    def test_product_from_is_the_literal_product(self, index):
        """``_product(_rows(datum, coeffs, lo))`` is the displayed product over
        the roots whose largest f-index is at least lo."""
        datum, coeffs, xi = RUN_CASES[index]
        mu = weight_from_xi(datum, xi)
        factors = [(root.entries[-1][0],
                    c_factor_reference(CFactorParams.from_root(datum, mu, root)))
                   for root in positive_nonmultipliable_roots(datum)
                   if datum.mults_for(root.orbit) != (0, 0)]
        n = len(coeffs)
        for lo in sorted({0, n // 2, n - 1, n}):
            want = math.prod((f for top, f in factors if top >= lo), start=Fraction(1))
            assert Fraction(*_product(_rows(datum, coeffs, lo))) == want, (xi, lo)

    def test_a_row_has_at_most_two_factors_per_run_and_one(self):
        longest = 0
        for datum, coeffs, _ in RUN_CASES:
            for j, row in enumerate(_rows(datum, coeffs, 0)):
                runs = sum(1 for _ in itertools.groupby(coeffs[:j]))
                assert len(row) <= 2 * runs + 1, (datum.family, coeffs, j)
                longest = max(longest, j - runs)
        assert longest > 20  # some row spans runs far longer than one index


XI1_CLOSED_FORMS = {
    "group-sp": lambda n: Fraction(n + 2, math.comb(2 * n + 2, n + 1)),  # 1/Catalan(n+1)
    "so-over-u-even": lambda n: Fraction(1, math.comb(2 * n, n)),
    "so-over-u-odd": lambda n: Fraction(1, math.comb(2 * n + 1, n)),
    "sp-over-u": lambda n: Fraction(n + 1, 2 ** (2 * n - 1)),
    "group-spin-odd": lambda n: Fraction(1, 2 ** n),
}


class TestClosedFormChains:
    """Chains whose every level has a closed form, folded far above the
    ranks of criterion 3."""

    @pytest.mark.parametrize("family", list(XI1_CLOSED_FORMS))
    def test_xi1_chain_to_rank_300(self, family):
        seq = c_sequence(DirectSystem(family, (1,)), range(1, 301))
        assert seq.levels == tuple(range(1, 301))
        for n, value in zip(seq.levels, seq.values):
            assert value == XI1_CLOSED_FORMS[family](n), (family, n)

    def test_closed_forms_at_rank_ten_thousand(self):
        """One-shot values at n = 10^4, where a row's roots form a few runs."""
        n = 10 ** 4
        for family, xi, want in (
                ("group-sp", (1,), XI1_CLOSED_FORMS["group-sp"](n)),
                ("so-over-u-even", (1,), XI1_CLOSED_FORMS["so-over-u-even"](n)),
                ("group-su", (0, 0, 1), Fraction(1, math.comb(n, 3)))):
            datum = build_space(family, n=n)
            assert c_value(datum, pad_xi_coeffs(xi, datum.rank)) == want, family

    @pytest.mark.parametrize("family", ["group-su", "su-over-so", "su-over-sp"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_type_a_chain_is_inverse_binomial(self, family, k):
        """At xi_k and rank r, c = 1/C(r+1, k), whatever the multiplicity."""
        seq = c_sequence(DirectSystem(family, (0,) * (k - 1) + (1,)), range(k, 120))
        assert seq.levels == tuple(range(k, 120))
        for r, value in zip(seq.levels, seq.values):
            assert value == Fraction(1, math.comb(r + 1, k)), (family, k, r)
