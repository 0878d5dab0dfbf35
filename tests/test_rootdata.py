"""Catalog and root-pattern invariants: duality, half-sums, the dominant
spherical lattice, and constructor validation."""

import dataclasses
import hashlib
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances_at_rank, small_instances
from sphelim.cfunc import CFactorParams, c_factor_reference, c_oracle, c_value
from sphelim.limits import DirectSystem, classify_scan
from sphelim.rootdata import (
    FAMILIES,
    ORBIT_ALPHA1,
    ORBIT_MIDDLE,
    RestrictedRoot,
    RootSystemType,
    SpaceDatum,
    Weight,
    _f_ints_from_xi,
    _int_fraction,
    build_space,
    fundamental_weights,
    in_lambda_plus,
    iter_root_support,
    lambda_alpha,
    pad_xi_coeffs,
    positive_nonmultipliable_roots,
    rho,
    simple_roots,
    weight_from_xi,
    zero_weight,
)

INSTANCES = small_instances()
IDS = [d.family for d in INSTANCES]


class TestRootSystemType:
    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank >= 4"):
            RootSystemType("D", 3)
        with pytest.raises(ValueError, match="rank >= 1"):
            RootSystemType("A", 0)
        with pytest.raises(ValueError, match="unknown root-system label"):
            RootSystemType("E", 6)

    def test_ambient_dim(self):
        assert RootSystemType("A", 3).ambient_dim == 4
        assert RootSystemType("B", 3).ambient_dim == 3
        assert RootSystemType("C", 1).ambient_dim == 1
        assert RootSystemType("D", 4).ambient_dim == 4


class TestRestrictedRoot:
    def test_dense_coeffs_and_norm(self):
        root = RestrictedRoot(4, ((0, -1), (2, 1)), ORBIT_ALPHA1)
        assert root.coeffs == (-1, 0, 1, 0)
        assert root.norm_sq() == 2
        assert RestrictedRoot(2, ((1, 2),), ORBIT_MIDDLE).norm_sq() == 4

    def test_repr(self):
        assert repr(RestrictedRoot(4, ((0, -1), (2, 1)), ORBIT_ALPHA1)) == (
            "RestrictedRoot(-f1+f3, alpha1_orbit)"
        )
        assert repr(RestrictedRoot(2, ((1, 2),), ORBIT_MIDDLE)) == (
            "RestrictedRoot(2f2, middle)"
        )


class TestCatalog:
    def test_thirteen_rows(self):
        assert len(FAMILIES.values()) == 13
        assert {row.slug for row in FAMILIES.values()} == set(FAMILIES)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_space("klein-bottle", n=3)

    def test_parameter_shape_errors(self):
        with pytest.raises(ValueError, match=r"takes \(p, q\), not n"):
            build_space("grass-real", n=3)
        with pytest.raises(ValueError, match=r"takes n, not \(p, q\)"):
            build_space("group-su", p=1, q=2)
        with pytest.raises(ValueError, match="needs p and q"):
            build_space("grass-complex", p=2)
        with pytest.raises(ValueError, match="needs n"):
            build_space("group-sp")
        with pytest.raises(ValueError, match=r"1 <= p <= q"):
            build_space("grass-quaternion", p=3, q=2)
        with pytest.raises(ValueError, match="fixes p = 1"):
            build_space("rank1-real", p=2, q=3)

    def test_rows_pinned(self):
        # every catalog member at p <= 4, q = p..p+5 and n = min_n..8, as
        # (slug, params, rank, mult_middle, mult_alpha1, mult_half, d); the
        # digest was taken when each row still carried its own callables
        sweep = []
        for fam in FAMILIES.values():
            if fam.param_kind == "pq":
                data = [build_space(fam.slug, p=p, q=q)
                        for p in ([fam.fixed_p] if fam.fixed_p else range(1, 5))
                        for q in range(p, p + 6)]
            else:
                data = [build_space(fam.slug, n=n) for n in range(fam.min_n, 9)]
            sweep += [(d.family, d.params, d.rank, d.mult_middle, d.mult_alpha1,
                       d.mult_half, d.d) for d in data]
        assert len(sweep) == 144
        assert hashlib.sha256(repr(sweep).encode()).hexdigest() == (
            "64104c36beab4117217a95984357e7cf5db429da0e3878ba49260177bd833c0d")

    def test_rows_are_data(self):
        for fam in FAMILIES.values():
            assert not any(callable(getattr(fam, f.name)) for f in dataclasses.fields(fam))
            assert (fam.d is None) != (fam.mults is None)
            assert fam.param_kind == ("n" if fam.d is None else "pq")

    @pytest.mark.parametrize("slug, d", [("grass-real", 1), ("grass-complex", 2),
                                         ("grass-quaternion", 4), ("rank1-real", 1)])
    def test_grassmannian_rule(self, slug, d):
        # p-planes over a field of real dimension d: rank p, and the middle,
        # alpha1 and half multiplicities d, d - 1, d(q - p)
        fam = FAMILIES[slug]
        for p in [fam.fixed_p] if fam.fixed_p else range(1, 5):
            for q in range(p, p + 6):
                datum = build_space(slug, p=p, q=q)
                assert fam.rank_of(p, q) == datum.rank == p
                assert fam.mults_of(p, q) == (d, d - 1, d * (q - p)) == (
                    datum.mult_middle, datum.mult_alpha1, datum.mult_half)
                assert datum.d == d

    def test_single_parameter_rule(self):
        # rank n, n - 1 on type A; the least n is the label's least rank,
        # plus one on type A
        expected_min_n = {"A": 2, "B": 1, "C": 1, "D": 4}
        for fam in FAMILIES.values():
            if fam.d is not None:
                continue
            assert fam.min_n == expected_min_n[fam.psi_label]
            for n in range(fam.min_n, 9):
                datum = build_space(fam.slug, n=n)
                assert fam.rank_of(n) == datum.rank == n - (fam.psi_label == "A")
                assert fam.mults_of(n) == fam.mults == (
                    datum.mult_middle, datum.mult_alpha1, datum.mult_half)

    def test_min_n_bounds(self):
        with pytest.raises(ValueError, match="n >= 2"):
            build_space("group-su", n=1)
        with pytest.raises(ValueError, match="n >= 4"):
            build_space("group-spin-even", n=3)
        with pytest.raises(ValueError, match="n >= 2"):
            build_space("su-over-sp", n=1)

    @pytest.mark.parametrize("family, kwargs, name", [
        ("group-sp", {"n": 3.5}, "n"), ("group-sp", {"n": "3"}, "n"),
        ("grass-real", {"p": 2, "q": 3.5}, "q"), ("grass-real", {"p": 2.0, "q": 3}, "p"),
        ("rank1-real", {"q": Fraction(3)}, "q"), ("rank1-real", {"p": 1.0, "q": 3}, "p")])
    def test_non_integral_parameters(self, family, kwargs, name):
        # refused, not kept as a rank of 3.5 or a multiplicity of 1.5
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build_space(family, **kwargs)

    def test_numpy_integer_parameters(self):
        datum = build_space("grass-real", p=np.int64(2), q=np.int32(4))
        assert datum == build_space("grass-real", p=2, q=4)
        assert [type(v) for _, v in datum.params] == [int, int]

    def test_datum_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SpaceDatum("x", "0", RootSystemType("C", 2), (("n", 2),), -1, 0, 0)
        with pytest.raises(ValueError, match="B/C alpha1 orbit"):
            SpaceDatum("x", "0", RootSystemType("A", 2), (("n", 3),), 1, 1, 1)
        with pytest.raises(ValueError, match="B-pattern.*not supported"):
            SpaceDatum("x", "0", RootSystemType("B", 2), (("n", 2),), 1, 1, 1)

    def test_datum_properties(self):
        datum = build_space("grass-quaternion", p=2, q=4)
        assert datum.rank == 2
        assert datum.grassmannian
        assert datum.d == 4
        assert datum.param("p") == 2 and datum.param("q") == 4
        with pytest.raises(KeyError):
            datum.param("n")
        assert datum.mults_for(ORBIT_ALPHA1) == (3, 8)
        assert datum.mults_for(ORBIT_MIDDLE) == (4, 0)
        assert datum.a == Fraction(2 * 3 + 8, 4)
        assert datum.b == Fraction(4, 2)

    def test_equal_data_hash_equal_and_memos_hit(self):
        """The hash is taken once per datum, over every field, so data built
        apart hash equal, a pickle carries the fields and not the hash
        (string hashes differ between processes), and the memos keyed on a
        datum hit for an equal one built later."""
        first, second = build_space("grass-complex", p=2, q=5), build_space("grass-complex", p=2, q=5)
        assert first is not second and first == second and hash(first) == hash(second)
        assert first._fields() == tuple(getattr(first, f.name)
                                        for f in dataclasses.fields(SpaceDatum))
        pickled = pickle.dumps(first)
        assert b"_hash" not in pickled and pickle.loads(pickled) == first
        moved = dataclasses.replace(first, mult_half=8)
        assert moved != first and hash(moved) == hash(dataclasses.replace(second, mult_half=8))
        rho.cache_clear()
        assert rho(first) is rho(second)
        assert rho.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_rank1_real_alias_matches_grass_real(self):
        alias = build_space("rank1-real", q=6)
        direct = build_space("grass-real", p=1, q=6)
        assert alias.psi == direct.psi
        assert (alias.mult_middle, alias.mult_alpha1, alias.mult_half) == (
            direct.mult_middle, direct.mult_alpha1, direct.mult_half)


def _root_count(psi: RootSystemType) -> int:
    r = psi.rank
    return {"A": r * (r + 1) // 2, "B": r * r, "C": r * r, "D": r * (r - 1)}[psi.label]


@pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
class TestRootEnumeration:
    def test_count_and_lex_order(self, datum):
        roots = positive_nonmultipliable_roots(datum)
        assert len(roots) == _root_count(datum.psi)
        assert [r.coeffs for r in roots] == sorted(r.coeffs for r in roots)
        assert len({r.coeffs for r in roots}) == len(roots)

    def test_streaming_matches_list(self, datum):
        streamed = {(orbit, entries) for orbit, _, entries in iter_root_support(datum.psi)}
        listed = {(r.orbit, r.entries) for r in positive_nonmultipliable_roots(datum)}
        assert streamed == listed

    def test_norms_match_entries(self, datum):
        for orbit, norm_sq, entries in iter_root_support(datum.psi):
            assert norm_sq == sum(v * v for _, v in entries)

    def test_simple_roots_are_roots(self, datum):
        roots = {(r.orbit, r.entries) for r in positive_nonmultipliable_roots(datum)}
        simple = simple_roots(datum)
        assert len(simple) == datum.rank
        for alpha in simple:
            assert (alpha.orbit, alpha.entries) in roots


@pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
def test_duality(datum):
    """<xi_i, alpha_j>/<alpha_j, alpha_j> = delta_ij."""
    weights = fundamental_weights(datum)
    alphas = simple_roots(datum)
    for i, xi in enumerate(weights):
        for j, alpha in enumerate(alphas):
            assert lambda_alpha(xi, alpha) == (1 if i == j else 0)


def test_duality_at_higher_ranks():
    for rank in range(1, 9):
        for datum in instances_at_rank(rank):
            weights = fundamental_weights(datum)
            alphas = simple_roots(datum)
            for i, xi in enumerate(weights):
                for j, alpha in enumerate(alphas):
                    assert lambda_alpha(xi, alpha) == (1 if i == j else 0)


def _brute_force_rho(datum: SpaceDatum) -> tuple[Fraction, ...]:
    """Half the multiplicity-weighted positive-root sum, halves included."""
    n = datum.psi.ambient_dim
    acc = [Fraction(0)] * n
    for orbit, _, entries in iter_root_support(datum.psi):
        m, mh = datum.mults_for(orbit)
        for idx, val in entries:
            acc[idx] += Fraction(m * val, 2) + Fraction(mh * val, 4)
    if datum.psi.label == "A":
        base = acc[0]
        acc = [c - base for c in acc]
    return tuple(acc)


@pytest.mark.parametrize("datum", INSTANCES, ids=IDS)
def test_rho_matches_brute_force(datum):
    assert rho(datum).coeffs_f == _brute_force_rho(datum)


def test_rho_closed_forms():
    # pattern B: rho_j = m_pair*(j-1) + m_short/2      (j = 1..rank)
    # pattern C: rho_j = m_pair*(j-1) + m_long + m_half/2
    # pattern D: rho_j = m*(j-1); pattern A (rebased): rho_j = m*(j-1)
    spin = build_space("group-spin-odd", n=2)
    assert rho(spin).coeffs_f == (Fraction(1), Fraction(3))
    sphere = build_space("rank1-real", q=2)
    assert rho(sphere).coeffs_f == (Fraction(1, 2),)
    grass = build_space("grass-real", p=2, q=3)
    assert rho(grass).coeffs_f == (Fraction(1, 2), Fraction(3, 2))
    su_so = build_space("su-over-so", n=3)
    assert rho(su_so).coeffs_f == (Fraction(0), Fraction(1), Fraction(2))
    sp_u = build_space("sp-over-u", n=4)
    assert rho(sp_u).coeffs_f == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    spin_even = build_space("group-spin-even", n=4)
    assert rho(spin_even).coeffs_f == (Fraction(0), Fraction(2), Fraction(4), Fraction(6))


class TestWeights:
    def test_fundamental_weights_are_integral_units(self):
        for datum in INSTANCES:
            for j, xi in enumerate(fundamental_weights(datum)):
                assert all(c.denominator == 1 for c in xi.coeffs_f)
                assert xi.coeffs_xi == tuple(
                    1 if i == j else 0 for i in range(datum.rank))

    def test_weight_from_xi_round_trip(self):
        datum = build_space("group-sp", n=3)
        w = weight_from_xi(datum, (2, 0, 1))
        assert w.coeffs_xi == (2, 0, 1)
        expected = [Fraction(0)] * 3
        for k, xi in zip((2, 0, 1), fundamental_weights(datum)):
            expected = [e + k * c for e, c in zip(expected, xi.coeffs_f)]
        assert list(w.coeffs_f) == expected

    def test_integer_fraction_memo_stays_bounded(self):
        """weight_from_xi shares one Fraction per integer coordinate from a
        bounded memo: a rank-3,000 weight with 3,000 distinct coordinates
        evicts instead of growing it, and every coordinate is still exact."""
        _int_fraction.cache_clear()
        datum = build_space("group-sp", n=3000)
        xi = (1,) * datum.rank
        w = weight_from_xi(datum, xi)
        assert w.coeffs_f == tuple(Fraction(c) for c in _f_ints_from_xi(datum.psi, xi))
        assert all(type(c) is Fraction for c in w.coeffs_f)
        assert len(set(w.coeffs_f)) == datum.rank
        info = _int_fraction.cache_info()
        assert info.misses == datum.rank and info.currsize == info.maxsize < datum.rank
        small = build_space("group-sp", n=3)
        first, second = weight_from_xi(small, (2, 0, 1)), weight_from_xi(small, (2, 0, 1))
        assert all(a is b for a, b in zip(first.coeffs_f, second.coeffs_f))

    def test_weight_from_xi_length_check(self):
        datum = build_space("group-sp", n=3)
        with pytest.raises(ValueError, match="need 3 coefficients, got 2"):
            weight_from_xi(datum, (1, 1))

    def test_pad_xi_coeffs(self):
        assert pad_xi_coeffs((1, 2), 5) == (1, 2, 0, 0, 0)
        assert pad_xi_coeffs((), 3) == (0, 0, 0)
        assert pad_xi_coeffs((1, 2), 2) == (1, 2)
        with pytest.raises(ValueError, match="cannot pad"):
            pad_xi_coeffs((1, 2, 3), 2)

    def test_zero_weight(self):
        datum = build_space("group-su", n=4)
        z = zero_weight(datum)
        assert z.coeffs_f == (Fraction(0),) * 4
        assert z.coeffs_xi == (0, 0, 0)

    def test_iteration_yields_f_coeffs(self):
        w = Weight((Fraction(1), Fraction(2)))
        assert list(w) == [Fraction(1), Fraction(2)]


class TestLambdaPlus:
    def test_a_pattern_membership(self):
        datum = build_space("su-over-so", n=3)  # A_2 pattern
        assert in_lambda_plus(datum, (0, 1, 3)) is False  # pairing 1/2 with f2-f1
        assert in_lambda_plus(datum, (0, 2, 2)) is True
        assert in_lambda_plus(datum, (0, 2, 4)) is True

    def test_b_pattern_membership(self):
        datum = build_space("group-spin-odd", n=2)
        assert in_lambda_plus(datum, (1, 2)) is False  # f2-f1 pairing is 1/2
        assert in_lambda_plus(datum, (1, 3)) is True
        assert in_lambda_plus(datum, (2, 1)) is False  # f2-f1 pairing negative

    def test_c_pattern_membership(self):
        datum = build_space("sp-over-u", n=2)
        assert in_lambda_plus(datum, (1, 3)) is False  # 2f1 pairing is 1/2
        assert in_lambda_plus(datum, (2, 4)) is True
        assert in_lambda_plus(datum, (-2, 0)) is False  # negative pairing

    def test_fundamental_combinations_are_members(self):
        for datum in INSTANCES:
            w = weight_from_xi(datum, tuple(range(1, datum.rank + 1)))
            assert in_lambda_plus(datum, w)

    def test_weight_input_accepted(self):
        datum = build_space("group-sp", n=2)
        assert in_lambda_plus(datum, weight_from_xi(datum, (1, 1)))

    def test_length_mismatch_rejected(self):
        datum = build_space("group-sp", n=2)
        with pytest.raises(ValueError, match="expected 2 f-coefficients"):
            in_lambda_plus(datum, (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(INSTANCES) - 1),
    data=st.data(),
)
def test_lambda_plus_closed_under_addition(index, data):
    datum = INSTANCES[index]
    coeff = st.lists(st.integers(min_value=0, max_value=5),
                     min_size=datum.rank, max_size=datum.rank)
    u = weight_from_xi(datum, data.draw(coeff))
    v = weight_from_xi(datum, data.draw(coeff))
    total = tuple(a + b for a, b in zip(u.coeffs_f, v.coeffs_f))
    assert in_lambda_plus(datum, u)
    assert in_lambda_plus(datum, v)
    assert in_lambda_plus(datum, total)


_SP2 = build_space("group-sp", n=2)


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), np.float64(1.9), "1"], ids=repr)
@pytest.mark.parametrize("call, name", [
    (lambda bad: c_value(_SP2, (bad, 0)), "coefficient 0"),
    (lambda bad: c_oracle(_SP2, (0, bad)), "coefficient 1"),
    (lambda bad: weight_from_xi(_SP2, (bad, 0)), "coefficient 0"),
    (lambda bad: DirectSystem("group-su", (1, bad)), "coefficient 1"),
    (lambda bad: pad_xi_coeffs((bad,), 3), "coefficient 0"),
    (lambda bad: CFactorParams.from_multiplicities(bad, 2, 1, 0), "mu_alpha"),
    (lambda bad: CFactorParams.from_multiplicities(1, Fraction(1), bad, 0), "m_alpha"),
    (lambda bad: CFactorParams.from_multiplicities(1, Fraction(1), 1, bad), "m_half"),
    (lambda bad: CFactorParams(bad, Fraction(1), Fraction(1, 2), Fraction(1, 2)), "mu_alpha"),
    (lambda bad: DirectSystem("grass-real", (1, 1), fixed_p=bad), "fixed_p"),
    (lambda bad: classify_scan(DirectSystem("group-su", (1,)), bad), "max_level"),
    (lambda bad: classify_scan(DirectSystem("group-su", (1,)), 8, batch=bad), "batch"),
], ids=["c_value", "c_oracle", "weight_from_xi", "DirectSystem", "pad_xi_coeffs",
        "from_multiplicities", "m_alpha", "m_half", "CFactorParams", "fixed_p", "max_level",
        "batch"])
def test_non_integral_coefficient_is_refused(call, name, bad):
    # one rule (rootdata._as_int): refused and named, not truncated
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), "1/2", None], ids=repr)
@pytest.mark.parametrize("name", ["rho_alpha", "x_alpha", "y_alpha"])
def test_non_rational_factor_parameter_is_refused(name, bad):
    # refused and named, not left to fail inside c_factor_reference
    fields = {"mu_alpha": 1, "rho_alpha": Fraction(1), "x_alpha": Fraction(1, 2),
              "y_alpha": Fraction(1, 2)} | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be a rational number, got "
                                         f"{re.escape(repr(bad))}$"):
        CFactorParams(**fields)


def test_rational_factor_parameters_become_fractions():
    params = CFactorParams(np.int64(1), 1, Fraction(1, 2), Fraction(1, 2))
    assert params == CFactorParams(1, Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert [type(v) for v in (params.mu_alpha, params.rho_alpha)] == [int, Fraction]
    assert c_factor_reference(params) == Fraction(2, 3)
