"""Direct systems along growing spaces: exact overlap sequences, the chain
table, divergence certificates, and the limit classifier."""

import dataclasses
import hashlib
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import chain_table_by_terms, fold_by_steps, inverse_weyl_dimension, jack_at_ones

from sphelim import cfunc, limits, rootdata
from sphelim.cfunc import CFactorParams, _root_factor, c_value
from sphelim.cli import to_jsonable
from sphelim.limits import (
    MODE_FINITE,
    MODE_INFINITE,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    CSequence,
    DirectSystem,
    c_sequence,
    classify,
    classify_scan,
    datum_at_level,
    divergence_certificate,
    propagate,
)
from sphelim.rootdata import (
    FAMILIES,
    _f_ints_from_xi,
    build_space,
    positive_nonmultipliable_roots,
    rho,
)
from sphelim.sphere import limit_zonal, planar_rotation, zonal_eval

INFINITE_FAMILIES = ("group-su", "group-spin-odd", "group-spin-even", "group-sp",
                     "su-over-so", "su-over-sp", "so-over-u-even", "so-over-u-odd",
                     "sp-over-u")
FINITE_FAMILIES = ("grass-real", "grass-complex", "grass-quaternion")


@pytest.fixture(autouse=True)
def _fresh_chain_tables():
    # each test reads its chains' tables itself, so a monkeypatched space or
    # a build count sees them, whatever ran before it
    limits._chain_table.cache_clear()


class TestDirectSystem:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown family"):
            DirectSystem("nope", (1,))
        with pytest.raises(ValueError, match="nonnegative"):
            DirectSystem("group-su", (-1,))
        with pytest.raises(ValueError, match="needs fixed_p"):
            DirectSystem("grass-real", (1, 1))
        with pytest.raises(ValueError, match="fixes p = 1"):
            DirectSystem("rank1-real", (1, 0), fixed_p=2)
        with pytest.raises(ValueError, match="exactly p = 2"):
            DirectSystem("grass-complex", (1,), fixed_p=2)
        with pytest.raises(ValueError, match="fixed_p does not apply"):
            DirectSystem("group-su", (1,), fixed_p=1)
        with pytest.raises(ValueError, match="at least one"):
            DirectSystem("group-su", ())
        with pytest.raises(ValueError, match="no member of rank 3"):
            DirectSystem("group-spin-even", (0, 0, 1))

    @pytest.mark.parametrize("family, coeffs", [("grass-real", ()), ("grass-complex", ()),
                                                ("rank1-real", (1,))])
    @pytest.mark.parametrize("fixed_p", [0, -1])
    def test_fixed_p_below_one_is_refused(self, family, coeffs, fixed_p):
        # refused when the system is built, not when its scan builds a space
        match = ("fixes p = 1" if family == "rank1-real"
                 else f"^fixed_p must be at least 1, got {fixed_p}$")
        with pytest.raises(ValueError, match=match):
            DirectSystem(family, coeffs, fixed_p=fixed_p)

    def test_numpy_integer_fixed_p(self):
        system = DirectSystem("grass-real", (1, 1), fixed_p=np.int64(2))
        assert system == DirectSystem("grass-real", (1, 1), fixed_p=2)
        assert type(system.fixed_p) is int

    @pytest.mark.parametrize("family", INFINITE_FAMILIES)
    def test_n_for_rank_inverts_the_rank_rule(self, family):
        # the closed form finds the one n whose rank is the level, or names
        # the rank no member has
        fam = FAMILIES[family]
        for rank in range(9):
            members = [n for n in range(fam.min_n, 11) if fam.rank_of(n) == rank]
            if members:
                assert [fam.n_for_rank(rank)] == members
                assert datum_at_level(DirectSystem(family, (1,) * rank), rank).rank == rank
            else:
                with pytest.raises(ValueError, match=f"has no member of rank {rank}$"):
                    fam.n_for_rank(rank)

    def test_modes_and_base_level(self):
        finite = DirectSystem("grass-quaternion", (1, 0), fixed_p=2)
        assert finite.mode == MODE_FINITE
        assert finite.base_level == 2
        assert not finite.trivial
        infinite = DirectSystem("group-sp", (0, 0, 0))
        assert infinite.mode == MODE_INFINITE
        assert infinite.base_level == 3
        assert infinite.trivial

    def test_rank1_real_auto_p(self):
        system = DirectSystem("rank1-real", (1,))
        assert system.fixed_p == 1
        assert system.mode == MODE_FINITE


class TestPropagation:
    def test_below_base_level(self):
        system = DirectSystem("group-su", (0, 1))
        with pytest.raises(ValueError, match="below the base level"):
            propagate(system, 1)

    def test_finite_mode_keeps_coefficients(self):
        system = DirectSystem("grass-real", (2, 1), fixed_p=2)
        datum, w = propagate(system, 7)
        assert datum.param("q") == 7 and datum.rank == 2
        assert w.coeffs_xi == (2, 1)

    def test_infinite_mode_pads(self):
        system = DirectSystem("group-su", (1,))
        datum, w = propagate(system, 5)
        assert datum.rank == 5
        assert w.coeffs_xi == (1, 0, 0, 0, 0)
        assert datum_at_level(system, 5).param("n") == 6


class TestCSequenceConstruction:
    def test_sort_and_dedup(self):
        system = DirectSystem("rank1-real", (1,))
        seq = c_sequence(system, [5, 3, 3, 4])
        assert seq.levels == (3, 4, 5)
        assert seq.values == (Fraction(1, 3), Fraction(5, 16), Fraction(3, 10))
        assert seq.last() == (5, Fraction(3, 10))

    def test_level_validation(self):
        system = DirectSystem("rank1-real", (1,))
        with pytest.raises(ValueError, match="at least one level"):
            c_sequence(system, [])
        with pytest.raises(ValueError, match="at least one level"):
            c_sequence(system, (lv for lv in ()))
        with pytest.raises(ValueError, match="below the base level"):
            c_sequence(DirectSystem("group-su", (0, 1)), [1, 2])
        with pytest.raises(ValueError, match="below the base level"):
            c_sequence(DirectSystem("grass-real", (1, 1, 1), fixed_p=3), [5, 2])

    def test_extended_merges_and_skips_duplicates(self):
        system = DirectSystem("rank1-real", (1,))
        seq = c_sequence(system, [2, 4])
        same = seq.extended([2, 4])
        assert same is seq
        merged = seq.extended([3])
        assert merged.levels == (2, 3, 4)
        assert merged.values[1] == Fraction(1, 3)

    def test_extended_deduplicates_fresh_levels(self):
        seq = c_sequence(DirectSystem("group-su", (1,)), [1, 2]).extended([3, 3])
        assert seq.levels == (1, 2, 3)
        assert seq.values == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))

    def test_non_integral_levels_are_refused(self):
        system = DirectSystem("group-su", (1,))
        with pytest.raises(ValueError, match="level 1 must be an integer, got 2.5"):
            c_sequence(system, [1, 2.5])

    def test_extended_rejects_levels_below_base(self):
        seq = c_sequence(DirectSystem("group-su", (0, 1)), [2, 3])
        with pytest.raises(ValueError, match="below the base level"):
            seq.extended([1])

    @pytest.mark.parametrize("system", [DirectSystem("group-sp", (0, 1, 0, 2)),
                                        DirectSystem("so-over-u-odd", (0, 1)),
                                        DirectSystem("grass-complex", (2, 1), fixed_p=2)],
                             ids=lambda s: s.family)
    def test_extended_at_sparse_levels_is_c_value(self, system):
        # fresh levels below, between and above the held ones
        base = system.base_level
        seq = c_sequence(system, [base + 5, base + 40])
        seq = seq.extended([base + 57, base + 3, base + 21, base + 90])
        seq = seq.extended([base + 41, base])
        want = (0, 3, 5, 21, 40, 41, 57, 90)
        assert seq.levels == tuple(base + d for d in want)
        assert seq.values == tuple(c_value(*propagate(system, lv)) for lv in seq.levels)

    def test_one_level_extension_folds_from_the_base(self):
        # one fold: the extension reads the union from the base, so the held
        # values stay and the new top is the held top times one step ratio
        system = DirectSystem("group-sp", (0, 1, 0, 2))
        base = system.base_level
        seq = c_sequence(system, range(base, 2001))
        longer = seq.extended([2001])
        assert longer.values[:-1] == seq.values
        _, forms = limits._chain_table(system)
        assert longer.last() == (2001, seq.values[-1] * limits._evaluate(forms, 2000 - base))
        assert longer.values == fold_by_steps(system, longer.levels)


def _deep_chains() -> list[DirectSystem]:
    """The benchmark's deep chains: each infinite-rank family's first three
    fundamental weights, padded to its smallest rank."""
    chains = []
    for family in INFINITE_FAMILIES:
        fam = FAMILIES[family]
        base = min(fam.rank_of(n) for n in (fam.min_n, fam.min_n + 1))
        for j in range(3):
            coeffs = [0] * max(base, j + 1)
            coeffs[j] = 1
            chains.append(DirectSystem(family, tuple(coeffs)))
    return chains


DEEP_CHAINS = _deep_chains()


class TestFoldBySteps:
    """``c_sequence`` folds the step ratios over ranges; it equals the fold
    that evaluates the table once a step (``helpers.fold_by_steps``)."""

    @pytest.mark.parametrize("system", DEEP_CHAINS,
                             ids=lambda s: f"{s.family}-{''.join(map(str, s.base_coeffs))}")
    def test_deep_chains_to_level_54(self, system):
        levels = range(system.base_level, 55)
        assert c_sequence(system, levels).values == fold_by_steps(system, levels)

    def test_deep_chains_include_constant_ratios(self):
        # a table with no forms has a constant step ratio: its products are
        # the bare repeats of C_n and C_d
        constant = {(s.family, s.base_coeffs) for s in DEEP_CHAINS
                    if not any(limits._chain_table(s)[1][2:])}
        assert constant == {("group-spin-odd", (1,)), ("group-spin-even", (1, 0, 0, 0)),
                            ("group-spin-even", (0, 1, 0, 0))}

    def test_sparse_levels(self):
        system = DirectSystem("group-sp", (0, 1, 0, 2))
        levels = (4, 5, 97, 1000, 3000)
        assert system.base_level == 4
        assert c_sequence(system, levels).values == fold_by_steps(system, levels)

    def test_one_level_at_the_base(self):
        system = DirectSystem("so-over-u-even", (1, 2, 1))
        base = system.base_level
        want = fold_by_steps(system, [base])
        assert c_sequence(system, [base]).values == want == (c_value(*propagate(system, base)),)


class TestRankOneChain:
    def test_exact_values(self):
        system = DirectSystem("rank1-real", (1,))
        seq = c_sequence(system, range(1, 6))
        assert seq.values == (Fraction(1), Fraction(3, 8), Fraction(1, 3),
                              Fraction(5, 16), Fraction(3, 10))

    def test_classifies_to_one_quarter(self):
        system = DirectSystem("rank1-real", (1,))
        seq, report = classify_scan(system, max_level=150)
        assert report.verdict == VERDICT_POSITIVE
        assert report.limit_estimate == 0.25
        assert report.evidence["limit"] == Fraction(1, 4)
        assert seq.levels == tuple(range(1, 26))  # decided at the first batch

    def test_short_scan_decides(self):
        # the limit is exact, so a finite-rank sequence is never Undecided;
        # c(1) = 1, but the weight is not trivial, so the limit is still 1/4
        for levels in ([1], range(1, 5), [7, 10 ** 6]):
            report = classify(c_sequence(DirectSystem("rank1-real", (1,)), levels))
            assert report.verdict == VERDICT_POSITIVE
            assert report.evidence["limit"] == Fraction(1, 4)
            assert report.limit_estimate == 0.25
            assert "constant_one" not in report.evidence

    @pytest.mark.parametrize("k", [40, 600])
    def test_limit_of_a_high_weight(self, k):
        # the limit 4^-k is exact at any k; at k = 600 its float underflows
        seq, report = classify_scan(DirectSystem("rank1-real", (k,)), max_level=20000)
        assert report.verdict == VERDICT_POSITIVE
        assert report.evidence["limit"] == Fraction(1, 4 ** k)
        assert report.limit_estimate == float(Fraction(1, 4 ** k))
        assert (report.limit_estimate == 0.0) == (k == 600)
        assert seq.levels[-1] == 25

    def test_values_are_leading_zonal_coefficients(self):
        """The bridge to the zonal side: c(k xi_1) on the q-sphere is the
        leading t-coefficient of R_2k over 4^k, with R run through the
        three-term recurrence of ``sphere`` in Fractions.  Levels q >= 2
        come from the Grassmannian table, which shares no code with this."""
        cases = 0
        for k in range(9):
            seq = c_sequence(DirectSystem("rank1-real", (k,)), range(2, 41))
            for q, value in zip(seq.levels, seq.values):
                assert value == _zonal_coefficients(q, 2 * k)[-1] / 4 ** k, (q, k)
                cases += 1
        assert cases == 351
        # the Fraction recurrence is the one sphere evaluates in floats
        for n, k, t in ((2, 4, 0.3), (5, 6, -0.7), (40, 16, 0.9)):
            poly = _zonal_coefficients(n, k)
            assert math.fsum(float(c) * t ** d for d, c in enumerate(poly)) == pytest.approx(
                zonal_eval(n, k, t), rel=1e-12, abs=1e-15)

    def test_phi_infinity_is_the_limit_of_phi_n(self):
        """The paper's phi_oo = lim phi_n in rank one, on the spheres S^q at
        the rotation x by theta = 0.9: the zonal function R_2k^(q)(cos theta)
        tends to limit_zonal(2k, x) = cos(theta)^2k, and the overlap constant
        c(q) to its limit 4^-k, both at the rate 1/q; q (4^k c(q) - 1) tends
        to k(2k - 1), the real p = 1 case of the Jacobi rate."""
        theta = 0.9
        x = planar_rotation(3, theta)
        for k in range(6):
            seq = c_sequence(DirectSystem("rank1-real", (k,)), (1000, 10000))
            zonal_gaps = [abs(zonal_eval(q, 2 * k, math.cos(theta)) - limit_zonal(2 * k, x))
                          for q in seq.levels]
            overlap_gaps = [4 ** k * value - 1 for value in seq.values]
            rate_gaps = [abs(q * gap - k * (2 * k - 1))
                         for q, gap in zip(seq.levels, overlap_gaps)]
            if k == 0:
                assert zonal_gaps == [0.0, 0.0] and overlap_gaps == [0, 0]
                continue
            for near, far in (zonal_gaps, overlap_gaps, rate_gaps):
                assert 8 * far <= near, k
            assert overlap_gaps[1] > 0


def _zonal_coefficients(n, k):
    """t-coefficients of the degree-k zonal polynomial R_k on the n-sphere,
    exactly: (i + n - 1) R_{i+1} = (2i + n - 1) t R_i - i R_{i-1}."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if k == 0:
        return prev
    for i in range(1, k):
        step = [Fraction(0)] + [(2 * i + n - 1) * c for c in cur]
        for d, c in enumerate(prev):
            step[d] -= i * c
        prev, cur = cur, [c / (i + n - 1) for c in step]
    return cur


class TestInfiniteChains:
    def test_a_type_values_and_certificate(self):
        # c = 1/(r+1), so c(n+1)/c(n) = (n+1)/(n+2) = 1 - 1/n + O(n^-2): the
        # step ratio tends to 1 with kappa = 1, and from level 2 on it is at
        # most 1 - 1/(2n); the Cauchy bound gives level 3
        for family in ("group-su", "su-over-so", "su-over-sp"):
            system = DirectSystem(family, (1,))
            seq = c_sequence(system, range(1, 30))
            assert seq.values == tuple(Fraction(1, r + 1) for r in range(1, 30))
            report = classify(seq)
            assert report.verdict == VERDICT_ZERO
            assert report.evidence["certificate"] == {
                "ratio_limit": 1, "kappa": 1, "from_level": 3}

    def test_sp_over_u_chain(self):
        system = DirectSystem("sp-over-u", (1,))
        seq = c_sequence(system, range(1, 12))
        assert seq.values[3] == Fraction(5, 128)  # level 4
        report = classify(seq)
        assert report.verdict == VERDICT_ZERO
        cert = report.evidence["certificate"]
        assert cert["ratio_limit"] == Fraction(1, 4)
        assert cert["ratio_bound"] == Fraction(5, 8)

    @pytest.mark.parametrize("family", INFINITE_FAMILIES)
    def test_every_infinite_family_decays(self, family):
        base = (0, 1, 0, 0) if family == "group-spin-even" else (0, 1)
        system = DirectSystem(family, base)
        seq, report = classify_scan(system, max_level=80)
        assert report.verdict == VERDICT_ZERO
        assert report.limit_estimate == 0.0
        assert seq.values[-1] < seq.values[0]

    def test_certificate_reads_only_the_chain(self):
        # the certificate comes from the chain's table, so sparse levels give
        # the one a contiguous scan gives
        system = DirectSystem("group-su", (1,))
        sparse = classify(c_sequence(system, [1, 2, 3, 5, 8, 13, 21]))
        contiguous = classify_scan(system, 21)[1]
        assert sparse.verdict == contiguous.verdict == VERDICT_ZERO
        assert sparse.evidence["certificate"] == contiguous.evidence["certificate"]

    def test_fold_refuses_a_level_that_does_not_extend_the_one_below(self, monkeypatch):
        # a middle multiplicity that grows with n changes the roots below the
        # new row; every level is still a valid space, but the table must
        # raise rather than read its step ratio from the new row
        real = limits.datum_at_level
        monkeypatch.setattr(limits, "datum_at_level", lambda system, level: dataclasses.replace(
            real(system, level), mult_middle=level))  # level n is the rank n
        system = DirectSystem("group-sp", (1,))
        c_value(*propagate(system, 5))
        with pytest.raises(ArithmeticError, match="internal error: level 2 does not extend"):
            c_sequence(system, range(1, 6))
        with pytest.raises(ArithmeticError, match="internal error: level 2 does not extend"):
            classify_scan(system, 10)

    def test_one_level_decides(self):
        # the verdict reads the chain's table, not the values, so a single
        # level decides ZeroLimit
        report = classify(c_sequence(DirectSystem("group-su", (1,)), [1]))
        assert report.verdict == VERDICT_ZERO
        assert report.limit_estimate == 0.0
        assert report.evidence["certificate"]["kappa"] == 1


def _first_weight_systems():
    """Each infinite-rank family with each of its first three fundamental
    weights, padded to the family's smallest rank."""
    out = []
    for family in INFINITE_FAMILIES:
        fam = FAMILIES[family]
        base = min(fam.rank_of(n) for n in (fam.min_n, fam.min_n + 1))
        for j in range(3):
            coeffs = [0] * max(base, j + 1)
            coeffs[j] = 1
            out.append(DirectSystem(family, tuple(coeffs)))
    return out


FIRST_WEIGHT_SYSTEMS = _first_weight_systems()
FIRST_WEIGHT_IDS = [f"{s.family}{s.base_coeffs}" for s in FIRST_WEIGHT_SYSTEMS]


def _seeded_weight_systems():
    """Each infinite-rank family with one seeded weight (digits 0..2) of
    length its smallest rank or 3, whichever is larger."""
    rng = random.Random(20261019)
    out = []
    for family in INFINITE_FAMILIES:
        fam = FAMILIES[family]
        base = min(fam.rank_of(n) for n in (fam.min_n, fam.min_n + 1))
        out.append(DirectSystem(family, tuple(rng.randrange(3) for _ in range(max(base, 3)))))
    return out


# the 9 infinite-rank families with xi_1, xi_2, xi_3 and one seeded weight
ROW_SYSTEMS = FIRST_WEIGHT_SYSTEMS + _seeded_weight_systems()
ROW_IDS = [f"{s.family}{s.base_coeffs}" for s in ROW_SYSTEMS]
ROW_TOP = 300

# finite-rank chains: q = p is one whole product, and every level above it
# comes from the chain's table of linear forms in q
FOLD_SYSTEMS = FIRST_WEIGHT_SYSTEMS + [
    DirectSystem(family, (1,) * p, fixed_p=p)
    for family in FINITE_FAMILIES for p in (1, 2, 3)
] + [DirectSystem("rank1-real", (1,))]
FOLD_IDS = [f"{s.family}{s.base_coeffs}" for s in FOLD_SYSTEMS]
FOLD_TOP = 30


def _from_scratch(system, levels):
    return tuple(c_value(*propagate(system, level)) for level in levels)


def _patch_forms(monkeypatch, wrong):
    """Make every chain table's forms (C_n, C_d, num, den) wrong(*forms)."""
    real_table = limits._chain_table

    def patched(system):
        value, forms = real_table(system)
        return value, wrong(*forms)

    monkeypatch.setattr(limits, "_chain_table", patched)


class TestIncrementalFold:
    """Every chain is folded serially from the level below; every path into
    the fold must give the from-scratch values."""

    @pytest.mark.parametrize("system", FOLD_SYSTEMS, ids=FOLD_IDS)
    def test_contiguous_levels_match_from_scratch(self, system):
        levels = range(system.base_level, FOLD_TOP + 1)
        assert c_sequence(system, levels).values == _from_scratch(system, levels)

    @pytest.mark.parametrize("system", FOLD_SYSTEMS, ids=FOLD_IDS)
    def test_scans_agree_over_batch(self, system):
        for batch in (1, 7, FOLD_TOP):
            seq, report = classify_scan(system, FOLD_TOP, batch=batch)
            assert seq.values == _from_scratch(system, seq.levels)
            assert report.evidence == classify(c_sequence(system, seq.levels)).evidence

    @pytest.mark.parametrize("system", FOLD_SYSTEMS, ids=FOLD_IDS)
    def test_noncontiguous_levels_match_from_scratch(self, system):
        levels = (max(3, system.base_level), 10, 25)
        seq = c_sequence(system, levels)
        assert seq.levels == levels
        assert seq.values == _from_scratch(system, levels)

    def test_extended_between_known_levels(self):
        system = DirectSystem("group-sp", (1, 1))
        seq = c_sequence(system, [2, 6]).extended([3, 9])
        assert seq.levels == (2, 3, 6, 9)
        assert seq.values == _from_scratch(system, seq.levels)
        seq = seq.extended([8, 4, 20])
        assert seq.values == _from_scratch(system, seq.levels)

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=ROW_IDS)
    def test_sparse_levels_match_c_value(self, system):
        b = system.base_level
        levels = sorted({b, b + 1, b + 5, 40, 41, ROW_TOP})
        seq = c_sequence(system, levels)
        assert seq.values == _from_scratch(system, levels)
        # a fold that starts above the base level, between known levels
        assert c_sequence(system, levels[:2]).extended(levels[2:]).values == seq.values

    def test_evidence_pinned(self):
        # verdicts and evidence of contiguous scans at three batch sizes and of
        # one sparse sequence per chain.  Re-pinned when the certificate came
        # to read the chain's step-ratio table: the evidence carries that
        # certificate and no floor, a batch-1 scan decides at its base level,
        # and sp-over-u (1,) at batch 1 is ZeroLimit, not constant one; every
        # other verdict and estimate is unchanged.  It must not move
        reports = []
        for system in FIRST_WEIGHT_SYSTEMS:
            reports += [classify_scan(system, 40, batch=b)[1] for b in (1, 7, 40)]
            reports.append(classify(c_sequence(system, (max(3, system.base_level), 10, 25))))
        blob = json.dumps(to_jsonable([[r.verdict, r.limit_estimate, r.evidence]
                                       for r in reports]), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "9297f88c2d733bc4cfa660243b8db5fba78b54339f5a35b3c54165e470e25f9a")


# every infinite-rank chain of the step table and every finite-rank fold chain
SCAN_SYSTEMS = ROW_SYSTEMS + [s for s in FOLD_SYSTEMS if s.mode == MODE_FINITE]


class TestOneScanPath:
    """A scan is ``c_sequence`` at its levels, then ``classify``, over one
    memoized table per chain."""

    @pytest.mark.parametrize("batch", [1, 7, 25])
    @pytest.mark.parametrize("system", SCAN_SYSTEMS,
                             ids=[f"{s.family}{s.base_coeffs}" for s in SCAN_SYSTEMS])
    def test_scan_is_c_sequence_then_classify(self, system, batch):
        seq, report = classify_scan(system, ROW_TOP, batch=batch)
        limits._chain_table.cache_clear()  # the other route reads its own table
        base = system.base_level
        want = c_sequence(system, range(base, base + batch))
        verdict = classify(want)
        assert seq == want
        assert report == verdict
        assert report.evidence == verdict.evidence  # not compared by ==

    @pytest.mark.parametrize("system", [DirectSystem("grass-quaternion", (1, 0, 2), fixed_p=3),
                                        DirectSystem("group-sp", (0, 1, 0, 2))],
                             ids=["grass-quaternion", "group-sp"])
    def test_a_chain_is_read_once(self, monkeypatch, system):
        # the scan builds the table's four spaces; its verdict, an extension,
        # the exact limit and a second scan of an equal system build none
        real_build, calls = limits.build_space, [0]

        def counting_build(*args, **kwargs):
            calls[0] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(limits, "build_space", counting_build)
        seq, report = classify_scan(system, 2000, batch=40)
        assert calls[0] == 4
        calls[0] = 0
        assert classify(seq).evidence == report.evidence
        top = seq.levels[-1]
        assert seq.extended([top + 1]).levels[-1] == top + 1
        if system.mode == MODE_FINITE:
            assert limits.exact_limit(system) == report.evidence["limit"]
        again = DirectSystem(system.family, system.base_coeffs, system.fixed_p)
        assert classify_scan(again, 2000, batch=40) == (seq, report)
        assert calls[0] == 0
        # the shared table is tuples of integers, so no reader can change it
        value, forms = limits._chain_table(system)
        const_num, const_den, num, den = forms
        assert type(value) is Fraction and type(forms) is tuple
        assert type(const_num) is int and type(const_den) is int
        assert type(num) is tuple and type(den) is tuple and num and den
        assert all(type(form) is tuple and [type(v) for v in form] == [int, int]
                   for form in num + den)


# the chains whose values are 1/dim V on the group spaces G x G / G
GROUP_SYSTEMS = [s for s in ROW_SYSTEMS
                 if s.family in ("group-su", "group-spin-odd", "group-spin-even", "group-sp")]
TYPE_A = ("group-su", "su-over-so", "su-over-sp")


def _step(forms, t):
    """The step ratio c(b+t+1)/c(b+t) from a table's forms, by hand."""
    const_num, const_den, num, den = forms
    return Fraction(const_num * math.prod(a * t + b for a, b in num),
                    const_den * math.prod(c * t + d for c, d in den))


class TestStepTable:
    """On an infinite-rank chain the table holds c(b) and the step ratio
    R(n) = c(n+1)/c(n) as one rational function of n; the verdict reads its
    leading terms."""

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=ROW_IDS)
    def test_steps_give_the_values(self, system):
        # c(n) R(n) = c(n+1) up to level 300, against c_value from scratch at
        # sparse levels, and the fold gives the same products
        b = system.base_level
        value, forms = limits._chain_table(system)
        assert value == c_value(*propagate(system, b))
        sparse = {b + 1, b + 2, b + 5, 40, 41, ROW_TOP}
        values = [value]
        for n in range(b, ROW_TOP):
            values.append(values[-1] * _step(forms, n - b))
            if n + 1 in sparse:
                assert values[-1] == c_value(*propagate(system, n + 1)), n + 1
        assert c_sequence(system, range(b, ROW_TOP + 1)).values == tuple(values)

    @pytest.mark.parametrize("system", GROUP_SYSTEMS,
                             ids=[f"{s.family}{s.base_coeffs}" for s in GROUP_SYSTEMS])
    def test_group_values_are_inverse_weyl_dimensions(self, system):
        # on G x G / G the overlap is 1/dim V (tests/helpers.py), at every
        # level to 40 and at two deep ones
        levels = [*range(system.base_level, 41), 150, ROW_TOP]
        for level, value in zip(levels, c_sequence(system, levels).values, strict=True):
            datum, weight = propagate(system, level)
            assert value == inverse_weyl_dimension(datum.psi.label, weight.coeffs_f), level

    @pytest.mark.parametrize("system", FIRST_WEIGHT_SYSTEMS, ids=FIRST_WEIGHT_IDS)
    def test_ratio_limit_and_kappa(self, system):
        # type A: c = 1/C(r+1, k) at xi_k, so R(n) -> 1 with kappa = k.
        # B, C, D: geometric decay, 1/2 on the spin representations (dim
        # 2^n up to a constant) and 1/4 elsewhere (Catalan-like growth)
        k = next(i + 1 for i, c in enumerate(system.base_coeffs) if c)
        cert = classify_scan(system, 40)[1].evidence["certificate"]
        if system.family in TYPE_A:
            assert (cert["ratio_limit"], cert["kappa"]) == (1, k)
        else:
            spin = (system.family, k) in {("group-spin-odd", 1), ("group-spin-even", 1),
                                          ("group-spin-even", 2)}
            assert cert["ratio_limit"] == Fraction(1, 2 if spin else 4)
            assert cert["ratio_bound"] == (1 + cert["ratio_limit"]) / 2

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=ROW_IDS)
    def test_certificate_inequality_holds(self, system):
        # from the certificate's level N on, every step ratio is at most r,
        # or at most 1 - kappa/(2n).  Where N is at most 300 the exact ratios
        # c(n+1)/c(n) are checked from N to 300; on the three deep chains
        # (test_deep_certificates) the table's ratio, which equals the exact
        # one to level 300 (test_steps_give_the_values), from N to N + 300
        cert = classify_scan(system, 40)[1].evidence["certificate"]
        n0 = cert["from_level"]
        if n0 <= ROW_TOP:
            seq = c_sequence(system, range(n0, ROW_TOP + 1))
            ratios = [(n, high / low) for n, low, high
                      in zip(seq.levels, seq.values, seq.values[1:])]
        else:
            forms = limits._chain_table(system)[1]
            b = system.base_level
            ratios = [(n, _step(forms, n - b)) for n in range(n0, n0 + ROW_TOP)]
        assert ratios
        for n, ratio in ratios:
            bound = cert.get("ratio_bound") or 1 - cert["kappa"] / (2 * n)
            assert ratio <= bound, n

    def test_deep_certificates(self):
        # N exceeds 300 on exactly three chains, whose small limits 1/512,
        # 1/256 and 1/64 put N at 57,555, 2,195 and 665
        deep = {}
        for system, name in zip(ROW_SYSTEMS, ROW_IDS):
            cert = classify_scan(system, 40)[1].evidence["certificate"]
            if cert["from_level"] > ROW_TOP:
                deep[name] = (cert["ratio_limit"], cert["from_level"])
        assert deep == {
            "group-spin-even(2, 1, 1, 2)": (Fraction(1, 512), 57555),
            "so-over-u-even(1, 2, 1)": (Fraction(1, 256), 2195),
            "sp-over-u(2, 1, 0)": (Fraction(1, 64), 665),
        }

    @pytest.mark.parametrize("wrong, error", [
        (lambda cn, cd, num, den: (cn, cd, (*num, (1, 1)), den), "degree [0-9]+ over [0-9]+"),
        (lambda cn, cd, num, den: (10 ** 6 * cn, cd, num, den), "tends to [0-9]+ "),
        (lambda cn, cd, num, den: (cn, cn, num, num), "tends to 1 with kappa 0"),
    ], ids=["unequal-degrees", "ratio-above-one", "kappa-zero"])
    @pytest.mark.parametrize("system", [DirectSystem("group-su", (1,)),
                                        DirectSystem("group-sp", (1,))],
                             ids=["group-su", "group-sp"])
    def test_a_wrong_table_raises(self, monkeypatch, system, wrong, error):
        # a step ratio that does not make c tend to 0 contradicts the paper's
        # theorem: the verdict must raise, not report a limit
        seq = c_sequence(system, range(1, 40))
        _patch_forms(monkeypatch, wrong)
        with pytest.raises(ArithmeticError, match=f"internal error: .*({error})"):
            classify(seq)
        with pytest.raises(ArithmeticError, match=f"internal error: .*({error})"):
            classify_scan(system, max_level=1)  # the base level is not a step


def _table_systems():
    """Six seeded weights (digits 0..3) on every Grassmannian field at
    p = 1..6, and on rank1-real."""
    rng = random.Random(20260418)
    chains = [(family, p) for family in FINITE_FAMILIES for p in range(1, 7)]
    chains.append(("rank1-real", 1))
    return [DirectSystem(family, tuple(rng.randrange(4) for _ in range(p)), fixed_p=p)
            for family, p in chains for _ in range(6)]


TABLE_SYSTEMS = _table_systems()


def _jack_systems():
    """Six seeded weights (digits 0..2) on every Grassmannian field at
    p = 1..6."""
    rng = random.Random(20261020)
    return [DirectSystem(family, tuple(rng.randrange(3) for _ in range(p)), fixed_p=p)
            for family in FINITE_FAMILIES for p in range(1, 7) for _ in range(6)]


JACK_SYSTEMS = _jack_systems()


# the chains of the benchmark's stable_chain workload: the all-ones weight on
# every field at p = 1..6
STABLE_SYSTEMS = [DirectSystem(family, (1,) * p, fixed_p=p)
                  for family in FINITE_FAMILIES for p in range(1, 7)]


def _jack_limit(system):
    """4^-|lambda| / P_lambda^(2/d)(1^p), with lambda half the chain's
    integer f-coefficients read as a partition."""
    datum = datum_at_level(system, system.fixed_p)
    f = _f_ints_from_xi(datum.psi, system.base_coeffs)
    assert all(c % 2 == 0 for c in f)
    lam = sorted((c // 2 for c in f), reverse=True)
    alpha = Fraction(2, FAMILIES[system.family].d)
    return 1 / (4 ** sum(lam) * jack_at_ones(lam, datum.rank, alpha))


def _check_jack_limit(system):
    """exact_limit is the Jack evaluation, and a scan decides at its first
    batch with that limit in its evidence and its float as the estimate."""
    limit = _jack_limit(system)
    assert limits.exact_limit(system) == limit
    seq, report = classify_scan(system, 20000)
    assert report.verdict == VERDICT_POSITIVE
    assert report.evidence["limit"] == limit
    assert report.limit_estimate == float(limit)
    assert len(seq.levels) == 25


class TestGrassmannianTable:
    """Levels q >= p+1 of a finite-rank chain come from one table of linear
    forms in q per call; every value must be the whole product's."""

    @pytest.mark.parametrize("field", FINITE_FAMILIES + ("rank1-real",))
    def test_table_values_match_from_scratch(self, field):
        for system in (s for s in TABLE_SYSTEMS if s.family == field):
            p = system.fixed_p
            levels = list(range(p, p + 41)) + [500, 10 ** 4]
            seq = c_sequence(system, levels)
            assert seq.levels == tuple(levels)
            assert seq.values == _from_scratch(system, levels)

    @pytest.mark.parametrize("system", [DirectSystem(family, (1,) * 3, fixed_p=3)
                                        for family in FINITE_FAMILIES]
                             + [DirectSystem("rank1-real", (2,))],
                             ids=lambda s: s.family)
    def test_sparse_and_extended_levels(self, system):
        p = system.fixed_p
        seq = c_sequence(system, (p + 7, p + 2, 900))
        assert seq.values == _from_scratch(system, seq.levels)
        seq = seq.extended([p, 40, p + 1, 10 ** 4])
        assert seq.levels == (p, p + 1, p + 2, p + 7, 40, 900, 10 ** 4)
        assert seq.values == _from_scratch(system, seq.levels)
        with pytest.raises(ValueError, match="below the base level"):
            seq.extended([p - 1])

    def test_lattice_rejection_keeps_its_message(self):
        # a negative coefficient cannot pass DirectSystem; set it behind the
        # validation to reach the rows the table reads
        system = DirectSystem("grass-complex", (1, 1), fixed_p=2)
        object.__setattr__(system, "base_coeffs", (2, -3))
        with pytest.raises(ValueError) as expected:
            c_value(*propagate(system, 3))
        assert "not in the spherical dominant lattice" in str(expected.value)
        with pytest.raises(ValueError) as table:
            limits._chain_table(system)
        assert str(table.value) == str(expected.value)
        with pytest.raises(ValueError) as scan:
            c_sequence(system, [5])
        assert str(scan.value) == str(expected.value)

    @pytest.mark.parametrize("mult_half, error", [
        (lambda p, q: (q - p) ** 2, "not affine"),
        (lambda p, q: 12 + p - q, "decreases"),
    ], ids=["quadratic", "decreasing"])
    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_refuses_a_chain_that_is_not_affine_in_q(self, monkeypatch, family,
                                                     mult_half, error):
        # a half-root multiplicity that is not d(q - p) breaks what the table
        # relies on; the table must raise, not return values
        real = limits.datum_at_level
        monkeypatch.setattr(limits, "datum_at_level", lambda system, level: dataclasses.replace(
            real(system, level), mult_half=mult_half(system.fixed_p, level)))
        system = DirectSystem(family, (1, 1), fixed_p=2)
        c_value(*propagate(system, 5))  # every level is still a valid space
        with pytest.raises(ArithmeticError, match=error):
            limits._chain_table(system)
        with pytest.raises(ArithmeticError, match=error):
            c_sequence(system, range(2, 6))

    def test_refuses_a_root_set_that_moves_with_the_level(self, monkeypatch):
        # a middle orbit that vanishes at one level drops its pair roots
        # there, so the table's readings have different lengths
        real = limits.datum_at_level
        system = DirectSystem("grass-complex", (1, 1), fixed_p=2)
        moved = system.base_level + 2
        monkeypatch.setattr(limits, "datum_at_level", lambda system, level: (
            dataclasses.replace(real(system, level), mult_middle=0) if level == moved
            else real(system, level)))
        with pytest.raises(ArithmeticError,
                           match="^internal error: the root set moves with the level$"):
            limits._chain_table(system)

    def test_refuses_a_weight_that_moves_with_the_level(self, monkeypatch):
        # a weight scaled by q - p keeps the root set but moves every
        # mu_alpha, so no factor key is affine with a fixed mu
        real = limits._propagated_xi

        def scaled(system, level):
            datum, xi = real(system, level)
            return datum, tuple((level - system.fixed_p) * c for c in xi)

        monkeypatch.setattr(limits, "_propagated_xi", scaled)
        system = DirectSystem("grass-complex", (1, 1), fixed_p=2)
        with pytest.raises(ArithmeticError, match="not affine"):
            limits._chain_table(system)
        with pytest.raises(ArithmeticError, match="not affine"):
            c_sequence(system, range(2, 6))

    def test_root_factor_memo_does_not_grow_with_the_scan(self):
        system = DirectSystem("grass-quaternion", (1,) * 6, fixed_p=6)
        sizes = []
        for top in (200, 2000):
            _root_factor.cache_clear()
            limits._chain_table.cache_clear()
            c_sequence(system, range(6, top + 1))
            sizes.append(_root_factor.cache_info().currsize)
        assert sizes[0] == sizes[1]
        # an infinite-rank fold steps by its table's linear forms, so it
        # reads the memo only for the table's two products
        sizes = []
        for top in (200, 1200):
            _root_factor.cache_clear()
            limits._chain_table.cache_clear()
            c_sequence(DirectSystem("group-sp", (0, 1, 0, 2)), range(4, top + 1))
            sizes.append(_root_factor.cache_info().currsize)
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("system, limit", [
        *((DirectSystem("rank1-real", (k,)), Fraction(1, 4 ** k)) for k in range(1, 6)),
        *((DirectSystem(family, (1, 1), fixed_p=2), Fraction(1, 128))
          for family in FINITE_FAMILIES),
        *((DirectSystem(family, (2, 0, 0, 0, 0, 0), fixed_p=6), Fraction(1, 2 ** 24))
          for family in FINITE_FAMILIES),
    ], ids=lambda v: f"{v.family}{v.base_coeffs}" if isinstance(v, DirectSystem) else "")
    def test_leading_ratio_is_the_limit(self, system, limit):
        assert limits.exact_limit(system) == limit
        seq, report = classify_scan(system, 20000)
        assert report.verdict == VERDICT_POSITIVE
        assert report.evidence["limit"] == limit
        assert min(seq.values) >= limit
        assert c_sequence(system, [10 ** 6]).values[0] >= limit

    @pytest.mark.parametrize("system", JACK_SYSTEMS, ids=lambda s: f"{s.family}{s.base_coeffs}")
    def test_leading_ratio_is_the_jack_evaluation(self, system):
        """L = 4^-|lambda| / P_lambda^(2/d)(1^p), with lambda half the
        chain's integer f-coefficients read as a partition: the normalized
        BC_p Jacobi polynomials tend to Jack polynomials with alpha = 2/d
        (Rosler, Koornwinder and Voit, Compositio Math. 149 (2013)).
        Observed here on every case, not proved."""
        _check_jack_limit(system)

    @pytest.mark.parametrize("system", STABLE_SYSTEMS + TABLE_SYSTEMS,
                             ids=lambda s: f"{s.family}{s.base_coeffs}")
    def test_scan_reports_the_jack_evaluation(self, system):
        # the benchmark's chains and the table catalog, digits 0..3
        _check_jack_limit(system)

    @pytest.mark.parametrize("family, limit", zip(FINITE_FAMILIES, (
        Fraction(3, 128), Fraction(1, 48), Fraction(3, 160))))
    def test_jack_examples(self, family, limit):
        # f = (0, 4), so lambda = (2, 0), at p = 2 on R, C and H; at p = 1,
        # L = 4^-k on every field
        alpha = Fraction(2, FAMILIES[family].d)
        assert limits.exact_limit(DirectSystem(family, (0, 2), fixed_p=2)) == limit
        assert limit == 1 / (4 ** 2 * jack_at_ones((2, 0), 2, alpha))
        for k in range(5):
            assert limits.exact_limit(DirectSystem(family, (k,), fixed_p=1)) == Fraction(1, 4 ** k)
            assert jack_at_ones((k,), 1, alpha) == 1

    def test_limit_is_approached_at_an_exact_one_over_q_rate(self):
        """c(p+1+t) = L prod(1 + b/(a t)) / prod(1 + d/(c t)) over the
        table's forms, so t (c - L) tends to A = L (sum b/a - sum d/c): in
        exact Fractions, t (c - L) - A falls at least 50x from t = 10^6 to
        10^8, and A > 0, so c comes down to L like A/t.  Only the zero weight
        has an empty table (c = 1)."""
        chains = 0
        for system in TABLE_SYSTEMS:
            _, (_, _, num, den) = limits._chain_table(system)
            if not num and not den:
                continue
            limit = limits.exact_limit(system)
            rate = limit * (sum(Fraction(b, a) for a, b in num)
                            - sum(Fraction(d, c) for c, d in den))
            assert rate > 0, system
            ts = (10 ** 6, 10 ** 8)
            values = c_sequence(system, [system.fixed_p + 1 + t for t in ts]).values
            near, far = (t * (value - limit) - rate for t, value in zip(ts, values))
            assert 50 * abs(far) <= abs(near), system
            chains += 1
        assert chains == sum(any(system.base_coeffs) for system in TABLE_SYSTEMS)

    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_rank_one_rate_is_the_jacobi_limit(self, family):
        """At p = 1, L = 4^-k and q (c(q) - L) tends to 2k(k + b)/(d 4^k),
        b = (m_2alpha - 1)/2: the q -> oo limit of the Jacobi closed form
        (k+a+b+1)_k / (4^k (a+1)_k) of test_rank_one_jacobi_closed_form, where
        a = d(q - 1)/2 + b grows like dq/2.  At k = 1 (and k = 0) the rate
        is exact at every q."""
        datum = build_space(family, p=1, q=2)
        b = Fraction(datum.mult_alpha1 - 1, 2)
        for k in range(8):
            system = DirectSystem(family, (k,), fixed_p=1)
            limit = Fraction(1, 4 ** k)
            assert limits.exact_limit(system) == limit
            rate = 2 * k * (k + b) / (datum.d * 4 ** k)
            levels = (10 ** 4, 10 ** 6)
            near, far = (q * (value - limit) - rate
                         for q, value in zip(levels, c_sequence(system, levels).values))
            if k <= 1:
                assert near == far == 0, k
            else:
                assert 50 * abs(far) <= abs(near), k


# every chain the table tests read, and all-ones Grassmannian chains of
# width 10, 20 and 30
ORACLE_SYSTEMS = [*dict.fromkeys(ROW_SYSTEMS + FOLD_SYSTEMS + TABLE_SYSTEMS + STABLE_SYSTEMS),
                  *(DirectSystem(family, (1,) * p, fixed_p=p)
                    for family in FINITE_FAMILIES for p in (10, 20, 30))]


class TestTableByKeys:
    """The table reads each factor key at three levels, and its constant
    from the value at t = 0; the per-term reading must give it exactly."""

    @pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=lambda s: (
        f"{s.family}{s.base_coeffs}" if len(s.base_coeffs) <= 6
        else f"{s.family}-ones-{len(s.base_coeffs)}"))
    def test_table_matches_the_per_term_reading(self, system):
        assert limits._chain_table(system) == chain_table_by_terms(system)

    def test_a_wide_chain(self):
        # width 120, all ones: about 1.35 p^3 nonconstant forms, of which
        # about 6p are distinct, and a constant read from one product
        system = DirectSystem("grass-real", (1,) * 120, fixed_p=120)
        seq = c_sequence(system, (121, 500))
        assert seq.values == _from_scratch(system, seq.levels)
        report = classify(seq)
        assert report.verdict == VERDICT_POSITIVE
        assert 0 < report.evidence["limit"] <= seq.values[-1]


class TestFiniteChains:
    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_positive_limits(self, family):
        system = DirectSystem(family, (1, 1), fixed_p=2)
        seq, report = classify_scan(system, max_level=700, batch=50)
        assert report.verdict == VERDICT_POSITIVE
        assert report.evidence["limit"] == Fraction(1, 128)
        assert report.limit_estimate == 1 / 128
        assert seq.levels == tuple(range(2, 52))

    def test_batch_size_does_not_change_verdict(self):
        system = DirectSystem("rank1-real", (1,))
        _, report_a = classify_scan(system, max_level=150, batch=7)
        _, report_b = classify_scan(system, max_level=150, batch=25)
        assert report_a.verdict == report_b.verdict == VERDICT_POSITIVE
        assert report_a.limit_estimate == report_b.limit_estimate == 0.25

    @pytest.mark.parametrize("wrong, error", [
        (lambda cn, cd, num, den: (cn, cd, (*num, (1, 1)), den), "degree 3 over 2"),
        (lambda cn, cd, num, den: (10 ** 6 * cn, cd, num, den), "is not in"),
    ], ids=["unequal-degrees", "limit-above-the-last-value"])
    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_a_wrong_table_raises(self, monkeypatch, family, wrong, error):
        # a table whose limit is not a positive lower bound of the values
        # contradicts the finite-rank theorem: the verdict must raise, not
        # report PositiveLimit or Undecided
        system = DirectSystem(family, (1, 1), fixed_p=2)
        seq = c_sequence(system, range(2, 40))
        _patch_forms(monkeypatch, wrong)
        with pytest.raises(ArithmeticError, match=f"internal error: .*{error}"):
            classify(seq)
        with pytest.raises(ArithmeticError, match=f"internal error: .*{error}"):
            classify_scan(system, max_level=2)  # q = p is not read from the table

    def test_exact_limit_needs_a_finite_rank_chain(self):
        with pytest.raises(ValueError, match="grows in rank"):
            limits.exact_limit(DirectSystem("group-su", (1,)))

    def test_max_level_below_base(self):
        with pytest.raises(ValueError, match="below the base level"):
            classify_scan(DirectSystem("grass-real", (1, 1, 1), fixed_p=3), max_level=2)

    @pytest.mark.parametrize("system", [DirectSystem("grass-real", (1, 1, 1), fixed_p=3),
                                        DirectSystem("group-su", (1,) * 201)],
                             ids=["finite", "infinite-base-201"])
    def test_no_max_level_is_no_cap(self, system):
        # None scans the whole batch from the base, whatever the base level
        seq, report = classify_scan(system)
        assert seq.levels == tuple(range(system.base_level, system.base_level + 25))
        assert (seq, report) == classify_scan(system, system.base_level + 24)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one(self, batch):
        with pytest.raises(ValueError, match="batch must be at least 1"):
            classify_scan(DirectSystem("rank1-real", (1,)), max_level=150, batch=batch)


TINY = Fraction(1, 10 ** 60)


@st.composite
def _neighbours(draw):
    """Values as a chain could hold them, integers and Fractions, small or
    with 500-bit numerators, where each value after the first is a new draw
    or the one before it, kept, or moved up or down by 1/10^60."""
    values = draw(st.lists(st.one_of(
        st.integers(0, 3),
        st.fractions(0, 3, max_denominator=12),
        st.builds(Fraction, st.integers(2 ** 499, 2 ** 500), st.integers(1, 2 ** 500)),
    ), min_size=1, max_size=8))
    out = values[:1]
    for value in values[1:]:
        step = draw(st.sampled_from((None, 0, TINY, -TINY)))
        out.append(value if step is None else out[-1] + step)
    return out


class TestClassifierEdges:
    def test_trivial_weight_is_constant_one(self):
        for system in (DirectSystem("grass-real", (0, 0), fixed_p=2),
                       DirectSystem("group-su", (0, 0))):
            seq, report = classify_scan(system, max_level=10)
            assert all(v == 1 for v in seq.values)
            assert report.verdict == VERDICT_POSITIVE
            assert report.limit_estimate == 1.0
            assert report.evidence["constant_one"]
            if system.mode == MODE_FINITE:
                assert report.evidence["limit"] == 1

    def test_constant_one_reads_the_weight(self):
        # c = 1 at sp-over-u's first level, but the weight is not zero: the
        # chain falls to 3/8, 1/8, 5/128 and tends to 0
        seq, report = classify_scan(DirectSystem("sp-over-u", (1,)), max_level=200, batch=1)
        assert seq.values == (1,)
        assert report.verdict == VERDICT_ZERO
        assert report.limit_estimate == 0.0
        assert "constant_one" not in report.evidence
        assert report.evidence["certificate"]["ratio_limit"] == Fraction(1, 4)

    def test_monotonicity_guard(self):
        system = DirectSystem("rank1-real", (1,))
        bogus = CSequence(system, (2, 3), (Fraction(1, 3), Fraction(3, 8)))
        with pytest.raises(ValueError, match="upstream bug"):
            classify(bogus)

    @pytest.mark.parametrize("bad_index", [24, 13])
    def test_scan_monotonicity_guard(self, monkeypatch, bad_index):
        # a scan is c_sequence then classify, so it reads its whole batch of
        # 25 levels and classify refuses an increase on the batch's last
        # value (index 24) or inside it
        real = limits._values_at
        seen = []

        def bumped(*args, **kwargs):
            for index, value in enumerate(real(*args, **kwargs)):
                seen.append(index)
                yield 2 * value if index == bad_index else value

        monkeypatch.setattr(limits, "_values_at", bumped)
        with pytest.raises(ValueError, match="increased"):
            classify_scan(DirectSystem("grass-real", (1, 1, 1), fixed_p=3), max_level=400)
        assert seen[-1] == 24

    @settings(max_examples=300, deadline=None)
    @given(_neighbours())
    @example([Fraction(1, 3), Fraction(1, 3)])
    @example([1, Fraction(1, 2), Fraction(1, 2), 0])
    @example([Fraction(1, 2), 1])
    @example([Fraction(2 ** 500 - 1, 3 ** 300), Fraction(2 ** 500 - 1, 3 ** 300) + TINY])
    @example([Fraction(7, 3) - TINY, Fraction(7, 3), 2])
    def test_increase_guard_is_the_fraction_comparison(self, values):
        # the guard compares integer cross-products; it must refuse exactly
        # the sequences that a Fraction comparison of neighbours refuses
        increased = any(map(operator.gt, values[1:], values))
        assert limits._increases(values) == increased
        seq = CSequence(DirectSystem("group-su", (1,)), tuple(range(1, len(values) + 1)),
                        tuple(values))
        if increased:
            with pytest.raises(ValueError, match="upstream bug"):
                classify(seq)
        else:
            assert classify(seq).verdict == VERDICT_ZERO

    @pytest.mark.parametrize("system", [DirectSystem("grass-real", (1, 1, 1), fixed_p=3),
                                        DirectSystem("group-sp", (1,))],
                             ids=["grass-real-p3", "group-sp"])
    @pytest.mark.parametrize("batch", [1, 25])
    def test_scan_builds_each_level_once(self, monkeypatch, system, batch):
        # every build_space call counts, the verdict's too; a scan or fold of
        # either mode builds the base level and the three levels of its
        # table, however long it runs
        real_build, calls = limits.build_space, [0]

        def counting_build(*args, **kwargs):
            calls[0] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(limits, "build_space", counting_build)
        seq, report = classify_scan(system, max_level=2000, batch=batch)
        assert len(seq.levels) == batch
        assert report.verdict == (VERDICT_POSITIVE if system.mode == MODE_FINITE
                                  else VERDICT_ZERO)
        assert calls[0] <= 4
        calls[0] = 0
        levels = range(system.base_level, 2001)
        assert len(c_sequence(system, levels).levels) == len(levels)
        assert calls[0] <= 4

    def test_deep_scan_builds_its_rows_once(self, monkeypatch):
        # the table reads the f-coefficients and 4 rho of its four levels
        # from scratch, and no level above them, so a scan to level 2,000
        # computes each at most four times, and so does classify
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for module, name in ((limits, "_f_ints_from_xi"), (rootdata, "_f_ints_from_xi"),
                             (cfunc, "_rho4")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        seq, report = classify_scan(DirectSystem("group-sp", (0, 1, 0, 2)), 2000, batch=2000)
        assert seq.levels[-1] == 2000 and report.verdict == VERDICT_ZERO
        assert calls["_f_ints_from_xi"] <= 4 and calls["_rho4"] <= 4, calls
        calls.clear()
        assert classify(seq).evidence == report.evidence
        assert calls["_f_ints_from_xi"] <= 4 and calls["_rho4"] <= 4, calls

    def test_empty_sequence_rejected(self):
        system = DirectSystem("rank1-real", (1,))
        with pytest.raises(ValueError, match="empty"):
            classify(CSequence(system, (), ()))



class TestDivergenceCertificate:
    def test_harmonic_partial_product(self):
        for n_max in (10, 100):
            value = divergence_certificate([1] * n_max, [0] * n_max, 1, n_max)
            assert value == Fraction(1, n_max + 1)

    def test_small_hand_computed_cases(self):
        assert divergence_certificate([1], [1], 3, 3) == Fraction(4, 5)
        assert divergence_certificate([1, 2], [0, 1], 1, 2) == Fraction(3, 10)
        assert divergence_certificate([], [], 5, 4) == Fraction(1)  # empty range

    def test_validation(self):
        with pytest.raises(ValueError, match="need 2 entries"):
            divergence_certificate([1], [0], 1, 2)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            divergence_certificate([0], [0], 1, 1)
        with pytest.raises(ValueError, match="violates the lower bound"):
            divergence_certificate([1, 2], [0, 0], 1, 2, epsilon=2)
        with pytest.raises(ValueError, match=r"violates the band"):
            divergence_certificate([1, 1], [0, 3], 1, 2, delta=2)
        with pytest.raises(ValueError, match=r"violates the band"):
            divergence_certificate([1], [-1], 1, 1)


def test_grassmannian_factor_parameters_stay_bounded():
    """x/rho and y/rho never exceed 3 on any finite-rank space; the bound is
    attained by the first sphere (q = 2)."""
    worst = Fraction(0)
    for family in FINITE_FAMILIES:
        for p in (1, 2, 3):
            for q in range(p, p + 7):
                datum = build_space(family, p=p, q=q)
                rho_w = rho(datum)
                for root in positive_nonmultipliable_roots(datum):
                    m, mh = datum.mults_for(root.orbit)
                    if m == 0 and mh == 0:
                        continue
                    params = CFactorParams.from_root(datum, (0,) * p, root)
                    ratio = max(params.x_alpha, params.y_alpha) / params.rho_alpha
                    worst = max(worst, ratio)
                    assert ratio <= 3
    assert worst == 3
