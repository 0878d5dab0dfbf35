"""Direct systems along growing spaces: exact overlap sequences, divergence
certificates, and the limit classifier."""

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import jack_at_ones

from sphelim import cfunc, limits
from sphelim.cfunc import CFactorParams, _root_factor, _run_ends, c_value
from sphelim.cli import to_jsonable
from sphelim.limits import (
    MODE_FINITE,
    MODE_INFINITE,
    VERDICT_POSITIVE,
    VERDICT_UNDECIDED,
    VERDICT_ZERO,
    ClassifyConfig,
    ConvergenceReport,
    CSequence,
    DirectSystem,
    c_sequence,
    classify,
    classify_scan,
    datum_at_level,
    decay_bound,
    divergence_certificate,
    infinite_rank_root_sequence,
    propagate,
)
from sphelim.rootdata import (
    FAMILIES,
    _f_ints_from_xi,
    build_space,
    lambda_alpha,
    positive_nonmultipliable_roots,
    rho,
)
from sphelim.sphere import limit_zonal, planar_rotation, zonal_eval

INFINITE_FAMILIES = ("group-su", "group-spin-odd", "group-spin-even", "group-sp",
                     "su-over-so", "su-over-sp", "so-over-u-even", "so-over-u-odd",
                     "sp-over-u")
FINITE_FAMILIES = ("grass-real", "grass-complex", "grass-quaternion")


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

    def test_extended_rejects_levels_below_base(self):
        seq = c_sequence(DirectSystem("group-su", (0, 1)), [2, 3])
        with pytest.raises(ValueError, match="below the base level"):
            seq.extended([1])


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
        for family in ("group-su", "su-over-so", "su-over-sp"):
            system = DirectSystem(family, (1,))
            seq = c_sequence(system, range(1, 30))
            assert seq.values == tuple(Fraction(1, r + 1) for r in range(1, 30))
            report = classify(seq, ClassifyConfig(zero_floor=Fraction(1, 10 ** 9)))
            assert report.verdict == VERDICT_ZERO
            cert = report.evidence["certificate"]
            assert cert is not None
            assert not report.evidence["floor_crossed"]
            assert cert["epsilon"] == 1 and cert["delta"] == 0
            assert cert["index_shift"] == 0
            assert cert["partial_product"] == seq.values[-1]  # telescoping, exactly
            assert cert["last_value_below_partial"]

    def test_sp_over_u_chain(self):
        system = DirectSystem("sp-over-u", (1,))
        seq = c_sequence(system, range(1, 12))
        assert seq.values[3] == Fraction(5, 128)  # level 4
        report = classify(seq)
        assert report.verdict == VERDICT_ZERO
        cert = report.evidence["certificate"]
        assert cert["index_shift"] == 1  # rho pairing is (n-1)/2: shift makes indices start at 1
        assert cert["last_value_below_partial"]

    @pytest.mark.parametrize("family", INFINITE_FAMILIES)
    def test_every_infinite_family_decays(self, family):
        base = (0, 1, 0, 0) if family == "group-spin-even" else (0, 1)
        system = DirectSystem(family, base)
        seq, report = classify_scan(system, max_level=80)
        assert report.verdict == VERDICT_ZERO
        assert report.limit_estimate == 0.0
        assert seq.values[-1] < seq.values[0]

    def test_noncontiguous_scan_still_certifies(self):
        system = DirectSystem("group-su", (1,))
        seq = c_sequence(system, [1, 2, 3, 5, 8, 13, 21])
        report = classify(seq, ClassifyConfig(zero_floor=Fraction(1, 10 ** 9)))
        assert report.verdict == VERDICT_ZERO
        cert = report.evidence["certificate"]
        assert cert["decay_bound"] is None  # schedule comparison needs contiguous levels
        expected = Fraction(1)
        for j in (1, 2, 3, 5, 8, 13, 21):
            expected *= Fraction(j, j + 1)
        assert cert["partial_product"] == expected
        assert cert["last_value_below_partial"]

    def test_fold_refuses_a_level_that_does_not_extend_the_one_below(self, monkeypatch):
        # a middle multiplicity that grows with n changes the roots the fold
        # has already multiplied in; every level is still a valid space, but
        # the fold must raise rather than build on the level below
        row = FAMILIES["group-sp"]
        monkeypatch.setitem(FAMILIES, "group-sp",
                            dataclasses.replace(row, mult_middle_of=lambda n: n))
        system = DirectSystem("group-sp", (1,))
        c_value(*propagate(system, 5))
        with pytest.raises(ArithmeticError, match="internal error: level 2 does not extend"):
            c_sequence(system, range(1, 6))
        with pytest.raises(ArithmeticError, match="internal error: level 2 does not extend"):
            classify_scan(system, 10)

    def test_short_scan_stays_undecided(self):
        # one level: too few witness rows for a certificate, and the value
        # 1/2 is above the floor
        report = classify(c_sequence(DirectSystem("group-su", (1,)), [1]))
        assert report.verdict == VERDICT_UNDECIDED
        assert not report.decided
        assert report.limit_estimate is None
        assert report.evidence["request"] == "more levels"

    def test_floor_crossing_without_certificate_scan(self):
        # a single late level: too few witness rows for a certificate, but
        # the value itself is already under the floor
        system = DirectSystem("group-su", (1,))
        seq = c_sequence(system, [120])
        report = classify(seq, ClassifyConfig(zero_floor=Fraction(1, 100)))
        assert report.verdict == VERDICT_ZERO
        assert report.evidence["floor_crossed"]
        assert report.evidence["certificate"] is None


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
    def test_extended_rows_are_the_rebuilt_rows(self, system):
        # a level extends the rows of the one below it in place; at every
        # level they must be the rows built from scratch, contiguous or not
        b = system.base_level
        for levels in (range(b, ROW_TOP + 1), sorted({b, b + 1, b + 5, 40, 41, ROW_TOP})):
            lo_want = 0
            for level, (datum, coeffs, r4, ends, lo) in zip(
                    levels, limits._chain_rows(system, levels), strict=True):
                want_datum, want_coeffs, want_r4 = limits._level_rows(system, level)
                assert datum == want_datum
                assert coeffs == want_coeffs, level
                assert r4 == list(want_r4), level
                assert ends == _run_ends(want_coeffs), level
                assert lo == lo_want
                lo_want = len(coeffs)

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=ROW_IDS)
    def test_sparse_levels_match_c_value(self, system):
        b = system.base_level
        levels = sorted({b, b + 1, b + 5, 40, 41, ROW_TOP})
        seq = c_sequence(system, levels)
        assert seq.values == _from_scratch(system, levels)
        # a fold that starts above the base level, between known levels
        assert c_sequence(system, levels[:2]).extended(levels[2:]).values == seq.values

    @pytest.mark.parametrize("system", FIRST_WEIGHT_SYSTEMS, ids=FIRST_WEIGHT_IDS)
    def test_certificate_matches_propagated_pairings(self, system):
        seq = c_sequence(system, range(system.base_level, 16))
        cert = classify(seq).evidence["certificate"]
        assert cert is not None
        label = datum_at_level(system, system.base_level).psi.label
        k0 = next(i + 1 for i, c in enumerate(system.base_coeffs) if c)
        partial = Fraction(1)
        rhos = []
        for level in cert["witness_levels"]:
            datum, w = propagate(system, level)
            root = infinite_rank_root_sequence(label, level, k0)
            assert lambda_alpha(w, root) >= 1
            m, _ = datum.mults_for(root.orbit)
            rho_a = lambda_alpha(rho(datum), root)
            rhos.append(rho_a)
            partial /= 1 + Fraction(2 * m, 4) / rho_a
        assert cert["partial_product"] == partial
        first, second = cert["witness_levels"][:2]
        assert cert["rho_slope"] == (rhos[1] - rhos[0]) / (second - first)
        # the witness factors are the decay schedule's terms at j = level - shift
        eps, dlt = cert["epsilon"], cert["delta"]
        j0, jn = (cert["witness_levels"][i] - cert["index_shift"] for i in (0, -1))
        count = jn - j0 + 1
        assert count == len(cert["witness_levels"])
        assert partial == divergence_certificate([eps] * count, [dlt] * count, j0, jn,
                                                 epsilon=eps, delta=dlt)
        assert cert["decay_bound"] == decay_bound(eps, dlt, j0, jn)

    @pytest.mark.parametrize("perturb", ["rho_not_affine", "mult_changes", "mu_below_one"])
    @pytest.mark.parametrize("system", [s for s in FIRST_WEIGHT_SYSTEMS if s.family in
                                        ("group-su", "group-sp", "group-spin-odd",
                                         "group-spin-even")],
                             ids=lambda s: f"{s.family}{s.base_coeffs}")
    def test_certificate_rejects_bad_witness_level(self, monkeypatch, system, perturb):
        # the per-level witness step reads a perturbed level-10 row; a finished
        # sequence and a scan must both lose the certificate
        seq = c_sequence(system, range(system.base_level, 16))
        assert classify(seq).evidence["certificate"] is not None
        assert classify_scan(system, 15)[1].evidence["certificate"] is not None
        label = datum_at_level(system, system.base_level).psi.label
        k0 = next(i + 1 for i, c in enumerate(system.base_coeffs) if c)
        real_pairing, bad_level = limits._witness_pairing, 10

        def perturbed_pairing(witness, level, rows):
            datum, coeffs, r4 = rows
            if level == bad_level:
                if perturb == "rho_not_affine":
                    i = infinite_rank_root_sequence(label, level, k0).entries[-1][0]
                    r4 = [*r4[:i], r4[i] + 4, *r4[i + 1:]]  # a copy: the fold shares r4
                elif perturb == "mult_changes":
                    datum = dataclasses.replace(datum, mult_middle=datum.mult_middle + 1,
                                                mult_alpha1=datum.mult_alpha1 + 1)
                else:
                    coeffs = [0] * len(coeffs)
            return real_pairing(witness, level, (datum, coeffs, r4))

        monkeypatch.setattr(limits, "_witness_pairing", perturbed_pairing)
        assert classify(seq).evidence.get("certificate") is None
        assert classify_scan(system, 15)[1].evidence.get("certificate") is None

    def test_evidence_pinned(self):
        # verdicts and evidence of contiguous scans at three batch sizes and of
        # one sparse sequence per chain; taken before the certificate was read
        # from integer pairings, and must not move
        reports = []
        for system in FIRST_WEIGHT_SYSTEMS:
            reports += [classify_scan(system, 40, batch=b)[1] for b in (1, 7, 40)]
            reports.append(classify(c_sequence(system, (max(3, system.base_level), 10, 25))))
        blob = json.dumps(to_jsonable([[r.verdict, r.limit_estimate, r.evidence]
                                       for r in reports]), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "472e9f5cfa57c30aecc937bd23c2c283f49893146965b16952f97891065c5bcd")


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
            limits._grassmannian_table(system)
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
        row = FAMILIES[family]
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(row, mult_half_of=mult_half))
        system = DirectSystem(family, (1, 1), fixed_p=2)
        c_value(*propagate(system, 5))  # every level is still a valid space
        with pytest.raises(ArithmeticError, match=error):
            limits._grassmannian_table(system)
        with pytest.raises(ArithmeticError, match=error):
            c_sequence(system, range(2, 6))

    def test_root_factor_memo_does_not_grow_with_the_scan(self):
        system = DirectSystem("grass-quaternion", (1,) * 6, fixed_p=6)
        sizes = []
        for top in (200, 2000):
            _root_factor.cache_clear()
            c_sequence(system, range(6, top + 1))
            sizes.append(_root_factor.cache_info().currsize)
        assert sizes[0] == sizes[1]
        # an infinite-rank fold makes new run keys at every level, about four
        # per level here; past its bound the memo evicts and keeps its size
        _root_factor.cache_clear()
        c_sequence(DirectSystem("group-sp", (0, 1, 0, 2)), range(4, 1201))
        info = _root_factor.cache_info()
        assert info.misses > info.maxsize == info.currsize

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
            _, _, num, den = limits._grassmannian_table(system)
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
        (lambda cn, cd, num, den: (cn, cd, num + [(1, 1)], den), "degree 3 over 2"),
        (lambda cn, cd, num, den: (10 ** 6 * cn, cd, num, den), "is not in"),
    ], ids=["unequal-degrees", "limit-above-the-last-value"])
    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_a_wrong_table_raises(self, monkeypatch, family, wrong, error):
        # a table whose limit is not a positive lower bound of the values
        # contradicts the finite-rank theorem: the verdict must raise, not
        # report PositiveLimit or Undecided
        system = DirectSystem(family, (1, 1), fixed_p=2)
        seq = c_sequence(system, range(2, 40))
        real_table = limits._grassmannian_table
        monkeypatch.setattr(limits, "_grassmannian_table",
                            lambda system: wrong(*real_table(system)))
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

    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one(self, batch):
        with pytest.raises(ValueError, match="batch must be at least 1"):
            classify_scan(DirectSystem("rank1-real", (1,)), max_level=150, batch=batch)


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

    def test_monotonicity_guard(self):
        system = DirectSystem("rank1-real", (1,))
        bogus = CSequence(system, (2, 3), (Fraction(1, 3), Fraction(3, 8)))
        with pytest.raises(ValueError, match="upstream bug"):
            classify(bogus)

    @pytest.mark.parametrize("bad_index", [24, 13])
    def test_scan_monotonicity_guard(self, monkeypatch, bad_index):
        # classify_scan checks each value as the fold yields it; an increase
        # on a batch's last value (index 24) or inside a batch still raises,
        # and a finite-rank scan decides at its first batch, so both lie there
        real = limits._values_at
        seen = []

        def bumped(system, levels):
            for index, (value, rows) in enumerate(real(system, levels)):
                seen.append(index)
                yield (2 * value if index == bad_index else value), rows

        monkeypatch.setattr(limits, "_values_at", bumped)
        with pytest.raises(ValueError, match="increased"):
            classify_scan(DirectSystem("grass-real", (1, 1, 1), fixed_p=3), max_level=400)
        assert seen[-1] == bad_index

    @pytest.mark.parametrize("system", [DirectSystem("grass-real", (1, 1, 1), fixed_p=3),
                                        DirectSystem("group-sp", (1,))],
                             ids=["grass-real-p3", "group-sp"])
    @pytest.mark.parametrize("batch", [1, 25])
    def test_scan_builds_each_level_once(self, monkeypatch, system, batch):
        # every build_space call counts, those for the witness certificate too;
        # a finite-rank scan or fold builds q = p and the three levels of its
        # table, however long it runs
        real_build, calls = limits.build_space, [0]

        def counting_build(*args, **kwargs):
            calls[0] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(limits, "build_space", counting_build)
        seq, report = classify_scan(system, max_level=2000, batch=batch)
        assert report.decided
        if system.mode == MODE_FINITE:
            assert calls[0] <= 4
            calls[0] = 0
            assert len(c_sequence(system, range(system.base_level, 2001)).levels) == 1998
            assert calls[0] <= 4
        else:
            assert report.evidence["certificate"] is not None
            assert calls[0] == len(seq.levels)

    def test_deep_scan_builds_its_rows_once(self, monkeypatch):
        # a level extends the f-coefficients and 4 rho of the one below it,
        # so a scan to level 2,000 computes each from scratch once, and so
        # does classify for the witness pairings of the finished sequence
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for module in (limits, cfunc):
            for name in ("_f_ints_from_xi", "_rho4"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        seq, report = classify_scan(DirectSystem("group-sp", (0, 1, 0, 2)), 2000, batch=2000)
        assert seq.levels[-1] == 2000 and report.evidence["certificate"] is not None
        assert calls["_f_ints_from_xi"] <= 1 and calls["_rho4"] <= 1, calls
        calls.clear()
        assert classify(seq).evidence == report.evidence
        assert calls["_f_ints_from_xi"] <= 1 and calls["_rho4"] <= 1, calls

    def test_empty_sequence_rejected(self):
        system = DirectSystem("rank1-real", (1,))
        with pytest.raises(ValueError, match="empty"):
            classify(CSequence(system, (), ()))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ClassifyConfig(zero_floor=0)
        assert [f.name for f in dataclasses.fields(ClassifyConfig)] == ["zero_floor"]

    def test_report_decided(self):
        assert ConvergenceReport(VERDICT_ZERO, 0.0, {}).decided
        assert not ConvergenceReport(VERDICT_UNDECIDED, None, {}).decided


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

    def test_partial_product_under_decay_bound(self):
        # each factor (1 + eps/(delta+j))^(-1) <= exp(-eps/(2(delta+j)))
        # as long as the per-term ratio stays below 5/2
        for eps, dlt in [(1, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 1)]:
            n = 40
            partial = divergence_certificate([eps] * n, [dlt] * n, 1, n)
            assert float(partial) <= decay_bound(eps, dlt, 1, n) + 1e-15


class TestWitnessRoots:
    def test_reprs(self):
        assert repr(infinite_rank_root_sequence("A", 4)) == "RestrictedRoot(-f1+f5, alpha1_orbit)"
        assert repr(infinite_rank_root_sequence("B", 3)) == "RestrictedRoot(f3, alpha1_orbit)"
        assert repr(infinite_rank_root_sequence("B", 3, 2)) == "RestrictedRoot(-f1+f3, middle)"
        assert repr(infinite_rank_root_sequence("C", 3)) == "RestrictedRoot(f1+f3, middle)"
        assert repr(infinite_rank_root_sequence("D", 4)) == "RestrictedRoot(f2+f4, alpha1_orbit)"

    def test_level_floors(self):
        with pytest.raises(ValueError, match="level >= 2"):
            infinite_rank_root_sequence("C", 1)
        with pytest.raises(ValueError, match="level >= 3"):
            infinite_rank_root_sequence("D", 2)
        with pytest.raises(ValueError, match="level >= 2"):
            infinite_rank_root_sequence("B", 1, 2)
        with pytest.raises(ValueError, match="level >= 3"):
            infinite_rank_root_sequence("A", 2, 3)
        with pytest.raises(ValueError, match="1-based"):
            infinite_rank_root_sequence("A", 2, 0)
        with pytest.raises(ValueError, match="unknown root-system label"):
            infinite_rank_root_sequence("Z", 2)

    @pytest.mark.parametrize("family", INFINITE_FAMILIES)
    def test_unit_pairing_with_propagated_weight(self, family):
        base = (0, 1, 0, 0) if family == "group-spin-even" else (0, 1)
        system = DirectSystem(family, base)
        label = datum_at_level(system, system.base_level).psi.label
        for level in (system.base_level + 1, system.base_level + 4):
            datum, w = propagate(system, level)
            root = infinite_rank_root_sequence(label, level, 2)
            assert lambda_alpha(w, root) == 1

    def test_rho_pairing_grows_affinely(self):
        system = DirectSystem("group-sp", (1,))
        pairs = []
        for level in (4, 5, 6, 7):
            datum, _ = propagate(system, level)
            root = infinite_rank_root_sequence("C", level, 1)
            pairs.append(lambda_alpha(rho(datum), root))
        steps = {b - a for a, b in zip(pairs, pairs[1:])}
        assert len(steps) == 1  # constant slope


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
