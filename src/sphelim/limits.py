"""Direct systems of symmetric spaces and the rank dichotomy.

A chain is either finite-rank (Grassmannian families: p stays fixed, the
level is the growing q) or infinite-rank (the level IS the rank).  Along a
chain, a dominant weight propagates by keeping its fundamental-weight
coefficients and zero-padding; the overlap constants then form a
nonincreasing sequence whose limit is positive exactly in the finite-rank
case.  ``classify`` decides which side of the dichotomy a computed sequence
sits on, attaching the exact limit (``exact_limit``) in the finite-rank case
and a divergence certificate in the infinite-rank case.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cfunc import _product, _root_terms, _rows, _run_ends, _walk_rows
from .rootdata import (
    FAMILIES,
    ORBIT_ALPHA1,
    ORBIT_MIDDLE,
    RestrictedRoot,
    RootSystemType,
    SpaceDatum,
    Weight,
    _f_ints_from_xi,
    _rho4,
    _rho4_from,
    build_space,
    pad_xi_coeffs,
    weight_from_xi,
)

VERDICT_POSITIVE = "PositiveLimit"
VERDICT_ZERO = "ZeroLimit"
VERDICT_UNDECIDED = "Undecided"

MODE_FINITE = "finite_rank"
MODE_INFINITE = "infinite_rank"


@dataclass(frozen=True)
class DirectSystem:
    """A family chain plus the base dominant weight (xi-coefficients).

    Grassmannian families run in finite-rank mode with ``fixed_p`` set
    (rank1-real pins p = 1 automatically); the other families run in
    infinite-rank mode, where len(base_coeffs) is the base rank.
    """

    family: str
    base_coeffs: tuple[int, ...]
    fixed_p: int | None = None

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "base_coeffs", tuple(int(k) for k in self.base_coeffs))
        if any(k < 0 for k in self.base_coeffs):
            raise ValueError("base coefficients must be nonnegative")
        if fam.param_kind == "pq":
            p = fam.fixed_p if fam.fixed_p is not None else self.fixed_p
            if p is None:
                raise ValueError(f"family {self.family!r} needs fixed_p")
            if self.fixed_p is not None and self.fixed_p != p:
                raise ValueError(f"family {self.family!r} fixes p = {p}")
            object.__setattr__(self, "fixed_p", p)
            if len(self.base_coeffs) != p:
                raise ValueError(f"need exactly p = {p} coefficients")
        else:
            if self.fixed_p is not None:
                raise ValueError(f"family {self.family!r} grows in rank; fixed_p does not apply")
            if not self.base_coeffs:
                raise ValueError("need at least one base coefficient")
            _n_for_rank(fam, len(self.base_coeffs))  # validates the base rank exists

    @property
    def mode(self) -> str:
        return MODE_FINITE if FAMILIES[self.family].param_kind == "pq" else MODE_INFINITE

    @property
    def base_level(self) -> int:
        if self.mode == MODE_FINITE:
            return self.fixed_p
        return len(self.base_coeffs)

    @property
    def trivial(self) -> bool:
        return not any(self.base_coeffs)


def _n_for_rank(fam, rank: int) -> int:
    for n in (rank, rank + 1):
        if n >= fam.min_n and fam.rank_of(n) == rank:
            return n
    raise ValueError(f"family {fam.slug!r} has no member of rank {rank}")


def datum_at_level(system: DirectSystem, level: int) -> SpaceDatum:
    fam = FAMILIES[system.family]
    if system.mode == MODE_FINITE:
        return build_space(system.family, p=system.fixed_p, q=level)
    return build_space(system.family, n=_n_for_rank(fam, level))


def propagate(system: DirectSystem, level: int) -> tuple[SpaceDatum, Weight]:
    """The space and the propagated weight at one level of the chain.

    Finite-rank mode reuses the coefficients unchanged (the rank is fixed);
    infinite-rank mode zero-pads them up to the level's rank.  Either way
    the weight restricts back to the base weight on the smaller flat.
    """
    datum, coeffs = _propagated_xi(system, level)
    return datum, weight_from_xi(datum, coeffs)


def _propagated_xi(system: DirectSystem, level: int) -> tuple[SpaceDatum, tuple[int, ...]]:
    if level < system.base_level:
        raise ValueError(f"level {level} is below the base level {system.base_level}")
    datum = datum_at_level(system, level)
    return datum, pad_xi_coeffs(system.base_coeffs, datum.rank)


def _level_rows(system: DirectSystem, level: int) -> tuple[SpaceDatum, list[int], tuple[int, ...]]:
    """The datum at one level with the integer f-coefficients of the
    propagated weight and of 4 rho; no Fractions are built."""
    datum, coeffs = _propagated_xi(system, level)
    return datum, _f_ints_from_xi(datum.psi, coeffs), _rho4(datum)


_mults = operator.attrgetter("mult_middle", "mult_alpha1", "mult_half")


def _chain_rows(system: DirectSystem, levels: Iterable[int],
                ) -> Iterator[tuple[SpaceDatum, list[int], list[int], list[int], int]]:
    """The rows of an infinite-rank chain at ascending levels, as one
    growing state: (datum, f-coefficients, 4 rho, run ends, lo), where lo is
    the ambient dimension of the level before (0 at the first level) and the
    run ends are ``cfunc._run_ends`` of the coefficients.

    The first level comes from ``_level_rows``.  Every later level extends
    the lists in place, at a cost of O(1) plus its new indices: its datum is
    built, its multiplicities are compared with the level below, and its
    new entries are appended.  That comparison is the complete guard.  The
    family fixes the root-system label, so with the multiplicities equal
    ``_rho4_from`` gives every entry below lo as the level below had it,
    2(2j m_pair + single), and lists the new ones.  The f-coefficients are
    the running sum of ``_f_ints_from_xi`` over the xi-coefficients, whose
    offset from the f-indices the label fixes, so the base coefficients fix
    every old entry; the padded ones are 0, so each new entry equals the
    last one.  So the last run grows to the new
    ambient dimension, and no other run end moves.  A level whose
    multiplicities differ, or one below the level before, raises
    ArithmeticError; no catalog chain has one.

    The lists are shared and keep growing: a consumer reads a level before
    it asks for the next one, and copies nothing.
    """
    mults = coeffs = r4 = ends = None
    for level in levels:
        if coeffs is None:
            datum, coeffs, r4 = _level_rows(system, level)
            mults, r4, ends, lo = _mults(datum), list(r4), _run_ends(coeffs), 0
        else:
            datum = datum_at_level(system, level)
            lo, n = len(coeffs), datum.psi.ambient_dim
            if _mults(datum) != mults or n < lo:
                raise ArithmeticError(
                    f"internal error: level {level} does not extend the level below it")
            coeffs += [coeffs[-1]] * (n - lo)
            r4 += _rho4_from(datum, lo)
            ends[-1] = n
        yield datum, coeffs, r4, ends, lo


@dataclass(frozen=True)
class CSequence:
    """Overlap constants along a chain, exact and sorted by level."""

    system: DirectSystem
    levels: tuple[int, ...]
    values: tuple[Fraction, ...]

    def last(self) -> tuple[int, Fraction]:
        return self.levels[-1], self.values[-1]

    def extended(self, more_levels: Sequence[int]) -> "CSequence":
        fresh = sorted(set(int(lv) for lv in more_levels) - set(self.levels))
        if not fresh:
            return self
        values = tuple(value for value, _ in _values_at(self.system, fresh))
        merged = sorted(zip(self.levels + tuple(fresh), self.values + values))
        return CSequence(self.system,
                         tuple(lv for lv, _ in merged),
                         tuple(v for _, v in merged))


def _values_at(system: DirectSystem, levels: Iterable[int],
               ) -> Iterator[tuple[Fraction, Fraction | tuple]]:
    """Exact values at ascending levels, yielded one at a time, each with
    what the verdict reads besides the values: on an infinite-rank chain the
    rows it was computed from, (datum, f-coefficients, 4 rho), and on a
    finite-rank chain its exact limit (``exact_limit``).  The rows' lists
    are shared with the fold and grow with the next level, so a consumer
    reads them before it asks for the next value.

    Infinite rank: a level extends the one below it in place
    (``_chain_rows``).  The multiplicities agree from level to level, and
    the weight's f-coefficients, 4 rho and run ends only grow by new
    trailing entries, so a value is the one before it times the factors of
    the roots that reach the new indices (the one-step overlap
    q(n+1, n)^2), which ``cfunc._walk_rows`` lists from the shared rows;
    the first level is the whole product.  The new row's pair roots come
    in runs of equal f-coefficients, one factor per run, so a level costs
    O(its new indices + runs), not O(rank).  The comparison of the
    multiplicities is the complete guard: a level that fails it raises
    ArithmeticError; no catalog chain has one.

    Finite rank (p fixed, level q): only the half-root multiplicity
    m_half = d(q - p) moves with q (``rootdata.FAMILIES``), and 4 rho is
    linear in the multiplicities (``_rho4``), so on every root 8 rho_alpha,
    8 x_alpha = 2(m_half + 2) and 8 y_alpha = 2(m_half + 2m) are affine in
    q, while mu_alpha depends only on the fixed weight.  For q >= p+1 the
    root set is fixed as well (at q = p the half roots, and on grass-real
    the single roots, have multiplicity zero).  So every root factor's
    terms are affine in t = q - (p+1), and c(q) is one rational
    function of q, which ``_grassmannian_table`` reads once per call; each
    level above p is evaluated from it, and since Fraction is canonical the
    value is the one ``c_value`` gives.  The level q = p is one whole
    product.
    """
    if system.mode == MODE_FINITE:
        p, table = system.fixed_p, _grassmannian_table(system)
        const_num, const_den, num, den = table
        limit = _table_limit(table)
        for level in levels:
            if level <= p:  # q = p; _level_rows rejects a level below it
                datum, coeffs, _ = _level_rows(system, level)
                yield Fraction(*_product(_rows(datum, coeffs, 0))), limit
                continue
            t = level - p - 1
            yield Fraction(const_num * math.prod(a * t + b for a, b in num),
                           const_den * math.prod(a * t + b for a, b in den)), limit
        return
    value = Fraction(1)
    for datum, coeffs, r4, ends, lo in _chain_rows(system, levels):
        value *= Fraction(*_product(_walk_rows(datum, coeffs, r4, ends, lo)))
        yield value, (datum, coeffs, r4)


def exact_limit(system: DirectSystem) -> Fraction:
    """The exact limit of c(q) as q -> oo on a finite-rank chain: the ratio
    C_n prod a / (C_d prod c) of the leading coefficients of its
    ``_grassmannian_table``, 4^-|lambda| / P_lambda^(2/d)(1^p) on every
    chain tested, as the BC -> A limit transition of Rosler, Koornwinder
    and Voit (Compositio Math. 149 (2013)) predicts.  Raises ValueError on
    an infinite-rank chain, ArithmeticError if c(q) has unequal degrees."""
    if system.mode != MODE_FINITE:
        raise ValueError(f"family {system.family!r} grows in rank; its limit is not a table's")
    return _table_limit(_grassmannian_table(system))


def _table_limit(table: tuple[int, int, list, list]) -> Fraction:
    const_num, const_den, num, den = table
    if len(num) != len(den):
        raise ArithmeticError(f"internal error: c(q) has degree {len(num)} over {len(den)} in q")
    return Fraction(const_num * math.prod(a for a, _ in num),
                    const_den * math.prod(c for c, _ in den))


def _grassmannian_table(system: DirectSystem) -> tuple[int, int, list, list]:
    """c(q) on a finite-rank chain for q >= p+1 as (C_n, C_d, num, den):
    c(p+1+t) = C_n prod(a t + b) / (C_d prod(c t + d)) over the integer
    linear forms (a, b) in ``num`` and (c, d) in ``den``.

    Each factor's integer terms (``cfunc._root_terms`` of the factors that
    ``cfunc._rows`` lists: one per root s*f_j and one per run of pair roots,
    whose run lengths depend only on the fixed weight) are read at q = p+1,
    p+2 and p+3.  Every term is affine in t (see ``_values_at``), so its
    values t1, t2 at q = p+1, p+2 give the form (t2 - t1) t + t1, once
    t3 - t2 = t2 - t1 is checked at q = p+3.  Every form is divided by its
    content, the contents go into C_n and C_d, and equal forms cancel.
    Raises ArithmeticError if a factor is not affine or a form could turn
    nonpositive at some t >= 0.
    """
    p = system.fixed_p
    factors = []
    for q in (p + 1, p + 2, p + 3):
        datum, coeffs, _ = _level_rows(system, q)
        factors.append([_root_terms(mu, rho8, x8, y8, 8) for row in _rows(datum, coeffs, 0)
                        for mu, rho8, (x8, y8) in row])
    if len({len(level) for level in factors}) != 1:
        raise ArithmeticError("internal error: the root set moves with q above q = p")
    num, den = [], []
    for first, second, third in zip(*factors):
        for forms, t1, t2, t3 in zip((num, den), first, second, third):
            slopes = [b - a for a, b in zip(t1, t2)]
            if (not len(t1) == len(t2) == len(t3)
                    or slopes != [c - b for b, c in zip(t2, t3)]):
                raise ArithmeticError(
                    "internal error: a root factor is not affine in q above q = p")
            forms += zip(slopes, t1)
    const_num, num = _primitive_forms(num)
    const_den, den = _primitive_forms(den)
    common = num & den
    g = math.gcd(const_num, const_den)
    return (const_num // g, const_den // g,
            sorted((num - common).elements()), sorted((den - common).elements()))


def _primitive_forms(forms: Iterable[tuple[int, int]]) -> tuple[int, Counter]:
    """The product of the forms' contents, and the nonconstant forms divided
    by their content, counted; a constant form goes wholly into the content.
    Every intercept is positive (``_rows`` checks rho), so a form
    stays positive for every t >= 0 unless its slope is negative."""
    content, out = 1, Counter()
    for a, b in forms:
        if a < 0:
            raise ArithmeticError("internal error: a linear form in q decreases")
        g = math.gcd(a, b)
        content *= g
        if a:
            out[a // g, b // g] += 1
    return content, out


def c_sequence(system: DirectSystem, levels: Sequence[int]) -> CSequence:
    """Exact overlap constants at the given levels (sorted, deduplicated),
    folded serially in level order."""
    levels = list(levels)
    if not levels:
        raise ValueError("need at least one level")
    return CSequence(system, (), ()).extended(levels)


# --------------------------------------------------------------------------
# divergence certificates


def divergence_certificate(a: Sequence, x: Sequence, L: int, N: int,
                           epsilon=None, delta=None) -> Fraction:
    """Exact partial product prod_{j=L}^{N} (1 + a_j/(x_j + j))^(-1).

    The sequences are aligned with j = L..N.  Requires a_j >= epsilon > 0
    and 0 <= x_j <= delta (defaults: the observed min/max).  When the
    per-term ratio a_j/(x_j+j) stays below 5/2, each factor is at most
    exp(-(epsilon/2)/(delta+j)), so the full product decays under
    exp(-(epsilon/2) * sum 1/(delta+j)) -> 0.
    """
    if N < L:
        return Fraction(1)
    count = N - L + 1
    a = [Fraction(v) for v in a]
    x = [Fraction(v) for v in x]
    if len(a) != count or len(x) != count:
        raise ValueError(f"need {count} entries for j = {L}..{N}")
    epsilon = min(a) if epsilon is None else Fraction(epsilon)
    delta = max(x) if delta is None else Fraction(delta)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    product = Fraction(1)
    for offset, (aj, xj) in enumerate(zip(a, x)):
        j = L + offset
        if aj < epsilon:
            raise ValueError(f"a_{j} = {aj} violates the lower bound {epsilon}")
        if xj < 0 or xj > delta:
            raise ValueError(f"x_{j} = {xj} violates the band [0, {delta}]")
        product /= 1 + aj / (xj + j)
    return product


def decay_bound(epsilon, delta, L: int, N: int) -> float:
    """exp(-(epsilon/2) * sum_{j=L}^{N} 1/(delta+j)); comparison schedule."""
    eps = float(epsilon)
    dlt = float(delta)
    return math.exp(-0.5 * eps * math.fsum(1.0 / (dlt + j) for j in range(L, N + 1)))


# Lowest level at which each label's witness root exists; the witness for
# base coefficient index k also needs level >= k.
_WITNESS_FLOOR = {"A": 1, "B": 1, "C": 2, "D": 3}


def infinite_rank_root_sequence(psi_type, level: int, base_coeff_index: int = 1) -> RestrictedRoot:
    """The witness root used to prove decay along an infinite-rank chain.

    At level n (= rank) the root pairs to 1 with the propagated fundamental
    weight of index ``base_coeff_index``, has no half root, and its pairing
    with the half-sum weight grows affinely in n: f_{n+1}-f_1 for A,
    f_n (index 1) or f_n-f_1 (index > 1) for B, f_n+f_1 for C, f_n+f_2
    for D.
    """
    label = psi_type.label if isinstance(psi_type, RootSystemType) else str(psi_type)
    n, k = int(level), int(base_coeff_index)
    if k < 1:
        raise ValueError("base_coeff_index is 1-based")
    if label not in _WITNESS_FLOOR:
        raise ValueError(f"unknown root-system label {label!r}")
    floor = max(k, _WITNESS_FLOOR[label])
    if n < floor:
        raise ValueError(f"{label} witness needs level >= {floor}")
    entries, orbit = _witness_root(label, n, k)
    return RestrictedRoot(n + 1 if label == "A" else n, entries, orbit)


def _witness_root(label: str, n: int, k: int) -> tuple[tuple[tuple[int, int], ...], str]:
    """The entries and orbit of ``infinite_rank_root_sequence``, unchecked."""
    if label == "A":
        return ((0, -1), (n, 1)), ORBIT_ALPHA1
    if label == "B":
        if k == 1:
            return ((n - 1, 1),), ORBIT_ALPHA1
        return ((0, -1), (n - 1, 1)), ORBIT_MIDDLE
    if label == "C":
        return ((0, 1), (n - 1, 1)), ORBIT_MIDDLE
    return ((1, 1), (n - 1, 1)), ORBIT_ALPHA1


def _witness(system: DirectSystem) -> tuple[str, int, int] | None:
    """The root-system label, the witness index k0 (the first nonzero base
    coefficient, 1-based) and the first witness level of an infinite-rank
    chain; None for a finite-rank chain or the zero weight, which have no
    certificate."""
    k0 = next((i + 1 for i, c in enumerate(system.base_coeffs) if c), None)
    if system.mode != MODE_INFINITE or k0 is None:
        return None
    label = FAMILIES[system.family].psi_label
    return label, k0, max(k0, _WITNESS_FLOOR[label])


def _witness_pairing(witness: tuple[str, int, int], level: int,
                     rows: tuple[SpaceDatum, Sequence[int], Sequence[int]],
                     ) -> tuple[int, int, int] | None:
    """The per-level step of the certificate: one witness level's rows
    (datum, f-coefficients, 4 rho) reduced, through the entries of its
    witness root (``infinite_rank_root_sequence``), to the integers n,
    R = <4 rho, alpha> = 4|alpha|^2 rho_alpha and K = 2m|alpha|^2 =
    4|alpha|^2 y_alpha.  None
    where the level cannot serve: a half root, no witness root, or
    mu_alpha < 1."""
    label, k0, _ = witness
    datum, coeffs, r4 = rows
    entries, orbit = _witness_root(label, level, k0)
    m, mh = datum.mults_for(orbit)
    norm_sq = mu = r = 0
    for i, v in entries:
        norm_sq, mu, r = norm_sq + v * v, mu + v * coeffs[i], r + v * r4[i]
    if mh != 0 or m <= 0 or mu < norm_sq:
        return None
    return level, r, 2 * m * norm_sq


def _certificate_evidence(system: DirectSystem, pairings: Sequence[tuple[int, int, int] | None],
                          last_value: Fraction) -> dict | None:
    """Build divergence evidence from the witness pairings (n, R, K), one
    per witness level in level order, as ``_witness_pairing`` gives them.

    With K the same at every level, the factor (1 + y_alpha/rho_alpha)^(-1)
    is R/(R + K), and the affine test rho_alpha = t n + s is
    cross-multiplied in integers.  Once it holds, the schedule term
    1/(1 + epsilon/(delta + j)) at epsilon = y/t, delta = shift + s/t and
    j = n - shift is that factor, so the product needs no second derivation
    through ``divergence_certificate``.

    Returns None when the pairings cannot support it (too few usable
    levels, a level that cannot serve, or the affine/bound checks fail).
    """
    if len(pairings) < 2 or None in pairings:
        return None
    label, k0, _ = _witness(system)
    K = pairings[0][2]
    if any(k != K for _, _, k in pairings):
        return None  # y_alpha is not constant
    # |alpha|^2 is fixed by the label and k0
    norm_sq = infinite_rank_root_sequence(label, pairings[0][0], k0).norm_sq()
    (n1, r1, _), (n2, r2, _) = pairings[:2]
    if r2 <= r1 or any((r - r1) * (n2 - n1) != (r2 - r1) * (n - n1) for n, r, _ in pairings):
        return None  # rho_alpha is not affine with positive slope
    t = Fraction(r2 - r1, 4 * norm_sq * (n2 - n1))
    s = Fraction(r1, 4 * norm_sq) - t * n1
    shift = max(0, math.ceil(-s / t))
    usable = [(n, r) for n, r, _ in pairings if n - shift >= 1]  # shifted index starts at 1
    if len(usable) < 2:
        return None
    epsilon = Fraction(K, 4 * norm_sq) / t
    delta = shift + s / t
    js = [level - shift for level, _ in usable]
    if epsilon / (delta + js[0]) > Fraction(5, 2):
        return None
    partial = Fraction(math.prod(r for _, r in usable), math.prod(r + K for _, r in usable))
    contiguous = js == list(range(js[0], js[-1] + 1))
    return {
        "witness_levels": [level for level, _ in usable],
        "witness_index": k0,
        "rho_slope": t,
        "rho_intercept": s,
        "epsilon": epsilon,
        "delta": delta,
        "index_shift": shift,
        "partial_product": partial,
        "decay_bound": decay_bound(epsilon, delta, js[0], js[-1]) if contiguous else None,
        "last_value_below_partial": last_value <= partial,
    }


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassifyConfig:
    """The threshold of the infinite-rank verdict: crossing ``zero_floor``
    yields ZeroLimit even without a certificate."""

    zero_floor: Fraction = Fraction(1, 10 ** 6)

    def __post_init__(self):
        object.__setattr__(self, "zero_floor", Fraction(self.zero_floor))
        if self.zero_floor <= 0:
            raise ValueError("zero_floor must be positive")


@dataclass(frozen=True)
class ConvergenceReport:
    verdict: str
    limit_estimate: float | None
    evidence: dict = field(compare=False)

    @property
    def decided(self) -> bool:
        return self.verdict != VERDICT_UNDECIDED


def classify(seq: CSequence, config: ClassifyConfig | None = None) -> ConvergenceReport:
    """Decide the limit of an overlap sequence.

    Finite-rank chains converge to a positive limit: the verdict reports
    ``exact_limit`` in its evidence and its float as ``limit_estimate``,
    and is never Undecided.  Infinite-rank chains with a nonzero weight
    decay to zero: the verdict comes from the witness-root certificate or
    from crossing the floor, whichever is available.  Anything else stays
    Undecided with a request for more levels.

    The witness pairings are read from the rows of the witness levels as
    ``_chain_rows`` extends them, each level in place from the one below,
    so a level past the first costs O(its new indices), not O(rank).
    """
    if not seq.levels:
        raise ValueError("empty sequence")
    for earlier, later in zip(seq.values, seq.values[1:]):
        _check_step(earlier, later)
    if seq.system.mode == MODE_FINITE:
        return _decide(seq, config or ClassifyConfig(), exact_limit(seq.system))
    witness = _witness(seq.system)
    levels = [level for level in seq.levels if witness and level >= witness[2]]
    pairings = [_witness_pairing(witness, level, rows[:3])
                for level, rows in zip(levels, _chain_rows(seq.system, levels))]
    return _decide(seq, config or ClassifyConfig(), pairings)


def _check_step(earlier: Fraction, later: Fraction) -> None:
    """Raise if the value at a level exceeds the one at the level below."""
    if later > earlier:
        raise ValueError(
            "overlap sequence increased between levels; this cannot happen "
            "for a propagated dominant weight and indicates an upstream bug"
        )


def _decide(seq: CSequence, config: ClassifyConfig,
            limit_or_pairings: Fraction | Sequence[tuple[int, int, int] | None],
            ) -> ConvergenceReport:
    """The verdict of ``classify`` on a nonempty, checked nonincreasing
    sequence, given a finite-rank chain's exact limit, which must lie in
    (0, last value], or the witness pairings of its witness levels."""
    last_level, last_value = seq.last()
    base_evidence = {
        "mode": seq.system.mode,
        "levels_scanned": len(seq.levels),
        "last_level": last_level,
        "last_value": last_value,
    }
    if seq.system.mode == MODE_FINITE:
        limit = base_evidence["limit"] = limit_or_pairings
        if not 0 < limit <= last_value:
            raise ArithmeticError(f"internal error: the limit {limit} is not in "
                                  f"(0, {last_value}], the value at level {last_level}")
        if limit < 1:  # a limit of 1 makes every value 1
            return ConvergenceReport(VERDICT_POSITIVE, float(limit), base_evidence)
    # nonincreasing, so every value is 1 exactly when the first and last are
    if seq.values[0] == 1 and last_value == 1:
        return ConvergenceReport(VERDICT_POSITIVE, 1.0,
                                 base_evidence | {"constant_one": True})
    certificate = _certificate_evidence(seq.system, limit_or_pairings, last_value)
    floor_crossed = last_value < config.zero_floor
    if certificate is not None or floor_crossed:
        return ConvergenceReport(VERDICT_ZERO, 0.0, base_evidence | {
            "floor": config.zero_floor,
            "floor_crossed": floor_crossed,
            "certificate": certificate,
        })
    return ConvergenceReport(VERDICT_UNDECIDED, None, base_evidence | {
        "request": "more levels",
        "reason": "no divergence certificate yet and the floor was not crossed",
    })


def classify_scan(system: DirectSystem, max_level: int,
                  config: ClassifyConfig | None = None,
                  batch: int = 25, max_workers: int = 1) -> tuple[CSequence, ConvergenceReport]:
    """Scan the chain from its base level up, one level at a time, until the
    verdict is decided or ``max_level`` is reached.  Returns the scanned
    sequence and the final report.

    Values come from one serial fold, and each is checked against the one
    below it as it arrives.  On an infinite-rank chain each level's rows are
    reduced to the level's witness pairing as the level arrives, so the scan
    builds every level once and keeps a few integers per level for the
    certificate; a finite-rank scan reads its table and exact limit once,
    builds at most four spaces and decides at its first verdict.  The
    verdict is taken every ``batch`` levels and at ``max_level``, so
    ``batch`` sets where a scan may stop, never the value at a level.
    ``max_workers`` is ignored: every scan is serial.  It stays because the
    benchmark harness in ``perfbench/`` passes ``max_workers=1``, and that
    harness must run unchanged on every revision it compares.
    """
    config = config or ClassifyConfig()
    if max_level < system.base_level:
        raise ValueError("max_level is below the base level")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    levels = range(system.base_level, max_level + 1)
    witness = _witness(system)
    finite = system.mode == MODE_FINITE
    values, pairings = [], []
    for level, (value, rows_or_limit) in zip(levels, _values_at(system, levels)):
        if values:
            _check_step(values[-1], value)
        values.append(value)
        if witness and level >= witness[2]:
            pairings.append(_witness_pairing(witness, level, rows_or_limit))
        if len(values) % batch == 0 or level == max_level:
            seq = CSequence(system, tuple(levels[:len(values)]), tuple(values))
            report = _decide(seq, config, rows_or_limit if finite else pairings)
            if report.decided or level == max_level:
                return seq, report
