"""Direct systems of symmetric spaces and the rank dichotomy.

A chain is either finite-rank (Grassmannian families: p stays fixed, the
level is the growing q) or infinite-rank (the level IS the rank).  Along a
chain, a dominant weight propagates by keeping its fundamental-weight
coefficients and zero-padding; the overlap constants then form a
nonincreasing sequence whose limit is positive exactly in the finite-rank
case.  Both sides are read from one table per chain (``_chain_table``): at
finite rank c(q) is a rational function of q, whose leading ratio is the
exact limit (``exact_limit``); at infinite rank the step ratio
c(n+1)/c(n) is a rational function of n, whose leading terms give an
integer certificate that c tends to 0.  ``classify`` reads the verdict
from that table.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import Iterable, Iterator, Sequence

from .cfunc import _product, _root_terms, _rows
from .rootdata import (
    FAMILIES,
    SpaceDatum,
    Weight,
    _as_int,
    _as_ints,
    _f_ints_from_xi,
    build_space,
    pad_xi_coeffs,
    weight_from_xi,
)

VERDICT_POSITIVE = "PositiveLimit"
VERDICT_ZERO = "ZeroLimit"

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
        object.__setattr__(self, "base_coeffs", _as_ints(self.base_coeffs))
        if any(k < 0 for k in self.base_coeffs):
            raise ValueError("base coefficients must be nonnegative")
        fixed_p = None if self.fixed_p is None else _as_int(self.fixed_p, "fixed_p")
        if fam.param_kind == "pq":
            p = fam.fixed_p if fam.fixed_p is not None else fixed_p
            if p is None:
                raise ValueError(f"family {self.family!r} needs fixed_p")
            if fixed_p is not None and fixed_p != p:
                raise ValueError(f"family {self.family!r} fixes p = {p}")
            if p < 1:
                raise ValueError(f"fixed_p must be at least 1, got {p}")
            object.__setattr__(self, "fixed_p", p)
            if len(self.base_coeffs) != p:
                raise ValueError(f"need exactly p = {p} coefficients")
        else:
            if self.fixed_p is not None:
                raise ValueError(f"family {self.family!r} grows in rank; fixed_p does not apply")
            if not self.base_coeffs:
                raise ValueError("need at least one base coefficient")
            fam.n_for_rank(len(self.base_coeffs))  # validates the base rank exists

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


def datum_at_level(system: DirectSystem, level: int) -> SpaceDatum:
    if system.mode == MODE_FINITE:
        return build_space(system.family, p=system.fixed_p, q=level)
    return build_space(system.family, n=FAMILIES[system.family].n_for_rank(level))


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


_mults = operator.attrgetter("mult_middle", "mult_alpha1", "mult_half")


@dataclass(frozen=True)
class CSequence:
    """Overlap constants along a chain, exact and sorted by level."""

    system: DirectSystem
    levels: tuple[int, ...]
    values: tuple[Fraction, ...]

    def last(self) -> tuple[int, Fraction]:
        return self.levels[-1], self.values[-1]

    def extended(self, more_levels: Sequence[int]) -> "CSequence":
        """The chain's memoized table read at the union of the held and the
        given levels, so its values are those of ``c_sequence``."""
        levels = tuple(sorted(set(self.levels) | set(_as_ints(more_levels, "level"))))
        if len(levels) == len(self.levels):
            return self
        return CSequence(self.system, levels, tuple(_values_at(self.system, levels)))


def _values_at(system: DirectSystem, levels: Sequence[int]) -> Iterator[Fraction]:
    """Exact values at ascending levels, one at a time, from the chain's
    ``_chain_table``.

    The base level's value is the table's whole product.  Above it, a
    finite-rank value c(q) is the table's rational function at t = q - p - 1,
    and an infinite-rank value is the one below it times the step ratio
    c(n+1)/c(n), t = n - b, folded from the base.  The table's forms have
    positive slopes, so a form's values at t < T are ``range(b, b + a T, a)``:
    a level costs maps over ranges, one small Fraction and one multiply, whose
    two gcds pair a small term with a large one, not a row of rank n.  Since
    Fraction is canonical, every value is the one ``c_value`` gives.
    """
    value, forms = _chain_table(system)
    base = system.base_level
    if levels[0] < base:
        raise ValueError(f"level {levels[0]} is below the base level {base}")
    if system.mode == MODE_FINITE:
        return (value if level == base else _evaluate(forms, level - base - 1)
                for level in levels)
    const_num, const_den, num, den = forms
    steps = levels[-1] - base
    values = accumulate(map(Fraction, _products(const_num, num, steps),
                            _products(const_den, den, steps)), operator.mul, initial=value)
    return compress(values, map(set(levels).__contains__, range(base, base + steps + 1)))


def _products(const: int, forms: tuple, steps: int) -> Iterator[int]:
    """const * prod(a t + b) over the forms, for t = 0 .. steps - 1."""
    products = repeat(const, steps)
    for a, b in forms:
        products = map(operator.mul, products, range(b, b + a * steps, a))
    return products


def _evaluate(forms: tuple[int, int, tuple, tuple], t: int) -> Fraction:
    const_num, const_den, num, den = forms
    return Fraction(const_num * math.prod(a * t + b for a, b in num),
                    const_den * math.prod(c * t + d for c, d in den))


def exact_limit(system: DirectSystem) -> Fraction:
    """The exact limit of c(q) as q -> oo on a finite-rank chain: the ratio
    C_n prod a / (C_d prod c) of the leading coefficients of its
    ``_chain_table``, 4^-|lambda| / P_lambda^(2/d)(1^p) on every chain
    tested, as the BC -> A limit transition of Rosler, Koornwinder and Voit
    (Compositio Math. 149 (2013)) predicts.  Raises ValueError on an
    infinite-rank chain, ArithmeticError if c(q) has unequal degrees."""
    if system.mode != MODE_FINITE:
        raise ValueError(f"family {system.family!r} grows in rank; its limit is not a table's")
    return _table_limit(_chain_table(system)[1])


def _table_limit(forms: tuple[int, int, tuple, tuple]) -> Fraction:
    """The limit of the table's rational function as t -> oo."""
    const_num, const_den, num, den = forms
    if len(num) != len(den):
        raise ArithmeticError(f"internal error: the table has degree {len(num)} over {len(den)}")
    return Fraction(const_num * math.prod(a for a, _ in num),
                    const_den * math.prod(c for c, _ in den))


@functools.lru_cache(maxsize=256)
def _chain_table(system: DirectSystem) -> tuple[Fraction, tuple[int, int, tuple, tuple]]:
    """The values of a chain in closed form: (c(b), (C_n, C_d, num, den))
    with b the base level and C_n prod(a t + b) / (C_d prod(c t + d)) over
    the integer linear forms (a, b) in ``num`` and (c, d) in ``den`` equal
    to c(p+1+t) on a finite-rank chain and to c(b+t+1)/c(b+t) on an
    infinite-rank one, for every t >= 0.  Memoized like ``cfunc._row_plan``:
    the system is frozen and the table is tuples, so every value, extension
    and verdict of a chain reads it once per process.

    c(b) is the whole product at the base level.  The forms are read from
    the factor keys (mu_alpha, 8 rho_alpha, 8 x_alpha, 8 y_alpha) of
    ``cfunc._rows`` at the next three levels, over the integer
    f-coefficients of the propagated weight.

    Finite rank (p fixed, level q): only the half-root multiplicity
    m_half = d(q - p) moves with q (``rootdata.FamilyRow.mults_of``), and
    4 rho is linear in the multiplicities, so on every root 8 rho_alpha,
    8 x_alpha = 2(m_half + 2) and 8 y_alpha = 2(m_half + 2m) are affine in
    q, while mu_alpha depends only on the fixed weight.  For q >= p+1 the
    root set is fixed as well (at q = p the half roots, and on grass-real
    the single roots, have multiplicity zero), and a run of pair roots has
    a length fixed by the weight.  So all the factors of c(q) are read.

    Infinite rank (level n, the rank): each level adds one f-index, and
    with the multiplicities fixed along the chain, every root below it keeps
    its factor, so c(n+1)/c(n) is the product of the rows j >= lo, the
    ambient dimension of level n: the new row, with one root s*f_j and one
    factor per run of equal f-coefficients below it.  The new index extends
    the last run, so the runs below it are those of level n, which the base
    weight fixes; mu_alpha is fixed, and rho_alpha and the last run's
    length grow by a fixed step per level.  A level read whose
    multiplicities differ from the level below raises ArithmeticError; no
    catalog chain has one, as ``FamilyRow.mults_of`` gives every
    infinite-rank family constant ones.

    Either way a key equal at the three readings has only constant forms.
    A key that moves must keep mu, and its third reading must be twice the
    second less the first.  Its runs of mu terms (``cfunc._root_terms``)
    start at s1 at the first reading and at s2 at the second, so each run
    is the mu forms (s2 - s1) t + s1 + 8j.  A numerator run equal to a
    denominator run at both readings cancels before it is expanded: on a
    pair root x = 1/2, so its (rho + 1/2) run is its (rho + x) run, and a
    pair key stands for two runs.  The runs left are kept per key, and
    each of their forms with a nonzero slope is divided by its content and
    counted as it is generated (``_forms``), so a table holds its keys'
    runs and its distinct forms, not every term; equal forms cancel.  The
    rest, the constant forms included, is
    C_n / C_d = F(0) prod d / prod b over the forms left, with F(0) the
    table's value at t = 0: the product of the first reading's rows.
    Raises ArithmeticError if the factors change in number, a key is not
    affine or its mu moves, or a form could turn nonpositive at some t >= 0.
    """
    infinite = system.mode == MODE_INFINITE
    base = system.base_level
    readings, mults, lo = [], None, 0
    for level in range(base, base + 4):
        datum, xi = _propagated_xi(system, level)
        coeffs = _f_ints_from_xi(datum.psi, xi)
        rows = list(_rows(datum, coeffs, lo))
        if level == base:
            value = Fraction(*_product(rows))
        elif infinite and _mults(datum) != mults:
            raise ArithmeticError(
                f"internal error: level {level} does not extend the level below it")
        else:
            if level == base + 1:
                at_zero = Fraction(*_product(rows))
            readings.append([key for row in rows for key in row])
        mults, lo = _mults(datum), len(coeffs) if infinite else 0
    if len({len(reading) for reading in readings}) != 1:
        raise ArithmeticError("internal error: the root set moves with the level")
    num_runs, den_runs = [], []
    for first, second, third in zip(*readings):
        if first == second == third:  # only constant forms, which F(0) holds
            continue
        mu, rho1, x1, y1 = first
        _, rho2, x2, y2 = second
        if second[0] != mu or third != (mu, 2 * rho2 - rho1, 2 * x2 - x1, 2 * y2 - y1):
            raise ArithmeticError("internal error: a root factor is not affine in the level")
        (num1, den1), (num2, den2) = _root_terms(*first), _root_terms(*second)
        # intercepts are positive (``cfunc._row_plan`` checks rho), so a form
        # turns nonpositive at some t >= 0 only if its slope is negative
        if min(map(operator.sub, num2 + den2, num1 + den1)) < 0:
            raise ArithmeticError("internal error: a linear form of the table decreases")
        num, den = [*zip(num1, num2)], [*zip(den1, den2)]
        for run in zip(num1, num2):  # a run in both cancels before it is expanded
            if run in den:
                num.remove(run)
                den.remove(run)
        num_runs.append((mu, num))
        den_runs.append((mu, den))
    # counted as they are generated, so only distinct forms are held
    num, den = Counter(_forms(num_runs)), Counter(_forms(den_runs))
    num, den = (tuple(sorted((a - b).elements())) for a, b in ((num, den), (den, num)))
    const = at_zero * Fraction(math.prod(d for _, d in den), math.prod(b for _, b in num))
    return value, (const.numerator, const.denominator, num, den)


def _forms(runs: list[tuple[int, list[tuple[int, int]]]]) -> Iterator[tuple[int, int]]:
    """The forms (s2 - s1) t + s1 + 8j, j < mu, with a nonzero slope, of
    each run (s1, s2) of each key's (mu, runs), divided by their content."""
    for mu, key_runs in runs:
        for s1, s2 in key_runs:
            slope = s2 - s1
            if slope:
                for b in range(s1, s1 + 8 * mu, 8):
                    g = math.gcd(slope, b)
                    yield slope // g, b // g


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


def _decay_certificate(base: int, forms: tuple[int, int, tuple, tuple]) -> dict:
    """Why c(n) -> 0 on an infinite-rank chain, in integers, from its step
    ratio R(n) = c(n+1)/c(n) = P(t)/Q(t), t = n - base (``_chain_table``).

    The ratio tends to l = ``_table_limit``.  If l < 1, take r = (1+l)/2 =
    u/v: u Q - v P has a positive leading coefficient, so past the Cauchy
    bound of its roots it is positive, and R(n) < r from that level N on,
    so c(n) <= c(N) r^(n-N).  If l = 1, then R(n) = 1 - kappa/n + O(n^-2)
    with kappa = (Q_(D-1) - P_(D-1)) / Q_D from the second coefficients;
    for kappa > 0, 2n(Q - P) - kappa Q has the leading coefficient kappa
    Q_D > 0, so past its Cauchy bound R(n) < 1 - kappa/(2n), and c(n) -> 0
    because the sum of 1/n diverges.  The paper's theorem makes c tend to 0
    on every infinite-rank chain with a nonzero weight, so l > 1, or l = 1
    with kappa <= 0, raises ArithmeticError, as unequal degrees do.
    """
    const_num, const_den, num, den = forms
    ell = _table_limit(forms)
    p, q = _poly(const_num, num), _poly(const_den, den)
    if ell < 1:
        r = (1 + ell) / 2
        gap = [r.numerator * b - r.denominator * a for a, b in zip(p, q)]
        return {"ratio_limit": ell, "ratio_bound": r, "from_level": base + _cauchy_bound(gap)}
    kappa = Fraction(q[-2] - p[-2], q[-1]) if len(q) > 1 else Fraction(0)
    if ell > 1 or kappa <= 0:
        raise ArithmeticError(f"internal error: the step ratio tends to {ell} with kappa "
                              f"{kappa}, so an infinite-rank chain would not tend to 0")
    # 2n(Q - P) - kappa Q at n = t + base, times kappa's denominator; Q - P
    # has degree D - 1, as P and Q have the same leading coefficient
    diff = [2 * kappa.denominator * (b - a) for a, b in zip(p[:-1], q[:-1])]
    gap = [base * d + lower - kappa.numerator * b
           for d, lower, b in zip(diff + [0], [0] + diff, q)]
    return {"ratio_limit": ell, "kappa": kappa, "from_level": base + _cauchy_bound(gap)}


def _poly(content: int, forms: Iterable[tuple[int, int]]) -> list[int]:
    """content * prod(a t + b) as integer coefficients, lowest degree first."""
    out = [content]
    for a, b in forms:
        out = [b * c + a * lower for c, lower in zip(out + [0], [0] + out)]
    return out


def _cauchy_bound(poly: list[int]) -> int:
    """The least integer T >= 1 + max |c_i| / c_lead (0 for a constant):
    every real root lies below Cauchy's bound, so a polynomial with a
    positive leading coefficient is positive for every t >= T."""
    *lower, lead = poly
    return 1 + max((-(-abs(c) // lead) for c in lower), default=-1)


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ConvergenceReport:
    verdict: str
    limit_estimate: float
    evidence: dict = field(compare=False)


def classify(seq: CSequence) -> ConvergenceReport:
    """Decide the limit of an overlap sequence from its chain's table.

    Finite-rank chains converge to a positive limit: the verdict reports
    ``exact_limit`` in its evidence and its float as ``limit_estimate``.
    Infinite-rank chains with a nonzero weight tend to zero: the verdict
    carries the step-ratio certificate (``_decay_certificate``).  The zero
    weight gives 1 at every level on either kind.  No verdict waits for
    more levels: the table decides at any length.  Raises ValueError if a
    value exceeds the one at the level below (``_increases``), and
    ArithmeticError if a finite-rank limit does not lie in (0, last value].
    """
    if not seq.levels:
        raise ValueError("empty sequence")
    if _increases(seq.values):
        raise ValueError(
            "overlap sequence increased between levels; this cannot happen "
            "for a propagated dominant weight and indicates an upstream bug"
        )
    system = seq.system
    forms = _chain_table(system)[1]
    last_level, last_value = seq.last()
    evidence = {
        "mode": system.mode,
        "levels_scanned": len(seq.levels),
        "last_level": last_level,
        "last_value": last_value,
    }
    if system.mode == MODE_FINITE:
        limit = evidence["limit"] = _table_limit(forms)
        if not 0 < limit <= last_value:
            raise ArithmeticError(f"internal error: the limit {limit} is not in "
                                  f"(0, {last_value}], the value at level {last_level}")
    if system.trivial:
        return ConvergenceReport(VERDICT_POSITIVE, 1.0, evidence | {"constant_one": True})
    if system.mode == MODE_FINITE:
        return ConvergenceReport(VERDICT_POSITIVE, float(limit), evidence)
    return ConvergenceReport(VERDICT_ZERO, 0.0, evidence | {
        "certificate": _decay_certificate(system.base_level, forms)})


def _increases(values: Sequence[Fraction]) -> bool:
    """Whether some value exceeds the one before it, in one C-level pass:
    v[i+1] > v[i] as n[i+1] d[i] > n[i] d[i+1] over the numerators and the
    (positive) denominators, the cross-products ``Fraction.__gt__`` compares,
    without a Python-level comparison per pair."""
    nums = tuple(map(operator.attrgetter("numerator"), values))
    dens = tuple(map(operator.attrgetter("denominator"), values))
    return any(map(operator.gt, map(operator.mul, nums[1:], dens),
                   map(operator.mul, nums, dens[1:])))


def classify_scan(system: DirectSystem, max_level: int | None = None,
                  batch: int = 25, max_workers: int = 1) -> tuple[CSequence, ConvergenceReport]:
    """Scan the chain's levels from its base level to min(max_level, base
    + batch - 1), or to base + batch - 1 when max_level is None (no cap),
    and decide: ``c_sequence`` at those levels, then ``classify``.  Returns
    the scanned sequence and its report.

    Both read the chain's memoized table, so a scan builds at most four
    spaces whatever its length.  ``batch`` sets where the scan stops,
    never the value at a level.  ``max_workers`` is ignored: every scan is
    serial.  It stays because the benchmark harness in ``perfbench/``
    passes ``max_workers=1``, and that harness must run unchanged on every
    revision it compares.
    """
    batch = _as_int(batch, "batch")
    base = system.base_level
    top = base + batch - 1
    if max_level is not None:
        max_level = _as_int(max_level, "max_level")
        if max_level < base:
            raise ValueError("max_level is below the base level")
        top = min(max_level, top)
    if batch < 1:
        raise ValueError("batch must be at least 1")
    seq = c_sequence(system, range(base, top + 1))
    return seq, classify(seq)
