"""Exact evaluation of the normalized spherical overlap product.

For a dominant weight mu in the spherical lattice the normalized constant
factors over the positive nonmultipliable roots.  Each root contributes a
finite rational product driven by

    mu_alpha = <mu, alpha>/<alpha, alpha>   (a nonnegative integer)
    rho_alpha, x_alpha, y_alpha             (quarter-integer parameters)

with x_alpha = (m_half + 2)/4 and y_alpha = (m_half + 2 m)/4 built from the
root multiplicities.  Everything here is exact Fraction arithmetic; the
log-Gamma evaluator ``c_gamma`` is the independent floating-point oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rootdata import (
    ORBIT_ALPHA1,
    ROOT_PATTERNS,
    RestrictedRoot,
    SpaceDatum,
    Weight,
    _as_f_vector,
    _as_int,
    _first_integrality_violation,
    _rho4,
    _xi_f_ints,
    iter_root_support,
    lambda_alpha,
    pad_xi_coeffs,
    rho,
    simple_roots,
    weight_from_xi,
)


@dataclass(frozen=True)
class CFactorParams:
    """Per-root data for one factor of the overlap product."""

    mu_alpha: int
    rho_alpha: Fraction
    x_alpha: Fraction
    y_alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu_alpha", _as_int(self.mu_alpha, "mu_alpha"))
        for name in ("rho_alpha", "x_alpha", "y_alpha"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Rational):
                raise ValueError(f"{name} must be a rational number, got {value!r}")
            object.__setattr__(self, name, Fraction(value))
        if self.mu_alpha < 0:
            raise ValueError("mu_alpha must be a nonnegative integer")
        if self.rho_alpha <= 0:
            raise ValueError("rho_alpha must be positive")
        if self.x_alpha < Fraction(1, 2) or (4 * self.x_alpha).denominator != 1:
            raise ValueError("x_alpha must be a quarter-integer >= 1/2")
        if self.y_alpha < self.x_alpha - Fraction(1, 2) or (4 * self.y_alpha).denominator != 1:
            raise ValueError("y_alpha must be a quarter-integer >= x_alpha - 1/2")

    @classmethod
    def from_multiplicities(cls, mu_alpha: int, rho_alpha, m_alpha: int, m_half: int):
        m_alpha, m_half = _as_int(m_alpha, "m_alpha"), _as_int(m_half, "m_half")
        return cls(
            mu_alpha=mu_alpha,
            rho_alpha=rho_alpha,
            x_alpha=Fraction(m_half + 2, 4),
            y_alpha=Fraction(m_half + 2 * m_alpha, 4),
        )

    @classmethod
    def from_root(cls, datum: SpaceDatum, mu, root):
        m, mh = datum.mults_for(root.orbit)
        if m == 0 and mh == 0:
            raise ValueError(f"{root!r} has zero multiplicity, so it is not a root here")
        if not isinstance(mu, Weight):
            mu = weight_from_xi(datum, mu)
        mu_a = lambda_alpha(mu, root)
        if mu_a.denominator != 1 or mu_a < 0:
            raise ValueError(f"pairing of mu with {root!r} is {mu_a}, not a nonnegative integer")
        return cls.from_multiplicities(mu_a.numerator, lambda_alpha(rho(datum), root), m, mh)


def c_factor_reference(params: CFactorParams) -> Fraction:
    """One root's contribution to the normalized overlap product, as the
    literal transcription of the displayed product

        ((1+x/rho)(1+y/rho))^(-mu) * prod_{j<mu} [(1+j/(2rho)) *
        (1+(mu+j)/(2rho))] / [(1+j/(x+rho)) (1+j/(y+rho))].

    By Legendre duplication (2 rho)_{2 mu} = 4^mu (rho)_mu (rho + 1/2)_mu
    it equals (rho)_mu (rho + 1/2)_mu / ((rho + x)_mu (rho + y)_mu), whose
    four runs of integer terms ``c_value`` multiplies (``_root_terms``)."""
    mu, rho, x, y = params.mu_alpha, params.rho_alpha, params.x_alpha, params.y_alpha
    value = ((1 + x / rho) * (1 + y / rho)) ** -mu
    for j in range(mu):
        value *= (1 + Fraction(j, 1) / (2 * rho)) * (1 + Fraction(mu + j, 1) / (2 * rho))
        value /= (1 + Fraction(j, 1) / (x + rho)) * (1 + Fraction(j, 1) / (y + rho))
    return value


def _reject(datum: SpaceDatum, w):
    root = _first_integrality_violation(datum, w)
    assert root is not None
    val = lambda_alpha(_as_f_vector(datum, w), root)
    raise ValueError(
        f"weight is not in the spherical dominant lattice: pairing with {root!r} is {val}"
    )


# Entries kept by the root-factor memo.  Fixed, so that ``c-eval`` across
# many weights and the criterion-3 sweep hold a bounded set of integers; a
# chain scan reads it only for the two products of its table.
_FACTOR_CACHE_SIZE = 4096


def _root_terms(mu_a: int, rho8: int, x8: int, y8: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """One root factor, from mu_alpha and 8 (rho_alpha, x_alpha, y_alpha),
    which are integers on every catalog root: the starts of the four runs
    of mu_alpha integer terms, each stepping by 8, of (rho)_mu (rho + 1/2)_mu
    over (rho + x)_mu (rho + y)_mu in ``c_factor_reference``, scaled by 8.
    A run of pair roots (``_rows``) has the runs of one root."""
    return (rho8, rho8 + 4), (rho8 + x8, rho8 + y8)


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _root_factor(mu_a: int, rho8: int, x8: int, y8: int) -> tuple[int, int]:
    """The runs of ``_root_terms`` multiplied out and reduced by one gcd per
    cache miss, so every lookup hands the caller a small coprime pair."""
    (a, b), (c, d) = _root_terms(mu_a, rho8, x8, y8)
    fn = _run_product(a, mu_a) * _run_product(b, mu_a)
    fd = _run_product(c, mu_a) * _run_product(d, mu_a)
    g = math.gcd(fn, fd)
    return fn // g, fd // g


# Terms of a run that ``_run_product`` multiplies in one ``math.prod``.  Every
# run of a catalog weight with coefficients up to a few dozen is shorter.
_SPLIT_TERMS = 64


def _run_product(start: int, count: int) -> int:
    """The product of the run start, start + 8, ..., of count terms: one
    ``math.prod`` up to ``_SPLIT_TERMS`` terms, and above it the product of
    its two halves, so a long run multiplies balanced big integers, not one
    growing product by one small term at a time (quadratic in the length)."""
    if count <= _SPLIT_TERMS:
        return math.prod(range(start, start + 8 * count, 8))
    half = count // 2
    return _run_product(start, half) * _run_product(start + 8 * half, count - half)


def c_value(datum: SpaceDatum, mu) -> Fraction:
    """The normalized overlap constant at dominant weight mu, exactly.

    ``mu`` may be a Weight or a sequence of fundamental-weight coefficients
    (``_f_ints``).  Rejects weights outside the spherical dominant lattice,
    naming the lexicographically first pattern root that fails integrality.
    Pattern roots of total multiplicity zero contribute nothing.  Computed by
    ``_product`` over ``_rows`` at lo = 0, reduced after each f-index row,
    so its pair is already in lowest terms.  A row costs one factor per run
    of equal f-coefficients below it (``_rows``), so a weight with a few
    distinct coefficients costs O(rank) factors, not one per root.
    """
    return Fraction(*_product(_rows(datum, _f_ints(datum, mu), 0)))


def _f_ints(datum: SpaceDatum, mu) -> list[int]:
    """The integer f-coefficients of a weight argument of ``c_value`` and
    ``c_oracle``, as ``_xi_f_ints`` gives them (on type A, the
    representative with a zero first coefficient).  A Weight is read by its
    pairings with the simple roots, which are its fundamental-weight
    coefficients: it lies in the spherical dominant lattice iff they are
    nonnegative integers, and is rejected like ``c_value`` otherwise.  Any
    other sequence is read as those coefficients."""
    if isinstance(mu, Weight):
        vec = _as_f_vector(datum, mu)
        xi = [lambda_alpha(vec, root) for root in simple_roots(datum)]
        if any(c.denominator != 1 or c < 0 for c in xi):
            _reject(datum, vec)
        mu = [c.numerator for c in xi]
    return _xi_f_ints(datum.psi, mu)


def _product(rows: Iterable[list[tuple[int, int, int, int]]]) -> tuple[int, int]:
    """Reduced integer numerator/denominator of the product of the rows'
    factors (``_rows``): each factor key is passed whole to the
    ``_root_factor`` memo, whose coprime pair is multiplied in as small
    integers, and each row is reduced by one gcd and cancelled into the
    running pair by gcds, as Fraction multiplication does.  Over
    ``_rows(datum, coeffs, lo)`` this is the overlap product over the
    pattern roots whose largest f-index is at least ``lo``: the single
    roots s*f_j and the pairs f_j -+ f_i (i < j) with j >= lo.  With
    lo = 0 it is the whole product.  Rejects like ``c_value``."""
    num = den = 1
    for row in rows:
        rn = rd = 1
        for key in row:
            fn, fd = _root_factor(*key)
            rn *= fn
            rd *= fd
        g = math.gcd(rn, rd)
        rn, rd = rn // g, rd // g
        g1, g2 = math.gcd(num, rd), math.gcd(rn, den)
        num, den = (num // g1) * (rn // g2), (den // g2) * (rd // g1)
    return num, den


@functools.lru_cache(maxsize=256)
def _row_plan(datum: SpaceDatum) -> tuple[int, bool, tuple[int, int] | None,
                                          tuple[int, int] | None, tuple[int, ...]]:
    """What ``_rows`` needs of a datum, memoized per datum: (s, sums,
    single, pair, r4) with s and sums from ``ROOT_PATTERNS``, single and
    pair the (8x, 8y) of the single roots s*f_j and of a pair root, or None
    where the orbit has multiplicity zero, and r4 = 4 rho (``_rho4``).

    Checks once per datum that every rho pairing a row can list is
    positive: 2 r4[j] / s on the single roots, when there are any (s != 0)
    and they are roots (single), and on the pair roots, when they are
    roots, r4[j] - r4[i] and, with sums, r4[j] + r4[i] for i < j.  Those
    are all positive iff r4 increases and r4[0] + r4[1] > 0.
    """
    s, sums, pair_orbit = ROOT_PATTERNS[datum.psi.label]
    single, pair = ((2 * (mh + 2), 2 * (mh + 2 * m)) if m or mh else None
                    for m, mh in map(datum.mults_for, (ORBIT_ALPHA1, pair_orbit)))
    r4 = _rho4(datum)
    least = []
    if s and single:
        least.append(2 * min(r4) // s)
    if pair and len(r4) > 1:
        least.append(min(b - a for a, b in zip(r4, r4[1:])))
        if sums:
            least.append(r4[0] + r4[1])
    if least and min(least) <= 0:
        raise ArithmeticError("internal error: nonpositive rho pairing on a root")
    return s, sums, single, pair, r4


def _rows(datum: SpaceDatum, coeffs: Sequence[int],
          lo: int) -> Iterator[list[tuple[int, int, int, int]]]:
    """The nontrivial factors of each f-index row j >= lo of one weight's
    integer f-coefficients, one list per row, each factor as the flat key
    (mu_alpha, 8 rho_alpha, 8 x_alpha, 8 y_alpha) of ``_root_factor``
    and ``_root_terms``: the single root s*f_j, then one factor for each
    run [a, b) below j, a maximal range of indices i < j with equal integer
    f-coefficients, standing for all its roots f_j - f_i, and one for all
    its f_j + f_i where they occur.  An orbit of multiplicity zero gives no
    factors, as its pattern entries are not roots.  What depends only on
    the datum comes from ``_row_plan``.

    A run telescopes.  The pair roots have no half roots, so x = 1/2 and
    y = m/2; with x = 1/2 the (rho + 1/2)_mu runs of ``_root_terms`` cancel,
    and a pair root's factor is (rho)_mu / (rho + m/2)_mu.
    Along a run mu_alpha is fixed, and 4 rho steps by 4m per index
    (``_rho4``), so rho_alpha moves by m/2 from root to root and the run's
    product is (rho)_mu / (rho + L m/2)_mu at the run's smallest rho_alpha,
    for L = b - a: the factor of one pair root of multiplicity L m, which is
    how the run is listed.  So a row has at most 2 (runs below j) + 1
    factors, and its cost grows with its runs, not with j.

    Every root of a row is validated, as ``c_value`` rejects, before roots
    of multiplicity zero or mu_alpha = 0 are skipped: once per run, on
    which the coefficient difference and sum are constant.  Every rho
    pairing a row can list is positive (``_row_plan`` checks them).
    """
    s, sums, single, pair, r4 = _row_plan(datum)
    # the run ends: every i with coeffs[i] != coeffs[i-1], then len(coeffs)
    ends = [i for i in range(1, len(coeffs)) if coeffs[i] != coeffs[i - 1]] + [len(coeffs)]
    for j in range(lo, len(coeffs)):
        mj, rj = coeffs[j], r4[j]
        row = []
        if s:  # root s*f_j
            mu_a, rem = divmod(mj, s)
            if mu_a < 0 or rem:
                _reject(datum, coeffs)
            if mu_a and single:
                row.append((mu_a, 2 * rj // s, single[0], single[1]))
        a = 0
        for b in ends:  # the run [a, b) below j: roots f_j - f_i, f_j + f_i
            if a >= j:
                break
            if b > j:
                b = j
            diff = mj - coeffs[a]
            tot = mj + coeffs[a] if sums else 0
            if diff < 0 or diff & 1 or tot < 0:
                _reject(datum, coeffs)
            if pair:
                y8 = pair[1] * (b - a)  # one root of multiplicity (b - a) m
                if diff:  # rho_alpha is smallest at i = b - 1
                    row.append((diff >> 1, rj - r4[b - 1], pair[0], y8))
                if tot:  # and at i = a
                    row.append((tot >> 1, rj + r4[a], pair[0], y8))
            a = b
        yield row


def _log_cprime(lam: float, quarter_mh: float, m: int) -> float:
    return (-2.0 * lam * math.log(2.0) + math.lgamma(2.0 * lam)
            - math.lgamma(lam + quarter_mh + 0.5)
            - math.lgamma(lam + quarter_mh + 0.5 * m))


# Entries kept by the oracle's per-root memo, fixed like _FACTOR_CACHE_SIZE.
# The whole criterion-3 grid needs 524 of them for 6.5 M lookups.
_GAMMA_TERM_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_GAMMA_TERM_CACHE_SIZE)
def _gamma_term(lam4: int, scale: int, quarter: float, m: int) -> float:
    """``_log_cprime`` at lambda_alpha = lam4 / scale: one root's log-Gamma
    term, from 4 <lam, alpha>, 4 |alpha|^2, m_half / 4 and m_alpha."""
    return _log_cprime(lam4 / scale, quarter, m)


@functools.lru_cache(maxsize=256)
def _gamma_root_table(datum: SpaceDatum) -> tuple:
    """The roots ``c_gamma`` sums over, one flat row per root with
    everything that depends only on the datum: (i0, v0, i1, v1,
    4 * <rho, alpha>, 4 * |alpha|^2, m_half / 4, m, the rho half of the
    log-Gamma difference, orbit), for the root v0 f_{i0+1} + v1 f_{i1+1};
    a single root has v1 = 0.  Multiplicity-zero pattern entries are
    dropped; the order is that of ``iter_root_support``."""
    r4 = _rho4(datum)
    table = []
    for orbit, norm_sq, entries in iter_root_support(datum.psi):
        m, mh = datum.mults_for(orbit)
        if m == 0 and mh == 0:
            continue
        (i0, v0), (i1, v1) = entries if len(entries) == 2 else (entries[0], (0, 0))
        rho4 = r4[i0] * v0 + r4[i1] * v1
        scale = 4 * norm_sq
        quarter = mh / 4.0
        table.append((i0, v0, i1, v1, rho4, scale, quarter, m,
                      _gamma_term(rho4, scale, quarter, m), orbit))
    return tuple(table)


def c_gamma(datum: SpaceDatum, lam) -> float:
    """Floating-point oracle for the normalized overlap constant.

    ``lam`` is the already-shifted spectral parameter (mu plus the half-sum
    weight), as a Weight or f-coefficient vector of quarter-integers with
    positive pairings on every root; other input raises ValueError.
    Computed root by root through log-Gamma, so it shares no code path with
    the exact product.
    """
    return _gamma_sum(datum, _quarter_ints(datum, lam))


def _quarter_ints(datum: SpaceDatum, lam) -> list[int]:
    """Integer f-coefficients of 4 lam, for lam a Weight or f-coefficient
    vector of quarter-integers (``c_gamma``); a coordinate that is not one
    is named by its value."""
    vec4 = []
    for c in _as_f_vector(datum, lam):
        d = c.denominator
        if 4 % d:
            raise ValueError(f"lambda coordinate f{len(vec4) + 1} = {c} is not a quarter-integer")
        vec4.append(c.numerator * (4 // d))
    return vec4


def _gamma_sum(datum: SpaceDatum, vec4: list[int]) -> float:
    """``c_gamma`` from the integer f-coefficients of 4 lambda."""
    total = 0.0
    for i0, v0, i1, v1, rho4, scale, quarter, m, rho_term, orbit in _gamma_root_table(datum):
        lam4 = vec4[i0] * v0 + vec4[i1] * v1
        if lam4 == rho4:
            continue
        if lam4 <= 0:
            entries = ((i0, v0), (i1, v1)) if v1 else ((i0, v0),)
            root = RestrictedRoot(len(vec4), entries, orbit)
            raise ValueError(f"lambda must pair positively with every root: "
                             f"pairing with {root!r} is {Fraction(lam4, scale)}")
        total += _gamma_term(lam4, scale, quarter, m) - rho_term
    return math.exp(total)


def c_oracle(datum: SpaceDatum, mu) -> float:
    """``c_gamma`` at mu + rho: the floating-point value that
    ``c_value(datum, mu)`` should match.  ``mu`` is any weight argument of
    ``c_value``, read by the same ``_f_ints`` and rejected alike, and is
    shifted in integers, as 4 lambda = 4 mu + 4 rho."""
    return _gamma_sum(datum, [4 * a + r for a, r in zip(_f_ints(datum, mu), _rho4(datum))])


def _check_propagates(datum_m: SpaceDatum, datum_n: SpaceDatum) -> None:
    if datum_m.family != datum_n.family:
        raise ValueError(f"families differ: {datum_m.family!r} vs {datum_n.family!r}")
    if datum_m.grassmannian:
        if datum_m.param("p") != datum_n.param("p"):
            raise ValueError("fixed rank p differs between levels")
        if datum_m.param("q") < datum_n.param("q"):
            raise ValueError("higher level must have q at least the lower level's")
    elif datum_m.rank < datum_n.rank:
        raise ValueError("higher level must have rank at least the lower level's")


def overlap_q_squared(datum_m: SpaceDatum, datum_n: SpaceDatum, coeffs) -> Fraction:
    """Exact square of the limit-vector overlap between two levels of one
    chain: c(level m) / c(level n) for the same padded coefficient vector."""
    _check_propagates(datum_m, datum_n)
    low = pad_xi_coeffs(coeffs, datum_n.rank)
    high = pad_xi_coeffs(low, datum_m.rank)
    return c_value(datum_m, high) / c_value(datum_n, low)
