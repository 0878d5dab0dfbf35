"""Shared test fixtures: canonical small instances of every catalog family,
a closed-form overlap oracle for the group spaces, the log-Gamma oracle's
sum written out, a chain table read term by term, and the infinite-rank
fold one step at a time."""

import math
from collections import Counter
from fractions import Fraction

from sphelim import limits
from sphelim.cfunc import _log_cprime, _product, _root_terms, _rows
from sphelim.rootdata import (
    FAMILIES,
    RestrictedRoot,
    SpaceDatum,
    _f_ints_from_xi,
    build_space,
    iter_root_support,
    rho,
)


def small_instances() -> list[SpaceDatum]:
    """One modest-rank member of each of the thirteen catalog rows."""
    return [
        build_space("group-su", n=4),
        build_space("group-spin-odd", n=3),
        build_space("group-spin-even", n=4),
        build_space("group-sp", n=3),
        build_space("grass-complex", p=2, q=5),
        build_space("su-over-so", n=4),
        build_space("su-over-sp", n=3),
        build_space("grass-real", p=3, q=5),
        build_space("so-over-u-even", n=3),
        build_space("so-over-u-odd", n=3),
        build_space("grass-quaternion", p=2, q=4),
        build_space("sp-over-u", n=4),
        build_space("rank1-real", q=5),
    ]


def instances_at_rank(rank: int, q_offset: int = 1) -> list[SpaceDatum]:
    """Every catalog row that admits the given rank, one instance each.

    Grassmannian rows are taken at q = p + q_offset; single-parameter rows
    at whichever n realizes the rank.  Rows whose rank floor exceeds
    ``rank`` (D needs rank >= 4, rank1-real is rank 1 only) are skipped.
    """
    out = []
    for fam in FAMILIES.values():
        if fam.param_kind == "pq":
            p = fam.fixed_p if fam.fixed_p is not None else rank
            if fam.rank_of(p, p + q_offset) != rank:
                continue
            out.append(build_space(fam.slug, p=p, q=p + q_offset))
        else:
            for n in (rank, rank + 1):
                if n >= fam.min_n and fam.rank_of(n) == rank:
                    out.append(build_space(fam.slug, n=n))
                    break
    return out


def oracle_grid_instances() -> list[SpaceDatum]:
    """The criterion-3 sweep: every family, ranks up to 6.

    Grassmannian rows contribute p = 1..6 at q = p+1 plus p = 1, 2 at
    q = p+3; single-parameter rows contribute every admissible rank <= 6;
    the sphere alias contributes its first curved member.
    """
    out = []
    for fam in FAMILIES.values():
        if fam.slug == "rank1-real":
            out.append(build_space(fam.slug, q=2))
        elif fam.param_kind == "pq":
            for p in range(1, 7):
                out.append(build_space(fam.slug, p=p, q=p + 1))
            for p in (1, 2):
                out.append(build_space(fam.slug, p=p, q=p + 3))
        else:
            for rank in range(1, 7):
                for n in (rank, rank + 1):
                    if n >= fam.min_n and fam.rank_of(n) == rank:
                        out.append(build_space(fam.slug, n=n))
                        break
    return out


def memo_free_c_gamma(datum: SpaceDatum, lam) -> float:
    """c_gamma's sum written out: one pair of _log_cprime terms per root of
    nonzero multiplicity, in iter_root_support order, with no memo and no
    table.  A nonpositive pairing raises the ValueError c_gamma raises,
    naming the first such root in that order."""
    r4 = [4 * c for c in rho(datum).coeffs_f]
    l4 = [4 * Fraction(c) for c in lam]
    total = 0.0
    for orbit, norm_sq, entries in iter_root_support(datum.psi):
        m, mh = datum.mults_for(orbit)
        if (m, mh) == (0, 0):
            continue
        rho4 = int(sum(r4[i] * v for i, v in entries))
        lam4 = int(sum(l4[i] * v for i, v in entries))
        if lam4 == rho4:
            continue
        if lam4 <= 0:
            root = RestrictedRoot(len(l4), entries, orbit)
            raise ValueError(f"lambda must pair positively with every root: "
                             f"pairing with {root!r} is {Fraction(lam4, 4 * norm_sq)}")
        total += (_log_cprime(lam4 / (4 * norm_sq), mh / 4.0, m)
                  - _log_cprime(rho4 / (4 * norm_sq), mh / 4.0, m))
    return math.exp(total)


def chain_table_by_terms(system: limits.DirectSystem) -> tuple:
    """``limits._chain_table`` read term by term, with no memo: every factor
    key of the next three levels is expanded into its integer terms, the
    mu_alpha terms of each run of ``_root_terms``, each term is checked
    affine and read as the form (t2 - t1) t + t1, and every form is divided
    by its content, which goes into C_n or C_d, a constant form wholly
    (``_primitive_forms``).  Equal forms cancel.  Slow (about p^6 on a
    Grassmannian chain of width p), but it shares neither the table's key
    check nor its constant from the value at t = 0."""
    infinite = system.mode == limits.MODE_INFINITE
    base = system.base_level
    readings, mults, lo = [], None, 0
    for level in range(base, base + 4):
        datum, xi = limits._propagated_xi(system, level)
        coeffs = _f_ints_from_xi(datum.psi, xi)
        if level == base:
            value = Fraction(*_product(_rows(datum, coeffs, 0)))
        elif infinite and limits._mults(datum) != mults:
            raise ArithmeticError(
                f"internal error: level {level} does not extend the level below it")
        else:
            readings.append([[[t for s in starts for t in range(s, s + 8 * key[0], 8)]
                              for starts in _root_terms(*key)]
                             for row in _rows(datum, coeffs, lo) for key in row])
        mults, lo = limits._mults(datum), len(coeffs) if infinite else 0
    if len({len(reading) for reading in readings}) != 1:
        raise ArithmeticError("internal error: the root set moves with the level")
    num, den = [], []
    for first, second, third in zip(*readings):
        for forms, t1, t2, t3 in zip((num, den), first, second, third):
            slopes = [b - a for a, b in zip(t1, t2)]
            if (not len(t1) == len(t2) == len(t3)
                    or slopes != [c - b for b, c in zip(t2, t3)]):
                raise ArithmeticError("internal error: a root factor is not affine in the level")
            forms += zip(slopes, t1)
    const_num, num = _primitive_forms(num)
    const_den, den = _primitive_forms(den)
    common = num & den
    g = math.gcd(const_num, const_den)
    return value, (const_num // g, const_den // g,
                   tuple(sorted((num - common).elements())),
                   tuple(sorted((den - common).elements())))


def fold_by_steps(system: limits.DirectSystem, levels) -> tuple:
    """An infinite-rank chain's values at ascending levels, folded one step
    ratio at a time: from c(b) at the base b, each level multiplies in
    ``limits._evaluate`` of the chain table at t = n - b, one Fraction per
    step.  The reference for ``limits._values_at``, which folds over ranges."""
    value, forms = limits._chain_table(system)
    base = top = system.base_level
    out = []
    for level in levels:
        for t in range(top - base, level - base):
            value *= limits._evaluate(forms, t)
        top = level
        out.append(value)
    return tuple(out)


def _primitive_forms(forms) -> tuple[int, Counter]:
    """The product of the forms' contents, and the nonconstant forms divided
    by their content, counted; a constant form goes wholly into the content.
    A negative slope raises, as the table does."""
    content, out = 1, Counter()
    for a, b in forms:
        if a < 0:
            raise ArithmeticError("internal error: a linear form of the table decreases")
        g = math.gcd(a, b)
        content *= g
        if a:
            out[a // g, b // g] += 1
    return content, out


def inverse_weyl_dimension(label: str, mu_f) -> Fraction:
    """1/dim V_lambda for the compact group of type ``label`` (A, B, C, D),
    with lambda = mu/2 and mu in sphelim's ascending f-coordinates.

    On the group space G x G / G the K-fixed unit vector of End(V) is
    Id/sqrt(dim V), so the overlap c(mu) with the highest-weight vector is
    1/dim V (Helgason, Groups and Geometric Analysis, Ch. IV).  dim V is
    the Weyl dimension formula, prod over positive roots alpha of
    <lambda + rho, alpha>/<rho, alpha>, with rho = (0..r), (1/2..n-1/2),
    (1..n) and (0..n-1) for A, B, C and D.  The positive roots are
    e_j - e_i and, outside A, e_j + e_i (i < j), with e_j for B and 2e_j
    for C.  Everything is doubled to stay in integers, which every ratio
    cancels.
    """
    mu = [int(c) for c in mu_f]
    if label == "A":
        mu = [c - mu[0] for c in mu]  # SU weights are taken modulo the trace
    n = len(mu)
    rho2 = {"A": [2 * i for i in range(n)], "B": [2 * i + 1 for i in range(n)],
            "C": [2 * i + 2 for i in range(n)], "D": [2 * i for i in range(n)]}[label]
    shifted = [m + r for m, r in zip(mu, rho2)]
    value = Fraction(1)
    for j in range(n):  # one row of roots at a time, reduced, to keep it small
        num = den = 1
        for i in range(j):
            num *= shifted[j] - shifted[i]
            den *= rho2[j] - rho2[i]
            if label != "A":
                num *= shifted[j] + shifted[i]
                den *= rho2[j] + rho2[i]
        if label in "BC":
            num *= shifted[j]
            den *= rho2[j]
        value *= Fraction(den, num)
    return value


def jack_at_ones(lam, p: int, alpha) -> Fraction:
    """P_lambda^(alpha)(1^p): the Jack P-polynomial of the partition
    ``lam`` (nonincreasing parts, zeros allowed) at p ones, by Stanley's
    product over the boxes s = (i, j) of lambda of

        (p + alpha a'(s) - l'(s)) / (alpha a(s) + l(s) + 1),

    with arm a = lambda_i - j, leg l = lambda'_j - i, coarm a' = j - 1 and
    coleg l' = i - 1 (R. P. Stanley, Adv. Math. 77 (1989); Macdonald,
    Symmetric Functions and Hall Polynomials, Ch. VI (10.20)).  At alpha = 1
    it is the Schur polynomial at p ones, the dimension of the GL_p
    irreducible with highest weight lambda.
    """
    parts = [int(c) for c in lam if c]
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{lam!r} is not a partition")
    alpha = Fraction(alpha)
    conjugate = [sum(1 for c in parts if c >= j) for j in range(1, (parts[0] if parts else 0) + 1)]
    value = Fraction(1)
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            arm, leg = row - j, conjugate[j - 1] - i
            value *= (p + alpha * (j - 1) - (i - 1)) / (alpha * arm + leg + 1)
    return value


def sphere_moment(n: int, j: int) -> Fraction:
    """E u^(2j) = (2j-1)!!/(n(n+2)...(n+2j-2)) for u one coordinate of a
    uniform point of S^(n-1), the unit sphere in R^n; odd moments vanish."""
    value = Fraction(1)
    for i in range(j):
        value *= Fraction(2 * i + 1, n + 2 * i)
    return value


def zonal_polynomial(n: int, k: int) -> list[Fraction]:
    """R_k on the n-sphere as exact coefficients, constant term first, from
    the recurrence (i+n-1) R_{i+1} = (2i+n-1) t R_i - i R_{i-1}, R_0 = 1,
    R_1 = t."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if k == 0:
        return prev
    for i in range(1, k):
        nxt = [Fraction(0)] + [Fraction(2 * i + n - 1, i + n - 1) * c for c in cur]
        for m, c in enumerate(prev):
            nxt[m] -= Fraction(i, i + n - 1) * c
        prev, cur = cur, nxt
    return cur
