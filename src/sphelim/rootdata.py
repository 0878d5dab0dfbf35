"""Catalog of classical compact symmetric spaces and their restricted root data.

Every vector is stored as a tuple of coefficients over the orthonormal basis
f_1, ..., f_N of the (dual) maximal flat: index i-1 holds the coefficient of
f_i.  Ambient dimension N equals the rank, except for type A where N = rank+1
and linear functionals are only defined modulo the all-ones vector; type-A
representatives are normalized so the f_1 coefficient is zero.

The real Grassmannian family is bookkept with the C-type pattern: the long
roots 2f_j carry multiplicity 0 while their halves f_j carry q-p.  A pattern
root whose multiplicity and half-root multiplicity are both zero is not a
root of the space at all; evaluators skip it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

ORBIT_ALPHA1 = "alpha1_orbit"
ORBIT_MIDDLE = "middle"

_MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 4}


def _as_int(value, what: str) -> int:
    """``operator.index(value)``, the package's one integer rule: a float,
    Fraction or string raises ValueError naming ``what``, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_ints(values, what: str = "coefficient") -> tuple[int, ...]:
    """``_as_int`` on each entry, naming a bad one by its position."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(_as_int(v, f"{what} {i}") for i, v in enumerate(values))


class RootPattern(NamedTuple):
    """The positive nonmultipliable roots of one label, in the f-basis.

    ``single`` is the coefficient s of the roots s*f_j (0: there are none);
    they lie on the alpha1 orbit.  The roots f_j - f_i (i < j) always
    occur, and ``sums`` says whether the f_j + f_i do too; both kinds lie
    on ``pair_orbit``.  Indices run over the ambient coordinates.
    """

    single: int
    sums: bool
    pair_orbit: str


ROOT_PATTERNS = {
    "A": RootPattern(0, False, ORBIT_ALPHA1),
    "B": RootPattern(1, True, ORBIT_MIDDLE),
    "C": RootPattern(2, True, ORBIT_MIDDLE),
    "D": RootPattern(0, True, ORBIT_ALPHA1),
}


@dataclass(frozen=True)
class RootSystemType:
    """Reduced root-system pattern: one of A, B, C, D with a rank.

    B_1 and C_1/C_2 are accepted as low-rank pattern aliases (the rank-one
    and rank-two Grassmannians need them); D requires rank >= 4.
    """

    label: str
    rank: int

    def __post_init__(self):
        if self.label not in _MIN_RANK:
            raise ValueError(f"unknown root-system label {self.label!r}")
        if self.rank < _MIN_RANK[self.label]:
            raise ValueError(
                f"type {self.label} needs rank >= {_MIN_RANK[self.label]}, got {self.rank}"
            )

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.label == "A" else self.rank


@dataclass(frozen=True)
class RestrictedRoot:
    """A positive nonmultipliable root, stored sparsely.

    ``entries`` lists (index, coefficient) pairs with ascending 0-based
    indices; ``coeffs`` materializes the dense f-basis vector.
    """

    n: int
    entries: tuple[tuple[int, int], ...]
    orbit: str

    @property
    def coeffs(self) -> tuple[int, ...]:
        dense = [0] * self.n
        for idx, val in self.entries:
            dense[idx] = val
        return tuple(dense)

    def norm_sq(self) -> int:
        return sum(v * v for _, v in self.entries)

    def __repr__(self):
        parts = []
        for idx, val in self.entries:
            sign = "+" if val > 0 and parts else ("" if val > 0 else "-")
            mag = abs(val)
            parts.append(f"{sign}{'' if mag == 1 else mag}f{idx + 1}")
        return f"RestrictedRoot({''.join(parts)}, {self.orbit})"


@dataclass(frozen=True)
class Weight:
    """A weight: integer coordinates over the fundamental weights when known,
    plus the dense f-basis coefficient vector."""

    coeffs_f: tuple[Fraction, ...]
    coeffs_xi: tuple[int, ...] | None = None

    def __iter__(self):
        return iter(self.coeffs_f)


@dataclass(frozen=True)
class SpaceDatum:
    """One member of a catalog family: root pattern plus multiplicities.

    mult_middle applies to the roots f_j +- f_i; mult_alpha1 to the orbit of
    the distinguished end simple root (f_j for B, 2f_j for C, everything for
    A and D, whose roots form a single Weyl orbit); mult_half to the halves
    of the alpha1-orbit roots.  d is the real dimension of the base field
    for Grassmannian rows, None otherwise.  The rule is ``FamilyRow.mults_of``.
    """

    family: str
    row: str
    psi: RootSystemType
    params: tuple[tuple[str, int], ...]
    mult_middle: int
    mult_alpha1: int
    mult_half: int
    d: int | None = None

    def __post_init__(self):
        if min(self.mult_middle, self.mult_alpha1, self.mult_half) < 0:
            raise ValueError("multiplicities must be nonnegative")
        if self.mult_half and self.psi.label not in ("B", "C"):
            raise ValueError("half roots only occur on the B/C alpha1 orbit")
        if self.mult_half and self.psi.label == "B":
            # would put roots at f_j/2, outside the integer lattice kept here
            raise ValueError("B-pattern data with half roots is not supported")
        # Hashed once: the memos keyed on a datum hash it at every lookup.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.family, self.row, self.psi, self.params, self.mult_middle,
                self.mult_alpha1, self.mult_half, self.d)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, as string hashes differ between processes
        return type(self), self._fields()

    @property
    def rank(self) -> int:
        return self.psi.rank

    @property
    def grassmannian(self) -> bool:
        return self.d is not None

    @property
    def a(self) -> Fraction:
        """Half the weighted multiplicity of the alpha1 orbit."""
        return Fraction(2 * self.mult_alpha1 + self.mult_half, 4)

    @property
    def b(self) -> Fraction:
        """Half the middle multiplicity."""
        return Fraction(self.mult_middle, 2)

    def param(self, name: str) -> int:
        return dict(self.params)[name]

    def mults_for(self, orbit: str) -> tuple[int, int]:
        """(multiplicity of alpha, multiplicity of alpha/2) for an orbit."""
        if orbit == ORBIT_ALPHA1:
            return self.mult_alpha1, self.mult_half
        return self.mult_middle, 0


# --------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class FamilyRow:
    """One catalog row as data; ``rank_of`` and ``mults_of`` are its rule.

    A Grassmannian row (``d`` set) holds the p-planes in F^(p+q), d = dim_R F:
    rank p, multiplicities (d, d-1, d(q-p)) on the middle, alpha1 and half
    orbits.  Any other row has rank n (n-1 on type A) and constants ``mults``.
    """

    slug: str
    row: str
    group: str
    subgroup: str
    psi_label: str
    d: int | None = None
    mults: tuple[int, int, int] | None = None  # (middle, alpha1, half)
    fixed_p: int | None = None

    @property
    def param_kind(self) -> str:
        return "n" if self.d is None else "pq"

    @property
    def min_n(self) -> int:
        return _MIN_RANK[self.psi_label] + (self.psi_label == "A")

    def rank_of(self, *args: int) -> int:
        """The rank at (p, q) or (n,): p on a Grassmannian (type C), n - 1
        on type A and n otherwise."""
        return args[0] - (self.psi_label == "A")

    def mults_of(self, *args: int) -> tuple[int, int, int]:
        """(mult_middle, mult_alpha1, mult_half) at parameters (p, q) or (n,)."""
        if self.d is None:
            return self.mults
        p, q = args
        return self.d, self.d - 1, self.d * (q - p)


FAMILIES: dict[str, FamilyRow] = {row.slug: row for row in (
    FamilyRow("group-su", "1", "SU(n) x SU(n)", "diagonal SU(n)", "A", mults=(2, 2, 0)),
    FamilyRow("group-spin-odd", "2", "Spin(2n+1) x Spin(2n+1)", "diagonal Spin(2n+1)", "B",
              mults=(2, 2, 0)),
    FamilyRow("group-spin-even", "3", "Spin(2n) x Spin(2n)", "diagonal Spin(2n)", "D",
              mults=(2, 2, 0)),
    FamilyRow("group-sp", "4", "Sp(n) x Sp(n)", "diagonal Sp(n)", "C", mults=(2, 2, 0)),
    FamilyRow("grass-complex", "5", "SU(p+q)", "S(U(p) x U(q))", "C", d=2),
    FamilyRow("su-over-so", "6", "SU(n)", "SO(n)", "A", mults=(1, 1, 0)),
    FamilyRow("su-over-sp", "7", "SU(2n)", "Sp(n)", "A", mults=(4, 4, 0)),
    FamilyRow("grass-real", "8", "SO(p+q)", "S(O(p) x O(q))", "C", d=1),
    FamilyRow("so-over-u-even", "9.1", "SO(4n)", "U(2n)", "C", mults=(4, 1, 0)),
    FamilyRow("so-over-u-odd", "9.2", "SO(4n+2)", "U(2n+1)", "C", mults=(4, 1, 4)),
    FamilyRow("grass-quaternion", "10", "Sp(p+q)", "Sp(p) x Sp(q)", "C", d=4),
    FamilyRow("sp-over-u", "11", "Sp(n)", "U(n)", "C", mults=(1, 0, 0)),
    # convenience alias: the p = 1 real Grassmannian chain, the real projective
    # spaces RP^q (c_value at (k,) is the degree-2k zonal coefficient on S^q)
    FamilyRow("rank1-real", "8", "SO(1+q)", "S(O(1) x O(q))", "C", d=1, fixed_p=1),
)}


def build_space(family: str, p: int | None = None, q: int | None = None,
                n: int | None = None) -> SpaceDatum:
    """Instantiate one catalog family member.

    Grassmannian rows take integers p >= 1 and q >= p (rank1-real fixes
    p = 1); the remaining rows take the single integer group parameter n.
    """
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; see catalog_rows()") from None
    if fam.param_kind == "pq":
        if fam.fixed_p is not None:
            if p is not None and _as_int(p, "p") != fam.fixed_p:
                raise ValueError(f"family {family!r} fixes p = {fam.fixed_p}")
            p = fam.fixed_p
        if n is not None:
            raise ValueError(f"family {family!r} takes (p, q), not n")
        if p is None or q is None:
            raise ValueError(f"family {family!r} needs p and q")
        p, q = _as_int(p, "p"), _as_int(q, "q")
        if p < 1 or q < p:
            raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
        args = (p, q)
    else:
        if p is not None or q is not None:
            raise ValueError(f"family {family!r} takes n, not (p, q)")
        if n is None:
            raise ValueError(f"family {family!r} needs n")
        n = _as_int(n, "n")
        if n < fam.min_n:
            raise ValueError(f"family {family!r} needs n >= {fam.min_n}, got {n}")
        args = (n,)
    return SpaceDatum(family, fam.row, RootSystemType(fam.psi_label, fam.rank_of(*args)),
                      tuple(zip(fam.param_kind, args)), *fam.mults_of(*args), d=fam.d)


def catalog_rows() -> list[FamilyRow]:
    """All catalog rows, primary catalog first, alias last."""
    return list(FAMILIES.values())


# --------------------------------------------------------------------------
# roots and weights


def _psi_of(obj) -> RootSystemType:
    return obj.psi if isinstance(obj, SpaceDatum) else obj


def iter_root_support(psi: RootSystemType) -> Iterator[tuple[str, int, tuple[tuple[int, int], ...]]]:
    """Stream the positive nonmultipliable roots as (orbit, norm_sq, entries).

    Entries are sparse (index, coefficient) pairs; no dense vectors are
    built, so this stays cheap at large rank.  Enumeration order is fixed
    but not lexicographic: the single roots first, then the pairs.
    """
    s, sums, pair_orbit = ROOT_PATTERNS[psi.label]
    n = psi.ambient_dim
    if s:
        for j in range(n):
            yield ORBIT_ALPHA1, s * s, ((j, s),)
    for j in range(1, n):
        for i in range(j):
            yield pair_orbit, 2, ((i, -1), (j, 1))
            if sums:
                yield pair_orbit, 2, ((i, 1), (j, 1))


def _lex_key(entries: tuple[tuple[int, int], ...]) -> tuple:
    """Sort key of a sparse vector that orders like its dense f-coefficients.

    At the first index where two vectors differ, a negative entry sorts
    below a missing (zero) one, which sorts below a positive one; the
    sentinel (1,) stands for the zeros after the last entry.  Entries must
    be nonzero and in ascending index order.
    """
    return tuple((0, i, v) if v < 0 else (2, -i, v) for i, v in entries) + ((1,),)


def positive_nonmultipliable_roots(obj: Union[SpaceDatum, RootSystemType]) -> list[RestrictedRoot]:
    """The positive nonmultipliable roots, lexicographically ordered by
    f-coefficients.  Materializes RestrictedRoot objects; intended for
    moderate ranks (evaluators stream instead)."""
    psi = _psi_of(obj)
    n = psi.ambient_dim
    roots = [RestrictedRoot(n, entries, orbit) for orbit, _, entries in iter_root_support(psi)]
    roots.sort(key=lambda root: _lex_key(root.entries))
    return roots


def simple_roots(obj: Union[SpaceDatum, RootSystemType]) -> list[RestrictedRoot]:
    """Simple roots alpha_1..alpha_r; alpha_1 is the distinguished end."""
    psi = _psi_of(obj)
    s, sums, pair_orbit = ROOT_PATTERNS[psi.label]
    n = psi.ambient_dim
    out = []
    if s:
        out.append(RestrictedRoot(n, ((0, s),), ORBIT_ALPHA1))
    elif sums:
        out.append(RestrictedRoot(n, ((0, 1), (1, 1)), pair_orbit))
    for j in range(1, n):
        out.append(RestrictedRoot(n, ((j - 1, -1), (j, 1)), pair_orbit))
    return out


def fundamental_weights(obj: Union[SpaceDatum, RootSystemType]) -> list[Weight]:
    """Weights xi_1..xi_r dual to the simple roots: <xi_i, alpha_j>/<alpha_j,alpha_j> = delta_ij."""
    psi = _psi_of(obj)
    out = []
    for j in range(psi.rank):
        unit = tuple(1 if i == j else 0 for i in range(psi.rank))
        out.append(Weight(tuple(Fraction(c) for c in _f_ints_from_xi(psi, unit)), unit))
    return out


def _f_ints_from_xi(psi: RootSystemType, coeffs: Sequence[int]) -> list[int]:
    """Integer f-coordinates of sum_j coeffs[j] * xi_{j+1}; no validation.

    Every fundamental weight here has integer f-coordinates.  xi_1 is
    s*(f_1 + ... + f_n) where there are single roots s*f_j; for D, xi_1 and
    xi_2 are the fork ends f_1 + ... + f_n and -f_1 + f_2 + ... + f_n.
    Every later xi_{j+1} is the tail 2*(f_{j+1+n-r} + ... + f_n), so
    type-A vectors start with 0.  One running sum gives all n coordinates.
    """
    s, sums, _ = ROOT_PATTERNS[psi.label]
    r, n = psi.rank, psi.ambient_dim
    if s:
        first, acc = 1, s * coeffs[0]
    elif sums:
        first, acc = 2, coeffs[0] + coeffs[1]
    else:
        first, acc = 0, 0
    f = []
    for i in range(n):
        j = i + r - n  # the tail xi_{j+1} starts at f_{i+1}
        if j >= first:
            acc += 2 * coeffs[j]
        f.append(acc)
    if first == 2:
        f[0] -= 2 * coeffs[1]
    return f


def _xi_f_ints(psi: RootSystemType, coeffs: Sequence[int]) -> list[int]:
    """``_f_ints_from_xi`` after checking that coeffs holds one integer
    (``_as_ints``) per simple root."""
    if len(coeffs) != psi.rank:
        raise ValueError(f"need {psi.rank} coefficients, got {len(coeffs)}")
    return _f_ints_from_xi(psi, _as_ints(coeffs))


# Entries kept by the integer-Fraction memo: the f-coordinates of the
# weights in common use are small integers, and a long run of large ones
# evicts instead of growing the memo.
_INT_FRACTION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_INT_FRACTION_CACHE_SIZE)
def _int_fraction(k: int) -> Fraction:
    """Fraction(k), one shared object per integer in the memo; Fractions
    are immutable, so sharing them is safe."""
    return Fraction(k)


def weight_from_xi(obj: Union[SpaceDatum, RootSystemType], coeffs: Sequence[int]) -> Weight:
    """The integer combination sum_j coeffs[j] * xi_{j+1}.

    Coefficients may be any integers; nonnegative ones give dominant
    weights in the spherical lattice.  The f-coordinates are integers
    (``_f_ints_from_xi``), each taken as a shared Fraction from the bounded
    memo ``_int_fraction``.
    """
    coeffs = _as_ints(coeffs)
    return Weight(tuple(map(_int_fraction, _xi_f_ints(_psi_of(obj), coeffs))), coeffs)


def pad_xi_coeffs(coeffs: Sequence[int], rank: int) -> tuple[int, ...]:
    """Zero-pad a fundamental-weight coefficient vector up to ``rank``.

    This is how a dominant weight at a lower rank propagates up a chain:
    the coefficients are kept and the new simple roots get coefficient 0.
    """
    coeffs = _as_ints(coeffs)
    if len(coeffs) > rank:
        raise ValueError(f"cannot pad {len(coeffs)} coefficients down to rank {rank}")
    return coeffs + (0,) * (rank - len(coeffs))


def zero_weight(obj: Union[SpaceDatum, RootSystemType]) -> Weight:
    psi = _psi_of(obj)
    return Weight(tuple(Fraction(0) for _ in range(psi.ambient_dim)),
                  tuple(0 for _ in range(psi.rank)))


def _as_f_vector(obj, lam) -> tuple[Fraction, ...]:
    psi = _psi_of(obj)
    vec = tuple(c if type(c) is Fraction else Fraction(c)
                for c in (lam.coeffs_f if isinstance(lam, Weight) else lam))
    if len(vec) != psi.ambient_dim:
        raise ValueError(f"expected {psi.ambient_dim} f-coefficients, got {len(vec)}")
    return vec


@functools.lru_cache(maxsize=256)
def _rho4(datum: SpaceDatum) -> tuple[int, ...]:
    """4 * rho in f-coefficients (always integral).

    rho is half the multiplicity-weighted sum of all positive restricted
    roots, halves included.  In 2rho_j the differences f_j - f_i give
    m_pair*(2j+1-n) and the sums f_j + f_i add m_pair*(n-1), so 2j*m_pair
    in all; type A has no sums, and its representative with a zero first
    coefficient is again 2j*m_pair.  The single roots s*f_j and their
    halves add s*m_alpha1 + m_half (m_half is 0 without single roots).
    So entry j depends only on j, the label and the multiplicities.
    """
    s, _, pair_orbit = ROOT_PATTERNS[datum.psi.label]
    m_pair = datum.mults_for(pair_orbit)[0]
    single = s * datum.mult_alpha1 + datum.mult_half
    return tuple(2 * (2 * j * m_pair + single) for j in range(datum.psi.ambient_dim))


@functools.lru_cache(maxsize=256)
def rho(datum: SpaceDatum) -> Weight:
    """Half the multiplicity-weighted sum of the positive restricted roots.
    Memoized like ``_rho4``: the datum and the returned Weight are frozen."""
    return Weight(tuple(Fraction(c, 4) for c in _rho4(datum)))


def lambda_alpha(lam, alpha: RestrictedRoot) -> Fraction:
    """<lam, alpha>/<alpha, alpha> in the f-basis inner product."""
    vec = lam.coeffs_f if isinstance(lam, Weight) else lam
    num = sum(Fraction(vec[idx]) * val for idx, val in alpha.entries)
    return Fraction(num, alpha.norm_sq())


def _first_integrality_violation(datum: SpaceDatum, lam) -> RestrictedRoot | None:
    """Lexicographically first pattern root alpha with <lam,alpha>/<alpha,alpha>
    not a nonnegative integer, or None."""
    psi = datum.psi
    vec = _as_f_vector(datum, lam)
    bad = []
    for orbit, norm_sq, entries in iter_root_support(psi):
        val = sum(vec[idx] * v for idx, v in entries) / norm_sq
        if val.denominator != 1 or val < 0:
            bad.append((entries, orbit))
    if not bad:
        return None
    entries, orbit = min(bad, key=lambda root: _lex_key(root[0]))
    return RestrictedRoot(psi.ambient_dim, entries, orbit)


def in_lambda_plus(datum: SpaceDatum, lam) -> bool:
    """Membership in the spherical dominant lattice: the pairing with every
    positive nonmultipliable pattern root must be a nonnegative integer."""
    return _first_integrality_violation(datum, lam) is None
