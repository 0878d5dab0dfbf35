"""Zonal functions on round spheres and their large-dimension limit.

The degree-k zonal function on the n-sphere is the ultraspherical
polynomial normalized to 1 at t = 1, generated by the three-term
recurrence (k+n-1) R_{k+1} = (2k+n-1) t R_k - k R_{k-1}.  As n grows,
R_k approaches t^k; on the rotation group that limit reads
g |-> g[0,0]^k.  This module evaluates the polynomials and their ODE
residual, draws Haar rotations, and Monte-Carlo checks the averaged
product identity psi(x) psi(y) = avg_h psi(x h y) over the stabilizer
of the base point.

The check reads only t = (x h y)[0,0] = a0 b0 + a'.Q b', where a is the
first row of x, b the first column of y and Q in SO(n) the lower block of
h.  For Q Haar-distributed, Q b'/|b'| is uniform on the unit sphere
S^(n-1), so a'.Q b' = |a'| |b'| u with u one coordinate of a uniform
point: u follows the symmetric Beta((n-1)/2, (n-1)/2) law on [-1, 1],
which is (G1 - G2)/(G1 + G2) for iid Gamma((n-1)/2) variates.  So each
sample draws two Gamma variates and sets t = a0 b0 + |a'| |b'| u: the
same law as the full-matrix draw, at O(1) instead of O(n^3) per sample.
The full Haar sampler (QR with Mezzadri's sign fix) stays as the public
``haar_rotation`` and as the oracle for the orbit draw.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .rootdata import _as_int, _as_ints

_BLOCK = 4096  # fixed RNG block: sample i depends only on (seed, i), not count


def _blocks(seed: int, count: int) -> Iterator[tuple[int, np.random.Generator]]:
    """(take, rng) for each block of up to ``_BLOCK`` samples out of count.

    Block j draws from its own child stream SeedSequence(seed, spawn_key=(j,)),
    so the i-th sample depends only on (seed, i), whatever the count.
    """
    for block, done in enumerate(range(0, count, _BLOCK)):
        seq = np.random.SeedSequence(seed, spawn_key=(block,))
        yield min(_BLOCK, count - done), np.random.default_rng(seq)


def _as_seed(seed) -> int:
    """``_as_int`` for a seed, which ``_blocks`` needs nonnegative."""
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _validate_nk(n: int, k: int) -> tuple[int, int]:
    try:
        n, k = _as_ints((n, k))
    except ValueError:
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}") from None
    if n < 2:
        raise ValueError(f"sphere dimension must be at least 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return n, k


def _as_unit_interval(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # written so that a NaN entry fails the test, as in _check_rotation
    if arr.size and not float(np.max(np.abs(arr))) <= 1.0:
        raise ValueError("zonal functions are only defined for |t| <= 1")
    return arr


def _eval_values(n: int, k: int, t: np.ndarray) -> np.ndarray:
    """R_k alone: the recurrence of ``_eval_with_derivatives`` without
    its derivative terms, so the same value to the bit."""
    if k == 0:
        return np.ones_like(t)
    p_prev, p = np.ones_like(t), t.copy()
    for i in range(1, k):
        p_prev, p = p, ((2 * i + n - 1) * t * p - i * p_prev) / (i + n - 1)
    return p


def _eval_with_derivatives(n: int, k: int, t: np.ndarray):
    """(R_k, R_k', R_k'') by running the recurrence and its derivatives."""
    p_prev, dp_prev, ddp_prev = np.ones_like(t), np.zeros_like(t), np.zeros_like(t)
    if k == 0:
        return p_prev, dp_prev, ddp_prev
    p, dp, ddp = t.copy(), np.ones_like(t), np.zeros_like(t)
    for i in range(1, k):
        denom = i + n - 1
        a = 2 * i + n - 1
        p_next = (a * t * p - i * p_prev) / denom
        dp_next = (a * (p + t * dp) - i * dp_prev) / denom
        ddp_next = (a * (2 * dp + t * ddp) - i * ddp_prev) / denom
        p_prev, dp_prev, ddp_prev = p, dp, ddp
        p, dp, ddp = p_next, dp_next, ddp_next
    return p, dp, ddp


def zonal_eval(n: int, k: int, t):
    """R_k on the n-sphere at t in [-1, 1]: a float for scalar t, else an array."""
    n, k = _validate_nk(n, k)
    arr = _as_unit_interval(t)
    value = _eval_values(n, k, arr)
    return float(value) if arr.ndim == 0 else value


def ode_residual(n: int, k: int, t):
    """(1-t^2) R'' - n t R' + k(k+n-1) R; identically zero in exact
    arithmetic.  A float for a scalar t, else an array of t's shape."""
    n, k = _validate_nk(n, k)
    arr = _as_unit_interval(t)
    p, dp, ddp = _eval_with_derivatives(n, k, arr)
    res = (1.0 - arr * arr) * ddp - n * arr * dp + k * (k + n - 1) * p
    return float(res) if arr.ndim == 0 else res


class ZonalFunction:
    """Degree-k zonal function on the n-sphere, callable on [-1, 1]."""

    def __init__(self, n: int, k: int):
        self.n, self.k = _validate_nk(n, k)

    def __call__(self, t):
        return zonal_eval(self.n, self.k, t)

    def derivatives(self, t):
        """(value, first, second) derivative arrays at t."""
        arr = _as_unit_interval(np.asarray(t, dtype=float))
        return _eval_with_derivatives(self.n, self.k, arr)

    def ode_residual(self, t):
        return ode_residual(self.n, self.k, t)

    def __repr__(self):
        return f"ZonalFunction(n={self.n}, k={self.k})"


# --------------------------------------------------------------------------
# rotations


def _check_rotation(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got shape {x.shape}")
    defect = float(np.max(np.abs(x.T @ x - np.eye(dim))))
    # written so that NaN entries fail both tests
    if not defect <= 1e-12:
        raise ValueError(f"matrix is not orthogonal (defect {defect:.3e} > 1e-12)")
    if not np.linalg.det(x) > 0:
        raise ValueError("matrix must be a proper rotation (positive determinant)")
    return x


def limit_zonal(k: int, x) -> float:
    """Pointwise n -> infinity limit of the zonal functions at a rotation:
    the k-th power of the matrix entry fixing the base direction."""
    k = _as_int(k, "degree")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("expected a square matrix")
    x = _check_rotation(x, x.shape[0])
    return float(x[0, 0] ** k)


def _haar_block(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diagonal(r, axis1=1, axis2=2))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] *= -1.0  # move O(dim) samples onto the rotation component
    return q


def haar_rotation(dim: int, count: int, seed: int) -> np.ndarray:
    """count Haar-distributed rotations, shape (count, dim, dim).

    Reproducible: the i-th sample depends only on (seed, i), because draws
    happen in fixed blocks of 4096 with one child RNG stream per block.
    """
    dim, count, seed = _as_int(dim, "dim"), _as_int(count, "count"), _as_seed(seed)
    if dim < 1 or count < 0:
        raise ValueError("need dim >= 1 and count >= 0")
    return np.concatenate([np.empty((0, dim, dim))] +
                          [_haar_block(dim, take, rng) for take, rng in _blocks(seed, count)])


def haar_sample_stabilizer(n: int, count: int, seed: int) -> np.ndarray:
    """Haar samples from the stabilizer of the first coordinate axis inside
    the rotation group of R^(n+1): block matrices diag(1, Q), Q in SO(n).

    The embedded first row and column are exactly (1, 0, ..., 0), so
    conjugating by these samples preserves the [0, 0] entry to the bit.
    """
    if _as_int(n, "n") < 1:
        raise ValueError("need n >= 1")
    small = haar_rotation(n, count, seed)
    out = np.zeros((count, n + 1, n + 1))
    out[:, 0, 0] = 1.0
    out[:, 1:, 1:] = small
    return out


def planar_rotation(dim: int, theta: float, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Rotation by theta in one coordinate plane of R^dim."""
    dim, (i, j) = _as_int(dim, "dim"), _as_ints(axes, "axis")
    if not (0 <= i < dim and 0 <= j < dim and i != j):
        raise ValueError(f"axes {axes} out of range for dimension {dim}")
    out = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    out[i, i] = c
    out[j, j] = c
    out[i, j] = -s
    out[j, i] = s
    return out


# --------------------------------------------------------------------------
# Monte Carlo functional equation


_ROUNDING_GAP = 4 * 2.0 ** -52  # 4 eps: see MCResult.zscore


class MCResult(NamedTuple):
    estimate: float
    std_error: float
    target: float
    samples: int

    def zscore(self) -> float:
        """|estimate - target| / std_error, where a gap of at most 4 eps
        (eps = 2^-52) scores 0.

        Every sample and the target are values of R_k, and |R_k| <= 1, so
        their rounding error is absolute, a few eps at most.  When x or y
        is the identity up to rounding (a full turn, say), every sample is
        the same number up to rounding, std_error falls far below eps, and
        dividing would turn rounding into a failure.  Runs with x a full
        turn, y at 0.4..3.0, k <= 30 and n <= 100 showed gaps of at most
        1.4 eps; a sampling gap of that size is far below anything a
        z-score can resolve.
        """
        gap = abs(self.estimate - self.target)
        if gap <= _ROUNDING_GAP:
            return 0.0
        if self.std_error == 0.0:
            return math.inf
        return gap / self.std_error


def _sample_t(t0: float, scale: float, n: int, take: int,
              rng: np.random.Generator) -> np.ndarray:
    """take draws of t = a0 b0 + a'.Q b' for Q Haar on SO(n), from
    t0 = a0 b0 and scale = |a'| |b'|.

    a'.Q b' is |a'| |b'| u, with u one coordinate of a uniform point of
    S^(n-1): the symmetric Beta((n-1)/2, (n-1)/2) law on [-1, 1], drawn as
    u = (g0 - g1)/(g0 + g1) from two iid Gamma((n-1)/2) variates.  Two
    variates per sample, whatever n, from one (take, 2) draw.
    """
    g = rng.standard_gamma((n - 1) / 2, size=(take, 2))
    u = (g[:, 0] - g[:, 1]) / (g[:, 0] + g[:, 1])
    return t0 + scale * u


def mc_functional_equation(n: int, k: int, x, y, samples: int, seed: int) -> MCResult:
    """Monte-Carlo check of avg over the stabilizer of psi(x h y) against
    psi(x) psi(y), where psi(g) = R_k(g[0,0]).

    Each sample is t = (x h y)[0,0] by the orbit draw ``_sample_t``: two
    Gamma variates, whatever n, exact in law because Haar rotations of SO(n)
    carry b' = y[1:, 0] to a uniform point of its sphere, whose coordinate
    along a' follows a symmetric Beta law.  Uses the same blocked
    RNG scheme as haar_rotation, accumulating block sums and combining them
    with exact float summation, so results are reproducible for a fixed
    (seed, samples).  The sums are of the values minus the first one, so
    the variance does not cancel: a sample of equal values has the exact
    mean and std_error 0.  Needs at least two samples, since one has no
    standard error.
    """
    n, k = _validate_nk(n, k)
    samples, seed = _as_int(samples, "samples"), _as_seed(seed)
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples == 1:
        raise ValueError("one sample has no standard error: need at least two samples")
    x = _check_rotation(x, n + 1)
    y = _check_rotation(y, n + 1)
    a = x[0, :]
    b = y[:, 0]
    t0, scale = a[0] * b[0], np.linalg.norm(a[1:]) * np.linalg.norm(b[1:])
    tx = min(1.0, max(-1.0, x[0, 0]))
    ty = min(1.0, max(-1.0, y[0, 0]))
    target = zonal_eval(n, k, tx) * zonal_eval(n, k, ty)
    shift = None
    sums, sqs = [], []
    for take, rng in _blocks(seed, samples):
        t = _sample_t(t0, scale, n, take, rng)
        np.clip(t, -1.0, 1.0, out=t)
        vals = _eval_values(n, k, t)
        if shift is None:
            shift = float(vals[0])
        d = vals - shift
        sums.append(float(d.sum()))
        sqs.append(float((d * d).sum()))
    total, squares = math.fsum(sums), math.fsum(sqs)
    mean = shift + total / samples
    var = max(0.0, squares - total * total / samples) / (samples - 1)
    return MCResult(mean, math.sqrt(var / samples), float(target), samples)
