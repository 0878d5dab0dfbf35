"""Zonal functions on spheres: closed forms, an orthogonal-polynomial oracle,
the defining ODE, Haar sampling, the orbit sampler against the full-matrix
sampler, the Monte-Carlo functional equation, and its exact rank-one form."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from helpers import sphere_moment, zonal_polynomial

from sphelim.sphere import (
    MCResult,
    ZonalFunction,
    _eval_values,
    _eval_with_derivatives,
    _haar_block,
    _sample_t,
    haar_rotation,
    haar_sample_stabilizer,
    limit_zonal,
    mc_functional_equation,
    ode_residual,
    planar_rotation,
    zonal_eval,
)

GRID = np.linspace(-1.0, 1.0, 101)


class TestClosedForms:
    def test_degree_zero_and_basepoint(self):
        for n in (2, 5, 17):
            assert np.all(zonal_eval(n, 0, GRID) == 1.0)
            for k in range(6):
                assert zonal_eval(n, k, 1.0) == 1.0
                assert zonal_eval(n, k, -1.0) == (-1.0) ** k

    def test_degree_one_is_identity(self):
        for n in range(2, 51):
            assert np.array_equal(zonal_eval(n, 1, GRID), GRID)

    def test_degree_two(self):
        for n in range(2, 51):
            expected = ((n + 1) * GRID ** 2 - 1) / n
            assert np.max(np.abs(zonal_eval(n, 2, GRID) - expected)) <= 1e-14

    def test_degree_three(self):
        for n in (2, 3, 7, 20):
            expected = GRID * ((n + 3) * GRID ** 2 - 3) / n
            assert np.max(np.abs(zonal_eval(n, 3, GRID) - expected)) <= 1e-13

    def test_power_deviation_identities(self):
        # t^2 - p_{n,2} = (1 - t^2)/n and t^3 - p_{n,3} = 3t(1 - t^2)/n
        for n in (2, 4, 9):
            dev2 = GRID ** 2 - zonal_eval(n, 2, GRID)
            assert np.max(np.abs(dev2 - (1 - GRID ** 2) / n)) <= 1e-14
            dev3 = GRID ** 3 - zonal_eval(n, 3, GRID)
            assert np.max(np.abs(dev3 - 3 * GRID * (1 - GRID ** 2) / n)) <= 1e-13

    def test_legendre_case(self):
        # n = 2 reduces to the Legendre polynomials
        for k in range(8):
            for t in np.linspace(-1, 1, 11):
                expected = float(mpmath.legendre(k, mpmath.mpf(t)))
                assert zonal_eval(2, k, t) == pytest.approx(expected, abs=1e-13)


def _jacobi_sum(k, a, t):
    """P_k^(a,a)(t) by the terminating two-binomial expansion
    sum_s C(k+a, s) C(k+a, k-s) ((t-1)/2)^(k-s) ((t+1)/2)^s."""
    total = mpmath.mpf(0)
    for s in range(k + 1):
        total += (mpmath.binomial(k + a, s) * mpmath.binomial(k + a, k - s)
                  * ((t - 1) / 2) ** (k - s) * ((t + 1) / 2) ** s)
    return total


def test_ultraspherical_oracle():
    """zonal_eval(n, k, .) equals the ultraspherical (Gegenbauer) polynomial
    with parameter (n-1)/2 normalized to 1 at t = 1; evaluated through the
    proportional Jacobi polynomial P_k^(a,a) with a = n/2 - 1 (the
    normalization cancels the proportionality constant), computed by its
    closed-form finite sum rather than any recurrence."""
    with mpmath.workdps(40):
        for n in range(2, 9):
            a = mpmath.mpf(n) / 2 - 1
            for k in range(9):
                norm = _jacobi_sum(k, a, mpmath.mpf(1))
                for t in np.linspace(-1, 1, 21):
                    expected = float(_jacobi_sum(k, a, mpmath.mpf(t)) / norm)
                    got = zonal_eval(n, k, float(t))
                    assert got == pytest.approx(expected, abs=5e-13)


class TestODE:
    def test_residual_small_on_grid(self):
        for n in (2, 5, 12, 20):
            for k in (0, 1, 4, 10):
                assert np.max(np.abs(ode_residual(n, k, GRID))) < 1e-8

    def test_scalar_returns_float(self):
        value = ode_residual(3, 4, 0.5)
        assert isinstance(value, float)
        assert abs(value) < 1e-10

    def test_method_is_the_module_function(self):
        fn = ZonalFunction(7, 5)
        assert np.array_equal(fn.ode_residual(GRID), ode_residual(7, 5, GRID))
        assert fn.ode_residual(0.25) == ode_residual(7, 5, 0.25)
        assert isinstance(fn.ode_residual(0.25), float)
        with pytest.raises(ValueError, match=r"\|t\| <= 1"):
            fn.ode_residual(1.5)

    @pytest.mark.parametrize("n", [2, 3, 30, 10 ** 4])
    def test_values_only_recurrence_is_the_full_one(self, n):
        # zonal_eval and the Monte-Carlo check skip the derivative terms
        t = np.concatenate([GRID, np.random.default_rng(n).uniform(-1.0, 1.0, 500)])
        for k in range(9):
            assert np.array_equal(_eval_values(n, k, t), _eval_with_derivatives(n, k, t)[0])
            assert np.array_equal(zonal_eval(n, k, t), ZonalFunction(n, k).derivatives(t)[0])

    def test_derivatives_consistent_with_finite_differences(self):
        fn = ZonalFunction(5, 6)
        t = np.linspace(-0.9, 0.9, 31)
        h = 1e-6
        p, dp, ddp = fn.derivatives(t)
        num_dp = (fn(t + h) - fn(t - h)) / (2 * h)
        num_ddp = (fn(t + h) - 2 * fn(t) + fn(t - h)) / (h * h)
        assert np.max(np.abs(dp - num_dp)) < 1e-7
        assert np.max(np.abs(ddp - num_ddp)) < 1e-3


class TestValidation:
    def test_bad_dimension_or_degree(self):
        with pytest.raises(ValueError, match="at least 2"):
            zonal_eval(1, 2, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            zonal_eval(3, -1, 0.0)

    def test_argument_range(self):
        with pytest.raises(ValueError, match=r"\|t\| <= 1"):
            zonal_eval(3, 2, 1.5)
        with pytest.raises(ValueError, match=r"\|t\| <= 1"):
            ZonalFunction(3, 2)(np.array([0.0, -1.01]))

    def test_nan_is_outside_the_interval(self):
        # NaN compares False both ways, so the range test must not read "> 1"
        for call in (lambda t: zonal_eval(3, 2, t), lambda t: ode_residual(3, 2, t),
                     ZonalFunction(3, 2), ZonalFunction(3, 2).derivatives,
                     ZonalFunction(3, 2).ode_residual):
            for t in (math.nan, np.array([0.5, math.nan, -0.25]), np.array([math.nan])):
                with pytest.raises(ValueError, match=r"\|t\| <= 1"):
                    call(t)

    def test_zonal_function_repr(self):
        assert repr(ZonalFunction(4, 2)) == "ZonalFunction(n=4, k=2)"

    @pytest.mark.parametrize("n, k", [(3.5, 2), (3, 2.5), (3.0, 2), (3, np.float64(2.0)), ("3", 2)])
    def test_non_integral_dimension_or_degree(self, n, k):
        # a float is refused, not truncated (ZonalFunction) or read as a real
        # parameter of the recurrence (zonal_eval)
        for call in (lambda: zonal_eval(n, k, 0.1), lambda: ode_residual(n, k, 0.1),
                     lambda: ZonalFunction(n, k),
                     lambda: mc_functional_equation(n, k, np.eye(4), np.eye(4), 2, 0)):
            with pytest.raises(ValueError, match="must be integers"):
                call()

    @pytest.mark.parametrize("call, name", [
        (lambda: limit_zonal(2.5, planar_rotation(3, 0.5)), "degree"),
        (lambda: mc_functional_equation(3, 2, np.eye(4), np.eye(4), 100.0, 0), "samples"),
        (lambda: mc_functional_equation(3, 2, np.eye(4), np.eye(4), 100, 1.5), "seed"),
        (lambda: haar_rotation(4.0, 1, 1), "dim"),
        (lambda: haar_rotation(4, 1.0, 1), "count"),
        (lambda: haar_rotation(4, 0, 1.5), "seed"),
        (lambda: planar_rotation(3.0, 0.1), "dim"),
        (lambda: planar_rotation(3, 0.1, axes=(0, 1.0)), "axis 1"),
        (lambda: haar_sample_stabilizer(3.0, 2, 1), "n"),
        (lambda: haar_sample_stabilizer(3, 2.5, 1), "count"),
    ], ids=["limit_zonal-k", "mc-samples", "mc-seed", "haar-dim", "haar-count", "haar-seed",
            "planar-dim", "planar-axes", "stabilizer-n", "stabilizer-count"])
    def test_non_integral_count_size_or_seed(self, call, name):
        # a float is refused here too, by the same rule (rootdata._as_int)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    @pytest.mark.parametrize("call", [
        lambda: mc_functional_equation(3, 2, np.eye(4), np.eye(4), 100, -1),
        lambda: haar_rotation(4, 1, -1),
        lambda: haar_rotation(4, 0, np.int64(-1)),
        lambda: haar_sample_stabilizer(3, 2, -1),
    ], ids=["mc-seed", "haar-seed", "haar-no-samples", "stabilizer-seed"])
    def test_negative_seed(self, call):
        # named here, not left to NumPy's SeedSequence, whatever the count
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            call()

    def test_numpy_integers_are_integers(self):
        fn = ZonalFunction(np.int64(5), np.int32(3))
        assert (fn.n, fn.k) == (5, 3) and type(fn.n) is int and type(fn.k) is int
        assert fn(0.3) == zonal_eval(5, 3, 0.3) == zonal_eval(np.int64(5), np.uint8(3), 0.3)
        assert ode_residual(np.int16(5), np.int64(3), 0.3) == ode_residual(5, 3, 0.3)


class TestShapes:
    @pytest.mark.parametrize("points", [[0.1, 0.2, -0.7], (0.1, 0.2, -0.7), [[0.1], [-1.0]], [],
                                        [0.5], (1.0,)])
    def test_lists_and_tuples_read_as_arrays(self, points):
        arr = np.array(points, dtype=float)
        for fn in (zonal_eval, ode_residual):
            value = fn(6, 3, points)
            assert isinstance(value, np.ndarray) and value.shape == arr.shape
            assert np.array_equal(value, fn(6, 3, arr))
        assert np.array_equal(ZonalFunction(6, 3)(points), zonal_eval(6, 3, arr))

    @pytest.mark.parametrize("t", [0.25, 1, np.float32(0.25), np.array(0.25), np.int64(-1)])
    def test_zero_dimensional_reads_as_float(self, t):
        for fn in (zonal_eval, ode_residual):
            value = fn(6, 3, t)
            assert type(value) is float
            assert value == fn(6, 3, np.array([t], dtype=float))[0]


class TestLimitZonal:
    def test_matrix_entry_power(self):
        x = planar_rotation(4, 0.7)
        assert limit_zonal(3, x) == pytest.approx(math.cos(0.7) ** 3, rel=1e-15)
        assert limit_zonal(0, x) == 1.0

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            limit_zonal(1, np.ones((3, 3)))
        with pytest.raises(ValueError, match="proper rotation"):
            limit_zonal(1, np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="square"):
            limit_zonal(1, np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonnegative"):
            limit_zonal(-1, np.eye(3))

    def test_rejects_nan_matrix(self):
        # NaN compares False both ways, so the checks must not read "nan > tol"
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError, match="not orthogonal"):
            limit_zonal(2, bad)
        with pytest.raises(ValueError, match="not orthogonal"):
            mc_functional_equation(2, 1, bad, np.eye(3), samples=10, seed=0)
        with pytest.raises(ValueError, match="not orthogonal"):
            mc_functional_equation(2, 1, np.eye(3), bad, samples=10, seed=0)


class TestPlanarRotation:
    def test_entries_and_determinant(self):
        r = planar_rotation(5, 0.3, axes=(1, 3))
        assert r[1, 1] == pytest.approx(math.cos(0.3))
        assert r[3, 1] == pytest.approx(math.sin(0.3))
        assert r[1, 3] == pytest.approx(-math.sin(0.3))
        assert r[0, 0] == 1.0
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            planar_rotation(3, 0.1, axes=(0, 3))
        with pytest.raises(ValueError, match="out of range"):
            planar_rotation(3, 0.1, axes=(1, 1))


class TestHaarSampling:
    def test_shape_orthogonality_determinant(self):
        q = haar_rotation(4, 300, seed=11)
        assert q.shape == (300, 4, 4)
        defect = np.max(np.abs(np.einsum("sij,sik->sjk", q, q) - np.eye(4)))
        assert defect < 1e-12
        assert np.all(np.linalg.det(q) > 0.5)

    def test_deterministic_and_prefix_stable(self):
        a = haar_rotation(3, 10, seed=5)
        b = haar_rotation(3, 10, seed=5)
        assert np.array_equal(a, b)
        longer = haar_rotation(3, 25, seed=5)
        assert np.array_equal(longer[:10], a)
        assert not np.array_equal(haar_rotation(3, 10, seed=6), a)

    def test_prefix_stable_across_block_boundary(self):
        short = haar_rotation(2, 4097, seed=9)
        longer = haar_rotation(2, 4100, seed=9)
        assert np.array_equal(longer[:4097], short)

    def test_mean_near_zero(self):
        q = haar_rotation(3, 2000, seed=101)
        assert np.max(np.abs(q.mean(axis=0))) < 0.06

    def test_count_zero(self):
        assert haar_rotation(3, 0, seed=1).shape == (0, 3, 3)
        with pytest.raises(ValueError, match="dim >= 1"):
            haar_rotation(0, 1, seed=1)


class TestStabilizerSampling:
    def test_exact_embedding(self):
        h = haar_sample_stabilizer(4, 50, seed=3)
        assert h.shape == (50, 5, 5)
        assert np.all(h[:, 0, 0] == 1.0)
        assert np.all(h[:, 0, 1:] == 0.0)
        assert np.all(h[:, 1:, 0] == 0.0)
        inner = h[:, 1:, 1:]
        assert np.array_equal(inner, haar_rotation(4, 50, seed=3))

    def test_bit_exact_invariance_of_corner_entry(self):
        x = planar_rotation(5, 1.234, axes=(0, 2)) @ planar_rotation(5, -0.4, axes=(1, 4))
        for h in haar_sample_stabilizer(4, 8, seed=21):
            assert (h @ x)[0, 0] == x[0, 0]
            assert (x @ h)[0, 0] == x[0, 0]

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 1"):
            haar_sample_stabilizer(0, 1, seed=0)


def _ks_statistic(u, v):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_u - F_v|."""
    u, v = np.sort(u), np.sort(v)
    points = np.concatenate([u, v])
    cdf_u = np.searchsorted(u, points, side="right") / u.size
    cdf_v = np.searchsorted(v, points, side="right") / v.size
    return float(np.max(np.abs(cdf_u - cdf_v)))


class TestOrbitSampler:
    """The orbit draw t = a0 b0 + |a'| |b'| u, with u = (g0 - g1)/(g0 + g1)
    for two iid Gamma((n-1)/2) variates, against the full Haar QR draw
    t = a0 b0 + a'.Q b', which it replaces in the Monte-Carlo check."""

    COUNT = 20000

    @staticmethod
    def _draw(a, b, take, rng):
        """``_sample_t`` for the first row a of x and first column b of y."""
        return _sample_t(a[0] * b[0], np.linalg.norm(a[1:]) * np.linalg.norm(b[1:]),
                         a.size - 1, take, rng)

    def _both_samplers(self, n):
        x = haar_rotation(n + 1, 1, seed=300 + n)[0]
        y = haar_rotation(n + 1, 1, seed=400 + n)[0]
        a, b = x[0, :], y[:, 0]
        orbit = self._draw(a, b, self.COUNT, np.random.default_rng(500 + n))
        q = _haar_block(n, self.COUNT, np.random.default_rng(600 + n))
        full = a[0] * b[0] + np.einsum("i,sij,j->s", a[1:], q, b[1:])
        return a, b, orbit, full

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_exact_moments(self, n):
        # a'.u for u uniform on S^(n-1) has mean 0 and second moment |a'|^2/n
        a, b, orbit, full = self._both_samplers(n)
        m1 = a[0] * b[0]
        m2 = m1 ** 2 + float(a[1:] @ a[1:]) * float(b[1:] @ b[1:]) / n
        for t in (orbit, full):
            for values, want in ((t, m1), (t * t, m2)):
                se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
                assert abs(float(np.mean(values)) - want) <= 4.0 * se

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_same_law_as_full_qr(self, n):
        _, _, orbit, full = self._both_samplers(n)
        # asymptotic two-sample KS critical value at alpha = 0.001
        c_alpha = math.sqrt(-0.5 * math.log(0.001 / 2))
        critical = c_alpha * math.sqrt(2.0 / self.COUNT)
        assert _ks_statistic(orbit, full) < critical


    @staticmethod
    def _unit_pair(n, seed):
        """A first row a and a first column b of rotations of R^(n+1), as
        unit vectors: no (n+1) x (n+1) matrix is built."""
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(n + 1), rng.standard_normal(n + 1)
        return a / np.linalg.norm(a), b / np.linalg.norm(b)

    def test_prefix_of_a_longer_draw(self):
        a, b = self._unit_pair(7, 1)
        longer = self._draw(a, b, 1000, np.random.default_rng(77))
        for m in (1, 2, 999):
            assert np.array_equal(self._draw(a, b, m, np.random.default_rng(77)), longer[:m])

    @pytest.mark.parametrize("n", [2, 3, 60, 10 ** 4])
    def test_two_gamma_variates_per_sample(self, n):
        # bit for bit the formula on a twin generator's one (take, 2) draw,
        # which leaves both generators in the same state: no O(n) draw
        a, b = self._unit_pair(n, n)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        t = self._draw(a, b, 300, rng)
        g = twin.standard_gamma((n - 1) / 2, (300, 2))
        u = (g[:, 0] - g[:, 1]) / (g[:, 0] + g[:, 1])
        assert np.array_equal(t, a[0] * b[0] + (np.linalg.norm(a[1:]) * np.linalg.norm(b[1:])) * u)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 9, 100, 10 ** 4])
    def test_exact_central_moments(self, n):
        # d = t - a0 b0 = |a'| |b'| u with E u^2 = 1/n, E u^4 = 3/(n(n+2))
        a, b = self._unit_pair(n, 700 + n)
        d = self._draw(a, b, self.COUNT, np.random.default_rng(800 + n)) - a[0] * b[0]
        s2 = float(a[1:] @ a[1:]) * float(b[1:] @ b[1:])
        for values, want in ((d ** 2, s2 / n), (d ** 4, 3 * s2 * s2 / (n * (n + 2)))):
            se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
            assert abs(float(np.mean(values)) - want) <= 4.0 * se


def _poly_at(poly, t):
    return sum(coeff * t ** m for m, coeff in enumerate(poly))


class TestExactRankOne:
    """The paper's functional equation on S^n, exactly, in Fractions.

    t = (x h y)[0,0] = A + c u with A = cos(tx) cos(ty), c^2 = (1 - cos^2 tx)
    (1 - cos^2 ty) and u one coordinate of a uniform point of S^(n-1), whose
    odd moments vanish: so E f(A + c u) is exact at rational cosines."""

    COSINES = ((Fraction(3, 5), Fraction(5, 13)), (Fraction(-1, 3), Fraction(7, 9)),
               (Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(-2, 7)))

    @staticmethod
    def _average(poly, n, cx, cy):
        """E p(A + c u) for p given by its coefficients."""
        a, c2 = cx * cy, (1 - cx * cx) * (1 - cy * cy)
        return sum(coeff * math.comb(m, 2 * j) * a ** (m - 2 * j) * c2 ** j * sphere_moment(n, j)
                   for m, coeff in enumerate(poly) for j in range(m // 2 + 1))

    def test_polynomial_is_zonal_eval(self):
        for n in (2, 3, 7, 40):
            for k in range(7):
                coeffs = [float(c) for c in zonal_polynomial(n, k)]
                values = np.polynomial.polynomial.polyval(GRID, coeffs)
                assert np.max(np.abs(values - zonal_eval(n, k, GRID))) <= 1e-13

    def test_functional_equation(self):
        for n in range(2, 41):
            for k in range(7):
                poly = zonal_polynomial(n, k)
                for cx, cy in self.COSINES:
                    want = _poly_at(poly, cx) * _poly_at(poly, cy)
                    assert self._average(poly, n, cx, cy) == want, (n, k, cx, cy)

    def test_power_limit_rate(self):
        # for phi = t^k, n (E (A + c u)^k - A^k) -> C(k, 2) A^(k-2) c^2; the
        # terms j >= 2 add n E u^(2j) <= (2j-1)!!/n, and at k = 3 there are none
        for cx, cy in self.COSINES:
            a, c2 = cx * cy, (1 - cx * cx) * (1 - cy * cy)
            for k in range(2, 7):
                power = [0] * k + [1]
                limit = math.comb(k, 2) * a ** (k - 2) * c2
                rest = sum(math.comb(k, 2 * j) * abs(a) ** (k - 2 * j) * c2 ** j
                           * math.prod(range(1, 2 * j, 2)) for j in range(2, k // 2 + 1))
                for n in (2, 10, 100, 10 ** 3, 10 ** 4):
                    scaled = n * (self._average(power, n, cx, cy) - a ** k)
                    assert abs(scaled - limit) <= rest / n, (k, n)
                    if k == 3:
                        assert scaled == 3 * a * c2


class TestMCResult:
    def test_zscore_branches(self):
        assert MCResult(1.0, 0.1, 1.2, 10).zscore() == pytest.approx(2.0)
        assert MCResult(1.0, 0.0, 1.0, 10).zscore() == 0.0
        assert MCResult(1.0, 0.0, 2.0, 10).zscore() == math.inf
        # a gap of a few eps is rounding, however small the standard error
        assert MCResult(0.5, 6.4e-19, 0.5 + 2 ** -52, 20000).zscore() == 0.0
        assert MCResult(-0.25, 0.0, -0.25 - 2 ** -50, 20000).zscore() == 0.0
        assert MCResult(0.5, 1e-19, 0.5 + 1e-12, 20000).zscore() > 4.0


class TestFunctionalEquation:
    def test_exact_when_degree_zero(self):
        x = planar_rotation(4, 0.9)
        y = planar_rotation(4, 0.4)
        result = mc_functional_equation(3, 0, x, y, samples=100, seed=1)
        assert result.estimate == 1.0
        assert result.target == 1.0
        assert result.zscore() == 0.0

    def test_exact_at_identity(self):
        eye = np.eye(4)
        result = mc_functional_equation(3, 2, eye, eye, samples=50, seed=1)
        assert result.estimate == 1.0
        assert result.target == 1.0
        assert result.std_error == 0.0

    def test_zscore_small_for_planar_pairs(self):
        x = planar_rotation(4, 0.9)
        y = planar_rotation(4, 0.4)
        for k in (1, 2, 3):
            result = mc_functional_equation(3, k, x, y, samples=20000, seed=42 + k)
            assert result.samples == 20000
            assert result.zscore() <= 4.0

    def test_exact_when_y_fixes_base_direction(self):
        # b' = 0: every sample's t is a0 b0 = x[0, 0], whatever the draw
        x = planar_rotation(4, 0.9)
        y = planar_rotation(4, 0.4, axes=(1, 2))
        for k in (1, 2, 3):
            result = mc_functional_equation(3, k, x, y, samples=5000, seed=k)
            assert result.estimate == result.target
            assert result.std_error == 0.0

    def test_identity_up_to_rounding(self):
        """A whole number of turns is the identity up to rounding: every
        sample is then the same number up to rounding, and its std_error
        lies far below the rounding gap between estimate and target."""
        runs = 0
        for n in (3, 9, 30):
            for k in range(9):
                for theta_y in (2 * math.pi, -2 * math.pi, 4 * math.pi):
                    for theta_x in (0.9, 2 * math.pi):
                        x = planar_rotation(n + 1, theta_x)
                        y = planar_rotation(n + 1, theta_y)
                        result = mc_functional_equation(n, k, x, y, samples=20000,
                                                        seed=20240817)
                        assert result.zscore() <= 4.0, (n, k, theta_x, theta_y, result)
                        runs += 1
        assert runs == 162

    def test_large_n(self):
        """Criterion 9's check at the dimensions of criterion 8: z <= 4 at
        1e5 samples for n in {30, 100, 200}, k <= 3, planar and Haar x, y."""
        for n in (30, 100, 200):
            base = 20240817 + 10 * n
            pairs = ((planar_rotation(n + 1, 0.9), planar_rotation(n + 1, 0.4)),
                     (haar_rotation(n + 1, 1, seed=base + 101)[0],
                      haar_rotation(n + 1, 1, seed=base + 202)[0]))
            for x, y in pairs:
                for k in range(4):
                    result = mc_functional_equation(n, k, x, y, samples=10 ** 5,
                                                    seed=base + k)
                    assert result.zscore() <= 4.0, (n, k, result)

    def test_bitwise_reproducible(self):
        x = planar_rotation(6, 1.1)
        y = planar_rotation(6, -0.6, axes=(0, 3))
        r1 = mc_functional_equation(5, 2, x, y, samples=5000, seed=7)
        r2 = mc_functional_equation(5, 2, x, y, samples=5000, seed=7)
        assert r1 == r2

    def test_validation(self):
        x = planar_rotation(4, 0.5)
        with pytest.raises(ValueError, match="at least one sample"):
            mc_functional_equation(3, 1, x, x, samples=0, seed=0)
        with pytest.raises(ValueError, match="one sample has no standard error"):
            mc_functional_equation(3, 1, x, x, samples=1, seed=0)
        with pytest.raises(ValueError, match="expected a 4 x 4"):
            mc_functional_equation(3, 1, np.eye(5), np.eye(4), samples=10, seed=0)
