"""The four benchmark workloads, built only from sphelim's public functions.

Each workload turns a seed into a list of operations (setup), runs one
operation through the same calls the matching CLI command makes (timed),
renders an operation's outputs as a key, an exact part for the digest and
a full part for cross-pass comparison, and checks an operation's outputs
against independent oracles (untimed).  Module attributes are looked up at call
time, so functions wrapped by the tracer are the ones called.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from sphelim import cfunc, cli, limits, rootdata, sphere

MAX_Z = 4.0          # mc-check's default z-score gate
ORACLE_RTOL = 1e-9   # criterion 3's relative-gap gate


class OracleGrid:
    """Seeded uniform sample of the criterion-3 grid through ``c-eval --oracle``."""

    def __init__(self, rng: random.Random, tiny: bool):
        points = 40 if tiny else 5000
        instances = _oracle_grid_instances()
        sizes = [5 ** d.rank for d in instances]
        starts = list(itertools.accumulate(sizes, initial=0))
        picks = sorted(rng.sample(range(starts[-1]), points))
        self.ops = []
        inst = 0
        for index in picks:
            while index >= starts[inst + 1]:
                inst += 1
            datum, offset = instances[inst], index - starts[inst]
            coeffs = []
            for _ in range(datum.rank):
                offset, digit = divmod(offset, 5)
                coeffs.append(digit)
            self.ops.append((datum, tuple(coeffs)))
        self.literal = set(rng.sample(range(points), max(1, points // 100)))

    @staticmethod
    def run(op):
        datum, coeffs = op
        value = cfunc.c_value(datum, coeffs)
        exact, approx = cli.fmt_fraction(value), cli.fmt_float(value)
        w = rootdata.weight_from_xi(datum, coeffs)
        shifted = tuple(a + b for a, b in zip(w.coeffs_f, rootdata.rho(datum).coeffs_f))
        oracle = cli.fmt_float(cfunc.c_gamma(datum, shifted))
        return value, exact, approx, oracle

    @staticmethod
    def render(op, result):
        datum, coeffs = op
        _, exact, approx, oracle = result
        return f"{datum.family}{datum.params}{coeffs}", exact, f"{exact} {approx} {oracle}"

    def check(self, i, op, result, wrong_expected) -> bool:
        value, _, _, oracle = result
        expected = float(oracle) * (2.0 if wrong_expected and i == 0 else 1.0)
        if abs(expected - float(value)) > ORACLE_RTOL * float(value):
            return False
        return i not in self.literal or value == _literal_product(*op)


def _oracle_grid_instances():
    """Criterion 3's sweep: Grassmannian rows at p = 1..6 (q = p+1) and
    p = 1, 2 (q = p+3), other rows at every rank up to 6, and the sphere
    alias at q = 2."""
    out = []
    for fam in rootdata.FAMILIES.values():
        if fam.slug == "rank1-real":
            out.append(rootdata.build_space(fam.slug, q=2))
        elif fam.param_kind == "pq":
            out += [rootdata.build_space(fam.slug, p=p, q=p + 1) for p in range(1, 7)]
            out += [rootdata.build_space(fam.slug, p=p, q=p + 3) for p in (1, 2)]
        else:
            for rank in range(1, 7):
                n = next((n for n in (rank, rank + 1)
                          if n >= fam.min_n and fam.rank_of(n) == rank), None)
                if n is not None:
                    out.append(rootdata.build_space(fam.slug, n=n))
    return out


def _literal_product(datum, coeffs) -> Fraction:
    """The displayed product, factor by factor over the positive
    nonmultipliable roots with nonzero multiplicity."""
    mu = rootdata.weight_from_xi(datum, coeffs)
    value = Fraction(1)
    for root in rootdata.positive_nonmultipliable_roots(datum):
        if datum.mults_for(root.orbit) != (0, 0):
            value *= cfunc.c_factor_reference(cfunc.CFactorParams.from_root(datum, mu, root))
    return value


INFINITE_FAMILIES = ("group-su", "group-spin-odd", "group-spin-even", "group-sp",
                     "su-over-so", "su-over-sp", "so-over-u-even", "so-over-u-odd",
                     "sp-over-u")


class DeepChain:
    """Infinite-rank chains scanned to one deep level in a single batch,
    as ``limit-scan --batch L --max-level L`` does.

    Every non-Grassmannian family scans each of its first three fundamental
    weights, padded to the family's smallest rank.  The work is fixed: the
    seed only chooses which levels the check recomputes from scratch.
    """

    CHECK_EVERY = 8

    def __init__(self, rng: random.Random, tiny: bool):
        self.level = 12 if tiny else 54
        self.ops = []
        for family in INFINITE_FAMILIES:
            fam = rootdata.FAMILIES[family]
            base = min(fam.rank_of(n) for n in (fam.min_n, fam.min_n + 1))
            for j in range(3):
                coeffs = [0] * max(base, j + 1)
                coeffs[j] = 1
                self.ops.append(limits.DirectSystem(family, tuple(coeffs)))
        self.offset = rng.randrange(self.CHECK_EVERY)

    def run(self, system):
        return limits.classify_scan(system, self.level, batch=self.level, max_workers=1)

    @staticmethod
    def render(system, result):
        return _render_chain(system, result)

    def check(self, i, system, result, wrong_expected) -> bool:
        seq, report = result
        if report.verdict != limits.VERDICT_ZERO or report.evidence["certificate"] is None:
            return False
        if any(b > a for a, b in zip(seq.values, seq.values[1:])):
            return False
        for level, value in zip(seq.levels, seq.values):
            if (level % self.CHECK_EVERY == self.offset
                    and value != cfunc.c_value(*limits.propagate(system, level))):
                return False
        if (system.family, system.base_coeffs) == ("group-su", (1,)):
            shift = 2 if wrong_expected else 1  # c = 1/(r+1) at rank r
            return all(v == Fraction(1, r + shift) for r, v in zip(seq.levels, seq.values))
        return True


class StableChain:
    """Finite-rank Grassmannian chains over the three fields, p = 1..6,
    scanned with the default config and batching until PositiveLimit.

    Each chain carries the all-ones weight xi_1 + ... + xi_p, which pairs
    nontrivially with every root.  The work is fixed and ignores the seed.
    """

    MAX_LEVEL = 20000

    def __init__(self, rng: random.Random, tiny: bool):
        self.ops = [limits.DirectSystem(family, (1,) * p, fixed_p=p)
                    for family in ("grass-real", "grass-complex", "grass-quaternion")
                    for p in range(1, 3 if tiny else 7)]

    def run(self, system):
        return limits.classify_scan(system, self.MAX_LEVEL, max_workers=1)

    @staticmethod
    def render(system, result):
        return _render_chain(system, result)

    @staticmethod
    def check(i, system, result, wrong_expected) -> bool:
        want = limits.VERDICT_ZERO if wrong_expected and i == 0 else limits.VERDICT_POSITIVE
        return result[1].verdict == want


def _render_chain(system, result):
    seq, report = result
    exact = report.verdict + " " + ",".join(cli.fmt_fraction(v) for v in seq.values)
    return (f"{system.family}/{system.fixed_p}{system.base_coeffs}", exact,
            f"{exact} {report.limit_estimate!r}")


class MCSphere:
    """``mc-check`` over n in {3, 9, 30, 60} and k in 0..3, with planar and
    with seeded Haar x, y.  Sample counts give each n a similar cost."""

    SAMPLES = {3: 30000, 9: 6000, 30: 750, 60: 300}
    REPEATS = 4  # calls rerun in-process by the gate

    def __init__(self, rng: random.Random, tiny: bool):
        samples = {3: 400, 9: 80} if tiny else self.SAMPLES
        self.ops = []
        for n, count in samples.items():
            for k in range(4):
                self.ops.append((n, k, count, "planar", rng.uniform(0.1, 3.0),
                                 rng.uniform(0.1, 3.0), rng.randrange(2 ** 31)))
                self.ops.append((n, k, count, "haar", rng.randrange(2 ** 31),
                                 rng.randrange(2 ** 31), rng.randrange(2 ** 31)))
        self.repeat = rng.sample(range(len(self.ops)), min(self.REPEATS, len(self.ops)))

    @staticmethod
    def run(op):
        n, k, samples, kind, a, b, seed = op
        if kind == "haar":
            x = sphere.haar_rotation(n + 1, 1, a)[0]
            y = sphere.haar_rotation(n + 1, 1, b)[0]
        else:
            x = sphere.planar_rotation(n + 1, a)
            y = sphere.planar_rotation(n + 1, b)
        return sphere.mc_functional_equation(n, k, x, y, samples, seed)

    @staticmethod
    def render(op, mc):
        n, k, _, kind, *_ = op
        return (f"{n}/{k}/{kind}", repr(mc.target),
                f"{mc.estimate!r} {mc.std_error!r} {mc.target!r} {mc.samples}")

    def check(self, i, op, mc, wrong_expected) -> bool:
        if wrong_expected and i == 0:
            mc = mc._replace(target=mc.target + 1.0)
        if not mc.zscore() <= MAX_Z:
            return False
        return i not in self.repeat or self.run(op) == mc


WORKLOADS = {
    "oracle_grid": OracleGrid,
    "deep_chain": DeepChain,
    "stable_chain": StableChain,
    "mc_sphere": MCSphere,
}
