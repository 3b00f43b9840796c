"""Lattice decomposition of a finite support and the graded point sets.

decompose() expresses each support point x_k exactly as an integer
combination of a maximal rationally independent subset Y, divided by a
common denominator p. The graded sets

    A_m = { (n_1 y_1 + ... + n_nu y_nu) / p :
            |n_i| <= m*tau for i < nu,  |n_nu| <= nu*m*tau + 1 }

are then enumerated, counted inside intervals against the density
constant gamma = (2 tau)^(nu-1) p / y_nu, and checked for the shift
closure  A_m cap (-x_l, 0) + X  inside  A_{m+1} cap (-x_l, x_l).

Counting is range counting with exact resolution near edges: for each
prefix of the integer tuple, the kernel classifies the last coordinate in
blocks from float data, and only tuples whose value lands within a
rigorous guard of an interval edge are re-decided with exact arithmetic,
so every reported count is exact. The float data come from cached
doubles, by rules that exactreal writes once: each y_i and its radius
from Y[i].approx(), each edge from its approx() scaled by p
(scaled_edges), and the guard (tuple_guard) covers those radii, the
error of float(p) and all rounding. A tuple's Point (point_of) carries
the ball of combination_ball. The kernel reads the float edges sorted, so
edges that collide in doubles (a tie or a swap) go through it as usual:
the guard keeps every tuple it decides on the same side of each exact
edge. The kernel is the filter's one consumer. The shift closure's
interval test needs no float data: its hits lie in (-x_l, 0) exactly,
and one exact test per spec puts every row value in (0, x_l], so each
sum lies in (-x_l, x_l); a spec that fails that test (one built by hand)
has each sum compared exactly instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import kernel
from .errors import CapExceeded, ConfigError
from .exactreal import (GeneratorBasis, IntervalSet, Point, combination_ball,
                        compare, escalate, fraction_str, scaled_edges,
                        sort_points, tuple_guard)

DEFAULT_TUPLE_CAP = 10**7


class NuOneDensityError(ConfigError):
    """interval_count_ratio requires nu >= 2; rational (nu = 1) supports
    are counted exactly with count_progression instead."""


# ---------------------------------------------------------------------------
# the spec of a decomposed support
# ---------------------------------------------------------------------------

class CertQuotient:
    """Certified value num / den with rational num and a positive Point den."""

    __slots__ = ("num", "den")

    def __init__(self, num: Fraction, den: Point):
        self.num = num
        self.den = den

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        def decide(b):
            lo, hi = self.den.enclosure(b)
            return (self.num / hi, self.num / lo) if lo > 0 else None

        return escalate(decide, bits, self.den.basis.precision_cap,
                        "denominator {!r} not certified positive at {cap} bits", self.den)


@dataclass
class LatticeSpec:
    """Exact integer representation of a support over its independent core.

    coeffs[k] holds the integer row of x_k, i.e.
    x_k == sum_i coeffs[k][i] * Y[i] / p, verified at construction time by
    decompose(). tau is the max absolute entry of the matrix.
    """

    basis: GeneratorBasis
    X: tuple[Point, ...]
    Y: tuple[Point, ...]
    coeffs: tuple[tuple[int, ...], ...]
    p: int
    tau: int

    @property
    def nu(self) -> int:
        return len(self.Y)

    @property
    def x_l(self) -> Point:
        return self.X[-1]

    @property
    def gamma(self) -> CertQuotient:
        return CertQuotient(Fraction((2 * self.tau) ** (self.nu - 1) * self.p), self.Y[-1])

    def validate(self):
        if self.Y[-1] != self.X[-1]:
            raise ValueError("largest support point must belong to Y")
        if self.tau != max(abs(n) for row in self.coeffs for n in row):
            raise ValueError("tau does not match the coefficient matrix")
        for x, row in zip(self.X, self.coeffs):
            acc = self.basis.zero()
            for n, y in zip(row, self.Y):
                acc = acc + y * n
            if acc != x * self.p:
                raise ValueError(f"reconstruction failed for {x!r}")

    def bounds(self, m: int) -> list[int]:
        return [m * self.tau] * (self.nu - 1) + [self.nu * m * self.tau + 1]

    def tuple_count(self, m: int) -> int:
        out = 1
        for b in self.bounds(m):
            out *= 2 * b + 1
        return out

    @cached_property
    def _y_cols(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, cols): cols[j][i] is Y[i].nums[j] scaled to the common
        denominator D of the Y[i]."""
        d = math.lcm(*(y.den for y in self.Y))
        return d, tuple(zip(*(tuple(c * (d // y.den) for c in y.nums) for y in self.Y)))

    @cached_property
    def _y_balls(self) -> list[tuple[float, float]]:
        return [y.approx() for y in self.Y]

    def point_of(self, tup: Sequence[int]) -> Point:
        """The Point sum_i tup[i] Y[i] / p, with the ball that
        exactreal.combination_ball gives it."""
        d, cols = self._y_cols
        pt = Point(self.basis, tuple([sum(map(operator.mul, tup, col)) for col in cols]),
                   self.p * d)
        pt._approx = combination_ball(tup, self._y_balls, self.p)
        return pt

    def to_json(self):
        return {
            "basis": self.basis.spec_strings(),
            "X": [x.to_json() for x in self.X],
            "Y": [y.to_json() for y in self.Y],
            "coeffs": [list(row) for row in self.coeffs],
            "p": self.p,
            "tau": self.tau,
        }

    @classmethod
    def from_json(cls, obj, basis=None) -> "LatticeSpec":
        basis = basis or GeneratorBasis.from_specs(obj["basis"])
        spec = cls(
            basis=basis,
            X=tuple(Point.from_json(basis, x) for x in obj["X"]),
            Y=tuple(Point.from_json(basis, y) for y in obj["Y"]),
            coeffs=tuple(tuple(int(n) for n in row) for row in obj["coeffs"]),
            p=int(obj["p"]),
            tau=int(obj["tau"]),
        )
        return spec


def decompose(X: Sequence[Point]) -> LatticeSpec:
    """Integer representation of X over a maximal independent subset.

    Candidates are scanned from the largest point downward so the chosen
    subset always contains x_l and, among maximal independent subsets, is
    the lexicographically latest by index (deterministic tie-breaking).
    One exact Gauss-Jordan elimination does both: the matrix whose columns
    are the points' coefficient vectors, largest first, is row-reduced;
    its pivot columns are the greedy subset, and each reduced column holds
    its point's coordinates over the pivots.
    """
    pts = sort_points({p.key: p for p in X}.values())
    if not pts:
        raise ConfigError("empty support")
    basis = pts[0].basis
    for p in pts:
        if p.basis != basis:
            raise ValueError("support points over different bases")
        if p.sign() <= 0 or compare(p, basis.rational(1)) >= 0:
            raise ConfigError(f"support point outside (0,1): {p!r}")
    cols = [p.coeffs for p in reversed(pts)]
    rows = [list(row) for row in zip(*cols)]
    pivots = []
    for j in range(len(cols)):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][j]
        rows[r] = [c / pv for c in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                f = row[j]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(j)
    # the columns, and so the pivots, run from the largest point down;
    # Y and X ascend, so both are read in reverse
    Y = tuple(pts[-1 - j] for j in reversed(pivots))
    rationals = list(zip(*(row[::-1] for row in reversed(rows[:len(pivots)]))))
    p_den = 1
    for r in rationals:
        for q in r:
            p_den = p_den * q.denominator // math.gcd(p_den, q.denominator)
    coeffs = tuple(tuple(int(q * p_den) for q in r) for r in rationals)
    tau = max(abs(n) for row in coeffs for n in row)
    spec = LatticeSpec(basis=basis, X=tuple(pts), Y=Y, coeffs=coeffs, p=p_den, tau=tau)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# filtered counting: rigorous float data + exact fallback
# ---------------------------------------------------------------------------

def _filter_data(spec: LatticeSpec, window: IntervalSet, bounds: Sequence[int]):
    """(y_hat, edges, guard) for the kernel, as _classify passes them.

    y_hat[i] is the midpoint of the cached Y[i].approx(), edges are the
    window's edges scaled by p in doubles (exactreal.scaled_edges), and
    guard is exactreal.tuple_guard: a rigorous bound on |float value -
    p * exact value| for any tuple within bounds summed in the kernel's
    order, and on |edge - p * exact edge|. edges are sorted: where two
    edges collide in doubles, their float images may tie or swap, and a
    value that clears both by more than guard lies on the same side of
    each exact edge as of its double, so its count of edges below is the
    same in either order. The edges and their error are kept on the
    window with their p, so that build_eg, which reads one window at
    every level, scales them once; no caller may change the list.
    """
    balls = spec._y_balls
    got = window._scaled
    if got is None or got[0] != spec.p:
        edges, edge_err = scaled_edges(map(Point.approx, window.edge_points()), spec.p)
        edges.sort()
        got = window._scaled = (spec.p, edges, edge_err)
    _, edges, edge_err = got
    return [m for m, _ in balls], edges, tuple_guard(balls, bounds, edge_err)


def _classify(spec: LatticeSpec, m: int, window: IntervalSet, cap: int, collect: bool):
    """Exact (count, hit_tuples) of A_m inside window."""
    if m < 0:
        raise ConfigError(f"lattice level m must be >= 0, got m = {m}")
    bounds = spec.bounds(m)
    total = spec.tuple_count(m)
    if total > cap:
        raise CapExceeded(f"A_{m} needs {total} tuples, cap is {cap}")
    if window.is_empty():
        return 0, [] if collect else None
    y_hat, edges, guard = _filter_data(spec, window, bounds)
    count, inside, uncertain = kernel.classify_tuples(y_hat, bounds, edges, guard, collect)
    extra = []
    for tup in uncertain:
        if window.contains(spec.point_of(tup)):
            extra.append(tup)
    if collect:
        hits = list(inside) + extra
        return len(hits), hits
    return count + len(extra), None


def lattice_count(spec: LatticeSpec, m: int, window: IntervalSet,
                  cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Exact #(A_m cap window) by range counting."""
    count, _ = _classify(spec, m, window, cap, collect=False)
    return count


def lattice_hits(spec: LatticeSpec, m: int, window: IntervalSet,
                 cap: int = DEFAULT_TUPLE_CAP) -> list[Point]:
    """Sorted points of A_m cap window."""
    _, hits = _classify(spec, m, window, cap, collect=True)
    return sort_points(spec.point_of(t) for t in hits)


def enumerate_lattice(spec: LatticeSpec, m: int,
                      cap: int = DEFAULT_TUPLE_CAP) -> list[Point]:
    """All of A_m as sorted Points (deduplicated via exact equality)."""
    from itertools import product

    total = spec.tuple_count(m)
    if total > cap:
        raise CapExceeded(f"A_{m} needs {total} tuples, cap is {cap}")
    seen = {}
    for tup in product(*[range(-b, b + 1) for b in spec.bounds(m)]):
        pt = spec.point_of(tup)
        seen[pt.key] = pt
    return sort_points(seen.values())


def expected_cardinality(spec: LatticeSpec, m: int) -> int:
    """(2 m tau + 1)^(nu-1) * (2 (nu m tau + 1) + 1), exact for an
    independent core. The tests check enumerated levels against it."""
    return (2 * m * spec.tau + 1) ** (spec.nu - 1) * (2 * (spec.nu * m * spec.tau + 1) + 1)


# ---------------------------------------------------------------------------
# density counting and shift closure
# ---------------------------------------------------------------------------

@dataclass
class CountReport:
    m: int
    count: int
    predicted_lo: Fraction
    predicted_hi: Fraction
    ratio: float

    def to_json(self):
        return {
            "m": self.m,
            "count": self.count,
            "predicted": {
                "lo": fraction_str(self.predicted_lo.limit_denominator(10**30)),
                "hi": fraction_str(self.predicted_hi.limit_denominator(10**30)),
            },
            "predicted_float": float((self.predicted_lo + self.predicted_hi) / 2),
            "ratio": self.ratio,
        }


def interval_count_ratio(spec: LatticeSpec, m: int, interval: tuple[Point, Point],
                         cap: int = DEFAULT_TUPLE_CAP) -> CountReport:
    """Exact count of A_m in an open interval against the density law.

    The predicted value gamma * m^(nu-1) * |I| is reported as a certified
    enclosure; the enumerated count is the ground truth, the ratio a
    diagnostic only.
    """
    if m < 1:
        raise ConfigError(f"density ratio needs m >= 1, got m = {m}")
    if spec.nu < 2:
        raise NuOneDensityError(
            "density ratio needs nu >= 2; use count_progression for "
            "rational supports")
    lo, hi = interval
    lo = spec.basis.rational(lo) if not isinstance(lo, Point) else lo
    hi = spec.basis.rational(hi) if not isinstance(hi, Point) else hi
    window = IntervalSet.single(spec.basis, lo, hi)
    length = hi - lo
    one = spec.basis.rational(1)
    if compare(lo, -one) < 0 or compare(hi, one) > 0:
        raise ConfigError("interval must lie inside (-1, 1)")
    if compare(length * spec.p, spec.Y[-1]) > 0:
        raise ConfigError("interval longer than y_nu / p")
    count = lattice_count(spec, m, window, cap=cap)
    glo, ghi = spec.gamma.enclosure(160)
    llo, lhi = length.enclosure(160)
    scale = Fraction(m ** (spec.nu - 1))
    plo, phi = glo * scale * llo, ghi * scale * lhi
    ratio = count / float((plo + phi) / 2)
    return CountReport(m=m, count=count, predicted_lo=plo, predicted_hi=phi, ratio=ratio)


def count_progression(step: Point, bound: int, interval: tuple[Point, Point]) -> int:
    """Exact #{ n*step : |n| <= bound } inside an open interval, for a
    positive step. Binary search on the exact order, no density law."""
    lo, hi = interval
    if step.sign() <= 0:
        raise ValueError("step must be positive")

    def first_with(pred):
        # smallest n in [-bound-1, bound+1] satisfying the monotone pred
        a, b = -bound - 1, bound + 1
        while a < b:
            mid = (a + b) // 2
            if pred(mid):
                b = mid
            else:
                a = mid + 1
        return a

    n_min = first_with(lambda n: compare(step * n, lo) > 0)
    n_max = first_with(lambda n: compare(step * n, hi) >= 0) - 1
    n_min = max(n_min, -bound)
    n_max = min(n_max, bound)
    return max(0, n_max - n_min + 1)


@dataclass
class ClosureCertificate:
    ok: bool
    m: int
    checked_points: int
    checked_sums: int
    witness: dict | None = None

    def to_json(self):
        out = {
            "ok": self.ok,
            "m": self.m,
            "checked_points": self.checked_points,
            "checked_sums": self.checked_sums,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def shift_closure_check(spec: LatticeSpec, m: int,
                        cap: int = DEFAULT_TUPLE_CAP) -> ClosureCertificate:
    """Exact check of  A_m cap (-x_l, 0) + X  inside  A_{m+1} cap (-x_l, x_l).

    Membership on the left factor is decided by the lattice classifier;
    each sum is checked through its integer representation (unique over
    the independent core) plus an interval test. The interval test is
    decided once per spec: when every row value lies in (0, x_l], each
    hit h in (-x_l, 0) gives -x_l < h + row < x_l, so every sum within
    the integer bounds is inside. Otherwise each such sum is compared
    exactly with -x_l and x_l. Failure returns the violating pair.
    """
    x_l = spec.x_l
    neg_x_l = -x_l
    window = IntervalSet.single(spec.basis, neg_x_l, spec.basis.rational(0))
    _, hits = _classify(spec, m, window, cap, collect=True)
    nu = spec.nu
    hi_bounds = spec.bounds(m + 1)
    rows_inside = all(v.sign() > 0 and compare(v, x_l) <= 0
                      for v in map(spec.point_of, spec.coeffs))
    checked = 0
    for tup in hits:
        for k, row in enumerate(spec.coeffs):
            s = tuple(a + b for a, b in zip(tup, row))
            checked += 1
            ok_bounds = all(abs(s[i]) <= hi_bounds[i] for i in range(nu))
            if ok_bounds:
                if rows_inside:
                    continue
                val = spec.point_of(s)
                if compare(val, neg_x_l) > 0 and compare(val, x_l) < 0:
                    continue
            return ClosureCertificate(
                ok=False, m=m, checked_points=len(hits), checked_sums=checked,
                witness={
                    "x_tuple": list(tup),
                    "x": spec.point_of(tup).to_json(),
                    "k": k,
                    "x_k": spec.X[k].to_json(),
                    "sum_tuple": list(s),
                    "bounds": hi_bounds,
                    "violates": "integer bounds" if not ok_bounds else "interval",
                })
    return ClosureCertificate(ok=True, m=m, checked_points=len(hits), checked_sums=checked)
