"""Exact arithmetic over a declared generator basis.

Every real number handled by this package is a Point: a vector of rational
coefficients over a small basis of declared generators (the constant 1,
square roots of distinct squarefree integers, or decimal literals with a
declared precision). A Point stores its coefficients as integers over one
common denominator, nums / den, always reduced (den > 0, gcd(den, *nums)
== 1, zero as (0, ..., 0) / 1), so all arithmetic runs on ints; the
hashable Point.key == (nums, den) identifies the value, and the read-only
Point.coeffs gives the same vector as a tuple of Fractions. Two Points are
equal exactly when their coefficient vectors are equal; this is forced by
the rational independence of the generators, which is certified
automatically for surd bases and asserted by the user otherwise.

Every certified decision in the package is made here, filter then exact,
by one margin rule and one loop. The filter works on the midpoint-radius
balls of Arb, doubles with a rigorous radius (Point.approx): a value
(m, r) lies in [m - 4r, m + 4r], and two values are separated when those
intervals are more than 1e-300 apart. Each rule of the filter is one
named definition here, and no other module holds a copy of its formula
or its constants:
  - apart, the margin test: compare, Point.sign, floor_point and locate
    call it, bisect_points calls compare, and the cut of
    certified_clusters and cut_limit (the lambda sweep's pass bound)
    reads its constants;
  - sum_radius, the radius of a sum or difference: Point arithmetic,
    torus_locate and the builder's decoding grow their balls by it;
  - scaled_balls, the balls of x * a/b for a run of b (scaled_approx for
    one), whose midpoints are scaled_mid's: Point.__mul__, the lambda
    sweep's window ends, and (scaled_mid alone) the midpoints at which its
    blocks stop;
  - combination_ball, the ball of sum_i n_i y_i / p that the lattice's
    Points carry (LatticeSpec.point_of);
  - scaled_edges and tuple_guard, the lattice kernel's window edges
    scaled by p and its guard, whose absolute term is _GUARD_GAP.
What the filter leaves open goes to escalate, the one precision-escalation
loop: it tries a decision on exact enclosures at a start precision,
doubles the precision up to the basis's precision_cap, and raises
PrecisionExhausted there rather than guessing (possible only when a
declared independence assertion is false, or a decimal generator is too
coarse). Point.sign, floor_point, the lambda search's integral test and
separating rational, and the lattice density constant all escalate
through it.

Lists of Points are ordered and searched by the same rule: sort_points
orders by the cached float enclosures and sorts exactly only inside
clusters whose enclosures cannot be separated (the cut of
certified_clusters, which the lambda sweep uses too), and bisect_points
decides each probe by compare. Never sort or bisect Points through
__lt__. extent reads a set's least and greatest points and its gap from
one such sort.

IntervalSet is the companion set type: a canonical finite union of open
intervals with Point endpoints, supporting exact measure, translation,
scaling and intersection.

Membership mod 1 has one rule, and it is filtered the same way:
torus_locate takes a point and a set's sorted edges and, for each integer
lift near the set's hull, either returns the lift's position among the
edges, decided on doubles by apart, or flags the lift as within that
margin of an edge. Every contains_torus (PointSet, IntervalSet, the
builder's factored witness) reads membership from the positions and
builds the exact lift only for a flagged one; the builder's
decoding carries its residuals the same way, through locate.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, compress, islice, repeat
from typing import Iterable, Sequence

from .errors import ConfigError, PrecisionExhausted

DEFAULT_PRECISION_CAP = 1024

# the margin of apart: a ball (m, r) stands for [m - 4r, m + 4r]; gap 1e-300
_MARGIN_WIDTH = 4.0
_MARGIN_GAP = 1e-300
# the absolute term of the lattice kernel's guard (tuple_guard)
_GUARD_GAP = 1e-280

_SQUAREFREE_PRIME_BOUND = 10**6


def parse_fraction(text) -> Fraction:
    """Parse "p/q", integer or decimal strings into an exact Fraction.

    A zero denominator raises ConfigError; other malformed text raises
    the ValueError of Fraction, which callers that know the field name
    (the CLI's parameter reader) turn into a ConfigError naming it."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {text!r}") from None


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n and d <= _SQUAREFREE_PRIME_BOUND:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


class Generator:
    """One basis element: an exact rational, a square-root surd, or a
    decimal literal of declared precision (in bits)."""

    __slots__ = ("kind", "value", "radicand", "bits")

    def __init__(self, kind, value=None, radicand=None, bits=None):
        self.kind = kind
        self.value = value          # Fraction for "rat" and "dec"
        self.radicand = radicand    # int for "sqrt"
        self.bits = bits            # declared precision for "dec"

    @classmethod
    def parse(cls, spec: str) -> "Generator":
        """rat:<q>, sqrt:<n> or dec:<q>@<bits>, q > 0 and n >= 2
        squarefree; any other spec raises ConfigError."""
        spec = spec.strip()
        kind, _, arg = spec.partition(":")
        dec = re.fullmatch(r"([0-9.eE+/-]+)@(\d+)", arg) if kind == "dec" else None
        try:
            if kind == "rat":
                gen = cls("rat", value=parse_fraction(arg))
            elif kind == "sqrt":
                gen = cls("sqrt", radicand=int(arg))
            elif dec:
                gen = cls("dec", value=parse_fraction(dec.group(1)), bits=int(dec.group(2)))
            else:
                raise ValueError(spec)
        except ValueError:
            raise ConfigError(f"unrecognized generator spec: {spec!r}") from None
        if kind != "sqrt" and gen.value <= 0:
            raise ConfigError(f"generator must be positive: {spec}")
        if kind == "sqrt" and gen.radicand < 2:
            raise ConfigError(f"sqrt generator needs an integer >= 2: {spec}")
        if kind == "sqrt" and not _is_squarefree(gen.radicand):
            raise ConfigError(f"sqrt radicand must be squarefree: {spec}")
        return gen

    def spec_string(self) -> str:
        if self.kind == "rat":
            return f"rat:{fraction_str(self.value)}"
        if self.kind == "sqrt":
            return f"sqrt:{self.radicand}"
        return f"dec:{self.value}@{self.bits}"

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Certified interval containing the generator value.

        For "dec" generators the interval never narrows past the declared
        precision; comparisons that need more raise PrecisionExhausted.
        GeneratorBasis.enclosures, the one caller, caches it per bits.
        """
        if self.kind == "rat":
            return self.value, self.value
        if self.kind == "dec":
            half = Fraction(1, 2**self.bits)
            return self.value - half, self.value + half
        scaled = math.isqrt(self.radicand << (2 * bits))
        return Fraction(scaled, 2**bits), Fraction(scaled + 1, 2**bits)

    def __repr__(self):
        return f"Generator({self.spec_string()!r})"


class GeneratorBasis:
    """Ordered generator list; coordinate 0 is always the rational one.

    Independence of the generator values together with 1 is certified
    automatically when all irrational generators are surds and no radicand
    and no product of two radicands is a perfect square (decided exactly);
    it must be asserted by the caller otherwise.
    """

    __slots__ = ("gens", "independence_certified", "precision_cap",
                 "_enc_cache", "_key", "_unit", "_zeros")

    def __init__(self, generators: Sequence[Generator], assert_independent=False,
                 precision_cap=DEFAULT_PRECISION_CAP):
        gens = list(generators)
        if not gens or gens[0].kind != "rat":
            gens.insert(0, Generator("rat", value=Fraction(1)))
        for g in gens[1:]:
            if g.kind == "rat":
                raise ConfigError("only the leading generator may be rational")
        # {1, sqrt a_1, ..., sqrt a_k} is independent over Q exactly when
        # no a_i and no product a_i * a_j is a perfect square
        radicands = [g.radicand for g in gens if g.kind == "sqrt"]
        for i, a in enumerate(radicands):
            for b in [1] + radicands[:i]:
                if _is_square(a * b):
                    raise ConfigError(f"{b} * {a} is a perfect square, so the "
                                     f"sqrt generators are rationally dependent")
        all_surds = all(g.kind in ("rat", "sqrt") for g in gens)
        self.gens = tuple(gens)
        self.independence_certified = bool(all_surds or assert_independent)
        self.precision_cap = precision_cap
        self._enc_cache = {}
        self._key = tuple(g.spec_string() for g in self.gens)
        # value of coordinate 0, None when it is 1
        self._unit = None if gens[0].value == 1 else gens[0].value
        self._zeros = (0,) * (len(gens) - 1)

    @classmethod
    def from_specs(cls, specs: Sequence[str], **kw) -> "GeneratorBasis":
        return cls([Generator.parse(s) for s in specs], **kw)

    @classmethod
    def rationals(cls, **kw) -> "GeneratorBasis":
        """Basis spanning only the rationals (the unit generator alone)."""
        return cls([], **kw)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def spec_strings(self) -> list[str]:
        return list(self._key)

    def enclosures(self, bits: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(S, ((lo, hi), ...)): integers with lo / S <= g <= hi / S for
        each generator g, the enclosures of Generator.enclosure(bits)
        exactly, over their one common denominator S."""
        got = self._enc_cache.get(bits)
        if got is None:
            encs = [g.enclosure(bits) for g in self.gens]
            s = math.lcm(*(q.denominator for enc in encs for q in enc))
            got = (s, tuple(tuple(q.numerator * (s // q.denominator) for q in enc)
                            for enc in encs))
            self._enc_cache[bits] = got
        return got

    def point(self, coeffs) -> "Point":
        coeffs = [parse_fraction(c) for c in coeffs]
        if len(coeffs) != self.dim:
            raise ConfigError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        den = math.lcm(*(c.denominator for c in coeffs))
        return Point(self, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def rational(self, q) -> "Point":
        """The Point with value q (rational)."""
        if type(q) is int:
            return self.ratio(q, 1)
        q = parse_fraction(q)
        return self.ratio(q.numerator, q.denominator)

    def ratio(self, n: int, d: int) -> "Point":
        """The Point with value n/d, for ints n and d > 0 in any terms. Its
        ball is the double n / d, which int true division rounds correctly,
        so it is the same for every form of the fraction, and sum_radius's
        radius of an exact midpoint. Point reduces the coefficient."""
        m = n / d
        unit = self._unit
        if unit is not None:  # the coefficient is n/d over the unit, which is positive
            n, d = n * unit.denominator, d * unit.numerator
        out = Point(self, (n,) + self._zeros, d)
        out._approx = (m, sum_radius(m, 0.0, 0.0))
        return out

    def zero(self) -> "Point":
        return self.rational(0)

    def __eq__(self, other):
        return isinstance(other, GeneratorBasis) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GeneratorBasis({list(self._key)})"


_APPROX_BITS = 96


def apart(d: float, r: float) -> bool:
    """The filter's margin test: True when two balls whose midpoints differ
    by d and whose radii sum to r certainly hold distinct values, ordered
    as the sign of d; otherwise only an exact test decides."""
    return abs(d) > _MARGIN_WIDTH * r + _MARGIN_GAP


def sum_radius(m: float, ar: float, br: float) -> float:
    """Radius of the ball, midpoint m, of a sum or difference of balls with
    radii ar and br: both radii, the rounding of m and underflow. With
    ar = br = 0 it is GeneratorBasis.rational's radius of an exact m."""
    return (ar + br) * 1.01 + abs(m) * 2.3e-16 + 1e-300


def scaled_mid(approx: tuple[float, float], a: int, b: int) -> float:
    """The midpoint of x * a/b from x's (midpoint, radius): x's midpoint
    times the double a / b."""
    return approx[0] * (a / b)


def scaled_balls(approx: tuple[float, float], a: int, bs) -> list[tuple[float, float]]:
    """(midpoint, radius) of x * a/b for each b of bs, from those of x: the
    midpoint is scaled_mid's, and the radius grows to cover x's radius, the
    rounding of a/b and of the product, and underflow. A run of ratios with
    one numerator takes one pass over doubles, with scaled_mid's product
    written out in the loop: a call per ratio would slow the lambda
    sweep's runs of window ends."""
    am, ar = approx
    grow = ar + abs(am) * 1.2e-16
    out = []
    for b in bs:
        qf = a / b
        m = am * qf  # scaled_mid(approx, a, b)
        out.append((m, grow * abs(qf) * 1.01 + abs(m) * 1.2e-16 + 1e-300))
    return out


def scaled_approx(approx: tuple[float, float], a: int, b: int) -> tuple[float, float]:
    """(midpoint, radius) of x * a/b from those of x (scaled_balls).
    Point.__mul__ uses it, so a value kept as x and a/b gets exactly the
    doubles that the Point x * a/b would carry."""
    return scaled_balls(approx, a, (b,))[0]


def combination_ball(ns: Sequence[int], balls: Sequence[tuple[float, float]],
                     p: int) -> tuple[float, float]:
    """(midpoint, radius) of sum_i n_i y_i / p, for ints n_i and p > 0, from
    the balls (m_i, r_i) of the y_i: each term is y_i scaled by n_i/p, its
    radius grown as in scaled_balls, and the radius of the sum covers the
    rounding of the terms and of their sum, and underflow."""
    mid = rad = mag = 0.0
    for n, (ym, yr) in zip(ns, balls):
        if n:
            qf = n / p
            term = ym * qf
            mid += term
            mag += abs(term)
            rad += (yr + abs(ym) * 1.2e-16) * abs(qf)
    return mid, (rad + mag * (len(ns) + 2) * 2.3e-16) * 1.01 + 1e-300


def scaled_edges(balls: Iterable[tuple[float, float]], p: int) -> tuple[list[float], float]:
    """(images, err): the double m * float(p) of p * e for the ball (m, r)
    of each edge e, and one bound err on |image - p * e| for them all: it
    covers the radius times p, the conversion error |m| * |p - float(p)|
    and the rounding of the product."""
    pf = float(p)
    p_err = float(abs(p - int(pf)))
    images = []
    err = 0.0
    for m, r in balls:
        f = m * pf
        images.append(f)
        err = max(err, r * pf + abs(m) * p_err + abs(f) * 2.3e-16)
    return images, err


def tuple_guard(balls: Sequence[tuple[float, float]], bounds: Sequence[int],
                edge_err: float) -> float:
    """The lattice kernel's guard: with a factor 2 to spare, a bound on
    |s - p * value| for s = sum_i n_i m_i, summed in the kernel's order
    from the balls (m_i, r_i) of the y_i, over every integer tuple with
    |n_i| <= bounds[i], where value = sum_i n_i y_i / p; and on the
    error edge_err of the edges' images (scaled_edges)."""
    err_sum = mag_sum = 0.0
    for (f, err), b in zip(balls, bounds):
        err_sum += b * err
        mag_sum += b * abs(f)
    rounding = (len(balls) + 3) * 2.0**-53 * mag_sum
    return (err_sum + rounding + edge_err) * 2.0 + _GUARD_GAP


class Point:
    """Immutable exact real: rational coefficients nums[i] / den over a
    GeneratorBasis, stored reduced (see the module docstring); den > 0."""

    __slots__ = ("basis", "nums", "den", "_approx")

    def __init__(self, basis: GeneratorBasis, nums: tuple[int, ...], den: int = 1):
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple([n // g for n in nums])
            den //= g
        self.basis = basis
        self.nums = nums
        self.den = den
        self._approx = None

    @property
    def key(self) -> tuple[tuple[int, ...], int]:
        return self.nums, self.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- construction helpers -------------------------------------------

    def _coerce(self, other) -> "Point":
        if type(other) is Point or isinstance(other, Point):
            if other.basis is not self.basis and other.basis != self.basis:
                raise ValueError("points over different bases")
            return other
        return self.basis.rational(other)

    # -- exact arithmetic (module operations over Q) ---------------------
    #
    # When both operands already carry a cached float approximation the
    # result gets one too, with the radius grown conservatively to cover
    # the exact error plus all float rounding; comparisons that the cached
    # bounds cannot decide still fall back to exact interval refinement.

    def _combine(self, other, op):
        """self op other for op in (operator.add, operator.sub)."""
        o = self._coerce(other)
        da, db = self.den, o.den
        if da == db:
            nums = tuple(map(op, self.nums, o.nums))
        else:
            nums = tuple(map(op, map(operator.mul, self.nums, repeat(db)),
                             map(operator.mul, o.nums, repeat(da))))
            da *= db
        out = Point(self.basis, nums, da)
        if self._approx is not None and o._approx is not None:
            am, ar = self._approx
            bm, br = o._approx
            m = op(am, bm)
            out._approx = (m, sum_radius(m, ar, br))
        return out

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        out = Point(self.basis, tuple(map(operator.neg, self.nums)), self.den)
        if self._approx is not None:
            m, r = self._approx
            out._approx = (-m, r)
        return out

    def __mul__(self, scalar):
        if type(scalar) is int:
            return self.scaled(scalar, 1)
        q = scalar if type(scalar) is Fraction else parse_fraction(scalar)
        return self.scaled(q.numerator, q.denominator)

    __rmul__ = __mul__

    def scaled(self, a: int, b: int) -> "Point":
        """self * a/b for ints a and b > 0; the approximation, when self has
        one, is scaled_approx of it."""
        out = Point(self.basis, tuple(map(operator.mul, self.nums, repeat(a))), self.den * b)
        if self._approx is not None:
            out._approx = scaled_approx(self._approx, a, b)
        return out

    def __truediv__(self, scalar):
        q = parse_fraction(scalar)
        return self * (1 / q)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- equality and ordering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Point):
            return self.basis == other.basis and self.key == other.key
        if isinstance(other, (int, Fraction)):
            return self == self.basis.rational(other)
        return NotImplemented

    def __hash__(self):
        # a rational Point equals its int or Fraction value, so it hashes
        # like that value
        if self.is_rational():
            return hash(self.rational_value())
        return hash(self.key)

    def __lt__(self, other):
        return compare(self, self._coerce(other)) < 0

    def __le__(self, other):
        return compare(self, self._coerce(other)) <= 0

    def __gt__(self, other):
        return compare(self, self._coerce(other)) > 0

    def __ge__(self, other):
        return compare(self, self._coerce(other)) >= 0

    # -- certified evaluation ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("point is not rational")
        q = Fraction(self.nums[0], self.den)
        unit = self.basis._unit
        return q if unit is None else q * unit

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        """(lo, hi, t): integers with lo / t <= value <= hi / t, t > 0."""
        s, gens = self.basis.enclosures(bits)
        lo = hi = 0
        for c, (gl, gh) in zip(self.nums, gens):
            if c > 0:
                lo += c * gl
                hi += c * gh
            elif c < 0:
                lo += c * gh
                hi += c * gl
        return lo, hi, s * self.den

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        lo, hi, t = self._bounds(bits)
        return Fraction(lo, t), Fraction(hi, t)

    def approx(self) -> tuple[float, float]:
        """(midpoint, radius) doubles with a rigorous radius bound."""
        got = self._approx
        if got is None:
            lo, hi, t = self._bounds(_APPROX_BITS)
            # int / int is correctly rounded, so m is within |m| * 2^-53 of
            # the exact midpoint (2^-1075 when m is subnormal); the factor
            # rounds the half-width and the sum up, 5e-324 covers underflow
            m = (lo + hi) / (2 * t)
            r = ((hi - lo) / (2 * t) + abs(m) * 2.0**-53) * 1.0000000001 + 5e-324
            got = (m, r)
            self._approx = got
        return got

    def sign(self) -> int:
        """Certified sign: -1, 0 or +1."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.nums[0] > 0 else -1
        m, r = self.approx()
        if apart(m, r):
            return 1 if m > 0 else -1

        def decide(bits):
            lo, hi, _ = self._bounds(bits)
            return 1 if lo > 0 else -1 if hi < 0 else None

        return escalate(decide, 2 * _APPROX_BITS, self.basis.precision_cap,
                        "sign of {!r} undecided at {cap} bits; a declared "
                        "independence assertion may be violated", self)

    def __float__(self):
        return self.approx()[0]

    def __repr__(self):
        return f"Point({self.approx()[0]!r}, coeffs={[fraction_str(c) for c in self.coeffs]})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"coeffs": [fraction_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, basis: GeneratorBasis, obj) -> "Point":
        if isinstance(obj, dict):
            return basis.point(obj["coeffs"])
        return basis.rational(parse_fraction(obj))


def as_point(basis: GeneratorBasis, x) -> Point:
    if isinstance(x, Point):
        if x.basis != basis:
            raise ValueError("points over different bases")
        return x
    return basis.rational(parse_fraction(x))


def escalate(decide, bits: int, cap: int, message: str, subject=None):
    """The first result other than None of decide(bits), at the start
    precision bits and then at each doubling of it, clamped at cap.
    Undecided at cap, it raises PrecisionExhausted with
    message.format(subject, cap=cap)."""
    while True:
        got = decide(bits)
        if got is not None:
            return got
        if bits >= cap:
            raise PrecisionExhausted(message.format(subject, cap=cap))
        bits = min(bits * 2, cap)


def compare(a: Point, b: Point) -> int:
    """Total-order comparison: -1, 0 or +1, certified exact."""
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError("points over different bases")
    ga, gb = a._approx, b._approx
    if ga is None or gb is None:
        # equal coefficients first, so that no enclosure is computed for
        # them; otherwise the filter goes first, since it is never wrong
        if a.den == b.den and a.nums == b.nums:
            return 0
        ga, gb = a.approx(), b.approx()
    d = ga[0] - gb[0]
    if apart(d, ga[1] + gb[1]):
        return 1 if d > 0 else -1
    if a.den == b.den and a.nums == b.nums:
        return 0
    return (a - b).sign()


def certified_clusters(apx: Sequence[tuple[float, float]], limit: float = math.inf
                       ) -> tuple[list[int], list[list[int]], int]:
    """Order (midpoint, radius) pairs in certified clusters: (order, runs,
    done).

    Each pair (m, r) gives the interval [m - 4r, m + 4r], widened by the
    margin of apart. order lists the indices by lower end (one float
    sort). A cluster ends wherever the next lower end exceeds every upper
    end before it by more than 1e-300, as in apart, so every value of a
    cluster lies below every value of the clusters after it. runs lists
    the clusters of two or more, the only ones that need an exact
    comparison, as position ranges [start, stop) of order; every other
    position is a cluster of its own. The first done positions of order
    make up the clusters whose upper ends all lie below limit (all of
    them when limit is inf, an infinite radius included). The running
    maxima and the cut tests are C-level passes: only the positions inside
    runs meet a Python loop.
    """
    n = len(apx)
    los = [m - _MARGIN_WIDTH * r for m, r in apx]
    order = sorted(range(n), key=los.__getitem__)
    his = [m + _MARGIN_WIDTH * r for m, r in apx]
    # the running maximum of the upper ends in that order: they are their
    # own running maximum when they ascend, as they do unless one interval
    # contains a later one; the test is cheaper than the maximum
    # kept: they ascend in every call the benchmarks make, saving ~7% of a lambda sweep
    high = list(map(his.__getitem__, order))
    if not all(map(operator.le, high, islice(high, 1, None))):
        high = list(accumulate(high, max))
    # position k starts a cluster when its lower end lies more than 1e-300
    # above high[k - 1]; otherwise it joins the cluster of k - 1
    cut = map(operator.gt, map(los.__getitem__, islice(order, 1, None)),
              map(operator.add, high, repeat(_MARGIN_GAP)))
    runs = []
    for k in compress(range(1, n), map(operator.not_, cut)):
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k - 1, k + 1])
    # the positions before done lie below limit
    done = n if limit == math.inf else bisect_left(high, limit)
    while runs and runs[-1][1] > done:  # a cluster across done is not below limit
        done = min(done, runs.pop()[0])
    return order, runs, done


def cut_limit(apx: Sequence[tuple[float, float]]) -> float:
    """The limit for certified_clusters that passes exactly the clusters
    lying below every (midpoint, radius) pair of apx: their lowest lower
    end m - 4r, less the margin 1e-300 (inf when apx is empty)."""
    return min([m - _MARGIN_WIDTH * r for m, r in apx], default=math.inf) - _MARGIN_GAP


def sort_points(items, key=None) -> list:
    """Stable exact sort of Points (of key(item) when key is given).

    The result equals sorted(items, key=cmp_to_key(compare)) composed
    with key, duplicates in input order. The points' cached approx() are
    ordered by certified_clusters; only the clusters of two or more are
    sorted exactly, in input order.
    """
    items = list(items)
    pts = items if key is None else [key(it) for it in items]
    if len(pts) < 2:
        return items
    basis = pts[0].basis
    apx = []
    for p in pts:
        if p.basis is not basis and p.basis != basis:
            raise ValueError("points over different bases")
        apx.append(p.approx())
    order, runs, _ = certified_clusters(apx)
    for start, stop in runs:
        cluster = sorted(order[start:stop])
        cluster.sort(key=cmp_to_key(lambda a, b: compare(pts[a], pts[b])))
        order[start:stop] = cluster
    return list(map(items.__getitem__, order))


def bisect_points(pts: Sequence[Point], x: Point, right: bool = False) -> int:
    """Index at which bisect_left (bisect_right when right) of the bisect
    module would insert x into the sorted Points pts.

    Each probe is decided by compare, on the float filter unless the two
    enclosures overlap: the key compare(p, x) places x at 0.
    """
    return (bisect_right if right else bisect_left)(pts, 0, key=lambda p: compare(p, x))


def floor_point(x: Point) -> int:
    """Exact floor of a Point value."""
    if x.is_rational():
        return math.floor(x.rational_value())
    # the float filter of apart; below 2^52 both differences are exact in
    # doubles
    m, r = x.approx()
    if abs(m) < 2.0**52:
        k = math.floor(m)
        if apart(m - k, r) and apart(k + 1 - m, r):
            return k
    return _floor_by_enclosure(x)


def _floor_by_enclosure(x: Point) -> int:
    """floor_point by adaptive enclosure refinement, for an irrational x."""
    def decide(bits):
        lo, hi, t = x._bounds(bits)
        flo = lo // t
        return flo if flo == hi // t else None

    return escalate(decide, 64, x.basis.precision_cap,
                    "floor of {!r} undecided at {cap} bits (value sits on an "
                    "integer within the declared generator precision)", x)


def locate(apx: Sequence[tuple[float, float]], m: float, r: float) -> int | None:
    """Certified position of a value among sorted Points, from doubles only.

    apx lists the approx() of Points sorted ascending (exactly), and
    (m, r) encloses the value as approx() does. The result is the j with
    the Points before j below the value and those from j on above it,
    when apart separates both neighbours of j from the value; the exact
    order of the Points certifies the rest. None when a neighbour lies
    within the margin: the value may equal it, and only an exact test
    decides.
    """
    j = bisect_left(apx, (m, -math.inf))  # the midpoints below m
    if j and not apart(m - apx[j - 1][0], r + apx[j - 1][1]):
        return None
    if j < len(apx) and not apart(apx[j][0] - m, r + apx[j][1]):
        return None
    return j


def torus_locate(x: Point, edges: Sequence[Point], apx: Sequence[tuple[float, float]]
                 ) -> list[tuple[int, int | None]]:
    """The integer lifts of x mod 1 against the sorted Points edges, whose
    approx() are apx: the one rule behind every membership test mod 1.

    Returns (k, j) for ascending integers k, among them every k with x + k
    in the closed hull [edges[0], edges[-1]]. j is locate of the lift
    x + k, with the ball that the Point x + k would carry (sum_radius of
    x and the rational k): its certified position among the edges, or
    None when it lies within the margin of an edge, and then the caller
    decides on the Point x + k exactly. No Point is built here, unless x
    or the hull lies beyond the doubles' integer range or is enclosed too
    loosely to count lifts; then every lift in the hull is returned with
    None.
    """
    xm, xr = x.approx()
    (lo, lr), (hi, hr) = apx[0], apx[-1]
    if not (max(abs(xm), abs(lo), abs(hi)) < 2.0**52 and 4.0 * (xr + lr + hr) < 0.125):
        return [(k, None) for k in range(-floor_point(x - edges[0]),
                                         floor_point(edges[-1] - x) + 1)]
    # lo - xm and hi - xm round by at most 1/2 here, so they lie within
    # 5/8 of e - x for the ends e: the lifts in the hull have k from
    # floor(lo - xm) to floor(hi - xm) + 1
    out = []
    for k in range(math.floor(lo - xm), math.floor(hi - xm) + 2):
        m = xm + k
        out.append((k, locate(apx, m, sum_radius(m, xr, sum_radius(k, 0.0, 0.0)))))
    return out


def decimal_enclosure_str(x, digits: int = 24) -> dict:
    """Render a Point or Fraction as a certified decimal interval."""
    if isinstance(x, Fraction):
        lo = hi = x
    else:
        lo, hi = x.enclosure(max(96, int(digits * 3.33) + 16))
    scale = 10**digits

    def fmt(q, up):
        n = q * scale
        i = math.ceil(n) if up else math.floor(n)
        sign = "-" if i < 0 else ""
        i = abs(i)
        return f"{sign}{i // scale}.{i % scale:0{digits}d}"

    return {"lo": fmt(lo, up=False), "hi": fmt(hi, up=True)}


class PointSet:
    """Finite set of Points with exact membership, including mod-1 lookup."""

    __slots__ = ("basis", "points", "_keys", "_apx")

    def __init__(self, points: Iterable[Point]):
        pts = {}
        basis = None
        for p in points:
            if basis is None:
                basis = p.basis
            elif p.basis != basis:
                raise ValueError("points over different bases")
            pts[p.key] = p
        self.basis = basis
        self.points = tuple(sort_points(pts.values()))
        self._keys = frozenset(pts)
        self._apx = [p.approx() for p in self.points]

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: Point):
        return p.key in self._keys

    def contains_torus(self, v: Point) -> bool:
        """Membership of v mod 1: any integer lift of v in the set. A lift
        that the doubles place between two points is not one of them; only
        a lift within the margin of a point is looked up exactly."""
        pts = self.points
        return bool(pts) and any(j is None and (v + k).key in self._keys
                                 for k, j in torus_locate(v, pts, self._apx))


class IntervalSet:
    """Canonical finite union of disjoint open intervals with Point endpoints.

    Construct through canonicalize(), which sorts and merges; a caller
    whose intervals are already sorted, disjoint and each nonempty may
    pass them to the constructor directly (frac_window_sets does).
    Instances are immutable. Endpoint membership is always false (open
    intervals throughout).
    """

    __slots__ = ("basis", "intervals", "_los", "_edges", "_apx", "_scaled")

    def __init__(self, basis: GeneratorBasis, intervals: tuple[tuple[Point, Point], ...]):
        self.basis = basis
        self.intervals = intervals
        self._los = [lo for lo, _ in intervals]
        self._edges = self._apx = None  # built by the first contains_torus
        self._scaled = None  # (p, the lattice kernel's edges, their error): lattice._filter_data

    @classmethod
    def canonicalize(cls, basis: GeneratorBasis, raw) -> "IntervalSet":
        """Sort, reject degenerate intervals, merge overlaps.

        Open semantics: intervals sharing only an endpoint do not merge.
        """
        items = []
        for lo, hi in raw:
            lo = as_point(basis, lo)
            hi = as_point(basis, hi)
            if compare(lo, hi) >= 0:
                raise ValueError(f"interval with lo >= hi: ({lo!r}, {hi!r})")
            items.append((lo, hi))
        # by lo, ties by hi: two stable passes
        items = sort_points(sort_points(items, key=lambda iv: iv[1]),
                            key=lambda iv: iv[0])
        merged: list[tuple[Point, Point]] = []
        for lo, hi in items:
            if merged and compare(lo, merged[-1][1]) < 0:
                plo, phi = merged[-1]
                if compare(hi, phi) > 0:
                    merged[-1] = (plo, hi)
            else:
                merged.append((lo, hi))
        return cls(basis, tuple(merged))

    @classmethod
    def empty(cls, basis: GeneratorBasis) -> "IntervalSet":
        return cls(basis, ())

    @classmethod
    def single(cls, basis, lo, hi) -> "IntervalSet":
        return cls.canonicalize(basis, [(lo, hi)])

    def is_empty(self) -> bool:
        return not self.intervals

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.basis == other.basis and [
            (a.key, b.key) for a, b in self.intervals
        ] == [(a.key, b.key) for a, b in other.intervals]

    def __hash__(self):
        return hash(tuple((a.key, b.key) for a, b in self.intervals))

    def measure(self) -> Point:
        """The sum of hi - lo, taken on the endpoints' integer vectors over
        one common denominator."""
        ivs = self.intervals
        den = math.lcm(1, *(p.den for iv in ivs for p in iv))
        nums = [0] * self.basis.dim
        for lo, hi in ivs:
            a, b = den // lo.den, den // hi.den
            nums = [t + h * b - l * a for t, l, h in zip(nums, lo.nums, hi.nums)]
        return Point(self.basis, tuple(nums), den)

    def translate(self, y) -> "IntervalSet":
        y = as_point(self.basis, y)
        return IntervalSet(self.basis, tuple((lo + y, hi + y) for lo, hi in self.intervals))

    def scale(self, c) -> "IntervalSet":
        """Pointwise scaling by a nonzero rational."""
        c = parse_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        if c > 0:
            ivs = tuple((lo * c, hi * c) for lo, hi in self.intervals)
        else:
            ivs = tuple((hi * c, lo * c) for lo, hi in reversed(self.intervals))
        return IntervalSet(self.basis, ivs)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """The common part of two sets, by an all-pairs scan. The package
        itself never intersects sets; the tests keep it as an oracle."""
        out = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo = alo if compare(alo, blo) >= 0 else blo
                hi = ahi if compare(ahi, bhi) <= 0 else bhi
                if compare(lo, hi) < 0:
                    out.append((lo, hi))
        return IntervalSet.canonicalize(self.basis, out) if out else IntervalSet.empty(self.basis)

    def contains(self, x: Point) -> bool:
        j = bisect_points(self._los, x, right=True)
        if j == 0:
            return False
        lo, hi = self.intervals[j - 1]
        return compare(x, lo) > 0 and compare(x, hi) < 0

    def contains_torus(self, x: Point) -> bool:
        """Membership of x mod 1: true when any integer lift of x lies in
        the set, wherever on the line the set happens to sit. A lift that
        the doubles place between two endpoints is inside exactly when
        an odd number of endpoints lie below it; only a lift within the
        margin of an endpoint is tested exactly."""
        if not self.intervals:
            return False
        if self._edges is None:
            self._edges = self.edge_points()
            self._apx = [p.approx() for p in self._edges]
        return any(j % 2 if j is not None else self.contains(x + k)
                   for k, j in torus_locate(x, self._edges, self._apx))

    def contains_set(self, other: "IntervalSet") -> bool:
        """other is a subset of self (both canonical, open). Only the tests
        call it, as an oracle for the sets the package builds."""
        for lo, hi in other.intervals:
            j = bisect_points(self._los, lo, right=True)
            if j == 0:
                return False
            slo, shi = self.intervals[j - 1]
            if compare(slo, lo) > 0 or compare(hi, shi) > 0:
                return False
        return True

    def edge_points(self) -> list[Point]:
        out = []
        for lo, hi in self.intervals:
            out.append(lo)
            out.append(hi)
        return out

    def to_json(self):
        return [[lo.to_json(), hi.to_json()] for lo, hi in self.intervals]

    def __repr__(self):
        parts = ", ".join(f"({float(lo):.6g}, {float(hi):.6g})" for lo, hi in self.intervals)
        return f"IntervalSet[{parts}]"


def extent(points: Iterable[Point]) -> tuple[Point, Point, Point]:
    """(least, greatest, gap) of a nonempty finite Point set, from one
    exact sort.

    gap is the smallest difference of consecutive sorted elements, which
    equals the minimum pairwise distance; for a singleton {x} it is |x|,
    so 0 for {0}. max |x| over the set is the larger of -least and
    greatest.
    """
    pts = sort_points({p.key: p for p in points}.values())
    if not pts:
        raise ValueError("extent of an empty set")
    if len(pts) == 1:
        x = pts[0]
        return x, x, abs(x)
    best = None
    for a, b in zip(pts, pts[1:]):
        gap = b - a
        if best is None or compare(gap, best) < 0:
            best = gap
    return pts[0], pts[-1], best


def min_gap(points: Iterable[Point]) -> Point:
    """Minimum pairwise distance of a nonempty finite Point set, the gap
    of extent: |x| for a singleton {x}, which must be nonzero."""
    gap = extent(points)[2]
    if gap.is_zero():
        raise ValueError("min_gap of the singleton {0} is undefined")
    return gap
