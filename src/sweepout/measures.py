"""Discrete measures on the circle and their convolution action.

A DiscreteMeasure is a finite sum of positive point masses at Points in
(0, 1). The operator studied throughout maps a set A to

    x -> sum_k  m_k * [x + x_k in A (mod 1)],

i.e. the convolution of the indicator of A with the measure, evaluated
exactly. Sets may be IntervalSets or finite Point sets anywhere on the
line; all membership is decided on the torus, by the sets' contains_torus.

The overlay machinery (step_profile) decomposes x -> S 1_A(x) into its
exact step function on [0, 1), which gives level sets, integrals and
per-interval minima with no approximation; a minimum bisects the sorted
breakpoints for the pieces its interval meets. It backs both the mass
identity  integral S 1_G = |mu| |G|  and the Chebyshev-style level-set
bound, and is reused by the witness verifier. Atoms lie in (0, 1) and
the torus image of A in [0, 1), so its translate by -x_k wraps once, at
x_k: no piece needs a floor. Step changes are integers over the lcm of
the mass denominators (_mass_units, shared with the lambda sweep).

A MeasureSequence read from JSON is lazy: from_json checks the structure
of every entry up front and parses each measure on its first read, so a
command that needs one measure of a long sequence parses only that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import ConfigError
from .exactreal import (GeneratorBasis, IntervalSet, Point, PointSet,
                        bisect_points, compare, floor_point, fraction_str,
                        parse_fraction, sort_points)


class DiscreteMeasure:
    """Finitely many positive atoms in (0,1) with positive rational masses.

    Duplicate atoms are combined by adding their masses. There is never an
    atom at 0; condition checks that involve the neighborhood of 0 treat
    the circle properly (atoms near 1 are near 0).
    """

    __slots__ = ("basis", "atoms", "masses", "total_mass")

    def __init__(self, atoms: Sequence[Point], masses: Sequence[Fraction]):
        if len(atoms) != len(masses) or not atoms:
            raise ConfigError("need equally many atoms and masses, at least one")
        basis = atoms[0].basis
        acc: dict = {}
        order: dict = {}
        for a, m in zip(atoms, masses):
            if a.basis != basis:
                raise ValueError("atoms over different bases")
            m = parse_fraction(m)
            if m <= 0:
                raise ConfigError("masses must be positive")
            key = a.key
            if key in acc:
                acc[key] += m
            else:
                acc[key] = m
                order[key] = a
        pts = sort_points(order.values())
        one = basis.rational(1)
        for p in pts:
            if p.sign() <= 0 or compare(p, one) >= 0:
                raise ConfigError(f"atom outside (0,1): {p!r}")
        self.basis = basis
        self.atoms = tuple(pts)
        self.masses = tuple(acc[p.key] for p in pts)
        self.total_mass = sum(self.masses, Fraction(0))

    def __len__(self):
        return len(self.atoms)

    @property
    def x_1(self) -> Point:
        return self.atoms[0]

    @property
    def x_l(self) -> Point:
        return self.atoms[-1]

    def support(self) -> tuple[Point, ...]:
        return self.atoms

    def mass_near_zero(self, delta: Fraction) -> Fraction:
        """Mass of the torus ball (-delta, delta) around 0."""
        delta = parse_fraction(delta)
        d = self.basis.rational(delta)
        upper = self.basis.rational(1 - delta)
        out = Fraction(0)
        for a, m in zip(self.atoms, self.masses):
            if compare(a, d) < 0 or compare(a, upper) > 0:
                out += m
        return out

    def to_json(self):
        return {
            "atoms": [a.to_json() for a in self.atoms],
            "masses": [fraction_str(m) for m in self.masses],
        }

    @classmethod
    def from_json(cls, basis: GeneratorBasis, obj) -> "DiscreteMeasure":
        atoms = [Point.from_json(basis, a) for a in obj["atoms"]]
        masses = [parse_fraction(m) for m in obj["masses"]]
        return cls(atoms, masses)

    def __repr__(self):
        terms = " + ".join(
            f"{fraction_str(m)}*d[{float(a):.6g}]" for a, m in zip(self.atoms, self.masses)
        )
        return f"DiscreteMeasure({terms})"


class MeasureSequence:
    """A finite sequence of measures over one basis.

    Built from DiscreteMeasures, or lazily from JSON by from_json: that
    checks the structure of every entry at once and parses each measure on
    its first read, seq[i], and keeps it. A bad value in an entry (rational
    syntax, a zero denominator, an atom outside (0, 1), a mass that is not
    positive) raises ConfigError naming the entry, measures[i], when read.
    """

    __slots__ = ("basis", "_raw", "_built")

    def __init__(self, measures: Sequence[DiscreteMeasure]):
        if not measures:
            raise ConfigError("empty measure sequence")
        basis = measures[0].basis
        for mu in measures:
            if mu.basis != basis:
                raise ValueError("measures over different bases")
        self.basis = basis
        self._raw = None
        self._built = list(measures)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i: int) -> DiscreteMeasure:
        mu = self._built[i]
        if mu is None:
            i = range(len(self._built))[i]
            try:
                mu = DiscreteMeasure.from_json(self.basis, self._raw[i])
            except ValueError as exc:
                raise ConfigError(f"measures[{i}]: {exc}") from None
            self._built[i] = mu
        return mu

    def __iter__(self):
        return map(self.__getitem__, range(len(self._built)))

    def to_json(self):
        return [mu.to_json() for mu in self]

    @classmethod
    def from_json(cls, basis: GeneratorBasis, obj) -> "MeasureSequence":
        """The sequence of the JSON list obj, its measures unparsed. Raises
        ConfigError naming the path, measures[i], unless obj is a non-empty
        list of objects whose atoms and masses are lists of equal, non-zero
        length, each atom an object with a coeffs list or a scalar."""
        if type(obj) is not list or not obj:
            raise ConfigError("measures must be a non-empty list")
        for i, entry in enumerate(obj):
            entry = entry if type(entry) is dict else {}
            atoms, masses = entry.get("atoms"), entry.get("masses")
            if type(atoms) is not list or type(masses) is not list:
                raise ConfigError(f"measures[{i}] is not an object with lists "
                                 f"atoms and masses")
            if not atoms or len(atoms) != len(masses):
                raise ConfigError(f"measures[{i}] needs equally many atoms and "
                                 f"masses, at least one")
            for j, atom in enumerate(atoms):
                if not (type(atom.get("coeffs")) is list if type(atom) is dict
                        else isinstance(atom, (str, int, float))):
                    raise ConfigError(f"measures[{i}].atoms[{j}] is neither an "
                                     f"object with a coeffs list nor a scalar")
        seq = cls.__new__(cls)
        seq.basis = basis
        seq._raw = obj
        seq._built = [None] * len(obj)
        return seq


def convolve_indicator(mu: DiscreteMeasure, target, x: Point) -> Fraction:
    """S 1_A(x) = sum of masses whose translate x + x_k lands in A (mod 1).

    target is any set with a contains_torus method (an IntervalSet, a
    PointSet, a factored witness), or an iterable of Points, read as a
    PointSet. Every membership decision is certified: contains_torus
    decides a translate on doubles by the margin test exactreal.apart and
    tests it exactly only within that margin of an edge (see
    exactreal.torus_locate). The result lies in [0, |mu|].
    """
    if not hasattr(target, "contains_torus"):
        target = PointSet(target)
    return sum((m for a, m in zip(mu.atoms, mu.masses)
                if target.contains_torus(x + a)), Fraction(0))


# ---------------------------------------------------------------------------
# torus-canonical interval sets and the exact overlay
# ---------------------------------------------------------------------------

def _mass_units(mu: DiscreteMeasure) -> tuple[int, list[int]]:
    """(D, units): D the lcm of the mass denominators, units each mass in
    units of 1/D. Piece values are integers in the same units."""
    denom = math.lcm(*(m.denominator for m in mu.masses))
    return denom, [m.numerator * (denom // m.denominator) for m in mu.masses]


def to_torus(A: IntervalSet) -> IntervalSet:
    """Canonical image of A in [0, 1), overlaps merged.

    Each component is split at the integers and reduced into [0, 1).
    Only seam points (integers interior to a component) are lost, a finite
    set, so measure and level-set computations are unaffected. A component
    at least as long as the whole circle raises ValueError.
    """
    basis = A.basis
    one = basis.rational(1)
    pieces = []
    for lo, hi in A:
        if compare(hi - lo, one) >= 0:
            raise ValueError("component at least as long as the whole circle")
        shift = -floor_point(lo)
        lo, hi = lo + shift, hi + shift
        if compare(hi, one) <= 0:
            pieces.append((lo, hi))
        else:
            pieces += [(lo, one), (basis.rational(0), hi - 1)]
    return IntervalSet.canonicalize(basis, pieces)


@dataclass
class StepProfile:
    """Exact step decomposition of x -> S 1_A(x) on [0, 1).

    pieces are consecutive open intervals between breakpoints; the value
    on each piece is exact. Values at the breakpoints themselves can
    differ (open target sets) and are obtained with point_value(), which
    evaluates on the line set target, integer seam points included.
    """

    mu: DiscreteMeasure
    target: IntervalSet
    breakpoints: list[Point]
    pieces: list[tuple[Point, Point, Fraction]] = field(default_factory=list)

    def point_value(self, x: Point) -> Fraction:
        return convolve_indicator(self.mu, self.target, x)

    def integral(self) -> Point:
        total = self.mu.basis.zero()
        for lo, hi, v in self.pieces:
            if v:
                total = total + (hi - lo) * v
        return total

    def level_set(self, threshold: Fraction) -> IntervalSet:
        """Open pieces where the step value strictly exceeds threshold."""
        return IntervalSet.canonicalize(
            self.mu.basis, [(lo, hi) for lo, hi, v in self.pieces if v > threshold])


def step_profile(mu: DiscreteMeasure, A: IntervalSet) -> StepProfile:
    """Overlay of all torus translates A - x_k weighted by their masses.

    The pieces come from the canonical torus image A_t of A, so line sets
    that overlap themselves mod 1 contribute as the indicator of their
    projection (0/1), exactly like convolve_indicator sees them. That
    image drops the seam points, integers interior to a component, so
    point values are taken on A itself. A_t - a lies in (-1, 1) and wraps
    once, at a: one bisection of the upper ends and one compare find the
    components that end at or below a, which move up by 1, and the one
    across a, which splits at 0. Step changes are ints (_mass_units).
    """
    comps = to_torus(A).intervals
    his = [hi for _, hi in comps]
    zero, one = mu.basis.rational(0), mu.basis.rational(1)
    deltas = {zero.key: 0, one.key: 0}
    points = {zero.key: zero, one.key: one}
    denom, units = _mass_units(mu)
    for a, u in zip(mu.atoms, units):
        up = one - a
        j = bisect_points(his, a, right=True)  # comps[:j] end at or below a
        ends = [(lo + up, hi + up) for lo, hi in comps[:j]]
        if j < len(comps) and compare(comps[j][0], a) < 0:  # comps[j] straddles a
            ends += [(comps[j][0] + up, one), (zero, comps[j][1] - a)]
            j += 1
        ends += [(lo - a, hi - a) for lo, hi in comps[j:]]
        for lo, hi in ends:
            for pt, du in ((lo, u), (hi, -u)):
                deltas[pt.key] = deltas.get(pt.key, 0) + du
                points.setdefault(pt.key, pt)
    bps = sort_points(points.values())
    runs = list(accumulate(deltas[b.key] for b in bps[:-1]))
    value = {n: Fraction(n, denom) for n in set(runs)}  # one Fraction per value
    pieces = [(b, nxt, value[n]) for b, nxt, n in zip(bps, bps[1:], runs)]
    return StepProfile(mu=mu, target=A, breakpoints=bps, pieces=pieces)


def min_on_interval(prof: StepProfile, lo: Point, hi: Point) -> Fraction:
    """Exact minimum of x -> S 1_A(x) over the open interval (lo, hi), for
    the measure and set A of the profile prof.

    Piece values cover the interiors; breakpoints and integer seam points
    interior to (lo, hi) are evaluated directly, so the result is the true
    minimum over every point of the open interval. Each integer slab of
    (lo, hi) bisects the sorted breakpoints for the pieces it meets: the
    cost is O(log P + pieces met) compares per slab, for P pieces.
    """
    if compare(lo, hi) >= 0:
        raise ValueError("empty interval")
    basis, bps = prof.mu.basis, prof.breakpoints
    vals = []
    k_lo, k_hi = floor_point(lo), floor_point(hi)
    for k in range(k_lo, k_hi + 1):
        a = lo if k == k_lo else basis.rational(k)
        b = hi if k == k_hi else basis.rational(k + 1)
        if compare(a, b) >= 0:
            continue
        if k != k_lo:
            vals.append(prof.point_value(a))  # interior seam point
        # pieces i-1 .. j-1 meet (a - k, b - k); breakpoints i .. j-1 lie inside it
        i = bisect_points(bps, a - k, right=True)
        j = bisect_points(bps, b - k)
        vals.extend(v for _, _, v in prof.pieces[i - 1:j])
        vals.extend(map(prof.point_value, bps[i:j]))  # interior breakpoints
    return min(vals)


# ---------------------------------------------------------------------------
# hypothesis checks on measure sequences
# ---------------------------------------------------------------------------

@dataclass
class Condition1Row:
    delta: Fraction
    values: list[Fraction]
    tail_index: int | None
    converged: bool

    def to_json(self):
        return {
            "delta": fraction_str(self.delta),
            "values": [fraction_str(v) for v in self.values],
            "tail_index": self.tail_index,
            "converged": self.converged,
        }


@dataclass
class Condition1Report:
    rows: list[Condition1Row]
    masses: list[Fraction]
    mass_ok: list[bool]
    tail_ratio: Fraction
    mass_tol: Fraction

    def to_json(self):
        return {
            "tail_ratio": fraction_str(self.tail_ratio),
            "mass_tol": fraction_str(self.mass_tol),
            "masses": [fraction_str(m) for m in self.masses],
            "condition_a_ok": self.mass_ok,
            "rows": [r.to_json() for r in self.rows],
        }


def check_condition_one(seq: MeasureSequence, deltas: Sequence[Fraction],
                        tail_ratio: Fraction = Fraction(999, 1000),
                        mass_tol: Fraction = Fraction(1, 1000)) -> Condition1Report:
    """Report mu_n((-delta, delta)) for each delta, with tail indices.

    The tail index (1-based) is the first position after which the mass
    near 0 always exceeds tail_ratio * |mu_n|. Total masses are reported
    against |mu_n| -> 1 with the given tolerance. Non-convergence is
    reported, never raised.
    """
    masses = [mu.total_mass for mu in seq]
    mass_ok = [abs(m - 1) <= mass_tol for m in masses]
    rows = []
    for d in deltas:
        d = parse_fraction(d)
        if not 0 < d <= Fraction(1, 2):
            raise ConfigError(f"delta must lie in (0, 1/2]: {d}")
        values = [mu.mass_near_zero(d) for mu in seq]
        good = [v > tail_ratio * m for v, m in zip(values, masses)]
        tail = None
        for i in range(len(good) - 1, -1, -1):
            if not good[i]:
                break
            tail = i + 1
        rows.append(Condition1Row(delta=d, values=values, tail_index=tail,
                                  converged=tail is not None))
    return Condition1Report(rows=rows, masses=masses, mass_ok=mass_ok,
                            tail_ratio=tail_ratio, mass_tol=mass_tol)


@dataclass
class ChebyshevReport:
    total_mass: Fraction
    set_measure: Point
    expected_integral: Point
    integral_translates: Point
    integral_profile: Point
    identity_ok: bool
    epsilon: Fraction
    level_measure: Point
    level_bound: Point
    bound_ok: bool

    def passed(self) -> bool:
        return self.identity_ok and self.bound_ok

    def to_json(self):
        from .exactreal import decimal_enclosure_str as enc

        return {
            "total_mass": fraction_str(self.total_mass),
            "set_measure": enc(self.set_measure),
            "expected_integral": enc(self.expected_integral),
            "integral_translates": enc(self.integral_translates),
            "integral_profile": enc(self.integral_profile),
            "identity_ok": self.identity_ok,
            "epsilon": fraction_str(self.epsilon),
            "level_measure": enc(self.level_measure),
            "level_bound": enc(self.level_bound),
            "bound_ok": self.bound_ok,
        }


def chebyshev_check(mu: DiscreteMeasure, G: IntervalSet, eps: Fraction) -> ChebyshevReport:
    """Exact mass identity and level-set bound for one measure and set.

    Verifies  integral S 1_G dx = |mu| * |G|  twice (sum of translate
    measures, and the overlay integral) and computes the exact measure of
    { x : S 1_G(x) > eps }, which must not exceed |mu| |G| / eps.
    """
    eps = parse_fraction(eps)
    if eps <= 0:
        raise ConfigError("epsilon must be positive")
    g_measure = to_torus(G).measure()
    expected = g_measure * mu.total_mass
    translates = mu.basis.zero()
    for a, m in zip(mu.atoms, mu.masses):
        translates = translates + to_torus(G.translate(-a)).measure() * m
    prof = step_profile(mu, G)
    integral = prof.integral()
    identity_ok = translates == expected and integral == expected
    level = prof.level_set(eps)
    level_measure = level.measure()
    bound = expected * (1 / eps)
    bound_ok = compare(level_measure, bound) <= 0
    return ChebyshevReport(
        total_mass=mu.total_mass, set_measure=g_measure,
        expected_integral=expected, integral_translates=translates,
        integral_profile=integral, identity_ok=identity_ok, epsilon=eps,
        level_measure=level_measure, level_bound=bound, bound_ok=bound_ok)
