"""Search for the window scaling parameter and its fractional-part sets.

For a measure with atoms x_i, the function

    lam -> sum of masses of atoms with frac(x_i / lam) in (eps, 1 - eps)

is a step function of lam whose pieces are intersections of the atom
windows (x_i/(k+1-eps), x_i/(k+eps)), k = 0, 1, 2, ...  Averaging over
lam in (0, r], r = min(eps*x_1 / (2(1-eps)), delta), the mean value
exceeds (1 - 3 eps) * |mu|, so some piece must too.

One top-down sweep walks that step function from r to a floor and hands
out its pieces by decreasing lam, a block at a time: the lists (ends,
vals) of the pieces whose ends one block read passes, the ends descending
and piece i being (ends[i + 1], ends[i], vals[i]), the values one
accumulate over the ends' step changes. The sweep reads the window ends
in blocks, below double thresholds r * 0.9^j: for each atom t, the
block's windows are one run of doubles, the balls (midpoint, radius) of
the ends t * a/b computed in one pass from t.approx() in the order of
operations of exactreal.scaled_approx, so that each is bit for bit the
enclosure that the Point t * a/b would carry. The run is sized from the
block threshold; an end's ratio a/b follows from its position in the run.
Each block is ordered by one float sort cut into certified clusters
(exactreal.certified_clusters, the cut sort_points uses), and a cluster
is passed on once it lies above every atom's next unread end by that cut
(exactreal.cut_limit): that end lies exactly above all of the atom's
unread ends. An end is a plain tuple of its ball, its step change, the
windows it opens, its atom and its ratio (_end); its exact Point is
built only where it is read: for the ends of a cluster of two or more,
in the clipping tests against r and the floor, for a probed piece, for
LambdaProfile.pieces, and for values so small that the radii swamp
them, where the ends are ordered exactly.
Piece values are integers in units of 1/D, D the lcm of the mass
denominators.

find_lambda probes the pieces of full mass |mu| as the sweep meets them.
No piece exceeds |mu|, so these come first in its order (value, then
lam, descending) and the search usually stops near r; only a sweep that
reaches the floor ranks the other qualifying pieces. It reads each block
whole: a block whose values are all settled (not above the threshold, or
with a full group of ranked pieces) is passed over by C-level set and
max passes, and Python meets only the positions it probes or ranks. The
chosen lam is a rational strictly inside its piece, re-checked by direct
evaluation.

lambda_profile describes the step function on (r/floor_scale, r]. Its
arrangement (pieces) is built from the same sweep when first read; its
CSV rows and piece count are read from the ends, without Points. Its
integral, which the averaging bound needs, is certified per atom as
sum_i m_i |W_i cap (floor, r]|, W_i the windows of atom i, without
building any piece; the atoms' sums over their windows in between are
read from one table of prefix sums.

frac_window_sets builds, for a fixed rational lam, the sets

    U = { t in (-x_l, 0)   : frac(t/lam) < eps }
    V = { t in (-x_l, x_l) : frac(t/lam) > eps }

as exact open IntervalSets (window endpoints that are multiples of lam
are dropped; they carry no measure and keep every set open), in one
ascending pass over window ends that are ints over one denominator.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import accumulate, compress, count, cycle, repeat
from operator import floordiv, itemgetter, mul, not_

from .errors import CapExceeded, ConfigError, LambdaNotFound
from .exactreal import (IntervalSet, Point, certified_clusters, compare,
                        cut_limit, decimal_enclosure_str, escalate,
                        floor_point, fraction_str, parse_fraction,
                        scaled_approx, scaled_balls, scaled_mid)
from .measures import DiscreteMeasure

DEFAULT_FLOOR_SCALE = 10**4
DEFAULT_PIECE_CAP = 10**6


def cutoff_r(mu: DiscreteMeasure, eps: Fraction, delta: Fraction) -> Point:
    """r = min(eps * x_1 / (2 (1 - eps)), delta)."""
    r1 = mu.x_1 * (eps / (2 * (1 - eps)))
    r2 = mu.basis.rational(delta)
    return r1 if compare(r1, r2) <= 0 else r2


def active_atoms(mu: DiscreteMeasure, eps: Fraction, lam: Fraction) -> list[int]:
    """Indices of atoms with frac(x_i/lam) strictly inside (eps, 1-eps)."""
    lam = parse_fraction(lam)
    if lam <= 0:
        raise ConfigError("lam must be positive")
    lo = mu.basis.rational(eps)
    hi = mu.basis.rational(1 - eps)
    out = []
    for i, a in enumerate(mu.atoms):
        v = a * (1 / lam)
        f = v - floor_point(v)
        if compare(f, lo) > 0 and compare(f, hi) < 0:
            out.append(i)
    return out


def window_value(mu: DiscreteMeasure, eps: Fraction, lam: Fraction) -> Fraction:
    """Direct evaluation: mass of atoms with frac(x_i/lam) in (eps, 1-eps).

    Independent of the arrangement in lambda_profile; used as its oracle.
    """
    return sum((mu.masses[i] for i in active_atoms(mu, eps, lam)), Fraction(0))


def _check_params(eps: Fraction, delta: Fraction, floor_scale: int) -> None:
    if not 0 < eps < Fraction(1, 3):
        raise ConfigError("eps must lie in (0, 1/3)")
    if delta <= 0:
        raise ConfigError("delta must be positive")
    # the floor is r / floor_scale: 0 would divide by zero, and no window
    # upper end ever falls to a negative floor
    if floor_scale < 1:
        raise ConfigError(f"floor_scale must be a positive integer, got {floor_scale}")


def _mass_units(mu: DiscreteMeasure) -> tuple[int, list[int]]:
    """(D, units): D the lcm of the mass denominators, units each mass in
    units of 1/D. Piece values are integers in the same units."""
    denom = math.lcm(*(m.denominator for m in mu.masses))
    return denom, [m.numerator * (denom // m.denominator) for m in mu.masses]


def _window_range(t: Point, eps: Fraction, r: Point, lam_floor: Point) -> tuple[int, int]:
    """(k0, k_end): the windows k of atom t that meet (lam_floor, r] are
    k0 <= k < k_end. Only window k0 can reach above r, and only window
    k_end - 1 below the floor. Each bound starts from its estimate in
    doubles and is settled by exact comparisons with r and the floor
    scaled by integer ratios (eps = n/d)."""
    n, d = eps.numerator, eps.denominator
    tf = float(t)  # caches t's approximation, which every window end inherits
    # k0 is the smallest k with lower end t/(k+1-eps) = t d/((k+1) d - n) below r
    k0 = max(0, int(tf / float(r) - float(1 - eps)) + 1)
    while compare(r.scaled((k0 + 1) * d - n, d), t) <= 0:
        k0 += 1
    while k0 > 0 and compare(r.scaled(k0 * d - n, d), t) > 0:
        k0 -= 1
    # k_end is the smallest k with upper end t/(k+eps) = t d/(k d + n) at or
    # below the floor
    k_end = max(k0, int(tf / float(lam_floor) - float(eps)) + 1)
    while compare(lam_floor.scaled(k_end * d + n, d), t) < 0:
        k_end += 1
    while k_end > k0 and compare(lam_floor.scaled((k_end - 1) * d + n, d), t) >= 0:
        k_end -= 1
    return k0, k_end


# a window end's ball, step change and opens, for C-level passes over many ends
_BALL, _DM, _OPENS = itemgetter(0), itemgetter(1), itemgetter(2)


def _end(t: Point, q: tuple[int, int] | None, dm: int) -> tuple:
    """A window end in the sweep: the plain tuple (ball, dm, opens, t, a, b).

    The end is t * a/b for an atom t and a reduced ratio q = (a, b), or the
    Point t itself when q is None and a = b = None (r, the floor, clipped
    ends, and ends ordered exactly). ball is (-mid, rad), the ball of the
    negated end, which certified_clusters orders ascending: (mid, rad) are
    the doubles that the Point t * a/b would carry, scaled_approx of
    t.approx(), so that -end[0][0] is the end's midpoint. dm is the change
    of the step value there in units of 1/D, and opens the number of
    windows that the sweep enters when it passes this end (1 for the lo
    end of a window with a successor; summed when ends merge). This builds
    the ends made one at a time; most are made a run at a time
    (_run_ends), and an end ordered exactly is rebuilt around its Point
    (_merged). The exact Point (_point) is built where it is read."""
    if q is None:
        mid, rad = t.approx()
        return (-mid, rad), dm, 0, t, None, None
    a, b = q  # t * -a/b: the ball of the negated end
    return scaled_approx(t.approx(), -a, b), dm, 0, t, a, b


def _point(end: tuple) -> Point:
    """The exact Point of a window end: t, or t * a/b."""
    _, _, _, t, a, b = end
    return t if b is None else t.scaled(a, b)


def _run_ends(t: Point, m: int, d: int, n: int, k: int, j: int) -> list[tuple]:
    """The lo end of window w, then the hi end of window w + 1, for
    k <= w < j: atom t's run of ends, descending, for eps = n/d and mass m
    in units of 1/D, as the tuples of _end, zipped from their fields.
    Every lo end opens a window. Each end is t * d/b, b its position's
    denominator; the balls of the negated ends t * -d/b come from
    t.approx() in one pass (scaled_balls)."""
    reads = j - k
    lo = (k + 1) * d - n  # the lo end of window w is t * d/((w + 1) d - n)
    bs = [0] * (2 * reads)
    bs[::2] = range(lo, lo + reads * d, d)
    bs[1::2] = range(lo + 2 * n, lo + 2 * n + reads * d, d)  # hi: t * d/(w d + n)
    balls = scaled_balls(t.approx(), -d, bs)
    return list(zip(balls, cycle((-m, m)), cycle((1, 0)), repeat(t), repeat(d), bs))


def _block_stop(apx: tuple[float, float], d: int, n: int, k: int, last: int,
                thr: float) -> int:
    """The first j with k < j < last whose window's hi end t * d/(j d + n)
    has a midpoint below thr, else last: the block reads windows k to
    j - 1. apx is t.approx(), and each midpoint is scaled_mid's, the
    one its end carries. The midpoints do not rise with j when t's
    midpoint am >= 0, and all lie below a positive thr when am < 0, so
    those below thr are a suffix; it is located from the real-valued
    estimate, then by the midpoints themselves, exactly as the block's
    reads test them."""
    if thr == -math.inf:
        return last
    est = (apx[0] * d / thr - n) / d  # the midpoint of window j is about thr at j = est
    if not est < last - 1:  # also inf and nan
        j = last
    elif est < k:
        j = k + 1
    else:
        j = int(est) + 1
    while j > k + 1 and scaled_mid(apx, d, (j - 1) * d + n) < thr:
        j -= 1
    while j < last and scaled_mid(apx, d, j * d + n) >= thr:
        j += 1
    return j


def _window(t: Point, eps: Fraction, k: int, k0: int, k_end: int,
            r: Point, lam_floor: Point, dm: int = 0) -> tuple[tuple, tuple]:
    """Window k of atom t, clipped to (lam_floor, r], as its ends (lo, hi);
    the step value rises by dm at hi and falls by dm at lo, going down."""
    # 1/(k+eps) = d/(k d + n) and 1/(k+1-eps) = d/((k+1) d - n) with
    # eps = n/d reduced; both right sides are already in lowest terms
    n, d = eps.numerator, eps.denominator
    hi = _end(t, (d, k * d + n), dm)
    lo = _end(t, (d, (k + 1) * d - n), -dm)
    if k == k0 and compare(_point(hi), r) > 0:
        hi = _end(r, None, dm)
    if k == k_end - 1 and compare(_point(lo), lam_floor) < 0:
        lo = _end(lam_floor, None, -dm)
    return lo, hi


def _merged(ends: list[tuple]) -> list[tuple]:
    """The distinct points of a cluster of ends, descending, by exact
    comparison, each end rebuilt around its Point. Equal ends merge: the
    one with the smallest midpoint (the first of them on a tie) represents
    them, with their dm and opens summed."""
    # by midpoint first (descending: the ball holds -mid), so that the exact
    # sort meets nearly sorted runs even where the radii swamp the values
    # (the tiniest ends)
    ends = sorted(ends, key=lambda e: e[0][0])
    pts = list(map(_point, ends))
    out = []
    for i in sorted(range(len(ends)), key=cmp_to_key(lambda i, j: compare(pts[j], pts[i]))):
        ball, dm, opens = ends[i][:3]
        pt = pts[i]
        if out and pt.key == out[-1][3].key:  # reduced keys: equal exactly when equal points
            rep_ball, rep_dm, rep_opens, rep_pt = out[-1][:4]
            if ball[0] <= rep_ball[0]:  # the representative's midpoint is the smaller
                ball, pt = rep_ball, rep_pt
            out[-1] = (ball, dm + rep_dm, opens + rep_opens, pt, None, None)
        else:
            out.append((ball, dm, opens, pt, None, None))
    return out


def _descending(ends: list[tuple], unread) -> tuple[list[tuple], list[tuple]]:
    """(passed, rest): the clusters of ends that lie above every end of
    unread by the certified cut, in exact descending order with equal ends
    merged, and the other ends. certified_clusters reads the ends' balls,
    which are negated so that it ascends."""
    limit = cut_limit(list(map(_BALL, unread)))
    order, runs, done = certified_clusters(list(map(_BALL, ends)), limit)
    passed = list(map(ends.__getitem__, order[:done]))
    rest = list(map(ends.__getitem__, order[done:]))
    for start, stop in reversed(runs):  # merging shortens passed from here on
        passed[start:stop] = _merged(passed[start:stop])
    return passed, rest


_BLOCK_RATIO = 0.9  # each block's lower threshold, as a fraction of its upper
_BLOCK_READS = 64  # windows that one atom may read in one block


def _sweep(mu: DiscreteMeasure, eps: Fraction, r: Point, lam_floor: Point,
           windows, piece_cap: int):
    """The pieces of the step function on (lam_floor, r], from r down, in
    blocks (ends, vals): the ends descend, len(ends) == len(vals) + 1, and
    piece i is (ends[i + 1], ends[i], vals[i]), its lo and hi end (tuples
    of _end) and its value in units of 1/D (see _mass_units). A block
    holds the pieces of the ends that one block read passes, and starts at
    the previous block's last end; the values are one accumulate over the
    ends' step changes. Equal window ends are merged (see _merged).
    Raises CapExceeded once more than piece_cap windows have been entered:
    each atom's first window at the start, and the next one each time the
    sweep passes the lo end of a window (one sum over the opens of a
    block's ends). If the cap falls inside a block, the pieces before the
    end that exceeds it are yielded first.

    The ends are read in blocks below thresholds thr = r * 0.9^j, doubles:
    each atom reads its windows while the midpoint of its next hi end is
    at least thr, at most _BLOCK_READS of them (then the next block keeps
    thr; a thr that underflows to 0 becomes -inf, so the rest is read a
    block at a time). _block_stop finds where an atom's reads stop, and
    _run_ends computes the ends of those windows as one run of doubles,
    with the next unread hi end; only the first window's hi end (clipped
    at r) and the last window's lo end (clipped at the floor) are built
    one at a time, for their clipping tests. The block and the ends
    carried over are ordered by one float sort and the certified cluster
    cut (_descending); only clusters of two or more ends are compared
    exactly. A cluster is passed only when the same cut separates it from
    every atom's next unread hi end, which lies exactly above all of that
    atom's unread ends; the first cluster that is not, and all after it,
    carry over. Where the radii swamp the values no cluster passes: when
    a block read ends and passed none, the ends exactly above every next
    unread hi end pass instead."""
    n, d = eps.numerator, eps.denominator
    budget = piece_cap
    cursors = []  # per atom with windows left: [next hi end, its mid, t, dm, k, k_end]
    for t, m, (k0, k_end) in zip(mu.atoms, _mass_units(mu)[1], windows):
        if k0 < k_end:
            budget -= 1
            if budget < 0:
                raise CapExceeded(f"profile needs more than {piece_cap} pieces")
            hi = _end(t, (d, k0 * d + n), m)
            if compare(_point(hi), r) > 0:
                hi = _end(r, None, m)
            cursors.append([hi, -hi[0][0], t, m, k0, k_end])
    pending = [_end(r, None, 0)]
    above = None
    value = 0
    thr = r.approx()[0]
    capped = False
    while True:
        if not capped:
            thr *= _BLOCK_RATIO
            if not thr:  # below the doubles: read the rest, a block at a time
                thr = -math.inf
        capped = False
        carried = len(pending)
        live = []
        for cur in cursors:
            hi, mid, t, m, k, k_end = cur
            if mid < thr:  # nothing to read in this block
                live.append(cur)
                continue
            pending.append(hi)
            j = _block_stop(t.approx(), d, n, k, min(k + _BLOCK_READS, k_end), thr)
            if j == k_end:  # the atom's last window: its lo end is clipped
                pending += _run_ends(t, m, d, n, k, j - 1)
                lo = _end(t, (d, k_end * d - n), -m)
                if compare(_point(lo), lam_floor) < 0:
                    lo = _end(lam_floor, None, -m)
                pending.append(lo)
                continue
            run = _run_ends(t, m, d, n, k, j)
            cur[0] = hi = run.pop()
            cur[1] = mid = -hi[0][0]
            cur[4] = j
            pending += run
            capped = capped or (j - k == _BLOCK_READS and mid >= thr)
            live.append(cur)
        cursors = live
        if not cursors:
            pending.append(_end(lam_floor, None, 0))
        read = len(pending) > carried
        passed, pending = _descending(pending, [cur[0] for cur in cursors])
        if not passed and read and cursors:
            # the doubles separate nothing here: order the ends exactly and
            # pass those exactly above every next unread hi end
            unread = max((_point(cur[0]) for cur in cursors), key=cmp_to_key(compare))
            ends, _ = _descending(pending, ())
            cut = bisect_left(ends, True, key=lambda e: compare(_point(e), unread) <= 0)
            passed, pending = ends[:cut], ends[cut:]
        opens = sum(map(_OPENS, passed))
        capped_here = opens > budget
        if capped_here:  # the cap falls inside the block: keep the ends above it
            passed = passed[:bisect_right(list(accumulate(map(_OPENS, passed))), budget)]
        budget -= opens
        if passed:
            # each end passed is the lo end of a piece whose hi end is the
            # end before it, with the value above that end
            vals = list(accumulate(map(_DM, passed), initial=value))
            value = vals.pop()
            if above is None:  # r, the first end, is no piece's lo end
                del vals[0]
            else:
                passed.insert(0, above)
            above = passed[-1]
            if vals:
                yield passed, vals
        if capped_here:
            raise CapExceeded(f"profile needs more than {piece_cap} pieces")
        if not cursors:  # the floor was the last end: nothing is left
            return


def _window_sums(num: int, n: int, d: int, ranges: list[tuple[int, int]]) -> list[int]:
    """For each range (a, b), the sum of num // ((k d + n)((k + 1) d - n))
    over a <= k < b (0 when a >= b), read as the difference of two entries
    of one table of prefix sums, so that no term is divided twice. The
    table runs from the least a to the greatest b of the nonempty ranges.
    Atom t's windows in between run from about t/r to t F/r, F the floor
    scale, so that span exceeds the largest atom's range, and so the
    ranges' union, by a factor of at most about F/(F - 1)."""
    nonempty = [(a, b) for a, b in ranges if a < b]
    if not nonempty:
        return [0] * len(ranges)
    lo = min(a for a, _ in nonempty)
    hi = max(b for _, b in nonempty)
    table = list(accumulate(map(floordiv, repeat(num),
                                map(mul, range(lo * d + n, hi * d + n, d),
                                    range((lo + 1) * d - n, (hi + 1) * d - n, d))),
                            initial=0))
    return [table[b - lo] - table[a - lo] if a < b else 0 for a, b in ranges]


@dataclass(eq=False)
class LambdaProfile:
    """The step function on (lam_floor, r].

    pieces, its arrangement, is built on first read: consecutive
    (lo, hi, value) with exact Point endpoints that partition
    (lam_floor, r], ascending. The sweep's blocks are kept as one
    ascending list of ends and one of values (_arrangement), piece i being
    (ends[i], ends[i + 1], vals[i]); piece_count and csv_rows read them as
    doubles and build no Point, and csv_rows prints each end's midpoint
    once, as the hi end of one row and the lo of the next. Reading any of
    them raises CapExceeded when more than piece_cap windows meet that
    range. Pieces below lam_floor are discarded (the atom windows
    accumulate to 0 there), so the integral is a certified lower bound for
    the full integral over (0, r].
    """

    mu: DiscreteMeasure
    eps: Fraction
    r: Point
    lam_floor: Point
    windows: tuple[tuple[int, int], ...]
    piece_cap: int = DEFAULT_PIECE_CAP

    @cached_property
    def _arrangement(self) -> tuple[list[tuple], list[int]]:
        """(ends, vals): the ends, ascending, and the values in units of
        1/D, of the pieces (ends[i], ends[i + 1], vals[i])."""
        if sum(k_end - k0 for k0, k_end in self.windows) > self.piece_cap:
            raise CapExceeded(f"profile needs more than {self.piece_cap} pieces")
        ends, vals = [], []
        for block_ends, block_vals in _sweep(self.mu, self.eps, self.r, self.lam_floor,
                                             self.windows, self.piece_cap):
            ends[-1:] = block_ends  # the block starts at the last end so far
            vals += block_vals
        ends.reverse()
        vals.reverse()
        return ends, vals

    def _values(self) -> dict[int, Fraction]:
        """Each value of the arrangement, in units of 1/D, as a Fraction."""
        denom = _mass_units(self.mu)[0]
        return {v: Fraction(v, denom) for v in set(self._arrangement[1])}

    @cached_property
    def pieces(self) -> list[tuple[Point, Point, Fraction]]:
        ends, vals = self._arrangement
        values = self._values()
        pts = list(map(_point, ends))  # one Point per end
        return list(zip(pts, pts[1:], map(values.__getitem__, vals)))

    @property
    def piece_count(self) -> int:
        return len(self._arrangement[1])

    def integral_bounds(self, bits: int = 128) -> tuple[Fraction, Fraction]:
        """Certified enclosure of the integral, sum_i m_i |W_i|, where W_i
        is atom i's windows inside (lam_floor, r].

        The two windows clipped at r and at the floor are measured as exact
        Points. Window k has length t c_k with c_k = d(d-2n)/((kd+n)((k+1)d-n))
        for eps = n/d; the sum of c_k over the windows in between is taken
        in integer multiples of 2^-bits, rounded down and up, and multiplied
        by the enclosure of t. The atoms share eps, so their ranges of
        windows in between overlap: each sum is read from one table of
        prefix sums (_window_sums)."""
        n, d = self.eps.numerator, self.eps.denominator
        inner = [(k0 + 1, k_end - 1) for k0, k_end in self.windows]
        sums = _window_sums((d * (d - 2 * n)) << bits, n, d, inner)
        lo_sum = hi_sum = Fraction(0)
        for t, m, (k0, k_end), s, (a, b) in zip(self.mu.atoms, self.mu.masses,
                                                self.windows, sums, inner):
            if k_end <= k0:
                continue
            lo, hi = _window(t, self.eps, k0, k0, k_end, self.r, self.lam_floor)
            ends = _point(hi) - _point(lo)
            if k_end - 1 > k0:
                lo, hi = _window(t, self.eps, k_end - 1, k0, k_end, self.r, self.lam_floor)
                ends = ends + (_point(hi) - _point(lo))
            e_lo, e_hi = ends.enclosure(bits)
            t_lo, t_hi = t.enclosure(bits)
            lo_sum += m * (e_lo + t_lo * Fraction(s, 1 << bits))
            hi_sum += m * (e_hi + t_hi * Fraction(s + max(b - a, 0), 1 << bits))
        return lo_sum, hi_sum

    def integral_at_least(self, threshold: Point, bits: int = 128) -> bool:
        """Certified test  integral >= threshold  (threshold a Point)."""
        def decide(bits):
            ilo, ihi = self.integral_bounds(bits)
            tlo, thi = threshold.enclosure(bits)
            return True if ilo >= thi else False if ihi < tlo else None

        return escalate(decide, bits, threshold.basis.precision_cap,
                        "profile integral comparison undecided")

    def csv_rows(self):
        """The header, then (lo, hi, value) per piece, ascending; lo and hi
        are the ends' float midpoints, which are float() of the Points."""
        yield ("piece_lo", "piece_hi", "value")
        ends, vals = self._arrangement
        values = {v: fraction_str(q) for v, q in self._values().items()}
        # each end's midpoint once: -ball[0], the ball being the negated end's
        mids = [repr(-end[0][0]) for end in ends]
        yield from zip(mids, mids[1:], map(values.__getitem__, vals))


def _windows(mu: DiscreteMeasure, eps: Fraction, r: Point, lam_floor: Point):
    return tuple(_window_range(t, eps, r, lam_floor) for t in mu.atoms)


def lambda_profile(mu: DiscreteMeasure, eps: Fraction, delta: Fraction,
                   floor_scale: int = DEFAULT_FLOOR_SCALE,
                   piece_cap: int = DEFAULT_PIECE_CAP) -> LambdaProfile:
    """The step function on (r/floor_scale, r]; its arrangement is built
    when its pieces are first read."""
    eps = parse_fraction(eps)
    delta = parse_fraction(delta)
    _check_params(eps, delta, floor_scale)
    r = cutoff_r(mu, eps, delta)
    lam_floor = r * Fraction(1, floor_scale)
    return LambdaProfile(mu=mu, eps=eps, r=r, lam_floor=lam_floor,
                         windows=_windows(mu, eps, r, lam_floor), piece_cap=piece_cap)


def _rational_inside(lo: Point, hi: Point) -> Fraction:
    """A rational strictly inside (lo, hi); the exact midpoint when both
    endpoints are rational, otherwise the midpoint of separated certified
    enclosures."""
    if lo.is_rational() and hi.is_rational():
        return (lo.rational_value() + hi.rational_value()) / 2

    def decide(bits):
        _, lhi = lo.enclosure(bits)
        hlo, _ = hi.enclosure(bits)
        if lhi < hlo:
            mid = (lhi + hlo) / 2
            if compare(lo, lo.basis.rational(mid)) < 0 and compare(hi, hi.basis.rational(mid)) > 0:
                return mid
        return None

    return escalate(decide, 96, lo.basis.precision_cap, "cannot separate piece endpoints")


@dataclass
class WindowConstraints:
    """Feasibility conditions tying lam to the support geometry:
    lam < x_1,  |V| < 2 x_l,  |U| > eps x_l / 2."""

    x_1: Point
    x_l: Point

    def check(self, lam: Fraction, eps: Fraction):
        basis = self.x_l.basis
        U, V = frac_window_sets(lam, eps, self.x_l)
        ok_lam = compare(basis.rational(lam), self.x_1) < 0
        mu_u = U.measure()
        mu_v = V.measure()
        ok_v = compare(mu_v, self.x_l * 2) < 0
        ok_u = compare(mu_u, self.x_l * Fraction(eps, 2)) > 0
        details = {
            "lam": fraction_str(lam),
            "lam_below_x1": ok_lam,
            "U_measure": decimal_enclosure_str(mu_u),
            "V_measure": decimal_enclosure_str(mu_v),
            "U_above_eps_xl_half": ok_u,
            "V_below_2xl": ok_v,
        }
        return (ok_lam and ok_u and ok_v), details, U, V


@dataclass
class LambdaResult:
    lam: Fraction
    value: Fraction
    piece: tuple[Point, Point, Fraction]
    threshold: Fraction
    U: IntervalSet | None
    V: IntervalSet | None
    constraint_details: dict | None

    def to_json(self):
        return {
            "lam": fraction_str(self.lam),
            "value": fraction_str(self.value),
            "threshold": fraction_str(self.threshold),
            "piece": {
                "lo": decimal_enclosure_str(self.piece[0]),
                "hi": decimal_enclosure_str(self.piece[1]),
                "value": fraction_str(self.piece[2]),
            },
            "constraints": self.constraint_details,
        }


def find_lambda(mu: DiscreteMeasure, eps: Fraction, delta: Fraction,
                constraints: WindowConstraints | None = None,
                floor_scale: int = DEFAULT_FLOOR_SCALE,
                piece_cap: int = DEFAULT_PIECE_CAP,
                max_retries: int = 3,
                candidate_cap: int = 64) -> LambdaResult:
    """Deterministic choice of lam with window mass above (1-3 eps)|mu|.

    Qualifying pieces are scanned by decreasing value, then decreasing
    lam (the piece choice therefore never depends on the floor). The
    top-down sweep meets the full-mass pieces first and in that order, so
    they are probed as they come; the other qualifying pieces are ranked
    only once the sweep reaches the floor. The returned lam is a rational
    strictly inside its piece; its value is re-derived by direct
    evaluation before returning. If constraints are given they are
    checked at lam; at most candidate_cap pieces are probed per attempt.
    Whenever an attempt yields nothing the floor is lowered and the search
    repeats. Each attempt enters at most piece_cap windows.
    """
    eps = parse_fraction(eps)
    delta = parse_fraction(delta)
    _check_params(eps, delta, floor_scale)
    total = mu.total_mass
    threshold = (1 - 3 * eps) * total
    r = cutoff_r(mu, eps, delta)
    # piece values are integers in units of 1/D: a value v qualifies when
    # v > threshold * D, that is v > above, and has full mass when v == full
    denom = _mass_units(mu)[0]
    above = math.floor(threshold * denom)
    full = int(total * denom)
    failures = []

    def probe(lo, hi, v):
        val = Fraction(v, denom)
        lo, hi = _point(lo), _point(hi)
        lam = _rational_inside(lo, hi)
        direct = window_value(mu, eps, lam)
        if direct != val:
            raise AssertionError(
                f"profile value {val} disagrees with direct evaluation {direct} at {lam}")
        if direct <= threshold:
            return None
        detail = U = V = None
        if constraints is not None:
            ok, detail, U, V = constraints.check(lam, eps)
            if not ok:
                failures.append(detail)
                return None
        return LambdaResult(lam=lam, value=direct, piece=(lo, hi, val),
                            threshold=threshold, U=U, V=V,
                            constraint_details=detail)

    scale = floor_scale
    for _ in range(max_retries + 1):
        lam_floor = r * Fraction(1, scale)
        sweep = _sweep(mu, eps, r, lam_floor, _windows(mu, eps, r, lam_floor), piece_cap)
        pieces = probes = top = 0
        ranked = {}  # value -> its first qualifying pieces, lam descending
        # the values met that are no longer open: not above the threshold,
        # or with a full group; a block of these alone is skipped whole
        settled = set()
        stopped = False
        for ends, vals in sweep:
            pieces += len(vals)
            top = max(top, *vals)
            if settled.issuperset(vals):
                continue
            # the open positions, found lazily: a value settled here is
            # skipped at every later position
            for i in compress(count(), map(not_, map(settled.__contains__, vals))):
                v = vals[i]
                if v <= above:
                    settled.add(v)
                    continue
                if v != full:
                    group = ranked.setdefault(v, [])
                    if len(group) < candidate_cap:
                        group.append((ends[i + 1], ends[i], v))
                    if len(group) >= candidate_cap:
                        settled.add(v)
                    continue
                found = probe(ends[i + 1], ends[i], v)
                if found:
                    return found
                probes += 1
                if probes == candidate_cap:
                    stopped = True
                    break
            if stopped:
                break
        else:
            rest = [pc for v in sorted(ranked, reverse=True) for pc in ranked[v]]
            for lo, hi, v in rest[:candidate_cap - probes]:
                found = probe(lo, hi, v)
                if found:
                    return found
        # nothing qualified (or constraints rejected everything): lower the
        # floor, which only adds smaller-lam pieces, and scan again
        scale *= 16
    # the diagnostics describe the last attempt's whole arrangement; if it
    # stopped at candidate_cap, its sweep goes on to the floor (on doubles:
    # no Point is built for the pieces it passes)
    for _, vals in sweep:
        pieces += len(vals)
        top = max(top, *vals)
    raise LambdaNotFound(
        f"no piece with value above {threshold} satisfied the constraints",
        diagnostics={
            "threshold": fraction_str(threshold),
            "max_piece_value": fraction_str(Fraction(top, denom)),
            "pieces": pieces,
            "constraint_failures": failures[:20],
        })


def frac_window_sets(lam: Fraction, eps: Fraction,
                     x_l: Point) -> tuple[IntervalSet, IntervalSet]:
    """U and V for a rational lam as exact open IntervalSets.

    U collects the open windows (lam j, lam (j + eps)) inside (-x_l, 0);
    V the open windows (lam (j + eps), lam (j + 1)) inside (-x_l, x_l).
    They are disjoint by construction. More than DEFAULT_PIECE_CAP
    windows raise CapExceeded.

    One ascending pass builds both. For lam = p/q and eps = a/b every
    window end is n/(q b) for an int n, and its Point comes from (n, q b)
    (GeneratorBasis.ratio). With k = floor(x_l/lam), the windows inside
    [-lam k, lam k] are whole; only the windows of j = -k - 1 and of
    j = k, which meet -x_l and x_l, are compared with them (an end that
    ties with the bound is kept), and the windows beyond are never built.
    U's hi end is the next V window's lo and V's hi the next U window's
    lo: each is one Point. The windows come sorted and disjoint, so the
    sets are built directly, with no canonicalize.
    """
    lam = parse_fraction(lam)
    eps = parse_fraction(eps)
    if lam <= 0:
        raise ConfigError("lam must be positive")
    if not 0 < eps < Fraction(1, 3):
        raise ConfigError("eps must lie in (0, 1/3)")
    basis = x_l.basis
    if x_l.sign() <= 0:
        raise ConfigError("x_l must be positive")
    k = floor_point(x_l * (1 / lam))
    span = k + 2
    if 2 * span + 2 > DEFAULT_PIECE_CAP:
        raise CapExceeded(f"{2 * span + 2} windows exceed the cap {DEFAULT_PIECE_CAP}")
    den = lam.denominator * eps.denominator
    step = lam.numerator * eps.denominator  # lam j = step j / den
    shift = lam.numerator * eps.numerator  # lam (j + eps) = (step j + shift) / den
    # lam j and lam (j + eps) for -k <= j < k, then lam k, ascending
    nums = [0] * (4 * k + 1)
    nums[::2] = range(-k * step, (k + 1) * step, step)
    nums[1::2] = range(shift - k * step, shift + k * step, step)
    ends = list(map(basis.ratio, nums, repeat(den)))
    # the windows of j = -k - 1 meet -x_l in (-lam (k + 1), -lam k]: U's is
    # (-x_l, low), V's (low, -lam k) or (-x_l, -lam k)
    neg = -x_l
    low = basis.ratio(shift - (k + 1) * step, den)  # lam (eps - k - 1)
    side = compare(low, neg)
    u = [(neg, low)] if side > 0 else []
    v = ([(low, ends[0])] if side >= 0 else
         [(neg, ends[0])] if compare(neg, ends[0]) < 0 else [])
    u += zip(ends[:2 * k:2], ends[1:2 * k:2])
    v += zip(ends[1::2], ends[2::2])
    high = basis.ratio(shift + k * step, den)  # lam (k + eps); x_l < lam (k + 1)
    if compare(high, x_l) < 0:
        v.append((high, x_l))
    return IntervalSet(basis, tuple(u)), IntervalSet(basis, tuple(v))
