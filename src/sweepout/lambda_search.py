"""Search for the window scaling parameter and its fractional-part sets.

For a measure with atoms x_i, the function

    lam -> sum of masses of atoms with frac(x_i / lam) in (eps, 1 - eps)

is a step function of lam whose pieces are intersections of the atom
windows (x_i/(k+1-eps), x_i/(k+eps)), k = 0, 1, 2, ...  Averaging over
lam in (0, r], r = min(eps*x_1 / (2(1-eps)), delta), the mean value
exceeds (1 - 3 eps) * |mu|, so some piece must too. lambda_profile builds
the exact arrangement of that step function down to a configurable floor;
find_lambda picks a rational lam from a best piece deterministically and
re-checks it by direct evaluation.

frac_window_sets materializes, for a fixed rational lam, the sets

    U = { t in (-x_l, 0)   : frac(t/lam) < eps }
    V = { t in (-x_l, x_l) : frac(t/lam) > eps }

as exact open IntervalSets (window endpoints that are multiples of lam
are dropped; they carry no measure and keep every set open).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, LambdaNotFound, PrecisionExhausted
from .exactreal import (IntervalSet, Point, compare, decimal_enclosure_str,
                        floor_point, fraction_str, parse_fraction)
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
        raise ValueError("lam must be positive")
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


@dataclass
class LambdaProfile:
    """Arrangement of the step function on (lam_floor, r].

    pieces are consecutive (lo, hi, value) with exact Point endpoints;
    they partition (lam_floor, r]. Pieces below lam_floor are discarded
    (the atom windows accumulate to 0 there), so the stored integral is a
    certified lower bound for the full integral over (0, r].
    """

    eps: Fraction
    total_mass: Fraction
    r: Point
    lam_floor: Point
    pieces: list[tuple[Point, Point, Fraction]]

    def max_value(self) -> Fraction:
        return max((v for _, _, v in self.pieces), default=Fraction(0))

    def integral_enclosure(self, bits: int = 128) -> tuple[Fraction, Fraction]:
        """Certified dyadic enclosure of the stored integral.

        Endpoint enclosures are rounded outward to denominators 2^bits
        before summing, so the accumulated fractions never blow up.
        """
        scale = 1 << bits
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for plo, phi, v in self.pieces:
            if not v:
                continue
            llo, lhi = plo.enclosure(bits)
            hlo, hhi = phi.enclosure(bits)
            length_lo = Fraction((hlo - lhi).numerator * scale // (hlo - lhi).denominator, scale)
            length_hi = Fraction(-((llo - hhi).numerator * scale // (llo - hhi).denominator), scale)
            if length_lo < 0:
                length_lo = Fraction(0)
            lo_sum += length_lo * v
            hi_sum += length_hi * v
        return lo_sum, hi_sum

    def integral_float_enclosure(self) -> tuple[Fraction, Fraction]:
        """Cheap certified enclosure from the cached float approximations."""
        import math as _math

        mids = []
        rads = []
        for plo, phi, v in self.pieces:
            if not v:
                continue
            lm, lr = plo.approx()
            hm, hr = phi.approx()
            vf = float(v)
            mid = (hm - lm) * vf
            rad = ((hr + lr + (abs(hm) + abs(lm)) * 2.3e-16) * vf
                   + abs(mid) * 4.6e-16) * 1.01 + 1e-300
            mids.append(mid)
            rads.append(rad)
        s = _math.fsum(mids)
        w = _math.fsum(rads)
        slop = (abs(s) + w) * 1e-15 + 1e-290
        return Fraction(s) - Fraction(w) - Fraction(slop), \
            Fraction(s) + Fraction(w) + Fraction(slop)

    def integral_at_least(self, threshold: Point, bits: int = 128) -> bool:
        """Certified test  integral >= threshold  (threshold a Point)."""
        ilo, ihi = self.integral_float_enclosure()
        tm, tr = threshold.approx()
        if ilo >= Fraction(tm) + Fraction(tr):
            return True
        if ihi < Fraction(tm) - Fraction(tr):
            return False
        cap = threshold.basis.precision_cap
        while True:
            ilo, ihi = self.integral_enclosure(bits)
            tlo, thi = threshold.enclosure(bits)
            if ilo >= thi:
                return True
            if ihi < tlo:
                return False
            if bits >= cap:
                raise PrecisionExhausted("profile integral comparison undecided")
            bits = min(bits * 2, cap)

    def csv_rows(self):
        yield ("piece_lo", "piece_hi", "value")
        for lo, hi, v in self.pieces:
            yield (repr(float(lo)), repr(float(hi)), fraction_str(v))


def _sort_events(events: list) -> None:
    """Sort (Point, delta) events exactly, fast.

    A C-speed sort on the certified float midpoints gives the global
    order wherever approximation intervals are disjoint; runs of events
    with overlapping intervals (near or exact ties) are then re-sorted
    with exact comparisons. Any event outside a run is certifiably
    ordered against every event inside it, so the result is exact."""
    import functools

    events.sort(key=lambda ev: ev[0].approx()[0])
    n = len(events)
    i = 0
    out = []
    while i < n:
        m, r = events[i][0].approx()
        upper = m + r
        j = i + 1
        while j < n:
            mj, rj = events[j][0].approx()
            if mj - rj > upper:
                break
            if mj + rj > upper:
                upper = mj + rj
            j += 1
        if j - i > 1:
            chunk = sorted(events[i:j],
                           key=functools.cmp_to_key(lambda a, b: compare(a[0], b[0])))
            out.extend(chunk)
        else:
            out.append(events[i])
        i = j
    events[:] = out


def lambda_profile(mu: DiscreteMeasure, eps: Fraction, delta: Fraction,
                   floor_scale: int = DEFAULT_FLOOR_SCALE,
                   piece_cap: int = DEFAULT_PIECE_CAP) -> LambdaProfile:
    """Exact arrangement of the step function on (r/floor_scale, r]."""
    eps = parse_fraction(eps)
    delta = parse_fraction(delta)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("eps must lie in (0, 1/3)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    basis = mu.basis
    r = cutoff_r(mu, eps, delta)
    lam_floor = r * Fraction(1, floor_scale)

    events: list[tuple[Point, Fraction]] = [(lam_floor, Fraction(0)),
                                            (r, Fraction(0))]
    fl_mid, fl_rad = lam_floor.approx()
    for t, m in zip(mu.atoms, mu.masses):
        t_mid, t_rad = t.approx()
        # smallest k with window lower end t/(k+1-eps) below r
        tf, rf = float(t), float(r)
        k = max(0, int(tf / rf - float(1 - eps)) - 2)
        while compare(r * (k + 1 - eps), t) <= 0:
            k += 1
        while k > 0 and compare(r * (k - eps), t) > 0:
            k -= 1
        # windows with k below k_safe sit certifiably above the floor,
        # and only the first window can poke above r, so the bulk of the
        # loop emits events with no comparisons at all
        k_safe = int((t_mid - t_rad) / (fl_mid + fl_rad) * 0.999999) - 2
        # 1/(k+eps) = d/(k d + n) and 1/(k+1-eps) = d/((k+1) d - n) with
        # eps = n/d reduced; both right sides are already in lowest terms
        n_e, d_e = eps.numerator, eps.denominator
        atom_events: list[tuple[Point, Fraction]] = []
        first = True
        while True:
            hi = t * Fraction(d_e, k * d_e + n_e)
            interior = k < k_safe and not first
            if not interior and compare(hi, lam_floor) <= 0:
                break
            lo = t * Fraction(d_e, (k + 1) * d_e - n_e)
            if interior:
                lo_c, hi_c = lo, hi
            else:
                lo_c = lo if compare(lo, lam_floor) >= 0 else lam_floor
                hi_c = hi if compare(hi, r) <= 0 else r
            if interior or compare(lo_c, hi_c) < 0:
                atom_events.append((hi_c, -m))
                atom_events.append((lo_c, m))
                if len(events) + len(atom_events) > 2 * piece_cap + 2:
                    raise CapExceeded(f"profile needs more than {piece_cap} pieces")
            first = False
            k += 1
        atom_events.reverse()  # ascending runs let the sort merge cheaply
        events.extend(atom_events)
    _sort_events(events)
    # merge events at exactly equal points, then sweep
    merged: list[tuple[Point, Fraction]] = []
    for pt, dm in events:
        if merged and merged[-1][0].coeffs == pt.coeffs:
            merged[-1] = (merged[-1][0], merged[-1][1] + dm)
        else:
            merged.append((pt, dm))
    pieces = []
    running = Fraction(0)
    for (b, dm), (nxt, _) in zip(merged, merged[1:]):
        running += dm
        pieces.append((b, nxt, running))
    return LambdaProfile(eps=eps, total_mass=mu.total_mass, r=r,
                         lam_floor=lam_floor, pieces=pieces)


def _rational_inside(lo: Point, hi: Point) -> Fraction:
    """A rational strictly inside (lo, hi); the exact midpoint when both
    endpoints are rational, otherwise the midpoint of separated certified
    enclosures."""
    if lo.is_rational() and hi.is_rational():
        return (lo.rational_value() + hi.rational_value()) / 2
    bits = 96
    cap = lo.basis.precision_cap
    while True:
        _, lhi = lo.enclosure(bits)
        hlo, _ = hi.enclosure(bits)
        if lhi < hlo:
            mid = (lhi + hlo) / 2
            if compare(lo, lo.basis.rational(mid)) < 0 and compare(hi, hi.basis.rational(mid)) > 0:
                return mid
        if bits >= cap:
            raise PrecisionExhausted("cannot separate piece endpoints")
        bits = min(bits * 2, cap)


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
    returned lam is a rational strictly inside its piece; its value is
    re-derived by direct evaluation before returning. If constraints are
    given they are checked at lam; at most candidate_cap pieces are
    probed per attempt. Whenever an attempt yields nothing the floor is
    lowered and the search repeats.
    """
    return _find_lambda_and_profile(mu, eps, delta, constraints, floor_scale,
                                    piece_cap, max_retries, candidate_cap)[0]


def _find_lambda_and_profile(mu: DiscreteMeasure, eps: Fraction, delta: Fraction,
                             constraints: WindowConstraints | None = None,
                             floor_scale: int = DEFAULT_FLOOR_SCALE,
                             piece_cap: int = DEFAULT_PIECE_CAP,
                             max_retries: int = 3, candidate_cap: int = 64
                             ) -> tuple[LambdaResult, LambdaProfile]:
    """find_lambda, together with the profile built at the requested
    floor_scale, for the one caller that writes it out. The result does
    not hold the profile, so callers that keep results do not keep whole
    arrangements alive."""
    eps = parse_fraction(eps)
    delta = parse_fraction(delta)
    threshold = (1 - 3 * eps) * mu.total_mass
    failures = []
    scale = floor_scale
    for attempt in range(max_retries + 1):
        profile = lambda_profile(mu, eps, delta, floor_scale=scale, piece_cap=piece_cap)
        if attempt == 0:
            requested = profile
        qualifying = [pc for pc in reversed(profile.pieces) if pc[2] > threshold]
        qualifying.sort(key=lambda pc: pc[2], reverse=True)  # stable: keeps lam descending
        for lo, hi, val in qualifying[:candidate_cap]:
            lam = _rational_inside(lo, hi)
            direct = window_value(mu, eps, lam)
            if direct != val:
                raise AssertionError(
                    f"profile value {val} disagrees with direct evaluation {direct} at {lam}")
            if direct <= threshold:
                continue
            detail = None
            if constraints is not None:
                ok, detail, U, V = constraints.check(lam, eps)
                if not ok:
                    failures.append(detail)
                    continue
            else:
                U = V = None
            return LambdaResult(lam=lam, value=direct, piece=(lo, hi, val),
                                threshold=threshold, U=U, V=V,
                                constraint_details=detail), requested
        # nothing qualified (or constraints rejected everything): lower the
        # floor, which only adds smaller-lam pieces, and scan again
        scale *= 16
    raise LambdaNotFound(
        f"no piece with value above {threshold} satisfied the constraints",
        diagnostics={
            "threshold": fraction_str(threshold),
            "max_piece_value": fraction_str(Fraction(profile.max_value())),
            "pieces": len(profile.pieces),
            "constraint_failures": failures[:20],
        })


def frac_window_sets(lam: Fraction, eps: Fraction, x_l: Point,
                     window_cap: int = DEFAULT_PIECE_CAP) -> tuple[IntervalSet, IntervalSet]:
    """U and V for a rational lam as exact open IntervalSets.

    U collects the open windows (lam j, lam (j + eps)) inside (-x_l, 0);
    V the open windows (lam (j + eps), lam (j + 1)) inside (-x_l, x_l).
    They are disjoint by construction.
    """
    lam = parse_fraction(lam)
    eps = parse_fraction(eps)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("eps must lie in (0, 1/3)")
    basis = x_l.basis
    if x_l.sign() <= 0:
        raise ValueError("x_l must be positive")
    span = floor_point(x_l * (1 / lam)) + 2
    if 2 * span + 2 > window_cap:
        raise CapExceeded(f"{2 * span + 2} windows exceed the cap {window_cap}")
    zero = basis.rational(0)
    neg = -x_l

    def clipped(a: Fraction, b: Fraction, lo: Point, hi: Point):
        pa, pb = basis.rational(a), basis.rational(b)
        la = pa if compare(pa, lo) >= 0 else lo
        hb = pb if compare(pb, hi) <= 0 else hi
        if compare(la, hb) < 0:
            return la, hb
        return None

    u_parts = []
    v_parts = []
    for j in range(-span, span + 1):
        u = clipped(lam * j, lam * (j + eps), neg, zero)
        if u:
            u_parts.append(u)
        v = clipped(lam * (j + eps), lam * (j + 1), neg, x_l)
        if v:
            v_parts.append(v)
    U = IntervalSet.canonicalize(basis, u_parts) if u_parts else IntervalSet.empty(basis)
    V = IntervalSet.canonicalize(basis, v_parts) if v_parts else IntervalSet.empty(basis)
    return U, V
