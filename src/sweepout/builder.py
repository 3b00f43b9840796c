"""Witness-pair and sweep-out witness construction with full certification.

The pipeline per measure: fix a scaling parameter lam through the window
search, materialize the fractional-part sets U and V, and grow the
lattice level m until the pair

    E = A_m cap U,   G = A_{m+1} cap V

satisfies, with everything checked exactly,

    E cap G = empty,   #E > eps #G / 4,
    S 1_G(x) > (1 - 3 eps) |mu|  for every x in E.

Across a sequence of measures, pairs are selected greedily so consecutive
point sets satisfy the separation condition  max|A_{k+1}| <= d(A_k)/4,
which forces unique decomposition of sums. The sweep-out witness is the
factored family of m such pairs together with a certified thickening
radius; counts, gaps and all claimed inequalities reduce to factor level,
with explicit sumset enumeration retained as a brute-force oracle for
small instances.

Pairs are accepted only through EGPair.certify, and witnesses, built or
trimmed, only through _assemble, which certifies the separation chain,
the thickening radius and the product counts.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Sequence

from .errors import (CapExceeded, ConfigError, GrowthExhausted,
                     SequenceExhausted, VerificationFailed)
from .exactreal import (GeneratorBasis, IntervalSet, Point, PointSet, apart,
                        bisect_points, compare, decimal_enclosure_str,
                        extent, fraction_str, locate, parse_fraction,
                        sort_points, sum_radius, torus_locate)
from .lambda_search import WindowConstraints, active_atoms, find_lambda
from .lattice import DEFAULT_TUPLE_CAP, decompose, lattice_hits
from .measures import (DiscreteMeasure, MeasureSequence, convolve_indicator,
                       min_on_interval, step_profile, to_torus)

DEFAULT_M_MAX = 64
DEFAULT_EXPLICIT_CAP = 10**6
_EG_FLOOR_SCALE = 64


# ---------------------------------------------------------------------------
# the per-measure witness pair
# ---------------------------------------------------------------------------

@dataclass
class EGPair:
    """Disjoint finite sets E, G in (-x_l, x_l) with the convolution of
    1_G exceeding (1 - 3 eps)|mu| on all of E; certified at construction
    and re-checkable exactly after deserialization."""

    mu_index: int
    epsilon: Fraction
    lam: Fraction
    m: int
    E: tuple[Point, ...]
    G: tuple[Point, ...]

    def points(self) -> list[Point]:
        return list(self.E) + list(self.G)

    def certify(self, mu: DiscreteMeasure) -> dict:
        """Exact re-check of the three defining inequalities."""
        gset = PointSet(self.G)
        disjoint = not any(p in gset for p in self.E)
        count_ok = Fraction(len(self.E)) > self.epsilon * len(self.G) / 4
        threshold = (1 - 3 * self.epsilon) * mu.total_mass
        h2_min = None
        for x in self.E:
            v = convolve_indicator(mu, gset, x)
            if h2_min is None or v < h2_min:
                h2_min = v
        h2_ok = h2_min is not None and h2_min > threshold
        x_l = mu.x_l
        inside = all(compare(abs(p), x_l) < 0 for p in self.points())
        return {
            "disjoint": disjoint,
            "count_E": len(self.E),
            "count_G": len(self.G),
            "count_ok": count_ok,
            "h2_min": fraction_str(h2_min) if h2_min is not None else None,
            "h2_threshold": fraction_str(threshold),
            "h2_ok": h2_ok,
            "inside_support_interval": inside,
            "ok": disjoint and count_ok and h2_ok and inside,
        }

    def to_json(self):
        return {
            "mu_index": self.mu_index,
            "epsilon": fraction_str(self.epsilon),
            "lam": fraction_str(self.lam),
            "m": self.m,
            "E": [p.to_json() for p in self.E],
            "G": [p.to_json() for p in self.G],
        }

    @classmethod
    def from_json(cls, basis: GeneratorBasis, obj) -> "EGPair":
        pair = cls(
            mu_index=int(obj["mu_index"]),
            epsilon=parse_fraction(obj["epsilon"]),
            lam=parse_fraction(obj["lam"]),
            m=int(obj["m"]),
            E=tuple(Point.from_json(basis, p) for p in obj["E"]),
            G=tuple(Point.from_json(basis, p) for p in obj["G"]),
        )
        if not pair.E or not pair.G:
            raise ConfigError(f"pair for measure {pair.mu_index} has an empty E or G")
        # decode_near bisects E and G and the hull of A reads their ends:
        # a file must list them ascending, as to_json writes them
        for name, pts in (("E", pair.E), ("G", pair.G)):
            if any(compare(a, b) >= 0 for a, b in zip(pts, pts[1:])):
                raise ConfigError(f"pair for measure {pair.mu_index}: {name} "
                                 f"is not strictly ascending")
        # the separation chain reads the gap of E u G, which {0} lacks
        if pair.E == pair.G and len(pair.E) == 1 and pair.E[0].is_zero():
            raise ConfigError(f"pair for measure {pair.mu_index}: E and G are both {{0}}")
        return pair


def build_eg(mu: DiscreteMeasure, eps: Fraction, m_max: int = DEFAULT_M_MAX,
             mu_index: int = 0, tuple_cap: int = DEFAULT_TUPLE_CAP) -> EGPair:
    """Construct a certified witness pair for one measure.

    lam is fixed once through the constrained window search; the lattice
    level then grows on a doubling schedule until the pair counts reach
    #E > eps #G / 4. A level is accepted only when EGPair.certify
    re-checks every pair inequality exactly.

    The window search only ever consumes the largest-lam qualifying piece
    here, so a shallow profile floor (r / _EG_FLOOR_SCALE) suffices; the
    search lowers the floor by itself whenever the feasibility constraints
    reject every piece above it.

    A rational support (nu = 1) is degenerate: its grid inside
    (-x_l, x_l) is a fixed finite set, so level growth cannot populate
    the windows. When the graded sets stay empty (always, for a single
    atom) the pair is instead built directly at level 0: E takes the
    component midpoints of U and G the translates of E by the atoms
    active at lam; the same three inequalities are certified exactly.
    """
    eps = parse_fraction(eps)
    if not 0 < eps < Fraction(1, 3):
        raise ConfigError("eps must lie in (0, 1/3)")
    spec = decompose(mu.support())
    constraints = WindowConstraints(x_1=mu.x_1, x_l=mu.x_l)
    res = find_lambda(mu, eps, delta=Fraction(1), constraints=constraints,
                      floor_scale=_EG_FLOOR_SCALE)
    U, V = res.U, res.V
    best_ratio = None
    if len(mu) > 1:
        m = 1
        while m <= m_max:
            E = lattice_hits(spec, m, U, cap=tuple_cap)
            G = lattice_hits(spec, m + 1, V, cap=tuple_cap)
            if E and G:
                ratio = Fraction(len(E), len(G))
                if best_ratio is None or ratio > best_ratio:
                    best_ratio = ratio
                if ratio > eps / 4:
                    pair = EGPair(mu_index=mu_index, epsilon=eps, lam=res.lam,
                                  m=m, E=tuple(E), G=tuple(G))
                    if pair.certify(mu)["ok"]:
                        return pair
            m *= 2
    if spec.nu == 1:
        pair = _degenerate_pair(mu, eps, res, mu_index)
        if pair is not None:
            return pair
    best = "" if best_ratio is None else f"best ratio {best_ratio}, "
    raise GrowthExhausted(
        f"no level m <= {m_max} reached #E > eps #G / 4 ({best}target {eps / 4})",
        best_ratio=best_ratio)


def _degenerate_pair(mu: DiscreteMeasure, eps: Fraction, res,
                     mu_index: int) -> EGPair | None:
    """Level-0 pair for rational supports: U-component midpoints plus
    their translates by the atoms active at lam. The translates land in
    V by the fractional-part addition rule, so disjointness, the count
    ratio and the convolution bound all recertify exactly."""
    act = active_atoms(mu, eps, res.lam)
    E = sort_points((lo + hi) * Fraction(1, 2) for lo, hi in res.U)
    g_map = {}
    for x in E:
        for i in act:
            g = x + mu.atoms[i]
            g_map[g.key] = g
    G = sort_points(g_map.values())
    if not E or not G:
        return None
    pair = EGPair(mu_index=mu_index, epsilon=eps, lam=res.lam, m=0,
                  E=tuple(E), G=tuple(G))
    return pair if pair.certify(mu)["ok"] else None


# ---------------------------------------------------------------------------
# separation and unique sums
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    ok: bool
    rows: list[dict]
    failing_pair: int | None = None

    def to_json(self):
        return {"ok": self.ok, "failing_pair": self.failing_pair, "rows": self.rows}


def _extent(points: Sequence[Point]) -> tuple[Point, Point, Point]:
    """(max|A|, max A, d(A)) of a point set A, from its one exact sort
    (exactreal.extent)."""
    least, greatest, gap = extent(points)
    neg = -least
    return greatest if compare(greatest, neg) >= 0 else neg, greatest, gap


def separation_check(sets: Sequence[Sequence[Point]]) -> SeparationReport:
    """Certified check of  max A_{k+1} <= d(A_k) / 4  for consecutive sets.

    The sets may contain negative points; the max is taken of absolute
    values (the quantity the sum-decomposition argument actually bounds).
    The signed-max reading is evaluated too and recorded in each row, so
    the certificate states which reading drove the verdict.
    """
    return _separation([_extent(s) for s in sets])


def _separation(extents: Sequence[tuple[Point, Point, Point]]) -> SeparationReport:
    """separation_check from the _extent of each set."""
    if not extents:
        raise ValueError("no sets given")
    rows = []
    ok = True
    failing = None
    for k, ((_, _, d_k), (abs_max, signed_max, _)) in enumerate(zip(extents, extents[1:])):
        quarter = d_k * Fraction(1, 4)
        ok_abs = compare(abs_max, quarter) <= 0
        ok_signed = compare(signed_max, quarter) <= 0
        rows.append({
            "pair": k,
            "reading": "abs",
            "d_prev": decimal_enclosure_str(d_k),
            "max_abs_next": decimal_enclosure_str(abs_max),
            "ok_abs": ok_abs,
            "ok_signed_reading": ok_signed,
        })
        if not ok_abs and ok:
            ok = False
            failing = k
    return SeparationReport(ok=ok, rows=rows, failing_pair=failing)


def unique_sum_check(sets: Sequence[Sequence[Point]],
                     cap: int = DEFAULT_EXPLICIT_CAP):
    """Exhaustive distinctness of all sums taking one element per set.

    Returns (True, stats) or (False, counterexample). Equality of sums is
    exact (coefficient vectors)."""
    total = 1
    for s in sets:
        if not s:
            raise ValueError("empty factor set")
        total *= len(s)
    if total > cap:
        raise CapExceeded(
            f"{total} sum tuples exceed the cap {cap}; rely on separation_check")
    seen: dict = {}
    for acc, combo in _sums(sets):
        key = acc.key
        if key in seen:
            return False, {
                "sum": acc.to_json(),
                "first": [p.to_json() for p in seen[key]],
                "second": [p.to_json() for p in combo],
            }
        seen[key] = combo
    return True, {"distinct_sums": total}


def _sums(parts: Sequence[Sequence[Point]]):
    """(sum, combo) for every choice of one point per part, the last
    part varying fastest."""
    for combo in itertools.product(*parts):
        acc = combo[0]
        for p in combo[1:]:
            acc = acc + p
        yield acc, combo


# ---------------------------------------------------------------------------
# subsequence selection
# ---------------------------------------------------------------------------

@dataclass
class Selection:
    indices: list[int]
    factors: list[EGPair]


def select_subsequence(seq: MeasureSequence, eps: Fraction, m: int,
                       m_max: int = DEFAULT_M_MAX,
                       tuple_cap: int = DEFAULT_TUPLE_CAP) -> Selection:
    """Greedy gap-separated selection of m witness pairs.

    A candidate measure is attempted only when its support bound already
    guarantees progress (the pair sets live inside (-x_l, x_l), so
    x_l <= d(previous E u G)/4 forces the strict gap condition); the
    accepted pair is then re-certified against the actual max |E u G|.
    """
    indices: list[int] = []
    factors: list[EGPair] = []
    prev_quarter: Point | None = None
    for idx in range(len(seq)):
        if len(factors) == m:
            break
        mu = seq[idx]
        if prev_quarter is not None and compare(mu.x_l, prev_quarter) > 0:
            continue  # support bound too large
        pair = build_eg(mu, eps, m_max=m_max, mu_index=idx, tuple_cap=tuple_cap)
        mx, _, gap = _extent(pair.points())
        if prev_quarter is not None and compare(mx, prev_quarter) >= 0:
            continue  # gap condition failed after build
        indices.append(idx)
        factors.append(pair)
        prev_quarter = gap * Fraction(1, 4)
    if len(factors) < m:
        raise SequenceExhausted(
            f"selected only {len(factors)} of {m} factors; next factor needs "
            f"support below {float(prev_quarter) if prev_quarter is not None else 'n/a'}",
            required_bound=prev_quarter)
    return Selection(indices=indices, factors=factors)


# ---------------------------------------------------------------------------
# the factored sweep-out witness
# ---------------------------------------------------------------------------

@dataclass
class SweepOutWitness:
    """Factored representation of the thickened sumset witness.

    G is the sumset of the factor G sets, E the union of the mixed
    sumsets F_k (factor k contributing its E set), A and B their open
    eps_prime-thickenings. Counts are certified at factor level through
    the unique-decomposition certificate; explicit enumeration is
    available below the configured cap as an independent oracle.
    """

    Delta: Fraction
    delta: Fraction
    epsilon: Fraction
    m: int
    indices: list[int]
    factors: list[EGPair]
    eps_prime: Point
    count_G: int
    count_E: int
    count_F: list[int]
    separation: SeparationReport

    @property
    def basis(self) -> GeneratorBasis:
        return self.eps_prime.basis

    def factor_sets(self) -> list[list[Point]]:
        return [f.points() for f in self.factors]

    # -- explicit enumeration (oracle scale) ------------------------------

    def explicit_G(self, cap: int = DEFAULT_EXPLICIT_CAP) -> list[Point]:
        total, _ = _product_counts(self.factors)
        if total > cap:
            raise CapExceeded(f"explicit G needs {total} points, cap {cap}")
        return [acc for acc, _ in _sums([f.G for f in self.factors])]

    def explicit_E(self, cap: int = DEFAULT_EXPLICIT_CAP) -> list[tuple[Point, int]]:
        """(point, k) pairs where k is the factor contributing its E set.
        The cap reads the factors' counts, not a file's stored count_F."""
        total = sum(_product_counts(self.factors)[1])
        if total > cap:
            raise CapExceeded(f"explicit E needs {total} points, cap {cap}")
        out = []
        for k in range(self.m):
            parts = [f.E if i == k else f.G for i, f in enumerate(self.factors)]
            out.extend((acc, k) for acc, _ in _sums(parts))
        return out

    def thickened(self, points: Sequence[Point]) -> IntervalSet:
        e = self.eps_prime
        return IntervalSet.canonicalize(
            self.basis, [(p - e, p + e) for p in points])

    # -- factored membership through greedy decoding ----------------------

    def decode_near(self, v: Point, use_E_at: int | None = None) -> Point | None:
        """Nearest sumset point within eps_prime of v, or None.

        Factor slots draw from G, except slot use_E_at (if given) which
        draws from E. Greedy per-factor nearest-neighbor selection; both
        bisect neighbors are explored, which is complete inside the
        certified separation radius. The residual, v less the points
        chosen so far, is carried as the ball its Point would carry
        (sum_radius): locate places it in each factor, and apart decides
        the final |residual| < eps_prime. The exact residual is built only
        when one of them is undecided; otherwise the one Point built is
        the sum returned."""
        lists = [(f.E, apx_e) if i == use_E_at else (f.G, apx_g)  # sorted
                 for i, (f, (apx_e, apx_g))
                 in enumerate(zip(self.factors, self._factor_apx))]
        em, er = self.eps_prime.approx()

        def rec(i: int, m: float, r: float, chosen: tuple):
            """The points chosen for all factors, extending chosen, whose
            final residual lies inside eps_prime; else None. (m, r)
            encloses the residual v - sum(chosen) as approx() does."""
            if i == len(lists):
                d = em - abs(m)  # (|m|, r) encloses |residual| too
                if apart(d, er + r):
                    inside = d > 0
                else:
                    res = reduce(operator.sub, chosen, v)
                    inside = compare(abs(res), self.eps_prime) < 0
                return chosen if inside else None
            pts, apx = lists[i]
            j = locate(apx, m, r)
            if j is None:
                j = bisect_points(pts, reduce(operator.sub, chosen, v))
            for c in (j - 1, j):
                if 0 <= c < len(pts):
                    pm, pr = apx[c]
                    d = m - pm
                    got = rec(i + 1, d, sum_radius(d, r, pr), chosen + (pts[c],))
                    if got is not None:
                        return got
            return None

        chosen = rec(0, *v.approx(), ())
        return None if chosen is None else reduce(operator.add, chosen)

    @cached_property
    def _factor_apx(self) -> list[tuple[list, list]]:
        """The approx() of each factor's E and G, for decode_near."""
        return [([p.approx() for p in f.E], [p.approx() for p in f.G])
                for f in self.factors]

    @cached_property
    def _hull_A(self) -> tuple[tuple[Point, Point], list]:
        """Closed hull of A, sum_i G_i[0] - eps' to sum_i G_i[-1] + eps',
        and its ends' approx()."""
        lo, hi = -self.eps_prime, self.eps_prime
        for f in self.factors:
            lo, hi = lo + f.G[0], hi + f.G[-1]
        return (lo, hi), [lo.approx(), hi.approx()]

    def contains_torus(self, x: Point) -> bool:
        """Membership of x mod 1 in the thickened sumset A, factored; no
        lift outside the hull of A is within eps_prime of the sumset, so
        only the lifts that the doubles do not place outside it are
        decoded."""
        return any(j != 0 and j != 2 and self.decode_near(x + k) is not None
                   for k, j in torus_locate(x, *self._hull_A))

    def to_json(self):
        return {
            "Delta": fraction_str(self.Delta),
            "delta": fraction_str(self.delta),
            "epsilon": fraction_str(self.epsilon),
            "m": self.m,
            "indices": list(self.indices),
            "factors": [f.to_json() for f in self.factors],
            "eps_prime": self.eps_prime.to_json(),
            "eps_prime_decimal": decimal_enclosure_str(self.eps_prime),
            "count_G": self.count_G,
            "count_E": self.count_E,
            "count_F": list(self.count_F),
            "separation": self.separation.to_json(),
        }

    @classmethod
    def from_json(cls, basis: GeneratorBasis, obj) -> "SweepOutWitness":
        factors = [EGPair.from_json(basis, f) for f in obj["factors"]]
        sep = SeparationReport(ok=obj["separation"]["ok"],
                               rows=obj["separation"]["rows"],
                               failing_pair=obj["separation"]["failing_pair"])
        w = cls(
            Delta=parse_fraction(obj["Delta"]),
            delta=parse_fraction(obj["delta"]),
            epsilon=parse_fraction(obj["epsilon"]),
            m=int(obj["m"]),
            indices=[int(i) for i in obj["indices"]],
            factors=factors,
            eps_prime=Point.from_json(basis, obj["eps_prime"]),
            count_G=int(obj["count_G"]),
            count_E=int(obj["count_E"]),
            count_F=[int(c) for c in obj["count_F"]],
            separation=sep,
        )
        # verify pairs indices[k] with factors[k]; a short list would
        # leave factors unchecked
        if w.m < 1 or not len(w.indices) == len(w.factors) == len(w.count_F) == w.m:
            raise ConfigError(f"m = {w.m} disagrees with {len(w.indices)} indices, "
                             f"{len(w.factors)} factors and {len(w.count_F)} counts")
        if any(i != f.mu_index for i, f in zip(w.indices, w.factors)):
            raise ConfigError("indices disagree with the factors' mu_index")
        # sampled verification draws the E factor with weights count_F
        if min(w.count_F) < 1:
            raise ConfigError(f"count_F = {w.count_F} holds a count below 1")
        # the eps_prime-thickenings are open intervals of positive width
        if w.eps_prime.sign() <= 0:
            raise ConfigError("eps_prime must be positive")
        return w


def _certified_thickening(extents: Sequence[tuple[Point, Point, Point]]) -> Point:
    """Lower bound for half the minimum gap of the full sumset:
    min_k ( d(A_k) - 2 sum_{i>k} max|A_i| ) / 2, from the _extent of each
    of the m >= 1 factor sets A_k; the sums over i > k are suffix sums.
    The bound may be zero or negative: _assemble refuses such a family,
    and verify reports it as a failed thickening_radius check."""
    best = tail = None  # tail: sum_{i>k} max|A_i|
    for abs_max, _, gap in reversed(extents):
        half = (gap if tail is None else gap - tail * 2) * Fraction(1, 2)
        if best is None or compare(half, best) < 0:
            best = half
        tail = abs_max if tail is None else tail + abs_max
    return best


def required_m(Delta: Fraction, delta: Fraction) -> int:
    """Smallest integer strictly above 12 Delta / (1 - delta)."""
    q = 12 * Delta / (1 - delta)
    return (q.numerator // q.denominator) + 1


def build_witness(seq: MeasureSequence, Delta: Fraction, delta: Fraction,
                  m_cap: int = 64, m_max: int = DEFAULT_M_MAX,
                  tuple_cap: int = DEFAULT_TUPLE_CAP) -> SweepOutWitness:
    """Assemble and certify the factored sweep-out witness.

    Uses eps = (1 - delta)/3 per factor and m factors with
    m > 12 Delta / (1 - delta). The count inequality #E > Delta #G and
    the positive thickening radius are certified exactly; so is the
    separation chain that justifies the factored counting.
    """
    Delta = parse_fraction(Delta)
    delta = parse_fraction(delta)
    if Delta <= 0:
        raise ConfigError(f"Delta must be positive: {Delta}")
    if not 0 < delta < 1:
        raise ConfigError(f"delta must lie in (0, 1): {delta}")
    eps = (1 - delta) / 3
    m = required_m(Delta, delta)
    if m > m_cap:
        raise CapExceeded(f"witness needs m = {m} factors, cap is {m_cap}")
    sel = select_subsequence(seq, eps, m, m_max=m_max, tuple_cap=tuple_cap)
    return _assemble(Delta, delta, eps, sel.indices, sel.factors)


def _product_counts(factors: Sequence[EGPair]) -> tuple[int, list[int]]:
    """#G = prod_i #G_i and #F_k = #E_k prod_{i != k} #G_i, exact by
    unique decomposition of sums."""
    count_G = 1
    for f in factors:
        count_G *= len(f.G)
    return count_G, [count_G // len(f.G) * len(f.E) for f in factors]


def _assemble(Delta: Fraction, delta: Fraction, eps: Fraction,
              indices: Sequence[int], factors: list[EGPair]) -> SweepOutWitness:
    """Certify a factor family as a sweep-out witness: the separation
    chain, a positive thickening radius and #E > Delta #G, all exact.
    The one assembly path behind build_witness and trim_witness."""
    extents = [_extent(f.points()) for f in factors]
    sep = _separation(extents)
    if not sep.ok:
        raise VerificationFailed("separation chain failed on selected factors",
                                 report=sep.to_json())
    eps_prime = _certified_thickening(extents)
    if eps_prime.sign() <= 0:
        raise VerificationFailed("thickening radius is not certified positive")
    count_G, count_F = _product_counts(factors)
    count_E = sum(count_F)
    if not Fraction(count_E) > Delta * count_G:
        raise VerificationFailed(
            f"count inequality failed: {count_E} <= {Delta} * {count_G}")
    return SweepOutWitness(Delta=Delta, delta=delta, epsilon=eps, m=len(factors),
                           indices=list(indices), factors=factors,
                           eps_prime=eps_prime, count_G=count_G,
                           count_E=count_E, count_F=count_F, separation=sep)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    claim: str
    computed: dict
    passed: bool
    method: str
    sample_count: int | None = None

    def to_json(self):
        out = {
            "name": self.name,
            "claim": self.claim,
            "computed": self.computed,
            "passed": self.passed,
            "method": self.method,
        }
        if self.sample_count is not None:
            out["sample_count"] = self.sample_count
        return out


@dataclass
class VerificationReport:
    mode: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "mode": self.mode,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _factor_checks(w: SweepOutWitness, seq: MeasureSequence) -> list[Check]:
    checks = []
    for k, (idx, f) in enumerate(zip(w.indices, w.factors)):
        mu = seq[idx]
        cert = f.certify(mu)
        checks.append(Check(
            name=f"factor[{k}].pair_invariants",
            claim="E cap G empty, #E > eps #G / 4, conv > (1-3eps)|mu| on E",
            computed=cert, passed=bool(cert["ok"]), method="exact"))
        worst = parse_fraction(cert["h2_min"])
        scaled = w.delta * mu.total_mass
        checks.append(Check(
            name=f"factor[{k}].threshold",
            claim="conv exceeds delta and delta*|mu| at every point of E",
            computed={"min_value": fraction_str(worst), "points": len(f.E),
                      "delta": fraction_str(w.delta),
                      "delta_scaled": fraction_str(scaled)},
            passed=worst > w.delta and worst > scaled,
            method="exact"))
    extents = [_extent(s) for s in w.factor_sets()]
    sep = _separation(extents)
    checks.append(Check(
        name="separation_chain",
        claim="max|A_{k+1}| <= d(A_k)/4 along the selected factors",
        computed=sep.to_json(), passed=sep.ok, method="exact"))
    eps_prime = _certified_thickening(extents)
    checks.append(Check(
        name="thickening_radius",
        claim="stored eps_prime is positive and not above the certified bound",
        computed={"stored": decimal_enclosure_str(w.eps_prime),
                  "certified": decimal_enclosure_str(eps_prime)},
        passed=w.eps_prime.sign() > 0 and compare(w.eps_prime, eps_prime) <= 0,
        method="exact"))
    count_G, count_F = _product_counts(w.factors)
    count_E = sum(count_F)
    checks.append(Check(
        name="count_inequality",
        claim=f"#E > Delta * #G with Delta = {fraction_str(w.Delta)}",
        computed={"count_E": count_E, "count_G": count_G,
                  "stored_E": w.count_E, "stored_G": w.count_G,
                  "ratio": float(Fraction(count_E, count_G))},
        passed=(count_E == w.count_E and count_G == w.count_G
                and Fraction(count_E) > w.Delta * count_G),
        method="exact"))
    return checks


def _explicit_checks(w: SweepOutWitness, seq: MeasureSequence,
                     cap: int) -> list[Check]:
    checks = []
    g_pts = w.explicit_G(cap=cap)
    g_keys = {p.key for p in g_pts}
    checks.append(Check(
        name="explicit.G_distinct",
        claim="sumset G enumerates with no collisions (product count)",
        computed={"enumerated": len(g_pts), "distinct": len(g_keys),
                  "expected": w.count_G},
        passed=len(g_keys) == len(g_pts) == w.count_G, method="exact"))
    e_pairs = w.explicit_E(cap=cap)
    e_keys = {p.key for p, _ in e_pairs}
    disjoint_FG = not (e_keys & g_keys)
    checks.append(Check(
        name="explicit.E_distinct",
        claim="the mixed sumsets F_k are mutually disjoint and miss G",
        computed={"enumerated": len(e_pairs), "distinct": len(e_keys),
                  "expected": w.count_E, "disjoint_from_G": disjoint_FG},
        passed=len(e_keys) == len(e_pairs) == w.count_E and disjoint_FG,
        method="exact"))

    A = w.thickened(g_pts)
    B = w.thickened([p for p, _ in e_pairs])
    A_t, B_t = to_torus(A), to_torus(B)
    mA, mB = A_t.measure(), B_t.measure()
    two_eps = w.eps_prime * 2
    checks.append(Check(
        name="explicit.thickened_measures",
        claim="|A| = 2 eps' #G and |B| = 2 eps' #E (disjoint thickening)",
        computed={"measure_A": decimal_enclosure_str(mA),
                  "measure_B": decimal_enclosure_str(mB),
                  "expected_A": decimal_enclosure_str(two_eps * w.count_G),
                  "expected_B": decimal_enclosure_str(two_eps * w.count_E)},
        passed=(mA == two_eps * w.count_G and mB == two_eps * w.count_E),
        method="exact"))
    checks.append(Check(
        name="explicit.measure_inequality",
        claim="|B| > Delta |A|",
        computed={"measure_B": decimal_enclosure_str(mB),
                  "Delta_measure_A": decimal_enclosure_str(mA * w.Delta)},
        passed=compare(mB, mA * w.Delta) > 0, method="exact"))

    profiles = [step_profile(seq[i], A) for i in w.indices]
    component_rows = []
    all_ok = True
    for pt, k in e_pairs:
        lo, hi = pt - w.eps_prime, pt + w.eps_prime
        order = [k] + [i for i in range(w.m) if i != k]
        comp_ok = False
        used = None
        worst = None
        for i in order:
            val = min_on_interval(profiles[i], lo, hi)
            if worst is None or val > worst:
                worst = val
            if val > w.delta:
                comp_ok = True
                used = i
                break
        component_rows.append({
            "center": decimal_enclosure_str(pt), "factor": k,
            "verified_with": used,
            "min_value": fraction_str(worst) if worst is not None else None,
        })
        if not comp_ok:
            all_ok = False
    checks.append(Check(
        name="explicit.sup_on_B_components",
        claim=f"sup_k S 1_A > delta = {fraction_str(w.delta)} on every "
              "component interval of B",
        computed={"components": len(e_pairs), "rows": component_rows[:40],
                  "all_ok": all_ok},
        passed=all_ok, method="exact"))

    # {x : sup_k S 1_A(x) > delta} is the union of every profile's pieces
    # above delta; its canonical form, and so its measure, is unique
    m_level = IntervalSet.canonicalize(w.basis, [
        (lo, hi) for prof in profiles for lo, hi, v in prof.pieces
        if v > w.delta]).measure()
    checks.append(Check(
        name="explicit.level_set_measure",
        claim="|{x : sup_k S 1_A(x) > delta}| > Delta |A| (contains B)",
        computed={"level_measure": decimal_enclosure_str(m_level),
                  "Delta_measure_A": decimal_enclosure_str(mA * w.Delta)},
        passed=compare(m_level, mA * w.Delta) > 0, method="exact"))
    return checks


def _sampled_checks(w: SweepOutWitness, seq: MeasureSequence,
                    samples: int, seed: int) -> list[Check]:
    rng = random.Random(seed)
    denom = 997
    hits = 0
    rows = []
    for _ in range(samples):
        k = rng.choices(range(w.m), weights=w.count_F)[0]
        pt = None
        for i, f in enumerate(w.factors):
            pool = f.E if i == k else f.G
            choice = pool[rng.randrange(len(pool))]
            pt = choice if pt is None else pt + choice
        offset = w.eps_prime * Fraction(rng.randrange(-denom + 1, denom), denom)
        x = pt + offset
        sup = max(convolve_indicator(seq[i], w, x) for i in w.indices)
        ok = sup > w.delta
        hits += ok
        if len(rows) < 20:
            rows.append({"factor": k, "sup": fraction_str(sup), "ok": ok})
    return [Check(
        name="sampled.sup_on_B",
        claim="sup_k S 1_A > delta at sampled points of B",
        computed={"hits": hits, "samples": samples, "rows": rows},
        passed=hits == samples, method="sampled", sample_count=samples)]


def verify_witness(w: SweepOutWitness, seq: MeasureSequence,
                   mode: str = "factor-exact",
                   explicit_cap: int = DEFAULT_EXPLICIT_CAP,
                   samples: int = 100, seed: int = 0) -> VerificationReport:
    """Re-derive every claimed inequality of a witness.

    factor-exact re-checks the per-factor inequalities, separation chain,
    thickening radius and counts (sufficient by the factored reduction).
    explicit-brute-force additionally enumerates the sumsets, builds A
    and B as concrete IntervalSets and establishes the convolution bound
    on every component of B exactly; that enumeration presupposes the
    disjoint thickening, so it runs only when thickening_radius passed.
    sampled draws random points of B and evaluates the convolution
    directly through factored membership.
    """
    if mode not in ("factor-exact", "explicit-brute-force", "sampled"):
        raise ConfigError(f"unknown verify mode: {mode}")
    if mode == "sampled" and samples < 1:
        raise ConfigError(f"sampled verification needs samples >= 1, got {samples}")
    checks = _factor_checks(w, seq)
    if mode == "explicit-brute-force":
        if next(c.passed for c in checks if c.name == "thickening_radius"):
            checks += _explicit_checks(w, seq, cap=explicit_cap)
    elif mode == "sampled":
        checks += _sampled_checks(w, seq, samples=samples, seed=seed)
    return VerificationReport(mode=mode, checks=checks)


# ---------------------------------------------------------------------------
# trimming and the oscillation trace
# ---------------------------------------------------------------------------

def trim_witness(w: SweepOutWitness, seq: MeasureSequence,
                 max_points: int = 4) -> SweepOutWitness:
    """Shrink factor sets to oracle scale and re-certify everything.

    Per factor one point of E is kept together with a minimal mass cover
    of its translates inside G, so the convolution inequality survives
    with the trimmed G. Subsets only improve gaps and maxima, but the
    separation chain, thickening radius and counts are recomputed and
    re-certified from scratch.
    """
    new_factors = []
    for idx, f in zip(w.indices, w.factors):
        mu = seq[idx]
        threshold = (1 - 3 * f.epsilon) * mu.total_mass
        gset = PointSet(f.G)
        chosen = None
        for x in f.E:
            translates = []
            for a, mass in zip(mu.atoms, mu.masses):
                cand = x + a
                if cand in gset:
                    translates.append((mass, cand))
            # by mass, heaviest first, ties by point: two stable passes
            translates = sort_points(translates, key=lambda t: t[1])
            translates.sort(key=lambda t: -t[0])
            acc = Fraction(0)
            cover = []
            for mass, pt in translates:
                acc += mass
                cover.append(pt)
                if acc > threshold:
                    break
            if acc > threshold and len(cover) <= max_points:
                chosen = (x, cover)
                break
        if chosen is None:
            raise VerificationFailed(
                f"cannot trim factor at measure {idx} to {max_points} points")
        x, cover = chosen
        trimmed = EGPair(mu_index=f.mu_index, epsilon=f.epsilon, lam=f.lam,
                         m=f.m, E=(x,), G=tuple(sort_points(cover)))
        cert = trimmed.certify(mu)
        if not cert["ok"]:
            raise VerificationFailed(f"trimmed pair failed certification: {cert}")
        new_factors.append(trimmed)
    return _assemble(w.Delta, w.delta, w.epsilon, w.indices, new_factors)


@dataclass
class WitnessTrace:
    Delta: Fraction
    delta: Fraction
    indices: list[int]
    point_ids: list[str]
    rows: list[tuple[int, int, Fraction, Fraction, Fraction]]
    warnings: list[str]

    def csv_rows(self):
        yield ("n", "point_id", "value", "running_max", "running_min")
        for n, pid, v, rmax, rmin in self.rows:
            yield (n, pid, repr(float(v)), repr(float(rmax)), repr(float(rmin)))

    def to_json(self):
        return {
            "Delta": fraction_str(self.Delta),
            "delta": fraction_str(self.delta),
            "indices": self.indices,
            "point_ids": self.point_ids,
            "warnings": self.warnings,
            "rows": [
                {"n": n, "point_id": pid, "value": fraction_str(v),
                 "running_max": fraction_str(rmax), "running_min": fraction_str(rmin)}
                for n, pid, v, rmax, rmin in self.rows
            ],
        }


def oscillation_trace(seq: MeasureSequence, schedule: Sequence[tuple[Fraction, Fraction]],
                      trim_points: int = 4, max_sample_points: int = 24,
                      m_cap: int = 64) -> list[WitnessTrace]:
    """Empirical oscillation along the sequence on built witness sets.

    For each schedule entry a witness is built and trimmed to explicit
    scale; the convolution of 1_A is then evaluated exactly at the
    component centers of B for every measure of the sequence, giving
    per-point running max and min. The values rise above delta at the
    witness indices and fall back to 0 once the measures concentrate,
    provided the sequence extends beyond the last witness index.
    """
    if not schedule:
        raise ConfigError("empty schedule")
    if max_sample_points < 1:
        raise ConfigError(f"max_sample_points must be at least 1, got {max_sample_points}")
    traces = []
    for Delta, delta in schedule:
        w = trim_witness(build_witness(seq, Delta, delta, m_cap=m_cap), seq,
                         max_points=trim_points)
        g_pts = w.explicit_G()
        e_pairs = w.explicit_E()
        A = w.thickened(g_pts)
        centers = sort_points(p for p, _ in e_pairs)[:max_sample_points]
        warnings = []
        if max(w.indices) >= len(seq) - 1:
            warnings.append(
                "no measures beyond the last witness index; decay tail truncated")
        rows = []
        run_max = [None] * len(centers)
        run_min = [None] * len(centers)
        for n, mu in enumerate(seq):
            for pid, c in enumerate(centers):
                v = convolve_indicator(mu, A, c)
                run_max[pid] = v if run_max[pid] is None else max(run_max[pid], v)
                run_min[pid] = v if run_min[pid] is None else min(run_min[pid], v)
                rows.append((n, pid, v, run_max[pid], run_min[pid]))
        traces.append(WitnessTrace(
            Delta=parse_fraction(Delta), delta=parse_fraction(delta),
            indices=list(w.indices),
            point_ids=[str(i) for i in range(len(centers))],
            rows=rows, warnings=warnings))
    return traces
