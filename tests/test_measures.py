import random
from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepout.exactreal import (GeneratorBasis, IntervalSet, PointSet, compare,
                               floor_point)
from sweepout.measures import (DiscreteMeasure, MeasureSequence,
                               chebyshev_check, check_condition_one,
                               convolve_indicator, min_on_interval,
                               step_profile, to_torus)
from tests.conftest import (geometric_sequence, raises_config_error,
                            raises_plain_value_error)


def rational_measure(basis, pairs):
    atoms = [basis.rational(a) for a, _ in pairs]
    masses = [m for _, m in pairs]
    return DiscreteMeasure(atoms, masses)


def interval(basis, a, b):
    return IntervalSet.single(basis, basis.rational(a), basis.rational(b))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_measure_validation(rat_basis):
    with pytest.raises(ValueError):
        rational_measure(rat_basis, [(F(0), F(1))])  # atom at 0
    with pytest.raises(ValueError):
        rational_measure(rat_basis, [(F(1, 2), F(0))])  # zero mass
    with pytest.raises(ValueError):
        rational_measure(rat_basis, [(F(3, 2), F(1))])  # outside (0,1)
    mu = rational_measure(rat_basis, [(F(1, 4), F(1, 3)), (F(1, 4), F(1, 6))])
    assert len(mu) == 1 and mu.masses == (F(1, 2),)
    assert mu.total_mass == F(1, 2)


def test_measure_json_roundtrip(mu_pair, surd_basis):
    blob = mu_pair.to_json()
    assert blob["masses"] == ["1/2", "1/2"]
    back = DiscreteMeasure.from_json(surd_basis, blob)
    assert back.atoms == mu_pair.atoms and back.masses == mu_pair.masses


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_examples(rat_basis, surd_basis, mu_pair):
    mu = rational_measure(rat_basis, [(F(1, 10), F(3, 10)), (F(2, 10), F(7, 10))])
    A = interval(rat_basis, F(1, 4), F(35, 100))
    assert convolve_indicator(mu, A, rat_basis.rational(F(1, 10))) == F(7, 10)
    full = interval(rat_basis, 0, 1)
    assert convolve_indicator(mu, full, rat_basis.rational(0)) == mu.total_mass
    B = interval(surd_basis, F(2, 5), F(1, 2))
    assert convolve_indicator(mu_pair, B, surd_basis.rational(0)) == F(1, 2)


def test_convolve_finite_target(rat_basis):
    mu = rational_measure(rat_basis, [(F(1, 4), F(1))])
    target = PointSet([rat_basis.rational(F(3, 4))])
    assert convolve_indicator(mu, target, rat_basis.rational(F(1, 2))) == 1
    assert convolve_indicator(mu, [rat_basis.rational(F(3, 4))],
                              rat_basis.rational(F(1, 2))) == 1
    # wrap around the circle
    assert convolve_indicator(mu, target, rat_basis.rational(F(3, 2))) == 1


small_rat = st.fractions(min_value=F(1, 50), max_value=F(49, 50),
                         max_denominator=50)


@given(st.lists(st.tuples(small_rat, st.fractions(min_value=F(1, 20),
                                                  max_value=2, max_denominator=20)),
                min_size=1, max_size=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=40),
       small_rat, small_rat)
@settings(max_examples=60, deadline=None)
def test_convolve_bounds_and_covariance(pairs, x, a, b):
    basis = GeneratorBasis.rationals()
    mu = rational_measure(basis, pairs)
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    A = interval(basis, lo, hi)
    xp = basis.rational(x)
    v = convolve_indicator(mu, A, xp)
    assert 0 <= v <= mu.total_mass
    # translation covariance
    y = F(3, 7)
    assert convolve_indicator(mu, A.translate(y), xp + y) == v
    # monotonicity against a superset
    B = interval(basis, lo - F(1, 50), hi + F(1, 50))
    assert convolve_indicator(mu, B, xp) >= v


# ---------------------------------------------------------------------------
# torus canonicalization and the overlay
# ---------------------------------------------------------------------------

def test_to_torus_splitting(rat_basis):
    A = interval(rat_basis, F(-1, 4), F(1, 4))
    t = to_torus(A)
    assert t.measure() == F(1, 2)
    assert len(t) == 2
    assert to_torus(A.translate(rat_basis.rational(F(1, 2)))).measure() == F(1, 2)


def test_step_profile_matches_pointwise(rat_basis):
    rng = random.Random(5)
    for _ in range(25):
        pairs = [(F(rng.randint(1, 99), 100), F(rng.randint(1, 10), 10))
                 for _ in range(rng.randint(1, 3))]
        mu = rational_measure(rat_basis, pairs)
        a = F(rng.randint(0, 80), 100)
        b = a + F(rng.randint(1, 19), 100)
        A = interval(rat_basis, a, b)
        prof = step_profile(mu, A)
        # piece values agree with direct evaluation at piece midpoints
        for lo, hi, v in prof.pieces:
            mid = rat_basis.rational(
                (lo.rational_value() + hi.rational_value()) / 2)
            assert prof.point_value(mid) == v
        # integral equals |mu| |A|
        assert prof.integral() == A.measure() * mu.total_mass


def test_mass_identity_randomized(rat_basis):
    rng = random.Random(9)
    for _ in range(50):
        pairs = [(F(rng.randint(1, 199), 200), F(rng.randint(1, 8), 8))
                 for _ in range(rng.randint(1, 4))]
        mu = rational_measure(rat_basis, pairs)
        parts = []
        for _ in range(rng.randint(1, 3)):
            a = F(rng.randint(-100, 80), 100)
            parts.append((a, a + F(rng.randint(1, 20), 100)))
        G = IntervalSet.canonicalize(
            rat_basis, [(rat_basis.rational(a), rat_basis.rational(b))
                        for a, b in parts])
        expected = to_torus(G).measure() * mu.total_mass
        assert step_profile(mu, G).integral() == expected


def _reference_step_profile(mu, A):
    """(breakpoint keys, pieces as (lo key, hi key, value)) of the overlay
    built the general way: every translate A_t - a reduced mod 1 piece by
    piece through floor_point, the masses summed as Fractions. The
    reference that step_profile's one wrap per atom reproduces."""
    basis = mu.basis
    zero, one = basis.rational(0), basis.rational(1)
    deltas, points = {}, {}

    def add(pt, dm):
        deltas[pt.key] = deltas.get(pt.key, F(0)) + dm
        points.setdefault(pt.key, pt)

    add(zero, F(0))
    add(one, F(0))
    A_t = to_torus(A)
    for a, m in zip(mu.atoms, mu.masses):
        for lo, hi in A_t.translate(-a):
            assert compare(hi - lo, one) < 0
            shift = -floor_point(lo)
            lo, hi = lo + shift, hi + shift
            parts = [(lo, hi)] if compare(hi, one) <= 0 else [(lo, one), (zero, hi - 1)]
            for plo, phi in parts:
                add(plo, m)
                add(phi, -m)
    bps = sorted(points.values(), key=cmp_to_key(compare))
    pieces, running = [], F(0)
    for b, nxt in zip(bps, bps[1:]):
        running += deltas[b.key]
        pieces.append((b.key, nxt.key, running))
    return [b.key for b in bps], pieces


def _wrap_case(basis, rng):
    """A measure and a set whose torus image has components that end at,
    start at or straddle an atom, start at 0, end at 1 and abut, with
    atoms near 0 and near 1; the set sometimes crosses an integer and sits
    away from [0, 1)."""
    def jitter(scale):
        return [F(rng.randint(-3, 3), scale) for _ in range(basis.dim - 1)]

    atoms = [basis.point([F(rng.randint(1, 59), 60)] + jitter(997))
             for _ in range(rng.randint(1, 3))]
    atoms.append(basis.point([F(1, 1000)] + jitter(10**6)))
    atoms.append(basis.point([F(999, 1000)] + jitter(10**6)))
    mu = DiscreteMeasure(atoms, [F(rng.randint(1, 5), rng.randint(1, 7)) for _ in atoms])
    # component ends among 0, 1, some atoms and random points; consecutive
    # chosen gaps (e_i, e_i+1) abut, and atoms between ends are straddled
    pool = [basis.rational(0), basis.rational(1)] + rng.sample(atoms, rng.randint(0, len(atoms)))
    pool += [basis.point([F(rng.randint(1, 59), 60)] + jitter(997))
             for _ in range(rng.randint(1, 4))]
    ends = list({p.key: p for p in sorted(pool, key=cmp_to_key(compare))}.values())
    comps = [(lo, hi) for lo, hi in zip(ends, ends[1:]) if rng.random() < 0.6]
    comps = comps or [(ends[0], ends[1])]
    if (len(comps) > 2 and comps[0][0].is_zero() and comps[-1][1] == 1
            and rng.random() < 0.5):
        # one component across 0 on the line
        comps = [(comps[-1][0] - 1, comps[0][1])] + comps[1:-1]
    return mu, IntervalSet.canonicalize(basis, comps).translate(rng.randint(-2, 1))


def _check_overlay_against_reference(basis, seed):
    rng = random.Random(seed)
    for _ in range(40):
        mu, A = _wrap_case(basis, rng)
        prof = step_profile(mu, A)
        bps, pieces = _reference_step_profile(mu, A)
        assert [b.key for b in prof.breakpoints] == bps
        assert [(lo.key, hi.key, v) for lo, hi, v in prof.pieces] == pieces


def test_step_profile_matches_reference_overlay(rat_basis, surd_basis):
    _check_overlay_against_reference(rat_basis, 31)
    _check_overlay_against_reference(surd_basis, 32)


def test_step_profile_matches_reference_overlay_with_filter_off(rat_basis, surd_basis,
                                                                filter_off):
    filter_off()
    test_step_profile_matches_reference_overlay(rat_basis, surd_basis)


def test_min_on_interval(rat_basis):
    mu = rational_measure(rat_basis, [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2))])
    prof = step_profile(mu, interval(rat_basis, F(1, 4), F(7, 8)))
    # at x in (0, 1/8): x+1/4 and x+1/2 both inside -> S = 1
    assert min_on_interval(prof, rat_basis.rational(F(1, 100)),
                           rat_basis.rational(F(1, 10))) == 1
    # the far atom drops out beyond x = 3/8
    v = min_on_interval(prof, rat_basis.rational(F(1, 100)),
                        rat_basis.rational(F(3, 5)))
    assert v == F(1, 2)
    # and both atoms drop once x clears 5/8
    v = min_on_interval(prof, rat_basis.rational(F(1, 100)),
                        rat_basis.rational(F(7, 10)))
    assert v == 0


def test_min_on_interval_sees_seam_points(rat_basis):
    # x + 1/2 = 1 at x = 1/2, a seam point interior to A = (-1/4, 1/4):
    # S 1_A is 1 on all of (2/5, 3/5), the breakpoint 1/2 included
    mu = rational_measure(rat_basis, [(F(1, 2), F(1))])
    A = interval(rat_basis, F(-1, 4), F(1, 4))
    half = rat_basis.rational(F(1, 2))
    assert convolve_indicator(mu, A, half) == 1
    prof = step_profile(mu, A)
    assert half.key in {b.key for b in prof.breakpoints}
    assert prof.point_value(half) == 1
    assert min_on_interval(prof, rat_basis.rational(F(2, 5)),
                           rat_basis.rational(F(3, 5))) == 1


def _scan_min(mu, A, lo, hi, prof):
    """The minimum of S 1_A over (lo, hi) by a full scan of the profile's
    pieces: the reference that min_on_interval's bisection reproduces."""
    basis = mu.basis
    vals = []
    k_lo, k_hi = floor_point(lo), floor_point(hi)
    for k in range(k_lo, k_hi + 1):
        a = lo if k == k_lo else basis.rational(k)
        b = hi if k == k_hi else basis.rational(k + 1)
        if compare(a, b) >= 0:
            continue
        if k != k_lo:
            vals.append(prof.point_value(a))
        a_red, b_red = a - k, b - k
        for plo, phi, v in prof.pieces:
            if compare(phi, a_red) <= 0 or compare(plo, b_red) >= 0:
                continue
            vals.append(v)
            if compare(plo, a_red) > 0:
                vals.append(prof.point_value(plo))
    return min(vals)


def _random_point(basis, rng, lo, hi):
    """A random rational in [lo, hi] on a grid of 1/60, moved by a small
    surd part when the basis has generators."""
    q = F(rng.randint(int(lo * 60), int(hi * 60)), 60)
    return basis.point([q] + [F(rng.randint(-3, 3), 97) for _ in range(basis.dim - 1)])


def _probe_intervals(prof, rng):
    """Open intervals that cross integers, sit at negative k, end exactly
    on breakpoints or lie inside one piece, and some at random; and one
    around each breakpoint, which holds it alone."""
    basis = prof.mu.basis
    bps, pieces = prof.breakpoints, prof.pieces
    out = [(bps[i - 1] - 1, bps[i + 1] - 1) for i in range(1, len(bps) - 1)]
    for _ in range(3):
        lo = _random_point(basis, rng, F(-2), F(1))
        out.append((lo, lo + F(rng.randint(1, 150), 60)))
        i = rng.randrange(len(bps) - 1)
        j = rng.randrange(i + 1, len(bps))
        k = rng.randint(-2, 1)
        out.append((bps[i] + k, bps[j] + k))
        out.append((bps[i] + k, bps[j] + k + rng.randint(1, 2)))
        plo, phi, _ = pieces[rng.randrange(len(pieces))]
        out.append((plo + (phi - plo) * F(1, 3) + k, plo + (phi - plo) * F(2, 3) + k))
        out.append((plo + k, phi + k))
    return out


def _check_min_against_scan(basis, seed):
    rng = random.Random(seed)
    for _ in range(6):
        atoms = [_random_point(basis, rng, F(1, 10), F(9, 10))
                 for _ in range(rng.randint(1, 4))]
        mu = DiscreteMeasure(atoms, [F(rng.randint(1, 5), 6) for _ in atoms])
        parts = []
        for _ in range(rng.randint(1, 3)):
            # about half the components abut the one before: open sets keep
            # the shared end out, so S 1_A dips at its translates
            lo = parts[-1][1] if parts and rng.random() < 0.5 else \
                _random_point(basis, rng, F(-1), F(1))
            parts.append((lo, lo + F(rng.randint(1, 15), 60)))
        A = IntervalSet.canonicalize(basis, parts)
        prof = step_profile(mu, A)
        for lo, hi in _probe_intervals(prof, rng):
            assert min_on_interval(prof, lo, hi) == _scan_min(mu, A, lo, hi, prof)


def test_min_on_interval_matches_full_scan(rat_basis, surd_basis):
    _check_min_against_scan(rat_basis, 22)
    _check_min_against_scan(surd_basis, 23)


def test_min_on_interval_matches_full_scan_with_filter_off(rat_basis, surd_basis,
                                                           filter_off):
    filter_off()
    test_min_on_interval_matches_full_scan(rat_basis, surd_basis)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def test_condition_one_geometric(rat_basis):
    seq = MeasureSequence([
        rational_measure(rat_basis, [(F(1, 4**n), F(1))]) for n in range(1, 7)])
    rep = check_condition_one(seq, [F(1, 10)])
    row = rep.rows[0]
    assert row.tail_index == 2
    assert row.values[1:] == [F(1)] * 5
    assert all(r.converged for r in rep.rows)


def test_condition_one_failure_flagged(rat_basis):
    seq = MeasureSequence([
        DiscreteMeasure([rat_basis.rational(F(1, 4**n)), rat_basis.rational(F(1, 2))],
                        [F(1, 2), F(1, 2)]) for n in range(1, 6)])
    rep = check_condition_one(seq, [F(1, 10)])
    row = rep.rows[0]
    assert row.tail_index is None and not row.converged
    assert all(v == F(1, 2) for v in row.values[1:])


def test_condition_one_surd_tail(surd_basis):
    seq = geometric_sequence(surd_basis, 6)
    rep = check_condition_one(seq, [F(1, 100)])
    assert rep.rows[0].tail_index == 4
    assert rep.masses == [F(1)] * 6
    assert all(rep.mass_ok)


def test_condition_one_wraparound_ball(rat_basis):
    # an atom near 1 is near 0 on the circle
    mu = rational_measure(rat_basis, [(F(99, 100), F(1))])
    assert mu.mass_near_zero(F(1, 10)) == 1
    assert mu.mass_near_zero(F(1, 200)) == 0


def test_chebyshev_examples(rat_basis):
    mu = rational_measure(rat_basis, [(F(1, 4), F(1))])
    G = interval(rat_basis, 0, F(1, 10))
    rep = chebyshev_check(mu, G, F(1, 2))
    assert rep.identity_ok and rep.bound_ok
    assert rep.level_measure == F(1, 10)
    assert rep.level_bound == F(1, 5)
    rep2 = chebyshev_check(mu, G, F(2))
    assert rep2.identity_ok and rep2.bound_ok
    assert rep2.level_measure.is_zero()


def test_chebyshev_two_atom_overlay(rat_basis):
    # translates (0.25,0.35) and (0.05,0.15) are disjoint, so the level
    # set above 3/4 is empty; the exact overlay decides this
    mu = rational_measure(rat_basis, [(F(1, 10), F(1, 2)), (F(3, 10), F(1, 2))])
    G = interval(rat_basis, F(35, 100), F(45, 100))
    rep = chebyshev_check(mu, G, F(3, 4))
    assert rep.identity_ok and rep.bound_ok
    assert rep.level_measure.is_zero()
    prof = step_profile(mu, G)
    half_level = prof.level_set(F(1, 4))
    assert half_level.measure() == F(1, 5)


def test_chebyshev_randomized_bound(rat_basis):
    rng = random.Random(17)
    for _ in range(50):
        pairs = [(F(rng.randint(1, 199), 200), F(rng.randint(1, 6), 6))
                 for _ in range(rng.randint(1, 3))]
        mu = rational_measure(rat_basis, pairs)
        a = F(rng.randint(0, 170), 200)
        G = interval(rat_basis, a, a + F(rng.randint(1, 30), 200))
        eps = F(rng.randint(1, 12), 12)
        rep = chebyshev_check(mu, G, eps)
        assert rep.identity_ok
        assert rep.bound_ok


def test_bad_input_raises_config_error(rat_basis):
    half = rat_basis.rational(F(1, 2))
    raises_config_error(DiscreteMeasure, [half], [])
    raises_config_error(DiscreteMeasure, [half], [F(0)])
    raises_config_error(DiscreteMeasure, [rat_basis.rational(F(3, 2))], [F(1)])
    raises_config_error(MeasureSequence, [])
    raises_config_error(MeasureSequence.from_json, rat_basis, [])
    lazy = MeasureSequence.from_json(rat_basis, [{"atoms": ["3/2"], "masses": ["1"]}])
    raises_config_error(lazy.__getitem__, 0)
    mu = DiscreteMeasure([half], [F(1)])
    raises_config_error(check_condition_one, MeasureSequence([mu]), [F(0)])
    G = IntervalSet.single(rat_basis, 0, F(1, 4))
    raises_config_error(chebyshev_check, mu, G, F(0))
    # checks on values that the program computed stay plain ValueErrors
    raises_plain_value_error(min_on_interval, step_profile(mu, G), half, half)
    raises_plain_value_error(to_torus, IntervalSet.single(rat_basis, 0, 2))
