import bisect
import math
import random
from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepout import exactreal
from sweepout.errors import PrecisionExhausted
from sweepout.exactreal import (Generator, GeneratorBasis, IntervalSet, Point,
                                PointSet, bisect_points, compare,
                                decimal_enclosure_str, extent, floor_point, min_gap,
                                locate, parse_fraction, scaled_approx,
                                sort_points, torus_locate)
from tests.conftest import raises_config_error, raises_plain_value_error

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)


# ---------------------------------------------------------------------------
# generators and bases
# ---------------------------------------------------------------------------

def test_generator_parsing():
    g = Generator.parse("sqrt:2")
    lo, hi = g.enclosure(64)
    assert lo < F(math.isqrt(2 * 4**64), 2**64) + F(1, 2**60)
    assert hi - lo == F(1, 2**64)
    assert Generator.parse("rat:3/7").value == F(3, 7)
    d = Generator.parse("dec:0.433@40")
    assert d.value == F(433, 1000) and d.bits == 40


@pytest.mark.parametrize("bad", ["sqrt:4", "sqrt:12", "sqrt:1", "rat:-1",
                                 "dec:0.5", "nope:3"])
def test_generator_rejects(bad):
    with pytest.raises(ValueError):
        Generator.parse(bad)


@pytest.mark.parametrize("spec", ["rat:3", "rat:3/7", "sqrt:2", "dec:0.7071@12",
                                  "dec:7071/10000@12", "dec:1e-3@30"])
def test_generator_spec_roundtrip(spec):
    g = Generator.parse(spec)
    back = Generator.parse(g.spec_string())
    assert (back.kind, back.value, back.radicand, back.bits) == \
        (g.kind, g.value, g.radicand, g.bits)
    basis = GeneratorBasis.from_specs(
        [spec] if spec.startswith("rat:") else ["rat:3", spec])
    assert GeneratorBasis.from_specs(basis.spec_strings()) == basis


def test_basis_independence_certification():
    assert GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"]).independence_certified
    assert not GeneratorBasis.from_specs(["dec:0.7071@60"]).independence_certified
    assert GeneratorBasis.from_specs(["dec:0.7071@60"],
                                     assert_independent=True).independence_certified
    # 2 * 1000003^2 and 1000003^2 escape the bounded squarefree trial
    # division; sqrt(2 * 1000003^2) = 1000003 * sqrt(2)
    for specs in (["sqrt:2", "sqrt:2"], ["sqrt:2", f"sqrt:{2 * 1000003**2}"],
                  [f"sqrt:{1000003**2}"]):
        with pytest.raises(ValueError):
            GeneratorBasis.from_specs(specs)
    assert GeneratorBasis.from_specs([f"sqrt:{2 * 1000003**2}"]).independence_certified


# ---------------------------------------------------------------------------
# points and comparison
# ---------------------------------------------------------------------------

def test_compare_examples(surd_basis, root2_over8, root3_over4):
    half_g1 = surd_basis.point(["0", "1/2", "0"])
    assert compare(half_g1, surd_basis.point(["0", "1/2", "0"])) == 0
    assert compare(root2_over8, root3_over4) == -1
    third = surd_basis.rational(F(1, 3))
    assert compare(third, surd_basis.point(["1/3", "0", "0"])) == 0


def test_point_arithmetic(surd_basis, root2_over8):
    p = root2_over8 * 8
    q = surd_basis.point(["0", "1", "0"])
    assert p == q
    assert (p - q).is_zero()
    assert float(p + 1) == pytest.approx(1 + math.sqrt(2))
    assert abs(-p) == p
    assert (p / 2) * 2 == p


def test_certified_sqrt_digits(surd_basis, root2_over8):
    # independent oracle: integer square root at 140 decimal digits
    digits = 40
    scaled = math.isqrt(2 * 10 ** (2 * digits + 2))
    expected = F(scaled, 10 ** (digits + 1)) / 8
    lo, hi = root2_over8.enclosure(200)
    assert lo <= expected <= hi or abs(expected - lo) < F(1, 10**digits)
    enc = decimal_enclosure_str(root2_over8, digits=20)
    assert enc["lo"].startswith("0.17677669529663688")
    assert enc["hi"].startswith("0.17677669529663688")


def test_precision_exhausted_for_coarse_decimal():
    basis = GeneratorBasis.from_specs(["dec:0.5@20"], assert_independent=True,
                                      precision_cap=256)
    g = basis.point(["0", "1"])
    near = basis.rational(F(1, 2) + F(1, 2**40))
    with pytest.raises(PrecisionExhausted):
        compare(g, near)
    # identical coefficient vectors still compare equal exactly
    assert compare(g, basis.point(["0", "1"])) == 0


def test_escalate_schedule():
    # the one precision-escalation loop: the start precision, each
    # doubling clamped at the cap, then PrecisionExhausted
    seen = []

    def never(bits):
        seen.append(bits)

    with pytest.raises(PrecisionExhausted, match="undecided at 1024 bits: x"):
        exactreal.escalate(never, 96, 1024, "undecided at {cap} bits: {}", "x")
    assert seen == [96, 192, 384, 768, 1024]
    # any result but None decides, False and 0 included
    seen.clear()
    assert exactreal.escalate(lambda b: seen.append(b) or (False if b > 100 else None),
                              64, 1024, "") is False
    assert seen == [64, 128]
    assert exactreal.escalate(lambda b: 0, 2048, 1024, "") == 0


def test_floor_and_mod1(surd_basis):
    r2 = surd_basis.point(["0", "1", "0"])
    assert floor_point(r2) == 1
    assert floor_point(-r2) == -2
    assert floor_point(surd_basis.rational(F(7, 2))) == 3
    assert floor_point(surd_basis.rational(-3)) == -3


def _floor_outcome(fn, x):
    try:
        return fn(x)
    except PrecisionExhausted:
        return "undecided"


def test_floor_filter_matches_enclosure_path(monkeypatch):
    by_enclosure = exactreal._floor_by_enclosure
    fallbacks = [0]

    def counted(x):
        fallbacks[0] += 1
        return by_enclosure(x)

    monkeypatch.setattr(exactreal, "_floor_by_enclosure", counted)
    rng = random.Random(41)
    surds = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3", "sqrt:5"])
    points = []
    for _ in range(300):
        points.append(surds.point([F(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                                   for _ in range(surds.dim)]))
    # within 10^-25 of an integer, on either side, of either sign
    r2 = surds.point(["0", "1", "0", "0"])
    q = F(math.isqrt(2 * 10**52), 10**26)  # sqrt 2 - 10^-26 < q < sqrt 2
    for k in (-10**9, -7, -1, 0, 1, 3, 10**12):
        points.append(r2 - q + k)
        points.append(q - r2 + k)
    # a coarse decimal generator (declared to 2^-12): random values, and
    # values a*g + c placed j * 10^-5 from an integer, which neither path
    # can decide for small j
    coarse = GeneratorBasis.from_specs(["dec:0.7071@12"], assert_independent=True)
    for _ in range(100):
        a = F(rng.randint(-40, 40), rng.randint(1, 8))
        points.append(coarse.point([F(rng.randint(-400, 400), 8), a]))
    for _ in range(100):
        a = rng.choice([-3, -1, 1, 2, 5])
        c = rng.randint(-9, 9) - a * F("0.7071") + F(rng.randint(-60, 60), 10**5)
        points.append(coarse.point([c, a]))
    decided = 0
    outcomes = set()
    for x in points:
        before = fallbacks[0]
        got = _floor_outcome(floor_point, x)
        decided += fallbacks[0] == before
        assert got == _floor_outcome(by_enclosure, x), x
        outcomes.add(type(got))
    # both paths ran, and some floors are undecided in both
    assert 0 < decided < len(points)
    assert outcomes == {int, str}


@given(st.lists(rationals, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_compare_total_order(coeff_list):
    basis = GeneratorBasis.rationals()
    pts = [basis.rational(q) for q in coeff_list]
    s = sorted(pts)
    for a, b in zip(s, s[1:]):
        assert compare(a, b) <= 0
        assert (a.rational_value() <= b.rational_value())


def test_compare_fast_path(surd_basis, monkeypatch):
    r2 = surd_basis.point(["0", "1", "0"])
    r3 = surd_basis.point(["0", "0", "1"])
    # equal coefficients, different cached approximations
    fresh = surd_basis.point(["1/3", "1", "0"])
    made = (r2 + r3 + F(1, 3)) - r3
    fresh.approx()
    assert made.coeffs == fresh.coeffs and made._approx != fresh._approx
    assert compare(made, fresh) == 0 and compare(fresh, made) == 0
    # with one approximation missing, equality is decided without one
    bare = surd_basis.point(["1/3", "1", "0"])
    assert compare(made, bare) == 0 and bare._approx is None
    # different bases raise, however far apart the midpoints are
    other = GeneratorBasis.from_specs(["sqrt:5"])
    far = other.rational(100)
    far.approx()
    r2.approx()
    with pytest.raises(ValueError):
        compare(r2, far)
    with pytest.raises(ValueError):
        sort_points([r2, far])
    with pytest.raises(ValueError):
        bisect_points([r2], far)
    # a pair 10^-30 apart is decided by sign()
    q = F(math.isqrt(2 * 10**60), 10**30)  # sqrt 2 - 10^-30 < q < sqrt 2
    near = surd_basis.rational(q)
    signs = [0]
    sign = Point.sign

    def counted(self):
        signs[0] += 1
        return sign(self)

    monkeypatch.setattr(Point, "sign", counted)
    assert compare(r2, near) == 1 and compare(near, r2) == -1
    assert signs[0] == 2


def test_point_hash_matches_equality():
    for basis in (GeneratorBasis.rationals(),
                  GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"]),
                  GeneratorBasis.from_specs(["rat:1/2", "sqrt:2"])):
        for q in (0, 1, -3, F(1, 2), F(-7, 9)):
            p = basis.rational(q)
            assert p == q and hash(p) == hash(q)
            assert {q: "x"}.get(p) == "x" and p in {q}
            assert hash(basis.point(list(p.coeffs))) == hash(p)
    basis = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])
    r2 = basis.point(["1", "1", "0"])
    assert hash(r2) == hash(basis.point(["1", "1", "0"]))
    assert {r2: "y"}.get((r2 + 1) - 1) == "y"


# ---------------------------------------------------------------------------
# integer-vector Points against a Fraction-tuple reference
# ---------------------------------------------------------------------------

# The reference keeps each Point as its tuple of Fraction coefficients and
# evaluates it from Generator.enclosure directly, as Points did before they
# became reduced integer vectors over one denominator.

def _ref_enclosure(basis, coeffs, bits):
    lo = hi = F(0)
    for c, g in zip(coeffs, basis.gens):
        gl, gh = g.enclosure(bits)
        lo += c * (gl if c > 0 else gh)
        hi += c * (gh if c > 0 else gl)
    return lo, hi


def _ref_floor(basis, coeffs):
    if not any(coeffs[1:]):
        return math.floor(coeffs[0] * basis.gens[0].value)
    bits = 64
    while True:
        lo, hi = _ref_enclosure(basis, coeffs, bits)
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        if bits >= basis.precision_cap:
            return "undecided"
        bits = min(2 * bits, basis.precision_cap)


def _assert_reduced(p):
    assert type(p.den) is int and all(type(n) is int for n in p.nums)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert any(p.nums) or p.den == 1


def _assert_approx_covers(p, coeffs):
    # the cached (m, r) must contain the 256-bit enclosure of the value
    m, r = p.approx()
    lo, hi = _ref_enclosure(p.basis, coeffs, 256)
    assert F(m) - F(r) <= lo and hi <= F(m) + F(r), (coeffs, m, r)


_ORACLE_BASES = (
    GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"]),
    GeneratorBasis.from_specs(["dec:0.7071@12"], assert_independent=True),
    GeneratorBasis.from_specs(["rat:3", "sqrt:5"]),
    GeneratorBasis.from_specs(["rat:3/7", "sqrt:2", "dec:0.433@40"],
                              assert_independent=True),
)


def _arithmetic(a, b, c1, c2, q):
    """(result, reference coefficients) of each operation on a = c1,
    b = c2 and the scalar q."""
    return [(a + b, tuple(x + y for x, y in zip(c1, c2))),
            (a - b, tuple(x - y for x, y in zip(c1, c2))),
            (-a, tuple(-x for x in c1)),
            (a * 3, tuple(x * 3 for x in c1)),
            (a * -2, tuple(x * -2 for x in c1)),
            (a * 0, tuple(F(0) for _ in c1)),
            (a * q, tuple(x * q for x in c1)),
            (a - a, tuple(F(0) for _ in c1))]


def _check_against_oracle(basis, c1, c2, q):
    """Every integer-vector operation on basis.point(c1), basis.point(c2)
    and the scalar q against the Fraction-tuple reference."""
    a, b = basis.point(c1), basis.point(c2)
    pairs = [(a, c1), (b, c2), *_arithmetic(a, b, c1, c2, q),
             (basis.zero(), tuple(F(0) for _ in c1)),
             (basis.rational(q), (q / basis.gens[0].value,) + (F(0),) * (basis.dim - 1)),
             (basis.rational(-7), (-7 / basis.gens[0].value,) + (F(0),) * (basis.dim - 1))]
    for p, coeffs in pairs:
        _assert_reduced(p)
        assert p.coeffs == tuple(coeffs)
        for bits in (64, 96, 200):
            assert p.enclosure(bits) == _ref_enclosure(basis, coeffs, bits)
        try:
            got = floor_point(p)
        except PrecisionExhausted:
            got = "undecided"
        assert got == _ref_floor(basis, coeffs)
    # key equality is coefficient equality, and equal points hash alike
    for p, cp in pairs:
        for s, cs in pairs:
            assert (p.key == s.key) == (cp == cs) == (p == s)
            if p == s:
                assert hash(p) == hash(s)
    # fresh approximations, then ones carried through arithmetic
    for p, coeffs in pairs:
        _assert_approx_covers(basis.point(coeffs), coeffs)
    a.approx(), b.approx()
    for p, coeffs in _arithmetic(a, b, c1, c2, q):
        assert p._approx is not None
        _assert_approx_covers(p, coeffs)


def test_point_ints_match_fraction_oracle():
    rng = random.Random(20261018)
    tiny = F(1, 2**1000)
    big_den = 3**700                       # above 2^1100
    for basis in _ORACLE_BASES:
        assert hash(basis.rational(1)) == hash(1)
        dim = basis.dim
        cases = [
            # values near 2^-1000: subnormal radii
            ((tiny,) + (F(0),) * (dim - 1), (F(0), tiny * 3) + (F(0),) * (dim - 2),
             F(1, 3)),
            # a value below the smallest subnormal: m is 0, r is 5e-324
            ((F(1, big_den),) + (F(0),) * (dim - 1),
             (F(0), F(1, big_den)) + (F(0),) * (dim - 2), F(2, 7)),
            # denominators above 2^1100 on values of order one
            ((F(big_den // 3, big_den),) + (F(0),) * (dim - 1),
             tuple(F(rng.randrange(-big_den, big_den), big_den) for _ in range(dim)),
             F(big_den + 1, big_den)),
            # a rational whose double is inexact: only the midpoint
            # rounding term covers it
            ((F(1, 3),) + (F(0),) * (dim - 1), (F(1, 3),) + (F(0),) * (dim - 1),
             F(-5, 9)),
        ]
        for _ in range(25):
            cases.append((tuple(F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(dim)),
                          tuple(F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(dim)),
                          F(rng.randint(-9, 9), rng.randint(1, 9))))
        for c1, c2, q in cases:
            _check_against_oracle(basis, c1, c2, q)


def test_scaled_approx_covers_its_input_enclosure():
    # every x in [m - r, m + r] times a/b lies in the returned enclosure;
    # with r = 0 only the two rounding terms (of a/b and of the product)
    # cover the result, and each alone is too small for some cases
    rng = random.Random(8)
    for i in range(4000):
        m = rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-1000, 60)
        r = 0.0 if i % 2 else abs(m) * rng.uniform(0, 1e-12)
        a, b = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        qm, qr = scaled_approx((m, r), a, b)
        for x in (F(m) - F(r), F(m) + F(r)):
            assert F(qm) - F(qr) <= x * F(a, b) <= F(qm) + F(qr), (m, r, a, b)
    # Point.__mul__ carries exactly these doubles
    p = GeneratorBasis.from_specs(["sqrt:2"]).point(["1/3", "2/7"])
    apx = p.approx()
    assert (p * F(5, 11))._approx == scaled_approx(apx, 5, 11)


def test_scaled_balls_midpoints_are_scaled_mid():
    # the run formula writes scaled_mid's product out; bit for bit the same
    rng = random.Random(18)
    for _ in range(400):
        apx = (rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-1000, 60), rng.uniform(0, 1e-12))
        a = rng.randint(-10**6, 10**6)
        bs = [rng.randint(1, 10**18) for _ in range(rng.randint(1, 9))]
        assert [m.hex() for m, _ in exactreal.scaled_balls(apx, a, bs)] == [
            exactreal.scaled_mid(apx, a, b).hex() for b in bs]


def test_ratio_in_any_terms_is_the_rational_point():
    # n/d unreduced gives the Point, key and ball, of the reduced fraction,
    # also over a basis whose unit generator is 1/3
    rng = random.Random(19)
    for basis in (GeneratorBasis.rationals(), GeneratorBasis.from_specs(["rat:1/3", "sqrt:5"])):
        for _ in range(300):
            n, d = rng.randint(-10**30, 10**30), rng.randint(1, 10**30)
            g = rng.choice((1, 2, 3, 10**40 + 7))
            got, want = basis.ratio(n * g, d * g), basis.rational(F(n, d))
            assert got.key == want.key and got.rational_value() == F(n, d)
            assert [x.hex() for x in got._approx] == [x.hex() for x in want._approx]


@given(st.sampled_from(_ORACLE_BASES), st.data())
@settings(max_examples=60, deadline=None)
def test_point_ints_match_fraction_oracle_hypothesis(basis, data):
    coeffs = st.lists(rationals, min_size=basis.dim, max_size=basis.dim).map(tuple)
    _check_against_oracle(basis, data.draw(coeffs), data.draw(coeffs),
                          data.draw(rationals))


# ---------------------------------------------------------------------------
# sorting and bisecting Points
# ---------------------------------------------------------------------------

def _cmp_sorted(items, key=None):
    key = key or (lambda p: p)
    return sorted(items, key=cmp_to_key(lambda a, b: compare(key(a), key(b))))


def _count_compares(monkeypatch):
    calls = [0]
    exact = exactreal.compare

    def counted(a, b):
        calls[0] += 1
        return exact(a, b)

    monkeypatch.setattr(exactreal, "compare", counted)
    return calls


def _sort_cases():
    """Seeded lists of Points, each with the property it exercises."""
    rng = random.Random(7)
    surds = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3", "sqrt:5"])
    r2 = surds.point(["0", "1", "0", "0"])
    r3 = surds.point(["0", "0", "1", "0"])
    r2.approx(), r3.approx()  # so that arithmetic on them carries one
    q = F(math.isqrt(2 * 10**60), 10**30)  # sqrt 2 - 10^-30 < q < sqrt 2
    cases = {}
    cases["random surds"] = [
        surds.point([F(rng.randint(-999, 999), rng.randint(1, 99))
                     for _ in range(surds.dim)]) for _ in range(200)]
    # 10^-30 apart, at several offsets
    cases["near ties"] = [p for k in range(-3, 4)
                          for p in (r2 + F(k, 7), surds.rational(q + F(k, 7)),
                                    surds.rational(q + F(k, 7) - F(1, 10**30)))]
    # exact duplicates whose cached midpoints differ: one made by Point
    # arithmetic, one a fresh enclosure
    dups = []
    for k in range(6):
        made = (r2 * F(k + 1, 3) + 10**6) - 10**6
        fresh = surds.point(list(made.coeffs))
        assert made.approx()[0] != fresh.approx()[0]
        dups += [made, fresh, made, surds.point(list(made.coeffs))]
    cases["duplicates"] = dups
    # near ties whose midpoints are in the wrong order: sqrt 2 made by
    # arithmetic, between rationals 10^-30 below and above it
    made = (r2 + 10**6) - 10**6
    assert made.approx()[0] != r2.approx()[0]
    cases["misordered midpoints"] = [surds.rational(q), made,
                                     surds.rational(q + 2 * F(1, 10**30))]
    # a wide enclosure whose midpoint lies above two points it is below,
    # as long chains of arithmetic leave, and its mirror image: a cut must
    # weigh every upper end before it and every lower end after it
    for sign, name in ((1, "wide enclosure"), (-1, "wide enclosure, mirrored")):
        wide = surds.rational(F(-sign, 10**6))
        wide._approx = (sign * 2e-5, 1e-4)
        cases[name] = [surds.rational(0), surds.rational(F(sign, 10**5)), wide]
    # different values with the same double midpoint
    third = F(1, 3)
    cases["colliding midpoints"] = [
        surds.rational(third + F(j, 10**30)) for j in (3, -2, 0, 1, -1, 2)
    ] + [surds.rational(q), r2, surds.rational(q - F(1, 10**40))]
    rats = GeneratorBasis.rationals()
    cases["rationals"] = [rats.rational(F(rng.randint(-50, 50), rng.randint(1, 12)))
                          for _ in range(120)]
    cases["singleton"] = [r2]
    cases["empty"] = []
    for pts in cases.values():
        rng.shuffle(pts)
    return cases


def test_sort_points_matches_cmp_sort(monkeypatch):
    cases = _sort_cases()
    mids = [p.approx()[0] for p in cases["colliding midpoints"]]
    assert len(set(mids)) < len(mids)
    calls = _count_compares(monkeypatch)
    for name, pts in cases.items():
        expected = _cmp_sorted(pts)
        before = calls[0]
        got = sort_points(pts)
        exact_calls = calls[0] - before
        assert [p.coeffs for p in got] == [p.coeffs for p in expected], name
        assert all(a is b for a, b in zip(got, expected)), name
        assert len(got) == len(pts)
        # clusters that the floats cannot separate are sorted exactly
        if name not in ("random surds", "rationals", "singleton", "empty"):
            assert exact_calls > 0, name
    # by key, and with a generator as input
    pairs = [(i, p) for i, p in enumerate(cases["duplicates"])]
    got = sort_points(iter(pairs), key=lambda t: t[1])
    assert got == _cmp_sorted(pairs, key=lambda t: t[1])


def test_certified_clusters_cut_rule():
    # the rule itself: sorted by lower end, a cluster ends wherever the
    # next lower end exceeds every upper end before it by more than 1e-300;
    # done ends the last cluster whose upper ends, and all before them,
    # lie below limit
    rng = random.Random(19)
    for _ in range(400):
        apx = [(rng.choice((rng.uniform(-1, 1), 0.25, 1e-301)),
                rng.choice((0.0, 1e-17, 1e-300, rng.uniform(0, 0.05))))
               for _ in range(rng.randint(0, 30))]
        limit = rng.choice((math.inf, rng.uniform(-1, 1), 1e-300))
        order, runs, done = exactreal.certified_clusters(apx, limit)
        n = len(apx)
        los = [m - 4.0 * r for m, r in apx]
        his = [m + 4.0 * r for m, r in apx]
        assert sorted(order) == list(range(n))
        assert [los[i] for i in order] == sorted(los)
        starts = [k for k in range(n)
                  if k == 0 or los[order[k]] > max(his[i] for i in order[:k]) + 1e-300]
        bounds = starts + [n]
        want_done = max(b for b in bounds if all(his[i] < limit for i in order[:b]))
        assert done == want_done
        assert runs == [[a, b] for a, b in zip(bounds, bounds[1:])
                        if b - a > 1 and b <= done]


def test_certified_clusters_limit_inf_marks_every_position_done():
    # limit inf marks every position done, even one whose upper end m + 4r
    # is inf itself; a finite limit passes no cluster that reaches inf
    apx = [(0.0, math.inf), (1.0, 0.1)]
    assert exactreal.certified_clusters(apx) == ([0, 1], [[0, 2]], 2)
    assert exactreal.certified_clusters(apx, math.inf) == ([0, 1], [[0, 2]], 2)
    assert exactreal.certified_clusters(apx, 5.0) == ([0, 1], [], 0)


def test_cut_limit_passes_clusters_below_every_pair():
    # the limit is the lowest lower end of the pairs less the margin, so
    # every value of a passed cluster lies more than 1e-300 below them all
    rng = random.Random(37)

    def pick():
        return (rng.choice((rng.uniform(-1, 1), 0.25, 1e-301)),
                rng.choice((0.0, 1e-17, 1e-300, rng.uniform(0, 0.05))))

    assert exactreal.cut_limit([]) == math.inf
    for _ in range(300):
        apx = [pick() for _ in range(rng.randint(0, 20))]
        under = [pick() for _ in range(rng.randint(1, 4))]
        limit = exactreal.cut_limit(under)
        assert limit == min(m - 4.0 * r for m, r in under) - 1e-300
        order, _, done = exactreal.certified_clusters(apx, limit)
        for i in order[:done]:
            m, r = apx[i]
            assert all(m + 4.0 * r < um - 4.0 * ur - 1e-300 for um, ur in under)


def test_sort_points_precision_exhausted_on_coarse_basis():
    # dec:0.7071@12 declares g to within 2^-12, so Points whose
    # difference has a g coefficient may be inseparable
    coarse = GeneratorBasis.from_specs(["dec:0.7071@12"], assert_independent=True,
                                       precision_cap=256)
    g_value = F("0.7071")
    rng = random.Random(3)
    outcomes = set()
    for _ in range(60):
        pts = []
        for _ in range(rng.randint(2, 6)):
            # values t + j * 10^-5: near ties between Points with different
            # g coefficients are inseparable, the others are not
            a = rng.choice([-2, -1, 1, 3])
            t = F(rng.randint(-6, 6), 4)
            c = t - a * g_value + F(rng.randint(-9, 9), 10**5)
            pts.append(coarse.point([c, a]))
        by_value = sorted(pts, key=lambda p: p.coeffs[0] + p.coeffs[1] * g_value)
        inseparable = False
        for a, b in zip(by_value, by_value[1:]):
            try:
                compare(a, b)
            except PrecisionExhausted:
                inseparable = True
        try:
            got = sort_points(pts)
        except PrecisionExhausted:
            got = None
        assert (got is None) == inseparable
        if got is not None:
            assert all(a is b for a, b in zip(got, _cmp_sorted(pts)))
        outcomes.add(inseparable)
    assert outcomes == {True, False}


def test_bisect_points_matches_bisect(monkeypatch):
    surds = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3", "sqrt:5"])
    rng = random.Random(11)
    r2 = surds.point(["0", "1", "0", "0"])
    q = F(math.isqrt(2 * 10**60), 10**30)
    pts = [surds.point([F(rng.randint(-99, 99), rng.randint(1, 9))
                        for _ in range(surds.dim)]) for _ in range(40)]
    pts += [r2, surds.rational(q), r2 + 0, pts[3], pts[3]]
    pts = sort_points(pts)
    for p in pts:
        p.approx()
    tiny = F(1, 10**30)
    probes = [surds.point(list(p.coeffs)) for p in pts]
    probes += [p + d for p in pts[::3] for d in (tiny, -tiny)]
    probes += [pts[0] - 1, pts[-1] + 1, r2, surds.rational(q + tiny)]
    # equal values whose midpoints Point arithmetic has moved
    probes += [(p + 10**6) - 10**6 for p in pts]
    probes += [surds.point([F(rng.randint(-99, 99), rng.randint(1, 9))
                            for _ in range(surds.dim)]) for _ in range(20)]
    calls = _count_compares(monkeypatch)
    for x in probes:
        assert bisect_points(pts, x) == bisect.bisect_left(pts, x)
        assert bisect_points(pts, x, right=True) == bisect.bisect_right(pts, x)
        assert bisect_points([], x) == bisect_points([], x, right=True) == 0
    assert calls[0] > 0


def test_interval_membership_at_endpoints(surd_basis):
    r2 = surd_basis.point(["0", "1", "0"])
    r3 = surd_basis.point(["0", "0", "1"])
    tiny = F(1, 10**30)
    s = IntervalSet.canonicalize(surd_basis, [(r2 - 1, r3 - 1), (r3 - 1, r2),
                                              (r3, r3 + 1)])
    assert len(s) == 3
    for lo, hi in s:
        for edge in (lo, hi, surd_basis.point(list(lo.coeffs))):
            assert not s.contains(edge)
        assert s.contains(lo + tiny) and s.contains(hi - tiny)
        assert s.contains(lo - tiny) == (lo == r3 - 1)
        assert s.contains_set(IntervalSet.single(surd_basis, lo, hi))
        assert s.contains_set(IntervalSet.single(surd_basis, lo + tiny, hi - tiny))
        assert not s.contains_set(IntervalSet.single(surd_basis, lo - tiny, hi))
        assert not s.contains_set(IntervalSet.single(surd_basis, lo, hi + tiny))
    assert not s.contains(r2 - 1 - tiny) and not s.contains(r3 + 1 + tiny)
    # r3 - 1 joins two intervals but is not a member of either
    assert not s.contains_set(IntervalSet.single(surd_basis, r2 - 1, r2))


# ---------------------------------------------------------------------------
# interval sets
# ---------------------------------------------------------------------------

def test_canonicalize_examples(rat_basis):
    s = IntervalSet.canonicalize(rat_basis, [(0, 1), (F(1, 2), 2)])
    assert len(s) == 1 and s.measure() == 2
    assert IntervalSet.canonicalize(rat_basis, []).is_empty()
    t = IntervalSet.canonicalize(rat_basis, [(0, 1), (1, 2)])
    assert len(t) == 2  # open intervals: the shared endpoint keeps them apart
    with pytest.raises(ValueError):
        IntervalSet.canonicalize(rat_basis, [(1, 1)])
    with pytest.raises(ValueError):
        IntervalSet.canonicalize(rat_basis, [(2, 1)])


def test_measure_examples(rat_basis, surd_basis, root2_over8):
    s = IntervalSet.canonicalize(rat_basis, [(0, F(1, 4)), (F(1, 2), F(3, 4))])
    assert s.measure() == F(1, 2)
    assert IntervalSet.empty(rat_basis).measure().is_zero()
    m = IntervalSet.single(surd_basis, surd_basis.rational(0), root2_over8).measure()
    enc = decimal_enclosure_str(m, digits=10)
    assert enc["lo"].startswith("0.17677669") and enc["hi"].startswith("0.17677669")


@given(st.lists(st.tuples(rationals, rationals), min_size=0, max_size=8))
@settings(max_examples=80, deadline=None)
def test_canonicalize_idempotent_and_measure_additive(raw):
    basis = GeneratorBasis.rationals()
    ivs = [(lo, hi) for lo, hi in raw if lo < hi]
    s = IntervalSet.canonicalize(basis, ivs)
    again = IntervalSet.canonicalize(basis, list(s.intervals))
    assert s == again
    # union preserved: membership of probe points matches the raw union
    for q in [F(-7, 3), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]:
        p = basis.rational(q)
        raw_member = any(lo < q < hi for lo, hi in ivs)
        assert s.contains(p) == raw_member
    # finite additivity for a disjoint translate far away
    t = s.translate(basis.rational(100))
    both = IntervalSet.canonicalize(basis, s.intervals + t.intervals)
    assert both.measure() == s.measure() + t.measure()


def test_interval_ops(rat_basis):
    a = IntervalSet.canonicalize(rat_basis, [(0, 1), (2, 3)])
    b = IntervalSet.canonicalize(rat_basis, [(F(1, 2), F(5, 2))])
    inter = a.intersect(b)
    assert inter.measure() == F(1)
    assert a.contains_set(inter) and b.contains_set(inter)
    assert not a.contains_set(b)
    sc = a.scale(F(-1, 2))
    assert sc.measure() == a.measure() * F(1, 2)
    assert sc.contains(rat_basis.rational(F(-1, 4)))
    assert a.translate(F(1, 7)).measure() == a.measure()


def test_contains_torus(rat_basis):
    s = IntervalSet.canonicalize(rat_basis, [(F(-1, 4), F(-1, 8))])
    assert s.contains_torus(rat_basis.rational(F(27, 32)))
    assert not s.contains_torus(rat_basis.rational(F(7, 8)))  # endpoint, open
    assert not s.contains_torus(rat_basis.rational(F(1, 8)))
    assert s.contains_torus(rat_basis.rational(F(-3, 16) + 5))


def _four_lifts(s, x):
    """Reference for contains_torus, the rule it replaced: reduce x into
    [0, 1) and try every lift from floor(first element) - 1 to
    floor(last element) + 1."""
    if isinstance(s, IntervalSet):
        if not s.intervals:
            return False
        first, last, member = s.intervals[0][0], s.intervals[-1][1], s.contains
    else:
        if not s.points:
            return False
        first, last, member = s.points[0], s.points[-1], s.__contains__
    w = x - floor_point(x)
    return any(member(w + k)
               for k in range(floor_point(first) - 1, floor_point(last) + 2))


def _exact_lifts(x, lo, hi):
    """The integers k with x + k in the closed interval [lo, hi], exactly."""
    return range(-floor_point(x - lo), floor_point(hi - x) + 1)


def test_torus_locate_bounds(surd_basis, root2_over8):
    lo, hi = surd_basis.rational(F(-3, 2)), root2_over8 + 1
    edges = [lo, root2_over8 - 1, root2_over8, hi]
    apx = [e.approx() for e in edges]
    for x in (root2_over8, root2_over8 - 7, surd_basis.rational(F(1, 2)),
              surd_basis.rational(5), root2_over8 + 2**60,
              surd_basis.rational(2**60 + 1)):
        got = torus_locate(x, edges, apx)
        ks = [k for k, _ in got]
        assert ks == list(range(ks[0], ks[-1] + 1))
        assert set(_exact_lifts(x, lo, hi)) <= set(ks)
        for k, j in got:
            v = x + k
            if j is not None:
                # a certified position: strictly between its neighbours
                assert j == sum(compare(e, v) < 0 for e in edges)
                assert all(compare(e, v) != 0 for e in edges)
    # beyond 2^52 the doubles do not count lifts: every lift in the hull
    # comes back flagged, and no other
    far = root2_over8 + 2**60
    assert torus_locate(far, edges, apx) == [(k, None) for k in _exact_lifts(far, lo, hi)]
    # hull ends are closed: an end that is a lift is flagged, not skipped
    got = dict(torus_locate(hi - 3, edges, apx))
    assert got[3] is None and got[0] == 0
    assert locate([], 0.5, 1e-300) == 0


def test_locate_margin(rat_basis):
    pts = [rat_basis.rational(q) for q in (F(1, 3), F(1, 2), F(1, 2), F(2, 3))]
    apx = [p.approx() for p in pts]
    assert locate(apx, 0.4, 1e-17) == 1
    assert locate(apx, 0.9, 1e-17) == 4
    assert locate(apx, 0.5, 1e-17) is None  # on the tied pair
    # within four radii of a neighbour: undecided
    m, r = apx[0]
    assert locate(apx, m + 4 * r, r) is None
    assert locate(apx, m - 2.0**-60, 1e-300) is None
    assert locate(apx, m - 1e-9, 1e-300) == 0


def test_contains_torus_matches_four_lift_oracle(rat_basis, surd_basis):
    rng = random.Random(11)
    tie = F(1, 2**60)

    def rnd_point(basis):
        q = F(rng.randint(-96, 96), 32)
        if basis is rat_basis or rng.random() < 0.3:
            return basis.rational(q)
        return basis.point([q, F(rng.randint(-8, 8), 16), F(rng.randint(-8, 8), 16)])

    def fresh(e, shift):
        """e + shift built from coefficients, so that its doubles are
        rounded apart from those of e and of e + shift."""
        return e.basis.point([e.coeffs[0] + shift] + list(e.coeffs[1:]))

    for basis in (rat_basis, surd_basis):
        g = rnd_point(basis)
        sets = [IntervalSet.empty(basis), PointSet([]),
                # straddles the seam at 0, and the seam at 1
                IntervalSet.single(basis, F(-1, 4), F(1, 4)),
                IntervalSet.canonicalize(basis, [(F(7, 8), F(9, 8)), (F(-2), F(-7, 4))]),
                # integer endpoints, and components that touch, as in the
                # thickened A when eps' is half the minimum gap
                IntervalSet.canonicalize(basis, [(-1, 0), (0, F(1, 3)), (F(1, 3), 1)]),
                IntervalSet.canonicalize(basis, [(g - F(1, 8), g), (g, g + F(1, 8)),
                                                 (g + F(1, 8), g + F(3, 8))]),
                PointSet([basis.rational(0), g, g + F(1, 4)]),
                # beyond 2^52, where the lifts are counted exactly
                IntervalSet.single(basis, g + 2**53, g + 2**53 + F(4, 3)),
                PointSet([g + 2**60, g + 2**60 + 1])]
        if basis is surd_basis:
            r2, r3 = basis.point([0, 1, 0]), basis.point([0, 0, 1])
            sets += [IntervalSet.canonicalize(basis, [(r2 - 1, r3 - 1), (r3 - 1, F(3, 4))]),
                     PointSet([r2 * F(1, 8), r3 * F(1, 4), r2 - r3])]
        for _ in range(30):
            raw = []
            for _ in range(rng.randint(1, 3)):
                a, b = rnd_point(basis), rnd_point(basis)
                if compare(a, b) != 0:
                    raw.append((a, b) if compare(a, b) < 0 else (b, a))
            if raw:
                sets.append(IntervalSet.canonicalize(basis, raw))
            sets.append(PointSet([rnd_point(basis) for _ in range(rng.randint(1, 4))]))
        for s in sets:
            elems = (s.edge_points() if isinstance(s, IntervalSet) else list(s.points))
            probes = [basis.rational(k) for k in (-5, -1, 0, 1, 5)]
            probes += [basis.rational(F(1, 3)) + 5, basis.rational(F(-2, 7)) - 5]
            for e in elems:
                # open endpoints and hull-end elements, at their lifts too
                probes += [e, e + 1, e - 1, e + 3, e - 5, e + F(1, 64), e - F(1, 64)]
                # near-ties at 2^-60, at lifts whose doubles round apart
                for k in (0, 1, -2, 5):
                    probes += [fresh(e, k + tie), fresh(e, k - tie), fresh(e, k)]
            probes += [rnd_point(basis) for _ in range(6)]
            for x in probes:
                assert s.contains_torus(x) == _four_lifts(s, x), (s, x)


# ---------------------------------------------------------------------------
# min_gap
# ---------------------------------------------------------------------------

def test_min_gap_examples(rat_basis, surd_basis, root2_over8, root3_over4):
    assert min_gap([rat_basis.rational(F(1, 4))]) == F(1, 4)
    pts = [rat_basis.rational(q) for q in (F(1, 8), F(1, 4), F(1, 2))]
    assert min_gap(pts) == F(1, 8)
    g = min_gap([root2_over8, root3_over4])
    enc = decimal_enclosure_str(g, digits=12)
    assert enc["lo"].startswith("0.25623600659")
    assert enc["hi"].startswith("0.25623600659")


def test_min_gap_errors(rat_basis):
    with pytest.raises(ValueError):
        min_gap([])
    with pytest.raises(ValueError):
        min_gap([rat_basis.rational(0)])
    # duplicates collapse before computing
    p = rat_basis.rational(F(1, 3))
    assert min_gap([p, p]) == F(1, 3)


@given(st.lists(rationals, min_size=2, max_size=30, unique=True))
@settings(max_examples=60, deadline=None)
def test_min_gap_exhaustive_oracle(values):
    basis = GeneratorBasis.rationals()
    pts = [basis.rational(q) for q in values]
    g = min_gap(pts).rational_value()
    brute = min(abs(a - b) for i, a in enumerate(values)
                for b in values[i + 1:])
    assert g == brute
    least, greatest, gap = extent(pts)  # the same one sort
    assert [x.rational_value() for x in (least, greatest, gap)] == [min(values), max(values), g]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert g <= abs(a - b)


def test_point_set(surd_basis, root2_over8, root3_over4):
    ps = PointSet([root2_over8, root3_over4, root2_over8])
    assert len(ps) == 2
    assert root2_over8 in ps
    assert ps.contains_torus(root2_over8 + 3)
    assert not ps.contains_torus(surd_basis.rational(F(1, 2)))


def test_point_json_roundtrip(surd_basis, root2_over8):
    obj = root2_over8.to_json()
    assert obj == {"coeffs": ["0", "1/8", "0"]}
    back = Point.from_json(surd_basis, obj)
    assert back == root2_over8
    assert Point.from_json(surd_basis, "3/7") == surd_basis.rational(F(3, 7))


def test_parse_fraction():
    assert parse_fraction("2/5") == F(2, 5)
    assert parse_fraction("0.25") == F(1, 4)
    assert parse_fraction(3) == 3


def test_bad_input_raises_config_error(surd_basis, rat_basis):
    # a check on a value that a caller supplies raises ConfigError
    raises_config_error(parse_fraction, "1/0")
    for spec in ("sqrt:4", "sqrt:1", "rat:-1", "dec:0.5", "nope:3", "rat:x",
                 "sqrt:x", "dec:-1@8"):
        raises_config_error(Generator.parse, spec)
    raises_config_error(GeneratorBasis.from_specs, ["sqrt:2", "sqrt:2"])
    raises_config_error(GeneratorBasis, [Generator.parse("rat:2"),
                                         Generator.parse("rat:3")])
    raises_config_error(surd_basis.point, ["0", "1/2"])
    # text that is no rational keeps the ValueError of Fraction, which the
    # CLI's parameter reader turns into an error naming the parameter
    raises_plain_value_error(parse_fraction, "x")
    # checks on values that the program computed stay plain ValueErrors
    other = GeneratorBasis.from_specs(["sqrt:5"])
    raises_plain_value_error(compare, surd_basis.rational(0), other.rational(1))
    raises_plain_value_error(IntervalSet.canonicalize, rat_basis, [(1, 1)])
    raises_plain_value_error(min_gap, [])
    raises_plain_value_error(extent, [])
    raises_plain_value_error(surd_basis.point(["0", "1", "0"]).rational_value)
