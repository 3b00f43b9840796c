"""Lattice classification kernel: a conservative float filter by range counting.

    classify_tuples(y_hat, bounds, edges, guard, collect)
        -> (inside_count, inside_tuples_or_None, uncertain_tuples)

classifies every integer tuple n with |n_i| <= bounds[i] by the double
s = sum(n_i * y_hat[i]) against the sorted edge array of a union of
intervals. Tuples whose value lands within `guard` of an edge are returned
as uncertain, for the caller to re-decide exactly, so the float arithmetic
here never decides a borderline case.

The result is, element for element and in the same order, that of the
exhaustive walk over all tuples in itertools.product order, but the last
coordinate is walked in blocks. For a fixed prefix n_1..n_{nu-1} the value
s0 + n * y_last never decreases as n grows (y_last > 0), and both guard
tests are monotone in it, so once one n is classified with room to spare,
every later n keeps that class until the value comes within `guard` of the
next edge above. The block ends at a float guess of that n, moved down
for as long as the same float expression says the guess is too late; the
n near an edge are classified one at a time, and each block is inside or
outside as a whole.
"""

import itertools
import math
from bisect import bisect_left

BACKEND = "pure-python"

INF = math.inf


def classify_tuples(y_hat, bounds, edges, guard, collect):
    """Classify all integer tuples against a flattened edge array.

    edges holds the doubles of [lo1, hi1, lo2, hi2, ...] sorted ascending,
    ties allowed; a value is inside the union exactly when an odd number
    of edges lies below it. With guard covering the float error of each
    value and each edge, a value that clears every edge by more than
    guard has as many edges below it as in exact arithmetic, also where
    edges collide in doubles and their images tie or swap. guard must be
    >= 0 and y_hat[-1] > 0.

    Returns (inside_count, inside_tuples_or_None, uncertain_tuples).
    """
    nu = len(y_hat)
    ne = len(edges)
    inside = [] if collect else None
    uncertain = []
    if ne == 0:
        return 0, inside, uncertain
    if nu <= 0:
        raise ValueError("empty tuple space")
    y_last = y_hat[nu - 1]
    if not (y_last > 0 and guard >= 0):
        raise ValueError("classify_tuples needs y_hat[-1] > 0 and guard >= 0")
    count = 0
    b_last = bounds[nu - 1]
    stop = b_last + 1
    outer = [range(-b, b + 1) for b in bounds[: nu - 1]]
    for prefix in itertools.product(*outer):
        s0 = 0.0
        for v, y in zip(prefix, y_hat):
            s0 += v * y
        n = -b_last
        while n < stop:
            s = s0 + n * y_last
            j = bisect_left(edges, s)
            left = s - edges[j - 1] if j > 0 else INF
            right = edges[j] - s if j < ne else INF
            if left <= guard or right <= guard:
                uncertain.append(prefix + (n,))
                n += 1
                continue
            # every n' in [n, end) shares the class of n while no n' in
            # it has edges[j] - s(n') <= guard; an end that the float
            # guess puts too early only splits the block
            if j == ne:
                end = stop
            else:
                e = edges[j]
                t = (e - guard - s0) / y_last
                end = n + 1 if t <= n + 1 else stop if t >= stop else math.ceil(t)
                while end > n + 1 and e - (s0 + (end - 1) * y_last) <= guard:
                    end -= 1
            if j & 1:
                if collect:
                    inside.extend([prefix + (k,) for k in range(n, end)])
                else:
                    count += end - n
            n = end
    if collect:
        count = len(inside)
    return count, inside, uncertain
