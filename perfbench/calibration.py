"""Host-speed calibration of the sweepout benchmark.

The benchmark runs on a share of a host whose speed drifts: the same job
list, with the same answers, ran 20% and more slower for whole minutes
at a time, with no steal time and CPU time equal to wall time, so a
slower host, not a descheduled process. A per-job best-of or median over
passes cannot remove a drift that lasts longer than the run.

So the benchmark times a short fixed routine, which never calls
sweepout, before every job. Its arithmetic is of the kinds the library
spends its time on: Fraction products and sums over mid-size integers,
tuple sorting and dict building. A pass's job times are multiplied by
CALIBRATION_REFERENCE_S over the median time of the routine in that
pass, which gives the seconds the job would take on a host where the
routine takes CALIBRATION_REFERENCE_S. A change to sweepout does not
change the routine's time, so it moves the scaled times as it moves the
raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the routine's time on the reference host; near its median on a 2-vCPU
# share of a shared x86-64 host with Python 3.11, so scaled times read
# close to wall times there
CALIBRATION_REFERENCE_S = 1.0e-3

_FRACTIONS = [Fraction(3 * i + 1, 7 * i + 5) for i in range(48)]


def _routine():
    acc = Fraction(0)
    for q in _FRACTIONS:
        acc += q * q - q / 3
    pairs = sorted(((i * 7919) % 1009, i) for i in range(800))
    table = dict(pairs)
    return acc, len(table)


def run_once() -> float:
    """Wall seconds of one run of the routine."""
    t0 = time.perf_counter()
    _routine()
    return time.perf_counter() - t0


def sample(count: int) -> float:
    """Median wall seconds of `count` runs of the routine."""
    return statistics.median(run_once() for _ in range(count))


def scale(calibration_s: float) -> float:
    """Factor that turns wall seconds measured at `calibration_s` into
    seconds on the reference host."""
    return CALIBRATION_REFERENCE_S / calibration_s
