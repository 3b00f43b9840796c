"""Exact-arithmetic engine for sweep-out witness sets of convolution
operators of discrete measures on the circle.

The package builds, by exhaustive exact computation, the finite point
configurations whose thickenings witness that the convolution family of a
concentrating sequence of discrete measures sweeps out: lattice grids
over an independent generator core, fractional-part window sets, per
measure witness pairs, and the gap-separated sumset witness with all of
its inequalities certified.
"""

__version__ = "0.1.0"

from .exactreal import (GeneratorBasis, IntervalSet, Point, PointSet,
                        compare, min_gap)
from .measures import (DiscreteMeasure, MeasureSequence, chebyshev_check,
                       check_condition_one, convolve_indicator)
from .lattice import (LatticeSpec, decompose, enumerate_lattice,
                      interval_count_ratio, shift_closure_check)
from .lambda_search import find_lambda, frac_window_sets, lambda_profile
from .builder import (EGPair, SweepOutWitness, build_eg, build_witness,
                      oscillation_trace, select_subsequence, separation_check,
                      trim_witness, unique_sum_check, verify_witness)

__all__ = [
    "__version__",
    "GeneratorBasis", "IntervalSet", "Point", "PointSet", "compare",
    "min_gap",
    "DiscreteMeasure", "MeasureSequence", "chebyshev_check",
    "check_condition_one", "convolve_indicator",
    "LatticeSpec", "decompose", "enumerate_lattice", "interval_count_ratio",
    "shift_closure_check",
    "find_lambda", "frac_window_sets", "lambda_profile",
    "EGPair", "SweepOutWitness", "build_eg", "build_witness",
    "oscillation_trace", "select_subsequence", "separation_check",
    "trim_witness", "unique_sum_check", "verify_witness",
]
