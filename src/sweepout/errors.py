"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: verification-style failures
(an expected inequality could not be established) exit 1, resource caps
exit 2, bad input exits 3. Any other exception is a fault of the program
and exits 4, a plain ValueError included.

ConfigError, a ValueError, is the one error for bad input: every library
check on a value that a caller supplies raises it where it checks (a
generator spec, a measure, eps, delta, a lattice level, a witness file).
Checks on values that the program computed stay plain ValueErrors.
"""


class SweepoutError(Exception):
    """Base class for package errors.

    diagnostics holds JSON-ready details (numbers as fraction strings)
    that the CLI copies into the report.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class PrecisionExhausted(SweepoutError, ArithmeticError):
    """A certified comparison stayed undecided at the precision cap.

    For bases containing decimal-literal generators this usually means the
    declared independence assertion is wrong, or the declared precision is
    too small to separate the values involved.
    """


class CapExceeded(SweepoutError):
    """An enumeration or piece-count cap was hit before completion."""


class LambdaNotFound(SweepoutError):
    """No scaling parameter satisfied the requested window inequalities."""


class GrowthExhausted(SweepoutError):
    """The lattice level cap was reached before the witness-pair counts
    satisfied their target ratio."""

    def __init__(self, message, best_ratio=None):
        super().__init__(message, {
            "best_ratio": None if best_ratio is None else str(best_ratio)})
        self.best_ratio = best_ratio


class SequenceExhausted(SweepoutError):
    """No remaining measure in the sequence has small enough support to
    continue the gap-separated selection."""

    def __init__(self, message, required_bound=None):
        super().__init__(message, {
            "required_bound": None if required_bound is None else required_bound.to_json()})
        self.required_bound = required_bound


class VerificationFailed(SweepoutError):
    """A certified inequality check failed; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(SweepoutError, ValueError):
    """Bad input: a config, parameter, witness file or caller-supplied
    value that a check rejected."""
