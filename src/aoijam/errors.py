"""Exception types shared across the aoijam package.

Every check in the package raises one of these.  Each class keeps a stdlib
base (ValueError, IndexError or RuntimeError), so `except ValueError` and
`except IndexError` callers catch them too.
"""


class AoijamError(Exception):
    """Base class for all package errors."""


# ---- inputs: probabilities, plans, sizes ----

class NonPositiveEntryError(AoijamError, ValueError):
    """An entry is NaN, infinite or out of range: a scheduling probability
    or an objective weight <= 0 (ages would be unbounded), a sub-carrier
    probability < 0, or a plan entry outside [0, 1] (outside {0, 1} for a
    plan given as deterministic)."""


class NotNormalizedError(AoijamError, ValueError):
    """A probability vector does not sum to 1 within tolerance, or a plan
    column blocks with total probability above 1."""


class NoDiversityError(AoijamError, ValueError):
    """Operation requires an integer count of at least 2 sub-carriers."""


class DimensionMismatchError(AoijamError, ValueError):
    """A size is wrong: an array's shape does not match the system
    configuration, or a count (horizon, users, sub-carriers) is below 1."""


class IndexOutOfRangeError(AoijamError, IndexError):
    """A user or channel index outside 0..N-1."""


# ---- solvers / simulation ----

class InvalidAlphaError(AoijamError, ValueError):
    """A jamming fraction is out of range: alpha outside (0, 1) (or [0, 1)
    where a zero budget is allowed), a user's share of the horizon that is
    negative or not finite, or a plan that blocks more slots than its
    fraction alpha of the horizon."""


class ConvergenceFailureError(AoijamError, RuntimeError):
    """A closed form and its numeric second route disagree."""


class CertificateError(AoijamError, RuntimeError):
    """An internal consistency certificate failed (a result is untrustworthy)."""


class InsufficientRunsError(AoijamError, ValueError):
    """A run, sample or iteration count is not an integer at or above its
    minimum (2 runs for a standard error, 2 rounds of dynamics), or a Monte
    Carlo seed is not an integer."""


class InstanceTooLargeError(AoijamError, ValueError):
    """Exhaustive enumeration would exceed the configured search budget."""


# ---- CLI ----

class ScenarioParseError(AoijamError, ValueError):
    """Scenario file is not valid JSON or is missing required structure."""


class ScenarioValidationError(AoijamError, ValueError):
    """Scenario file parsed but a field has an invalid value."""
