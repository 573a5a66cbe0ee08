"""Exception types shared across the aoijam package."""


class AoijamError(Exception):
    """Base class for all package errors."""


# ---- policy validation ----

class NonPositiveEntryError(AoijamError, ValueError):
    """A probability entry is NaN, infinite or out of range: a scheduling
    probability <= 0 (asymptotic ages would be unbounded) or a sub-carrier
    probability < 0."""


class NotNormalizedError(AoijamError, ValueError):
    """A probability vector does not sum to 1 within tolerance."""


# ---- blocking plans ----

class TargetOutOfRangeError(AoijamError, IndexError):
    """Requested block target does not index a channel of the plan."""


class NoDiversityError(AoijamError, ValueError):
    """Operation requires at least 2 sub-carriers."""


class DimensionMismatchError(AoijamError, ValueError):
    """Plan dimensions do not match the system configuration."""


# ---- age formulas ----

class NonPositiveProbabilityError(AoijamError, ValueError):
    """A per-slot probability must be strictly positive."""


class IndexOutOfRangeError(AoijamError, IndexError):
    """User index outside 0..N-1."""


# ---- solvers / simulation ----

class InvalidAlphaError(AoijamError, ValueError):
    """A jamming fraction is out of range: alpha outside (0, 1) (or [0, 1)
    where a zero budget is allowed), or a user's share of the horizon that
    is negative or not finite."""


class NonPositiveWeightError(AoijamError, ValueError):
    """Objective weights must be strictly positive."""


class ConvergenceFailureError(AoijamError, RuntimeError):
    """Iterative solver stalled above its stated tolerance."""


class CertificateError(AoijamError, RuntimeError):
    """An internal consistency certificate failed (a result is untrustworthy)."""


class InsufficientRunsError(AoijamError, ValueError):
    """Monte Carlo estimation needs at least 2 runs for a standard error."""


class InstanceTooLargeError(AoijamError, ValueError):
    """Exhaustive enumeration would exceed the configured search budget."""


# ---- CLI ----

class ScenarioParseError(AoijamError, ValueError):
    """Scenario file is not valid JSON or is missing required structure."""


class ScenarioValidationError(AoijamError, ValueError):
    """Scenario file parsed but a field has an invalid value."""
