"""Exception types shared across the package."""


class RealizabilityError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(RealizabilityError):
    """Inputs whose shapes or lengths do not match the domain."""


class ValidationError(RealizabilityError):
    """A value violates a documented invariant or precondition."""


class UnboundedSiteError(ValidationError):
    """An occupancy cap is missing or infinite.

    Every site needs a finite cap of its own, whatever the total-particle
    cap; otherwise the configuration space cannot be enumerated.
    """


class CapacityError(RealizabilityError):
    """The configuration space exceeds ``enumeration.MAX_CONFIGURATIONS``."""


class IterationLimitError(RealizabilityError):
    """The solver exhausted its pivot budget."""


class RationalInputError(RealizabilityError):
    """Exact arithmetic was requested but an input is not an exact rational."""


class UnboundedObjectiveError(RealizabilityError):
    """The linear program's objective is unbounded below on the feasible set."""
