"""Exception hierarchy.

Two families, matching the CLI exit-code contract: input problems
(``DomainError`` and subclasses, exit 2) and numerical runtime failures
(``NumericsError`` and subclasses, exit 3).
"""


class DomainError(ValueError):
    """An argument violates a mathematical precondition."""


class RegimeError(DomainError):
    """Field strength outside the regime an operation is defined for."""


class LevelSetError(DomainError):
    """Initial state does not lie on the required energy level set."""


class NumericsError(RuntimeError):
    """A numerical procedure failed at runtime."""


class ToleranceNotMet(NumericsError):
    """Quadrature still short of its tolerance after its last level."""


class CollisionApproach(NumericsError):
    """Unregularized trajectory entered the collision cutoff radius."""


class SeparatrixEscape(NumericsError):
    """Oscillator trajectory left the bounded well during integration."""


class NoReturnError(NumericsError):
    """Trajectory failed to return to the section within the step budget."""


class ProfileInvariantError(NumericsError):
    """Sampled profile violated monotonicity, signalling a numerics bug."""
