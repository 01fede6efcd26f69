"""Exception types shared across the package."""


class PropringError(Exception):
    """Base class for all package errors."""


class ConfigError(PropringError):
    """Invalid or inconsistent configuration."""


class ConfigMismatch(PropringError):
    """Operands belong to different configurations."""


class InputNotUnitOne(PropringError):
    """Argument is not congruent to 1 modulo p (required for Hensel lifting)."""


class NotInGroup(PropringError):
    """Raw matrix or quaternion fails the group shape constraints."""


class LevelTooDeep(PropringError):
    """Requested subgroup level is at or beyond the truncation level."""


class CutoffBeyondFaithful(PropringError):
    """Weight cutoff reaches the unfaithful range of the finite quotient."""


class NonHomogeneousInput(PropringError):
    """Ideal generator is not homogeneous."""


class ContractViolation(PropringError):
    """A rewriting broke its weight contract; carries the monomial as witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RelationCheckFailed(PropringError):
    """Module generator matrices violate a group relation; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundExceeded(PropringError):
    """Annihilator exponent search passed its proven bound without terminating."""
