"""Exact computation in truncated completed group rings of two families of
3f-dimensional p-valued groups, plus the verification harness built on it."""

from .config import PrimeConfig
from .errors import (
    BoundExceeded,
    ConfigError,
    ConfigMismatch,
    ContractViolation,
    CutoffBeyondFaithful,
    InputNotUnitOne,
    LevelTooDeep,
    NonHomogeneousInput,
    NotInGroup,
    PropringError,
    RelationCheckFailed,
)

__all__ = [
    "PrimeConfig",
    "PropringError",
    "ConfigError",
    "ConfigMismatch",
    "ContractViolation",
    "InputNotUnitOne",
    "NotInGroup",
    "LevelTooDeep",
    "CutoffBeyondFaithful",
    "NonHomogeneousInput",
    "RelationCheckFailed",
    "BoundExceeded",
]

__version__ = "0.1.0"
