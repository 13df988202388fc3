"""Exception types shared across the package, and the two rules that read a
caller's numbers: ``integer`` for every count and seed, ``real`` for every
real-valued setting.  Both raise ``ParameterError``, so a fraction, a bool or
a string fails where it is given, not deep inside training or the tuner."""

import numpy as np


class SpikeFirstError(Exception):
    """Base class for all package errors."""


class ShapeError(SpikeFirstError):
    """Operand shapes are inconsistent with the requested operation."""


class ParameterError(SpikeFirstError):
    """A numeric parameter is outside its valid range."""


class FormatError(SpikeFirstError):
    """A binary file does not match its declared on-disk format."""


class ConsistencyError(SpikeFirstError):
    """Two inputs that must agree (e.g. image/label counts) do not."""


class CheckpointError(SpikeFirstError):
    """A checkpoint file is corrupt or has an unsupported version."""


class NumericalError(SpikeFirstError):
    """A computation lost all precision (underflow/NaN) and cannot proceed."""


def integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) and at least
    ``minimum``; a seed has no minimum and may be of either sign."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParameterError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def real(value, what: str) -> float:
    """``value`` as a Python float, if it is an int or a float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be an int or a float, got {value!r}")
    return float(value)
