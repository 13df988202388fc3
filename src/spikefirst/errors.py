"""Exception types shared across the package."""


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
