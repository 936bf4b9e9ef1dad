"""Exception hierarchy shared by all tomoseg modules."""


class TomosegError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(TomosegError):
    """A JSON config document violates the experiment schema."""


class ConfigError(TomosegError):
    """Invalid parameter value or parameter combination."""


class UsageError(TomosegError):
    """A command line the argument parser rejects."""


class FormatError(TomosegError):
    """On-disk volume/sinogram data does not match its sidecar."""


class ShapeError(TomosegError):
    """Volumes passed to an operation have mismatched dimensions."""


class SpecError(TomosegError):
    """Phantom geometry violates its own constraints."""


class ReconstructionError(TomosegError):
    """Reconstruction cannot proceed (e.g. too few projection angles)."""


class TrainingError(TomosegError):
    """Training data does not support the requested fit."""


class ModelError(TomosegError):
    """Segmenter is unusable (non-finite weights, wrong feature space)."""


class MetricError(TomosegError):
    """A metric is undefined for the given inputs."""


class DataError(TomosegError):
    """Required intermediate data is missing or inconsistent."""
