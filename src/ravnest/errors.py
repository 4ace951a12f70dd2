"""Exception hierarchy shared by all ravnest modules."""


class RavnestError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RavnestError):
    """Invalid configuration value, architecture, or parameter range."""


class ShapeError(RavnestError):
    """Array shape inconsistent with the declared layer metadata."""


class NumericError(RavnestError):
    """Non-finite value encountered where finiteness is required."""

    checkpoint_values = None  # last averaged parameters, set by the training loop


class PartitionError(RavnestError):
    """Model cannot be split under the given peer capacities."""


class TopologyError(RavnestError):
    """Unknown node or missing link in the simulated network."""


class FlowControlError(RavnestError):
    """Single-slot buffer was about to be overwritten."""


class ProtocolError(RavnestError):
    """Message or state transition that the protocol does not allow."""


class LayoutError(RavnestError):
    """Cluster layouts disagree about the global parameter space."""


class StallError(RavnestError):
    """Event budget exhausted with work still pending (livelock diagnostic)."""


class StalenessError(RavnestError):
    """A staleness bound was violated while enforcement was on."""

    def __init__(self, msg, record=None):
        super().__init__(msg)
        self.record = record


class MeasurementError(RavnestError):
    """Trace too short or malformed for the requested measurement."""


class InfeasibleError(RavnestError):
    """Session planning failed because the pool cannot host the model."""


class SchemaError(RavnestError):
    """File with an unknown or incompatible schema version."""
