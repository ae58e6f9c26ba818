"""Exception types shared across the package."""


class GridCubesError(Exception):
    """Base class for all package errors."""


class BoundsError(GridCubesError):
    """Geometry referenced coordinates outside the grid."""


class ValidationError(GridCubesError):
    """Malformed input (inverted rectangles, bad fanouts, bad packets)."""


class ConfigError(GridCubesError):
    """Invalid hierarchy configuration."""


class InfeasibleError(GridCubesError):
    """No finite-cost query plan exists (only possible with failures).

    `blocking` holds the failed cells with a data point on a source-to-sink
    path of the flow network made only of infinite arcs. Every such path
    crosses every cut, so these are the cells that would have to be readable
    again: restoring all of them leaves a finite cut.
    """

    def __init__(self, message, blocking=()):
        super().__init__(message)
        self.blocking = frozenset(blocking)


class RecoveryError(GridCubesError):
    """A reconstruction path has no usable donors."""


class ScenarioError(GridCubesError):
    """Problems with a file the CLI reads or writes; `kind` selects its exit
    code."""

    def __init__(self, message, kind="validation"):
        super().__init__(message)
        self.kind = kind
