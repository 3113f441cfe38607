"""Exception types shared across the package."""


class RaysweepError(Exception):
    """Base class for all raysweep errors."""


class NonConvergedUndistortion(RaysweepError):
    """Iterative undistortion failed to converge (extreme distortion)."""


class OutOfTrajectoryRange(RaysweepError):
    """Requested time lies outside the trajectory's sampled span."""


class NoCommonTimeSpan(RaysweepError):
    """Event streams have no overlapping time interval."""


class InvalidDepthRange(RaysweepError):
    """Depth-plane sampling requested with an invalid (z_min, z_max, n)."""


class MisalignedDsi(RaysweepError):
    """DSI grids disagree in shape, depth sampling, or reference view."""


class ParseError(RaysweepError):
    """Malformed input file content, with line/path context."""

    def __init__(self, message, *, path=None, line=None):
        self.path = path
        self.line = line
        ctx = ""
        if path is not None:
            ctx += f"{path}: "
        if line is not None:
            ctx += f"line {line}: "
        super().__init__(ctx + message)


class NonMonotonicTimestamps(ParseError):
    """Event timestamps decrease by more than the permitted jitter."""


class QuaternionNormError(ParseError):
    """Quaternion norm too far from 1 to trust renormalization."""


class InsufficientCameras(RaysweepError):
    """A rig needs at least two cameras."""


class MotionTooFastForStep(RaysweepError):
    """Simulation step too coarse for the configured pixel displacement."""


class DsiTooLarge(RaysweepError):
    """The DSI volume and its voting buffers exceed physical memory."""
