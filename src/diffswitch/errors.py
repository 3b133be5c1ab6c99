"""Exception hierarchy shared by all diffswitch modules."""


class DiffswitchError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParam(DiffswitchError):
    """A parameter is outside its admissible range."""


class MalformedRow(DiffswitchError):
    """A CSV row has the wrong field count or a non-numeric field."""


class NonUniformGrid(DiffswitchError):
    """Time stamps deviate from a uniform grid beyond tolerance."""


class TooShort(DiffswitchError):
    """Trajectory or segment has too few points for the operation."""


class OutOfBounds(DiffswitchError):
    """Change points are not integers in order within the trajectory's indices."""


class IoFailure(DiffswitchError):
    """File could not be read or written."""


class NoMotion(DiffswitchError):
    """All steps are zero; the diffusion-coefficient estimate is undefined."""


class NoMotionWindow(NoMotion):
    """A sliding window contains zero motion; carries the offending index."""

    def __init__(self, index):
        super().__init__(f"window at index {index} contains no motion")
        self.index = index


class WindowTooLarge(DiffswitchError):
    """Window size k exceeds n/2."""


class Degenerate(DiffswitchError):
    """Calibration parameters degenerate (e.g. order statistic rank 0)."""
