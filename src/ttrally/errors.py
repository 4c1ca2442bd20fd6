"""Exception hierarchy for ttrally.

Every module raises subclasses of TTRallyError so callers can catch a single
base class at pipeline or CLI level.
"""

from typing import Optional


class TTRallyError(Exception):
    """Base class for all ttrally errors."""


# -- core model -------------------------------------------------------------

class NotEnoughHits(TTRallyError):
    """Too few ball detections or fewer than two hits, so no segment can be
    formed, or a hit frame without positioned player joints."""


class EmptyDataset(TTRallyError):
    """Statistics over no points or no frame pairs, or a returner row or
    experiment with no exchanges or zero episodes."""


# -- camera -----------------------------------------------------------------

class BehindCamera(TTRallyError):
    """Projection requested for a point with non-positive depth."""


class NoIntersection(TTRallyError):
    """Viewing ray is parallel to (or points away from) the target plane."""


class CalibrationDegenerate(TTRallyError):
    """Head-on camera: depth edges are parallel in the image."""


class CalibrationFailed(TTRallyError):
    """Calibration system is rank deficient or did not converge."""


class PlacementFailed(TTRallyError):
    """Huge camera-frame joints overflow to non-finite world joints."""


# -- ball reconstruction ----------------------------------------------------

class NoBounceFound(TTRallyError):
    """No usable bounce candidate between a pair of hits."""


class OutOfRange(TTRallyError):
    """Trajectory evaluated outside its [0, T] time support."""


class SegmentRejected(TTRallyError):
    """A hit pair's bounce-fit error, the summed squared pixel error (px^2)
    of its 2 or 3 parabola windows, exceeds the rejection threshold."""


# -- pipeline ---------------------------------------------------------------

class ParseError(TTRallyError):
    """Malformed input file; ``line_number`` is None when no one line is at fault."""

    def __init__(self, line_number: Optional[int], message: str):
        super().__init__(
            message if line_number is None else f"line {line_number}: {message}"
        )
        self.line_number = line_number


class SchemaError(ParseError):
    """A header field or a required block is missing or invalid."""


class VersionError(ParseError):
    """Unknown file format version tag."""


class AssumptionViolation(TTRallyError):
    """Synthetic camera violates the fixed-view assumptions."""


# -- anticipation -----------------------------------------------------------

class EnsembleTooSmall(TTRallyError):
    """Fewer than two ensemble members: spread is undefined."""


class NoCalibration(TTRallyError):
    """No conformal quantile available for the requested axis/horizon."""


class InputMismatch(TTRallyError):
    """A context whose times and frames differ in length or that has fewer
    than two frames, or an empty test split."""


class SplitLeakage(TTRallyError):
    """The calibration and test splits share exchange ids."""


# -- control ----------------------------------------------------------------

class NoContact(TTRallyError):
    """Ball is not moving into the racket face."""


class Infeasible(TTRallyError):
    """No racket normal sends the ball back onto the table."""
