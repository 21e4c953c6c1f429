"""Exception hierarchy shared across the package.

Every error raised deliberately by gridscope derives from GridscopeError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class GridscopeError(Exception):
    """Base class for all errors raised by this package; ``path`` names its file."""

    path = None

    def __str__(self) -> str:
        return f"{self.path}: {super().__str__()}" if self.path else super().__str__()


# --- geometry ---------------------------------------------------------------

class DegenerateQuad(GridscopeError):
    """Quad corners are collinear/non-convex or the DLT system is singular."""


class PointAtInfinity(GridscopeError):
    """A homography sent a point to the line at infinity."""


# --- calibration ------------------------------------------------------------

class NonPositiveLength(GridscopeError):
    """A length that must be strictly positive was zero or negative."""


class OutsideCalibratedArea(GridscopeError):
    """An image point falls outside every calibrated sub-area."""


class FormatError(GridscopeError):
    """A structured-text document is malformed.

    Carries a human-readable location (key path or line) in the message.
    """


class VersionMismatch(GridscopeError):
    """A document declares a format version this build does not support."""


# --- detection I/O ----------------------------------------------------------

class CsvError(GridscopeError):
    """A detection CSV row failed validation.

    Attributes:
        row: 1-based row number in the file (header is row 1).
        column: name of the offending column, or "" for row-level problems.
        reason: short description of what was wrong.
    """

    def __init__(self, row: int, column: str, reason: str):
        super().__init__(f"row {row}, column {column or '<row>'}: {reason}")
        self.row = row
        self.column = column
        self.reason = reason


# --- depth correction -------------------------------------------------------

class InvalidObservation(GridscopeError):
    """Depth-observation distances violate their ordering/positivity rules."""


# --- fusion -----------------------------------------------------------------

class ZDisagreementExceeded(GridscopeError):
    """The two cameras' height estimates differ by more than the threshold."""

    def __init__(self, disagreement_mm: float, threshold_mm: float):
        super().__init__(
            f"z disagreement {disagreement_mm:.3f} mm exceeds "
            f"threshold {threshold_mm:.3f} mm"
        )
        self.disagreement_mm = disagreement_mm
        self.threshold_mm = threshold_mm


# --- evaluation -------------------------------------------------------------

class EmptySegment(GridscopeError):
    """No track points fall inside a segment's time window."""


class NoSegments(GridscopeError):
    """An accuracy summary was requested over zero segments."""


class NoDetections(GridscopeError):
    """A rate was requested but the denominator count is zero."""


# --- detection metrics ------------------------------------------------------

class UndefinedMetric(GridscopeError):
    """A metric's denominator is zero; the message names the denominator."""


class NoGroundTruth(GridscopeError):
    """Average precision was requested with no ground-truth boxes."""


# --- simulation -------------------------------------------------------------

class ConfigError(GridscopeError):
    """A scenario or run configuration is inconsistent."""


class BehindCamera(GridscopeError):
    """A world point lies on or behind a perspective camera's image plane."""


# --- export -----------------------------------------------------------------

class EmptyTrack(GridscopeError):
    """An export format that needs at least one point got an empty track."""
