"""Defaults and choices of the command-line options.

Each is defined here once and imported by the module that uses it
(``detections``, ``fusion``, ``export``).  This module imports nothing, so
the CLI builds its parser and ``RunConfig`` without loading those modules.
"""

DEFAULT_SYNC_TOLERANCE_MS = 25.0

DEFAULT_Z_REJECT_MM = 30.0

# How build_track chooses among a bundle's eligible pairs.
PAIR_STRATEGIES = ("best", "average_all")

EXPORT_FORMATS = ("csv", "ply", "svg")
