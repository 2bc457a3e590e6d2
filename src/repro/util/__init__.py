"""Small shared utilities: fast splines, ASCII plots, tables, timing."""

from .fastspline import UniformGridCubic, LogLogCubic, fit_cubic
from .asciiplot import ascii_plot, ascii_histogram
from .tables import format_table
from .timing import Stopwatch

__all__ = [
    "UniformGridCubic",
    "LogLogCubic",
    "fit_cubic",
    "ascii_plot",
    "ascii_histogram",
    "format_table",
    "Stopwatch",
]
