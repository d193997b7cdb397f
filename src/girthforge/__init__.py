"""Incidence graphs from moment-curve line families over finite fields,
mechanical checks of their short-even-cycle freeness, and exploration of
quadrilateral-free families of general lines in dimension 4."""

from girthforge.errors import SizeLimitError
from girthforge.gf import make_field

__all__ = ["SizeLimitError", "make_field"]
