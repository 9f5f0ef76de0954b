"""Numerics for planar harmonic Bloch mappings f = h + conj(g): Bloch
constants and norms, unit level sets, hyperbolic geometry of the disk,
extreme-point screens, and support-point certification.

Each submodule's ``__all__`` is its list of public names."""

from .series import *
from .disk import *
from .optimize import *
from .mapping import *
from .extremal import *
from .support import *

__version__ = "0.1.0"
