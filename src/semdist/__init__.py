"""Semantics-aware distance maps for amodal instance segmentation.

One float map per instance carries, at every pixel of its full (amodal)
extent, a confidence value minus the number of objects covering that pixel
in front of the instance. Thresholding recovers the visible and amodal
masks, flooring recovers per-pixel occlusion levels, and subtracting two
maps recovers which instance is in front. The package also ships layering
targets for learned models, loss numerics with gradients, a synthetic scene
generator, detection metrics, and bit-exact file formats.
"""

from . import codec, compositor, io, losses, metrics, types
from .types import *
from .codec import *
from .compositor import *
from .metrics import *
from .losses import *
from .io import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += types.__all__
__all__ += codec.__all__
__all__ += compositor.__all__
__all__ += metrics.__all__
__all__ += losses.__all__
__all__ += io.__all__
