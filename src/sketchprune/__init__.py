"""Pruning at initialization viewed as randomized matrix sketching.

The package builds fractional masks by importance sampling, proves out their
expected approximation error against closed forms and Monte Carlo estimates,
relates saliency scores (synflow, snip) to the variance-optimal sampling
distribution, and extends the machinery to the kernel regime of a small
dense network.

Every public name is declared once, in its module's ``__all__``; the package
re-exports the union. The command-line module ``cli`` is not imported here.
"""

from . import bounds, core, experiments, ntk, scores, sketch
from .bounds import *
from .core import *
from .experiments import *
from .ntk import *
from .scores import *
from .sketch import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, sketch, scores, bounds, ntk, experiments)
    for name in module.__all__
]
