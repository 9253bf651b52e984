"""Poisson-line vehicular network toolkit.

Samples road networks with vehicles and roadside devices, evaluates
SIR coverage, throughput, covered-area and latency formulas by adaptive
quadrature, cross-validates them by Monte Carlo, and optimises a
coverage/area utility over the disk radius and vehicle density.
"""

from . import core, geometry, analytic, montecarlo, optimize
from .core import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *geometry.__all__, *analytic.__all__,
           *montecarlo.__all__, *optimize.__all__]
