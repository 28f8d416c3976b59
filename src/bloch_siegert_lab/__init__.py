"""Bloch-Siegert physics of the driven two-level system.

Resonance shifts over the full drive-strength range by five independent
methods, plus dissipative observables (time-averaged populations and
probe spectra) in the counter-rotating hybridized rotating frame.

Each library module declares its public names once, in the `__all__` below
its imports; the package re-exports exactly those names, plus __version__.
"""

from . import chrw, dissipative, errors, floquet, numerics, resonance, spectrum

__version__ = "0.1.0"
__all__ = ["__version__"]
for _module in (chrw, dissipative, errors, floquet, numerics, resonance, spectrum):
    __all__ += _module.__all__
del _module

# the last star import binds the name spectrum to the function, not the module
from .chrw import *
from .dissipative import *
from .errors import *
from .floquet import *
from .numerics import *
from .resonance import *
from .spectrum import *
