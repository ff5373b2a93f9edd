"""Variational occupation-number toolkit for the harmonically confined pair.

Two particles in a common harmonic trap, coupled by a quadratic
interaction, admit a fully closed-form ground state.  This package exposes
that solution (module `model`), its natural-orbital occupation spectra
(`spectral`), a power-functional energy closed over a one-parameter family
of model one-matrices (`mueller`), the stationarity solver and sweep
machinery built on it (`solver`), spectral correlation measures
(`entropy`), and an independent quadrature oracle that cross-checks every
closed form (`oracle`).  A command-line front end lives in `cli`.
"""

from . import entropy, errors, model, mueller, oracle, solver, spectral
from .errors import *
from .model import *
from .spectral import *
from .mueller import *
from .solver import *
from .entropy import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *model.__all__,
    *spectral.__all__,
    *mueller.__all__,
    *solver.__all__,
    *entropy.__all__,
    *oracle.__all__,
    "__version__",
]
