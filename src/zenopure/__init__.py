"""Purification of a quantum state by repeated probe confirmation.

A bipartite system A+B evolves under a joint Hamiltonian; after every
interval tau the probe A is projectively confirmed in its initial state
phi. Conditioned on all confirmations succeeding, B evolves by powers of
the projected propagator V = <phi| exp(-iH tau) |phi>, a contraction whose
dominant right-eigenvector is the purification target. The package
provides the linear-algebra core (linalg), the measurement engine
(engine), an exactly solvable two-oscillator model used as a cross-check
oracle (oscillator), the experiment-file layer (config), and a CLI (cli,
installed as ``zenopure``).
"""

from .linalg import *
from .engine import *
from .oscillator import *
from .config import *
from . import config, engine, linalg, oscillator  # bound by the imports above

__version__ = "0.1.0"

__all__ = ["__version__", *linalg.__all__, *engine.__all__, *oscillator.__all__, *config.__all__]
