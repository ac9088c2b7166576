"""QAOA MaxCut workbench.

Dense statevector simulation of the alternating-layer ansatz, a
brute-force cut oracle, parametric noise channels with twirling /
scheduling / dynamical-decoupling mitigation passes, in-house
derivative-free optimizers, and a reproducible experiment harness.

Each public name has one home, its module: import it from there, as
``from qaoalab.harness import run_sweep``. The package binds its public
modules and ``__version__`` only; ``trajectories`` loads on first noisy
use.
"""

from . import ansatz, graph, harness, noise, objective, optim, plots, rng, statevec

__version__ = "0.1.0"

__all__ = [
    "ansatz", "graph", "harness", "noise", "objective", "optim", "plots", "rng", "statevec",
    "__version__",
]
