"""Exact simulation and analysis of adaptive entanglement distillation in
linear quantum-repeater chains.

Subpackages cover the full pipeline: binary-symplectic Pauli algebra
(:mod:`~entdist.pauli`), the stabilizer-code registry (:mod:`~entdist.codes`),
the exhaustive lookup-table decoder and exact fidelity maps
(:mod:`~entdist.decoder`), Werner-state algebra (:mod:`~entdist.werner`),
chain evaluation and rate accounting (:mod:`~entdist.chain`), efficiency
envelopes and switching points (:mod:`~entdist.efficiency`), recurrence
purification (:mod:`~entdist.purify`), the hybrid purify-then-encode
strategy (:mod:`~entdist.hybrid`), and convergence diagnostics
(:mod:`~entdist.convergence`).
"""

from .pauli import PauliString, commutes_with

__all__ = ["PauliString", "commutes_with", "__version__"]

__version__ = "0.1.0"
