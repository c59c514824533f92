"""Noisy-VQE simulation with 2-RDM error mitigation and a density-matrix
based second-order energy correction, plus the 2-electron pair model whose
lowest eigenvalue is the exact active-space reference energy."""

from . import exact, hamio, pt2, purify, qsim, rdm, vqe

__all__ = ["exact", "hamio", "pt2", "purify", "qsim", "rdm", "vqe"]
__version__ = "0.1.0"
