"""Projection of a measured 2-RDM onto the nearest pure 2-electron state.

Reshaped over ordered pairs p < q, the 2-RDM of a pure 2-electron state is a
rank-one projector of trace N(N-1)/2 = 1.  ``purify_rdm`` symmetrizes the
measured pair matrix, divides it by its trace and replaces it by the
projector onto its eigenvectors with eigenvalues above 1/2.  That projector
is the fixed point McWeeny's iteration P -> 3P^2 - 2P^3 reaches (McWeeny,
Rev. Mod. Phys. 32, 335, 1960): the polynomial drives eigenvalues in
(1/2, 1.3) to 1 and those in (-0.3, 1/2) to 0, so one ``eigh`` gives it
directly.  An eigenvalue within ``MIDPOINT_TOL`` of 1/2 sits on the
iteration's unstable fixed point, where the split is decided by rounding, and
raises a ``PurificationError`` naming it; so does a matrix with no
eigenvalue above 1/2 (the zero projector).  Eigenvalues outside (-0.3, 1.3),
where the iteration can diverge, still project and set ``basin_warning``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .hamio import ValidationError
from .rdm import RdmPair

# |eigenvalue - 1/2| below this raises.  McWeeny's iteration on
# diag(1/2 + e, 1/2 - e, 0, ...) converges at e = 1e-8 and stalls at 1e-9.
MIDPOINT_TOL = 3e-9


class PurificationError(RuntimeError):
    """Raised when the pair matrix has no well-defined nearest projector."""


@lru_cache(maxsize=8)
def _pairs(n_so):
    """Ordered pairs p < q in lexicographic order, as index arrays (shared:
    callers must not write to them)."""
    return np.triu_indices(n_so, 1)


def to_pair_basis(rdm: RdmPair) -> np.ndarray:
    """rho2 as a symmetric matrix over ordered pairs, checking antisymmetry."""
    r2 = rdm.rho2
    viol = max(np.abs(r2 + r2.transpose(1, 0, 2, 3)).max(),
               np.abs(r2 + r2.transpose(0, 1, 3, 2)).max())
    if viol > 1e-6:
        raise ValidationError(
            f"rho2 antisymmetry violated by {viol:.2e}; upstream assembly is broken")
    p, q = _pairs(rdm.n_so)
    m = r2[p[:, None], q[:, None], p, q]
    return 0.5 * (m + m.T)


def from_pair_basis(m, n_so) -> np.ndarray:
    """Inverse reshape; antisymmetry is restored exactly."""
    p, q = _pairs(n_so)
    rho2 = np.zeros((n_so,) * 4)
    rho2[p[:, None], q[:, None], p, q] = m
    rho2[q[:, None], p[:, None], p, q] = -m
    rho2[p[:, None], q[:, None], q, p] = -m
    rho2[q[:, None], p[:, None], q, p] = m
    return rho2


def purify_rdm(rdm: RdmPair) -> RdmPair:
    """Purify a symmetrized 2-electron RDM (module docstring).

    rho1 is recomputed from the purified rho2 by partial trace so the pair
    stays mutually consistent.  ``meta.purification`` records ``iterations``
    (0: there is no iteration), the ``residual`` ||P^2 - P||_F of the
    unit-trace projector and ``basin_warning``.
    """
    n_elec = rdm.meta.n_electrons
    if n_elec != 2:
        raise ValidationError(
            f"purification targets 2-electron active spaces; got N={n_elec}. "
            "General-N purification needs semidefinite N-representability "
            "constraints, which are out of scope.")
    if rdm.meta.provenance not in ("symmetrized", "exact", "purified"):
        raise ValidationError(
            "purify_rdm expects a symmetrized RDM (enforce Sz and average "
            f"spin reflections first); got provenance {rdm.meta.provenance!r}")
    m = to_pair_basis(rdm)
    tr = float(np.trace(m))
    if tr <= 0:
        raise PurificationError(f"nonpositive pair trace {tr:.3e}")
    evals, vecs = np.linalg.eigh(m / tr)
    basin_warning = bool(evals[0] < -0.3 or evals[-1] > 1.3)
    mid = evals[np.abs(evals - 0.5) < MIDPOINT_TOL]
    if mid.size:
        raise PurificationError(
            f"pair-matrix eigenvalue {mid[0]:.12g} lies within {MIDPOINT_TOL:.0e} "
            "of 1/2, the unstable fixed point of purification")
    kept = vecs[:, evals > 0.5]
    if kept.shape[1] == 0:
        raise PurificationError("purification collapsed to the zero projector")
    proj = kept @ kept.T
    info = {"iterations": 0, "residual": float(np.linalg.norm(proj @ proj - proj)),
            "basin_warning": basin_warning}
    rho2 = from_pair_basis(proj / kept.shape[1], rdm.n_so)  # trace N(N-1)/2 = 1
    rho1 = np.einsum("prqr->pq", rho2)  # divided by N - 1 = 1
    meta = replace(rdm.meta, provenance="purified", purification=info)
    return RdmPair(rho1, rho2, meta)
