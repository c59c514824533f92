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

A stack of pairs (a bootstrap block) is purified with one stacked ``eigh``,
each resample as one pair would be; a resample that fails is marked, with
its error's message, and NaN, so the rest of the stack goes on.
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


def _violation(r2) -> np.ndarray:
    """The largest antisymmetry defect of each 2-RDM of a (B, n, n, n, n) stack."""
    defects = np.concatenate([r2 + r2.swapaxes(1, 2), r2 + r2.swapaxes(3, 4)], axis=1)
    return np.abs(defects).reshape(len(r2), -1).max(axis=1)


def _pair_matrix(r2) -> np.ndarray:
    """The symmetrized pair matrix of each 2-RDM of a stack."""
    p, q = _pairs(r2.shape[-1])
    m = r2[..., p[:, None], q[:, None], p, q]
    return 0.5 * (m + m.swapaxes(-2, -1))


def from_pair_basis(m, n_so) -> np.ndarray:
    """Inverse reshape of one pair matrix or a stack; antisymmetry is
    restored exactly."""
    p, q = _pairs(n_so)
    rho2 = np.zeros(m.shape[:-2] + (n_so,) * 4)
    rho2[..., p[:, None], q[:, None], p, q] = m
    rho2[..., q[:, None], p[:, None], p, q] = -m
    rho2[..., p[:, None], q[:, None], q, p] = -m
    rho2[..., q[:, None], p[:, None], q, p] = m
    return rho2


def _failure(viol, tr, evals, rank):
    """Why a pair matrix has no projector, as the error to raise, or None:
    the checks of ``purify_rdm`` in order (antisymmetry, trace, midpoint,
    zero projector); ``evals`` are those of the matrix divided by ``tr``,
    ``rank`` of them above 1/2."""
    if viol > 1e-6:
        return ValidationError(
            f"rho2 antisymmetry violated by {viol:.2e}; upstream assembly is broken")
    if tr <= 0:
        return PurificationError(f"nonpositive pair trace {tr:.3e}")
    mid = evals[np.abs(evals - 0.5) < MIDPOINT_TOL]
    if mid.size:
        return PurificationError(
            f"pair-matrix eigenvalue {mid[0]:.12g} lies within {MIDPOINT_TOL:.0e} "
            "of 1/2, the unstable fixed point of purification")
    if not rank:
        return PurificationError("purification collapsed to the zero projector")
    return None


def purify_rdm(rdm: RdmPair) -> RdmPair:
    """Purify a symmetrized 2-electron RDM, or each pair of a stack (module
    docstring).

    rho1 is recomputed from the purified rho2 by partial trace so the pair
    stays mutually consistent.  ``meta.purification`` records ``iterations``
    (0: there is no iteration) and ``basin_warning``.

    One pair that cannot be purified raises (ValidationError for broken
    antisymmetry, PurificationError otherwise).  A stack never raises for
    one resample: one ``eigh`` runs on every pair matrix,
    ``meta.purification["failed"]`` holds per resample None or the message
    its error would carry, a failed resample's rho1 and rho2 are NaN, and
    ``basin_warning`` is an array.
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
    stacked = rdm.rho2.ndim == 5
    r2 = rdm.rho2 if stacked else rdm.rho2[None]
    viol = _violation(r2)
    m = _pair_matrix(r2)
    tr = np.trace(m, axis1=1, axis2=2)
    evals, vecs = np.linalg.eigh(m / np.where(tr > 0, tr, 1.0)[:, None, None])
    keep = evals > 0.5
    rank = keep.sum(axis=1)
    failures = [_failure(*args) for args in zip(viol, tr, evals, rank)]
    if not stacked and failures[0] is not None:
        raise failures[0]
    proj = (vecs * keep[:, None, :]) @ vecs.transpose(0, 2, 1)
    rho2 = from_pair_basis(proj / np.maximum(rank, 1)[:, None, None],
                           rdm.n_so)  # trace N(N-1)/2 = 1
    rho1 = np.einsum("...prqr->...pq", rho2)  # divided by N - 1 = 1
    failed = [f is not None for f in failures]
    if any(failed):
        rho1[failed] = rho2[failed] = np.nan
    basin_warning = (evals[:, 0] < -0.3) | (evals[:, -1] > 1.3)
    if stacked:
        info = {"iterations": 0, "basin_warning": basin_warning,
                "failed": tuple(None if f is None else str(f) for f in failures)}
    else:
        info = {"iterations": 0, "basin_warning": bool(basin_warning[0])}
        rho1, rho2 = rho1[0], rho2[0]
    meta = replace(rdm.meta, provenance="purified", purification=info)
    return RdmPair(rho1, rho2, meta)
