"""The 2-electron active problem as a pair model.

A 2-electron state is a vector of amplitudes over the pairs p < q
(``purify._pairs`` order), and its 2-RDM is the pair matrix M with rho1 the
partial trace of rho2.  The energy is linear in M through the reduced
Hamiltonian K (Coleman, Rev. Mod. Phys. 35, 668, 1963):
E = e_nuclear + Tr(K M), so the exact ground state is K's lowest eigenvector.
"""

from __future__ import annotations

import numpy as np

from .hamio import IntegralTable, ValidationError
from .purify import _pairs


def pair_hamiltonian(table: IntegralTable) -> np.ndarray:
    """K_(pq),(rs) = h_pr d_qs - h_ps d_qr - h_qr d_ps + h_qs d_pr + g_pqrs
    over the pairs p < q and r < s."""
    p, q = _pairs(table.n_so)
    P, Q = p[:, None], q[:, None]
    h, d = table.h, np.eye(table.n_so)
    return (h[P, p] * d[Q, q] - h[P, q] * d[Q, p] - h[Q, p] * d[P, q]
            + h[Q, q] * d[P, p] + table.g[P, Q, p, q])


def fci_ground_state(table: IntegralTable) -> float:
    """The exact Sz = 0 ground-state energy of a 2-electron table:
    e_nuclear plus the lowest eigenvalue of K over the Sz = 0 pairs."""
    if table.n_electrons != 2:
        raise ValidationError(
            f"the pair model holds 2 electrons; got N={table.n_electrons}")
    p, q = _pairs(table.n_so)
    sz0 = (p & 1) != (q & 1)
    k = pair_hamiltonian(table)[np.ix_(sz0, sz0)]
    return table.e_nuclear + float(np.linalg.eigvalsh(k)[0])
