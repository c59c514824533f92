"""Exact-diagonalization oracle: sector bases, FCI ground states, and the
RDMs contracted directly from eigenvector amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hamio import IntegralTable, ValidationError
from .rdm import RdmMeta, RdmPair

DIMENSION_CAP = 2000  # largest sector diagonalized (dense)


@dataclass(frozen=True)
class SectorBasis:
    """Occupation bitmasks with fixed particle number and Sz, sorted."""

    n_so: int
    n_elec: int
    sz2: int  # 2 * Sz (alpha = +1, beta = -1 per orbital)
    states: tuple
    index: dict

    @classmethod
    def build(cls, n_so, n_elec, sz2=0, restrict_occupied=(),
              restrict_virtual_empty=()) -> "SectorBasis":
        must = 0
        for p in restrict_occupied:
            must |= 1 << p
        banned = 0
        for p in restrict_virtual_empty:
            banned |= 1 << p
        states = []
        for occ in combinations(range(n_so), n_elec):
            bits = 0
            sz = 0
            for p in occ:
                bits |= 1 << p
                sz += 1 if p % 2 == 0 else -1
            if sz == sz2 and (bits & must) == must and not bits & banned:
                states.append(bits)
        states.sort()
        if not states:
            raise ValidationError(
                f"empty sector: N={n_elec}, 2Sz={sz2} in {n_so} spin orbitals")
        return cls(n_so=n_so, n_elec=n_elec, sz2=sz2, states=tuple(states),
                   index={s: i for i, s in enumerate(states)})

    def __len__(self):
        return len(self.states)


def _apply_ladder(det, ops):
    """Apply ladder operators (rightmost first) to a bitmask determinant.

    ``ops`` is ordered as written, e.g. [(a, True), (i, False)] is a+_a a_i.
    Returns (new determinant, sign) or (None, 0) if annihilated.
    """
    sign = 1
    d = det
    for p, dag in reversed(ops):
        bit = 1 << p
        if dag:
            if d & bit:
                return None, 0
        else:
            if not d & bit:
                return None, 0
        if bin(d & (bit - 1)).count("1") % 2:
            sign = -sign
        d ^= bit
    return d, sign


def _matrix_elements(table: IntegralTable, basis: SectorBasis):
    """Yield (row, col, value) of the sector Hamiltonian (col <= row side only
    for off-diagonals is not assumed; every nonzero is emitted once)."""
    h, g = table.h, table.g
    n_so = table.n_so
    for col, det in enumerate(basis.states):
        occ = [p for p in range(n_so) if (det >> p) & 1]
        diag = table.e_nuclear + sum(h[p, p] for p in occ)
        diag += 0.5 * sum(g[p, q, p, q] for p in occ for q in occ)
        yield col, col, diag
        virt = [p for p in range(n_so) if not (det >> p) & 1]
        for i in occ:
            for a in virt:
                d2, sign = _apply_ladder(det, [(a, True), (i, False)])
                row = basis.index.get(d2)
                if row is None:
                    continue
                val = h[a, i] + sum(g[a, p, i, p] for p in occ if p != i)
                if val != 0.0:
                    yield row, col, sign * val
        for i, j in combinations(occ, 2):
            for a, b in combinations(virt, 2):
                val = g[a, b, i, j]
                if val == 0.0:
                    continue
                d2, sign = _apply_ladder(
                    det, [(a, True), (b, True), (j, False), (i, False)])
                row = basis.index.get(d2)
                if row is not None:
                    yield row, col, sign * val


def sector_hamiltonian(table: IntegralTable, basis: SectorBasis):
    dim = len(basis)
    ham = np.zeros((dim, dim))
    for r, c, v in _matrix_elements(table, basis):
        ham[r, c] += v
    return ham


def fci_ground_state(table: IntegralTable, n_elec=None, sz2=0,
                     restrict_occupied=(), restrict_virtual_empty=()):
    """Lowest eigenpair of the sector Hamiltonian (energy includes e_nuclear).

    Returns (energy, amplitudes) with amplitudes ordered like
    SectorBasis.build(...).states.
    """
    n_elec = table.n_electrons if n_elec is None else n_elec
    basis = SectorBasis.build(table.n_so, n_elec, sz2, restrict_occupied,
                              restrict_virtual_empty)
    dim = len(basis)
    if dim > DIMENSION_CAP:
        raise ValidationError(
            f"sector dimension {dim} exceeds the desk-scale cap of "
            f"{DIMENSION_CAP}; freeze core first")
    w, v = np.linalg.eigh(sector_hamiltonian(table, basis))
    return float(w[0]), v[:, 0]


def rdms_from_amplitudes(amplitudes, basis: SectorBasis) -> RdmPair:
    """Exact 1-/2-RDM contraction of a sector wavefunction."""
    amps = np.asarray(amplitudes, dtype=float)
    if amps.shape != (len(basis),):
        raise ValidationError("amplitude count does not match the basis")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError("amplitudes are not normalized")
    n_so = basis.n_so
    rho1 = np.zeros((n_so, n_so))
    rho2 = np.zeros((n_so, n_so, n_so, n_so))
    for ci, det in enumerate(basis.states):
        c = amps[ci]
        if c == 0.0:
            continue
        occ = [p for p in range(n_so) if (det >> p) & 1]
        for q in occ:
            for p in range(n_so):
                d2, sign = _apply_ladder(det, [(p, True), (q, False)])
                if d2 is None:
                    continue
                ti = basis.index.get(d2)
                if ti is not None:
                    rho1[p, q] += amps[ti] * sign * c
        for r, s in combinations(occ, 2):
            d1, sign1 = _apply_ladder(det, [(s, False), (r, False)])
            rest = [p for p in range(n_so) if not (d1 >> p) & 1]
            for p, q in combinations(rest, 2):
                d2, sign2 = _apply_ladder(d1, [(p, True), (q, True)])
                if d2 is None:
                    continue
                ti = basis.index.get(d2)
                if ti is None:
                    continue
                v = amps[ti] * sign1 * sign2 * c
                if v != 0.0:
                    rho2[p, q, r, s] += v
                    rho2[q, p, r, s] -= v
                    rho2[p, q, s, r] -= v
                    rho2[q, p, s, r] += v
    return RdmPair(rho1, rho2,
                   RdmMeta(provenance="exact", n_electrons=basis.n_elec))
