"""Test-only reference implementations that the package no longer carries.

The general FCI is the determinant-sector diagonalization the package used
before its 2-electron active problem became the pair model of
``rdmpt2.exact``: ``SectorBasis`` enumerates the determinants of one particle
number and Sz, optionally with orbitals forced occupied or empty;
``sector_hamiltonian`` builds the dense sector matrix through the ladder
algebra of ``_apply_ladder``; ``fci_ground_state`` returns its lowest
eigenpair (below ``DIMENSION_CAP`` determinants) for any electron count; and
``rdms_from_amplitudes`` contracts the exact 1-/2-RDM of a sector
wavefunction.  ``determinant_rdm`` gives the exact RDMs of one determinant
and ``traces`` the electron and pair counts of an RDM; no run needs either.

The PT2 oracles are the scalar and loop forms the vectorized ``rdmpt2.pt2``
must reproduce: ``fbar``/``gammabar`` evaluate one transformed matrix element
from its defining sums (the 3-RDM through ``reducible_3rdm``, one element at
a time); ``fbar_matrix``/``gammabar_tensor`` are the per-term einsum forms of
the same numerators, with the 3-RDM terms built from the pair cumulant;
``transformed_energies``, ``rdm_pt2`` and ``hf_mp2`` sum over orbital tuples
in loops, raising on the first degenerate denominator in loop order.

``trajectory_counts`` is the per-shot stochastic-Pauli sampler the package
used before it switched to an exact density-matrix channel: every shot
evolves its own statevector, draws a Pauli error after each gate with the
gate's depolarizing probability, samples an outcome and flips each bit
through the readout confusion matrix.  Its shot distribution is the one the
density-matrix channel must reproduce.  ``kraus_density_matrix`` is that
channel's density matrix as an explicit sum over dense Pauli-error Kraus
operators, one full-register matrix product per operator.
``apply_gate_batch`` is the gate primitive as it stood before the package
gathered through cached index tables: it reshapes the batch to one axis per
qubit, moves the gate's axes to the front, contracts and moves them back;
``qsim._apply_gate_batch`` must return the same bits.
``apply_noise`` is the package's channel for one circuit at a time, the
reference ``qsim.measure_pauli_sets`` must match group by group: it evolves
the whole circuit's noisy density matrix and draws every shot in one
multinomial.

The measurement oracles are the element-by-element assembly the compiled
map replaced: ``element_terms`` expands every measured element in Pauli
words by one dense trace per word; ``rdm_from_expectations`` evaluates each
element from a Pauli-word expectation callable and writes its antisymmetric
and hermitian copies one by one; ``rdm_from_shots`` finds the
first table that can measure each word; ``mitigate_readout`` inverts one
table at a time through the Kronecker product of the per-qubit inverses;
``bootstrap`` resamples and reruns its pipeline one resample at a time.
``embed_active_rdm`` is the loop form of the core embedding.

The purification oracles are the iteration the spectral projector replaced:
``to_pair_basis``/``from_pair_basis`` reshape rho2 over ordered pairs p < q
in Python loops, ``mcweeney`` iterates P -> 3P^2 - 2P^3 until P^2 = P, and
``purify_rdm`` chains them the way the package's ``purify_rdm`` used to.

``linear_trust_region`` is the optimizer loop as it stood before it carried
held values: every rebuild evaluates its centre again, and a step that lands
on a held point evaluates it again.  On a deterministic objective the
package's ``optimize`` must evaluate the same points in the same order with
those repeats removed.

``validate_table`` and ``validate_pair`` check the symmetries an integral
table and an RDM pair must carry (hermiticity, antisymmetry, spin-forbidden
entries of g); no run calls them.  ``spin_expand`` is the spin-orbital
expansion of FCIDUMP integrals as a gather of every spatial index quadruple
times a spin mask, which ``hamio._spin_expand``'s strided blocks must
reproduce.
"""

import math
from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from rdmpt2 import pt2, qsim, rdm, vqe
from rdmpt2.hamio import IntegralTable, ValidationError
from rdmpt2.pt2 import DENOMINATOR_FLOOR, DegenerateDenominatorError
from rdmpt2.purify import PurificationError

_PAULIS_1Q = [qsim._PAULI_MATS[c] for c in "XYZ"]
_PAULIS_2Q = [np.kron(qsim._PAULI_MATS[a], qsim._PAULI_MATS[b])
              for a in "IXYZ" for b in "IXYZ"][1:]  # drop II


def validate_table(table: IntegralTable, tol=1e-10):
    """Raise ValidationError unless h is hermitian and g antisymmetric in its
    bra and ket pairs with no spin-forbidden entries."""
    if not np.allclose(table.h, table.h.T, atol=tol):
        raise ValidationError("h is not hermitian")
    g = table.g
    if not np.allclose(g, -g.transpose(1, 0, 2, 3), atol=tol):
        raise ValidationError("g violates antisymmetry in the bra pair")
    if not np.allclose(g, -g.transpose(0, 1, 3, 2), atol=tol):
        raise ValidationError("g violates antisymmetry in the ket pair")
    spin = np.arange(table.n_so) & 1
    direct = (spin[:, None, None, None] == spin[None, None, :, None]) & (
        spin[None, :, None, None] == spin[None, None, None, :])
    exch = (spin[:, None, None, None] == spin[None, None, None, :]) & (
        spin[None, :, None, None] == spin[None, None, :, None])
    if np.any(np.abs(g[~(direct | exch)]) > tol):
        raise ValidationError("g has spin-forbidden entries")


def validate_pair(pair, tol=1e-8):
    """Raise ValidationError unless rho1 is hermitian and rho2 antisymmetric
    in its bra and ket pairs and hermitian, each to the absolute ``tol``."""
    if not np.allclose(pair.rho1, pair.rho1.T, rtol=0.0, atol=tol):
        raise ValidationError("rho1 is not hermitian")
    r2 = pair.rho2
    if not np.allclose(r2, -r2.transpose(1, 0, 2, 3), rtol=0.0, atol=tol):
        raise ValidationError("rho2 violates bra antisymmetry")
    if not np.allclose(r2, -r2.transpose(0, 1, 3, 2), rtol=0.0, atol=tol):
        raise ValidationError("rho2 violates ket antisymmetry")
    if not np.allclose(r2, r2.transpose(2, 3, 0, 1), rtol=0.0, atol=tol):
        raise ValidationError("rho2 is not hermitian")


def spin_expand(h_sp, chem, n_sp):
    """Spatial chemists' integrals -> spin-orbital (h, <pq||rs>): every
    spatial quadruple gathered to n_so^4 entries, then masked to the spins
    that pair up directly."""
    n_so = 2 * n_sp
    h = np.zeros((n_so, n_so))
    h[0::2, 0::2] = h_sp
    h[1::2, 1::2] = h_sp
    # <pq|rs> = (PR|QS) on matching spins; chem (ij|kl) = <ik|jl>
    phys_sp = chem.transpose(0, 2, 1, 3)
    P = np.arange(n_so) >> 1
    spin = np.arange(n_so) & 1
    big = phys_sp[np.ix_(P, P, P, P)]
    direct_mask = (spin[:, None, None, None] == spin[None, None, :, None]) & (
        spin[None, :, None, None] == spin[None, None, None, :])
    direct = big * direct_mask
    g = direct - direct.transpose(0, 1, 3, 2)
    return h, g


def expand_matrix(matrix, qubits, n_qubits):
    """Embed a 1- or 2-qubit gate matrix into the full 2^n unitary (the first
    listed qubit is the most significant local bit)."""
    dim = 1 << n_qubits
    m = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in qubits]
    for loc_in in range(1 << m):
        base_in = sum(((loc_in >> (m - 1 - k)) & 1) << qubits[k] for k in range(m))
        for loc_out in range(1 << m):
            amp = matrix[loc_out, loc_in]
            if amp == 0:
                continue
            base_out = sum(((loc_out >> (m - 1 - k)) & 1) << qubits[k] for k in range(m))
            for fill in range(1 << len(rest)):
                extra = sum(((fill >> k) & 1) << rest[k] for k in range(len(rest)))
                full[base_out | extra, base_in | extra] = amp
    return full


def apply_gate_batch(states, matrix, qubits, n_qubits):
    """Apply a 2^m x 2^m matrix to ``qubits`` of a (batch, 2^n) array, the
    first-listed qubit being the most significant local bit."""
    batch = states.shape[0]
    t = states.reshape((batch,) + (2,) * n_qubits)
    # axis for qubit k in the reshaped tensor (axis 0 is the batch)
    axes = [1 + (n_qubits - 1 - q) for q in qubits]
    m = len(axes)
    t = np.moveaxis(t, axes, range(1, 1 + m))
    lead = t.shape[1 + m:]
    t = t.reshape(batch, 1 << m, -1)
    t = np.einsum("ij,bjk->bik", matrix, t)
    t = t.reshape((batch,) + (2,) * m + lead)
    t = np.moveaxis(t, range(1, 1 + m), axes)
    return t.reshape(batch, 1 << n_qubits)


def kraus_density_matrix(circuit, model):
    """The noisy density matrix of ``circuit`` from |0...0>: after each gate
    U, rho -> (1 - p) U rho U^dagger + p/(d^2 - 1) sum_P P U rho U^dagger P
    over the gate's non-identity Pauli words, every operator dense."""
    n = circuit.n_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = expand_matrix(gate.matrix, gate.qubits, n)
        rho = u @ rho @ u.conj().T
        p = model.p1 if gate.arity == 1 else model.p2
        paulis = _PAULIS_1Q if gate.arity == 1 else _PAULIS_2Q
        words = [expand_matrix(w, gate.qubits, n) for w in paulis]
        rho = (1 - p) * rho + p / len(words) * sum(w @ rho @ w for w in words)
    return rho


def apply_noise(circuit, model, seed):
    """A seeded noisy sampling channel for one circuit: the returned callable
    shots -> count vector draws from the readout-confused outcome
    distribution of its noisy density matrix (``model=None`` samples the
    exact Born distribution)."""
    model = qsim._model_for(circuit, model)
    rho = qsim.noisy_density_matrix(circuit, model)
    return lambda shots: qsim._draw(rho, model, shots, seed)


def trajectory_counts(circuit, model, shots, seed):
    """Per-shot trajectory sampling of ``circuit`` under ``model``: the count
    vector over little-endian outcomes, seeded like the package's channel."""
    rng = qsim._rng_for(seed, 0)
    n = circuit.n_qubits
    states = np.zeros((shots, 1 << n), dtype=complex)
    states[:, 0] = 1.0
    for gate in circuit.gates:
        states = states @ expand_matrix(gate.matrix, gate.qubits, n).T
        p_err = model.p1 if gate.arity == 1 else model.p2
        if p_err <= 0:
            continue
        hit = rng.random(shots) < p_err
        paulis = _PAULIS_1Q if gate.arity == 1 else _PAULIS_2Q
        which = rng.integers(0, len(paulis), size=shots)
        for k, pauli in enumerate(paulis):
            rows = np.where(hit & (which == k))[0]
            if rows.size:
                states[rows] = states[rows] @ expand_matrix(pauli, gate.qubits, n).T
    probs = np.abs(states) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(shots)
    outcomes = (probs.cumsum(axis=1) > u[:, None]).argmax(axis=1)
    for q in range(n):  # readout confusion, one flip decision per qubit
        bit = (outcomes >> q) & 1
        p_flip = np.where(bit == 0, model.readout[q][1, 0], model.readout[q][0, 1])
        flip = rng.random(shots) < p_flip
        outcomes = outcomes ^ (flip.astype(np.int64) << q)
    return np.bincount(outcomes, minlength=1 << n)


# ---------------------------------------------------------------------------
# Determinant FCI
# ---------------------------------------------------------------------------

def determinant_rdm(occupied, n_so) -> rdm.RdmPair:
    """Exact RDMs of a single determinant."""
    occ = sorted(occupied)
    rho1 = np.zeros((n_so, n_so))
    for p in occ:
        rho1[p, p] = 1.0
    n = rho1.diagonal()
    rho2 = (np.einsum("p,q,pr,qs->pqrs", n, n, np.eye(n_so), np.eye(n_so))
            - np.einsum("p,q,ps,qr->pqrs", n, n, np.eye(n_so), np.eye(n_so)))
    return rdm.RdmPair(rho1, rho2, rdm.RdmMeta(provenance="exact", n_electrons=len(occ)))


def traces(pair):
    """(Tr rho1, sum_pq rho2_pqpq): N and N(N - 1) for an N-electron RDM."""
    return float(np.trace(pair.rho1)), float(np.einsum("pqpq->", pair.rho2))


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


def rdms_from_amplitudes(amplitudes, basis: SectorBasis) -> rdm.RdmPair:
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
    return rdm.RdmPair(rho1, rho2,
                       rdm.RdmMeta(provenance="exact", n_electrons=basis.n_elec))


# ---------------------------------------------------------------------------
# RDM-PT2
# ---------------------------------------------------------------------------

def check_roles(ref, occ_idx, virt_idx):
    occ = set(ref.occupied)
    for i in occ_idx:
        if i not in occ:
            raise ValidationError(f"index {i} is not occupied in the reference")
    for a in virt_idx:
        if a in occ:
            raise ValidationError(f"index {a} is not virtual in the reference")


def pair_cumulant(rdm):
    """lambda2 = rho2 - rho1 ^ rho1 (vanishes on a determinant)."""
    r1 = rdm.rho1
    return rdm.rho2 - (np.einsum("pr,qs->pqrs", r1, r1)
                       - np.einsum("ps,qr->pqrs", r1, r1))


def reducible_3rdm(rdm, indices, lam=None) -> float:
    """Reconstruct rho_pqrstu from rho2 and rho1 (cumulant truncation).

    det3(rho1) plus the antisymmetrized pair-cumulant term
    (1 - P_pr - P_qr)(1 - P_su - P_tu) lambda_pqst rho_ru, each permutation
    operator swapping its index pair in every factor to its right.  ``lam``
    is the RDM's pair cumulant, computed here when not given.
    """
    p, q, r, s, t, u = indices
    r1 = rdm.rho1
    if lam is None:
        lam = pair_cumulant(rdm)

    m = [[r1[x, y] for y in (s, t, u)] for x in (p, q, r)]
    det3 = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def block(p_, q_, r_):
        return (lam[p_, q_, s, t] * r1[r_, u]
                - lam[p_, q_, u, t] * r1[r_, s]
                - lam[p_, q_, s, u] * r1[r_, t])

    return float(det3 + block(p, q, r) - block(r, q, p) - block(p, r, q))


def fbar(rdm, table, ref, i: int, a: int) -> float:
    """Re <[a+_i a_a, H]> from the RDMs (exact given the true 2-RDM)."""
    pt2._check_pt2_input(rdm)
    check_roles(ref, [i], [a])
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    n = table.n_so
    val = sum(h[a, m] * r1[m, i] - h[i, m] * r1[m, a] for m in range(n))
    acc = 0.0
    for m in range(n):
        for v in range(n):
            for w in range(n):
                acc += g[a, m, v, w] * r2[v, w, i, m] - g[i, m, v, w] * r2[v, w, a, m]
    return float(val + 0.5 * acc)


def gammabar(rdm, table, ref, i: int, j: int, a: int, b: int, include_3rdm=None) -> float:
    """Re <[a+_i a+_j a_b a_a, H]> from the RDMs.

    The two 3-RDM contractions are evaluated through reducible_3rdm; they
    vanish identically for 2-electron states and are skipped there unless
    ``include_3rdm`` forces them.
    """
    pt2._check_pt2_input(rdm)
    check_roles(ref, [i, j], [a, b])
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    n = table.n_so
    if include_3rdm is None:
        include_3rdm = rdm.meta.n_electrons > 2
    lam = pair_cumulant(rdm) if include_3rdm else None

    def rho3(*indices):
        return reducible_3rdm(rdm, indices, lam)

    def bracket(i_, j_, a_, b_):
        val = 0.0
        for m in range(n):
            val += h[i_, m] * r2[m, j_, a_, b_] - h[j_, m] * r2[m, i_, a_, b_]
            val -= h[a_, m] * r2[i_, j_, m, b_] - h[b_, m] * r2[i_, j_, m, a_]
        for m in range(n):
            for v in range(n):
                val += 0.5 * (g[i_, j_, m, v] * r2[m, v, a_, b_]
                              - g[m, v, a_, b_] * r2[i_, j_, m, v])
        if include_3rdm:
            t3 = 0.0
            for m in range(n):
                for v in range(n):
                    for w in range(n):
                        t3 -= 0.5 * (g[i_, w, m, v] * rho3(m, v, j_, a_, b_, w)
                                     - g[j_, w, m, v] * rho3(m, v, i_, a_, b_, w))
                        t3 += 0.5 * (g[m, v, a_, w] * rho3(i_, j_, w, b_, m, v)
                                     - g[m, v, b_, w] * rho3(i_, j_, w, a_, m, v))
            val += t3
        return val

    return float(-bracket(i, j, a, b))


def fbar_matrix(rdm, table, occ, virt):
    """All fbar at once, one einsum per term."""
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    one = (h[virt] @ r1[:, occ]).T - h[occ] @ r1[:, virt]
    two = 0.5 * (np.einsum("amvw,vwim->ia", g[virt], r2[:, :, occ, :], optimize=True)
                 - np.einsum("imvw,vwam->ia", g[occ], r2[:, :, virt, :], optimize=True))
    return one + two


def gammabar_tensor(rdm, table, occ, virt, include_3rdm=None):
    """All gammabar at once, one einsum per term."""
    h, g = table.h, table.g
    r2 = rdm.rho2
    if include_3rdm is None:
        include_3rdm = rdm.meta.n_electrons > 2
    r2_ovv = r2[:, occ][:, :, virt][:, :, :, virt]   # (m, j, a, b)
    r2_oov = r2[occ][:, occ][:, :, :, virt]          # (i, j, m, b)
    one = np.einsum("im,mjab->ijab", h[occ], r2_ovv)
    one = one - one.transpose(1, 0, 2, 3)
    two = np.einsum("am,ijmb->ijab", h[virt], r2_oov)
    two = two - two.transpose(0, 1, 3, 2)
    gpart = 0.5 * (np.einsum("ijmn,mnab->ijab", g[occ][:, occ],
                             r2[:, :, virt][:, :, :, virt], optimize=True)
                   - np.einsum("mnab,ijmn->ijab", g[:, :, virt][:, :, :, virt],
                               r2[occ][:, occ], optimize=True))
    bracket = one - two + gpart
    if include_3rdm:
        bracket = bracket + gamma_3rdm_terms(rdm, table, occ, virt)
    return -bracket


def gamma_3rdm_terms(rdm, table, occ, virt):
    """The two three-body contractions of the bracket: the nine pair-cumulant
    splits and the six det3(rho1) products of the reconstruction, one einsum
    each."""
    g = table.g
    r1 = rdm.rho1
    lam = pair_cumulant(rdm)
    gi = g[occ]            # (i, v, m, n)
    gav = g[:, :, virt]    # (m, n, a, v)
    kw = {"optimize": True}

    def contract_a(t2):
        """1/2 sum_mnv g_ivmn X_{mnj,abv} for the nine pair/single splits."""
        return (np.einsum("ivmn,mnab,jv->ijab", gi, t2[:, :, virt][:, :, :, virt], r1[occ], **kw)
                - np.einsum("ivmn,mnvb,ja->ijab", gi, t2[:, :, :, virt], r1[occ][:, virt], **kw)
                - np.einsum("ivmn,mnav,jb->ijab", gi, t2[:, :, virt], r1[occ][:, virt], **kw)
                - np.einsum("ivmn,jnab,mv->ijab", gi, t2[occ][:, :, virt][:, :, :, virt], r1, **kw)
                + np.einsum("ivmn,jnvb,ma->ijab", gi, t2[occ][:, :, :, virt], r1[:, virt], **kw)
                + np.einsum("ivmn,jnav,mb->ijab", gi, t2[occ][:, :, virt], r1[:, virt], **kw)
                - np.einsum("ivmn,mjab,nv->ijab", gi, t2[:, occ][:, :, virt][:, :, :, virt], r1, **kw)
                + np.einsum("ivmn,mjvb,na->ijab", gi, t2[:, occ][:, :, :, virt], r1[:, virt], **kw)
                + np.einsum("ivmn,mjav,nb->ijab", gi, t2[:, occ][:, :, virt], r1[:, virt], **kw))

    def contract_b(t2):
        """1/2 sum_mnv g_mnav X_{ijv,bmn} for the nine pair/single splits."""
        t2_oo = t2[occ][:, occ]
        return (np.einsum("mnav,ijbm,vn->ijab", gav, t2_oo[:, :, virt], r1, **kw)
                - np.einsum("mnav,ijnm,vb->ijab", gav, t2_oo, r1[:, virt], **kw)
                - np.einsum("mnav,ijbn,vm->ijab", gav, t2_oo[:, :, virt], r1, **kw)
                - np.einsum("mnav,vjbm,in->ijab", gav, t2[:, occ][:, :, virt], r1[occ], **kw)
                + np.einsum("mnav,vjnm,ib->ijab", gav, t2[:, occ], r1[occ][:, virt], **kw)
                + np.einsum("mnav,vjbn,im->ijab", gav, t2[:, occ][:, :, virt], r1[occ], **kw)
                - np.einsum("mnav,ivbm,jn->ijab", gav, t2[occ][:, :, virt], r1[occ], **kw)
                + np.einsum("mnav,ivnm,jb->ijab", gav, t2[occ], r1[occ][:, virt], **kw)
                + np.einsum("mnav,ivbn,jm->ijab", gav, t2[occ][:, :, virt], r1[occ], **kw))

    # det3(rho1) parts: X_{mnj,abv} -> rho_ma (rho_nb rho_jv - rho_nv rho_jb) - ...
    det_a = (np.einsum("ivmn,ma,nb,jv->ijab", gi, r1[:, virt], r1[:, virt], r1[occ], **kw)
             - np.einsum("ivmn,ma,nv,jb->ijab", gi, r1[:, virt], r1, r1[occ][:, virt], **kw)
             - np.einsum("ivmn,mb,na,jv->ijab", gi, r1[:, virt], r1[:, virt], r1[occ], **kw)
             + np.einsum("ivmn,mb,nv,ja->ijab", gi, r1[:, virt], r1, r1[occ][:, virt], **kw)
             + np.einsum("ivmn,mv,na,jb->ijab", gi, r1, r1[:, virt], r1[occ][:, virt], **kw)
             - np.einsum("ivmn,mv,nb,ja->ijab", gi, r1, r1[:, virt], r1[occ][:, virt], **kw))
    det_b = (np.einsum("mnav,ib,jm,vn->ijab", gav, r1[occ][:, virt], r1[occ], r1, **kw)
             - np.einsum("mnav,ib,jn,vm->ijab", gav, r1[occ][:, virt], r1[occ], r1, **kw)
             - np.einsum("mnav,im,jb,vn->ijab", gav, r1[occ], r1[occ][:, virt], r1, **kw)
             + np.einsum("mnav,in,jb,vm->ijab", gav, r1[occ], r1[occ][:, virt], r1, **kw)
             + np.einsum("mnav,im,jn,vb->ijab", gav, r1[occ], r1[occ], r1[:, virt], **kw)
             - np.einsum("mnav,in,jm,vb->ijab", gav, r1[occ], r1[occ], r1[:, virt], **kw))

    ta = 0.5 * (contract_a(lam) + det_a)
    ta = ta - ta.transpose(1, 0, 2, 3)
    tb = 0.5 * (contract_b(lam) + det_b)
    tb = tb - tb.transpose(0, 1, 3, 2)
    return -ta + tb


def transformed_energies(rdm, table, ref):
    """(eps_occ, eps_virt) as dicts keyed by spin-orbital index."""
    pt2._check_pt2_input(rdm)
    h, g = table.h, table.g
    r1, r2 = rdm.rho1, rdm.rho2
    occ = list(ref.occupied)
    virt = list(ref.virtual)
    eps_occ = {}
    for i in occ:
        val = h[i, i] + sum(g[i, j, i, j] for j in occ)
        val += sum(h[i, a] * r1[a, i] for a in virt)
        val += 0.5 * sum(g[i, j, a, b] * r2[a, b, i, j]
                         for j in occ for a in virt for b in virt)
        eps_occ[i] = float(val)
    eps_virt = {}
    for a in virt:
        val = h[a, a] + sum(g[a, j, a, j] for j in occ)
        val -= sum(h[a, i] * r1[i, a] for i in occ)
        val -= 0.5 * sum(g[a, b, i, j] * r2[i, j, a, b]
                         for i in occ for j in occ for b in virt)
        eps_virt[a] = float(val)
    return eps_occ, eps_virt


def _loop_sum(eps_occ, eps_virt, fmat, gten, occ, virt, internal=()):
    terms = []
    for ii, i in enumerate(occ):
        for aa, a in enumerate(virt):
            if i in internal and a in internal:
                continue
            denom = eps_occ[i] - eps_virt[a]
            if abs(denom) < DENOMINATOR_FLOOR:
                raise DegenerateDenominatorError((i, a), denom)
            terms.append(fmat[ii, aa] ** 2 / denom)
    for ii, i in enumerate(occ):
        for jj, j in enumerate(occ):
            for aa, a in enumerate(virt):
                for bb, b in enumerate(virt):
                    if (i in internal and j in internal
                            and a in internal and b in internal):
                        continue
                    denom = eps_occ[i] + eps_occ[j] - eps_virt[a] - eps_virt[b]
                    if abs(denom) < DENOMINATOR_FLOOR:
                        raise DegenerateDenominatorError((i, j, a, b), denom)
                    terms.append(0.25 * gten[ii, jj, aa, bb] ** 2 / denom)
    return math.fsum(terms)


def rdm_pt2(rdm, table, ref, space=None):
    """The correction from the loop-form energies and sums over the einsum
    numerators; channels inside ``space.active`` are skipped."""
    pt2._check_pt2_input(rdm)
    occ = list(ref.occupied)
    virt = list(ref.virtual)
    eps_occ, eps_virt = transformed_energies(rdm, table, ref)
    internal = set(space.active) if space is not None else set()
    return _loop_sum(eps_occ, eps_virt, fbar_matrix(rdm, table, occ, virt),
                     gammabar_tensor(rdm, table, occ, virt), occ, virt, internal)


def hf_mp2(table, ref):
    """Textbook MP2 from the Fock matrix and bare integrals, in loops."""
    occ = list(ref.occupied)
    virt = list(ref.virtual)
    f = table.h + np.einsum("piqi->pq", table.g[:, occ][:, :, :, occ])
    eps = {p: f[p, p] for p in range(table.n_so)}
    return _loop_sum(eps, eps, f[np.ix_(occ, virt)],
                     table.g[np.ix_(occ, occ, virt, virt)], occ, virt)


# ---------------------------------------------------------------------------
# Measurement and assembly
# ---------------------------------------------------------------------------

def _set1(rho1, p, q, v):
    rho1[p, q] = v
    rho1[q, p] = v


def _set2(rho2, p, q, r, s, v):
    for (a, b, sg1) in ((p, q, 1.0), (q, p, -1.0)):
        for (c, d, sg2) in ((r, s, 1.0), (s, r, -1.0)):
            rho2[a, b, c, d] = sg1 * sg2 * v
            rho2[c, d, a, b] = sg1 * sg2 * v


def element_terms(elements, n):
    """Each (p, q) or (p, q, r, s) element's identity offset and nonzero Pauli
    coefficients, one trace per word: c_w = Tr(P_w O) / 2^n for the hermitian
    part O of a+_p a_q, or of a+_p a+_q a_s a_r."""
    a = [qsim.jw_ladder(p, n) for p in range(n)]
    ad = [m.conj().T for m in a]
    words = {"".join(t): qsim.pauli_matrix("".join(t))
             for t in product("IXYZ", repeat=n)}
    out = {}
    for e in elements:
        if len(e) == 2:
            op = ad[e[0]] @ a[e[1]]
        else:
            op = ad[e[0]] @ ad[e[1]] @ a[e[3]] @ a[e[2]]
        op = 0.5 * (op + op.conj().T)
        coeffs = {w: complex(np.trace(m @ op)) / (1 << n) for w, m in words.items()}
        assert all(c.imag == 0 for c in coeffs.values())
        const = coeffs.pop("I" * n).real
        out[e] = const, {w: c.real for w, c in coeffs.items() if c != 0}
    return out


def rdm_from_expectations(expectation, schedule):
    """(rho1, rho2) from a Pauli-word expectation callable, element by element."""
    n = schedule.n_so
    rho1 = np.zeros((n, n))
    rho2 = np.zeros((n, n, n, n))
    elements = schedule.elements1 + schedule.elements2
    for e, (const, terms) in element_terms(elements, n).items():
        value = const + sum(c * expectation(w) for w, c in terms.items())
        if len(e) == 2:
            _set1(rho1, *e, value)
        else:
            _set2(rho2, *e, value)
    return rho1, rho2


def expectation(psi, word):
    """<psi|P|psi> of a Pauli word on an amplitude array, by its dense matrix."""
    return complex(np.vdot(psi, qsim.pauli_matrix(word) @ psi))


def rdm_from_state(psi, schedule):
    return rdm_from_expectations(lambda w: expectation(psi, w).real, schedule)


def table_expectation(table, word):
    """A Pauli word's expectation from one table's counts (its letters must
    match the table's basis)."""
    assert all(c in ("I", b) for c, b in zip(word, table.basis))
    return float(qsim.z_parity_signs(word) @ table.counts / table.counts.sum())


def rdm_from_shots(tables, schedule):
    """Each word's expectation from the first table whose basis measures it."""
    lookup = {}
    for w in (w for words in schedule.words for w in words):
        table = next(t for t in tables
                     if all(c == "I" or c == t.basis[k] for k, c in enumerate(w)))
        lookup[w] = table_expectation(table, w)
    return rdm_from_expectations(lookup.__getitem__, schedule)


def mitigate_readout(table, model):
    """One table's counts through each qubit's inverse confusion matrix,
    clipped at zero and rescaled to the original total."""
    v = np.asarray(table.counts, dtype=float)
    total = v.sum()
    inv = np.ones((1, 1))
    for m in model.readout:  # qubit 0 is the least significant bit
        inv = np.kron(np.linalg.inv(m), inv)
    v = np.clip(inv @ v, 0.0, None)
    return qsim.ShotTable(basis=table.basis, counts=v * (total / v.sum()),
                          shots=table.shots)


def bootstrap(tables, n, pipeline, seed=0):
    """Per-resample values of ``pipeline`` (a list of tables -> dict of
    floats), every table resampled from the resample's own generator."""
    out = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(1, i))))
        resampled = []
        for t in tables:
            v = np.asarray(t.counts, dtype=float)
            resampled.append(qsim.ShotTable(
                basis=t.basis, counts=rng.multinomial(t.shots, v / v.sum()),
                shots=t.shots))
        out.append(pipeline(resampled))
    return out


def embed_active_rdm(active_rdm, spec):
    """(rho1, rho2) of the core embedding, block by block and pair by pair."""
    fo, act = list(spec.frozen_occupied), list(spec.active)
    n = len(fo) + len(act) + len(spec.frozen_virtual)
    r1a = active_rdm.rho1
    rho1 = np.zeros((n, n))
    rho2 = np.zeros((n, n, n, n))
    for c in fo:
        rho1[c, c] = 1.0
    rho1[np.ix_(act, act)] = r1a
    rho2[np.ix_(act, act, act, act)] = active_rdm.rho2
    for c in fo:
        for d in fo:
            if c != d:
                rho2[c, d, c, d] = 1.0
                rho2[c, d, d, c] = -1.0
    for c in fo:
        rho2[np.ix_([c], act, [c], act)] = r1a[None, :, None, :]
        rho2[np.ix_(act, [c], [c], act)] = -r1a[:, None, None, :]
        rho2[np.ix_([c], act, act, [c])] = -r1a[None, :, :, None]
        rho2[np.ix_(act, [c], act, [c])] = r1a[:, None, :, None]
    return rho1, rho2


# ---------------------------------------------------------------------------
# Purification
# ---------------------------------------------------------------------------

def to_pair_basis(pair):
    """rho2 over ordered pairs p < q (lexicographic), symmetrized, in loops."""
    r2 = pair.rho2
    viol = max(np.abs(r2 + r2.transpose(1, 0, 2, 3)).max(),
               np.abs(r2 + r2.transpose(0, 1, 3, 2)).max())
    if viol > 1e-6:
        raise ValidationError(
            f"rho2 antisymmetry violated by {viol:.2e}; upstream assembly is broken")
    pairs = list(combinations(range(pair.n_so), 2))
    m = np.empty((len(pairs), len(pairs)))
    for a, (p, q) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            m[a, b] = r2[p, q, r, s]
    return 0.5 * (m + m.T)


def from_pair_basis(m, n_so):
    """Inverse reshape, writing the four antisymmetric copies one by one."""
    rho2 = np.zeros((n_so,) * 4)
    pairs = list(combinations(range(n_so), 2))
    for a, (p, q) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            v = m[a, b]
            rho2[p, q, r, s] = v
            rho2[q, p, r, s] = -v
            rho2[p, q, s, r] = -v
            rho2[q, p, s, r] = v
    return rho2


def mcweeney(m, tol=1e-10, max_iter=100):
    """Drive a unit-trace symmetric matrix to a projector by iterating
    P -> 3P^2 - 2P^3; returns (P, info) with the iteration count, the final
    ||P^2 - P||_F and whether an eigenvalue started outside the polynomial's
    basin (-0.3, 1.3).  Raises PurificationError when the residual stops
    decreasing or the iterations run out."""
    p = np.array(m, dtype=float)
    evals = np.linalg.eigvalsh(p)
    basin_warning = bool(evals.min() < -0.3 or evals.max() > 1.3)
    residual = float(np.linalg.norm(p @ p - p))
    iterations = 0
    last = np.inf
    for iterations in range(max_iter + 1):
        if residual < tol:
            break
        if residual >= last and residual > 1e-6:
            raise PurificationError(
                f"purification residual stopped decreasing at {residual:.3e}")
        last = residual
        p2 = p @ p
        p = 3.0 * p2 - 2.0 * (p2 @ p)
        residual = float(np.linalg.norm(p @ p - p))
    else:
        raise PurificationError(
            f"no projector after {max_iter} iterations (residual {residual:.3e})")
    return p, {"iterations": iterations, "residual": residual,
               "basin_warning": basin_warning}


def purify_rdm(pair):
    """McWeeny purification of a 2-electron RdmPair: loop reshape, unit
    trace, iteration, physical trace, loop reshape back, rho1 by partial
    trace."""
    m = to_pair_basis(pair)
    tr = float(np.trace(m))
    if tr <= 0:
        raise PurificationError(f"nonpositive pair trace {tr:.3e}")
    p, info = mcweeney(m / tr)
    ptr = float(np.trace(p))
    if ptr <= 0.5:
        raise PurificationError("purification collapsed to the zero projector")
    rho2 = from_pair_basis(p * (1.0 / ptr), pair.n_so)
    rho1 = np.einsum("prqr->pq", rho2)
    return rdm.RdmPair(rho1, rho2, replace(pair.meta, provenance="purified",
                                           purification=info))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def linear_trust_region(f, x0, settings):
    """Run to convergence and return the final trust radius."""
    n = x0.size
    rho = settings.rhobeg
    points = [x0]
    values = [f(x0)]

    def rebuild(center, radius):
        del points[:], values[:]
        points.append(center)
        values.append(f(center))
        for k in range(n):
            step = np.zeros(n)
            step[k] = radius if center[k] + radius <= vqe.BOUNDS[1] else -radius
            points.append(vqe._clip(center + step))
            values.append(f(points[-1]))

    rebuild(x0, rho)
    while True:
        b = int(np.argmin(values))
        xb, fb = points[b], values[b]
        d = np.array([points[k] - xb for k in range(len(points)) if k != b])
        df = np.array([values[k] - fb for k in range(len(points)) if k != b])
        try:
            grad, *_ = np.linalg.lstsq(d, df, rcond=None)
        except np.linalg.LinAlgError:
            rebuild(xb, rho)
            continue
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14 or np.linalg.matrix_rank(d, tol=1e-12 * rho) < n:
            rho *= 0.5
            if rho < settings.rhoend:
                return rho
            rebuild(xb, rho)
            continue
        x_new = vqe._clip(xb - rho * grad / gnorm)
        f_new = f(x_new)
        predicted = rho * gnorm
        if fb - f_new > 0.1 * predicted:
            w = int(np.argmax(values))
            points[w] = x_new
            values[w] = f_new
        else:
            rho *= 0.5
            if rho < settings.rhoend:
                return rho
            rebuild(xb, rho)
