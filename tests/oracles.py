"""Test-only reference implementations that the package no longer carries.

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
density-matrix channel must reproduce.
"""

import math

import numpy as np

from rdmpt2 import pt2, qsim
from rdmpt2.hamio import ValidationError
from rdmpt2.pt2 import DENOMINATOR_FLOOR, DegenerateDenominatorError

_PAULIS_1Q = [qsim._PAULI_MATS[c] for c in "XYZ"]
_PAULIS_2Q = [np.kron(qsim._PAULI_MATS[a], qsim._PAULI_MATS[b])
              for a in "IXYZ" for b in "IXYZ"][1:]  # drop II


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


def trajectory_counts(circuit, model, shots, seed):
    """Per-shot trajectory sampling of ``circuit`` under ``model``:
    {bitstring: count}, seeded like the package's channel."""
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
    vals, cnts = np.unique(outcomes, return_counts=True)
    return {qsim.bitstring(int(i), n): int(c) for i, c in zip(vals, cnts)}


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
