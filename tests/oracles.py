"""Test-only reference implementations that the package no longer carries.

``trajectory_counts`` is the per-shot stochastic-Pauli sampler the package
used before it switched to an exact density-matrix channel: every shot
evolves its own statevector, draws a Pauli error after each gate with the
gate's depolarizing probability, samples an outcome and flips each bit
through the readout confusion matrix.  Its shot distribution is the one the
density-matrix channel must reproduce.
"""

import numpy as np

from rdmpt2 import qsim

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
