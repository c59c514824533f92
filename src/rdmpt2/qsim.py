"""Qubit-register simulation: Jordan-Wigner operators, the 3-parameter
ansatz, amplitude arrays for exact expectations, an exact density-matrix
channel (depolarizing gate noise, readout confusion) that draws each
circuit's shots in one multinomial, and readout mitigation.

Qubit k hosts spin orbital k (alpha/beta interleaved).  Basis states are
little-endian: bit k of the amplitude index, and of a count vector's
outcome index, is the occupation of qubit k.

Operators are dense 2^n x 2^n matrices in that basis: ``jw_ladder`` gives
a_p, and products of them are matmuls.  A Pauli word is a plain string
whose letter k (I, X, Y or Z) acts on qubit k; ``pauli_matrix`` gives its
matrix and ``z_parity_signs`` its eigenvalue on each outcome after its
basis rotation.

One primitive, ``_apply_gate_batch``, applies every gate to amplitudes, every
noisy gate (one superoperator) to vec(rho) and every confusion matrix.  It
reads the gate's blocks through an index table cached per (qubits, register
size), or as a strided view when the gate acts on the lowest qubits, and
contracts them with one ``einsum``.

A ``NoiseModel``'s fields are ``p1``/``p2``, the depolarizing probability
after each one-/two-qubit gate (a real in [0, 1]); ``readout``, one flip
probability for every qubit (None: 0.02) or one 2x2 confusion matrix per
qubit; and ``n_qubits``, an integer >= 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hamio import ValidationError, _is_count, _is_finite, _reject_unknown

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word (letter k acts on qubit k) in the
    little-endian basis."""
    m = np.ones((1, 1), dtype=complex)
    for c in word:  # kron grows most-significant side first
        m = np.kron(_PAULI_MATS[c], m)
    return m


def z_parity_signs(word: str) -> np.ndarray:
    """(-1)^(bit parity on the word's support) for every basis index: the
    word's eigenvalue on each outcome once its basis is rotated onto Z."""
    idx = np.arange(1 << len(word))
    signs = np.ones(idx.size)
    for k, c in enumerate(word):
        if c != "I":
            signs *= 1 - 2.0 * ((idx >> k) & 1)
    return signs


def jw_ladder(p: int, n_qubits: int) -> np.ndarray:
    """Jordan-Wigner matrix of a_p: Z on the qubits below p and |0><1| on p,
    which is (X_p + i Y_p)/2 times Z_{p-1}..Z_0."""
    if p < 0 or p >= n_qubits:
        raise ValidationError(f"mode index {p} out of range for {n_qubits} qubits")
    zs, tail = "Z" * p, "I" * (n_qubits - p - 1)
    return 0.5 * (pauli_matrix(zs + "X" + tail) + 1j * pauli_matrix(zs + "Y" + tail))


# ---------------------------------------------------------------------------
# Gates and circuits
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = _PAULI_MATS["X"]
_SDG = np.diag([1, -1j]).astype(complex)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_FSWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
                  dtype=complex)


def _givens(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                    dtype=complex)


@dataclass(frozen=True)
class Gate:
    qubits: tuple
    matrix: np.ndarray

    @property
    def arity(self) -> int:
        return len(self.qubits)


@dataclass
class Circuit:
    """An ordered gate list on a fixed register.

    Two-qubit matrices use the local basis |n_a n_b> for qubits (a, b) with
    the first-listed qubit as the most significant local bit.
    """

    n_qubits: int
    gates: list = field(default_factory=list)

    def add(self, qubits, matrix):
        q = tuple(qubits)
        if len(set(q)) != len(q) or any(k < 0 or k >= self.n_qubits for k in q):
            raise ValidationError(f"bad qubit tuple {q}")
        self.gates.append(Gate(q, np.asarray(matrix, dtype=complex)))
        return self

    def x(self, q):
        return self.add((q,), _X)

    def h(self, q):
        return self.add((q,), _H)

    def sdg(self, q):
        return self.add((q,), _SDG)

    def cnot(self, control, target):
        return self.add((control, target), _CNOT)

    def cz(self, a, b):
        return self.add((a, b), _CZ)

    def fswap(self, a, b):
        return self.add((a, b), _FSWAP)

    def givens(self, a, b, phi):
        return self.add((a, b), _givens(phi))

    def unitary(self) -> np.ndarray:
        rows = np.eye(1 << self.n_qubits, dtype=complex)  # row k evolves |k>
        for gate in self.gates:
            rows = _apply_gate_batch(rows, gate.matrix, gate.qubits, self.n_qubits)
        return rows.T


def simulate(circuit: Circuit) -> np.ndarray:
    """The amplitudes of ``circuit`` run from |0...0>, over the 2^n
    little-endian basis."""
    amplitudes = np.zeros((1, 1 << circuit.n_qubits), dtype=complex)
    amplitudes[0, 0] = 1.0
    for gate in circuit.gates:
        amplitudes = _apply_gate_batch(amplitudes, gate.matrix, gate.qubits,
                                       circuit.n_qubits)
    return amplitudes[0]


@functools.cache
def _gate_index(qubits, n_qubits):
    """Where a gate on the m ``qubits`` of an n-qubit register finds its
    (2^m, 2^(n-m)) blocks of basis indices, row j setting the gate's bits to
    j (the first-listed qubit most significant) and column k the other
    qubits' bits to k (the highest most significant).

    None when the qubits are the lowest m, listed from the highest down: a
    block is then a strided view of the batch.  Otherwise the table of
    indices and its inverse permutation."""
    m = len(qubits)
    if qubits == tuple(range(m - 1, -1, -1)):
        return None
    axes = [n_qubits - 1 - q for q in qubits]  # axis of qubit q in a (2,) * n view
    idx = np.moveaxis(np.arange(1 << n_qubits).reshape((2,) * n_qubits), axes,
                      range(m)).reshape(1 << m, -1)
    inverse = np.argsort(idx, axis=None)
    idx.flags.writeable = inverse.flags.writeable = False  # shared by every call
    return idx, inverse


def _apply_gate_batch(states, matrix, qubits, n_qubits):
    """Apply a 2^m x 2^m matrix to ``qubits`` of a (batch, 2^n) array, the
    first-listed qubit being the most significant local bit.

    The amplitudes are read as (batch, 2^m, 2^(n-m)) blocks through
    ``_gate_index``, contracted with one ``einsum`` and put back.  ``einsum``
    picks its inner loop, and with it the rounding of its sums, from the
    block's memory layout.  A gathered block is C-contiguous; on the lowest
    qubits, whose bits vary fastest, the block is a strided view instead, as
    in the moveaxis form of the tests' ``oracles.apply_gate_batch``, which
    this matches bit for bit."""
    batch = states.shape[0]
    tables = _gate_index(tuple(qubits), n_qubits)
    if tables is None:
        block = states.reshape(batch, -1, matrix.shape[0]).transpose(0, 2, 1)
        out = np.einsum("ij,bjk->bik", matrix, block)
        return out.transpose(0, 2, 1).reshape(batch, -1)
    idx, inverse = tables
    out = np.einsum("ij,bjk->bik", matrix, states.take(idx, axis=1))
    return out.reshape(batch, -1).take(inverse, axis=1)


# ---------------------------------------------------------------------------
# The 3-parameter ansatz (4 qubits, 2 electrons)
# ---------------------------------------------------------------------------

ANSATZ_QUBITS = 4


def build_ansatz(params) -> Circuit:
    """Reference-state preparation plus the three excitation rotations.

    ``params`` holds three angles: theta0 drives the paired double, theta1
    and theta2 the alpha and beta singles; (0, 0, 0) prepares the reference
    determinant.  Each excitation is compiled to two-qubit primitives
    (Givens partial swaps with fermionic-swap / CNOT conjugation).  At
    theta = pi the corresponding excitation has full weight; the unitary on
    the N=2, Sz=0 sector matches the exact exponentials of the Jordan-Wigner
    generators.
    """
    theta0, theta1, theta2 = (float(t) for t in params)
    c = Circuit(ANSATZ_QUBITS)
    c.x(0).x(1)
    # paired double 01 -> 23: Givens on the pair marker, anti-controlled on q0
    c.cnot(1, 0).cnot(3, 2)
    c.givens(1, 3, -theta0 / 4).cz(0, 1).givens(1, 3, -theta0 / 4).cz(0, 1)
    c.cnot(3, 2).cnot(1, 0)
    # alpha single 0 -> 2 (modes made adjacent by a fermionic swap)
    c.fswap(1, 2).givens(0, 1, -theta1 / 2).fswap(1, 2)
    # beta single 1 -> 3
    c.fswap(2, 3).givens(1, 2, -theta2 / 2).fswap(2, 3)
    return c


# ---------------------------------------------------------------------------
# Noise model and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Depolarizing-plus-readout noise description, checked on construction.

    ``readout[q]`` is the 2x2 confusion matrix with columns indexed by the
    true bit: readout[q][m, t] = P(measured m | true t).  It is read-only,
    and so is ``readout_inverse``, the Kronecker product of the inverses
    (qubit 0 least significant) that the singular check builds and
    ``mitigate_readout`` applies.  Models compare and hash by identity.
    """

    p1: float = 0.001
    p2: float = 0.01
    readout: np.ndarray = None
    n_qubits: int = ANSATZ_QUBITS

    def __post_init__(self):
        if not _is_count(self.n_qubits):
            raise ValidationError(f"n_qubits must be an integer >= 1, got {self.n_qubits!r}")
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if not (_is_finite(value) and 0 <= value <= 1):
                raise ValidationError(f"{name} must be a real number in [0, 1], got {value!r}")
        readout = self.readout
        if readout is None or _is_finite(readout):  # a bool is neither
            eps = 0.02 if readout is None else readout
            readout = [[[1 - eps, eps], [eps, 1 - eps]]] * self.n_qubits
        try:
            readout = np.array(readout, dtype=float)  # a copy the caller cannot edit
        except (TypeError, ValueError):
            readout = None
        if readout is None or readout.shape != (self.n_qubits, 2, 2):
            raise ValidationError("readout must be a flip probability or one 2x2 "
                                  f"matrix per qubit, got {self.readout!r}")
        readout.flags.writeable = False
        object.__setattr__(self, "readout", readout)
        if not np.allclose(readout.sum(axis=1), 1.0, atol=1e-10):
            raise ValidationError("confusion matrix columns must sum to 1")
        if ((readout < 0) | (readout > 1)).any():
            raise ValidationError("confusion matrix entries must be in [0, 1]")
        inverse = np.ones((1, 1))
        for q, confusion in enumerate(readout):  # qubit 0 is the least significant bit
            try:
                inverse = np.kron(np.linalg.inv(confusion), inverse)
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"singular confusion matrix on qubit {q}") from exc
        inverse.flags.writeable = False
        object.__setattr__(self, "readout_inverse", inverse)  # outside fields()

    @classmethod
    def ideal(cls, n_qubits=ANSATZ_QUBITS):
        return cls(p1=0.0, p2=0.0,
                   readout=np.array([np.eye(2)] * n_qubits), n_qubits=n_qubits)

    @classmethod
    def from_dict(cls, cfg):
        """The inverse of ``to_dict``; a missing field takes its default."""
        _reject_unknown(cfg, cls, "noise-model")
        return cls(**cfg)

    def to_dict(self) -> dict:
        return {"p1": float(self.p1), "p2": float(self.p2), "n_qubits": self.n_qubits,
                "readout": self.readout.tolist()}


@dataclass
class ShotTable:
    """Measured counts for one basis-rotated sampling circuit: ``basis``
    names the measured Pauli basis per qubit (Z where untouched),
    ``counts[i]`` counts the little-endian outcome i, and ``shots`` is the
    number drawn."""

    basis: str
    counts: np.ndarray
    shots: int


def _rng_for(seed, *key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


def _channel(gate: Gate, p: float) -> np.ndarray:
    """``gate`` then depolarizing noise p as one matrix on vec(local rho):
    U rho U^dagger is S = kron(U, conj U), and as the d^2 - 1 non-identity
    Paulis sum to d (I x Tr_gate rho) - rho, with Tr_gate = <e| for
    e = vec(I_d), (1 - p) rho + p/(d^2 - 1) sum_P P rho P is S plus rank one."""
    d = gate.matrix.shape[0]
    s = np.kron(gate.matrix, gate.matrix.conj())
    e = np.eye(d).reshape(-1)
    w = p / (d * d - 1)
    return (1 - p - w) * s + w * d * np.outer(e, e @ s)


def _evolve(rho, gates, model: NoiseModel):
    """Apply each gate and its noise as one ``_channel`` on vec(rho), a
    2n-qubit vector whose qubit q is column qubit q and qubit q + n row qubit
    q; the row qubits are listed first, matching kron(U, conj U)."""
    n = model.n_qubits
    vec = rho.reshape(1, -1)
    for gate in gates:
        p = model.p1 if gate.arity == 1 else model.p2
        rows = tuple(q + n for q in gate.qubits)
        vec = _apply_gate_batch(vec, _channel(gate, p), rows + gate.qubits, 2 * n)
    return vec.reshape(rho.shape)


def _model_for(circuit: Circuit, model) -> NoiseModel:
    if model is None:
        return NoiseModel.ideal(circuit.n_qubits)
    if model.n_qubits != circuit.n_qubits:
        raise ValidationError(f"noise model is for {model.n_qubits} qubits, "
                              f"the circuit has {circuit.n_qubits}")
    return model


def noisy_density_matrix(circuit: Circuit, model: NoiseModel | None) -> np.ndarray:
    """The exact density matrix of ``circuit`` run from |0...0> under the
    model's gate noise (readout noise acts only on measurement)."""
    model = _model_for(circuit, model)
    rho = np.zeros((1 << model.n_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    return _evolve(rho, circuit.gates, model)


def _draw(rho, model: NoiseModel, shots: int, seed) -> np.ndarray:
    """One multinomial draw from the readout-confused Born distribution: the
    diagonal of ``rho`` passes each qubit's confusion matrix in turn."""
    probs = rho.diagonal().real[None, :]
    for q, confusion in enumerate(model.readout):
        probs = _apply_gate_batch(probs, confusion, (q,), model.n_qubits)
    probs = np.clip(probs[0], 0.0, None)
    return _rng_for(seed, 0).multinomial(shots, probs / probs.sum())


def qwc_groups(words):
    """Greedy grouping of Pauli words into qubit-wise commuting sets.

    Returns (group basis strings, assignment list index->group).
    """
    bases = []
    assignment = []
    for word in words:
        placed = False
        for gi, basis in enumerate(bases):
            merged = list(basis)
            ok = True
            for k, c in enumerate(word):
                if c == "I":
                    continue
                if merged[k] == "I":
                    merged[k] = c
                elif merged[k] != c:
                    ok = False
                    break
            if ok:
                bases[gi] = merged
                assignment.append(gi)
                placed = True
                break
        if not placed:
            bases.append(list(word))
            assignment.append(len(bases) - 1)
    return ["".join("Z" if c == "I" else c for c in b) for b in bases], assignment


def basis_rotation(basis: str) -> Circuit:
    """Gates mapping the given per-qubit Pauli basis onto Z measurements."""
    c = Circuit(len(basis))
    for q, b in enumerate(basis):
        if b == "X":
            c.h(q)
        elif b == "Y":
            c.sdg(q)
            c.h(q)
    return c


def measure_pauli_sets(circuit, bases, shots, model=None, seed=0):
    """Sample one circuit per measurement basis (the group bases of
    ``qwc_groups``, as ``MeasurementSchedule.bases`` holds them).

    The noisy density matrix of ``circuit`` is evolved once; each group then
    passes its basis-rotation tail (one superoperator per gate) and draws its
    shots, so a group's counts equal the per-circuit channel of the tests'
    ``oracles.apply_noise`` on its rotated circuit."""
    if shots <= 0:
        raise ValidationError("shots must be positive")
    model = _model_for(circuit, model)
    prefix = noisy_density_matrix(circuit, model)
    tables = []
    for gi, basis in enumerate(bases):
        rho = _evolve(prefix, basis_rotation(basis).gates, model)
        tables.append(ShotTable(basis=basis, counts=_draw(rho, model, shots,
                                                          _group_seed(seed, gi)),
                                shots=shots))
    return tables


def _group_seed(seed, group_index):
    return (int(seed) << 16) + group_index


def mitigate_readout(counts, model: NoiseModel):
    """Invert the per-qubit confusion matrices on a (..., 2^n) stack of counts.

    One matmul with ``model.readout_inverse``, the Kronecker product of the
    inverses, gives every row's quasi-counts; negative ones are clipped to
    zero and each row is renormalized to probabilities.  Returns those and,
    per row, the clipped negative mass as a fraction of the row's total.

    No row can lose all its mass to clipping: the model makes each confusion
    matrix column-stochastic, so the columns of the inverse sum to 1 as well,
    a row's quasi-counts sum to its total, which is checked to be positive,
    and at least one of them is positive and survives the clip.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1)
    if (total <= 0).any():
        raise ValidationError("empty shot table")
    quasi = counts @ model.readout_inverse.T
    kept = np.clip(quasi, 0.0, None)
    return kept / kept.sum(axis=-1, keepdims=True), (kept - quasi).sum(axis=-1) / total
