"""Qubit-register simulation: Jordan-Wigner operators, the 3-parameter
ansatz, statevectors for exact expectations, an exact density-matrix channel
(depolarizing gate noise, readout confusion) that draws each circuit's shots
in one multinomial, and readout mitigation.

Qubit k hosts spin orbital k (alpha/beta interleaved).  Basis states are
little-endian: bit k of the amplitude index is the occupation of qubit k, and
bitstrings are printed with qubit 0 as the leftmost character.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hamio import ValidationError

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-qubit product table: (a, b) -> (phase, result)
_MUL = {}
for _a in "IXYZ":
    _MUL[("I", _a)] = (1.0, _a)
    _MUL[(_a, "I")] = (1.0, _a)
    _MUL[(_a, _a)] = (1.0, "I")
_MUL[("X", "Y")] = (1j, "Z")
_MUL[("Y", "X")] = (-1j, "Z")
_MUL[("Y", "Z")] = (1j, "X")
_MUL[("Z", "Y")] = (-1j, "X")
_MUL[("Z", "X")] = (1j, "Y")
_MUL[("X", "Z")] = (-1j, "Y")


@dataclass(frozen=True)
class PauliString:
    """A Pauli word with a complex coefficient.

    ``ops`` holds one letter per qubit (position k = qubit k).
    """

    ops: str
    coeff: complex = 1.0

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.ops):
            raise ValidationError(f"bad Pauli label {self.ops!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    @property
    def support(self) -> tuple:
        return tuple(k for k, c in enumerate(self.ops) if c != "I")

    def __mul__(self, other: "PauliString") -> "PauliString":
        if len(self.ops) != len(other.ops):
            raise ValidationError("qubit counts differ")
        phase = self.coeff * other.coeff
        out = []
        for a, b in zip(self.ops, other.ops):
            ph, c = _MUL[(a, b)]
            phase *= ph
            out.append(c)
        return PauliString("".join(out), phase)

    def matrix(self) -> np.ndarray:
        """Dense matrix in the little-endian basis (qubit 0 = LSB)."""
        m = np.array([[self.coeff]], dtype=complex)
        for c in self.ops:  # kron grows most-significant side first
            m = np.kron(_PAULI_MATS[c], m)
        return m

    def z_parity_signs(self) -> np.ndarray:
        """(-1)^(bit parity on support) for every basis index; requires I/Z only
        up to a basis rotation, used for expectation from counts."""
        n = len(self.ops)
        signs = np.ones(1 << n)
        idx = np.arange(1 << n)
        for k in self.support:
            signs *= 1 - 2.0 * ((idx >> k) & 1)
        return signs


def combine_paulis(terms, tol=1e-14):
    """Sum a list of PauliStrings, merging like words and dropping zeros."""
    acc = {}
    for t in terms:
        acc[t.ops] = acc.get(t.ops, 0.0) + t.coeff
    return [PauliString(ops, c) for ops, c in sorted(acc.items()) if abs(c) > tol]


def jw_ladder(p: int, n_qubits: int, dagger: bool):
    """Jordan-Wigner image of a_p (or a_p^dagger): 1/2 (X_p +- i Y_p) Z_{p-1}..Z_0."""
    if p < 0 or p >= n_qubits:
        raise ValidationError(f"mode index {p} out of range for {n_qubits} qubits")
    zs = "Z" * p
    tail = "I" * (n_qubits - p - 1)
    sign = -1j if dagger else 1j
    return [PauliString(zs + "X" + tail, 0.5),
            PauliString(zs + "Y" + tail, 0.5 * sign)]


def jw_operator(ops, n_qubits: int):
    """Pauli expansion of a product of ladder operators.

    ``ops`` is a sequence of (mode index, dagger flag), applied left to right
    as written, e.g. [(1, True), (0, False)] is a_1^dagger a_0.
    """
    terms = [PauliString("I" * n_qubits, 1.0)]
    for p, dag in ops:
        factors = jw_ladder(p, n_qubits, dag)
        terms = [t * f for t in terms for f in factors]
    return combine_paulis(terms)


def jw_hermitian(ops, n_qubits: int):
    """Pauli expansion of (A + A^dagger)/2 for the ladder product A."""
    fwd = jw_operator(ops, n_qubits)
    rev = jw_operator([(p, not dag) for p, dag in reversed(ops)], n_qubits)
    out = combine_paulis(fwd + rev)
    return [PauliString(t.ops, 0.5 * t.coeff) for t in out]


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
    name: str
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

    def add(self, name, qubits, matrix):
        q = tuple(qubits)
        if len(set(q)) != len(q) or any(k < 0 or k >= self.n_qubits for k in q):
            raise ValidationError(f"bad qubit tuple {q}")
        self.gates.append(Gate(name, q, np.asarray(matrix, dtype=complex)))
        return self

    def x(self, q):
        return self.add("x", (q,), _X)

    def h(self, q):
        return self.add("h", (q,), _H)

    def sdg(self, q):
        return self.add("sdg", (q,), _SDG)

    def cnot(self, control, target):
        return self.add("cnot", (control, target), _CNOT)

    def cz(self, a, b):
        return self.add("cz", (a, b), _CZ)

    def fswap(self, a, b):
        return self.add("fswap", (a, b), _FSWAP)

    def givens(self, a, b, phi):
        return self.add("givens", (a, b), _givens(phi))

    def extended(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValidationError("register sizes differ")
        return Circuit(self.n_qubits, list(self.gates) + list(other.gates))

    def unitary(self) -> np.ndarray:
        rows = np.eye(1 << self.n_qubits, dtype=complex)  # row k evolves |k>
        for gate in self.gates:
            rows = _apply_gate_batch(rows, gate, self.n_qubits)
        return rows.T


class StateVector:
    """Complex amplitudes over the 2^n little-endian basis."""

    def __init__(self, amplitudes, n_qubits=None):
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        self.n_qubits = n_qubits if n_qubits is not None else int(
            np.log2(self.amplitudes.size))
        if self.amplitudes.size != 1 << self.n_qubits:
            raise ValidationError("amplitude count is not a power of two")

    @classmethod
    def computational(cls, n_qubits, index=0):
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n_qubits)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def apply(self, gate: Gate):
        self.amplitudes = _apply_gate_batch(
            self.amplitudes[None, :], gate, self.n_qubits)[0]
        return self

    def probabilities(self):
        return np.abs(self.amplitudes) ** 2

    def expectation(self, pauli: PauliString) -> complex:
        return complex(np.vdot(self.amplitudes, pauli.matrix() @ self.amplitudes))


def simulate(circuit: Circuit) -> StateVector:
    sv = StateVector.computational(circuit.n_qubits, 0)
    for gate in circuit.gates:
        sv.apply(gate)
    return sv


def _apply_gate_batch(states, gate, n_qubits):
    """Apply a 1- or 2-qubit gate to a (batch, 2^n) array of amplitudes."""
    batch = states.shape[0]
    t = states.reshape((batch,) + (2,) * n_qubits)
    # axis for qubit k in the reshaped tensor (axis 0 is the batch)
    axes = [1 + (n_qubits - 1 - q) for q in gate.qubits]
    m = len(axes)
    t = np.moveaxis(t, axes, range(1, 1 + m))
    lead = t.shape[1 + m:]
    t = t.reshape(batch, 1 << m, -1)
    t = np.einsum("ij,bjk->bik", gate.matrix, t)
    t = t.reshape((batch,) + (2,) * m + lead)
    t = np.moveaxis(t, range(1, 1 + m), axes)
    return t.reshape(batch, 1 << n_qubits)


# ---------------------------------------------------------------------------
# The 3-parameter ansatz (4 qubits, 2 electrons)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzParameters:
    """Angles driving the paired double (theta0) and the alpha/beta single
    excitations (theta1/theta2); (0,0,0) prepares the reference determinant."""

    theta0: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0

    def __iter__(self):
        return iter((self.theta0, self.theta1, self.theta2))

    @classmethod
    def from_any(cls, params):
        if isinstance(params, cls):
            return params
        t0, t1, t2 = params
        return cls(float(t0), float(t1), float(t2))


def build_ansatz(params) -> Circuit:
    """Reference-state preparation plus the three excitation rotations.

    Each excitation is compiled to two-qubit primitives (Givens partial swaps
    with fermionic-swap / CNOT conjugation).  At theta = pi the corresponding
    excitation has full weight; the unitary on the N=2, Sz=0 sector matches
    the exact exponentials of the Jordan-Wigner generators.
    """
    p = AnsatzParameters.from_any(params)
    c = Circuit(4)
    c.x(0).x(1)
    # paired double 01 -> 23: Givens on the pair marker, anti-controlled on q0
    c.cnot(1, 0).cnot(3, 2)
    c.givens(1, 3, -p.theta0 / 4).cz(0, 1).givens(1, 3, -p.theta0 / 4).cz(0, 1)
    c.cnot(3, 2).cnot(1, 0)
    # alpha single 0 -> 2 (modes made adjacent by a fermionic swap)
    c.fswap(1, 2).givens(0, 1, -p.theta1 / 2).fswap(1, 2)
    # beta single 1 -> 3
    c.fswap(2, 3).givens(1, 2, -p.theta2 / 2).fswap(2, 3)
    return c


HF_INDEX = 0b0011  # qubits 0 and 1 occupied


# ---------------------------------------------------------------------------
# Noise model and sampling
# ---------------------------------------------------------------------------

@dataclass
class NoiseModel:
    """Depolarizing-plus-readout noise description.

    ``readout[q]`` is the 2x2 confusion matrix with columns indexed by the
    true bit: readout[q][m, t] = P(measured m | true t).
    """

    p1: float = 0.001
    p2: float = 0.01
    readout: np.ndarray = None
    n_qubits: int = 4

    def __post_init__(self):
        if not (0 <= self.p1 <= 1 and 0 <= self.p2 <= 1):
            raise ValidationError("depolarizing probabilities must be in [0, 1]")
        if self.readout is None:
            eps = 0.02
            self.readout = np.array([[[1 - eps, eps], [eps, 1 - eps]]] * self.n_qubits)
        self.readout = np.asarray(self.readout, dtype=float)
        if self.readout.shape != (self.n_qubits, 2, 2):
            raise ValidationError("readout must be one 2x2 matrix per qubit")
        if not np.allclose(self.readout.sum(axis=1), 1.0, atol=1e-10):
            raise ValidationError("confusion matrix columns must sum to 1")

    @classmethod
    def ideal(cls, n_qubits=4):
        return cls(p1=0.0, p2=0.0,
                   readout=np.array([np.eye(2)] * n_qubits), n_qubits=n_qubits)

    @classmethod
    def from_dict(cls, cfg):
        unknown = sorted(set(cfg) - {"p1", "p2", "readout", "n_qubits"})
        if unknown:
            raise ValidationError(f"unknown noise-model keys: {', '.join(unknown)}")
        n = int(cfg.get("n_qubits", 4))
        readout = cfg.get("readout")
        if isinstance(readout, (int, float)):
            eps = float(readout)
            readout = [[[1 - eps, eps], [eps, 1 - eps]]] * n
        return cls(p1=float(cfg.get("p1", 0.001)), p2=float(cfg.get("p2", 0.01)),
                   readout=np.asarray(readout) if readout is not None else None,
                   n_qubits=n)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        return {"p1": float(self.p1), "p2": float(self.p2), "n_qubits": self.n_qubits,
                "readout": self.readout.tolist()}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def bitstring(index: int, n_qubits: int) -> str:
    """Qubit-0-first bitstring for a little-endian basis index."""
    return "".join(str((index >> k) & 1) for k in range(n_qubits))


@dataclass
class ShotTable:
    """Measured counts for one basis-rotated sampling circuit.

    ``basis`` names the measured Pauli basis per qubit (Z where untouched);
    ``counts[i]`` counts the little-endian outcome i.  The JSON form keys the
    nonzero counts by bitstring.
    """

    basis: str
    counts: np.ndarray
    shots: int
    seed: int = 0
    n_qubits: int = 4

    def to_json(self) -> dict:
        counts = {bitstring(i, self.n_qubits): c
                  for i, c in enumerate(self.counts.tolist()) if c}
        return {"basis": self.basis, "counts": dict(sorted(counts.items())),
                "shots": self.shots, "seed": self.seed, "n_qubits": self.n_qubits}

    @classmethod
    def from_json(cls, d) -> "ShotTable":
        n = int(d["n_qubits"])
        counts = [0] * (1 << n)
        for bits, c in d["counts"].items():
            if len(bits) != n:
                raise ValidationError(f"bitstring {bits!r} has wrong length")
            counts[int(bits[::-1], 2)] = c  # qubit 0 is the leftmost bit
        return cls(basis=d["basis"], counts=np.asarray(counts), shots=int(d["shots"]),
                   seed=int(d.get("seed", 0)), n_qubits=n)


def _rng_for(seed, *key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


def _depolarize(rho, qubits, p, n_qubits):
    """Depolarizing channel on ``qubits`` of a 2^n x 2^n density matrix.

    The d^2 - 1 non-identity Paulis of a d = 2^k dimensional gate sum to
    d (I_gate x Tr_gate rho) - rho, so the channel
    (1 - p) rho + p/(d^2 - 1) sum_P P rho P needs one partial trace.
    """
    d = 1 << len(qubits)
    t = rho.reshape((2,) * (2 * n_qubits))
    for q in qubits:  # trace out qubit q and put the identity in its place
        row, col = n_qubits - 1 - q, 2 * n_qubits - 1 - q
        eye = np.eye(2).reshape([2 if ax in (row, col) else 1
                                 for ax in range(2 * n_qubits)])
        t = np.expand_dims(np.trace(t, axis1=row, axis2=col), (row, col)) * eye
    twirl = t.reshape(rho.shape)
    return (1 - p) * rho + p / (d * d - 1) * (d * twirl - rho)


def _evolve(rho, gates, model: NoiseModel):
    """Apply each gate as rho -> U rho U^dagger followed by its noise."""
    n = model.n_qubits
    for gate in gates:
        rho = _apply_gate_batch(rho.T, gate, n).T
        rho = _apply_gate_batch(rho.conj(), gate, n).conj()
        p = model.p1 if gate.arity == 1 else model.p2
        if p > 0:
            rho = _depolarize(rho, gate.qubits, p, n)
    return rho


def _per_qubit(v, mats):
    """Apply the 2x2 matrix mats[q] to qubit q of a 2^n vector."""
    n = len(mats)
    t = v.reshape((2,) * n)
    for q, m in enumerate(mats):
        axis = n - 1 - q
        t = np.moveaxis(np.tensordot(m, np.moveaxis(t, axis, 0), axes=(1, 0)), 0, axis)
    return t.reshape(-1)


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
    """One multinomial draw from the readout-confused Born distribution."""
    if shots <= 0:
        raise ValidationError("shots must be positive")
    probs = np.clip(_per_qubit(rho.diagonal().real, model.readout), 0.0, None)
    return _rng_for(seed, 0).multinomial(shots, probs / probs.sum())


def apply_noise(circuit: Circuit, model: NoiseModel | None, seed: int):
    """A seeded noisy sampling channel for one circuit.

    The circuit's exact noisy density matrix is evolved once; the returned
    callable shots -> count vector draws all shots in one multinomial
    over the readout-confused outcome distribution.  ``model=None`` samples
    the exact Born distribution.
    """
    model = _model_for(circuit, model)
    rho = noisy_density_matrix(circuit, model)
    return lambda shots: _draw(rho, model, shots, seed)


def qwc_groups(observables):
    """Greedy grouping into qubit-wise commuting sets.

    Returns (group basis strings, assignment list index->group).
    """
    bases = []
    assignment = []
    for obs in observables:
        placed = False
        for gi, basis in enumerate(bases):
            merged = list(basis)
            ok = True
            for k, c in enumerate(obs.ops):
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
            bases.append(list(obs.ops))
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

    The noisy state is evolved once and each group adds its basis rotation,
    so a group's counts equal ``apply_noise`` on its rotated circuit."""
    if shots <= 0:
        raise ValidationError("shots must be positive")
    model = _model_for(circuit, model)
    prefix = noisy_density_matrix(circuit, model)
    tables = []
    for gi, basis in enumerate(bases):
        rho = _evolve(prefix, basis_rotation(basis).gates, model)
        tables.append(ShotTable(basis=basis, counts=_draw(rho, model, shots,
                                                          _group_seed(seed, gi)),
                                shots=shots, seed=seed, n_qubits=circuit.n_qubits))
    return tables


def _group_seed(seed, group_index):
    return (int(seed) << 16) + group_index


def mitigate_readout(counts, model: NoiseModel):
    """Invert the per-qubit confusion matrices on a (..., 2^n) stack of counts.

    One matmul with the Kronecker product of the inverses gives every row's
    quasi-counts; negative ones are clipped to zero and each row is
    renormalized to probabilities.  Returns those and, per row, the clipped
    negative mass as a fraction of the row's total.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1)
    if (total <= 0).any():
        raise ValidationError("empty shot table")
    inv = np.ones((1, 1))
    for q in range(model.n_qubits):  # qubit 0 is the least significant bit
        try:
            inv = np.kron(np.linalg.inv(model.readout[q]), inv)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"singular confusion matrix on qubit {q}") from exc
    quasi = counts @ inv.T
    kept = np.clip(quasi, 0.0, None)
    norm = kept.sum(axis=-1, keepdims=True)
    if (norm <= 0).any():
        raise ValidationError("mitigation annihilated all counts")
    return kept / norm, (kept - quasi).sum(axis=-1) / total
