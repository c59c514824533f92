"""Qubit-register simulation: Jordan-Wigner operators, the 3-parameter
ansatz, an exact density-matrix channel (depolarizing gate noise, readout
confusion) compiled into a map of the ansatz angles that gives every
measurement basis's outcome distribution, exact or sampled, and readout
mitigation.

Qubit k hosts spin orbital k (alpha/beta interleaved).  Basis states are
little-endian: bit k of a basis-state index, and of a count vector's
outcome index, is the occupation of qubit k.

Operators are dense 2^n x 2^n matrices in that basis: ``jw_ladder`` gives
a_p, and products of them are matmuls.  A Pauli word is a plain string
whose letter k (I, X, Y or Z) acts on qubit k; ``pauli_matrix`` gives its
matrix and ``z_parity_signs`` its eigenvalue on each outcome after its
basis rotation.

One primitive, ``_apply_gate_batch``, applies every noisy gate (one
superoperator) to vec(rho) and every confusion matrix: it moves the gate's
qubit axes to the front, contracts them with one ``einsum`` and moves them
back.  A noisy gate's superoperator is built from its matrix alone, as one
broadcast product, kron(U, conj U) without ``np.kron``'s shape handling.
One table, ``_BASIS_GATES``, rotates a measured basis onto Z:
``_readout_tail`` compiles from it, with the readout confusion, one real
linear map from vec(rho) to every basis's outcome distribution.

No evaluation evolves a state.  Every angle of the ansatz drives Givens
rotations, so every basis's outcome distribution is linear in 45
trigonometric ``_features`` of the three angles; ``_trig_map`` compiles that
linear map, once per model and basis list, from ``_evolve``'s noisy density
matrices of ``build_ansatz`` at 45 grid angles through the readout tail.
An evaluation multiplies it by the angles' features: ``simulate`` returns
the shared ideal model's product as the exact distributions, and
``measure_pauli_sets`` draws every basis's shots from its model's product.

A model's last compiled map is kept in ``_KEPT``, weakly keyed by the model:
it is reused for as long as the model lives and goes with it.

A ``NoiseModel``'s fields are ``p1``/``p2``, the depolarizing probability
after each one-/two-qubit gate (a real in [0, 1]); ``readout``, one flip
probability for every qubit (None: 0.02) or one 2x2 confusion matrix per
qubit; and ``n_qubits``, an integer >= 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .hamio import ValidationError, _is_count, _is_finite, _read_only, _reject_unknown

# The gate constants are read-only: every ``Gate`` built from one holds the
# constant itself (``Circuit.add`` does not copy it), so one write would reach
# every circuit built after it.
_PAULI_MATS = {
    "I": _read_only(np.eye(2, dtype=complex)),
    "X": _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
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

_H = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
_X = _PAULI_MATS["X"]
_SDG = _read_only(np.diag([1, -1j]).astype(complex))
_CNOT = _read_only(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                            dtype=complex))
_CZ = _read_only(np.diag([1, 1, 1, -1]).astype(complex))
_FSWAP = _read_only(np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
                             dtype=complex))
# What each live noise model's runs reuse: the last basis list measured and its
# read-only ``_trig_map``.  A model hashes by identity; its entry goes with it.
_KEPT = weakref.WeakKeyDictionary()
# The rotation of a measured Pauli basis onto Z, per qubit: each gate in turn,
# on the qubits whose letter is one it lists (X: H; Y: Sdg then H)
_BASIS_GATES = ((_SDG, "Y"), (_H, "XY"))


def _givens(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                    dtype=complex)


@dataclass(frozen=True)
class Gate:
    qubits: tuple
    matrix: np.ndarray


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

    def cnot(self, control, target):
        return self.add((control, target), _CNOT)

    def cz(self, a, b):
        return self.add((a, b), _CZ)

    def fswap(self, a, b):
        return self.add((a, b), _FSWAP)

    def givens(self, a, b, phi):
        return self.add((a, b), _givens(phi))


def _apply_gate_batch(states, matrix, qubits, n_qubits):
    """Apply a 2^m x 2^m matrix to ``qubits`` of a (batch, 2^n) array, the
    first-listed qubit being the most significant local bit: the batch is
    viewed with one axis per qubit, the gate's axes are moved to the front
    and contracted with one ``einsum``, and moved back."""
    batch, m = states.shape[0], len(qubits)
    axes = [1 + (n_qubits - 1 - q) for q in qubits]  # axis of qubit q; 0 is the batch
    t = np.moveaxis(states.reshape((batch,) + (2,) * n_qubits), axes, range(1, 1 + m))
    lead = t.shape[1 + m:]
    t = np.einsum("ij,bjk->bik", matrix, t.reshape(batch, 1 << m, -1))
    t = np.moveaxis(t.reshape((batch,) + (2,) * m + lead), range(1, 1 + m), axes)
    return t.reshape(batch, 1 << n_qubits)


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
        object.__setattr__(self, "readout", _read_only(readout))
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
        object.__setattr__(self, "readout_inverse", _read_only(inverse))  # outside fields()

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


def _channel(u: np.ndarray, p: float) -> np.ndarray:
    """The gate matrix ``u`` then depolarizing noise p as one matrix on
    vec(local rho); nothing but the matrix is read.
    U rho U^dagger is S = kron(U, conj U), and as the d^2 - 1 non-identity
    Paulis sum to d (I x Tr_gate rho) - rho, with Tr_gate = <e| for
    e = vec(I_d), (1 - p) rho + p/(d^2 - 1) sum_P P rho P is S plus rank one.
    S is formed as ``np.kron`` forms it, one broadcast product
    S[(i, k), (j, l)] = U_ij conj(U_kl), without its shape handling."""
    d = u.shape[0]
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)
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
        p = model.p1 if len(gate.qubits) == 1 else model.p2
        rows = tuple(q + n for q in gate.qubits)
        vec = _apply_gate_batch(vec, _channel(gate.matrix, p), rows + gate.qubits, 2 * n)
    return vec.reshape(rho.shape)


_ideal_model = functools.cache(NoiseModel.ideal)  # frozen and read-only: safe to share


def _model_for(n_qubits, model) -> NoiseModel:
    """``model`` for a register of ``n_qubits``, refused if it is for another
    size; None is the shared ideal model."""
    if model is None:
        return _ideal_model(n_qubits)
    if model.n_qubits != n_qubits:
        raise ValidationError(f"noise model is for {model.n_qubits} qubits, "
                              f"the register has {n_qubits}")
    return model


def noisy_density_matrix(circuit: Circuit, model: NoiseModel | None) -> np.ndarray:
    """The exact density matrix of ``circuit`` run from |0...0> under the
    model's gate noise (readout noise acts only on measurement)."""
    model = _model_for(circuit.n_qubits, model)
    rho = np.zeros((1 << model.n_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    return _evolve(rho, circuit.gates, model)


def qwc_groups(words):
    """Greedy grouping of Pauli words into qubit-wise commuting sets: a word
    joins the first group whose basis it commutes with letter by letter.

    Returns (group basis strings, I read as Z; assignment list index->group).
    """
    bases, assignment = [], []
    for word in words:
        for gi, basis in enumerate(bases):
            if all("I" in (b, c) or b == c for b, c in zip(basis, word)):
                bases[gi] = "".join(c if b == "I" else b for b, c in zip(basis, word))
                assignment.append(gi)
                break
        else:
            bases.append(word)
            assignment.append(len(bases) - 1)
    return [b.replace("I", "Z") for b in bases], assignment


def simulate(params, bases) -> np.ndarray:
    """The exact outcome distribution of the noiseless ansatz at the three
    angles ``params`` in every measurement basis of ``bases`` (as
    ``measure_pauli_sets`` takes them), one row of 2^n per basis: the shared
    ideal model's ``_trig_map`` times the angles' ``_features``, negative
    rounding clipped to 0."""
    return _distributions(params, bases, _model_for(ANSATZ_QUBITS, None))


def _distributions(params, bases, model):
    """Every basis's readout-confused outcome distribution under ``model``,
    a row per basis, from the model's kept ``_trig_map``.  The sampler calls
    this, not ``simulate``, so a span traced on ``simulate`` times the exact
    path alone."""
    probs = (_trig_map(model, bases) @ _features(params)).reshape(len(bases), -1)
    return np.clip(probs, 0.0, None)


def measure_pauli_sets(params, bases, shots, model=None, seed=0):
    """Sample the ansatz at the three angles ``params`` once per measurement
    basis (the group bases of ``qwc_groups``, as ``MeasurementSchedule.bases``
    holds them), each basis one letter X, Y or Z per qubit of the
    ``ANSATZ_QUBITS`` register.

    No circuit is built: the model's ``_trig_map`` for these bases, times the
    45 ``_features`` of the angles, gives every basis's readout-confused
    outcome distribution at once, negative rounding clipped to 0, as
    ``simulate`` gives the ideal model's.  One generator, seeded by ``seed``,
    draws every group's shots in one multinomial over the stacked
    distributions, a row per basis, so a basis listed twice gets two
    independent draws."""
    if shots <= 0:
        raise ValidationError("shots must be positive")
    probs = _distributions(params, bases, _model_for(ANSATZ_QUBITS, model))
    draws = _rng_for(seed, 0).multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
    return [ShotTable(basis, counts, shots) for basis, counts in zip(bases, draws)]


def _features(params):
    """The 45 trigonometric features of the ansatz angles,
    [1, cos, sin, cos 2., sin 2.](theta0 / 2) x [1, cos, sin](theta1)
    x [1, cos, sin](theta2), the last factor varying fastest.

    A Givens rotation by phi mixes its pair's local states |01> and |10>, so
    its channel's entries are products of two of 1, cos phi and sin phi.
    Those of first order act only on coherences between the pair's even and
    odd local parity, which the ansatz's noisy state never holds where a
    Givens acts; the others lie in span{1, cos 2phi, sin 2phi}.  theta0
    enters ``build_ansatz`` through two Givens rotations at -theta0/4, theta1
    and theta2 through one at -theta/2 each: so every outcome probability of
    the ansatz is linear in these features."""
    theta0, theta1, theta2 = (float(t) for t in params)
    half = theta0 / 2
    f0 = np.array([1.0, math.cos(half), math.sin(half), math.cos(theta0), math.sin(theta0)])
    f1 = np.array([1.0, math.cos(theta1), math.sin(theta1)])
    f2 = np.array([1.0, math.cos(theta2), math.sin(theta2)])
    return (f0[:, None, None] * f1[None, :, None] * f2[None, None, :]).reshape(-1)


# The angles the map is compiled from: theta0 / 2 on 5 and theta1, theta2 on 3
# equally spaced points of their periods, where the features are independent
_GRID = tuple(itertools.product(4 * np.pi * np.arange(5) / 5, 2 * np.pi * np.arange(3) / 3,
                                2 * np.pi * np.arange(3) / 3))


def _trig_map(model, bases):
    """The (len(bases) 2^n, 45) real map Q from the ``_features`` of the
    ansatz angles to every basis's readout-confused outcome distribution,
    one row per (basis, outcome).

    Compiled when the model measures other bases than last time, and kept in
    ``_KEPT``: ``_readout_tail`` checks the bases and maps the noisy density
    matrix of ``build_ansatz`` at each of the 45 ``_GRID`` angles to a row
    of P, and Q^T solves F Q^T = P, a row of F holding the features of that
    angle (F's condition number is 2.83).  A kept map's evaluations pay one
    (len(bases) 2^n, 45) product."""
    key = tuple(bases)
    last = _KEPT.get(model)
    if last is not None and last[0] == key:
        return last[1]
    tail = _readout_tail(model, key)
    states = np.array([noisy_density_matrix(build_ansatz(theta), model)
                       for theta in _GRID])
    probs = (states.real + states.imag).reshape(len(_GRID), -1) @ tail.T
    features = np.array([_features(theta) for theta in _GRID])
    q = _read_only(np.ascontiguousarray(np.linalg.solve(features, probs).T))
    _KEPT[model] = key, q
    return q


def _readout_tail(model, bases):
    """The real linear map from vec(Re rho + Im rho) of a density matrix rho
    to every basis's outcome distribution after its rotation and the model's
    readout confusion: one row per (basis, outcome).  The bases are checked
    here, before ``_trig_map`` compiles anything.

    A qubit's rotation is the ``_BASIS_GATES`` gates of its letter, in order,
    each as its ``_channel`` at p1, so qubit q of a basis maps its local
    vec(rho) to the confused distribution of its bit, a 2x4 factor R_q D C_q
    (C_q the gates' channels in turn, D the diagonal, R_q the confusion
    matrix).  A basis's map F, the tensor product of its qubits' factors with
    the outcome, row and column bits of qubit q at place q, gives real
    probabilities sum_rc F_orc rho_rc for every hermitian rho, so each F_o is
    hermitian: its real part symmetric, its imaginary part antisymmetric.  As
    rho's real part is symmetric and its imaginary part antisymmetric too,
    sum_rc F_orc rho_rc is sum_rc (Re F - Im F)_orc (Re rho + Im rho)_rc, and
    the map keeps Re F - Im F."""
    n = model.n_qubits
    if not bases:
        raise ValidationError("no measurement bases")
    for basis in bases:
        if not (isinstance(basis, str) and len(basis) == n and set(basis) <= set("XYZ")):
            raise ValidationError(f"a measured basis is one letter X, Y or Z per qubit "
                                  f"({n}), got {basis!r}")
    factors = {}
    for q, confusion in enumerate(model.readout):
        for letter in "XYZ":
            local = np.eye(4, dtype=complex)  # vec(local rho) at 2 * row bit + column bit
            for gate, letters in _BASIS_GATES:
                if letter in letters:
                    local = _channel(gate, model.p1) @ local
            factors[q, letter] = (confusion @ local[[0, 3]]).reshape(2, 2, 2)
    tail = np.empty((len(bases), 1 << n, 1 << 2 * n))
    for g, basis in enumerate(bases):
        t = np.ones((1, 1, 1))  # (outcome, row, column) over the qubits so far
        for q, letter in enumerate(basis):  # qubit q is the most significant bit so far
            t = factors[q, letter][:, None, :, None, :, None] * t[None, :, None, :, None, :]
            t = t.reshape(2 << q, 2 << q, 2 << q)
        tail[g] = (t.real - t.imag).reshape(1 << n, -1)
    return tail.reshape(len(bases) << n, -1)


def mitigate_readout(counts, model: NoiseModel | None):
    """The outcome probabilities of a (..., 2^n) stack of counts, with
    ``model``'s per-qubit confusion matrices inverted.

    One matmul with ``model.readout_inverse``, the Kronecker product of the
    inverses, gives every row's quasi-counts; negative ones are clipped to
    zero and each row is renormalized to probabilities.  Returns those and,
    per row, the clipped negative mass as a fraction of the row's total.
    A ``model`` of None means there is no confusion to invert: the rows are
    the counts over their totals, and no mass is clipped.  A row whose total is
    not positive raises, with or without a model.

    No row can lose all its mass to clipping: the model makes each confusion
    matrix column-stochastic, so the columns of the inverse sum to 1 as well,
    a row's quasi-counts sum to its total, which is checked to be positive,
    and at least one of them is positive and survives the clip.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1)
    if (total <= 0).any():
        raise ValidationError("empty shot table")
    if model is None:
        return counts / total[..., None], np.zeros(total.shape)
    quasi = counts @ model.readout_inverse.T
    kept = np.clip(quasi, 0.0, None)
    return kept / kept.sum(axis=-1, keepdims=True), (kept - quasi).sum(axis=-1) / total
