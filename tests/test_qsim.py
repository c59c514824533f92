import gc
import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rdmpt2 import qsim, rdm, vqe
from rdmpt2.hamio import ValidationError
from rdmpt2.qsim import (Circuit, NoiseModel, build_ansatz, jw_ladder, measure_pauli_sets,
                         mitigate_readout, noisy_density_matrix, pauli_matrix, qwc_groups,
                         z_parity_signs)

import oracles
from conftest import same_bits
from oracles import (apply_gate_batch, apply_noise, basis_rotation, expand_matrix, expectation,
                     kraus_density_matrix, table_expectation, trajectory_counts, unitary)


def ladder_matrix(p, n, dagger):
    a = jw_ladder(p, n)
    return a.conj().T if dagger else a


def occupation_annihilator(p, n):
    """a_p from its action on occupation-number states: it empties mode p
    with sign (-1)^(occupied modes below p), and kills the state if p is empty."""
    a = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        if i >> p & 1:
            a[i ^ (1 << p), i] = (-1) ** bin(i & ((1 << p) - 1)).count("1")
    return a


def test_jw_ladder_matches_occupation_rule():
    for n in (1, 2, 4):
        for p in range(n):
            assert np.array_equal(jw_ladder(p, n), occupation_annihilator(p, n))
    with pytest.raises(ValidationError, match="out of range"):
        jw_ladder(4, 4)


def test_jw_number_operator():
    a = jw_ladder(0, 1)
    assert np.array_equal(a.conj().T @ a, 0.5 * (pauli_matrix("I") - pauli_matrix("Z")))


def test_jw_nilpotency():
    for p in range(4):
        a = jw_ladder(p, 4)
        assert not (a @ a).any()
        assert not (a.conj().T @ a.conj().T).any()


def test_jw_hopping_matches_dense():
    # a+_1 a_0 moves the electron of |n0=1, n1=0> (index 1) to |n0=0, n1=1>
    # (index 2) with sign +1, and kills every other basis state
    dense = np.zeros((4, 4))
    dense[0b10, 0b01] = 1.0
    assert np.array_equal(ladder_matrix(1, 2, True) @ ladder_matrix(0, 2, False), dense)


def test_jw_hermitian_hoppings_dense_small_register():
    # (a+_p a_q + a+_q a_p)/2 on 6 qubits is (I - Z_p)/2 for p = q and
    # (X_p Z..Z X_q + Y_p Z..Z Y_q)/4 for p < q, the Zs on the modes between
    n = 6
    a = {p: ladder_matrix(p, n, False) for p in range(n)}
    ad = {p: ladder_matrix(p, n, True) for p in range(n)}
    for p in range(n):
        for q in range(p, n):
            dense = 0.5 * (ad[p] @ a[q] + ad[q] @ a[p])
            if p == q:
                words = 0.5 * (pauli_matrix("I" * n)
                               - pauli_matrix("I" * p + "Z" + "I" * (n - p - 1)))
            else:
                def word(c):
                    return "I" * p + c + "Z" * (q - p - 1) + c + "I" * (n - q - 1)
                words = 0.25 * (pauli_matrix(word("X")) + pauli_matrix(word("Y")))
            assert np.array_equal(dense, words), (p, q)


def test_anticommutation_relations():
    n = 4
    for p in range(n):
        for q in range(n):
            a_p = ladder_matrix(p, n, False)
            a_q = ladder_matrix(q, n, False)
            ad_q = ladder_matrix(q, n, True)
            acc = a_p @ ad_q + ad_q @ a_p
            expected = np.eye(16) if p == q else np.zeros((16, 16))
            assert np.array_equal(acc, expected)
            assert not (a_p @ a_q + a_q @ a_p).any()


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

def exact_ansatz_unitary(theta0, theta1, theta2):
    n = 4
    a = {p: ladder_matrix(p, n, False) for p in range(n)}
    ad = {p: ladder_matrix(p, n, True) for p in range(n)}
    k_pair = ad[2] @ ad[3] @ a[1] @ a[0]
    k1 = ad[2] @ a[0]
    k2 = ad[3] @ a[1]
    u = expm(theta0 / 2 * (k_pair - k_pair.conj().T))
    u = expm(theta1 / 2 * (k1 - k1.conj().T)) @ u
    u = expm(theta2 / 2 * (k2 - k2.conj().T)) @ u
    return u


SECTOR = [0b0011, 0b1100, 0b0110, 0b1001]  # N=2, Sz=0 basis indices
HF_INDEX = 0b0011  # qubits 0 and 1 occupied


# The amplitude tests run the package's ansatz gates through the tests' state
# vector simulator, ``oracles.simulate``.

def test_ansatz_reference_state():
    psi = oracles.simulate(build_ansatz((0.0, 0.0, 0.0)))
    assert abs(psi[HF_INDEX] - 1.0) < 1e-12


def test_ansatz_full_double_transfer():
    psi = oracles.simulate(build_ansatz((np.pi, 0.0, 0.0)))
    assert abs(psi[0b1100] - 1.0) < 1e-12


def test_ansatz_matches_generator_exponentials_on_sector():
    rng = np.random.default_rng(5)
    for _ in range(5):
        th = rng.uniform(-np.pi, np.pi, 3)
        circuit = build_ansatz(th)
        u_circ = unitary(Circuit(4, circuit.gates[2:]))  # strip the X prep
        u_exact = exact_ansatz_unitary(*th)
        blk_c = u_circ[np.ix_(SECTOR, SECTOR)]
        blk_e = u_exact[np.ix_(SECTOR, SECTOR)]
        assert np.abs(blk_c - blk_e).max() < 1e-12


def test_ansatz_conserves_n_and_sz():
    n = 4
    a = {p: ladder_matrix(p, n, False) for p in range(n)}
    ad = {p: ladder_matrix(p, n, True) for p in range(n)}
    n_op = sum(ad[p] @ a[p] for p in range(n))
    sz_op = 0.5 * sum((1 if p % 2 == 0 else -1) * ad[p] @ a[p] for p in range(n))
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = oracles.simulate(build_ansatz(rng.uniform(-np.pi, np.pi, 3)))
        assert abs((psi.conj() @ n_op @ psi).real - 2.0) < 1e-12
        assert abs((psi.conj() @ sz_op @ psi).real) < 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_ansatz_sector_golden_values():
    # sign conventions pinned: amplitudes of the state at fixed parameters
    amplitudes = oracles.simulate(build_ansatz((0.6, 0.4, -0.8)))
    golden = {}
    u = exact_ansatz_unitary(0.6, 0.4, -0.8)
    psi = u[:, HF_INDEX]
    for idx in SECTOR:
        golden[idx] = psi[idx]
        assert abs(amplitudes[idx] - golden[idx]) < 1e-12
    # the doubly excited amplitude is positive for positive theta0
    psi2 = oracles.simulate(build_ansatz((0.6, 0.0, 0.0)))
    assert psi2[0b1100].real > 0


# ---------------------------------------------------------------------------
# noise channel and sampling
# ---------------------------------------------------------------------------

def test_noiseless_channel_matches_born():
    circuit = build_ansatz((0.4, 0.1, -0.2))
    probs = np.abs(oracles.simulate(circuit)) ** 2
    counts = apply_noise(circuit, NoiseModel.ideal(), seed=3)(200_000)
    total = counts.sum()
    for i in np.nonzero(counts)[0]:
        c, p = counts[i], probs[i]
        assert abs(c / total - p) < 5 * np.sqrt(max(p, 1e-6) / total) + 1e-4


def test_channel_determinism():
    circuit = build_ansatz((0.3, 0.0, 0.0))
    model = NoiseModel()
    c1 = apply_noise(circuit, model, seed=42)(512)
    c2 = apply_noise(circuit, model, seed=42)(512)
    assert np.array_equal(c1, c2)
    c3 = apply_noise(circuit, model, seed=43)(512)
    assert not np.array_equal(c1, c3)


def test_full_depolarizing_two_qubit_gate():
    # p2 = 1 on one two-qubit gate twirls |00> over the 15 non-identity Paulis:
    # outcome probabilities become {00: 3/15, 01: 4/15, 10: 4/15, 11: 4/15}
    circuit = Circuit(2).cz(0, 1)
    model = NoiseModel(p1=0.0, p2=1.0, readout=np.array([np.eye(2)] * 2),
                       n_qubits=2)
    shots = 150_000
    counts = apply_noise(circuit, model, seed=9)(shots)
    expected = np.array([3, 4, 4, 4]) / 15
    chi2 = sum((counts - shots * expected) ** 2 / (shots * expected))
    # 3 degrees of freedom; chi2 < 11.34 is p > 0.01
    assert chi2 < 11.34


def test_density_matrix_channel_matches_trajectories():
    # two-sample chi-square between the exact channel and the per-shot
    # trajectory sampler it replaced, over all 16 outcomes
    circuit = Circuit(4, build_ansatz((0.7, -0.4, 0.3)).gates + basis_rotation("XYZX").gates)
    model = NoiseModel()
    shots = 200_000
    exact_counts = apply_noise(circuit, model, seed=1)(shots)
    traj_counts = trajectory_counts(circuit, model, shots, seed=2)
    both = exact_counts + traj_counts
    assert (both > 0).all()
    chi2 = sum((exact_counts - traj_counts) ** 2 / both)
    # 15 degrees of freedom; chi2 < 30.58 is p > 0.01
    assert chi2 < 30.58


def test_depolarizing_closed_form_matches_pauli_sum():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    p = 0.3
    # every qubit and qubit pair a gate of the ansatz or a basis rotation uses
    gates = build_ansatz((0.1, 0.2, 0.3)).gates + basis_rotation("XYXY").gates
    qubit_sets = sorted({g.qubits for g in gates})
    assert {len(q) for q in qubit_sets} == {1, 2}
    for qubits in qubit_sets:
        words = []
        for letters in itertools.product("IXYZ", repeat=len(qubits)):
            if set(letters) == {"I"}:
                continue
            ops = ["I"] * 4
            for q, c in zip(qubits, letters):
                ops[q] = c
            words.append(pauli_matrix("".join(ops)))
        assert len(words) == 4 ** len(qubits) - 1
        # an identity gate leaves only the noise; vec(rho) is row-major, so
        # row qubit q is qubit q + 4 of the 8-qubit vector
        identity = np.eye(1 << len(qubits), dtype=complex)
        rows = tuple(q + 4 for q in qubits)
        explicit = (1 - p) * rho + p / len(words) * sum(w @ rho @ w for w in words)
        closed = qsim._apply_gate_batch(rho.reshape(1, -1), qsim._channel(identity, p),
                                        rows + qubits, 8).reshape(rho.shape)
        assert np.abs(closed - explicit).max() < 1e-12, qubits


@pytest.mark.parametrize("p_kind", ["zero", "default", "random"])
def test_channel_matches_kron_oracle_bit_for_bit(p_kind):
    rng = np.random.default_rng(19)
    gates = [g for _ in range(4) for g in build_ansatz(rng.uniform(-np.pi, np.pi, 3)).gates]
    gates += [g for basis in rdm.build_schedule(4).bases for g in basis_rotation(basis).gates]
    assert {len(g.qubits) for g in gates} == {1, 2}
    default = NoiseModel()
    for gate in gates:
        p = {"zero": 0.0, "default": default.p1 if len(gate.qubits) == 1 else default.p2,
             "random": rng.random()}[p_kind]
        assert same_bits(qsim._channel(gate.matrix, p), oracles.channel(gate, p)), (gate, p)


def test_kept_map_has_fresh_bits_and_stays_bounded():
    # a sampled point keeps, with its live model, one read-only compiled map,
    # for the bases it measured last, and nothing else; other bases compile
    # their own map in its place, and measuring the first bases again
    # compiles a new map with the same bits, as does another model with the
    # same content; a dropped model's map goes with it
    model = NoiseModel()
    spec = vqe.ScanSpec(molecule="h2", geometries=[0.7], shots=64, noise=model,
                        optimizer=vqe.OptimizerSettings(maxfev=10))
    vqe.run_point(spec, 0.7)
    bases = tuple(rdm.build_schedule(4).bases)
    key, compiled = qsim._KEPT[model]
    assert key == bases
    assert compiled.shape == (13 * 16, 45) and not compiled.flags.writeable
    measure_pauli_sets((0.9, -1.2, 2.5), list(bases), 64, model=model, seed=1)
    assert qsim._KEPT[model][1] is compiled
    measure_pauli_sets((0.9, -1.2, 2.5), ["XXYY", "ZZZZ"], 64, model=model)
    key, other = qsim._KEPT[model]
    assert key == ("XXYY", "ZZZZ") and other.shape == (2 * 16, 45)
    measure_pauli_sets((0.9, -1.2, 2.5), bases, 64, model=model, seed=1)
    key, again = qsim._KEPT[model]
    assert key == bases and again is not compiled and same_bits(again, compiled)
    assert same_bits(qsim._trig_map(NoiseModel(), bases), compiled)
    dropped = NoiseModel(p1=0.003, p2=0.03)
    measure_pauli_sets((0.9, -1.2, 2.5), bases, 64, model=dropped, seed=1)
    entry = weakref.ref(qsim._KEPT[dropped][1])
    model_ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert model_ref() is None and entry() is None
    assert qsim._KEPT[model][1] is again


def test_exact_and_noiseless_sampled_paths_read_one_kept_map(monkeypatch):
    # ``simulate`` reads the shared ideal model's kept map, and a sampled run
    # without a model reads that same object, never through ``simulate``
    # (whose name a tracer may patch); the exact distributions are the map
    # times the angles' features, clipped
    bases = tuple(rdm.build_schedule(4).bases)
    theta = (0.9, -1.2, 2.5)
    ideal = qsim._model_for(4, None)
    probs = qsim.simulate(theta, bases)
    key, compiled = qsim._KEPT[ideal]
    assert key == bases and probs.shape == (13, 16)
    want = np.clip((compiled @ qsim._features(theta)).reshape(13, 16), 0.0, None)
    assert same_bits(probs, want)
    read, trig_map = [], qsim._trig_map

    def reading(*args):
        read.append(trig_map(*args))
        return read[-1]

    def no_simulate(*args):
        raise AssertionError("the sampled path called simulate")

    monkeypatch.setattr(qsim, "_trig_map", reading)
    monkeypatch.setattr(qsim, "simulate", no_simulate)
    tables = measure_pauli_sets(theta, bases, 64, model=None, seed=1)
    assert [t.counts.sum() for t in tables] == [64] * 13
    assert len(read) == 1 and read[0] is compiled
    assert qsim._KEPT[ideal][1] is compiled


def test_shared_gate_matrices_are_read_only():
    # Circuit.add keeps a gate constant itself, not a copy, so one write into
    # a built gate's matrix would reach every later circuit
    constants = [qsim._H, qsim._X, qsim._SDG, qsim._CNOT, qsim._CZ, qsim._FSWAP,
                 *qsim._PAULI_MATS.values()]
    assert not any(m.flags.writeable for m in constants)
    gate = build_ansatz((0.1, 0.2, 0.3)).gates[0]
    assert gate.matrix is qsim._X
    gates = [gate] + basis_rotation("XYZX").gates + basis_rotation("YYXZ").gates
    for g in gates:
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 2.0
    assert qsim._X[0, 0] == 0 and qsim._H[0, 0] == 1 / np.sqrt(2)


def gate_cases():
    """(qubits, n_qubits) for every ordered 1- and 2-qubit tuple on 4 qubits,
    and the same gates on the 8-qubit vec(rho) layout of ``_evolve`` (row
    qubits q + 4 first, then the column qubits)."""
    for m in (1, 2):
        for qubits in itertools.permutations(range(4), m):
            yield qubits, 4
            yield tuple(q + 4 for q in qubits) + qubits, 8


@pytest.mark.parametrize("batch", [1, 3])
def test_gate_kernel_matches_moveaxis_oracle(batch):
    # bit for bit against the tests' moveaxis form, and to rounding against
    # the dense matrix of an independent embedding
    rng = np.random.default_rng(batch)
    for qubits, n in gate_cases():
        shape, dim = (batch, 1 << n), 1 << len(qubits)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        # unit rows and a unit-norm gate: the dense product rounds at ~1e-16
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        matrix /= np.linalg.norm(matrix, 2)
        strided = np.stack([states.real, states.imag], axis=-1)[..., 0]  # as a diagonal
        assert not strided.flags.c_contiguous
        for s, mat, dtype in ((states, matrix, complex), (states.real.copy(), matrix, complex),
                              (states.real.copy(), matrix.real.copy(), float),
                              (strided, matrix.real.copy(), float)):
            got = qsim._apply_gate_batch(s, mat, qubits, n)
            want = apply_gate_batch(s, mat, qubits, n)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), (qubits, n, dtype)
            # the moveaxis form against the gate's dense full-register matrix
            dense = s @ expand_matrix(mat, qubits, n).T
            assert np.abs(got - dense).max() <= 1e-15, (qubits, n, dtype)


_ANGLE = st.floats(-np.pi, np.pi)
_AXIS_ANGLE = st.one_of(_ANGLE, st.sampled_from([np.pi / 2, -np.pi / 2, np.pi, -np.pi]))
# At theta = 0 and on the axes the outcome distributions hold exactly equal
# pairs, where a one-ulp change would flip a multinomial branch.
_THETAS = st.one_of(
    st.tuples(_ANGLE, _ANGLE, _ANGLE), st.just((0.0, 0.0, 0.0)),
    st.builds(lambda axis, t: tuple(t if k == axis else 0.0 for k in range(3)),
              st.integers(0, 2), _AXIS_ANGLE))
# Columns are the true bit: P(1 | 0) = a and P(0 | 1) = b, so det = 1 - a - b > 0.
_CONFUSION = st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)).map(
    lambda ab: [[1 - ab[0], ab[1]], [ab[0], 1 - ab[1]]])
# The schedule's 13 bases, or any list of bases, most of which the schedule
# never measures (it holds 13 of the 81)
_SCHEDULE_BASES = rdm.build_schedule(4).bases
_BASES = st.one_of(st.just(_SCHEDULE_BASES),
                   st.lists(st.text(alphabet="XYZ", min_size=4, max_size=4),
                            min_size=1, max_size=13).map(tuple))
_MODELS = st.one_of(
    st.just(None),  # the ideal model
    st.just(NoiseModel(p1=0.0, p2=0.0)),
    st.builds(NoiseModel, p1=st.floats(0.0, 0.1), p2=st.floats(0.0, 0.1),
              readout=st.lists(_CONFUSION, min_size=4, max_size=4)))


@settings(max_examples=40, deadline=None)
@given(theta=_THETAS, prep=st.text(alphabet="XYZ", min_size=4, max_size=4), bases=_BASES,
       model=_MODELS)
@example(theta=(0.0, 0.0, 0.0), prep="ZZZZ", bases=_SCHEDULE_BASES, model=None)
@example(theta=(0.0, 0.0, 0.0), prep="ZZZZ", bases=_SCHEDULE_BASES, model=NoiseModel())
@example(theta=(0.5, -0.3, 0.8), prep="ZZZZ", bases=_SCHEDULE_BASES,
         model=NoiseModel(p1=0.004, p2=0.03))
@example(theta=(0.5, -0.3, 0.8), prep="YXZY", bases=("YXZY", "XZZY", "ZZYX", "YYYY", "YXZY"),
         model=NoiseModel(readout=[[[0.9, 0.2], [0.1, 0.8]]] * 4))
def test_compiled_probabilities_match_per_circuit_channel(theta, prep, bases, model):
    # each basis's outcome distribution through the readout-tail map is, to
    # rounding, that of its rotated circuit's own channel, evolved and read
    # out one circuit at a time, and that of the stacked tails the map
    # replaced, whichever bases are measured, repeats included; the ansatz
    # state is real, so the ``prep`` rotation (Sdg on a Y) makes it complex
    circuit = Circuit(4, build_ansatz(theta).gates + basis_rotation(prep).gates)
    model = qsim._model_for(4, model)
    rho = noisy_density_matrix(circuit, model)
    tail = qsim._readout_tail(model, bases)
    probs = np.clip((tail @ (rho.real + rho.imag).reshape(-1)).reshape(len(bases), -1),
                    0.0, None)
    assert probs.shape == (len(bases), 16)
    assert np.abs(probs - oracles.tail_probabilities(circuit, bases, model)).max() <= 1e-14
    for basis, row in zip(bases, probs):
        rotated = Circuit(4, circuit.gates + basis_rotation(basis).gates)
        alone = oracles.probabilities(noisy_density_matrix(rotated, model), model)
        assert np.abs(row - alone).max() <= 1e-14, basis


_WIDE_ANGLE = st.floats(-4 * np.pi, 4 * np.pi)
# A few models, each compiled once per basis list however many examples use it
_MAP_MODELS = (NoiseModel(), NoiseModel.ideal(), NoiseModel(p1=0.004, p2=0.03),
               NoiseModel(p1=0.01, p2=0.05, readout=[[[0.97, 0.05], [0.03, 0.95]]] * 4),
               NoiseModel(p1=0.05, p2=0.1,
                          readout=[[[0.9, 0.2], [0.1, 0.8]], [[0.99, 0.01], [0.01, 0.99]],
                                   [[0.95, 0.0], [0.05, 1.0]], [[0.8, 0.3], [0.2, 0.7]]]))
_MAP_BASES = (_SCHEDULE_BASES, ("YXZY", "XZZY", "ZZYX", "YYYY", "YXZY", "ZZZZ", "ZZZZ"))


@settings(max_examples=60, deadline=None)
@given(theta=st.one_of(st.tuples(_WIDE_ANGLE, _WIDE_ANGLE, _WIDE_ANGLE), _THETAS),
       model=st.sampled_from(_MAP_MODELS), bases=st.sampled_from(_MAP_BASES))
@example(theta=(4 * np.pi, -4 * np.pi, 4 * np.pi), model=_MAP_MODELS[0],
         bases=_SCHEDULE_BASES)
@example(theta=(2 * np.pi, np.pi, -np.pi), model=_MAP_MODELS[3], bases=_MAP_BASES[1])
def test_trig_map_matches_tail_oracle(theta, model, bases):
    # the map compiled from the 45-point grid gives, at any angles (periods
    # included, theta0's 4 pi and the singles' 2 pi), each basis's outcome
    # distribution of the ansatz circuit's own noisy channel to rounding,
    # under every model and basis list, repeats included
    probs = np.clip(qsim._trig_map(model, bases) @ qsim._features(theta), 0.0, None)
    want = oracles.tail_probabilities(build_ansatz(theta), bases, model)
    assert np.abs(probs.reshape(len(bases), 16) - want).max() <= 1e-14


def test_trig_grid_features_are_well_conditioned():
    # the grid's 45 x 45 feature matrix, the system every compile solves
    features = np.array([qsim._features(theta) for theta in qsim._GRID])
    assert features.shape == (45, 45)
    assert np.linalg.cond(features) == pytest.approx(2 * np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("theta", [(0.7, -0.4, 0.3), (0.0, 0.0, 0.0)])
def test_sampled_groups_match_per_circuit_channel_in_distribution(theta):
    # two-sample chi-square, group by group, between the shared-generator
    # draws and each rotated circuit's own channel, over all 16 outcomes; the
    # gate holds the two thetas' 26 comparisons together at p > 0.01
    # (Bonferroni: 30.58, one comparison's gate, would fail 23% of seeds)
    circuit = build_ansatz(theta)
    model = NoiseModel()
    shots = 200_000
    tables = measure_pauli_sets(theta, _SCHEDULE_BASES, shots, model=model, seed=1)
    for gi, table in enumerate(tables):
        rotated = Circuit(4, circuit.gates + basis_rotation(table.basis).gates)
        alone = apply_noise(rotated, model, seed=100 + gi)(shots)
        both = table.counts + alone
        seen = both > 0
        chi2 = ((table.counts - alone)[seen] ** 2 / both[seen]).sum()
        # at most 15 degrees of freedom; chi2 < 40.47 is p > 0.01 / 26
        assert chi2 < 40.47, (table.basis, chi2)


def test_repeated_bases_draw_independently_and_a_seed_reproduces():
    # one generator draws every group in turn: a basis listed twice gets two
    # independent draws, and the same seed gives the same counts again, under
    # another model object with the same content too
    theta = (0.5, -0.3, 0.8)
    bases = ("XXYY", "ZZZZ", "XXYY", "XXYY")
    first = measure_pauli_sets(theta, bases, 4096, model=NoiseModel(), seed=7)
    again = measure_pauli_sets(theta, bases, 4096, model=NoiseModel(), seed=7)
    assert [t.basis for t in first] == list(bases)
    assert all(same_bits(a.counts, b.counts) for a, b in zip(first, again))
    assert all(t.counts.sum() == 4096 for t in first)
    repeats = [t.counts for t in first if t.basis == "XXYY"]
    assert not any(np.array_equal(a, b) for a, b in itertools.combinations(repeats, 2))
    other = measure_pauli_sets(theta, bases, 4096, model=NoiseModel(), seed=8)
    assert not any(np.array_equal(a.counts, b.counts) for a, b in zip(first, other))


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       basis=st.text(alphabet="XYZ", min_size=4, max_size=4),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_noisy_density_matrix_is_a_state(angles, basis, p1, p2):
    circuit = Circuit(4, build_ansatz(angles).gates + basis_rotation(basis).gates)
    rho = noisy_density_matrix(circuit, NoiseModel(p1=p1, p2=p2))
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       basis=st.text(alphabet="XYZ", min_size=4, max_size=4),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_noisy_density_matrix_matches_kraus_sum(angles, basis, p1, p2):
    circuit = Circuit(4, build_ansatz(angles).gates + basis_rotation(basis).gates)
    model = NoiseModel(p1=p1, p2=p2)
    rho = noisy_density_matrix(circuit, model)
    assert np.abs(rho - kraus_density_matrix(circuit, model)).max() < 1e-13


def test_ideal_model_is_built_once_per_register_size():
    # noise=None shares one ideal model per register size: it is frozen and
    # its arrays are read-only
    ideal = qsim._model_for(4, None)
    assert qsim._model_for(build_ansatz((0.1, 0.2, 0.3)).n_qubits, None) is ideal
    assert qsim._model_for(2, None).n_qubits == 2
    assert ideal.p1 == ideal.p2 == 0 and np.array_equal(ideal.readout_inverse, np.eye(16))
    assert not (ideal.readout.flags.writeable or ideal.readout_inverse.flags.writeable)


def test_channel_rejects_mismatched_register():
    with pytest.raises(ValidationError, match="2 qubits"):
        apply_noise(build_ansatz((0.1, 0.2, 0.3)), NoiseModel(n_qubits=2), seed=0)


@pytest.mark.parametrize("n_qubits", [1, 2, 5])
def test_measure_pauli_sets_rejects_a_model_for_another_register(n_qubits):
    # the ansatz register has 4 qubits: a model for any other size is refused
    # before anything is compiled or kept for it
    model = NoiseModel(n_qubits=n_qubits)
    with pytest.raises(ValidationError, match=f"noise model is for {n_qubits} qubits, "
                                              "the register has 4"):
        measure_pauli_sets((0.1, 0.2, 0.3), ["Z" * n_qubits], 64, model=model)
    assert model not in qsim._KEPT


def test_shot_noise_scaling():
    theta = (0.5, 0.2, -0.1)
    obs = "ZIII"
    exact_val = expectation(oracles.simulate(build_ansatz(theta)), obs).real
    for shots in (1000, 10_000, 100_000):
        tables = measure_pauli_sets(theta, qwc_groups([obs])[0], shots, model=None,
                                    seed=17)
        err = abs(table_expectation(tables[0], obs) - exact_val)
        assert err < 5.0 / np.sqrt(shots)


def test_qwc_grouping():
    bases, assign = qwc_groups(["ZI", "IZ"])
    assert len(bases) == 1
    bases, assign = qwc_groups(["XX", "YY"])
    assert len(bases) == 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_qwc_groups_basis_carries_every_letter(data, n):
    words = data.draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                               min_size=1, max_size=20))
    bases, assign = qwc_groups(words)
    assert len(assign) == len(words)
    for word, g in zip(words, assign):
        assert all(c in ("I", bases[g][k]) for k, c in enumerate(word)), (word, bases[g])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_qwc_groups_match_flag_and_list_oracle(data, n):
    words = data.draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                               max_size=40))
    assert qwc_groups(words) == oracles.qwc_groups(words)


def test_basis_rotation_diagonalizes_every_measured_word():
    # R P_w R^dagger is diagonal, with the word's sign on each outcome, for
    # every basis and every word it measures (each letter I or the basis's)
    for basis in map("".join, itertools.product("XYZ", repeat=4)):
        rotation = unitary(basis_rotation(basis))
        for word in map("".join, itertools.product(*(("I", b) for b in basis))):
            rotated = rotation @ pauli_matrix(word) @ rotation.conj().T
            assert np.abs(rotated - np.diag(z_parity_signs(word))).max() < 1e-12, (basis, word)
    # the ideal model's readout tail, which the exact distributions are read
    # through, takes a pure state psi to |R psi|^2 for each of the
    # schedule's 13 bases, R the basis's rotation
    schedule = rdm.build_schedule(4)
    assert len(schedule.bases) == 13
    rotations = np.array([unitary(basis_rotation(b)) for b in schedule.bases])
    tail = qsim._readout_tail(qsim._model_for(4, None), schedule.bases)
    rng = np.random.default_rng(29)
    for _ in range(3):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        probs = tail @ (rho.real + rho.imag).reshape(-1)
        assert np.abs(probs.reshape(13, 16) - np.abs(rotations @ psi) ** 2).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_mitigation_keeps_row_totals_and_returns_distributions(data, n):
    # flips below 1/2 keep every confusion matrix invertible
    flip = st.floats(0.0, 0.45)
    readout = [[[1 - a, b], [a, 1 - b]]
               for a, b in data.draw(st.lists(st.tuples(flip, flip), min_size=n, max_size=n))]
    model = NoiseModel(p1=0.0, p2=0.0, readout=readout, n_qubits=n)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1000), min_size=1 << n,
                                       max_size=1 << n).filter(any),
                              min_size=1, max_size=4))
    counts = np.array(rows, dtype=float)
    total = counts.sum(axis=-1)
    quasi = counts @ model.readout_inverse.T
    assert np.allclose(quasi.sum(axis=-1), total, rtol=1e-9, atol=0.0)
    probs, clipped = mitigate_readout(counts, model)
    assert (probs >= 0).all()
    assert np.allclose(probs.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    assert (clipped >= 0).all()


def test_measure_pauli_sets_validates_shots():
    with pytest.raises(ValidationError, match="shots must be positive"):
        measure_pauli_sets((0.1, 0.2, 0.3), ["ZZZZ"], 0)


def test_measure_pauli_sets_rejects_no_bases():
    model = NoiseModel()
    with pytest.raises(ValidationError, match="no measurement bases"):
        measure_pauli_sets((0.1, 0.2, 0.3), [], 64, model=model)
    assert model not in qsim._KEPT


@pytest.mark.parametrize("basis", ["ZZZ", "Z", "ZZZZZ", ""])
def test_measure_pauli_sets_rejects_a_basis_of_the_wrong_length(basis):
    model = NoiseModel()
    with pytest.raises(ValidationError, match="one letter X, Y or Z per qubit"):
        measure_pauli_sets((0.1, 0.2, 0.3), ["XXYY", basis], 64, model=model)
    assert model not in qsim._KEPT


@pytest.mark.parametrize("basis", ["xZZZ", "IZZZ", "ZZZA", ["Z", "Z", "Z", "Z"]])
def test_measure_pauli_sets_rejects_a_letter_other_than_xyz(basis):
    # a lower-case or identity letter is refused, not measured as Z
    with pytest.raises(ValidationError, match="one letter X, Y or Z per qubit"):
        measure_pauli_sets((0.1, 0.2, 0.3), ["XXYY", basis], 64, model=NoiseModel())


def test_readout_confusion_biases_expectation():
    # the reference determinant |0011> holds qubits 0 and 1: with symmetric
    # flip 0.1 each <Z_q> reads -0.8 there and 0.8 on the empty qubits 2 and
    # 3 before mitigation, and -1 or 1 after it
    model = NoiseModel(p1=0.0, p2=0.0, readout=0.1)
    shots = 200_000
    tables = measure_pauli_sets((0.0, 0.0, 0.0), qwc_groups(["ZIII"])[0], shots,
                                model=model, seed=1)
    fixed, _ = mitigate_readout(tables[0].counts, model)
    for q, sign in enumerate((-1, -1, 1, 1)):
        word = "I" * q + "Z" + "I" * (3 - q)
        assert abs(table_expectation(tables[0], word) - 0.8 * sign) < 5 / np.sqrt(shots)
        assert abs(fixed @ z_parity_signs(word) - sign) < 7 / np.sqrt(shots)


def test_asymmetric_readout_conditions_on_true_bit():
    # readout[q][m, t] = P(measured m | true t): on the reference |0011> the
    # prepared 1s on qubits 0 and 1 read 0 with 0.3, the 0s on qubits 2 and 3
    # read 1 with 0.1
    model = NoiseModel(p1=0.0, p2=0.0, readout=[[[0.9, 0.3], [0.1, 0.7]]] * 4)
    shots = 100_000
    counts = measure_pauli_sets((0.0, 0.0, 0.0), ["ZZZZ"], shots, model=model,
                                seed=8)[0].counts
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    read_one = counts @ bits / shots
    for q, p in enumerate((0.7, 0.7, 0.1, 0.1)):
        assert abs(read_one[q] - p) < 5 * np.sqrt(p * (1 - p) / shots), q


def test_mitigation_identity_confusion_is_noop():
    # the identity confusion and None (no confusion to invert) give each
    # row's counts over its total, bit for bit, with no clipped mass; an
    # empty row raises either way
    counts = np.zeros((2, 16))
    counts[0, 0b1100], counts[0, 0b0011] = 70, 30  # bitstrings 0011 and 1100
    counts[1] = np.arange(16)
    for model in (NoiseModel.ideal(), None):
        probs, clipped = mitigate_readout(counts, model)
        assert np.array_equal(probs, counts / counts.sum(axis=-1, keepdims=True))
        assert np.array_equal(clipped, [0.0, 0.0])
        with pytest.raises(ValidationError, match="empty shot table"):
            mitigate_readout(np.vstack([counts, np.zeros(16)]), model)


def test_mitigation_singular_confusion_raises():
    # a model that mitigation cannot invert is rejected on construction ...
    half = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    with pytest.raises(ValidationError, match="singular confusion matrix on qubit 0"):
        NoiseModel(p1=0, p2=0, readout=half, n_qubits=1)
    with pytest.raises(ValidationError, match="singular confusion matrix on qubit 2"):
        NoiseModel(readout=[np.eye(2), np.eye(2), half[0], np.eye(2)])
    with pytest.raises(ValidationError, match="singular"):
        NoiseModel.from_dict({"readout": 0.5})
    # ... and cannot be made singular afterwards: its arrays are read-only
    model = NoiseModel(p1=0, p2=0, readout=np.array([np.eye(2)]), n_qubits=1)
    for array in (model.readout, model.readout_inverse):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = half[0][0]
    assert np.array_equal(model.readout, [np.eye(2)])


def test_mitigation_applies_kronecker_inverse_qubit_0_least_significant():
    flips = [[[0.9, 0.2], [0.1, 0.8]], [[0.7, 0.05], [0.3, 0.95]]]
    model = NoiseModel(p1=0, p2=0, readout=flips, n_qubits=2)
    inverse = np.kron(np.linalg.inv(flips[1]), np.linalg.inv(flips[0]))
    assert np.array_equal(model.readout_inverse, inverse)
    counts = np.array([[40.0, 30.0, 20.0, 10.0], [5.0, 0.0, 0.0, 95.0]])
    probs, _ = mitigate_readout(counts, model)
    quasi = np.clip(counts @ inverse.T, 0.0, None)
    assert np.array_equal(probs, quasi / quasi.sum(axis=-1, keepdims=True))
    assert "readout_inverse" not in repr(model)
    assert set(model.to_dict()) == {"p1", "p2", "n_qubits", "readout"}


def test_mitigation_recovers_modeled_readout():
    # exactly-modeled readout noise mitigates back to noiseless expectations
    rng = np.random.default_rng(23)
    model = NoiseModel(p1=0.0, p2=0.0, n_qubits=4)  # readout flips only
    shots = 40_000
    for trial in range(10):
        th = rng.uniform(-np.pi, np.pi, 3)
        obs = "ZZII"
        exact_val = expectation(oracles.simulate(build_ansatz(th)), obs).real
        tables = measure_pauli_sets(th, qwc_groups([obs])[0], shots, model=model,
                                    seed=100 + trial)
        fixed, _ = mitigate_readout(tables[0].counts, model)
        # inverse confusion inflates variance by roughly (1 - 2 eps)^-2
        sigma = 1.1 / np.sqrt(shots) / (1 - 2 * 0.02) ** 2
        assert abs(fixed @ z_parity_signs(obs) - exact_val) < 3.5 * sigma


def test_statevector_norm_preserved():
    # the amplitudes stay normalized after every gate of the ansatz and of a
    # basis rotation
    gates = build_ansatz((1.1, -0.7, 0.3)).gates + basis_rotation("XYZY").gates
    for k in range(1, len(gates) + 1):
        assert abs(np.linalg.norm(oracles.simulate(Circuit(4, gates[:k]))) - 1.0) < 1e-12


def test_noise_model_config_round_trip(tmp_path):
    model = NoiseModel(p1=0.002, p2=0.02, n_qubits=4)
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(model.to_dict()))
    again = NoiseModel.from_dict(json.loads(path.read_text()))
    assert again.p1 == model.p1 and again.p2 == model.p2
    assert np.allclose(again.readout, model.readout)
    with pytest.raises(ValidationError, match="p_2"):
        NoiseModel.from_dict({"p1": 0.002, "p_2": 0.02})


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(p1=-0.1)
    bad = np.array([[[0.5, 0.1], [0.1, 0.5]]] * 4)  # columns don't sum to 1
    with pytest.raises(ValidationError):
        NoiseModel(readout=bad)
    # columns sum to 1, but the entries are not probabilities
    unphysical = [[[1.2, -0.1], [-0.2, 1.1]]] * 4
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        NoiseModel(readout=unphysical)
