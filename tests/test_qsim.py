import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rdmpt2 import qsim, rdm
from rdmpt2.hamio import ValidationError
from rdmpt2.qsim import (Circuit, NoiseModel, basis_rotation, build_ansatz, jw_ladder,
                         measure_pauli_sets, mitigate_readout, noisy_density_matrix,
                         pauli_matrix, qwc_groups, simulate, z_parity_signs)

from oracles import (apply_gate_batch, apply_noise, expectation, kraus_density_matrix,
                     table_expectation, trajectory_counts)


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


def test_ansatz_reference_state():
    psi = simulate(build_ansatz((0.0, 0.0, 0.0)))
    assert abs(psi[HF_INDEX] - 1.0) < 1e-12


def test_ansatz_full_double_transfer():
    psi = simulate(build_ansatz((np.pi, 0.0, 0.0)))
    assert abs(psi[0b1100] - 1.0) < 1e-12


def test_ansatz_matches_generator_exponentials_on_sector():
    rng = np.random.default_rng(5)
    for _ in range(5):
        th = rng.uniform(-np.pi, np.pi, 3)
        circuit = build_ansatz(th)
        u_circ = Circuit(4, circuit.gates[2:]).unitary()  # strip the X prep
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
        psi = simulate(build_ansatz(rng.uniform(-np.pi, np.pi, 3)))
        assert abs((psi.conj() @ n_op @ psi).real - 2.0) < 1e-12
        assert abs((psi.conj() @ sz_op @ psi).real) < 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_ansatz_sector_golden_values():
    # sign conventions pinned: amplitudes of the state at fixed parameters
    amplitudes = simulate(build_ansatz((0.6, 0.4, -0.8)))
    golden = {}
    u = exact_ansatz_unitary(0.6, 0.4, -0.8)
    psi = u[:, HF_INDEX]
    for idx in SECTOR:
        golden[idx] = psi[idx]
        assert abs(amplitudes[idx] - golden[idx]) < 1e-12
    # the doubly excited amplitude is positive for positive theta0
    psi2 = simulate(build_ansatz((0.6, 0.0, 0.0)))
    assert psi2[0b1100].real > 0


# ---------------------------------------------------------------------------
# noise channel and sampling
# ---------------------------------------------------------------------------

def test_noiseless_channel_matches_born():
    circuit = build_ansatz((0.4, 0.1, -0.2))
    probs = np.abs(simulate(circuit)) ** 2
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
        gate = qsim.Gate(qubits, np.eye(1 << len(qubits), dtype=complex))
        rows = tuple(q + 4 for q in qubits)
        explicit = (1 - p) * rho + p / len(words) * sum(w @ rho @ w for w in words)
        closed = qsim._apply_gate_batch(rho.reshape(1, -1), qsim._channel(gate, p),
                                        rows + qubits, 8).reshape(rho.shape)
        assert np.abs(closed - explicit).max() < 1e-12, qubits


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
    rng = np.random.default_rng(batch)
    for qubits, n in gate_cases():
        shape, dim = (batch, 1 << n), 1 << len(qubits)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        strided = np.stack([states.real, states.imag], axis=-1)[..., 0]  # as _draw's diagonal
        assert not strided.flags.c_contiguous
        for s, mat, dtype in ((states, matrix, complex), (states.real.copy(), matrix, complex),
                              (states.real.copy(), matrix.real.copy(), float),
                              (strided, matrix.real.copy(), float)):
            got = qsim._apply_gate_batch(s, mat, qubits, n)
            want = apply_gate_batch(s, mat, qubits, n)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), (qubits, n, dtype)


def test_shared_prefix_matches_per_circuit_channel():
    circuit = build_ansatz((0.5, -0.3, 0.8))
    bases = rdm.build_schedule(4).bases
    model = NoiseModel(p1=0.004, p2=0.03)
    seed = 6
    tables = measure_pauli_sets(circuit, bases, 4096, model=model, seed=seed)
    assert tuple(t.basis for t in tables) == bases
    for gi, table in enumerate(tables):
        rotated = Circuit(4, circuit.gates + basis_rotation(table.basis).gates)
        alone = apply_noise(rotated, model, qsim._group_seed(seed, gi))(4096)
        assert np.array_equal(table.counts, alone)


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


def test_channel_rejects_mismatched_register():
    with pytest.raises(ValidationError, match="2 qubits"):
        apply_noise(build_ansatz((0.1, 0.2, 0.3)), NoiseModel(n_qubits=2), seed=0)


def test_shot_noise_scaling():
    circuit = build_ansatz((0.5, 0.2, -0.1))
    obs = "ZIII"
    exact_val = expectation(simulate(circuit), obs).real
    for shots in (1000, 10_000, 100_000):
        tables = measure_pauli_sets(circuit, qwc_groups([obs])[0], shots, model=None,
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
    with pytest.raises(ValidationError):
        measure_pauli_sets(Circuit(2), ["ZZ"], 0)


def test_readout_confusion_biases_expectation():
    # <Z0> on |0> with symmetric flip 0.1 reads 0.8 before mitigation
    circuit = Circuit(1)
    readout = np.array([[[0.9, 0.1], [0.1, 0.9]]])
    model = NoiseModel(p1=0.0, p2=0.0, readout=readout, n_qubits=1)
    shots = 200_000
    tables = measure_pauli_sets(circuit, qwc_groups(["Z"])[0], shots,
                                model=model, seed=1)
    raw = table_expectation(tables[0], "Z")
    assert abs(raw - 0.8) < 5 / np.sqrt(shots)
    fixed, _ = mitigate_readout(tables[0].counts, model)
    assert abs(fixed @ z_parity_signs("Z") - 1.0) < 7 / np.sqrt(shots)


def test_asymmetric_readout_conditions_on_true_bit():
    # readout[q][m, t] = P(measured m | true t): a prepared 1 reads 0 with 0.3
    readout = np.array([[[0.9, 0.3], [0.1, 0.7]]])
    model = NoiseModel(p1=0.0, p2=0.0, readout=readout, n_qubits=1)
    shots = 100_000
    counts = apply_noise(Circuit(1).x(0), model, seed=8)(shots)
    assert abs(counts[0] / shots - 0.3) < 5 * np.sqrt(0.3 * 0.7 / shots)


def test_mitigation_identity_confusion_is_noop():
    counts = np.zeros(16)
    counts[0b1100], counts[0b0011] = 70, 30  # bitstrings 0011 and 1100
    probs, clipped = mitigate_readout(counts, NoiseModel.ideal())
    assert probs == pytest.approx(counts / 100)
    assert clipped == 0.0


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
        circuit = build_ansatz(th)
        obs = "ZZII"
        exact_val = expectation(simulate(circuit), obs).real
        tables = measure_pauli_sets(circuit, qwc_groups([obs])[0], shots, model=model,
                                    seed=100 + trial)
        fixed, _ = mitigate_readout(tables[0].counts, model)
        # inverse confusion inflates variance by roughly (1 - 2 eps)^-2
        sigma = 1.1 / np.sqrt(shots) / (1 - 2 * 0.02) ** 2
        assert abs(fixed @ z_parity_signs(obs) - exact_val) < 3.5 * sigma


def test_statevector_norm_preserved():
    # the amplitudes stay normalized after every gate
    gates = build_ansatz((1.1, -0.7, 0.3)).gates + basis_rotation("XYZY").gates
    for k in range(1, len(gates) + 1):
        assert abs(np.linalg.norm(simulate(Circuit(4, gates[:k]))) - 1.0) < 1e-12


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
