import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import determinant_rdm
from rdmpt2 import hamio, qsim, rdm, vqe
from rdmpt2.hamio import ValidationError
from rdmpt2.qsim import NoiseModel, ShotTable, build_ansatz, measure_pauli_sets, simulate
from rdmpt2.rdm import (CoverageError, RdmMeta, RdmPair, bootstrap, build_schedule,
                        rdm_from_shots, rdm_from_state, symmetrize)

from conftest import random_pure_2e_rdm, random_rdm_pair


def dense_rdm_oracle(psi):
    """1-/2-RDM by direct contraction with dense ladder matrices."""
    n = 4
    a = {p: qsim.jw_ladder(p, n) for p in range(n)}
    ad = {p: m.conj().T for p, m in a.items()}
    rho1 = np.zeros((n, n))
    rho2 = np.zeros((n, n, n, n))
    for p, q in itertools.product(range(n), repeat=2):
        rho1[p, q] = (psi.conj() @ ad[p] @ a[q] @ psi).real
    for p, q, r, s in itertools.product(range(n), repeat=4):
        rho2[p, q, r, s] = (psi.conj() @ ad[p] @ ad[q] @ a[s] @ a[r] @ psi).real
    return rho1, rho2


def test_determinant_rdm_traces():
    det = determinant_rdm((0, 1), 4)
    assert oracles.traces(det) == pytest.approx((2.0, 2.0))
    assert np.allclose(det.rho1, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_assembled_rdm_matches_dense_oracle():
    # statevector-assembled RDMs equal the dense contraction to 1e-12
    rng = np.random.default_rng(2)
    schedule = build_schedule(4)
    for _ in range(3):
        th = rng.uniform(-np.pi, np.pi, 3)
        psi = simulate(build_ansatz(th))
        pair = rdm_from_state(psi, schedule)
        rho1_o, rho2_o = dense_rdm_oracle(psi)
        assert np.abs(pair.rho1 - rho1_o).max() < 1e-12
        assert np.abs(pair.rho2 - rho2_o).max() < 1e-12
        oracles.validate_pair(pair, 1e-10)


def test_pauli_coefficients_rebuild_every_measured_element():
    # sum_w c_w P_w rebuilds each element's hermitian part exactly, the
    # contraction agrees with one trace per word, and the schedule measures
    # exactly the non-identity words some element uses
    n = 4
    schedule = build_schedule(n)
    elements = schedule.elements1 + schedule.elements2
    a = {p: qsim.jw_ladder(p, n) for p in range(n)}
    ad = {p: m.conj().T for p, m in a.items()}
    ops = [ad[e[0]] @ a[e[1]] if len(e) == 2 else ad[e[0]] @ ad[e[1]] @ a[e[3]] @ a[e[2]]
           for e in elements]
    ops = np.array([0.5 * (m + m.conj().T) for m in ops])
    coeffs = rdm._pauli_coefficients(ops, n)
    assert not coeffs.imag.any()
    coeffs = coeffs.real
    words = rdm._pauli_words(n)
    reference = oracles.element_terms(elements, n)
    for e, op, c in zip(elements, ops, coeffs):
        rebuilt = sum(ci * qsim.pauli_matrix(w) for w, ci in zip(words, c) if ci)
        assert np.array_equal(rebuilt, op), e
        assert reference[e] == (c[0], {w: ci for w, ci in zip(words[1:], c[1:]) if ci})
    assert np.array_equal(schedule.k0, coeffs[:, 0])
    used = {w for w, u in zip(words[1:], coeffs[:, 1:].any(axis=0)) if u}
    assert used == {w for group in schedule.words for w in group}


def test_hf_rdm_from_exact_state():
    schedule = build_schedule(4)
    pair = rdm_from_state(simulate(build_ansatz((0, 0, 0))), schedule)
    assert np.allclose(pair.rho1, np.diag([1, 1, 0, 0]), atol=1e-12)
    det = determinant_rdm((0, 1), 4)
    assert np.abs(pair.rho2 - det.rho2).max() < 1e-12


def test_sampled_rdm_energy_within_shot_noise(h2, h2_fci):
    table, _ = h2
    e_fci, amps, basis = h2_fci
    # optimal parameters: theta0 from the FCI pair amplitudes
    pair_exact = oracles.rdms_from_amplitudes(amps, basis)
    theta0 = 2 * np.arctan2(pair_exact.rho2[2, 3, 0, 1], pair_exact.rho2[0, 1, 0, 1])
    circuit = build_ansatz((theta0, 0, 0))
    schedule = build_schedule(4)
    tables = measure_pauli_sets(circuit, schedule.bases, 10**6,
                                model=None, seed=5)
    pair = rdm_from_shots(tables, schedule)
    energy = hamio.energy_from_rdm(table, pair)
    assert abs(energy - e_fci) < 3e-3  # ~3 sigma at 1e6 shots


def test_coverage_error_lists_missing():
    schedule = build_schedule(4)
    circuit = build_ansatz((0.2, 0.0, 0.0))
    tables = measure_pauli_sets(circuit, schedule.bases, 64,
                                model=None, seed=1)
    dropped = tables[1:]
    with pytest.raises(CoverageError) as err:
        rdm_from_shots(dropped, schedule)
    assert len(err.value.missing) >= 1


def test_enforce_sz_zeroes_spin_changing_elements():
    rng = np.random.default_rng(4)
    pair = random_rdm_pair(rng)
    out = symmetrize(pair)
    # (0,1) is an alpha->beta 1-body element: must vanish
    assert out.rho1[0, 1] == 0.0
    # an Sz-conserving element only meets its alpha<->beta reflection
    assert out.rho1[0, 2] == 0.5 * (pair.rho1[0, 2] + pair.rho1[1, 3])
    assert out.rho2[0, 1, 0, 1] == 0.5 * (pair.rho2[0, 1, 0, 1] + pair.rho2[1, 0, 1, 0])
    # spin-changing two-body element (alpha alpha ; alpha beta) vanishes
    assert out.rho2[0, 2, 0, 1] == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetrize_is_idempotent(seed):
    once = symmetrize(random_rdm_pair(np.random.default_rng(seed)))
    twice = symmetrize(once)
    assert once.meta.provenance == twice.meta.provenance == "symmetrized"
    assert np.array_equal(twice.rho1, once.rho1)
    assert np.array_equal(twice.rho2, once.rho2)


def test_reflection_average_values():
    pair = random_rdm_pair(np.random.default_rng(1))
    pair.rho1[0, 0] = 0.6
    pair.rho1[1, 1] = 0.4
    out = symmetrize(pair)
    assert out.rho1[0, 0] == pytest.approx(0.5)
    assert out.rho1[1, 1] == pytest.approx(0.5)


def test_reflection_average_exact_invariance():
    rng = np.random.default_rng(12)
    pair = symmetrize(random_rdm_pair(rng))
    flip = np.arange(4) ^ 1
    assert np.abs(pair.rho1 - pair.rho1[np.ix_(flip, flip)]).max() < 1e-15
    assert np.abs(pair.rho2 - pair.rho2[np.ix_(flip, flip, flip, flip)]).max() < 1e-15


def test_symmetrization_fixed_point_on_singlet(h2_fci):
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    sym = symmetrize(pair)
    assert np.abs(sym.rho1 - pair.rho1).max() < 1e-12
    assert np.abs(sym.rho2 - pair.rho2).max() < 1e-12


def test_bootstrap_single_resample_and_deterministic_pipeline():
    schedule = build_schedule(4)
    tables = measure_pauli_sets(build_ansatz((0.3, 0.0, 0.0)), schedule.bases,
                                100, seed=0)
    ens = bootstrap(tables, schedule, 1, lambda raw: {"value": 1.23}, seed=0)
    assert ens.mean["value"] == 1.23 and ens.std["value"] == 0.0
    ens = bootstrap(tables, schedule, 50, lambda raw: {"value": 7.0}, seed=0)
    assert ens.std["value"] == 0.0


def test_bootstrap_matches_binomial_closed_form():
    # one spin orbital: rho1[0, 0] = (1 - <Z>) / 2 from the single Z circuit
    shots = 10_000
    schedule = build_schedule(1)
    table = ShotTable(basis="Z", counts=np.array([shots // 2, shots // 2]), shots=shots)

    def mean_z(raw):
        return {"value": 1.0 - 2.0 * raw.rho1[0, 0]}

    ens = bootstrap([table], schedule, 10_000, mean_z, seed=3)
    closed_form = 1.0 / np.sqrt(shots)  # std of <Z> for p = 1/2
    assert abs(ens.std["value"] - closed_form) / closed_form < 0.2


@pytest.mark.parametrize("failing", [{0}, {1}, {0, 1, 2, 3}])
def test_bootstrap_counts_failed_resamples(failing):
    # a failure on resample 0 used to make every later resample raise
    # KeyError, and one on a later resample left uninitialised memory in its
    # sample and so in the mean and std
    schedule = build_schedule(4)
    tables = measure_pauli_sets(build_ansatz((0.3, 0.0, 0.0)), schedule.bases,
                                100, seed=0)
    index = iter(range(4))

    def pipeline(raw):
        i = next(index)
        return {"steady": 1.0, "flaky": None if i in failing else float(i)}

    ens = bootstrap(tables, schedule, 4, pipeline, seed=0)
    kept = np.array([float(i) for i in range(4) if i not in failing])
    assert ens.failed == {"steady": 0, "flaky": len(failing)}
    assert np.array_equal(np.isnan(ens.samples["flaky"]), [i in failing for i in range(4)])
    assert ens.mean["steady"] == 1.0 and ens.std["steady"] == 0.0
    if kept.size:
        assert ens.mean["flaky"] == kept.mean() and ens.std["flaky"] == kept.std()
    else:
        assert "flaky" not in ens.mean and "flaky" not in ens.std


def test_bootstrap_rejects_empty():
    table = ShotTable(basis="Z", counts=np.zeros(2, dtype=int), shots=0)
    with pytest.raises(ValidationError):
        bootstrap([table], build_schedule(1), 2, lambda raw: {"value": 0.0})


def test_batched_bootstrap_matches_per_resample_loop():
    # LiH at one seed, over more than one block of resamples: every
    # resample's energies equal the loop that resamples, mitigates and
    # assembles one table and one resample at a time
    spec = vqe.ScanSpec(molecule="lih", geometries=[1.5949], shots=1024,
                        noise=NoiseModel(), seed=3)
    pipe = vqe.PointPipeline(spec, 1.5949)
    _, tables = pipe.evaluate((0.4, -0.2, 0.1), 0)
    n = rdm._BOOTSTRAP_BLOCK + 5
    ens = bootstrap(tables, pipe.schedule, n, pipe.bootstrap_pipeline,
                    model=spec.noise, seed=3)

    def loop_pipeline(resampled):
        mitigated = [oracles.mitigate_readout(t, spec.noise) for t in resampled]
        rho1, rho2 = oracles.rdm_from_shots(mitigated, pipe.schedule)
        return pipe.bootstrap_pipeline(RdmPair(rho1, rho2, RdmMeta()))

    loop = oracles.bootstrap(tables, n, loop_pipeline, seed=3)
    assert len(loop) == n
    assert set(ens.samples) == set(vqe.ENERGY_KEYS)
    for i, expected in enumerate(loop):
        for key, value in expected.items():
            assert abs(ens.samples[key][i] - value) < 1e-12, (i, key)
    assert ens.std["e_pure"] > 0.0


# ---------------------------------------------------------------------------
# the compiled measurement map against the element-by-element assembly
# ---------------------------------------------------------------------------

def _random_tables(schedule, rng, zero_fraction):
    tables = []
    for basis in schedule.bases:
        counts = rng.integers(0, 60, size=16) * (rng.random(16) >= zero_fraction)
        counts[rng.integers(16)] += 1  # no table is empty
        tables.append(ShotTable(basis=basis, counts=counts, shots=int(counts.sum())))
    return tables


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero_fraction=st.floats(0.0, 0.9),
       noisy=st.booleans())
def test_map_matches_dict_assembly_on_counts(seed, zero_fraction, noisy):
    rng = np.random.default_rng(seed)
    schedule = build_schedule(4)
    tables = _random_tables(schedule, rng, zero_fraction)
    model = None
    if noisy:  # asymmetric: P(1|0) and P(0|1) drawn separately per qubit
        flip = rng.uniform(0.0, 0.2, size=(4, 2))
        model = NoiseModel(readout=np.array([[[1 - a, b], [a, 1 - b]] for a, b in flip]))
    pair = rdm_from_shots(tables, schedule, model=model)
    mitigated = tables if model is None else [oracles.mitigate_readout(t, model)
                                              for t in tables]
    rho1, rho2 = oracles.rdm_from_shots(mitigated, schedule)
    assert np.abs(pair.rho1 - rho1).max() < 1e-12
    assert np.abs(pair.rho2 - rho2).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
def test_map_matches_dict_assembly_on_states(angles):
    schedule = build_schedule(4)
    psi = simulate(build_ansatz(angles))
    pair = rdm_from_state(psi, schedule)
    rho1, rho2 = oracles.rdm_from_state(psi, schedule)
    assert np.abs(pair.rho1 - rho1).max() < 1e-12
    assert np.abs(pair.rho2 - rho2).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3), seed=st.integers(0, 2**20))
def test_raw_rdms_are_hermitian_and_antisymmetric(angles, seed):
    # exact and noiseless-sampled raw RDMs of the number-conserving ansatz
    # also hold both traces at N = 2 and N(N-1) = 2; readout mitigation moves
    # the noisy traces, so only the structure is checked there
    schedule = build_schedule(4)
    circuit = build_ansatz(angles)
    exact_raw = rdm_from_state(simulate(circuit), schedule)
    sampled = rdm_from_shots(measure_pauli_sets(circuit, schedule.bases, 256, seed=seed),
                             schedule)
    for pair in (exact_raw, sampled):
        oracles.validate_pair(pair, 1e-12)
        assert oracles.traces(pair) == pytest.approx((2.0, 2.0), abs=1e-12)
    model = NoiseModel()
    tables = measure_pauli_sets(circuit, schedule.bases, 256, model=model, seed=seed)
    oracles.validate_pair(rdm_from_shots(tables, schedule, model=model), 1e-12)


def test_validate_tolerance_is_absolute():
    pair = random_pure_2e_rdm(np.random.default_rng(3))
    pair.rho1[0, 1] += 1e-9
    oracles.validate_pair(pair, 1e-8)
    with pytest.raises(ValidationError, match="rho1 is not hermitian"):
        oracles.validate_pair(pair, 1e-10)


def test_coverage_error_names_missing_group_and_wrong_basis():
    schedule = build_schedule(4)
    tables = measure_pauli_sets(build_ansatz((0.2, 0.1, 0.0)), schedule.bases,
                                64, seed=1)
    with pytest.raises(CoverageError) as err:
        rdm_from_shots(tables[:2] + tables[3:], schedule)
    assert err.value.missing == schedule.words[2]
    wrong = ShotTable(basis="XXXY", counts=tables[4].counts, shots=64)
    assert "XXXY" not in schedule.bases
    with pytest.raises(CoverageError) as err:
        rdm_from_shots(tables[:4] + [wrong] + tables[5:], schedule)
    assert err.value.missing == schedule.words[4]
    with pytest.raises(CoverageError):
        bootstrap(tables[1:], schedule, 2, lambda raw: {"value": 0.0})


def test_schedule_is_hashable_with_identity_equality():
    full = build_schedule(4)
    assert hash(full) == hash(build_schedule(4))
    assert full == build_schedule(4)
    assert full != build_schedule(2)
    assert {full: 1, build_schedule(2): 2}[full] == 1


def test_readout_clipped_is_the_largest_negative_mass():
    # one qubit, flip 0.1: A^-1 (0, 10) = (-1.25, 11.25), so 1.25 of 10 is clipped
    model = NoiseModel(p1=0.0, p2=0.0, readout=np.array([[[0.9, 0.1], [0.1, 0.9]]]),
                       n_qubits=1)
    probs, clipped = qsim.mitigate_readout(np.array([[0, 10], [5, 5]]), model)
    assert np.allclose(probs, [[0.0, 1.0], [0.5, 0.5]], atol=1e-15)
    assert clipped == pytest.approx([0.125, 0.0], abs=1e-15)
    # four qubits, flip 0.02: every count on outcome 0 gives quasi-counts
    # prod_q (0.98 or -0.02) / 0.96, negative on the odd-weight outcomes
    schedule = build_schedule(4)
    peaked = np.zeros(16, dtype=int)
    peaked[0] = 100
    tables = [ShotTable(basis=b, counts=np.full(16, 10), shots=160)
              for b in schedule.bases]
    tables[3] = ShotTable(basis=schedule.bases[3], counts=peaked, shots=100)
    a, b = 0.98 / 0.96, 0.02 / 0.96
    expected = sum(math.comb(4, k) * a ** (4 - k) * b ** k for k in (1, 3))
    pair = rdm_from_shots(tables, schedule, model=NoiseModel())
    assert pair.meta.readout_clipped == pytest.approx(expected, rel=1e-12)
    assert rdm_from_shots(tables, schedule).meta.readout_clipped == 0.0

