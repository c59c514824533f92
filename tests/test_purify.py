import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rdmpt2 import hamio, qsim, rdm, vqe
from rdmpt2.hamio import ValidationError
from rdmpt2.purify import (MIDPOINT_TOL, PurificationError, _pair_matrix,
                           from_pair_basis, purify_rdm)

from conftest import random_pure_2e_rdm

ANGLES = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)
OPEN_SHELL = [(0.0, 0.0, np.pi), (0.0, np.pi, 0.0)]


def pair_rdm(m):
    """An exact-provenance 2-electron RdmPair whose pair matrix is ``m``."""
    return rdm.RdmPair(np.zeros((4, 4)), from_pair_basis(m, 4),
                       rdm.RdmMeta(provenance="exact", n_electrons=2))


@pytest.fixture(scope="module")
def noisy_pipelines():
    """The sampled benchmark points: H2 at 8192 and LiH at 1024 shots per
    circuit, default noise model."""
    return {mol: vqe.PointPipeline(vqe.ScanSpec(molecule=mol, geometries=[r], shots=shots,
                                                noise=qsim.NoiseModel()), r)
            for mol, r, shots in (("h2", 2.0, 8192), ("lih", 1.5949, 1024))}


def noisy_symmetrized_rdm(pipe, theta, seed):
    tables = qsim.measure_pauli_sets(theta, pipe.schedule.bases,
                                     pipe.spec.shots, model=pipe.spec.noise, seed=seed)
    return rdm.symmetrize(rdm.rdm_from_shots(tables, pipe.schedule, model=pipe.spec.noise))


def exact_symmetrized_rdm(theta):
    schedule = rdm.build_schedule(4)
    return rdm.symmetrize(rdm.rdm_from_state(qsim.simulate(theta, schedule.bases), schedule))


def outcome(purify, pair, table):
    """("ok", energy, basin flag) or ("raised", exception class, None)."""
    try:
        pure = purify(pair)
    except (PurificationError, ValidationError) as exc:
        return "raised", type(exc), None
    return "ok", hamio.energy_from_rdm(table, pure), pure.meta.purification["basin_warning"]


def assert_matches_mcweeney(pair, table):
    """Same exception class, or energies within 1e-9 Ha.  The one deliberate
    difference: outside McWeeny's basin the iteration may diverge or land on
    another pair state, where the projector returns with ``basin_warning``
    set (see ``test_projector_purifies_where_mcweeney_diverges``)."""
    new = outcome(purify_rdm, pair, table)
    old = outcome(oracles.purify_rdm, pair, table)
    if new[0] == "ok" and new[2]:
        return
    assert new[0] == old[0]
    if new[0] == "raised":
        assert new[1] is old[1]
    else:
        assert abs(new[1] - old[1]) < 1e-9
        assert new[2] == old[2]


# ---------------------------------------------------------------------------
# pair-basis reshape
# ---------------------------------------------------------------------------

def test_determinant_pair_matrix_is_projector():
    det = oracles.determinant_rdm((0, 1), 4)
    m = oracles.to_pair_basis(det)
    e01 = np.zeros(6)
    e01[0] = 1.0  # pair (0,1) is first in lexicographic order
    assert np.allclose(m, np.outer(e01, e01))
    assert np.trace(m) == pytest.approx(1.0)  # N(N-1)/2 for N=2


def test_pair_basis_round_trip():
    pair = random_pure_2e_rdm(np.random.default_rng(1))
    back = from_pair_basis(oracles.to_pair_basis(pair), 4)
    assert np.abs(back - pair.rho2).max() < 1e-14


def test_pair_basis_hermitian_from_random_antisymmetric():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(4, 4, 4, 4))
    t = t - t.transpose(1, 0, 2, 3)
    t = t - t.transpose(0, 1, 3, 2)
    t = 0.5 * (t + t.transpose(2, 3, 0, 1))
    m = oracles.to_pair_basis(rdm.RdmPair(np.zeros((4, 4)), t))
    assert np.abs(m - m.T).max() < 1e-14


def test_pair_basis_rejects_broken_antisymmetry():
    t = np.zeros((4, 4, 4, 4))
    t[0, 1, 0, 1] = 1.0  # missing the sign partners
    pair = rdm.RdmPair(np.zeros((4, 4)), t, rdm.RdmMeta(provenance="exact", n_electrons=2))
    with pytest.raises(ValidationError, match="antisymmetry"):
        purify_rdm(pair)
    with pytest.raises(ValidationError, match="antisymmetry"):
        oracles.to_pair_basis(pair)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_so=st.integers(2, 6))
def test_index_reshape_equals_loop_oracle_exactly(seed, n_so):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(n_so,) * 4)
    t = t - t.transpose(1, 0, 2, 3)
    t = t - t.transpose(0, 1, 3, 2)
    pair = rdm.RdmPair(np.zeros((n_so, n_so)), t)
    m = _pair_matrix(pair.rho2)
    assert np.array_equal(m, oracles.to_pair_basis(pair))
    unsymmetric = rng.normal(size=m.shape)
    assert np.array_equal(from_pair_basis(unsymmetric, n_so),
                          oracles.from_pair_basis(unsymmetric, n_so))


# ---------------------------------------------------------------------------
# McWeeny's iteration (the oracle) and the projector that replaced it
# ---------------------------------------------------------------------------

def test_mcweeney_projector_fixed_point():
    m = np.zeros((6, 6))
    m[2, 2] = 1.0
    out, info = oracles.mcweeney(m)
    assert info["iterations"] == 0
    assert np.allclose(out, m)


def test_projector_fixed_point():
    m = np.zeros((6, 6))
    m[2, 2] = 1.0
    pure = purify_rdm(pair_rdm(m))
    assert np.array_equal(oracles.to_pair_basis(pure), m)
    assert pure.meta.purification == {"iterations": 0, "basin_warning": False}


def test_mcweeney_polynomial_step():
    # eigenvalue 0.9 maps to 3(0.81) - 2(0.729) = 0.972 in one application
    m = np.diag([0.9, 0.1, 0, 0, 0, 0])
    p2 = m @ m
    stepped = 3 * p2 - 2 * (p2 @ m)
    assert stepped[0, 0] == pytest.approx(0.972)
    out, info = oracles.mcweeney(m)
    vals = np.sort(np.linalg.eigvalsh(out))
    assert np.abs(vals[-1] - 1.0) < 1e-10
    assert np.abs(vals[:-1]).max() < 1e-10
    assert info["iterations"] >= 2


def test_projector_keeps_eigenvalues_above_half():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    m = q @ np.diag([0.9, 0.1, 0.05, -0.05, 0, 0]) @ q.T
    pure = purify_rdm(pair_rdm(m))
    expected = np.outer(q[:, 0], q[:, 0])
    assert np.abs(oracles.to_pair_basis(pure) - expected).max() < 1e-14
    out, _ = oracles.mcweeney(m)
    assert np.abs(out - expected).max() < 1e-10


def test_mcweeney_unstable_midpoint_flagged():
    m = np.diag([0.5, 0.5, 0, 0, 0, 0])
    with pytest.raises(PurificationError):
        oracles.mcweeney(m)


def test_projector_midpoint_names_the_eigenvalue():
    m = np.diag([0.5, 0.5, 0, 0, 0, 0])
    with pytest.raises(PurificationError, match=r"eigenvalue 0\.5 lies within"):
        purify_rdm(pair_rdm(m))


@pytest.mark.parametrize("eps, purifies", [(1e-8, True), (1e-9, False)])
def test_midpoint_tolerance_splits_like_mcweeney(eps, purifies):
    assert 1e-9 < MIDPOINT_TOL < 1e-8
    m = np.diag([0.5 + eps, 0.5 - eps, 0, 0, 0, 0])
    if purifies:
        pure = purify_rdm(pair_rdm(m))
        assert np.abs(oracles.to_pair_basis(pure) - np.diag([1.0, 0, 0, 0, 0, 0])).max() < 1e-15
        oracles.mcweeney(m)
    else:
        with pytest.raises(PurificationError, match="eigenvalue 0.499999999 "):
            purify_rdm(pair_rdm(m))
        with pytest.raises(PurificationError):
            oracles.mcweeney(m)


def test_projector_splits_the_trace_normalised_matrix():
    # a pair trace of 3 (e.g. a miscalibrated scale) does not move the split:
    # eigenvalues 1.8 and 1.2 are 0.6 and 0.4 of the trace
    m = np.diag([1.8, 1.2, 0, 0, 0, 0])
    pure = purify_rdm(pair_rdm(m))
    assert pure.meta.purification["basin_warning"] is False
    assert np.abs(oracles.to_pair_basis(pure) - np.diag([1.0, 0, 0, 0, 0, 0])).max() < 1e-15
    out = oracles.purify_rdm(pair_rdm(m))
    assert np.abs(oracles.to_pair_basis(out) - oracles.to_pair_basis(pure)).max() < 1e-10


def test_zero_projector_raises_like_mcweeney():
    m = np.diag([0.4, 0.35, 0.25, 0, 0, 0])
    with pytest.raises(PurificationError, match="zero projector"):
        purify_rdm(pair_rdm(m))
    with pytest.raises(PurificationError, match="zero projector"):
        oracles.purify_rdm(pair_rdm(m))


def test_mcweeney_basin_warning():
    m = np.diag([1.4, -0.4, 0, 0, 0, 0])
    out, info = oracles.mcweeney(m)
    assert info["basin_warning"] is True
    vals = np.linalg.eigvalsh(out)
    assert np.abs(np.sort(vals)[-1] - 1.0) < 1e-10


def test_projector_basin_warning():
    pure = purify_rdm(pair_rdm(np.diag([1.4, -0.4, 0, 0, 0, 0])))
    assert pure.meta.purification["basin_warning"] is True
    assert np.abs(oracles.to_pair_basis(pure) - np.diag([1.0, 0, 0, 0, 0, 0])).max() < 1e-15


def test_projector_purifies_where_mcweeney_diverges():
    # deliberate difference outside the basin (-0.3, 1.3): the polynomial maps
    # 1.7 and -0.7 to ever larger values, so the iteration raises, and it
    # carries 1.4 to 0 and -0.4 to 1, landing on the other pair state; the
    # projector keeps the eigenvector above 1/2 and flags the basin
    for top, oracle_diag in ((1.7, None), (1.4, [0.0, 1.0, 0, 0, 0, 0])):
        m = np.diag([top, 1.0 - top, 0, 0, 0, 0])
        if oracle_diag is None:
            with pytest.raises(PurificationError, match="stopped decreasing"):
                oracles.purify_rdm(pair_rdm(m))
        else:
            out = oracles.purify_rdm(pair_rdm(m))
            assert np.abs(oracles.to_pair_basis(out) - np.diag(oracle_diag)).max() < 1e-10
        pure = purify_rdm(pair_rdm(m))
        assert pure.meta.purification["basin_warning"] is True
        assert np.abs(oracles.to_pair_basis(pure) - np.diag([1.0, 0, 0, 0, 0, 0])).max() < 1e-15


@settings(max_examples=25, deadline=None)
@given(mol=st.sampled_from(["h2", "lih"]), theta=ANGLES, seed=st.integers(0, 2**20))
def test_projector_matches_mcweeney_on_noisy_rdms(noisy_pipelines, mol, theta, seed):
    pipe = noisy_pipelines[mol]
    assert_matches_mcweeney(noisy_symmetrized_rdm(pipe, theta, seed), pipe.table)


@settings(max_examples=25, deadline=None)
@given(theta=ANGLES)
def test_projector_matches_mcweeney_on_exact_rdms(h2, theta):
    assert_matches_mcweeney(exact_symmetrized_rdm(theta), h2[0])


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def test_purify_fixed_point_on_exact_rdm(h2_fci):
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    pure = purify_rdm(pair)
    assert np.abs(pure.rho2 - pair.rho2).max() < 1e-10
    assert np.abs(pure.rho1 - pair.rho1).max() < 1e-10
    assert pure.meta.provenance == "purified"
    assert pure.meta.purification["iterations"] <= 2


def test_purify_improves_mixed_rdm(h2, h2_fci):
    # mixing 5% of a scaled identity into the exact pair matrix: purification
    # recovers the pure state, strictly improving the energy
    table, _ = h2
    e_fci, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    mixed_m = 0.95 * oracles.to_pair_basis(pair) + 0.05 * np.eye(6) / 6.0
    mixed = rdm.RdmPair(pair.rho1.copy(), from_pair_basis(mixed_m, 4),
                        rdm.RdmMeta(provenance="exact", n_electrons=2))
    e_mixed = hamio.energy_from_rdm(table, mixed)
    pure = purify_rdm(mixed)
    e_pure = hamio.energy_from_rdm(table, pure)
    assert abs(e_pure - e_fci) < abs(e_mixed - e_fci)
    assert abs(e_pure - e_fci) < 1e-9  # identity admixture leaves the eigenvector intact


def test_purified_invariants_and_idempotence():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pair = random_pure_2e_rdm(rng)
        noise = rng.normal(size=(6, 6))
        noise = 0.15 * (noise + noise.T) / np.linalg.norm(noise)
        noisy = rdm.RdmPair(pair.rho1, from_pair_basis(oracles.to_pair_basis(pair) + noise, 4),
                            rdm.RdmMeta(provenance="exact", n_electrons=2))
        pure = purify_rdm(noisy)
        assert oracles.traces(pure) == pytest.approx((2.0, 2.0), abs=1e-10)
        svals = np.linalg.svd(oracles.to_pair_basis(pure), compute_uv=False)
        assert svals[0] == pytest.approx(1.0, abs=1e-9)
        assert svals[1:].max() < 1e-9  # rank one
        again = purify_rdm(pure)
        assert np.abs(again.rho2 - pure.rho2).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_purify_is_a_fixed_point_on_pure_states(seed):
    pair = random_pure_2e_rdm(np.random.default_rng(seed))
    pure = purify_rdm(pair)
    assert np.abs(pure.rho2 - pair.rho2).max() < 1e-12
    assert np.abs(pure.rho1 - pair.rho1).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(mol=st.sampled_from(["h2", "lih"]), theta=ANGLES, seed=st.integers(0, 2**20))
def test_purify_is_idempotent_on_purified_noisy_rdms(noisy_pipelines, mol, theta, seed):
    try:
        pure = purify_rdm(noisy_symmetrized_rdm(noisy_pipelines[mol], theta, seed))
    except PurificationError:
        return  # a failed purification has no output to purify again
    again = purify_rdm(pure)
    assert np.abs(again.rho2 - pure.rho2).max() < 1e-12
    assert np.abs(again.rho1 - pure.rho1).max() < 1e-12


@pytest.mark.parametrize("theta", OPEN_SHELL)
def test_open_shell_determinant_raises_named_midpoint(theta):
    # one open-shell determinant (rho1 diagonal 1, 0, 0, 1); spin-reflection
    # averaging makes it an even mixture of two pair states, both at 1/2
    sym = exact_symmetrized_rdm(theta)
    assert np.abs(np.linalg.eigvalsh(oracles.to_pair_basis(sym))[-2:] - 0.5).max() < 1e-12
    with pytest.raises(PurificationError, match=r"eigenvalue 0\.5 lies within"):
        purify_rdm(sym)
    with pytest.raises(PurificationError):
        oracles.purify_rdm(sym)


@pytest.mark.parametrize("theta", OPEN_SHELL)
def test_pipeline_records_failed_purification(theta):
    spec = vqe.ScanSpec(molecule="h2", geometries=[0.7], shots=None)
    pipe = vqe.PointPipeline(spec, 0.7)
    rec = pipe.evaluate(theta, 0)
    assert rec["e_pure"] is None
    assert rec["note"].startswith("purification failed: pair-matrix eigenvalue 0.5 ")
    assert "e_raw" in rec and "e_pt2_frozen" not in rec


def test_purify_refuses_wrong_sector():
    det = oracles.determinant_rdm((0, 1, 2), 6)
    det.meta.provenance = "exact"
    with pytest.raises(ValidationError, match="N-representability"):
        purify_rdm(det)


def test_purify_refuses_raw_provenance():
    pair = random_pure_2e_rdm(np.random.default_rng(0))
    pair.meta.provenance = "raw"
    with pytest.raises(ValidationError, match="symmetrized"):
        purify_rdm(pair)
