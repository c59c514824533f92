import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, random_pure_2e_rdm, random_rdm_pair, same_bits
from oracles import fbar, gammabar, reducible_3rdm
from rdmpt2 import hamio, pt2, purify, qsim, rdm, vqe
from rdmpt2.hamio import (ActiveSpaceSpec, IntegralTable, ReferenceDeterminant,
                          ValidationError)
from rdmpt2.rdm import RdmPair
from rdmpt2.pt2 import (DegenerateDenominatorError, embed_active_rdm, hf_mp2,
                        rdm_pt2, transformed_energies)

# The two fixtures with a frozen core, parametrized under their manifest ids
FROZEN_CORE_FIXTURES = pytest.mark.parametrize(
    "molecule, r", FIXTURES[4:], ids=["lih_1.5949", "nah_1.8874"])


def exact_active_rdm(table, entry):
    space = ActiveSpaceSpec.from_active_spatials(
        table.n_spatial, table.n_electrons, entry["active_spatial_orbitals"])
    active = hamio.freeze_core(table, space)
    e_active, amps = oracles.fci_ground_state(active)
    basis = oracles.SectorBasis.build(active.n_so, 2, 0)
    return space, active, e_active, oracles.rdms_from_amplitudes(amps, basis)


def contraction_split(rdm_, table, ref, space=None):
    """The ``_Split`` of an RDM's active blocks, as the contraction form reads them."""
    p = pt2._plan(table, ref, space)
    return pt2._Split(p, *pt2._cut(rdm_, p)[:2])


ANGLES = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)


@pytest.fixture(scope="module")
def pipelines():
    return {mol: vqe.PointPipeline(vqe.ScanSpec(molecule=mol, geometries=[r], shots=None), r)
            for mol, r in (("h2", 0.7), ("lih", 1.5949), ("nah", 1.8874))}


def purified_rdm(pipe, theta):
    raw = rdm.rdm_from_state(qsim.simulate(theta, pipe.schedule.bases), pipe.schedule)
    try:
        return purify.purify_rdm(rdm.symmetrize(raw))
    except purify.PurificationError:
        # e.g. theta = (0, 0, pi) prepares one open-shell determinant, which
        # spin-reflection averaging turns into an even two-state mixture
        assume(False)


def pipeline_pt2_case(pipe, theta):
    """(rdm, table, ref, space) as the pipeline's last PT2 call sees them:
    frozen-space without a frozen core, embedded full-space with one."""
    pure = purified_rdm(pipe, theta)
    if not pipe.has_frozen:
        return pure, pipe.table, pipe.ref, None
    return (embed_active_rdm(pure, pipe.space), pipe.table_full, pipe.ref_full,
            pipe.space)


def diagonal_table(h_spatial, n_electrons):
    """A table with no two-body part: the Fock diagonal is h itself."""
    n_so = 2 * len(h_spatial)
    return IntegralTable(n_spatial=len(h_spatial), n_electrons=n_electrons,
                         e_nuclear=0.0, h=np.diag(np.repeat(h_spatial, 2)),
                         g=np.zeros((n_so,) * 4))


def state_rdm(theta, provenance="exact"):
    sched = rdm.build_schedule(4)
    pair = rdm.rdm_from_state(qsim.simulate(theta, sched.bases), sched)
    pair.meta.provenance = provenance
    return pair


# ---------------------------------------------------------------------------
# reducible 3-RDM
# ---------------------------------------------------------------------------

def test_reducible_3rdm_antisymmetry_zero():
    pair = oracles.determinant_rdm((0, 1, 2), 6)
    assert reducible_3rdm(pair, (0, 0, 2, 0, 1, 2)) == pytest.approx(0.0)
    assert reducible_3rdm(pair, (0, 1, 2, 1, 1, 2)) == pytest.approx(0.0)


def test_reducible_3rdm_exact_on_determinants():
    # brute-force Wick value of <a+p a+q a+r a_u a_t a_s> on a determinant is
    # det of the occupation overlap; spot check the all-occupied diagonal
    det = oracles.determinant_rdm((0, 1, 2, 5), 6)
    assert reducible_3rdm(det, (0, 1, 2, 0, 1, 2)) == pytest.approx(1.0)
    assert reducible_3rdm(det, (0, 1, 5, 0, 1, 5)) == pytest.approx(1.0)
    assert reducible_3rdm(det, (0, 1, 3, 0, 1, 3)) == pytest.approx(0.0)
    # permuted ket picks up the permutation sign
    assert reducible_3rdm(det, (0, 1, 2, 1, 0, 2)) == pytest.approx(-1.0)


def test_reducible_3rdm_brute_force_wick_on_random_determinant():
    rng = np.random.default_rng(0)
    occ = (0, 2, 3, 5)
    det = oracles.determinant_rdm(occ, 6)
    n = np.zeros(6)
    n[list(occ)] = 1.0
    for _ in range(40):
        p, q, r = rng.choice(6, 3, replace=False)
        s, t, u = rng.choice(6, 3, replace=False)
        m = np.diag(n)[np.ix_([p, q, r], [s, t, u])]
        expected = np.linalg.det(m)
        assert reducible_3rdm(det, (p, q, r, s, t, u)) == pytest.approx(expected, abs=1e-12)


def test_true_3rdm_vanishes_for_two_electron_states(h2_fci):
    # statevector oracle: any 3-body expectation on a 2-electron state is zero
    _, amps, basis = h2_fci
    n = 4
    a = {p: qsim.jw_ladder(p, n) for p in range(n)}
    ad = {p: m.conj().T for p, m in a.items()}
    psi = np.zeros(16)
    for i, det in enumerate(basis.states):
        psi[det] = amps[i]
    op = ad[0] @ ad[1] @ ad[2] @ a[3] @ a[2] @ a[0]
    assert abs(psi @ op @ psi) < 1e-12


# ---------------------------------------------------------------------------
# fbar / gammabar
# ---------------------------------------------------------------------------

def test_fbar_on_hf_determinant_is_fock_offdiagonal(lih):
    table, _ = lih
    ref = ReferenceDeterminant.aufbau(table)
    det = oracles.determinant_rdm(ref.occupied, table.n_so)
    f = oracles.fock_matrix(table, ref.occupied)
    for i in (0, 1, 3):
        for a in (8, 9, 11):
            assert fbar(det, table, ref, i, a) == pytest.approx(f[i, a], abs=1e-12)
            # canonical orbitals: Brillouin makes these tiny
            assert abs(f[i, a]) < 1e-6


def test_gammabar_on_hf_determinant_is_bare_integral(lih):
    table, _ = lih
    ref = ReferenceDeterminant.aufbau(table)
    det = oracles.determinant_rdm(ref.occupied, table.n_so)
    g = table.g
    rng = np.random.default_rng(1)
    occ, virt = ref.occupied, ref.virtual
    for _ in range(10):
        i, j = rng.choice(occ, 2, replace=False)
        a, b = rng.choice(virt, 2, replace=False)
        assert gammabar(det, table, ref, i, j, a, b) == pytest.approx(
            g[i, j, a, b], abs=1e-12)


def test_gammabar_antisymmetry(h2):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    pair = state_rdm((0.8, 0.3, -0.2))
    assert gammabar(pair, table, ref, 0, 0, 2, 3) == pytest.approx(0.0)
    v = gammabar(pair, table, ref, 0, 1, 2, 3)
    assert gammabar(pair, table, ref, 1, 0, 2, 3) == pytest.approx(-v)
    assert gammabar(pair, table, ref, 0, 1, 3, 2) == pytest.approx(-v)


def test_scalar_and_batch_numerators_agree(lih):
    table, entry = lih
    space, active, e_active, active_rdm = exact_active_rdm(table, entry)
    emb = embed_active_rdm(active_rdm, space)
    ref = ReferenceDeterminant.aufbau(table)
    occ, virt = list(ref.occupied), list(ref.virtual)
    split = contraction_split(emb, table, ref, space)
    fmat = split.fbar[0]
    gten = pt2._gammabar_tensor(split)[0]
    rng = np.random.default_rng(2)
    for _ in range(8):
        i, j = rng.choice(len(occ), 2, replace=False)
        a, b = rng.choice(len(virt), 2, replace=False)
        assert gten[i, j, a, b] == pytest.approx(
            gammabar(emb, table, ref, occ[i], occ[j], virt[a], virt[b]), abs=1e-11)
        assert fmat[i, a] == pytest.approx(
            fbar(emb, table, ref, occ[i], virt[a]), abs=1e-11)


@FROZEN_CORE_FIXTURES
def test_numerators_match_einsum_oracle_on_unphysical_rdm(molecule, r):
    # the 3-RDM terms are rearranged through an algebraic identity of the
    # reconstruction, so they must agree for any antisymmetric rho2 and
    # hermitian rho1, not only N-representable ones
    _, table, _ = hamio.load_fixture(molecule, r)
    ref = ReferenceDeterminant.aufbau(table)
    occ, virt = list(ref.occupied), list(ref.virtual)
    pair = random_rdm_pair(np.random.default_rng(4), table.n_so, table.n_electrons)
    split = contraction_split(pair, table, ref)
    for got, want in ((split.fbar[0], oracles.fbar_matrix(pair, table, occ, virt)),
                      (pt2._gammabar_tensor(split)[0],
                       oracles.gammabar_tensor(pair, table, occ, virt))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_numerators_match_commutator_oracle_on_embedded_state(lih):
    # <Psi|[a+_i a+_j a_b a_a, H]|Psi> computed with ladder operators in the
    # determinant sector equals the RDM formula on every channel that is not
    # purely internal to the active space
    table, entry = lih
    space, active, e_active, active_rdm = exact_active_rdm(table, entry)
    emb = embed_active_rdm(active_rdm, space)
    ref = ReferenceDeterminant.aufbau(table)
    occ, virt = list(ref.occupied), list(ref.virtual)
    basis = oracles.SectorBasis.build(table.n_so, table.n_electrons, 0)
    ham = oracles.sector_hamiltonian(table, basis)

    cas_basis = oracles.SectorBasis.build(active.n_so, 2, 0)
    _, amps = oracles.fci_ground_state(active)
    core = 0
    for c in space.frozen_occupied:
        core |= 1 << c
    psi = np.zeros(len(basis))
    for ci, det in enumerate(cas_basis.states):
        full = core
        for loc, orb in enumerate(space.active):
            if (det >> loc) & 1:
                full |= 1 << orb
        psi[basis.index[full]] = amps[ci]

    def apply_ops(vec, ops):
        out = np.zeros_like(vec)
        for ci, det in enumerate(basis.states):
            if vec[ci] == 0.0:
                continue
            d2, sign = oracles._apply_ladder(det, ops)
            if d2 is None:
                continue
            ti = basis.index.get(d2)
            if ti is not None:
                out[ti] += sign * vec[ci]
        return out

    gten = pt2._gammabar_tensor(contraction_split(emb, table, ref, space))[0]
    rng = np.random.default_rng(3)
    active_set = set(space.active)
    checked = 0
    while checked < 10:
        i, j = sorted(rng.choice(occ, 2, replace=False))
        a, b = sorted(rng.choice(virt, 2, replace=False))
        if {i, j, a, b} <= active_set:
            continue
        ops = [(int(i), True), (int(j), True), (int(b), False), (int(a), False)]
        commutator = float(psi @ (ham @ apply_ops(psi, ops))
                           - psi @ apply_ops(ham @ psi, ops))
        formula = gten[occ.index(i), occ.index(j), virt.index(a), virt.index(b)]
        assert formula == pytest.approx(-commutator, abs=5e-4)
        checked += 1


def test_gradient_equivalence_finite_differences(h2):
    # 2 fbar and 2 gammabar equal central differences of the energy with
    # respect to the cluster amplitudes (parameters carry a half angle, so
    # dE/dtheta equals the transformed matrix element itself)
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    sched = rdm.build_schedule(4)

    def energy(th):
        probs = qsim.simulate(th, sched.bases)
        return hamio.energy_from_rdm(table, rdm.rdm_from_state(probs, sched))

    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(5):
        th = rng.uniform(-np.pi, np.pi, 3)
        pair = state_rdm(tuple(th))
        for k, (i, a) in [(1, (0, 2)), (2, (1, 3))]:
            tp, tm = list(th), list(th)
            tp[k] += h
            tm[k] -= h
            fd_amplitude = 2 * (energy(tuple(tp)) - energy(tuple(tm))) / (2 * h)
            assert abs(2 * fbar(pair, table, ref, i, a) - fd_amplitude) < 1e-6
        # the double-excitation identity holds where the single rotations sit
        # at the reference (elsewhere the orderings differ at finite angle)
        t0 = rng.uniform(-np.pi, np.pi)
        pair0 = state_rdm((t0, 0.0, 0.0))
        fd_amplitude = 2 * (energy((t0 + h, 0, 0)) - energy((t0 - h, 0, 0))) / (2 * h)
        assert abs(2 * gammabar(pair0, table, ref, 0, 1, 2, 3) - fd_amplitude) < 1e-6


def test_stationarity_at_fci(h2, h2_fci):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    split = contraction_split(pair, table, ref)
    assert np.abs(split.fbar).max() < 1e-6
    assert np.abs(pt2._gammabar_tensor(split)).max() < 1e-6
    assert abs(rdm_pt2(pair, table, ref)) < 1e-8


def test_index_role_validation(h2):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    pair = state_rdm((0.3, 0, 0))
    with pytest.raises(ValidationError):
        fbar(pair, table, ref, 2, 0)
    with pytest.raises(ValidationError):
        gammabar(pair, table, ref, 0, 2, 1, 3)


def test_pt2_rejects_raw_rdm(h2):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    pair = state_rdm((0.3, 0, 0), provenance="raw")
    with pytest.raises(ValidationError, match="purified"):
        rdm_pt2(pair, table, ref)


# ---------------------------------------------------------------------------
# transformed energies
# ---------------------------------------------------------------------------

def test_transformed_energies_collapse_on_determinant(lih):
    table, _ = lih
    ref = ReferenceDeterminant.aufbau(table)
    det = oracles.determinant_rdm(ref.occupied, table.n_so)
    f = oracles.fock_matrix(table, ref.occupied)
    eps_occ, eps_virt = transformed_energies(det, table, ref)
    for i, e in zip(ref.occupied, eps_occ, strict=True):
        assert e == pytest.approx(f[i, i], abs=1e-12)
    for a, e in zip(ref.virtual, eps_virt, strict=True):
        assert e == pytest.approx(f[a, a], abs=1e-12)


def test_transformed_energies_shift_directions(h2, h2_fci):
    # correlation pushes occupied levels down and virtuals up
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    f = oracles.fock_matrix(table, ref.occupied)
    eps_occ, eps_virt = transformed_energies(pair, table, ref)
    for i, e in zip(ref.occupied, eps_occ, strict=True):
        assert e < f[i, i]
    for a, e in zip(ref.virtual, eps_virt, strict=True):
        assert e > f[a, a]


def test_transformed_energies_zero_offdiagonal_blocks(h2, h2_fci):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    stripped = rdm.RdmPair(np.diag(np.diag(pair.rho1)), pair.rho2.copy(),
                           pair.meta)
    occ = list(ref.occupied)
    virt = list(ref.virtual)
    r2 = stripped.rho2.copy()
    r2[np.ix_(virt, virt, occ, occ)] = 0.0
    r2[np.ix_(occ, occ, virt, virt)] = 0.0
    stripped = rdm.RdmPair(stripped.rho1, r2, pair.meta)
    f = oracles.fock_matrix(table, ref.occupied)
    eps_occ, eps_virt = transformed_energies(stripped, table, ref)
    for i, e in zip(occ, eps_occ, strict=True):
        assert e == pytest.approx(f[i, i], abs=1e-12)
    for a, e in zip(virt, eps_virt, strict=True):
        assert e == pytest.approx(f[a, a], abs=1e-12)


# ---------------------------------------------------------------------------
# the correction itself
# ---------------------------------------------------------------------------

def test_mp2_reduction_every_fixture():
    for fixture in FIXTURES:
        _, table, _ = hamio.load_fixture(*fixture)
        ref = ReferenceDeterminant.aufbau(table)
        det = oracles.determinant_rdm(ref.occupied, table.n_so)
        assert abs(rdm_pt2(det, table, ref)
                   - hf_mp2(table, ref)) < 1e-10


def test_mp2_matches_generator_value():
    # third, fully independent route: the generator's closed-shell MP2
    for fixture in (("h2", 0.7), ("lih", 1.5949), ("nah", 1.8874)):
        _, table, entry = hamio.load_fixture(*fixture)
        ref = ReferenceDeterminant.aufbau(table)
        assert abs(hf_mp2(table, ref) - entry["e_mp2_corr_full"]) < 1e-9


def test_hf_mp2_two_level_hand_value(tmp_path):
    # one occupied and one virtual spatial orbital coupled by (hp|hp) = k.
    # Fock diagonals: f_h = h_h (no same-spin partner term survives),
    # f_p = h_p - k (exchange with the occupied alpha/beta pair), so the
    # pair denominator is 2(f_h - f_p) and E2 = k^2 / (2 (f_h - f_p)).
    k, hh, hp = 0.30, -1.0, -0.2
    path = tmp_path / "toy.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                    f"{k} 1 2 1 2\n"
                    f"{hh} 1 1 0 0\n"
                    f"{hp} 2 2 0 0\n"
                    "0.0 0 0 0 0\n")
    table = hamio.load_fcidump(path)
    ref = ReferenceDeterminant.aufbau(table)
    expected = k ** 2 / (2 * (hh - (hp - k)))
    assert expected == pytest.approx(-0.09)
    assert hf_mp2(table, ref) == pytest.approx(expected, abs=1e-12)


# h_p chosen so the exchange dressing makes the Fock gap exactly zero
DEGENERATE_FCIDUMP = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                      "0.1 1 2 1 2\n"
                      "-0.5 1 1 0 0\n"
                      "-0.4 2 2 0 0\n"
                      "0.0 0 0 0 0\n")


@pytest.fixture(scope="module")
def degenerate_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fcidump") / "degenerate.fcidump"
    path.write_text(DEGENERATE_FCIDUMP)
    return hamio.load_fcidump(path)


def test_degenerate_denominator_raises(degenerate_table):
    ref = ReferenceDeterminant.aufbau(degenerate_table)
    with pytest.raises(DegenerateDenominatorError) as err:
        hf_mp2(degenerate_table, ref)
    assert err.value.orbitals  # names the tuple


def chain_case(kind, rng):
    """A raw pair for the chain on the degenerate table: a perturbed random
    state (``random``, which may fail purification), one that fails it
    (``zero``: the trace; ``midpoint``: an open-shell determinant, whose
    spin-reflection average has two eigenvalues at 1/2; ``unantisymmetric``),
    or the reference determinant, which purifies and then has a zero PT2
    denominator."""
    if kind == "random":
        pair, noise = random_pure_2e_rdm(rng), random_rdm_pair(rng)
        return pair.rho1 + 0.05 * noise.rho1, pair.rho2 + 0.05 * noise.rho2
    if kind == "zero":
        return np.zeros((4, 4)), np.zeros((4,) * 4)
    if kind == "unantisymmetric":
        return np.eye(4), rng.normal(size=(4,) * 4)
    det = oracles.determinant_rdm((0, 3) if kind == "midpoint" else (0, 1), 4)
    return det.rho1, det.rho2


CHAIN_CASES = ["random", "zero", "midpoint", "unantisymmetric", "determinant"]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_stacked_chain_matches_per_pair_calls(degenerate_table, data, seed):
    # each resample of a stack goes through energy, symmetrize, purify and
    # PT2 as its own pair does, bit for bit; a resample that fails fails
    # alone, with its pair's error message (purification) or as NaN (a
    # degenerate PT2 denominator), and never raises for the stack.  The
    # NaN rows of failed purifications go through the energy and PT2 with
    # the rest and come out NaN.  Every stack holds each kind of case at
    # least once, in a drawn order.
    extra = data.draw(st.lists(st.sampled_from(CHAIN_CASES), max_size=6))
    kinds = data.draw(st.permutations(CHAIN_CASES + ["random"] + extra))
    table, rng = degenerate_table, np.random.default_rng(seed)
    ref = ReferenceDeterminant.aufbau(table)
    pairs = [RdmPair(*chain_case(kind, rng)) for kind in kinds]
    stack = RdmPair(np.array([p.rho1 for p in pairs]), np.array([p.rho2 for p in pairs]))
    e_raw = hamio.energy_from_rdm(table, stack)
    pure = purify.purify_rdm(rdm.symmetrize(stack))
    failed = pure.meta.purification["failed"]
    e_pure, e_pt2 = hamio.energy_from_rdm(table, pure), rdm_pt2(pure, table, ref)
    assert len(failed) == len(pairs)
    for i, pair in enumerate(pairs):
        assert hamio.energy_from_rdm(table, pair) == e_raw[i]
        try:
            one = purify.purify_rdm(rdm.symmetrize(pair))
        except (purify.PurificationError, ValidationError) as exc:
            assert failed[i] == str(exc), (i, kinds[i])
            assert np.isnan(pure.rho1[i]).all() and np.isnan(pure.rho2[i]).all()
            assert math.isnan(e_pure[i]) and math.isnan(e_pt2[i]), (i, kinds[i])
            continue
        assert failed[i] is None, (i, kinds[i], failed[i])
        assert same_bits(one.rho1, pure.rho1[i]) and same_bits(one.rho2, pure.rho2[i])
        assert hamio.energy_from_rdm(table, one) == e_pure[i]
        try:
            assert rdm_pt2(one, table, ref) == e_pt2[i], (i, kinds[i])
        except DegenerateDenominatorError:
            assert math.isnan(e_pt2[i]), (i, kinds[i])
    expected_failures = {"zero", "midpoint", "unantisymmetric"}
    assert all(failed[i] is not None for i, k in enumerate(kinds) if k in expected_failures)
    assert all(failed[i] is None and math.isnan(e_pt2[i])
               for i, k in enumerate(kinds) if k == "determinant")


@pytest.mark.parametrize("mol", ["lih", "nah"])
@settings(max_examples=10, deadline=None)
@given(theta=ANGLES)
def test_full_space_pt2_reads_the_active_pair_as_its_embedding(pipelines, mol, theta):
    # with a partition, the active pair and its embedding give the same bits,
    # one pair at a time and as a stack
    pipe = pipelines[mol]
    pure = purified_rdm(pipe, theta)
    emb = embed_active_rdm(pure, pipe.space)
    args = (pipe.table_full, pipe.ref_full, pipe.space)
    for a, b in zip(transformed_energies(pure, *args), transformed_energies(emb, *args)):
        assert np.array_equal(a, b)
    want = rdm_pt2(emb, *args)
    assert rdm_pt2(pure, *args) == want
    stack = RdmPair(np.array([pure.rho1] * 2), np.array([pure.rho2] * 2), pure.meta)
    assert np.array_equal(rdm_pt2(stack, *args), [want, want])


def two_electron_plans(pipelines):
    """(pipeline, table, ref, space) of plans without three-body terms, each
    read with a pair on four active spin orbitals: every pipeline's frozen
    space, and LiH's full table under a two-electron reference with its other
    virtuals frozen (the masks and the active pair's cut of a partition)."""
    cases = [(pipe, pipe.table, pipe.ref, None) for pipe in pipelines.values()]
    pipe = pipelines["lih"]
    n_so = pipe.table_full.n_so
    cases.append((pipe, pipe.table_full, ReferenceDeterminant((0, 1), n_so),
                  ActiveSpaceSpec((), (0, 1, 2, 3), tuple(range(4, n_so)))))
    return cases


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=ANGLES)
def test_compiled_two_electron_map_matches_contraction_form(pipelines, seed, theta):
    # a two-electron plan's compiled eps, fbar and gammabar are its
    # contractions to rounding, on unphysical pairs and purified ones, one
    # pair or a stack; a stack's rows are its pairs' rows alone, bit for bit
    rng = np.random.default_rng(seed)
    for pipe, table, ref, space in two_electron_plans(pipelines):
        pairs = [random_rdm_pair(rng), random_rdm_pair(rng), purified_rdm(pipe, theta)]
        stack = RdmPair(np.array([q.rho1 for q in pairs]), np.array([q.rho2 for q in pairs]))
        p = pt2._plan(table, ref, space)
        assert not p.three_body
        alone = []
        for pair in pairs + [stack]:
            r, r2, _ = pt2._cut(pair, p)
            split = pt2._Split(p, r, r2)
            got = (*p.energies(r, r2), *p.numerators(r, r2))
            want = (*pt2._dressed_energies(p, r, r2), split.fbar, pt2._gammabar_tensor(split))
            for x, y in zip(got, want, strict=True):
                assert x.shape == y.shape and np.abs(x - y).max() <= 1e-13
            alone.append(got)
        *alone, stacked = alone
        for i, rows in enumerate(alone):
            assert all(same_bits(x[0], y[i]) for x, y in zip(rows, stacked, strict=True))


def random_two_electron_table(rng, n_spatial):
    """A two-electron table of random real spatial integrals, gapped on h's
    diagonal so the aufbau reference has no degenerate channel."""
    h = rng.normal(size=(n_spatial,) * 2)
    h = 0.5 * (h + h.T) + np.diag(np.arange(n_spatial, dtype=float))
    c = 0.05 * rng.normal(size=(n_spatial,) * 4)
    c = c + c.transpose(1, 0, 2, 3)
    c = c + c.transpose(0, 1, 3, 2)
    c = c + c.transpose(2, 3, 0, 1)
    h, g = hamio._spin_expand(h, c, n_spatial)
    return IntegralTable(n_spatial=n_spatial, n_electrons=2, e_nuclear=0.0, h=h, g=g)


def test_two_electron_plan_on_eight_active_spin_orbitals_contracts(monkeypatch):
    # past _COMPILED_ACTIVE a two-electron plan compiles no map (its unit
    # stack would hold ~17M numbers at n = 8) and contracts on every call,
    # matching the loop oracle
    monkeypatch.setattr(pt2._Plan, "affine", property(lambda p: pytest.fail("compiled")))
    rng = np.random.default_rng(11)
    table = random_two_electron_table(rng, 4)
    ref = ReferenceDeterminant.aufbau(table)
    pairs = [random_pure_2e_rdm(rng, 8) for _ in range(2)]
    for pair in pairs:
        pair.meta.provenance = "exact"
        want_occ, want_virt = oracles.transformed_energies(pair, table, ref)
        eps_occ, eps_virt = transformed_energies(pair, table, ref)
        assert np.abs(eps_occ - [want_occ[i] for i in ref.occupied]).max() <= 1e-12
        assert np.abs(eps_virt - [want_virt[a] for a in ref.virtual]).max() <= 1e-12
        assert rdm_pt2(pair, table, ref) == pytest.approx(
            oracles.rdm_pt2(pair, table, ref), rel=1e-12, abs=1e-12)
    stack = RdmPair(np.array([q.rho1 for q in pairs]), np.array([q.rho2 for q in pairs]),
                    pairs[0].meta)
    assert same_bits(rdm_pt2(stack, table, ref), np.array([rdm_pt2(q, table, ref) for q in pairs]))
    p = pt2._PLANS[table][(ref, None)]
    assert not p.three_body and not p.compiles and p.nao + p.nav == 8


@pytest.mark.parametrize("mol", ["h2", "lih", "nah"])
@settings(max_examples=15, deadline=None)
@given(theta=ANGLES)
def test_vectorized_pt2_matches_loop_oracle(pipelines, mol, theta):
    rdm_, table, ref, space = pipeline_pt2_case(pipelines[mol], theta)
    want_occ, want_virt = oracles.transformed_energies(rdm_, table, ref)
    for eps_occ, eps_virt in (transformed_energies(rdm_, table, ref),
                              transformed_energies(rdm_, table, ref, space)):
        assert np.abs(eps_occ - [want_occ[i] for i in ref.occupied]).max() <= 1e-12
        assert np.abs(eps_virt - [want_virt[a] for a in ref.virtual]).max() <= 1e-12
    try:
        want = oracles.rdm_pt2(rdm_, table, ref, space)
    except DegenerateDenominatorError as exc:
        with pytest.raises(DegenerateDenominatorError) as err:
            rdm_pt2(rdm_, table, ref, space)
        assert err.value.orbitals == exc.orbitals
        return
    assert rdm_pt2(rdm_, table, ref, space) == pytest.approx(
        want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("h_spatial, orbitals", [
    ((0.0, 0.0, 1.0), (0, 2)),            # single 0 -> 2 has a zero gap
    ((0.0, -0.5, 0.5), (0, 0, 2, 4)),     # only a double does
])
def test_degenerate_channel_named_like_loop_oracle(h_spatial, orbitals):
    table = diagonal_table(h_spatial, 2)
    ref = ReferenceDeterminant.aufbau(table)
    det = oracles.determinant_rdm(ref.occupied, table.n_so)
    for fast, loop in ((lambda: rdm_pt2(det, table, ref), lambda: oracles.rdm_pt2(det, table, ref)),
                       (lambda: hf_mp2(table, ref), lambda: oracles.hf_mp2(table, ref))):
        with pytest.raises(DegenerateDenominatorError) as want:
            loop()
        with pytest.raises(DegenerateDenominatorError) as got:
            fast()
        assert got.value.orbitals == want.value.orbitals == orbitals
        assert got.value.value == want.value.value == 0.0


def test_degenerate_internal_channel_is_masked_by_space():
    # core 0/1 below an exactly degenerate active pair: every zero gap lies
    # inside the active set, which the active solver already covers
    table = diagonal_table((-2.0, 0.0, 0.0), 4)
    ref = ReferenceDeterminant.aufbau(table)
    det = oracles.determinant_rdm(ref.occupied, table.n_so)
    space = ActiveSpaceSpec(frozen_occupied=(0, 1), active=(2, 3, 4, 5),
                            frozen_virtual=())
    with pytest.raises(DegenerateDenominatorError) as err:
        rdm_pt2(det, table, ref)
    assert err.value.orbitals == (2, 4)
    assert rdm_pt2(det, table, ref, space) == oracles.rdm_pt2(det, table, ref, space) == 0.0


def fsum_of_every_term(eps_occ, eps_virt, fmat, gten, occ, virt, internal=()):
    """The second-order sum over every kept channel, zero numerators included."""
    act = np.isin(np.r_[occ, virt], list(internal))
    act_o, act_v = act[:len(occ)], act[len(occ):]
    d1 = eps_occ[:, None] - eps_virt
    d2 = eps_occ[:, None, None, None] + eps_occ[:, None, None] - eps_virt[:, None] - eps_virt
    keep1 = ~(act_o[:, None] & act_v)
    keep2 = ~((act_o[:, None] & act_o)[:, :, None, None] & (act_v[:, None] & act_v))
    return math.fsum((fmat ** 2 / d1)[keep1].tolist() + (0.25 * gten ** 2 / d2)[keep2].tolist())


def test_second_order_sum_without_zero_terms_is_bit_identical(pipelines):
    for fixture in FIXTURES:
        _, table, _ = hamio.load_fixture(*fixture)
        ref = ReferenceDeterminant.aufbau(table)
        occ, virt = list(ref.occupied), list(ref.virtual)
        f = oracles.fock_matrix(table, occ)
        eps = f.diagonal()
        gten = table.g[np.ix_(occ, occ, virt, virt)]
        assert (gten == 0).any()
        assert hf_mp2(table, ref) == fsum_of_every_term(
            eps[occ], eps[virt], f[np.ix_(occ, virt)], gten, occ, virt), fixture
    # the numerators rdm_pt2 sums: H2's plan (two electrons) reads them from
    # its compiled map, the embedded full-space plans contract them
    for mol in ("h2", "lih", "nah"):
        rdm_, table, ref, space = pipeline_pt2_case(pipelines[mol], (0.3, -0.2, 0.1))
        p = pt2._plan(table, ref, space)
        assert p.three_body == (mol != "h2")
        fbar, gten = (x[0] for x in p.numerators(*pt2._cut(rdm_, p)[:2]))
        assert (gten == 0).any()
        want = fsum_of_every_term(*transformed_energies(rdm_, table, ref),
                                  fbar, gten, ref.occupied, ref.virtual,
                                  space.active if space is not None else ())
        assert rdm_pt2(rdm_, table, ref, space) == want, mol


@settings(max_examples=15, deadline=None)
@given(theta=ANGLES)
def test_pt2_spin_relabeling_invariance_property(pipelines, theta):
    for mol in ("h2", "lih", "nah"):
        rdm_, table, ref, space = pipeline_pt2_case(pipelines[mol], theta)
        flip = np.arange(table.n_so) ^ 1
        flipped = rdm.RdmPair(rdm_.rho1[np.ix_(flip, flip)],
                              rdm_.rho2[np.ix_(flip, flip, flip, flip)], rdm_.meta)
        try:
            v1 = rdm_pt2(rdm_, table, ref, space)
        except DegenerateDenominatorError:
            assume(False)
        v2 = rdm_pt2(flipped, table, ref, space)
        assert v2 == pytest.approx(v1, rel=1e-10, abs=1e-12), mol


def test_pt2_invariant_under_spin_relabeling(h2):
    table, _ = h2
    ref = ReferenceDeterminant.aufbau(table)
    pair = state_rdm((0.8, 0.0, 0.0))
    flip = np.arange(4) ^ 1
    flipped = rdm.RdmPair(pair.rho1[np.ix_(flip, flip)],
                          pair.rho2[np.ix_(flip, flip, flip, flip)], pair.meta)
    v1 = rdm_pt2(pair, table, ref)
    v2 = rdm_pt2(flipped, table, ref)
    assert v1 == pytest.approx(v2, abs=1e-12)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_identity_with_no_frozen_orbitals(h2_fci):
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    spec = ActiveSpaceSpec(frozen_occupied=(), active=(0, 1, 2, 3),
                           frozen_virtual=())
    emb = embed_active_rdm(pair, spec)
    assert np.abs(emb.rho1 - pair.rho1).max() < 1e-15
    assert np.abs(emb.rho2 - pair.rho2).max() < 1e-15


def test_embed_frozen_only_system_is_determinant():
    empty = rdm.RdmPair(np.zeros((0, 0)), np.zeros((0, 0, 0, 0)),
                        rdm.RdmMeta(provenance="exact", n_electrons=0))
    spec = ActiveSpaceSpec(frozen_occupied=(0, 1), active=(),
                           frozen_virtual=(2, 3))
    emb = embed_active_rdm(empty, spec)
    det = oracles.determinant_rdm((0, 1), 4)
    assert np.abs(emb.rho1 - det.rho1).max() < 1e-15
    assert np.abs(emb.rho2 - det.rho2).max() < 1e-15


def test_embed_energy_consistency(lih):
    # energy of the embedded RDM over the full table equals the active-space
    # energy over the frozen-core table (which folds the core energy)
    table, entry = lih
    space, active, e_active, active_rdm = exact_active_rdm(table, entry)
    e_act = hamio.energy_from_rdm(active, active_rdm)
    emb = embed_active_rdm(active_rdm, space)
    e_emb = hamio.energy_from_rdm(table, emb)
    assert abs(e_emb - e_act) < 1e-10
    assert abs(e_act - e_active) < 1e-10
    oracles.validate_pair(emb, 1e-10)
    assert oracles.traces(emb) == pytest.approx((4.0, 12.0), abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(theta=ANGLES)
def test_embedding_conserves_energy_property(pipelines, theta):
    for mol in ("lih", "nah"):
        pipe = pipelines[mol]
        pure = purified_rdm(pipe, theta)
        emb = embed_active_rdm(pure, pipe.space)
        assert hamio.energy_from_rdm(pipe.table_full, emb) == pytest.approx(
            hamio.energy_from_rdm(pipe.table, pure), abs=1e-10), mol


@pytest.mark.parametrize("mol", ["lih", "nah"])
def test_embed_equals_loop_form_exactly(pipelines, mol):
    # a purified RDM and an unsymmetric random pair, so a transposed block
    # cannot pass
    pipe = pipelines[mol]
    rng = np.random.default_rng(5)
    unsymmetric = rdm.RdmPair(rng.normal(size=(4, 4)), rng.normal(size=(4,) * 4),
                              rdm.RdmMeta(n_electrons=2))
    for pair in (purified_rdm(pipe, (0.4, -0.3, 0.2)), unsymmetric):
        emb = embed_active_rdm(pair, pipe.space)
        rho1, rho2 = oracles.embed_active_rdm(pair, pipe.space)
        assert np.array_equal(emb.rho1, rho1)
        assert np.array_equal(emb.rho2, rho2)
        assert emb.meta.n_electrons == 2 + len(pipe.space.frozen_occupied)


@pytest.mark.parametrize("mol, n_electrons", [("lih", 4), ("nah", 12)])
def test_purification_refuses_an_embedded_pair(pipelines, mol, n_electrons):
    # the embedded pair declares the full-space electron count, and that is
    # what purify_rdm's N = 2 guard reads: its provenance alone would pass
    pipe = pipelines[mol]
    emb = embed_active_rdm(purified_rdm(pipe, (0.4, -0.3, 0.2)), pipe.space)
    assert emb.meta.provenance == "purified"
    with pytest.raises(ValidationError, match=f"got N={n_electrons}. General-N purification "
                       "needs semidefinite N-representability"):
        purify.purify_rdm(emb)


@pytest.mark.parametrize("mol", ["lih", "nah"])
def test_three_body_terms_follow_the_reference_not_the_declared_count(pipelines, mol):
    # the reference holds more than two electrons, so the 3-RDM terms apply
    # whatever electron count the embedded or the active pair declares
    pipe = pipelines[mol]
    pure = purified_rdm(pipe, (0.4, -0.3, 0.2))
    emb = embed_active_rdm(pure, pipe.space)
    assert emb.meta.n_electrons > 2
    args = pipe.table_full, pipe.ref_full, pipe.space
    e = rdm_pt2(emb, *args)
    for pair in (emb, pure):
        declared_two = RdmPair(pair.rho1, pair.rho2, rdm.RdmMeta("purified", n_electrons=2))
        assert np.float64(rdm_pt2(declared_two, *args)).tobytes() == np.float64(e).tobytes()


@FROZEN_CORE_FIXTURES
@pytest.mark.parametrize("reorder", [False, True])
def test_full_space_pt2_matches_einsum_oracle_on_unphysical_embedded_pair(molecule, r, reorder):
    # the core/active split is an algebraic identity of the reconstruction,
    # so it holds off the N-representable set too; the reordered partitions
    # (active spatials 0 and 2, below the core) put the core after the
    # occupied active orbitals
    _, table, entry = hamio.load_fixture(molecule, r)
    ref = ReferenceDeterminant.aufbau(table)
    active = (0, 2) if reorder else entry["active_spatial_orbitals"]
    space = ActiveSpaceSpec.from_active_spatials(table.n_spatial, table.n_electrons, active)
    pair = random_rdm_pair(np.random.default_rng(6), 4, 2)
    pair.meta.provenance = "exact"
    emb = embed_active_rdm(pair, space)
    assert (contraction_split(emb, table, ref, space).plan.occ != ref.occupied) == reorder
    assert rdm_pt2(emb, table, ref, space) == pytest.approx(
        oracles.rdm_pt2(emb, table, ref, space), rel=1e-12)


@FROZEN_CORE_FIXTURES
def test_pt2_in_plan_order_equals_sum_in_reference_order(molecule, r):
    # the reordered partition (active spatials 0 and 2) puts the plan's
    # occupied axis, core first, out of the reference's order; permuting its
    # numerators and masks into the reference's order must not change a bit
    _, table, _ = hamio.load_fixture(molecule, r)
    ref = ReferenceDeterminant.aufbau(table)
    space = ActiveSpaceSpec.from_active_spatials(table.n_spatial, table.n_electrons, (0, 2))
    for seed in range(3):
        pair = random_rdm_pair(np.random.default_rng(seed), 4, 2)
        pair.meta.provenance = "exact"
        emb = embed_active_rdm(pair, space)
        split = contraction_split(emb, table, ref, space)
        p = split.plan
        assert p.occ != ref.occupied
        po = [p.occ.index(i) for i in ref.occupied]
        pv = [p.virt.index(a) for a in ref.virtual]
        act = np.isin(np.r_[ref.occupied, ref.virtual], space.active)
        act_o, act_v = act[:len(ref.occupied)], act[len(ref.occupied):]
        keeps = (~(act_o[:, None] & act_v),
                 ~((act_o[:, None] & act_o)[:, :, None, None] & (act_v[:, None] & act_v)))
        want = pt2._second_order_sum(
            *transformed_energies(emb, table, ref, space),
            split.fbar[0][np.ix_(po, pv)], pt2._gammabar_tensor(split)[0][np.ix_(po, po, pv, pv)],
            ref.occupied, ref.virtual, keeps)
        assert rdm_pt2(emb, table, ref, space) == want, (molecule, seed)


def test_full_space_pt2_rejects_non_embedded_rho1(lih):
    table, entry = lih
    space, _, _, active_rdm = exact_active_rdm(table, entry)
    ref = ReferenceDeterminant.aufbau(table)
    emb = embed_active_rdm(active_rdm, space)
    core, act, fv = space.frozen_occupied, space.active, space.frozen_virtual
    rdm_pt2(emb, table, ref, space)  # a good call first: the check is per RDM, not per plan
    for p, q, value in ((core[0], core[0], 0.99),     # not the identity on the core
                        (core[0], core[1], 1e-9),     # core off-diagonal
                        (core[1], act[0], 1e-9),      # core-active coupling
                        (fv[0], fv[0], 1e-9),         # frozen-virtual occupation
                        (act[2], fv[1], 1e-9)):       # active-frozen-virtual coupling
        bad = RdmPair(emb.rho1.copy(), emb.rho2, emb.meta)
        bad.rho1[p, q] = bad.rho1[q, p] = value
        with pytest.raises(ValidationError, match="embedded form"):
            rdm_pt2(bad, table, ref, space)
        with pytest.raises(ValidationError, match="embedded form"):
            transformed_energies(bad, table, ref, space)
        # without a partition the same RDM is read in full
        rdm_pt2(bad, table, ref)
        transformed_energies(bad, table, ref)
    with pytest.raises(ValidationError, match="partition"):
        rdm_pt2(emb, table, ref, ActiveSpaceSpec(core, act, fv[1:]))


def test_embed_rejects_overlapping_sets(h2_fci):
    _, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    spec = ActiveSpaceSpec(frozen_occupied=(0,), active=(0, 1, 2, 3),
                           frozen_virtual=())
    with pytest.raises(ValidationError, match="partition"):
        embed_active_rdm(pair, spec)
    # a partition with a gap is named as such, not an IndexError
    spec = ActiveSpaceSpec(frozen_occupied=(0, 1), active=(2, 3, 4, 7), frozen_virtual=(5,))
    with pytest.raises(ValidationError, match="partition"):
        embed_active_rdm(pair, spec)


def test_full_space_correction_beats_mp2_baseline(lih):
    table, entry = lih
    space, active, e_active, active_rdm = exact_active_rdm(table, entry)
    emb = embed_active_rdm(active_rdm, space)
    ref = ReferenceDeterminant.aufbau(table)
    corr = rdm_pt2(emb, table, ref, space=space)
    e_est = e_active + corr
    e_fci = entry["e_fci_full"]
    e_mp2 = entry["e_hf"] + hf_mp2(table, ref)
    assert abs(e_est - e_fci) < abs(e_mp2 - e_fci)


# ---------------------------------------------------------------------------
# plans: built on first use per (table, reference, partition), kept while the
# table lives
# ---------------------------------------------------------------------------


def fresh_pipeline(mol):
    r = {"h2": 0.7, "lih": 1.5949, "nah": 1.8874}[mol]
    return vqe.PointPipeline(vqe.ScanSpec(molecule=mol, geometries=[r], shots=None), r)


def pipeline_corrections(pipe, thetas):
    """(frozen, full) corrections and energies per angle, as ``_energies`` calls them."""
    out = []
    for theta in thetas:
        pure = purify.purify_rdm(rdm.symmetrize(rdm.rdm_from_state(
            qsim.simulate(theta, pipe.schedule.bases), pipe.schedule)))
        row = [rdm_pt2(pure, pipe.table, pipe.ref),
               *transformed_energies(pure, pipe.table, pipe.ref)]
        if pipe.has_frozen:
            emb = embed_active_rdm(pure, pipe.space)
            row += [rdm_pt2(emb, pipe.table_full, pipe.ref_full, space=pipe.space),
                    *transformed_energies(emb, pipe.table_full, pipe.ref_full),
                    *transformed_energies(emb, pipe.table_full, pipe.ref_full, pipe.space)]
        out.append(row)
    return out


THETAS = [(0.3, -0.2, 0.1), (1.1, 0.4, -0.7), (-2.0, 0.05, 0.3)]


def same_bits_each(a, b):
    """Equal lengths and ``same_bits`` item by item (a float as a 0-d array)."""
    return len(a) == len(b) and all(same_bits(np.asarray(x), np.asarray(y))
                                    for x, y in zip(a, b))


@pytest.mark.parametrize("mol", ["h2", "lih", "nah"])
def test_first_and_later_calls_return_the_same_bits(mol):
    pipe = fresh_pipeline(mol)
    assert pipe.table not in pt2._PLANS and pipe.table_full not in pt2._PLANS
    first = pipeline_corrections(pipe, THETAS)
    assert pipe.table in pt2._PLANS
    for _ in range(2):
        again = pipeline_corrections(pipe, THETAS)
        assert len(again) == len(first)
        assert all(same_bits_each(a, b) for a, b in zip(again, first))
    # each angle alone, on tables that have no plan yet
    for theta, want in zip(THETAS, first):
        assert same_bits_each(pipeline_corrections(fresh_pipeline(mol), [theta])[0], want)


def test_interleaved_tables_match_each_table_alone():
    alone = {mol: pipeline_corrections(fresh_pipeline(mol), THETAS)
             for mol in ("h2", "lih", "nah")}
    pipes = {mol: fresh_pipeline(mol) for mol in alone}
    for k, theta in enumerate(THETAS):
        for mol in ("nah", "h2", "lih") if k % 2 else ("lih", "nah", "h2"):
            assert same_bits_each(pipeline_corrections(pipes[mol], [theta])[0], alone[mol][k]), mol


def test_plans_are_dropped_with_their_table(monkeypatch):
    # the two-electron plan (the frozen space's) contracts once, to compile its
    # map in its first call, and never after; the three-body plans contract
    # on every call
    contracted = []
    gammabar = pt2._gammabar_tensor
    monkeypatch.setattr(pt2, "_gammabar_tensor",
                        lambda s: contracted.append(id(s.plan)) or gammabar(s))
    pipe = fresh_pipeline("nah")
    pipeline_corrections(pipe, THETAS[:1])
    frozen = pt2._PLANS[pipe.table][(pipe.ref, None)]
    full = pt2._PLANS[pipe.table_full][(pipe.ref_full, pipe.space)]
    compiled = frozen.affine
    assert contracted == [id(frozen), id(full)]
    pipeline_corrections(pipe, THETAS)
    assert frozen.affine is compiled
    assert contracted.count(id(frozen)) == 1 and contracted.count(id(full)) == 1 + len(THETAS)
    tables = [pipe.table, pipe.table_full]
    plans = [plan for table in tables for plan in pt2._PLANS[table].values()]
    # one plan per (reference, partition) read: the frozen space's, and the full
    # space's with and without the partition; only the first is compiled
    assert [plan.three_body for plan in plans] == [False, True, True]
    assert [("affine" in vars(plan)) for plan in plans] == [True, False, False]
    assert compiled[1].shape == (4 ** 2 + 4 ** 4, 24)
    held = [weakref.ref(x) for x in tables + plans + [compiled[1]]]
    del pipe, frozen, full, compiled, plans, tables
    gc.collect()
    assert all(ref() is None for ref in held)


def test_bad_partition_raises_on_every_call_and_caches_nothing():
    _, table, _ = hamio.load_fixture("lih", 1.5949)
    ref = ReferenceDeterminant.aufbau(table)
    space = ActiveSpaceSpec.from_active_spatials(table.n_spatial, table.n_electrons, (1, 5))
    core, act, fv = space.frozen_occupied, space.active, space.frozen_virtual
    emb = embed_active_rdm(random_pure_2e_rdm(np.random.default_rng(3)), space)
    emb.meta.provenance = "exact"
    bad = ((ActiveSpaceSpec(core, act, fv[1:]), "partition"),
           (ActiveSpaceSpec(core[1:], act, fv + core[:1]), "frozen-occupied"))
    for _ in range(2):
        for space_, match in bad:
            with pytest.raises(ValidationError, match=match):
                rdm_pt2(emb, table, ref, space_)
    assert table not in pt2._PLANS
    good = rdm_pt2(emb, table, ref, space)
    assert len(pt2._PLANS[table]) == 1
    for space_, match in bad:
        with pytest.raises(ValidationError, match=match):
            rdm_pt2(emb, table, ref, space_)
    assert len(pt2._PLANS[table]) == 1
    assert rdm_pt2(emb, table, ref, space) == good


@pytest.mark.parametrize("mol", ["lih", "nah"])
@pytest.mark.parametrize("reorder", [False, True])
def test_transformed_energies_with_partition_match_full_read_bit_for_bit(pipelines, mol, reorder):
    # the occupied-virtual blocks of an embedded RDM vanish outside the active
    # set, so dressing the active levels alone gives the full read's bits; NaN
    # on every rho2 entry outside A^4 shows that nothing else is read
    pipe = pipelines[mol]
    table, ref = pipe.table_full, pipe.ref_full
    space = (ActiveSpaceSpec.from_active_spatials(table.n_spatial, table.n_electrons, (0, 2))
             if reorder else pipe.space)
    act = np.zeros(table.n_so, dtype=bool)
    act[list(space.active)] = True
    outside = ~(act[:, None, None, None] & act[:, None, None] & act[:, None] & act)
    for theta in THETAS:
        emb = embed_active_rdm(purified_rdm(pipe, theta), space)
        full = transformed_energies(emb, table, ref)
        assert same_bits_each(transformed_energies(emb, table, ref, space), full)
        emb.rho2[outside] = np.nan
        assert same_bits_each(transformed_energies(emb, table, ref, space), full)
