from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import SectorBasis, fci_ground_state, rdms_from_amplitudes
from rdmpt2 import exact, hamio, purify, rdm, vqe
from rdmpt2.hamio import ReferenceDeterminant, ValidationError


def test_noninteracting_toy(tmp_path):
    path = tmp_path / "toy.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                    "-1.5 1 1 0 0\n-0.3 2 2 0 0\n0.7 0 0 0 0\n")
    table = hamio.load_fcidump(path)
    energy, amps = fci_ground_state(table)
    assert energy == pytest.approx(0.7 - 2 * 1.5, abs=1e-12)
    basis = SectorBasis.build(4, 2, 0)
    # ground state is the doubly occupied lowest orbital
    assert abs(amps[basis.index[0b0011]]) == pytest.approx(1.0, abs=1e-12)


def test_fci_matches_generator_references():
    for fid in ("h2_0.70", "h2_4.00", "lih_1.5949"):
        table, entry = hamio.load_fixture(fid)
        energy, _ = fci_ground_state(table)
        assert abs(energy - entry["e_fci_full"]) < 1e-8, fid


def test_sector_hamiltonian_hermitian(lih):
    table, _ = lih
    basis = SectorBasis.build(table.n_so, table.n_electrons, 0)
    ham = oracles.sector_hamiltonian(table, basis)
    assert np.abs(ham - ham.T).max() < 1e-12


def test_rdms_from_single_determinant():
    basis = SectorBasis.build(4, 2, 0)
    amps = np.zeros(len(basis))
    amps[basis.index[0b0011]] = 1.0
    pair = rdms_from_amplitudes(amps, basis)
    det = oracles.determinant_rdm((0, 1), 4)
    assert np.abs(pair.rho1 - det.rho1).max() < 1e-12
    assert np.abs(pair.rho2 - det.rho2).max() < 1e-12


def test_rdms_self_consistent_energy(h2, h2_fci):
    table, _ = h2
    energy, amps, basis = h2_fci
    pair = rdms_from_amplitudes(amps, basis)
    assert abs(hamio.energy_from_rdm(table, pair) - energy) < 1e-10


def test_rdms_traces_for_random_vector():
    basis = SectorBasis.build(6, 3, 1)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    pair = rdms_from_amplitudes(amps, basis)
    assert oracles.traces(pair) == pytest.approx((3.0, 6.0), abs=1e-12)
    oracles.validate_pair(pair, 1e-10)


def test_variational_bound_of_ansatz_states(h2, h2_fci):
    from rdmpt2 import qsim
    table, _ = h2
    e_fci, _, _ = h2_fci
    sched = rdm.build_schedule(4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        sv = qsim.simulate(qsim.build_ansatz(rng.uniform(-np.pi, np.pi, 3)))
        pair = rdm.rdm_from_state(sv, sched)
        assert hamio.energy_from_rdm(table, pair) >= e_fci - 1e-9


def test_dimension_cap_advises_freezing(monkeypatch):
    table, _ = hamio.load_fixture("nah_1.8874")
    monkeypatch.setattr(oracles, "DIMENSION_CAP", 100)
    with pytest.raises(ValidationError, match="freeze"):
        fci_ground_state(table)


def test_empty_sector_rejected(h2):
    table, _ = h2
    with pytest.raises(ValidationError, match="empty sector"):
        SectorBasis.build(4, 3, 0)  # odd N cannot have Sz = 0


MANIFEST = hamio.load_manifest()["fixtures"]


@cache
def frozen_table(fixture_id):
    """The active-space table ``PointPipeline.references`` diagonalizes."""
    entry = MANIFEST[fixture_id]
    r = entry["bond_length_angstrom"]
    spec = vqe.ScanSpec(molecule=entry["molecule"], geometries=[r], shots=None)
    return vqe.PointPipeline(spec, r).table


@pytest.mark.parametrize("fixture_id", sorted(MANIFEST))
def test_pair_model_matches_sector_fci(fixture_id):
    table = frozen_table(fixture_id)
    e_sector, _ = fci_ground_state(table)
    assert abs(exact.fci_ground_state(table) - e_sector) < 1e-12


def test_pair_model_rejects_other_electron_counts(lih):
    table, _ = lih
    with pytest.raises(ValidationError, match="2 electrons"):
        exact.fci_ground_state(table)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=36, max_size=36),
       st.sampled_from(sorted(MANIFEST)))
def test_pair_energy_is_linear_in_the_pair_matrix(entries, fixture_id):
    # E = e_nuclear + Tr(K M) for any PSD unit-trace pair matrix M, with rho1
    # the partial trace of rho2
    a = np.reshape(entries, (6, 6))
    m = a @ a.T
    assume(np.trace(m) > 1e-3)
    m /= np.trace(m)
    table = frozen_table(fixture_id)
    rho2 = purify.from_pair_basis(m, table.n_so)
    pair = rdm.RdmPair(np.einsum("prqr->pq", rho2), rho2)
    e_pair = table.e_nuclear + np.trace(exact.pair_hamiltonian(table) @ m)
    assert abs(e_pair - hamio.energy_from_rdm(table, pair)) < 1e-12
