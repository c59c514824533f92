import numpy as np
import pytest

import oracles
from rdmpt2 import hamio, rdm
from rdmpt2.hamio import (ActiveSpaceSpec, FcidumpError, IntegralTable,
                          ReferenceDeterminant, ValidationError)


def test_degenerate_fcidump(tmp_path):
    path = tmp_path / "core_only.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n1.0 0 0 0 0\n")
    table = hamio.load_fcidump(path)
    assert table.e_nuclear == 1.0
    assert not table.h.any()
    assert not table.g.any()


def test_fixture_hf_energy_matches_generator():
    # the generating code's SCF energy is the oracle for normal ordering
    for fid in ("h2_0.70", "h2_4.00", "lih_1.5949", "nah_1.8874"):
        table, entry = hamio.load_fixture(fid)
        ref = ReferenceDeterminant.aufbau(table)
        e0 = hamio.normal_order(table, ref).e0
        assert abs(e0 - entry["e_hf"]) < 1e-8, fid


def test_loaded_tables_validate():
    table, _ = hamio.load_fixture("lih_1.5949")
    oracles.validate_table(table, 1e-10)


def test_malformed_header_names_line(tmp_path):
    path = tmp_path / "bad.fcidump"
    path.write_text("&FCI NELEC=2,MS2=0,\n&END\n1.0 0 0 0 0\n")
    with pytest.raises(FcidumpError, match="NORB"):
        hamio.load_fcidump(path)
    path.write_text("NORB=2\n1.0 0 0 0 0\n")
    with pytest.raises(FcidumpError):
        hamio.load_fcidump(path)


def test_open_shell_fcidump_is_rejected(tmp_path):
    # the tables and the aufbau reference assume a closed shell, so a triplet
    # would load as a singlet
    text = (hamio.FIXTURE_DIR / "h2_0.70.fcidump").read_text()
    assert "MS2=0" in text
    path = tmp_path / "triplet.fcidump"
    path.write_text(text.replace("MS2=0", "MS2=2", 1))
    with pytest.raises(FcidumpError, match="MS2=2"):
        hamio.load_fcidump(path)


@pytest.mark.parametrize("field, value", [
    ("NELEC", 3),    # odd: its aufbau reference would be an Sz = 1/2 determinant
    ("NELEC", -2),   # no electrons at all
    ("NELEC", 5),    # more than 2*NORB = 4 spin orbitals hold
    ("NORB", -1),
    ("NORB", 0),
])
def test_inconsistent_header_counts_are_rejected(tmp_path, field, value):
    text = (hamio.FIXTURE_DIR / "h2_0.70.fcidump").read_text()
    assert "NORB=2" in text and "NELEC=2" in text
    path = tmp_path / "bad_counts.fcidump"
    path.write_text(text.replace(f"{field}=2", f"{field}={value}", 1))
    with pytest.raises(FcidumpError, match=f"{field}={value}"):
        hamio.load_fcidump(path)


def test_index_out_of_range(tmp_path):
    path = tmp_path / "oob.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                    "0.5 3 1 0 0\n1.0 0 0 0 0\n")
    with pytest.raises(ValidationError, match="out of range"):
        hamio.load_fcidump(path)


def test_two_body_line_with_zero_l_is_rejected(tmp_path):
    # l - 1 = -1 would wrap to the last orbital
    path = tmp_path / "zero_l.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 0\n1.0 0 0 0 0\n")
    with pytest.raises(ValidationError, match="line 3: malformed index quartet"):
        hamio.load_fcidump(path)


@pytest.mark.parametrize("n_sp", [1, 2, 3, 4])
def test_spin_blocks_match_gather_and_mask_on_random_integrals(n_sp):
    rng = np.random.default_rng(n_sp)
    h_sp = rng.normal(size=(n_sp, n_sp))
    chem = rng.normal(size=(n_sp,) * 4)  # no symmetry: both forms are gathers
    h, g = hamio._spin_expand(h_sp, chem, n_sp)
    h_o, g_o = oracles.spin_expand(h_sp, chem, n_sp)
    assert np.array_equal(h, h_o) and np.array_equal(g, g_o)


def test_spin_blocks_match_gather_and_mask_on_every_fixture(monkeypatch):
    blocks = hamio._spin_expand
    loaded = []

    def both(h_sp, chem, n_sp):
        h, g = blocks(h_sp, chem, n_sp)
        h_o, g_o = oracles.spin_expand(h_sp, chem, n_sp)
        assert np.array_equal(h, h_o) and np.array_equal(g, g_o)
        loaded.append(n_sp)
        return h, g

    monkeypatch.setattr(hamio, "_spin_expand", both)
    fixtures = hamio.load_manifest()["fixtures"]
    for fid in fixtures:
        hamio.load_fixture(fid)
    assert len(loaded) == len(fixtures)


def test_missing_core_entry(tmp_path):
    path = tmp_path / "nocore.fcidump"
    path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.5 1 1 0 0\n")
    with pytest.raises(ValidationError, match="core"):
        hamio.load_fcidump(path)


def _random_restricted_table(rng, n_sp=3, n_elec=2, tmp_path=None):
    """Random spatial integrals with the full 8-fold symmetry, via FCIDUMP."""
    h_sp = rng.normal(size=(n_sp, n_sp))
    h_sp = 0.5 * (h_sp + h_sp.T)
    chem = rng.normal(size=(n_sp,) * 4)
    sym = np.zeros_like(chem)
    for perm in [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]:
        sym += chem.transpose(perm)
    chem = sym / 8.0
    lines = [f"&FCI NORB={n_sp},NELEC={n_elec},MS2=0,", "&END"]
    for i in range(n_sp):
        for j in range(n_sp):
            for k in range(n_sp):
                for l in range(n_sp):
                    lines.append(f"{chem[i, j, k, l]:.16e} {i+1} {j+1} {k+1} {l+1}")
            lines.append(f"{h_sp[i, j]:.16e} {i+1} {j+1} 0 0")
    lines.append("0.37 0 0 0 0")
    path = tmp_path / "random.fcidump"
    path.write_text("\n".join(lines) + "\n")
    return hamio.load_fcidump(path)


def test_normal_order_brute_force(tmp_path):
    rng = np.random.default_rng(7)
    table = _random_restricted_table(rng, n_sp=2, n_elec=2, tmp_path=tmp_path)
    occ = (0, 3)  # deliberately non-aufbau
    ref = ReferenceDeterminant(occ, table.n_so)
    no = hamio.normal_order(table, ref)
    e0 = table.e_nuclear
    for i in occ:
        e0 += table.h[i, i]
    for i in occ:
        for j in occ:
            e0 += 0.5 * table.g[i, j, i, j]
    assert abs(no.e0 - e0) < 1e-12
    f = table.h.copy()
    for p in range(table.n_so):
        for q in range(table.n_so):
            for i in occ:
                f[p, q] += table.g[p, i, q, i]
    assert np.abs(no.f - f).max() < 1e-12


def test_wick_consistency_random_determinants(tmp_path):
    # energy_from_rdm on a determinant's RDMs equals the normal-ordering e0
    rng = np.random.default_rng(3)
    table = _random_restricted_table(rng, n_sp=3, n_elec=4, tmp_path=tmp_path)
    for _ in range(5):
        occ = tuple(sorted(rng.choice(table.n_so, size=4, replace=False)))
        ref = ReferenceDeterminant(occ, table.n_so)
        det = oracles.determinant_rdm(occ, table.n_so)
        e_rdm = hamio.energy_from_rdm(table, det)
        assert abs(e_rdm - hamio.normal_order(table, ref).e0) < 1e-12


def test_energy_from_rdm_fci_and_zero(h2, h2_fci):
    table, _ = h2
    energy, amps, basis = h2_fci
    pair = oracles.rdms_from_amplitudes(amps, basis)
    assert abs(hamio.energy_from_rdm(table, pair) - energy) < 1e-10
    zero = rdm.RdmPair(np.zeros((4, 4)), np.zeros((4, 4, 4, 4)))
    assert hamio.energy_from_rdm(table, zero) == table.e_nuclear


def test_energy_from_rdm_dimension_mismatch(h2):
    table, _ = h2
    bad = rdm.RdmPair(np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValidationError):
        hamio.energy_from_rdm(table, bad)


def test_freeze_core_identity(lih):
    table, _ = lih
    spec = ActiveSpaceSpec(frozen_occupied=(), active=tuple(range(table.n_so)),
                           frozen_virtual=())
    frozen = hamio.freeze_core(table, spec)
    assert frozen.e_nuclear == table.e_nuclear
    assert np.allclose(frozen.h, table.h)
    assert np.allclose(frozen.g, table.g)


def test_freeze_core_matches_restricted_fci(lih):
    # frozen-core diagonalization == full-space FCI restricted to the
    # core-occupied sector
    table, entry = lih
    spec = ActiveSpaceSpec.from_active_spatials(
        table.n_spatial, table.n_electrons, entry["active_spatial_orbitals"])
    frozen = hamio.freeze_core(table, spec)
    e_frozen, _ = oracles.fci_ground_state(frozen)
    # the restricted sector also freezes the virtuals outside the active set
    e_restricted, _ = oracles.fci_ground_state(
        table, n_elec=table.n_electrons, sz2=0,
        restrict_occupied=spec.frozen_occupied,
        restrict_virtual_empty=spec.frozen_virtual)
    assert abs(e_frozen - e_restricted) < 1e-10


def test_freeze_all_occupied_gives_hf(lih):
    table, _ = lih
    occ = tuple(range(table.n_electrons))
    virt = tuple(range(table.n_electrons, table.n_so))
    spec = ActiveSpaceSpec(frozen_occupied=occ, active=virt, frozen_virtual=())
    frozen = hamio.freeze_core(table, spec)
    e_hf = hamio.normal_order(table, ReferenceDeterminant.aufbau(table)).e0
    assert abs(frozen.e_nuclear - e_hf) < 1e-12
    assert frozen.n_electrons == 0


def test_active_space_spec_validation():
    spec = ActiveSpaceSpec(frozen_occupied=(0, 1), active=(2, 3), frozen_virtual=())
    spec.validate(4)
    with pytest.raises(ValidationError):
        ActiveSpaceSpec(frozen_occupied=(0,), active=(2, 3),
                        frozen_virtual=()).validate(4)
