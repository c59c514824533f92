import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, same_bits
from rdmpt2 import hamio, rdm
from rdmpt2.hamio import (ActiveSpaceSpec, FcidumpError, IntegralTable,
                          ReferenceDeterminant, ValidationError)

LOADERS = [hamio.load_fcidump, oracles.load_fcidump]


def loaded(load, path):
    """The table ``load`` reads from ``path``, or the class and message of
    the FCIDUMP error it raises."""
    try:
        return load(path)
    except (FcidumpError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(path):
    """The package reader and the line-by-line oracle read ``path`` to the
    same bits of h, g and e_nuclear, or raise the same class and message."""
    new, old = (loaded(load, path) for load in LOADERS)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert isinstance(new, IntegralTable), new
        assert (new.n_spatial, new.n_electrons) == (old.n_spatial, old.n_electrons)
        assert same_bits(new.h, old.h) and same_bits(new.g, old.g)
        assert same_bits(np.float64(new.e_nuclear), np.float64(old.e_nuclear))


def test_degenerate_fcidump(tmp_path):
    path = tmp_path / "core_only.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n1.0 0 0 0 0\n")
    table = hamio.load_fcidump(path)
    assert table.e_nuclear == 1.0
    assert not table.h.any()
    assert not table.g.any()


def test_fixture_hf_energy_matches_generator():
    # the generating code's SCF energy is the oracle for normal ordering
    for fixture in (("h2", 0.7), ("h2", 4.0), ("lih", 1.5949), ("nah", 1.8874)):
        _, table, entry = hamio.load_fixture(*fixture)
        e0 = hamio.normal_order(table, ReferenceDeterminant.aufbau(table))
        assert abs(e0 - entry["e_hf"]) < 1e-8, fixture


@pytest.mark.parametrize("molecule, r", FIXTURES)
def test_determinant_energies_equal_the_oracle_bits(molecule, r):
    # e_hf is recorded; the core energy enters every energy of a frozen-core point
    _, table, entry = hamio.load_fixture(molecule, r)
    ref = ReferenceDeterminant.aufbau(table)
    occ = ref.occupied
    e_hf = hamio.normal_order(table, ref)
    assert same_bits(np.float64(e_hf), np.float64(oracles.determinant_energy(table, occ)))
    spaces = [ActiveSpaceSpec.from_active_spatials(
        table.n_spatial, table.n_electrons, entry["active_spatial_orbitals"]),
        ActiveSpaceSpec(occ, tuple(range(len(occ), table.n_so)), ())]
    for space in spaces:  # the pipeline's partition; the whole occupied set frozen
        e_core = hamio.freeze_core(table, space).e_nuclear
        want = oracles.determinant_energy(table, space.frozen_occupied)
        assert same_bits(np.float64(e_core), np.float64(want)), space


def test_load_fixture():
    fid, table, entry = hamio.load_fixture("h2", 0.7)
    assert (fid, entry["file"], table.n_so) == ("h2_0.70", "h2_0.70.fcidump", 4)
    assert hamio.load_fixture("LiH", 1.5949)[0] == "lih_1.5949"
    assert hamio.load_fixture("lih", 1.5949 + 5e-10)[0] == "lih_1.5949"
    available = sorted(hamio.load_manifest()["fixtures"])
    with pytest.raises(KeyError) as err:
        hamio.load_fixture("h2", 1.23)
    assert err.value.args == (f"no fixture for h2 at 1.23 A (available: {available})",)


def test_loaded_tables_validate():
    _, table, _ = hamio.load_fixture("lih", 1.5949)
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


def test_one_body_line_with_zero_i_is_rejected(tmp_path):
    # '0 j 0 0' used to be skipped like the orbital-energy record 'i 0 0 0',
    # so the integral it was meant to carry loaded as nothing
    path = tmp_path / "zero_i.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 0 2 0 0\n1.0 0 0 0 0\n")
    with pytest.raises(ValidationError, match="line 3: malformed index quartet '0.5 0 2 0 0'"):
        hamio.load_fcidump(path)
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 2 0 0 0\n1.0 0 0 0 0\n")
    table = hamio.load_fcidump(path)  # the orbital-energy record is skipped
    assert not table.h.any() and not table.g.any() and table.e_nuclear == 1.0


@pytest.mark.parametrize("load", LOADERS)
def test_later_line_for_the_same_integral_wins(tmp_path, load):
    path = tmp_path / "repeats.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                    "0.1 1 2 0 0\n0.2 2 1 0 0\n"     # one body: (j i) after (i j)
                    "0.3 1 2 1 1\n0.5 1 1 2 2\n"     # two body: (12|11), then an
                    "0.4 1 1 2 1\n"                   # unrelated (11|22), then (11|21)
                    "1.0 0 0 0 0\n2.0 0 0 0 0\n")    # a second core line
    table = load(path)
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                    "0.2 1 2 0 0\n0.4 1 2 1 1\n0.5 1 1 2 2\n2.0 0 0 0 0\n")
    last = load(path)
    assert table.e_nuclear == 2.0
    assert table.h[0, 2] == table.h[2, 0] == table.h[1, 3] == table.h[3, 1] == 0.2
    # g_pqrs = (PR|QS) - (PS|QR) on spin orbitals 2P + spin: (12|11) gives
    # g_0121 alone, the exchange of g_0020 cancels it, (11|22) gives g_0202
    assert table.g[0, 1, 2, 1] == 0.4 and table.g[0, 0, 2, 0] == 0.0
    assert table.g[0, 2, 0, 2] == 0.5
    assert same_bits(table.h, last.h) and same_bits(table.g, last.g)


# Index quartets (i, j, k, l) -> the same integral with its indices permuted
QUARTET_PERMS = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
VALUES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-300, -2.5e-17]))
FORMATS = ["{!r}", "{:.16e}", "{:.6f}", "{:E}"]
FAULTS = ["4 tokens", "6 tokens", "index not a number", "index 1.5", "value not a number",
          "index above NORB", "index below 0", "index beyond int64", "0 j 0 0", "i j k 0",
          "no core line"]


@st.composite
def fcidump_bodies(draw):
    """NORB and a well-formed body: one- and two-body lines, integrals
    repeated with their indices permuted, orbital-energy records, blank
    lines and at least one core line."""
    n_sp = draw(st.integers(1, 4))
    orbital = st.integers(1, n_sp)
    lines, integrals, core = [], [], False
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["core", "one", "two", "orbital energy", "blank", "repeat"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "repeat" and integrals:
            quartet = draw(st.sampled_from(integrals))
            perms = QUARTET_PERMS if quartet[2] else QUARTET_PERMS[:2]
            quartet = tuple(quartet[x] for x in draw(st.sampled_from(perms)))
        elif kind == "core":
            quartet = (0, 0, 0, 0)
        elif kind == "one":
            quartet = (draw(orbital), draw(orbital), 0, 0)
        elif kind == "orbital energy":
            quartet = (draw(orbital), 0, 0, 0)
        else:
            quartet = tuple(draw(orbital) for _ in range(4))
        core |= quartet == (0, 0, 0, 0)
        if quartet[1]:
            integrals.append(quartet)
        value = draw(st.sampled_from(FORMATS)).format(draw(VALUES))
        lines.append(draw(st.sampled_from([" ", "  ", "\t"])).join(
            [value] + [str(x) for x in quartet]))
    if not core:
        lines.insert(draw(st.integers(0, len(lines))), "0.75 0 0 0 0")
    return n_sp, lines


def faulty_line(draw, fault, n_sp):
    orbital = st.integers(1, n_sp)
    i, j, k = draw(orbital), draw(orbital), draw(orbital)
    quartet = [str(i), str(j), str(k), str(draw(orbital))]
    at = draw(st.integers(0, 3))
    if fault == "4 tokens":
        return "0.5 " + " ".join(quartet[:3])
    if fault == "6 tokens":
        return "0.5 " + " ".join(quartet) + " 1"
    if fault == "value not a number":
        return "x0.5 " + " ".join(quartet)
    quartet[at] = {"index not a number": "one", "index 1.5": "1.5",
                   "index above NORB": str(n_sp + draw(st.integers(1, 3))),
                   "index below 0": str(-draw(st.integers(1, 3))),
                   "index beyond int64": str(2 ** 64 + 1)}.get(fault, quartet[at])
    if fault == "0 j 0 0":
        quartet = ["0", str(j), "0", "0"]
    elif fault == "i j k 0":
        quartet = [str(i), str(j), str(k), "0"]
    return "0.5 " + " ".join(quartet)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=fcidump_bodies(), data=st.data())
def test_array_reader_matches_line_by_line_oracle(tmp_path, body, data):
    n_sp, lines = body
    path = tmp_path / "random.fcidump"
    header = f"&FCI NORB={n_sp},NELEC=2,MS2=0,\n&END\n"
    path.write_text(header + "\n".join(lines) + "\n")
    assert isinstance(loaded(hamio.load_fcidump, path), IntegralTable)
    assert_same_outcome(path)
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)):
        if fault == "no core line":
            lines = [line for line in lines if line.split()[1:] != ["0"] * 4]
        else:
            lines.insert(data.draw(st.integers(0, len(lines))),
                         faulty_line(data.draw, fault, n_sp))
    path.write_text(header + "\n".join(lines) + "\n")
    assert isinstance(loaded(hamio.load_fcidump, path), tuple)
    assert_same_outcome(path)


def test_every_fixture_loads_to_the_oracle_bits():
    for entry in hamio.load_manifest()["fixtures"].values():
        assert_same_outcome(hamio.FIXTURE_DIR / entry["file"])


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
    fixtures = hamio.load_manifest()["fixtures"].values()
    for entry in fixtures:
        hamio.load_fixture(entry["molecule"], entry["bond_length_angstrom"])
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
    e0 = table.e_nuclear
    for i in occ:
        e0 += table.h[i, i]
    for i in occ:
        for j in occ:
            e0 += 0.5 * table.g[i, j, i, j]
    assert abs(hamio.normal_order(table, ref) - e0) < 1e-12


def test_wick_consistency_random_determinants(tmp_path):
    # energy_from_rdm on a determinant's RDMs equals the normal-ordering e0
    rng = np.random.default_rng(3)
    table = _random_restricted_table(rng, n_sp=3, n_elec=4, tmp_path=tmp_path)
    for _ in range(5):
        occ = tuple(sorted(rng.choice(table.n_so, size=4, replace=False)))
        ref = ReferenceDeterminant(occ, table.n_so)
        det = oracles.determinant_rdm(occ, table.n_so)
        e_rdm = hamio.energy_from_rdm(table, det)
        assert abs(e_rdm - hamio.normal_order(table, ref)) < 1e-12


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
    e_hf = hamio.normal_order(table, ReferenceDeterminant.aufbau(table))
    assert abs(frozen.e_nuclear - e_hf) < 1e-12
    assert frozen.n_electrons == 0


def test_active_space_spec_validation():
    spec = ActiveSpaceSpec(frozen_occupied=(0, 1), active=(2, 3), frozen_virtual=())
    spec.validate(4)
    with pytest.raises(ValidationError):
        ActiveSpaceSpec(frozen_occupied=(0,), active=(2, 3),
                        frozen_virtual=()).validate(4)
