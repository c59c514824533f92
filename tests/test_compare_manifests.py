import copy
import importlib.util
import json
from pathlib import Path

from rdmpt2 import hamio

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_manifests.py"
_spec = importlib.util.spec_from_file_location("compare_manifests", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_numbers_within_the_tolerance_and_other_values_exactly():
    old = hamio.load_manifest()
    new = copy.deepcopy(old)
    lih = new["fixtures"]["lih_1.5949"]
    lih["e_hf"] += 5e-10
    lih["orbital_energies"][0] += 5e-10
    assert compare.differences(new, old) == []
    lih["e_fci_full"] += 2e-9
    lih["active_spatial_orbitals"][1] += 1
    new["fixtures"]["h2_0.70"]["molecule"] = "h2"
    new["basis_tables"]["H"][0]["coef_p"] = 0
    found = compare.differences(new, old)
    assert sorted(line.split(":")[0] for line in found) == [
        "manifest.basis_tables.H[0].coef_p", "manifest.fixtures.h2_0.70.molecule",
        "manifest.fixtures.lih_1.5949.active_spatial_orbitals[1]",
        "manifest.fixtures.lih_1.5949.e_fci_full"]


def test_structure_and_types_must_match():
    assert compare.differences({"a": 1}, {"a": 1, "b": 2}) == ["manifest: keys ['a'] != ['a', 'b']"]
    assert compare.differences([1, 2], [1]) == ["manifest: 2 items != 1"]
    assert compare.differences(True, 1) == ["manifest: True != 1"]
    assert compare.differences("1", 1) == ["manifest: '1' != 1"]
    assert compare.differences(1, 1.0 + 1e-12) == []


def test_main_exits_nonzero_on_a_difference(tmp_path, capsys):
    committed = hamio.FIXTURE_DIR / "manifest.json"
    assert compare.main([str(committed), str(committed)]) == 0
    manifest = json.loads(committed.read_text())
    manifest["fixtures"]["nah_1.8874"]["n_electrons"] = 10
    changed = tmp_path / "manifest.json"
    changed.write_text(json.dumps(manifest))
    assert compare.main([str(changed), str(committed)]) == 1
    assert "manifest.fixtures.nah_1.8874.n_electrons: 10 != 12" in capsys.readouterr().out
