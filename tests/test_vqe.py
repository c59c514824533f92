import json
import math

import numpy as np
import pytest

from rdmpt2 import cli, hamio, qsim, vqe
from rdmpt2.vqe import (OptimizerSettings, RunRecord, ScanSpec, optimize,
                        resolve_fixture, run_point, run_scan)


def test_optimizer_quadratic_bowl():
    target = np.array([0.4, -1.1, 0.7])

    def bowl(x):
        return float(np.sum((np.asarray(x) - target) ** 2))

    for method in ("cobyla", "nelder-mead"):
        trace = optimize(bowl, (0.0, 0.0, 0.0),
                         OptimizerSettings(method=method, maxfev=100))
        assert np.abs(trace.best_params - target).max() < 1e-3, method
        assert trace.n_evals <= 100


def test_optimizer_respects_budget_and_orders_evals():
    def sphere(x):
        return float(np.sum(np.asarray(x) ** 2))

    for method in ("cobyla", "nelder-mead"):
        calls = []

        def noisy(x):
            calls.append(tuple(x))
            return sphere(x)

        trace = optimize(noisy, (1.0, 1.0, 1.0),
                         OptimizerSettings(method=method, maxfev=37))
        assert trace.n_evals == len(calls) <= 37
        best = trace.best_so_far()
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))
        # without a binding budget the same run needs more than 37
        # evaluations, so the budget cuts it off after exactly 37 of the
        # same evaluations
        free = optimize(sphere, (1.0, 1.0, 1.0),
                        OptimizerSettings(method=method, maxfev=10_000))
        assert free.converged and free.n_evals > 37, method
        assert trace.n_evals == 37 and not trace.converged, method
        assert calls == [tuple(x) for x, _ in free.evals[:37]], method
    with pytest.raises(hamio.ValidationError):
        optimize(sphere, (1.0, 1.0, 1.0), OptimizerSettings(maxfev=0))


def test_noiseless_run_reaches_fci():
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=None, noise=None,
                    seed=0, optimizer=OptimizerSettings(rhoend=1e-6, maxfev=300))
    rec = run_point(spec, 0.7)
    fci = rec.references["e_fci_frozen"]
    assert abs(rec.last5["e_pure"]["mean"] - fci) < 1e-6
    assert rec.converged


def test_objective_call_audit():
    # the optimizer consumes exactly the pure energies, one per iteration
    spec = ScanSpec(molecule="h2", geometries=[2.0], shots=None, noise=None,
                    seed=0, optimizer=OptimizerSettings(maxfev=60))
    rec = run_point(spec, 2.0)
    assert rec.n_objective_calls == len(rec.iterations)
    assert rec.n_objective_calls <= 60
    assert all(it["e_pure"] is not None for it in rec.iterations)


def test_noisy_run_records_spread():
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=2048,
                    noise=qsim.NoiseModel(), seed=5,
                    optimizer=OptimizerSettings(maxfev=40))
    rec = run_point(spec, 0.7)
    assert rec.last5["e_pure"]["std"] > 0.0


def test_combined_error_is_quadrature():
    rec = RunRecord(fixture_id="x", geometry=1.0, seed=0)
    rec.iterations = [
        {"e_raw": 1.0, "e_pure": v, "e_pt2_frozen": v, "e_pt2_full": v}
        for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    rec.finalize(bootstrap_std={"e_pure": {"mean": 3.0, "std": 0.5}})
    assert rec.combined_error["e_pure"] == pytest.approx(
        math.sqrt(np.array([1, 2, 3, 4, 5]).std() ** 2 + 0.25))


def test_determinism_bit_identical_records_and_csv(tmp_path):
    spec = dict(molecule="h2", geometries=[0.7], shots=1024,
                noise=qsim.NoiseModel(), seed=11,
                optimizer=OptimizerSettings(maxfev=25),
                bootstrap_resamples=50)
    out1 = run_scan(ScanSpec(**spec), out_dir=tmp_path / "a")
    out2 = run_scan(ScanSpec(**spec), out_dir=tmp_path / "b")
    csv1 = (tmp_path / "a" / "scan.csv").read_bytes()
    csv2 = (tmp_path / "b" / "scan.csv").read_bytes()
    assert csv1 == csv2
    rec1 = json.loads((tmp_path / "a" / "records.json").read_text())
    rec2 = json.loads((tmp_path / "b" / "records.json").read_text())
    assert rec1 == rec2


def test_scan_continues_past_bad_fixture(tmp_path):
    spec = ScanSpec(molecule="h2", geometries=[0.7, 99.0], shots=None,
                    noise=None, seed=0, optimizer=OptimizerSettings(maxfev=40))
    records = run_scan(spec, out_dir=tmp_path)
    assert records[0].error is None
    assert records[1].error is not None
    csv_text = (tmp_path / "scan.csv").read_text()
    assert len(csv_text.strip().splitlines()) == 3  # header + two rows


def test_resolve_fixture():
    assert resolve_fixture("h2", 0.7) == "h2_0.70"
    assert resolve_fixture("LiH", 1.5949) == "lih_1.5949"
    with pytest.raises(KeyError):
        resolve_fixture("h2", 1.23)


def test_scanspec_from_json(tmp_path):
    cfg = {"molecule": "h2", "geometries": [0.7, 2.0], "shots": 4096,
           "noise": {"p1": 0.002, "p2": 0.015}, "seed": 3,
           "optimizer": {"maxfev": 90}, "bootstrap_resamples": 100}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    spec = ScanSpec.from_json(path)
    assert spec.molecule == "h2"
    assert spec.noise.p2 == 0.015
    assert spec.optimizer.maxfev == 90
    assert spec.bootstrap_resamples == 100


def test_scanspec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7],
                                "shot": 1024, "sead": 2}))
    with pytest.raises(hamio.ValidationError, match="sead, shot"):
        ScanSpec.from_json(path)


def test_records_settings_reproduce_noise_model(tmp_path):
    # a non-default noise model survives records.json -> ScanSpec.from_json,
    # and the recovered spec reruns to identical records
    readout = np.array([[[0.97, 0.05], [0.03, 0.95]], [[0.99, 0.02], [0.01, 0.98]],
                        [[0.96, 0.04], [0.04, 0.96]], [[0.98, 0.03], [0.02, 0.97]]])
    model = qsim.NoiseModel(p1=0.003, p2=0.02, readout=readout)
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=512, noise=model,
                    seed=4, optimizer=OptimizerSettings(maxfev=4))
    run_scan(spec, out_dir=tmp_path / "a")
    first = json.loads((tmp_path / "a" / "records.json").read_text())
    rec = first["records"][0]
    cfg = {"molecule": "h2", "geometries": [rec["geometry"]], "seed": rec["seed"],
           **rec["settings"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    again = ScanSpec.from_json(path)
    assert (again.noise.p1, again.noise.p2, again.noise.n_qubits) == (0.003, 0.02, 4)
    assert np.array_equal(again.noise.readout, readout)
    run_scan(again, out_dir=tmp_path / "b")
    assert json.loads((tmp_path / "b" / "records.json").read_text()) == first


def test_pure_energy_feeds_optimizer_not_pt2():
    # the recorded objective history must match the pure-energy series exactly
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=None, noise=None,
                    seed=0, optimizer=OptimizerSettings(maxfev=30))
    rec = run_point(spec, 0.7)
    pures = [it["e_pure"] for it in rec.iterations]
    pt2s = [it["e_pt2_frozen"] for it in rec.iterations]
    assert min(pures) == pytest.approx(
        min(pures[: rec.n_objective_calls]))
    assert any(abs(a - b) > 1e-12 for a, b in zip(pures, pt2s))


def test_cli_run_and_report(tmp_path, capsys):
    rc = cli.main(["run", "--fixture", "h2", "--geometry", "0.7",
                   "--shots", "0", "--noise", "none", "--max-evals", "50",
                   "--out", str(tmp_path / "runs")])
    assert rc == 0
    csv_path = tmp_path / "runs" / "scan.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == vqe.CSV_COLUMNS
    archive = json.loads((tmp_path / "runs" / "records.json").read_text())
    assert len(archive["records"][0]["iterations"]) <= 50
    before = csv_path.read_bytes()
    rc = cli.main(["report", "--in", str(tmp_path / "runs")])
    assert rc == 0
    assert csv_path.read_bytes() == before
    rc = cli.main(["fixtures"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lih_1.5949" in out


def test_exact_expectations_reject_a_noise_model(tmp_path, capsys):
    # shots=None evaluates noiseless expectation values; a noise model there
    # would be recorded in records.json without ever being applied
    with pytest.raises(hamio.ValidationError, match="--noise none"):
        ScanSpec(molecule="h2", geometries=[0.7], shots=None,
                 noise=qsim.NoiseModel())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7],
                                     "shots": None, "noise": "default"}))
    with pytest.raises(hamio.ValidationError, match="noise"):
        ScanSpec.from_json(spec_path)
    # the CLI's --noise defaults to the default model
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "0",
                  "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "--noise none" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_scan_with_spec_file(tmp_path):
    cfg = {"molecule": "h2", "geometries": [0.7], "shots": None,
           "noise": None, "seed": 0, "optimizer": {"maxfev": 40}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(cfg))
    rc = cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "records.json").exists()
