import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rdmpt2 import cli, hamio, pt2, qsim, rdm, vqe
from rdmpt2.vqe import (OptimizerSettings, RunRecord, ScanSpec, optimize, run_point,
                        run_scan)

SRC = str(Path(vqe.__file__).resolve().parents[1])


def test_optimizer_quadratic_bowl():
    target = np.array([0.4, -1.1, 0.7])

    def bowl(x):
        return float(np.sum((np.asarray(x) - target) ** 2))

    trace = optimize(bowl, (0.0, 0.0, 0.0), OptimizerSettings(maxfev=100))
    assert np.abs(trace.best_params - target).max() < 1e-3
    assert trace.n_evals <= 100


def test_optimizer_respects_budget_and_orders_evals():
    def sphere(x):
        return float(np.sum(np.asarray(x) ** 2))

    calls = []

    def noisy(x):
        calls.append(tuple(x))
        return sphere(x)

    trace = optimize(noisy, (1.0, 1.0, 1.0), OptimizerSettings(maxfev=37))
    assert trace.n_evals == len(calls) <= 37
    assert [v for _, v in trace.evals] == [sphere(x) for x in calls]
    # without a binding budget the same run needs more than 37
    # evaluations, so the budget cuts it off after exactly 37 of the
    # same evaluations
    free = optimize(sphere, (1.0, 1.0, 1.0), OptimizerSettings(maxfev=10_000))
    assert free.converged and free.n_evals > 37
    assert trace.n_evals == 37 and not trace.converged
    assert calls == [tuple(x) for x, _ in free.evals[:37]]
    with pytest.raises(hamio.ValidationError):
        optimize(sphere, (1.0, 1.0, 1.0), OptimizerSettings(maxfev=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_optimizer_stops_at_a_non_finite_value(bad):
    # np.argmin takes a NaN for the best point, so one NaN would hold the
    # trust region at the start until the budget is spent
    calls = []

    def sphere(x):
        calls.append(tuple(x))
        return bad if len(calls) == 2 else float(np.sum(np.asarray(x) ** 2))

    with pytest.raises(vqe.NonFiniteObjectiveError) as info:
        optimize(sphere, (1.0, 1.0, 1.0), OptimizerSettings(maxfev=50))
    assert len(calls) == 2
    assert str(info.value) == f"objective returned {bad} at {tuple(map(float, calls[1]))}"


def test_non_finite_energy_fails_the_point(monkeypatch, tmp_path):
    real = vqe.PointPipeline._energies

    def nan_pure(self, raw):
        return {**real(self, raw), "e_pure": math.nan}

    monkeypatch.setattr(vqe.PointPipeline, "_energies", nan_pure)
    assert cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "0",
                     "--noise", "none", "--out", str(tmp_path / "run")]) == 1
    record, = vqe.read_archive(tmp_path / "run" / "records.json")
    assert "objective returned nan" in record.error


@pytest.mark.parametrize("field", ["rhobeg", "rhoend"])
@pytest.mark.parametrize("radius", [0.0, -1e-3, math.nan, math.inf])
def test_optimizer_rejects_invalid_radius(field, radius, tmp_path):
    # a zero radius halves to itself and every rebuilt point is the centre,
    # whose held value keeps the budget gate from ever firing; the settings
    # are refused when built, so a spec file holding one fails at load
    with pytest.raises(hamio.ValidationError, match=field):
        OptimizerSettings(maxfev=500, **{field: radius})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7], "shots": None,
                                "optimizer": {field: radius, "maxfev": 500}}))
    with pytest.raises(hamio.ValidationError, match=field):
        ScanSpec.from_json(path)


@pytest.mark.parametrize("maxfev", [5.5, 10.0, True, 0, -1, "10"])
def test_optimizer_rejects_non_integer_budget(maxfev):
    # the budget gate compares an evaluation count with maxfev: at 5.5 it
    # never fires, and True would stop after one evaluation
    with pytest.raises(hamio.ValidationError, match="maxfev"):
        OptimizerSettings(maxfev=maxfev)


def test_scanspec_rejects_bad_seed_and_start(tmp_path, capsys):
    with pytest.raises(hamio.ValidationError, match="seed"):
        ScanSpec(molecule="h2", geometries=[0.7], seed=-1)
    # numpy refused the seed at every point while the command exited 0
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "64",
                  "--seed", "-1", "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    for start in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0),
                  (math.nan, 0.0, 0.0), (0.0, "a", 0.0), 0.5):
        with pytest.raises(hamio.ValidationError, match="start"):
            ScanSpec(molecule="h2", geometries=[0.7], start=start)
    assert ScanSpec(molecule="h2", geometries=[0.7], start=[0, 0.5, -1]).start == (0, 0.5, -1)


def test_settings_stay_as_checked():
    # a field set after its check would be read unchecked (a model with
    # p2 = 3.0 samples, a spec with rhobeg 0 runs one evaluation), so none
    # can be set, and the geometries are a tuple that cannot grow
    spec = ScanSpec(molecule="h2", geometries=[0.7], noise=qsim.NoiseModel())
    for settings_, name, value in ((spec, "shots", 0), (spec, "geometries", [9.9]),
                                   (spec.optimizer, "rhobeg", 0.0),
                                   (spec.noise, "p1", -1.0), (spec.noise, "p2", 3.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings_, name, value)
    assert (spec.shots, spec.geometries, spec.optimizer.rhobeg) == (8192, (0.7,), 0.5)
    assert (spec.noise.p1, spec.noise.p2) == (0.001, 0.01)
    # the model holds its own copy of a confusion array it was given
    confusion = np.array([np.eye(2)] * 4)
    model = qsim.NoiseModel(readout=confusion)
    confusion[0] = [[0.5, 0.9], [0.1, 0.3]]
    assert np.array_equal(model.readout, [np.eye(2)] * 4)


def test_noise_models_compare_and_hash_by_identity():
    # a model holds arrays, so it compares by identity, as IntegralTable does;
    # elementwise array equality made == raise and left no hash
    a, b = qsim.NoiseModel(), qsim.NoiseModel()
    assert a == a and a != b
    assert hash(a) == hash(a)
    spec = ScanSpec(molecule="h2", geometries=[0.7], noise=a)
    same = ScanSpec(molecule="h2", geometries=[0.7], noise=a)
    other = ScanSpec(molecule="h2", geometries=[0.7], noise=b)
    assert spec == same and spec != other
    assert {spec, same, other} == {spec, other}


BAD_SPECS = [
    ({"optimizer": {"maxfev": 5.5}}, "maxfev"),
    ({"optimizer": {"maxfev": True}}, "maxfev"),
    ({"optimizer": {"rhoend": 0}}, "rhoend"),
    ({"shots": 100.5}, "shots"),
    ({"shots": True}, "shots"),
    ({"shots": 0}, "shots"),
    ({"seed": -1}, "seed"),
    ({"start": [0.0, 0.0]}, "start"),
    ({"start": [0.0, 0.0, math.nan]}, "start"),
    ({"start": 0.5}, "start"),
    ({"seed": 1.7}, "seed"),
    ({"bootstrap_resamples": 2.5}, "bootstrap_resamples"),
    ({"noise": {"n_qubits": 2}}, "n_qubits"),
    ({"geometries": 0.7}, "geometries"),
    ({"geometries": ["x"]}, "geometries"),
    ({"noise": "nope.json"}, "noise"),
    ({"noise": "none"}, "noise"),
    ({"noise": {"p1": None}}, "p1"),
    ({"noise": {"n_qubits": 4.7}}, "n_qubits"),
    ({"noise": {"readout": True}}, "readout"),
    ({"noise": {"p1": "0.1"}}, "p1"),
    ({"noise": {"readout": "x"}}, "readout"),
    ({"optimizer": 5}, "optimizer"),
    ({"molecule": 5}, "molecule"),
    ({"shots": None, "bootstrap_resamples": 5}, "bootstrap_resamples"),
    ({"noise": {"readout": 0.5}}, "singular confusion matrix"),
]


@pytest.mark.parametrize("bad, name", BAD_SPECS)
def test_scan_rejects_bad_spec_at_load(bad, name, tmp_path, capsys):
    # each of these used to load and then fail (or silently misbehave) at
    # every point while the command exited 0, or exit 1 with a traceback
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7], **bad}))
    with pytest.raises(hamio.ValidationError, match=name):
        ScanSpec.from_json(path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["scan", "--spec", str(path), "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_scanspec_rejects_fractional_counts_and_foreign_noise(tmp_path, capsys):
    # from_json cast 1.7 to 1; a 2-qubit model failed at every point
    for name, value in (("seed", 1.7), ("seed", True), ("bootstrap_resamples", 2.5)):
        with pytest.raises(hamio.ValidationError, match=name):
            ScanSpec(molecule="h2", geometries=[0.7], **{name: value})
    two_qubit = qsim.NoiseModel(n_qubits=2)  # still a valid model for qsim
    with pytest.raises(hamio.ValidationError, match="n_qubits"):
        ScanSpec(molecule="h2", geometries=[0.7], noise=two_qubit)
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(json.dumps(two_qubit.to_dict()))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "64",
                  "--noise", str(noise_path), "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "n_qubits" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text, name", [
    (None, "cannot read"),
    ('{"molecule": "h2", "geometries": [0.7],', "cannot read"),
    ('{"geometries": [0.7]}', "molecule"),
    ('["h2", 0.7]', "JSON object"),
])
def test_scan_rejects_unreadable_spec(text, name, tmp_path, capsys):
    # a missing file, malformed JSON or a missing molecule exited 1 with a
    # traceback
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(hamio.ValidationError, match=name):
        ScanSpec.from_json(path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["scan", "--spec", str(path), "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text", [None, '{"p1": 0.002,'])
def test_run_rejects_unreadable_noise_file(text, tmp_path, capsys):
    # a missing or malformed noise-model file exited 1 with a traceback
    noise_path = tmp_path / "noise.json"
    if text is not None:
        noise_path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "64",
                  "--noise", str(noise_path), "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "cannot read noise-model file" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text", [
    None, "directory", '{"records": [', '["x"]', '{"runs": []}',
    '{"records": [{"fixture_id": "h2_0.70", "geometry": 0.7}]}',
    '{"records": [{"fixture_id": "h2_0.70", "geometry": "r", "seed": 0}]}',
])
def test_report_rejects_unreadable_archive(text, tmp_path, capsys):
    # a missing, unreadable or malformed records.json exited 1 with a traceback
    indir = tmp_path / "runs"
    if text == "directory":
        (indir / "records.json").mkdir(parents=True)
    elif text is not None:
        indir.mkdir()
        (indir / "records.json").write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["report", "--in", str(indir), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "cannot read records archive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["report", "--in", str(indir)])
    assert exit_info.value.code == 2
    assert not (indir / "scan.csv").exists()


def test_failed_point_exits_nonzero_and_still_writes(tmp_path, capsys):
    # a point with no fixture printed FAILED and the command exited 0
    assert cli.main(["run", "--fixture", "h2", "--geometry", "9.9", "--shots", "0",
                     "--noise", "none", "--out", str(tmp_path / "run")]) == 1
    assert "FAILED" in capsys.readouterr().out
    record, = vqe.read_archive(tmp_path / "run" / "records.json")
    assert "no fixture" in record.error
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7, 9.9],
                                     "shots": None, "optimizer": {"maxfev": 3}}))
    assert cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "scan")]) == 1
    good, bad = vqe.read_archive(tmp_path / "scan" / "records.json")
    assert good.error is None and bad.error is not None
    assert (tmp_path / "scan" / "scan.csv").exists()


def _points(evals):
    return [(tuple(x.tolist()), v) for x, v in evals]


class _Stop(Exception):
    pass


COORD = st.one_of(st.sampled_from([-np.pi, np.pi]), st.floats(-np.pi, np.pi))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3), flat=st.booleans(),
       start=st.tuples(COORD, COORD, COORD), budget=st.floats(0.0, 1.0))
# steps clip back onto the starting corner after the trust region has moved
# away: the oracle evaluates the corner 27 times, and carrying the centre's
# value alone still leaves 13 of them
@example(seed=0, rank=2, flat=True, start=(np.pi, np.pi, np.pi), budget=0.5)
def test_optimizer_is_the_oracle_without_repeats(seed, rank, flat, start, budget):
    # a random quadratic, possibly flat along an axis and with its minimum
    # outside the parameter cube (so steps clip onto faces and corners), is a
    # deterministic objective: the package must evaluate the oracle's points
    # in the oracle's order, minus the points the oracle evaluates again
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rank, 3))
    if flat:
        m[:, rng.integers(3)] = 0.0
    center = rng.uniform(-4.0, 4.0, size=3)

    def quadratic(x):
        r = m @ (np.asarray(x) - center)
        return float(r @ r)

    oracle_evals = []

    def f(x):
        if len(oracle_evals) == 3000:  # ill-conditioned bowls converge slowly
            raise _Stop
        oracle_evals.append((x.copy(), quadratic(x)))
        return oracle_evals[-1][1]

    try:
        oracles.linear_trust_region(f, vqe._clip(np.asarray(start, dtype=float)),
                                    OptimizerSettings())
        done = True
    except _Stop:
        done = False
    expected = list(dict.fromkeys(_points(oracle_evals)))  # first of each point
    full = optimize(quadratic, start, OptimizerSettings(maxfev=len(expected)))
    assert _points(full.evals) == expected
    if done:
        assert full.converged
    # a binding budget stops after exactly maxfev of the same evaluations
    maxfev = max(1, int(budget * len(expected)))
    cut = optimize(quadratic, start, OptimizerSettings(maxfev=maxfev))
    assert cut.n_evals == maxfev
    assert _points(cut.evals) == expected[:maxfev]
    if maxfev < len(expected):
        assert not cut.converged


def test_noiseless_run_reaches_fci():
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=None, noise=None,
                    seed=0, optimizer=OptimizerSettings(rhoend=1e-6, maxfev=300))
    rec = run_point(spec, 0.7)
    fci = rec.references["e_fci_frozen"]
    assert abs(rec.last5["e_pure"]["mean"] - fci) < 1e-6
    assert rec.converged
    # exact expectations are deterministic: no parameter point is measured twice
    points = [tuple(it["params"]) for it in rec.iterations]
    assert len(set(points)) == len(points)


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
    clipped = [it["readout_clipped"] for it in rec.iterations]
    assert all(0.0 <= c < 1.0 for c in clipped) and max(clipped) > 0.0


def test_combined_error_is_quadrature():
    rec = RunRecord(fixture_id="x", geometry=1.0, seed=0)
    rec.iterations = [
        {"e_raw": 1.0, "e_pure": v, "e_pt2_frozen": v, "e_pt2_full": v}
        for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    rec.finalize(bootstrap_std={"e_pure": {"mean": 3.0, "std": 0.5}})
    assert rec.combined_error["e_pure"] == pytest.approx(
        math.sqrt(np.array([1, 2, 3, 4, 5]).std() ** 2 + 0.25))


@pytest.mark.parametrize("n_failed", [2, 4])
def test_bootstrap_failures_are_counted_in_the_record(n_failed, monkeypatch):
    # resamples 0 .. n_failed-1 fail purification; the record counts them per
    # energy and keeps statistics only where some resample survived
    real = vqe.PointPipeline.bootstrap_pipeline
    calls = []

    def failing_first(self, raw):
        calls.append(len(raw.rho1))
        rho1, rho2 = raw.rho1.copy(), raw.rho2.copy()
        rho1[:n_failed] = rho2[:n_failed] = 0.0
        return real(self, rdm.RdmPair(rho1, rho2))

    monkeypatch.setattr(vqe.PointPipeline, "bootstrap_pipeline", failing_first)
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=256, noise=qsim.NoiseModel(),
                    seed=2, optimizer=OptimizerSettings(maxfev=5), bootstrap_resamples=4)
    rec = run_point(spec, 0.7)
    assert calls == [4]  # one block
    assert rec.bootstrap["e_raw"]["failed"] == 0
    for key in ("e_pure", "e_pt2_frozen", "e_pt2_full"):
        stats = rec.bootstrap[key]
        assert stats["failed"] == n_failed
        if n_failed < 4:
            assert math.isfinite(stats["mean"]) and stats["std"] >= 0.0
        else:
            assert set(stats) == {"failed"}
            assert rec.combined_error[key] is None
    assert rec.combined_error.keys() == rec.last5.keys()


def test_bootstrap_point_runs_the_chain_once_per_evaluation(monkeypatch):
    # the bootstrap's tables are measured again at the best parameters, not
    # taken from one more evaluation whose energies would be thrown away
    real = vqe.PointPipeline._energies
    calls = []

    def counted(self, raw):
        calls.append(1)
        return real(self, raw)

    monkeypatch.setattr(vqe.PointPipeline, "_energies", counted)
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=256, noise=qsim.NoiseModel(),
                    seed=1, optimizer=OptimizerSettings(maxfev=5), bootstrap_resamples=3)
    rec = run_point(spec, 0.7)
    assert rec.bootstrap["e_pure"]["failed"] == 0
    assert len(calls) == rec.n_objective_calls == len(rec.iterations)


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


@pytest.mark.parametrize("molecule, r, fid", [  # the benchmark workloads' geometries
    ("h2", 2.0, "h2_2.00"), ("nah", 1.8874, "nah_1.8874"), ("lih", 1.5949, "lih_1.5949")])
def test_point_set_up_reads_the_manifest_once(monkeypatch, molecule, r, fid):
    load, reads = hamio.load_manifest, []
    monkeypatch.setattr(hamio, "load_manifest", lambda: reads.append(None) or load())
    pipe = vqe.PointPipeline(ScanSpec(molecule=molecule, geometries=[r], shots=None), r)
    assert len(reads) == 1
    assert pipe.fixture_id == fid


def test_missing_geometry_is_recorded_with_the_lookup_error():
    record, = run_scan(ScanSpec(molecule="h2", geometries=[9.9], shots=None, noise=None))
    text = ("no fixture for h2 at 9.9 A (available: ['h2_0.70', 'h2_2.00', "
            "'h2_3.00', 'h2_4.00', 'lih_1.5949', 'nah_1.8874'])")
    assert record.error == repr(text)  # str() of a KeyError quotes its message


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


def test_scanspec_mirror_key(tmp_path, capsys):
    # spec files and records.json settings written with the removed --mirror
    # hold "mirror": false, which still loads; true is rejected by name
    path = tmp_path / "spec.json"
    cfg = {"molecule": "h2", "geometries": [0.7], "mirror": False}
    path.write_text(json.dumps(cfg))
    assert ScanSpec.from_json(path).molecule == "h2"
    path.write_text(json.dumps(dict(cfg, mirror=True)))
    with pytest.raises(hamio.ValidationError, match='"mirror": true'):
        ScanSpec.from_json(path)
    with pytest.raises(SystemExit):
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--mirror"])
    assert "--mirror" in capsys.readouterr().err


def test_scanspec_optimizer_keys(tmp_path, capsys):
    # optimizer keys are checked by name; records.json settings written while
    # a second optimizer existed hold "method": "cobyla", which still loads
    path = tmp_path / "spec.json"
    cfg = {"molecule": "h2", "geometries": [0.7]}
    path.write_text(json.dumps(dict(cfg, optimizer={"max_evals": 5, "rho": 1})))
    with pytest.raises(hamio.ValidationError, match="unknown optimizer keys: max_evals, rho"):
        ScanSpec.from_json(path)
    path.write_text(json.dumps(dict(cfg, optimizer={"method": "cobyla", "maxfev": 7})))
    assert ScanSpec.from_json(path).optimizer == OptimizerSettings(maxfev=7)
    path.write_text(json.dumps(dict(cfg, optimizer={"method": "nelder-mead"})))
    with pytest.raises(hamio.ValidationError, match="'nelder-mead'"):
        ScanSpec.from_json(path)
    with pytest.raises(SystemExit):
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7",
                  "--optimizer", "cobyla"])
    assert "--optimizer" in capsys.readouterr().err


def test_older_records_settings_load_and_rerun(tmp_path):
    # the settings block of a records.json written before the optimizer
    # method was removed, verbatim
    settings = {"bootstrap_resamples": 0, "noise": None,
                "optimizer": {"maxfev": 12, "method": "cobyla", "rhobeg": 0.5,
                              "rhoend": 0.0001},
                "shots": None, "start": [0.0, 0.0, 0.0]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7], "seed": 0,
                                **settings}))
    spec = ScanSpec.from_json(path)
    assert spec.optimizer == OptimizerSettings(maxfev=12)
    record, = run_scan(spec)
    assert record.error is None and record.n_objective_calls == 12
    assert record.settings["optimizer"] == {"maxfev": 12, "rhobeg": 0.5,
                                            "rhoend": 0.0001}


def test_both_pt2_failures_are_noted_in_order(monkeypatch):
    # a frozen-space and then a full-space degenerate denominator at one
    # point: the note names both, the frozen one first
    pipe = vqe.PointPipeline(ScanSpec(molecule="lih", geometries=[1.5949], shots=None), 1.5949)
    errors = [pt2.DegenerateDenominatorError((0, 2), 1e-9),
              pt2.DegenerateDenominatorError((1, 7), 2e-9)]
    notes = [str(exc) for exc in errors]

    def degenerate(*args, **kwargs):
        raise errors.pop(0)

    monkeypatch.setattr(pt2, "rdm_pt2", degenerate)
    rec = pipe.evaluate((0.4, -0.3, 0.2), 0)
    assert rec["e_pure"] is not None
    assert rec["e_pt2_frozen"] is None and rec["e_pt2_full"] is None
    assert rec["note"] == f"{notes[0]}; {notes[1]}"


def test_wrong_size_active_space_fails_at_set_up(monkeypatch):
    # three active spatial orbitals are six spin orbitals, two more than the
    # ansatz register: the point fails before the schedule is built
    load = hamio.load_fixture

    def three_active(molecule, r):
        fid, table, entry = load(molecule, r)
        return fid, table, {**entry, "active_spatial_orbitals": [1, 2, 5]}

    def no_schedule(n_so):
        raise AssertionError(f"schedule built for {n_so} spin orbitals")

    monkeypatch.setattr(hamio, "load_fixture", three_active)
    monkeypatch.setattr(rdm, "build_schedule", no_schedule)
    record, = run_scan(ScanSpec(molecule="lih", geometries=[1.5949], shots=None))
    assert record.error == ("fixture lih_1.5949 has 6 active spin orbitals; the ansatz "
                            "register has 4 qubits, one per active spin orbital")


def test_failed_purification_error_names_plain_params():
    # at (0, 0, pi) the state is one open-shell determinant whose
    # spin-reflection average has pair eigenvalues at 1/2: purification
    # fails, and the point ends with an error that prints the parameters
    spec = ScanSpec(molecule="h2", geometries=[0.7], shots=None, noise=None,
                    start=(0.0, 0.0, math.pi))
    record, = run_scan(spec)
    assert "purification failed" in record.error
    assert f"(0.0, 0.0, {math.pi})" in record.error
    assert "np.float64" not in record.error


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


def test_report_only_reads_the_archive(tmp_path, capsys):
    # report re-serialized records.json through write_outputs, so a compact
    # archive changed its bytes
    runs = tmp_path / "runs"
    assert cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "0",
                     "--noise", "none", "--max-evals", "8", "--out", str(runs)]) == 0
    archive = runs / "records.json"
    archive.write_text(json.dumps(json.loads(archive.read_text()), separators=(",", ":")))
    compact = archive.read_bytes()
    want_csv = (runs / "scan.csv").read_bytes()
    (runs / "scan.csv").unlink()
    assert cli.main(["report", "--in", str(runs)]) == 0
    assert archive.read_bytes() == compact
    assert (runs / "scan.csv").read_bytes() == want_csv
    other = tmp_path / "other"
    assert cli.main(["report", "--in", str(runs), "--out", str(other)]) == 0
    assert sorted(p.name for p in other.iterdir()) == ["scan.csv"]
    assert (other / "scan.csv").read_bytes() == want_csv
    assert archive.read_bytes() == compact


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


def test_scanspec_rejects_bad_shots_and_resamples(tmp_path, capsys):
    # 100.5 drew 100 shots per circuit and recorded 100.5; True drew one
    for shots in (0, -8, 100.5, 8192.0, True):
        with pytest.raises(hamio.ValidationError, match="shots"):
            ScanSpec(molecule="h2", geometries=[0.7], shots=shots)
    with pytest.raises(hamio.ValidationError, match="bootstrap_resamples"):
        ScanSpec(molecule="h2", geometries=[0.7], bootstrap_resamples=-1)
    assert ScanSpec(molecule="h2", geometries=[0.7], shots=None).shots is None
    # the CLI stops with a usage error before any optimization
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "64",
                  "--bootstrap", "-1", "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "bootstrap_resamples" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # exact expectations have no counts to resample: the resamples were
    # recorded and never drawn
    with pytest.raises(hamio.ValidationError, match="bootstrap_resamples"):
        ScanSpec(molecule="h2", geometries=[0.7], shots=None, bootstrap_resamples=5)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "0",
                  "--noise", "none", "--bootstrap", "5", "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "--bootstrap 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would add tens of MiB
    # to every run's resident set
    code = ("import sys, rdmpt2.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_cli_scan_with_spec_file(tmp_path):
    cfg = {"molecule": "h2", "geometries": [0.7], "shots": None,
           "noise": None, "seed": 0, "optimizer": {"maxfev": 40}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(cfg))
    rc = cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "records.json").exists()


def test_run_flags_and_spec_file_write_identical_records(tmp_path):
    # `run` builds its spec from flags and `scan` from a file, both through
    # ScanSpec.from_dict: the same settings give the same records.json
    assert cli.main(["run", "--fixture", "h2", "--geometry", "0.7", "--shots", "0",
                     "--noise", "none", "--max-evals", "8",
                     "--out", str(tmp_path / "run")]) == 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"molecule": "h2", "geometries": [0.7],
                                     "shots": None, "noise": None,
                                     "optimizer": {"maxfev": 8}}))
    assert cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "scan")]) == 0
    assert ((tmp_path / "run" / "records.json").read_bytes()
            == (tmp_path / "scan" / "records.json").read_bytes())
