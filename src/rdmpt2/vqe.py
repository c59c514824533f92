"""The variational loop: derivative-free optimization of the purified energy,
per-iteration records, bootstrap statistics and geometry scans.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import exact, hamio, pt2, purify, qsim, rdm
from .hamio import ValidationError, _is_count, _is_finite, _reject_unknown

log = logging.getLogger(__name__)

BOUNDS = (-np.pi, np.pi)


# ---------------------------------------------------------------------------
# Derivative-free optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerSettings:
    """The trust region's radii and its evaluation budget, checked on
    construction: a zero radius would rebuild forever, and a budget that is
    not a whole number would never meet the budget gate."""

    rhobeg: float = 0.5
    rhoend: float = 1e-4
    maxfev: int = 200

    def __post_init__(self):
        if not _is_count(self.maxfev):
            raise ValidationError(f"maxfev must be an integer >= 1, got {self.maxfev!r}")
        for name in ("rhobeg", "rhoend"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class OptimizeTrace:
    evals: list            # [(params array, value)] in evaluation order
    best_params: np.ndarray
    n_evals: int
    converged: bool        # False when the evaluation budget ended the run


def _clip(x):
    return np.clip(x, BOUNDS[0], BOUNDS[1])


class _BudgetSpent(Exception):
    """Raised by the evaluation gate in ``optimize`` once ``maxfev`` is spent."""


class NonFiniteObjectiveError(ArithmeticError):
    """Raised by the evaluation gate in ``optimize`` for a NaN or infinite
    value, which the trust region would take for its best point."""


def optimize(objective, start, settings: OptimizerSettings | None = None) -> OptimizeTrace:
    """Minimize a total objective over the parameter cube with a linear-model
    trust region.

    The method holds n+1 points and their values, fits a linear model through
    them and steps a distance ``rho`` (starting at ``rhobeg``) down its
    gradient; a step that gains at least a tenth of the predicted decrease
    replaces the worst point.  Otherwise ``rho`` halves and the points are
    rebuilt as the best one, which keeps its value, plus n axis steps of
    length ``rho``.  No point is evaluated twice: a step clipped back onto a
    point evaluated earlier reuses that value.  The run stops when ``rho``
    drops below ``rhoend``, or after exactly ``maxfev`` evaluations: every
    evaluation passes one budget gate, and a run the budget ends reports
    ``converged=False``.  A NaN or infinite value raises
    NonFiniteObjectiveError naming the point.
    """
    settings = settings or OptimizerSettings()
    x0 = _clip(np.asarray(list(start), dtype=float))
    seen = {}  # point -> value, in evaluation order

    def f(x):  # a clipped step can return to a point no longer held
        key = tuple(x.tolist())
        if key not in seen:
            if len(seen) == settings.maxfev:
                raise _BudgetSpent
            v = float(objective(tuple(x)))
            if not math.isfinite(v):
                raise NonFiniteObjectiveError(f"objective returned {v} at {key}")
            seen[key] = v
        return seen[key]

    try:
        _trust_region(f, x0, settings)
        converged = True
    except _BudgetSpent:
        converged = False
    evals = [(np.array(x), v) for x, v in seen.items()]
    best_x, _ = min(evals, key=lambda e: e[1])
    return OptimizeTrace(evals=evals, best_params=best_x, n_evals=len(evals),
                         converged=converged)


def _trust_region(f, x0, settings):
    """Run the trust region of ``optimize`` until its radius drops below
    ``rhoend``; ``f`` returns a point evaluated before from its record."""
    n = x0.size
    rho = settings.rhobeg
    points, values = [], []

    def rebuild(center, center_value, radius):
        points[:], values[:] = [center], [center_value]
        for k in range(n):
            step = np.zeros(n)
            step[k] = radius if center[k] + radius <= BOUNDS[1] else -radius
            points.append(_clip(center + step))
            values.append(f(points[-1]))

    rebuild(x0, f(x0), rho)
    while True:
        b = int(np.argmin(values))
        xb, fb = points[b], values[b]
        d = np.array([points[k] - xb for k in range(len(points)) if k != b])
        df = np.array([values[k] - fb for k in range(len(points)) if k != b])
        try:
            grad, *_ = np.linalg.lstsq(d, df, rcond=None)
        except np.linalg.LinAlgError:
            rebuild(xb, fb, rho)
            continue
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14 or np.linalg.matrix_rank(d, tol=1e-12 * rho) < n:
            rho *= 0.5
            if rho < settings.rhoend:
                return
            rebuild(xb, fb, rho)
            continue
        x_new = _clip(xb - rho * grad / gnorm)
        f_new = f(x_new)
        predicted = rho * gnorm
        if fb - f_new > 0.1 * predicted:
            w = int(np.argmax(values))
            points[w] = x_new
            values[w] = f_new
        else:
            rho *= 0.5
            if rho < settings.rhoend:
                return
            rebuild(xb, fb, rho)


# ---------------------------------------------------------------------------
# Run records and scan specification
# ---------------------------------------------------------------------------

ENERGY_KEYS = ("e_raw", "e_pure", "e_pt2_frozen", "e_pt2_full")


@dataclass
class RunRecord:
    fixture_id: str
    geometry: float
    seed: int
    iterations: list = field(default_factory=list)
    best_params: tuple = (0.0, 0.0, 0.0)
    n_objective_calls: int = 0
    converged: bool = False
    last5: dict = field(default_factory=dict)
    bootstrap: dict = field(default_factory=dict)
    combined_error: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    error: str | None = None

    def finalize(self, bootstrap_std=None):
        """Last-5-iteration statistics plus quadrature with the bootstrap; the
        combined error is None where every bootstrap resample failed."""
        for key in ENERGY_KEYS:
            series = [it[key] for it in self.iterations[-5:]
                      if it.get(key) is not None]
            if not series:
                continue
            arr = np.asarray(series)
            self.last5[key] = {"mean": float(arr.mean()),
                               "std": float(arr.std(ddof=0))}
        if bootstrap_std:
            self.bootstrap = dict(bootstrap_std)
        for key, stats in self.last5.items():
            bs = self.bootstrap.get(key, {"std": 0.0}).get("std")
            self.combined_error[key] = (None if bs is None
                                        else math.sqrt(stats["std"] ** 2 + bs ** 2))
        return self


@dataclass(frozen=True)
class ScanSpec:
    """Everything needed to reproduce a run: fixture, geometries, noise,
    shots, seeds and optimizer settings.  Checked on construction, so a bad
    spec fails when it is loaded rather than at every point."""

    molecule: str
    geometries: tuple
    shots: int | None = 8192
    noise: qsim.NoiseModel | None = None
    seed: int = 0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    bootstrap_resamples: int = 0
    start: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.molecule, str):
            raise ValidationError(f"molecule must be a name such as 'h2', got {self.molecule!r}")
        if not (isinstance(self.geometries, (list, tuple)) and self.geometries
                and all(_is_finite(g) for g in self.geometries)):
            raise ValidationError("geometries must be a non-empty list of bond "
                                  f"lengths, got {self.geometries!r}")
        object.__setattr__(self, "geometries", tuple(float(g) for g in self.geometries))
        if self.shots is not None and not _is_count(self.shots):
            raise ValidationError(f"shots must be an integer >= 1 or None, got {self.shots!r}")
        if not _is_count(self.seed, least=0):
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (isinstance(self.start, (tuple, list)) and len(self.start) == 3
                and all(_is_finite(a) for a in self.start)):
            raise ValidationError(f"start must be three finite angles, got {self.start!r}")
        object.__setattr__(self, "start", tuple(self.start))
        if not _is_count(self.bootstrap_resamples, least=0):
            raise ValidationError("bootstrap_resamples must be an integer >= 0, "
                                  f"got {self.bootstrap_resamples!r}")
        if self.noise is not None and self.noise.n_qubits != qsim.ANSATZ_QUBITS:
            raise ValidationError(
                f"the noise model has n_qubits={self.noise.n_qubits}; the ansatz "
                f"register has {qsim.ANSATZ_QUBITS}")
        if self.shots is None and self.noise is not None:
            raise ValidationError(
                "exact expectations (shots=None, CLI --shots 0) cannot apply a "
                "noise model; pass noise=None (CLI --noise none) or a shot count")
        if self.shots is None and self.bootstrap_resamples:
            raise ValidationError(
                "exact expectations (shots=None, CLI --shots 0) have no counts to "
                "resample; pass bootstrap_resamples=0 (CLI --bootstrap 0) or a shot count")

    @classmethod
    def from_json(cls, path) -> "ScanSpec":
        """Read a spec file, a JSON object of ``from_dict``'s keys."""
        try:
            cfg = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read scan spec {path}: {exc}") from exc
        return cls.from_dict(cfg)

    @classmethod
    def from_dict(cls, cfg) -> "ScanSpec":
        """The one way from outside settings to a spec, for a spec file's
        object (``from_json``) and for ``rdmpt2 run``'s flags.  ``molecule``
        and ``geometries`` (bond lengths in Angstrom) are required; ``shots``
        is null (exact expectations) or a count per circuit (default 8192);
        ``noise`` is null (the default), "default" (``qsim.NoiseModel()``), an
        object of ``NoiseModel`` fields (as ``records.json`` settings hold it)
        or the path of a JSON file holding one.  Unknown keys, top-level or
        under ``optimizer``, are rejected by name.  Older files may hold
        ``"mirror": false`` (the removed spin-reflection schedule) and an
        optimizer ``"method": "cobyla"`` (the one remaining optimizer); both
        are ignored, while ``"mirror": true`` or any other method is
        rejected."""
        if not isinstance(cfg, dict):
            raise ValidationError("scan spec is not a JSON object")
        cfg = dict(cfg)
        missing = [k for k in ("molecule", "geometries") if k not in cfg]
        if missing:
            raise ValidationError(f"scan spec lacks {', '.join(missing)}")
        if cfg.pop("mirror", False):
            raise ValidationError(
                '"mirror": true is no longer supported: the mirrored schedule '
                "needed the same 13 circuits; remove the key")
        _reject_unknown(cfg, cls, "scan-spec")
        opt = cfg.get("optimizer", {})
        if not isinstance(opt, dict):
            raise ValidationError(f"optimizer must be a JSON object, got {opt!r}")
        opt = dict(opt)
        method = opt.pop("method", "cobyla")
        if method != "cobyla":
            raise ValidationError(
                f"optimizer method {method!r} is no longer supported: the linear "
                'trust region ("cobyla") is the only optimizer; remove the key')
        _reject_unknown(opt, OptimizerSettings, "optimizer")
        return cls(molecule=cfg["molecule"], geometries=cfg["geometries"],
                   shots=cfg.get("shots", 8192), noise=_noise_model(cfg.get("noise")),
                   seed=cfg.get("seed", 0),
                   optimizer=OptimizerSettings(**opt),
                   bootstrap_resamples=cfg.get("bootstrap_resamples", 0),
                   start=cfg.get("start", (0.0, 0.0, 0.0)))


def _noise_model(noise) -> qsim.NoiseModel | None:
    """A spec's ``noise`` entry as ``ScanSpec.from_dict`` documents it."""
    if noise is None:
        return None
    if noise == "default":
        return qsim.NoiseModel()
    if isinstance(noise, str):
        try:
            noise = json.loads(Path(noise).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read noise-model file {noise!r}: {exc}") from exc
    if not isinstance(noise, dict):
        raise ValidationError('noise must be null, "default", an object of noise-model '
                              f"fields or a file holding one, got {noise!r}")
    return qsim.NoiseModel.from_dict(noise)


def resolve_fixture(molecule: str, geometry: float) -> str:
    manifest = hamio.load_manifest()
    for fid, entry in manifest["fixtures"].items():
        if (entry["molecule"].lower() == molecule.lower()
                and abs(entry["bond_length_angstrom"] - geometry) < 1e-9):
            return fid
    raise KeyError(f"no fixture for {molecule} at {geometry} A "
                   f"(available: {sorted(manifest['fixtures'])})")


# ---------------------------------------------------------------------------
# The measured-energy pipeline
# ---------------------------------------------------------------------------

class PointPipeline:
    """Shared state for evaluating one geometry: tables, references and the
    per-call measurement/EM/correction chain."""

    def __init__(self, spec: ScanSpec, geometry: float):
        self.spec = spec
        self.fixture_id = resolve_fixture(spec.molecule, geometry)
        self.table_full, self.entry = hamio.load_fixture(self.fixture_id)
        n_sp = self.table_full.n_spatial
        n_elec = self.table_full.n_electrons
        self.space = hamio.ActiveSpaceSpec.from_active_spatials(
            n_sp, n_elec, self.entry["active_spatial_orbitals"])
        self.has_frozen = bool(self.space.frozen_occupied or self.space.frozen_virtual)
        self.table = (hamio.freeze_core(self.table_full, self.space) if self.has_frozen
                      else self.table_full)
        self.ref = hamio.ReferenceDeterminant.aufbau(self.table)
        self.ref_full = hamio.ReferenceDeterminant.aufbau(self.table_full)
        self.schedule = rdm.build_schedule(self.table.n_so)

    # -- references -----------------------------------------------------
    def references(self) -> dict:
        e_frozen = exact.fci_ground_state(self.table)
        refs = {"e_fci_frozen": e_frozen, "e_hf": hamio.normal_order(
            self.table_full, self.ref_full).e0}
        if "e_fci_full" in self.entry:
            refs["e_fci_full"] = self.entry["e_fci_full"]
        elif not self.has_frozen:
            refs["e_fci_full"] = e_frozen
        refs["e_hf_mp2_full"] = refs["e_hf"] + pt2.hf_mp2(self.table_full, self.ref_full)
        return refs

    # -- one objective evaluation ----------------------------------------
    def evaluate(self, params, tag: int):
        """Full chain for one parameter point; returns the iteration record
        and the raw tables (for bootstrap at the final point)."""
        circuit = qsim.build_ansatz(params)
        if self.spec.shots is None:
            raw = rdm.rdm_from_state(qsim.simulate(circuit), self.schedule)
            tables = None
        else:
            seed = _eval_seed(self.spec.seed, tag)
            tables = qsim.measure_pauli_sets(
                circuit, self.schedule.bases, self.spec.shots,
                model=self.spec.noise, seed=seed)
            raw = rdm.rdm_from_shots(tables, self.schedule, model=self.spec.noise)
        rec = {"params": tuple(float(x) for x in params)}
        rec.update(self._energies(raw))
        if self.spec.noise is not None:
            rec["readout_clipped"] = raw.meta.readout_clipped
        return rec, tables

    def _energies(self, raw: rdm.RdmPair) -> dict:
        out = {"e_raw": hamio.energy_from_rdm(self.table, raw)}
        sym = rdm.symmetrize(raw)
        try:
            pure = purify.purify_rdm(sym)
            out["e_pure"] = hamio.energy_from_rdm(self.table, pure)
        except (purify.PurificationError, ValidationError) as exc:
            out["e_pure"] = None
            out["note"] = f"purification failed: {exc}"
            return out
        try:
            out["e_pt2_frozen"] = out["e_pure"] + pt2.rdm_pt2(
                pure, self.table, self.ref)
        except pt2.DegenerateDenominatorError as exc:
            out["e_pt2_frozen"] = None
            out["note"] = str(exc)
        if self.has_frozen:
            try:
                embedded = pt2.embed_active_rdm(pure, self.space)
                out["e_pt2_full"] = out["e_pure"] + pt2.rdm_pt2(
                    embedded, self.table_full, self.ref_full, space=self.space)
            except pt2.DegenerateDenominatorError as exc:
                out["e_pt2_full"] = None
                out["note"] = str(exc)
        else:
            out["e_pt2_full"] = out.get("e_pt2_frozen")
        return out

    def bootstrap_pipeline(self, raw: rdm.RdmPair) -> dict:
        """Every energy of ``ENERGY_KEYS``, None where the chain failed."""
        energies = self._energies(raw)
        return {k: energies.get(k) for k in ENERGY_KEYS}


def _eval_seed(seed, tag):
    return (int(seed) << 20) + tag


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def run_point(spec: ScanSpec, geometry: float) -> RunRecord:
    """Optimize one geometry and assemble the full RunRecord."""
    pipe = PointPipeline(spec, geometry)
    record = RunRecord(fixture_id=pipe.fixture_id, geometry=float(geometry),
                       seed=spec.seed,
                       settings={"shots": spec.shots,
                                 "optimizer": asdict(spec.optimizer),
                                 "noise": (spec.noise.to_dict()
                                           if spec.noise is not None else None),
                                 "bootstrap_resamples": spec.bootstrap_resamples,
                                 "start": list(spec.start)})

    def objective(params):
        rec, _ = pipe.evaluate(params, len(record.iterations))
        record.iterations.append(rec)
        if rec.get("e_pure") is None:
            raise RuntimeError(
                f"objective failed at {rec['params']}: "
                f"{rec.get('note', 'no pure energy')}")
        return rec["e_pure"]

    trace = optimize(objective, spec.start, spec.optimizer)
    record.n_objective_calls = trace.n_evals
    record.best_params = tuple(float(x) for x in trace.best_params)
    record.converged = trace.converged
    boot = None
    if spec.bootstrap_resamples:
        _, tables = pipe.evaluate(trace.best_params, len(record.iterations))
        ens = rdm.bootstrap(tables, pipe.schedule, spec.bootstrap_resamples,
                            pipe.bootstrap_pipeline, model=spec.noise, seed=spec.seed)
        boot = {k: {"failed": failed} for k, failed in ens.failed.items()}
        for k, stats in boot.items():
            if k in ens.mean:  # else every resample failed
                stats.update(mean=ens.mean[k], std=ens.std[k])
    record.finalize(bootstrap_std=boot)
    record.references = pipe.references()
    return record


def run_scan(spec: ScanSpec, out_dir=None):
    """One RunRecord per geometry; per-point failures are recorded, not fatal."""
    records = []
    for geometry in spec.geometries:
        try:
            records.append(run_point(spec, geometry))
        except Exception as exc:  # noqa: BLE001 - scan resilience contract
            log.error("point %s failed: %s", geometry, exc)
            records.append(RunRecord(fixture_id=f"{spec.molecule}@{geometry}",
                                     geometry=float(geometry), seed=spec.seed,
                                     error=str(exc)))
    if out_dir is not None:
        write_outputs(records, out_dir)
    return records


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["r", "e_raw", "e_pure", "e_pt2_frozen", "e_pt2_full",
               "err_pure", "err_pt2", "e_fci_frozen", "e_fci_full"]


def _fmt(x):
    return "" if x is None else f"{x:.12e}"


def record_row(rec: RunRecord) -> dict:
    if rec.error is not None:
        return {"r": f"{rec.geometry:.4f}", "e_raw": "", "e_pure": "",
                "e_pt2_frozen": "", "e_pt2_full": "", "err_pure": "",
                "err_pt2": "", "e_fci_frozen": "", "e_fci_full": ""}
    mean = {k: rec.last5.get(k, {}).get("mean") for k in ENERGY_KEYS}
    fci_frozen = rec.references.get("e_fci_frozen")
    fci_full = rec.references.get("e_fci_full")
    err_pure = (mean["e_pure"] - fci_frozen
                if mean["e_pure"] is not None and fci_frozen is not None else None)
    err_pt2 = (mean["e_pt2_frozen"] - fci_frozen
               if mean["e_pt2_frozen"] is not None and fci_frozen is not None else None)
    return {"r": f"{rec.geometry:.4f}", "e_raw": _fmt(mean["e_raw"]),
            "e_pure": _fmt(mean["e_pure"]),
            "e_pt2_frozen": _fmt(mean["e_pt2_frozen"]),
            "e_pt2_full": _fmt(mean["e_pt2_full"]),
            "err_pure": _fmt(err_pure), "err_pt2": _fmt(err_pt2),
            "e_fci_frozen": _fmt(fci_frozen), "e_fci_full": _fmt(fci_full)}


def write_csv(records, out_dir):
    """Write ``scan.csv`` (one row per record) into ``out_dir``; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(record_row(rec))
    return out / "scan.csv"


def write_outputs(records, out_dir):
    """Write ``scan.csv`` and the ``records.json`` archive; returns the CSV's path."""
    csv_path = write_csv(records, out_dir)
    archive = {"records": [asdict(rec) for rec in records]}
    (Path(out_dir) / "records.json").write_text(
        json.dumps(archive, indent=2, sort_keys=True) + "\n")
    return csv_path


def read_archive(path):
    """The RunRecords of a ``records.json``.  A file that cannot be read, or
    whose records do not load or do not render as CSV rows, raises
    ValidationError."""
    try:
        data = json.loads(Path(path).read_text())
        records = [RunRecord(**d) for d in data["records"]]
        for rec in records:
            record_row(rec)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"cannot read records archive {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    return records
