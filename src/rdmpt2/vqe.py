"""The variational loop: derivative-free optimization of the purified energy,
per-iteration records, bootstrap statistics and geometry scans.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import hamio, pt2, purify, qsim, rdm
from .hamio import ValidationError

log = logging.getLogger(__name__)

BOUNDS = (-np.pi, np.pi)


# ---------------------------------------------------------------------------
# Derivative-free optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerSettings:
    method: str = "cobyla"  # cobyla | nelder-mead
    rhobeg: float = 0.5
    rhoend: float = 1e-4
    maxfev: int = 200


@dataclass
class OptimizeTrace:
    evals: list            # [(params array, value)] in evaluation order
    best_params: np.ndarray
    best_value: float
    n_evals: int
    converged: bool        # False when the evaluation budget ended the run
    final_radius: float    # inf when the evaluation budget ended the run

    def best_so_far(self):
        out = []
        best = math.inf
        for _, v in self.evals:
            best = min(best, v)
            out.append(best)
        return out


def _clip(x):
    return np.clip(x, BOUNDS[0], BOUNDS[1])


class _BudgetSpent(Exception):
    """Raised by the evaluation gate in ``optimize`` once ``maxfev`` is spent."""


def optimize(objective, start, settings: OptimizerSettings | None = None) -> OptimizeTrace:
    """Minimize a total objective over the parameter cube.

    ``cobyla`` (the default) maintains a simplex of n+1 points, fits a linear
    model and takes trust-region steps, halving the radius when the model
    stops predicting descent; ``nelder-mead`` reflects, expands, contracts
    and shrinks a simplex of initial size ``rhobeg``.  Both stop when their
    radius (trust radius or simplex size) drops below ``rhoend``, or after
    exactly ``maxfev`` evaluations: every evaluation passes one budget gate,
    and a run the budget ends reports ``converged=False`` and an infinite
    ``final_radius``.
    """
    settings = settings or OptimizerSettings()
    if settings.maxfev < 1:
        raise ValidationError(f"maxfev must be at least 1, got {settings.maxfev}")
    x0 = _clip(np.asarray(list(start), dtype=float))
    evals = []

    def f(x):
        if len(evals) == settings.maxfev:
            raise _BudgetSpent
        v = float(objective(tuple(x)))
        evals.append((x.copy(), v))
        return v

    if settings.method == "nelder-mead":
        method = _nelder_mead
    elif settings.method == "cobyla":
        method = _linear_trust_region
    else:
        raise ValidationError(f"unknown optimizer method {settings.method!r}")
    try:
        radius = method(f, x0, settings)
        converged = True
    except _BudgetSpent:
        radius, converged = math.inf, False
    best_x, best_v = min(evals, key=lambda e: e[1])
    return OptimizeTrace(evals=evals, best_params=best_x, best_value=best_v,
                         n_evals=len(evals), converged=converged,
                         final_radius=radius)


def _linear_trust_region(f, x0, settings):
    """Run to convergence and return the final trust radius."""
    n = x0.size
    rho = settings.rhobeg
    points = [x0]
    values = [f(x0)]

    def rebuild(center, radius):
        del points[:], values[:]
        points.append(center)
        values.append(f(center))
        for k in range(n):
            step = np.zeros(n)
            step[k] = radius if center[k] + radius <= BOUNDS[1] else -radius
            points.append(_clip(center + step))
            values.append(f(points[-1]))

    rebuild(x0, rho)
    while True:
        b = int(np.argmin(values))
        xb, fb = points[b], values[b]
        d = np.array([points[k] - xb for k in range(len(points)) if k != b])
        df = np.array([values[k] - fb for k in range(len(points)) if k != b])
        try:
            grad, *_ = np.linalg.lstsq(d, df, rcond=None)
        except np.linalg.LinAlgError:
            rebuild(xb, rho)
            continue
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14 or np.linalg.matrix_rank(d, tol=1e-12 * rho) < n:
            rho *= 0.5
            if rho < settings.rhoend:
                return rho
            rebuild(xb, rho)
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
                return rho
            rebuild(xb, rho)


def _nelder_mead(f, x0, settings):
    """Run to convergence and return the final simplex size."""
    n = x0.size
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    simplex = [x0] + [_clip(x0 + settings.rhobeg * e)
                      for e in np.eye(n)]
    values = [f(x) for x in simplex]
    while True:
        order = np.argsort(values)
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]
        size = max(np.linalg.norm(x - simplex[0]) for x in simplex[1:])
        if size < settings.rhoend:
            return size
        centroid = np.mean(simplex[:-1], axis=0)
        xr = _clip(centroid + alpha * (centroid - simplex[-1]))
        fr = f(xr)
        if fr < values[0]:
            xe = _clip(centroid + gamma * (centroid - simplex[-1]))
            fe = f(xe)
            simplex[-1], values[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = _clip(centroid + beta * (simplex[-1] - centroid))
            fc = f(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                for k in range(1, n + 1):
                    simplex[k] = _clip(simplex[0] + delta * (simplex[k] - simplex[0]))
                    values[k] = f(simplex[k])


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
        """Last-5-iteration statistics plus quadrature with the bootstrap."""
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
            bs = self.bootstrap.get(key, {}).get("std", 0.0)
            self.combined_error[key] = math.sqrt(stats["std"] ** 2 + bs ** 2)
        return self

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d) -> "RunRecord":
        return cls(**d)


@dataclass
class ScanSpec:
    """Everything needed to reproduce a run: fixture, geometries, noise,
    shots, seeds and optimizer settings."""

    molecule: str
    geometries: list
    shots: int | None = 8192
    noise: qsim.NoiseModel | None = None
    seed: int = 0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    bootstrap_resamples: int = 0
    mirror: bool = False
    start: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.geometries:
            raise ValidationError("a scan needs at least one geometry")
        if self.shots is None and self.noise is not None:
            raise ValidationError(
                "exact expectations (shots=None, CLI --shots 0) cannot apply a "
                "noise model; pass noise=None (CLI --noise none) or a shot count")

    @classmethod
    def from_json(cls, path) -> "ScanSpec":
        """Read a spec file; ``noise`` is null, "default", a dict of
        ``NoiseModel`` fields (as ``records.json`` settings hold it) or the
        path of a noise-model file.  Unknown keys are rejected."""
        cfg = json.loads(Path(path).read_text())
        unknown = sorted(set(cfg) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown scan-spec keys: {', '.join(unknown)}")
        noise = cfg.get("noise")
        model = None
        if noise == "default":
            model = qsim.NoiseModel()
        elif isinstance(noise, dict):
            model = qsim.NoiseModel.from_dict(noise)
        elif isinstance(noise, str) and noise:
            model = qsim.NoiseModel.from_json(noise)
        opt = OptimizerSettings(**cfg.get("optimizer", {}))
        return cls(molecule=cfg["molecule"],
                   geometries=[float(g) for g in cfg["geometries"]],
                   shots=cfg.get("shots", 8192), noise=model,
                   seed=int(cfg.get("seed", 0)), optimizer=opt,
                   bootstrap_resamples=int(cfg.get("bootstrap_resamples", 0)),
                   mirror=bool(cfg.get("mirror", False)),
                   start=tuple(cfg.get("start", (0.0, 0.0, 0.0))))


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
        self.table = (hamio.freeze_core(self.table_full, self.space)
                      if self.space.frozen_occupied or self.space.frozen_virtual
                      else self.table_full)
        self.ref = hamio.ReferenceDeterminant.aufbau(self.table)
        self.ref_full = hamio.ReferenceDeterminant.aufbau(self.table_full)
        self.schedule = rdm.build_schedule(self.table.n_so, mirror=spec.mirror)
        self.observables = list(self.schedule.observables)
        self.has_frozen = bool(self.space.frozen_occupied or self.space.frozen_virtual)
        self._count = 0

    # -- references -----------------------------------------------------
    def references(self) -> dict:
        from . import exact
        e_frozen, _ = exact.fci_ground_state(self.table)
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
            sv = qsim.simulate(circuit)
            raw = rdm.rdm_from_state(sv, self.schedule)
            tables = None
        else:
            seed = _eval_seed(self.spec.seed, tag)
            tables = qsim.measure_pauli_sets(
                circuit, self.observables, self.spec.shots,
                model=self.spec.noise, seed=seed)
            raw = self._assemble(tables)
        rec = {"params": tuple(float(x) for x in params)}
        rec.update(self._energies(raw))
        return rec, tables

    def _assemble(self, tables) -> rdm.RdmPair:
        if self.spec.noise is not None:
            tables = [qsim.mitigate_readout(t, self.spec.noise) for t in tables]
        return rdm.rdm_from_shots(tables, self.schedule)

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
                pure, self.table, self.ref, warn_positive=False)
        except pt2.DegenerateDenominatorError as exc:
            out["e_pt2_frozen"] = None
            out["note"] = str(exc)
        if self.has_frozen:
            try:
                embedded = pt2.embed_active_rdm(pure, self.space)
                out["e_pt2_full"] = out["e_pure"] + pt2.rdm_pt2(
                    embedded, self.table_full, self.ref_full, space=self.space,
                    warn_positive=False)
            except pt2.DegenerateDenominatorError as exc:
                out["e_pt2_full"] = None
                out["note"] = str(exc)
        else:
            out["e_pt2_full"] = out.get("e_pt2_frozen")
        return out

    def bootstrap_pipeline(self, tables) -> dict:
        raw = self._assemble(tables)
        vals = self._energies(raw)
        return {k: v for k, v in vals.items()
                if k in ENERGY_KEYS and v is not None}


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
                       settings={"shots": spec.shots, "mirror": spec.mirror,
                                 "optimizer": asdict(spec.optimizer),
                                 "noise": (spec.noise.to_dict()
                                           if spec.noise is not None else None),
                                 "bootstrap_resamples": spec.bootstrap_resamples,
                                 "start": list(spec.start)})
    state = {"n": 0}

    def objective(params):
        rec, _ = pipe.evaluate(params, state["n"])
        state["n"] += 1
        record.iterations.append(rec)
        if rec.get("e_pure") is None:
            raise RuntimeError(
                f"objective failed at {params}: {rec.get('note', 'no pure energy')}")
        return rec["e_pure"]

    trace = optimize(objective, spec.start, spec.optimizer)
    record.n_objective_calls = trace.n_evals
    record.best_params = tuple(float(x) for x in trace.best_params)
    record.converged = trace.converged
    boot = None
    if spec.bootstrap_resamples and spec.shots is not None:
        _, tables = pipe.evaluate(trace.best_params, state["n"])
        ens = rdm.bootstrap(tables, spec.bootstrap_resamples,
                            pipe.bootstrap_pipeline, seed=spec.seed)
        boot = {k: {"mean": ens.mean[k], "std": ens.std[k]} for k in ens.samples}
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


def write_outputs(records, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(record_row(rec))
    archive = {"records": [rec.to_json() for rec in records]}
    (out / "records.json").write_text(json.dumps(archive, indent=2, sort_keys=True) + "\n")
    return out / "scan.csv"


def read_archive(path):
    data = json.loads(Path(path).read_text())
    return [RunRecord.from_json(d) for d in data["records"]]
