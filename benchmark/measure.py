"""One benchmark run: drive points through ``vqe.run_scan`` for the requested
time with set-up bursts between them, check every point, and turn the
recorded spans into metrics.

An untraced run records only two thin timers (``vqe.run_scan``, one call
per point, and ``vqe.PointPipeline.evaluate``) and reports the end-to-end
metrics.  A traced run wraps every layer function listed in ``LAYERS`` and
reports per-layer metrics.  Counts are per point; every point of a run uses
the same seed, so they repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

from rdmpt2 import exact, hamio, pt2, purify, qsim, rdm, vqe

import spans as sp
from workloads import WORKLOADS, point_outcome

# Set-up takes 0.4-30 ms.  It is timed in bursts of at least SETUP_BURST_S
# and SETUP_MIN_REPEATS calls, one before the first point and one after each
# point, and setup_s is the fastest call of them all.  This machine is
# shared and switches between a fast and a ~1.7x slower mode for seconds at
# a time: one burst of set-ups often falls wholly in the slow mode, and the
# median over it had a quartile spread of 0.4 over ten seeds.
SETUP_BURST_S = 0.25
SETUP_MIN_REPEATS = 5
TAIL_PERCENTILE = 80  # a one-point H2 run holds ~70 evaluations: p80 leaves 14 beyond


def _rdm_pt2_name(args, kwargs):
    space = kwargs.get("space", args[3] if len(args) > 3 else None)
    return "pt2.rdm_pt2.full" if space is not None else "pt2.rdm_pt2.frozen"


# (owner, attribute, span name or namer, note taken from the result)
POINT = "vqe.run_scan"  # one geometry per scan: the point as `rdmpt2 run` sees it
THIN = [
    (vqe, "run_scan", POINT, None),
    (vqe.PointPipeline, "evaluate", "vqe.PointPipeline.evaluate", None),
]
LAYERS = THIN + [
    (vqe, "run_point", "vqe.run_point", None),
    (vqe, "optimize", "vqe.optimize", None),
    (vqe, "write_outputs", "vqe.write_outputs", None),
    (hamio, "load_fixture", "hamio.load_fixture", None),
    (hamio, "freeze_core", "hamio.freeze_core", None),
    (hamio, "normal_order", "hamio.normal_order", None),
    (hamio, "energy_from_rdm", "hamio.energy_from_rdm", None),
    (exact, "fci_ground_state", "exact.fci_ground_state", None),
    (qsim, "build_ansatz", "qsim.build_ansatz", None),
    (qsim, "simulate", "qsim.simulate", None),
    (qsim, "measure_pauli_sets", "qsim.measure_pauli_sets",
     lambda tables: (len(tables), sum(t.shots for t in tables))),
    (qsim, "mitigate_readout", "qsim.mitigate_readout", None),
    (rdm, "build_schedule", "rdm.build_schedule", None),
    (rdm, "rdm_from_state", "rdm.rdm_from_state", None),
    (rdm, "rdm_from_shots", "rdm.rdm_from_shots", None),
    (rdm, "symmetrize", "rdm.symmetrize", None),
    (rdm, "bootstrap", "rdm.bootstrap", lambda ens: ens.n_resamples),
    (purify, "purify_rdm", "purify.purify_rdm",
     lambda pair: pair.meta.purification["iterations"]),
    (pt2, "rdm_pt2", _rdm_pt2_name, None),
    (pt2, "transformed_energies", "pt2.transformed_energies", None),
    (pt2, "embed_active_rdm", "pt2.embed_active_rdm", None),
    (pt2, "hf_mp2", "pt2.hf_mp2", None),
]
MODULES = ("hamio", "exact", "qsim", "rdm", "purify", "pt2", "vqe")
# Spans whose call count per point varies with the workload or the optimizer.
CALLS = ["vqe.PointPipeline.evaluate", "qsim.measure_pauli_sets",
         "qsim.mitigate_readout", "rdm.bootstrap", "purify.purify_rdm",
         "pt2.rdm_pt2.frozen", "pt2.rdm_pt2.full"]
# Spans of the objective chain whose self time, as a share of the point's
# time, an optimisation should move; a span that does not run reads 0.
SHARES = ["qsim.simulate", "qsim.measure_pauli_sets", "qsim.mitigate_readout",
          "rdm.rdm_from_state", "rdm.rdm_from_shots", "rdm.symmetrize",
          "rdm.bootstrap", "hamio.energy_from_rdm", "purify.purify_rdm",
          "pt2.rdm_pt2.frozen", "pt2.rdm_pt2.full", "pt2.transformed_energies",
          "pt2.embed_active_rdm"]
# Spans that run on every workload also get their self time per call.
PER_CALL = ["rdm.symmetrize", "hamio.energy_from_rdm", "purify.purify_rdm",
            "pt2.rdm_pt2.frozen", "pt2.transformed_energies"]
# Set-up spans timed once, in the first (cold) set-up of the run.
COLD = ["hamio.load_fixture", "rdm.build_schedule", "exact.fci_ground_state",
        "pt2.hf_mp2"]

END_TO_END_UNITS = {"point_s": "s", f"eval_ms_p{TAIL_PERCENTILE}": "ms",
                    "evals_per_point": "count", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict:
    units = {f"{m}.self_ms_per_point": "ms" for m in MODULES}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.self_pct": "%" for name in SHARES})
    units.update({f"{name}.self_ms_per_call": "ms" for name in PER_CALL})
    units.update({"vqe.optimize.self_ms": "ms",
                  "vqe.PointPipeline.evaluate.ms_p50": "ms",
                  "vqe.PointPipeline.evaluate.self_ms_per_eval": "ms",
                  "vqe.write_outputs.ms": "ms", "setup.cold_s": "s"})
    units.update({f"{name}.ms": "ms" for name in COLD})
    units.update({"qsim.circuits_per_eval": "count", "qsim.shots_per_point": "count",
                  "purify.iterations_mean": "count", "purify.failures": "count",
                  "pt2.degenerate_errors": "count", "rdm.bootstrap.resamples": "count",
                  "rdm.bootstrap.total_pct": "%", "trace.layer_coverage_pct": "%"})
    return units


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot report trustworthy numbers."""


def run(workload_name: str, seed: int, seconds: float, traced: bool, out_root: Path) -> dict:
    if workload_name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload_name!r} "
                             f"(choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[workload_name]
    spec = workload.spec(seed)
    out_root.mkdir(parents=True, exist_ok=True)
    tracer = sp.Tracer()
    try:
        for owner, attr, name, note in (LAYERS if traced else THIN):
            tracer.patch(owner, attr, name, note)
        start = time.perf_counter()
        setup = _setup_burst(tracer, spec, workload)
        points = []
        while not points or (time.perf_counter() - start + SETUP_BURST_S
                             + max(p["wall_s"] for p in points) <= seconds):
            points.append(_point(spec, workload, out_root))
            setup += _setup_burst(tracer, spec, workload)
    finally:
        tracer.restore()

    problems = [f"point {k}: {msg}" for k, p in enumerate(points) for msg in p["problems"]]
    repeats = []
    if len({p["digest"] for p in points}) > 1:
        repeats.append("records.json differs between repeats of the same seed")
    fired = {s.name for s in tracer.spans} - {"bench.setup"}
    if traced and fired != workload.spans:
        raise BenchmarkError(
            "traced spans differ from the workload's expected set: "
            f"missing {sorted(workload.spans - fired)}, "
            f"unexpected {sorted(fired - workload.spans)}")
    metrics = (layer_metrics(tracer.spans, len(points)) if traced
               else end_to_end_metrics(tracer.spans, setup, points))
    return {
        "correct": not (problems or repeats),
        "attempted": sum(p["attempted"] for p in points),
        "failed": sum(p["failed"] for p in points) + len(repeats),
        "metrics": metrics,
        "problems": problems + repeats,
        "samples": {"points": len(points), "setup_repeats": len(setup),
                    "evaluations": sum(1 for s in tracer.spans
                                       if s.name == "vqe.PointPipeline.evaluate")},
        "points": [{k: p[k] for k in ("wall_s", "n_objective_calls", "digest")}
                   for p in points],
        "provenance": provenance(seed, spec),
    }


def _setup_burst(tracer, spec, workload) -> list[float]:
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_BURST_S:
        with tracer.span("bench.setup") as s:
            vqe.PointPipeline(spec, workload.geometry).references()
        times.append(s.end - s.start)
    return times


def _point(spec, workload, out_root):
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        t0 = time.perf_counter()
        record = vqe.run_scan(spec, out_dir=tmp)[0]
        wall = time.perf_counter() - t0
        digest = hashlib.sha256((Path(tmp) / "records.json").read_bytes()).hexdigest()
    attempted, failed, problems = point_outcome(record, workload)
    return {"wall_s": wall, "digest": digest, "n_objective_calls": record.n_objective_calls,
            "attempted": attempted, "failed": failed, "problems": problems}


def _point_spans(spans):
    """The point roots, the spans inside them, and every span's root."""
    root = sp.roots(spans)
    points = [i for i, s in enumerate(spans) if s.parent is None and s.name == POINT]
    inside = [i for i in range(len(spans)) if spans[root[i]].name == POINT and root[i] != i]
    return points, inside, root


def end_to_end_metrics(spans, setup, points) -> dict:
    roots, inside, _ = _point_spans(spans)
    evals = [spans[i].end - spans[i].start for i in inside
             if spans[i].name == "vqe.PointPipeline.evaluate"]
    values = {
        "point_s": statistics.median(spans[i].end - spans[i].start for i in roots),
        f"eval_ms_p{TAIL_PERCENTILE}": 1e3 * sp.tail_percentile(evals, TAIL_PERCENTILE),
        "evals_per_point": statistics.median_low(p["n_objective_calls"] for p in points),
        "setup_s": min(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(spans, n_points) -> dict:
    roots, inside, root = _point_spans(spans)
    self_t = sp.self_times(spans)
    point_total = sum(spans[i].end - spans[i].start for i in roots)
    calls, self_sum, errors, notes = Counter(), defaultdict(float), Counter(), defaultdict(list)
    for i in inside:
        s = spans[i]
        calls[s.name] += 1
        self_sum[s.name] += self_t[i]
        if s.error:
            errors[s.name] += 1
        if s.note is not None:
            notes[s.name].append(s.note)
    for i in roots:
        self_sum[POINT] += self_t[i]

    values = {}
    for m in MODULES:
        values[f"{m}.self_ms_per_point"] = 1e3 * sum(
            t for name, t in self_sum.items() if name.startswith(m + ".")) / n_points
    for name in CALLS:
        values[f"{name}.calls"] = calls[name] / n_points
    for name in SHARES:
        values[f"{name}.self_pct"] = 100 * self_sum[name] / point_total
    for name in PER_CALL:
        values[f"{name}.self_ms_per_call"] = 1e3 * self_sum[name] / calls[name]
    n_evals = calls["vqe.PointPipeline.evaluate"]
    values["vqe.optimize.self_ms"] = 1e3 * self_sum["vqe.optimize"] / n_points
    values["vqe.PointPipeline.evaluate.ms_p50"] = 1e3 * statistics.median(
        spans[i].end - spans[i].start for i in inside
        if spans[i].name == "vqe.PointPipeline.evaluate")
    values["vqe.PointPipeline.evaluate.self_ms_per_eval"] = (
        1e3 * self_sum["vqe.PointPipeline.evaluate"] / n_evals)
    values["vqe.write_outputs.ms"] = 1e3 * self_sum["vqe.write_outputs"] / n_points

    cold = next(i for i, s in enumerate(spans) if s.name == "bench.setup")
    values["setup.cold_s"] = spans[cold].end - spans[cold].start
    cold_ms = defaultdict(float)
    for i, s in enumerate(spans):
        if root[i] == cold and s.parent is not None:
            cold_ms[s.name] += 1e3 * (s.end - s.start)
    values.update({f"{name}.ms": cold_ms[name] for name in COLD})

    sampled = notes["qsim.measure_pauli_sets"]
    values["qsim.circuits_per_eval"] = sum(c for c, _ in sampled) / n_evals
    values["qsim.shots_per_point"] = sum(s for _, s in sampled) / n_points
    iters = notes["purify.purify_rdm"]
    values["purify.iterations_mean"] = statistics.fmean(iters) if iters else 0.0
    values["purify.failures"] = errors["purify.purify_rdm"] / n_points
    values["pt2.degenerate_errors"] = (
        errors["pt2.rdm_pt2.frozen"] + errors["pt2.rdm_pt2.full"]) / n_points
    values["rdm.bootstrap.resamples"] = sum(notes["rdm.bootstrap"]) / n_points
    values["rdm.bootstrap.total_pct"] = 100 * sum(
        spans[i].end - spans[i].start for i in inside
        if spans[i].name == "rdm.bootstrap") / point_total
    values["trace.layer_coverage_pct"] = 100 * sum(
        sp.union_length([(spans[j].start, spans[j].end) for j in inside
                         if root[j] == i and not spans[j].name.startswith("vqe.")])
        for i in roots) / point_total
    units = per_layer_units()
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(seed, spec) -> dict:
    noise = spec.noise
    return {
        "git_sha": _git_sha(Path(__file__).resolve().parents[1]),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                         "loaded": _blas_threads()},
        "spec": {"molecule": spec.molecule, "geometries": spec.geometries,
                 "shots": spec.shots, "bootstrap_resamples": spec.bootstrap_resamples,
                 "optimizer": vars(spec.optimizer), "start": list(spec.start)},
        "noise": None if noise is None else {
            "p1": noise.p1, "p2": noise.p2, "n_qubits": noise.n_qubits,
            "readout": noise.readout.tolist()},
    }


def _git_sha(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out
