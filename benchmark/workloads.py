"""The benchmark's workloads and the correctness gate applied to each point.

Each workload is one geometry driven through ``vqe.run_scan``, exactly as
``rdmpt2 run`` drives it; the seed is the benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from rdmpt2 import qsim, vqe

CHEMICAL_ACCURACY = 1.6e-3  # Ha
EXACT_TOL = 1e-6            # Ha, exact-expectation workloads
# At 1024 shots a converged e_pure can sit a few mHa above FCI: over LiH
# seeds 0-150 the largest gap was 4.1 mHa (seed 24).  The allowance is that
# plus a margin, fixed, so it does not widen when a point's last iterations
# scatter.  H2 at 8192 shots stays within chemical accuracy (at most
# 0.94 mHa over seeds 0-29).
LIH_E_PURE_TOL = 6.0e-3     # Ha

# Spans every workload must fire: the objective chain, the optimizer glue
# and the per-point references.
COMMON_SPANS = frozenset({
    "vqe.run_scan", "vqe.run_point", "vqe.optimize", "vqe.PointPipeline.evaluate",
    "vqe.write_outputs", "hamio.load_fixture", "hamio.normal_order",
    "hamio.energy_from_rdm", "exact.fci_ground_state", "qsim.build_ansatz",
    "rdm.build_schedule", "rdm.symmetrize", "purify.purify_rdm",
    "pt2.rdm_pt2.frozen", "pt2.transformed_energies", "pt2.hf_mp2",
})
SAMPLED = frozenset({"qsim.measure_pauli_sets", "qsim.mitigate_readout",
                     "rdm.rdm_from_shots"})
FROZEN_CORE = frozenset({"hamio.freeze_core", "pt2.embed_active_rdm",
                         "pt2.rdm_pt2.full"})


@dataclass(frozen=True)
class Workload:
    name: str
    molecule: str
    geometry: float
    shots: int | None         # None: exact statevector expectations
    noisy: bool
    bootstrap: int
    spans: frozenset          # exactly the spans a traced run must fire
    e_pure_tol: float         # Ha, allowed |e_pure - e_fci_frozen|
    e_pt2_tol: float          # Ha, allowed |e_pt2_frozen - e_fci_frozen|

    @property
    def frozen_core(self) -> bool:
        return FROZEN_CORE <= self.spans

    def spec(self, seed: int) -> vqe.ScanSpec:
        return vqe.ScanSpec(molecule=self.molecule, geometries=[self.geometry],
                            shots=self.shots,
                            noise=qsim.NoiseModel() if self.noisy else None,
                            seed=seed, bootstrap_resamples=self.bootstrap)


# Why each workload exists: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("h2_shots8192", "h2", 2.00, 8192, True, 0, COMMON_SPANS | SAMPLED,
             CHEMICAL_ACCURACY, CHEMICAL_ACCURACY),
    Workload("nah_exact", "nah", 1.8874, None, False, 0,
             COMMON_SPANS | FROZEN_CORE | {"qsim.simulate", "rdm.rdm_from_state"},
             EXACT_TOL, EXACT_TOL),
    Workload("lih_bootstrap", "lih", 1.5949, 1024, True, 200,
             COMMON_SPANS | SAMPLED | FROZEN_CORE | {"rdm.bootstrap"},
             LIH_E_PURE_TOL, CHEMICAL_ACCURACY),
)}


def check_point(record: vqe.RunRecord, workload: Workload) -> list[str]:
    """Correctness problems of one finished point; empty when it passes.

    Energies are the last-5-iteration means that ``scan.csv`` reports.
    e_pure and e_pt2_frozen must lie within the workload's allowances of
    the frozen-space FCI energy.  With a frozen core, the full-space
    RDM-PT2 energy must beat HF-MP2.
    """
    if record.error is not None:
        return [f"point error: {record.error}"]
    refs = record.references
    fci = refs["e_fci_frozen"]
    mean = {k: v["mean"] for k, v in record.last5.items()}
    missing = [k for k in ("e_pure", "e_pt2_frozen", "e_pt2_full") if k not in mean]
    if missing:
        return [f"no converged energies for {', '.join(missing)}"]
    tol = {"e_pure": workload.e_pure_tol, "e_pt2_frozen": workload.e_pt2_tol}
    problems = [f"|{k} - e_fci_frozen| = {abs(mean[k] - fci):.3e} Ha > {t:.3e} Ha"
                for k, t in tol.items() if not abs(mean[k] - fci) <= t]
    if workload.frozen_core:
        pt2_err = abs(mean["e_pt2_full"] - refs["e_fci_full"])
        mp2_err = abs(refs["e_hf_mp2_full"] - refs["e_fci_full"])
        if not pt2_err < mp2_err:
            problems.append(f"|e_pt2_full - e_fci_full| = {pt2_err:.3e} Ha is not "
                            f"below HF-MP2's {mp2_err:.3e} Ha")
    return problems


def failed_evaluations(record: vqe.RunRecord) -> int:
    """Evaluations that carry a note or lack one of the energies."""
    return sum(1 for it in record.iterations
               if it.get("note") or any(it.get(k) is None for k in vqe.ENERGY_KEYS))


def point_outcome(record: vqe.RunRecord, workload: Workload):
    """(attempted, failed, problems): every evaluation and the point itself
    count as operations; the point fails on an error or a failed check."""
    problems = check_point(record, workload)
    attempted = len(record.iterations) + 1
    failed = failed_evaluations(record) + (1 if problems else 0)
    return attempted, failed, problems
