"""Command-line entry points: run a single geometry, scan a bond length list,
or re-emit reports from archived records."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hamio, qsim, vqe


def _noise_from_args(args):
    if args.noise == "none":
        return None
    if args.noise == "default":
        return qsim.NoiseModel()
    return qsim.NoiseModel.from_json(args.noise)


def _spec_from_args(args, geometries):
    return vqe.ScanSpec(
        molecule=args.fixture,
        geometries=geometries,
        shots=None if args.shots == 0 else args.shots,
        noise=_noise_from_args(args),
        seed=args.seed,
        optimizer=vqe.OptimizerSettings(method=args.optimizer,
                                        maxfev=args.max_evals),
        bootstrap_resamples=args.bootstrap,
        mirror=args.mirror,
    )


def _add_common(p):
    p.add_argument("--shots", type=int, default=8192,
                   help="shots per measurement circuit; 0 = exact expectations")
    p.add_argument("--noise", default="default",
                   help="'default', 'none', or a noise-model JSON file "
                        "(--shots 0 needs 'none')")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bootstrap", type=int, default=0,
                   help="bootstrap resamples at the final point")
    p.add_argument("--optimizer", choices=["cobyla", "nelder-mead"],
                   default="cobyla")
    p.add_argument("--max-evals", type=int, default=200,
                   help="objective evaluations per point (hard cap)")
    p.add_argument("--mirror", action="store_true",
                   help="measure one spin reflection and mirror the rest")
    p.add_argument("--out", default="runs", help="output directory")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rdmpt2",
        description="Noisy-VQE simulation with RDM error mitigation and "
                    "second-order corrections")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a single geometry")
    p_run.add_argument("--fixture", required=True, help="molecule id, e.g. h2")
    p_run.add_argument("--geometry", type=float, required=True,
                       help="bond length in Angstrom (must match a fixture)")
    _add_common(p_run)

    p_scan = sub.add_parser("scan", help="run a geometry scan from a JSON spec")
    p_scan.add_argument("--spec", required=True, help="ScanSpec JSON file")
    p_scan.add_argument("--out", default="runs")

    p_rep = sub.add_parser("report", help="emit CSV from archived records")
    p_rep.add_argument("--in", dest="indir", required=True,
                       help="directory holding records.json")
    p_rep.add_argument("--out", default=None,
                       help="output directory (default: same as --in)")

    p_fix = sub.add_parser("fixtures", help="list available fixtures")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            spec = _spec_from_args(args, [args.geometry])
        except hamio.ValidationError as exc:
            p_run.error(str(exc))
        records = vqe.run_scan(spec, out_dir=args.out)
        _summarize(records)
        return 0
    if args.command == "scan":
        spec = vqe.ScanSpec.from_json(args.spec)
        records = vqe.run_scan(spec, out_dir=args.out)
        _summarize(records)
        return 0
    if args.command == "report":
        records = vqe.read_archive(Path(args.indir) / "records.json")
        out = vqe.write_outputs(records, args.out or args.indir)
        print(f"wrote {out}")
        return 0
    if args.command == "fixtures":
        manifest = hamio.load_manifest()
        for fid, entry in sorted(manifest["fixtures"].items()):
            print(f"{fid:14s} {entry['molecule']:4s} r={entry['bond_length_angstrom']:<7g}"
                  f" E_HF={entry['e_hf']:.8f}"
                  + (f" E_FCI={entry['e_fci_full']:.8f}" if "e_fci_full" in entry else ""))
        return 0
    return 1


def _summarize(records):
    for rec in records:
        if rec.error is not None:
            print(f"r={rec.geometry:<8g} FAILED: {rec.error}")
            continue
        row = vqe.record_row(rec)
        print(f"r={rec.geometry:<8g} e_pure={row['e_pure']} e_pt2={row['e_pt2_frozen']} "
              f"err_pure={row['err_pure']} err_pt2={row['err_pt2']} "
              f"({rec.n_objective_calls} evaluations)")


if __name__ == "__main__":
    sys.exit(main())
