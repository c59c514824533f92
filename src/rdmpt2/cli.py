"""Command-line entry points: run a single geometry, scan a bond length list,
or re-emit reports from archived records."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import hamio, vqe


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
    p_run.add_argument("--shots", type=int, default=8192,
                       help="shots per measurement circuit; 0 = exact expectations "
                            "(a spec's null)")
    p_run.add_argument("--noise", default="default",
                       help="'default', 'none' (a spec's null), or a JSON file of "
                            "NoiseModel fields p1, p2, readout and n_qubits, which "
                            "must be 4; --shots 0 needs 'none'")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--bootstrap", type=int, default=0,
                       help="bootstrap resamples at the final point "
                            "(needs --shots > 0)")
    p_run.add_argument("--max-evals", type=int, default=200,
                       help="objective evaluations per point (hard cap)")
    p_run.add_argument("--out", default="runs", help="output directory")

    p_scan = sub.add_parser("scan", help="run a geometry scan from a JSON spec")
    p_scan.add_argument("--spec", required=True, help="ScanSpec JSON file")
    p_scan.add_argument("--out", default="runs")

    p_rep = sub.add_parser("report", help="write scan.csv from archived records "
                                          "(records.json is only read)")
    p_rep.add_argument("--in", dest="indir", required=True,
                       help="directory holding records.json")
    p_rep.add_argument("--out", default=None,
                       help="output directory (default: same as --in)")

    p_fix = sub.add_parser("fixtures", help="list available fixtures")

    args = parser.parse_args(argv)

    if args.command in ("run", "scan"):
        try:
            if args.command == "run":
                spec = vqe.ScanSpec.from_dict({
                    "molecule": args.fixture, "geometries": [args.geometry],
                    "shots": None if args.shots == 0 else args.shots,
                    "noise": None if args.noise == "none" else args.noise,
                    "seed": args.seed, "optimizer": {"maxfev": args.max_evals},
                    "bootstrap_resamples": args.bootstrap})
            else:
                spec = vqe.ScanSpec.from_json(args.spec)
        except hamio.ValidationError as exc:
            sub.choices[args.command].error(str(exc))
        records = vqe.run_scan(spec, out_dir=args.out)
        _summarize(records)
        return 1 if any(rec.error is not None for rec in records) else 0
    if args.command == "report":
        try:
            records = vqe.read_archive(Path(args.indir) / "records.json")
        except hamio.ValidationError as exc:
            p_rep.error(str(exc))
        out = vqe.write_csv(records, args.out or args.indir)
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
