"""Command-line entry points: run a sweep, synthesize data, render reports."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .runner import ExperimentConfig, best_per_model, read_manifest, run, run_summary
from .schema import schema_to_file
from .synth import SynthSpec, schema_for, synth_generate


def _cmd_run(args) -> int:
    overrides = {
        "seed": args.seed,
        "subsample": args.subsample,
        "output_dir": args.out,
    }
    config = ExperimentConfig.from_file(args.config, **overrides)
    if args.fit_global:
        config.fit_global = True
    records = run(config, jobs=args.jobs)
    ok = sum(1 for r in records if r["fold"] == "mean" and r["status"] == "ok")
    failed = sum(1 for r in records if r["status"] != "ok")
    print(f"run complete: {ok} cell(s) ok, {failed} failed -> {config.output_dir}")
    return 0 if failed == 0 else 1


def _cmd_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec) if args.spec else SynthSpec()
    result = synth_generate(spec, seed=args.seed, path=args.out)
    out = Path(args.out)
    schema_to_file(schema_for(spec), out.with_suffix(".schema.json"))
    result.to_json(out.with_suffix(".bookkeeping.json"))
    print(
        f"wrote {result.rows_written} rows ({result.unique_rows} unique, "
        f"{result.duplicate_rows} duplicates, {result.dirty_cells} dirty cells) -> {out}"
    )
    return 0


def _cmd_report(args) -> int:
    all_records: list[dict] = []
    for run_dir in map(Path, args.run_dirs):
        if not (run_dir / "manifest.json").exists():
            raise SystemExit(f"{run_dir}: no manifest.json (is this a run directory?)")
        records, summary = run_summary(*read_manifest(run_dir))
        all_records.extend(records)
        summary_path = run_dir / "summary.txt"
        summary_path.write_text(summary, encoding="utf-8")
        print(f"wrote {summary_path}")
    if len(args.run_dirs) > 1:
        # grouped cross-dataset comparison at each model's best (fe, dims) per dataset
        out = Path(args.run_dirs[0]) / "cross_dataset.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "fe", "dataset", "dims", "auc"])
            for r in best_per_model(all_records):
                writer.writerow([r["model"], r["fe"], r["dataset"], r["dims"], repr(r["auc"])])
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbench",
        description="Benchmark feature extraction x ML classifiers on flow datasets",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep described by a config file")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--subsample", type=int, default=None, help="stratified row cap")
    p_run.add_argument("--fit-global", action="store_true",
                       help="fit scaler/extractor on the full data instead of per fold")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel (fe, dims) groups")
    p_run.add_argument("--out", default=None, help="override config output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic flow CSV")
    p_synth.add_argument("--spec", default=None, help="SynthSpec JSON (defaults used if omitted)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=_cmd_synth)

    p_report = sub.add_parser("report", help="re-render summaries from run manifests")
    p_report.add_argument("--in", dest="run_dirs", nargs="+", required=True,
                          help="one or more run output directories")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
