"""Command-line entry points: run a sweep, synthesize data, render reports."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import FlowbenchError
from .ingest import write_csv
from .runner import ExperimentConfig, best_per_model, mean_records, read_manifest, run, write_outputs
from .schema import schema_to_file
from .synth import SynthSpec, schema_for, synth_generate


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(
        args.config, seed=args.seed, subsample=args.subsample, output_dir=args.out
    )
    records = run(config, jobs=args.jobs)
    ok = len(mean_records(records))
    failed = sum(1 for r in records if r["status"] != "ok")
    print(f"run complete: {ok} cell(s) ok, {failed} failed -> {config.output_dir}")
    return 0 if failed == 0 else 1


def _cmd_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec) if args.spec else SynthSpec()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = synth_generate(spec, seed=args.seed, path=args.out)
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
        all_records.extend(write_outputs(run_dir, *read_manifest(run_dir)))
        print(f"wrote results.csv, sweeps/, best_per_model.csv and summary.txt -> {run_dir}")
    if len(args.run_dirs) > 1:
        # grouped cross-dataset comparison at each model's best (fe, dims) per dataset
        out = Path(args.run_dirs[0]) / "cross_dataset.csv"
        columns = ("model", "fe", "dataset", "dims", "auc")
        write_csv(out, columns, ([r[c] for c in columns] for r in best_per_model(all_records)))
        print(f"wrote {out}")
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)  # argparse names the flag when this raises
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p_run.add_argument("--jobs", type=_at_least_one, default=1,
                       help="parallel (fe, dims) groups")
    p_run.add_argument("--out", default=None, help="override config output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic flow CSV")
    p_synth.add_argument("--spec", default=None, help="SynthSpec JSON (defaults used if omitted)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=_cmd_synth)

    p_report = sub.add_parser("report", help="re-render run tables from their manifests")
    p_report.add_argument("--in", dest="run_dirs", nargs="+", required=True,
                          help="one or more run output directories")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command; a bad or missing input exits with status 2 and one line on stderr.

    The line holds the ``FlowbenchError`` or ``OSError`` message, as
    argparse prints a bad flag's. Other exceptions keep their traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (FlowbenchError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
