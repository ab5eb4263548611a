"""One job of run.py in a fresh process: generate inputs, or set up and measure.

Usage (started by run.py, never by hand): ``python3 bench/worker.py JOB_JSON``.

The process imports flowbench from the checkout's ``src/``. A ``generate``
job writes the workload's synthetic CSV and the generator's bookkeeping.
Otherwise it builds the config and notes the monotonic clock (the parent
took it just before starting the process, so the difference is the
set-up time). A ``measure`` job then runs the timed call once --
``runner.run`` for a sweep, ``load_feature_matrix`` for an ingest -- with
``jobs=1``, checks the outputs and writes one JSON result file; a
``setup`` job stops before the call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import flowbench
    from flowbench import ingest, runner, synth
    from workloads import WORKLOADS, check_ingest, check_sweep

    if Path(flowbench.__file__).resolve().parent != (src / "flowbench").resolve():
        print(f"flowbench imported from {flowbench.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[job["workload"]]
    spec = synth.SynthSpec(**workload.synth_spec(job["size"]))
    if job["mode"] == "generate":
        entry = Path(job["dir"])
        synth.synth_generate(spec, job["seed"], entry / "flows.csv").to_json(entry / "synth.json")
        return 0
    out_dir = Path(job["out_dir"])
    if workload.sweep is not None:
        config = runner.ExperimentConfig(
            dataset_path=job["csv"], seed=job["seed"], output_dir=str(out_dir),
            **workload.sweep_config(job["size"]),
        )
    else:
        schema = synth.schema_for(spec)
    result = {"ready": time.monotonic()}
    if job["mode"] == "setup":
        return _write(job, result)

    tracer = restore = None
    if job["trace"]:
        from spans import Tracer, install
        tracer = Tracer(job["run_id"])
        restore = install(tracer)
    fm = None
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if workload.sweep is not None:
            runner.run(config, jobs=1)
        else:
            fm, _ = ingest.load_feature_matrix(job["csv"], schema)
    except Exception as exc:  # reported as a failed repetition
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if restore is not None:
        restore()

    if error is not None:
        attempted = workload.n_cells() if workload.sweep is not None else 1
        result.update(attempted=attempted, failed=attempted, problems=[error])
    elif workload.sweep is not None:
        result.update(check_sweep(workload, (out_dir / "results.csv").read_bytes()))
    else:
        with open(job["synth_json"], encoding="utf-8") as fh:
            result.update(check_ingest(fm, json.load(fh)))

    if tracer is not None:
        from kernels import KERNEL_METRICS, kernel_table
        layers = tracer.layer_metrics(workload.sweep["folds"] if workload.sweep else 0)
        layers["runner.output_bytes"] = sum(
            p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
        )
        tracer.save(job["spans"])
        if workload.name == "sweep-deep":
            layers.update(kernel_table(reps=job["kernel_reps"]))
        else:
            layers.update(dict.fromkeys(KERNEL_METRICS, 0.0))
        result["layers"] = layers
    return _write(job, result)


def _write(job, result) -> int:
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
