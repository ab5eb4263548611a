"""flowbench benchmark: one workload, measured end to end from outside.

    python3 bench/run.py --workload sweep-deep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; flowbench is imported from its ``src/``.
The inputs come from ``flowbench.synth`` and the run's seed, and are
cached under ``.bench_cache/`` by (spec, seed, generator source), so
generating them never lands in a timed region. Each repetition runs in
a fresh process (worker.py) with ``jobs=1`` and one BLAS thread: on a
host shared with other work, a second BLAS thread that spins or waits
for a core measured the scheduler rather than flowbench.
Repetitions continue while the next one is expected to end within
``--seconds`` of the start (at least one runs, or one traced and one
untraced with ``--trace 1``), so a run takes about ``--seconds``
whatever the speed of the host. Reported times are medians.

Host speed: on a host shared with other work, the same call runs up to
a third slower for tens of seconds at a time, in CPU time as much as in
wall time, so no number of repetitions averages it out. Before the
first worker and after each one, the parent times a fixed calibration
loop shaped like flowbench's work (see ``calibrate``); each worker's
times are scaled by ``REF_CALIB_S`` over the mean of the two loop times
around it. So ``wall_s``, ``cpu_s``, ``rows_per_s`` and ``setup_s`` are
the times on a host where the loop takes ``REF_CALIB_S``; a change to
flowbench moves them exactly as it moves the raw times. The raw medians
are printed and kept in the full record (``raw_*``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions, and reports the
per-layer metrics of the traced ones (see spans.py and kernels.py), plus
the tracing overhead: traced minus untraced median wall time.

Every repetition's outputs are checked (workloads.py); a sweep's
results.csv must also be byte-identical across the repetitions of one
run, and its sha256 is reported so that runs of different code can be
compared explicitly. A failed check counts as a failure. The last line
of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, the inputs and every repetition, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>-<size>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"

# Before numpy is imported here or in any worker; the workers inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

REF_CALIB_S = 0.45      # fixes the unit only: the loop's typical time on a 2-core x86-64 host
CALIB_ROUNDS = 6000
SETUP_PROBES = 2        # set-up-only processes per run, besides each repetition's own set-up
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the harness smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowbench" / "__init__.py").is_file():
        print(f"no flowbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    inputs = prepare_inputs(workload, args.seed, args.size)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = OUT / "work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {
        "root": str(ROOT), "workload": workload.name, "size": args.size, "seed": args.seed,
        "csv": inputs["csv"], "synth_json": inputs["synth_json"], "mode": "measure",
        "trace": False, "kernel_reps": 5 if args.size == "full" else 1,
        "spans": str(OUT / f"spans-{run_id}.npz"),
    }
    began = time.monotonic()
    calib = [calibrate()]
    try:
        probes = [spawn(dict(job, mode="setup"), work, f"probe{i}", calib)
                  for i in range(SETUP_PROBES)]
        reps = measure(job, work, began + args.seconds, args.trace, calib)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = [(r["setup_s"], r["host_scale"]) for r in probes + reps]

    record = summarise(workload, args, inputs, reps, setups)
    record["calibration_s"] = calib
    record["environment"] = environment()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record, args.trace)
    return 0


def prepare_inputs(workload, seed: int, size: str) -> dict:
    """Generate (or reuse) the workload's CSV and the generator's bookkeeping.

    Generation runs in its own process, so its memory is returned before
    any measurement starts.
    """
    spec = workload.synth_spec(size)
    generator = (ROOT / "src" / "flowbench" / "synth.py").read_bytes()
    key = hashlib.sha256(json.dumps([spec, seed], sort_keys=True).encode() + generator)
    key = key.hexdigest()[:16]
    entry = CACHE / "inputs" / f"{workload.name}-seed{seed}-{key}"
    csv_path, synth_json = entry / "flows.csv", entry / "synth.json"
    cached = synth_json.is_file()
    if not cached:
        tmp = entry.with_name(entry.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        job = {"mode": "generate", "root": str(ROOT), "workload": workload.name,
               "size": size, "seed": seed, "dir": str(tmp)}
        subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                       cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
        shutil.rmtree(entry, ignore_errors=True)
        tmp.rename(entry)
    with open(synth_json, encoding="utf-8") as fh:
        synth = json.load(fh)
    with open(csv_path, encoding="utf-8") as fh:
        columns = len(fh.readline().split(","))
    return {
        "csv": str(csv_path), "synth_json": str(synth_json), "spec": spec, "seed": seed,
        "rows": synth["rows_written"], "columns": columns,
        "bytes": csv_path.stat().st_size, "cached": cached,
    }


def calibrate() -> float:
    """Seconds taken by a fixed loop shaped like flowbench's own work.

    Three parts, one per kind of work the workloads spend their time on:
    small matrix products and element-wise ops (network training),
    per-cell string cleaning and float parsing into an array (ingest),
    and stable argsort, cumsum and Gini arithmetic on one column (the
    tree's split search). A host that runs them slowly runs flowbench
    slowly too; nothing in the loop depends on flowbench.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((128, 16)), rng.random((16, 64))
    cells = [f" {i * 0.37:.3f}" if i % 7 else "nan" for i in range(400)]
    col, is1 = np.round(rng.random(1500), 2), rng.random(1500) < 0.2
    out = np.empty(len(cells))
    t0 = time.perf_counter()
    for i in range(CALIB_ROUNDS):
        y = np.maximum(a @ b, 0.0) * 0.5 + 1.0
        out[i % 400] = y[i % 128, i % 64] + sum({j: j * j for j in range(20)}.values())
    for _ in range(CALIB_ROUNDS // 6):
        for j, cell in enumerate(cells):
            cell = cell.strip()
            out[j] = 0.0 if cell.lower() in ("nan", "-", "inf") else float(cell)
    for i in range(CALIB_ROUNDS // 6):
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cut = np.flatnonzero(xs[:-1] != xs[1:])
        p1 = np.cumsum(is1[order])[cut] / (cut + 1.0)
        out[i % 400] = np.argmin(1.0 - p1 ** 2 - (1.0 - p1) ** 2)
    return time.perf_counter() - t0


def spawn(job: dict, work: Path, tag: str, calib: list[float]) -> dict:
    """Run one worker process to completion; returns its result plus set-up time.

    ``calib`` ends with the loop time taken just before; the one after is
    appended, and the result's ``host_scale`` is ``REF_CALIB_S`` over
    their mean.
    """
    job = dict(job, run_id=f"{job['workload']}-{tag}", out_dir=str(work / tag),
               result=str(work / f"{tag}.json"))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(job["out_dir"], ignore_errors=True)
    result["setup_s"] = result.pop("ready") - started
    calib.append(calibrate())
    result["host_scale"] = REF_CALIB_S / ((calib[-2] + calib[-1]) / 2)
    return result


def measure(job: dict, work: Path, deadline: float, trace: int, calib: list[float]) -> list[dict]:
    """Repetitions while the next one is expected to end by ``deadline`` (monotonic clock).

    With tracing, repetitions alternate untraced and traced, starting
    untraced, and at least one of each runs; otherwise at least one runs.
    """
    reps = []
    began = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        rep = spawn(dict(job, trace=traced), work, f"rep{len(reps)}", calib)
        rep["traced"] = traced
        reps.append(rep)
        now = time.monotonic()
        if len(reps) >= 1 + trace and now + (now - began) / len(reps) > deadline:
            return reps


def summarise(workload, args, inputs, reps, setups) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wall = statistics.median(r["wall_s"] * r["host_scale"] for r in plain)
    raw_wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] * r["host_scale"] for r in plain),
        "rows_per_s": inputs["rows"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(t * scale for t, scale in setups),
    }
    extra = {
        "raw_wall_s": raw_wall,
        "raw_cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "host_scale": statistics.median(r["host_scale"] for r in plain),
        "fail_share": failed / attempted,
    }
    if workload.sweep is not None:
        digest = reps[0].get("digest")
        if any(r.get("digest") != digest for r in reps):
            problems.append("results.csv differs between repetitions")
            failed = attempted
        extra["fail_share"] = failed / attempted
        extra["fits_per_s"] = statistics.median(r.get("fits", 0) for r in plain) / wall
        extra["auc_mean"] = reps[0].get("auc_mean")
        extra["results_sha256"] = digest
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "inputs": {k: inputs[k] for k in ("spec", "seed", "rows", "columns", "bytes", "cached")},
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": metrics, "report": extra,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "setup_samples": setups,
    }
    if traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.untraced_wall_s"] = raw_wall
        layers["trace.overhead_s"] = layers["trace.wall_s"] - raw_wall
        record["per_layer"] = layers
    return record


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def report(record: dict, trace: int) -> None:
    """Human-readable lines, then the one-line JSON result."""
    env = record["environment"]
    inp = record["inputs"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({inp['rows']} rows x {inp['columns']} columns, {inp['bytes']} bytes)")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} with {env['blas_threads']} thread(s)")
    print(f"end to end, times scaled to the reference host (host_scale {record['report']['host_scale']:.4g}):")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in record["report"].items():
        print(f"  {name:<12} {value if not isinstance(value, float) else format(value, '.6g')}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("useful_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
