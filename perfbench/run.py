"""Repo benchmark: LeNet-5 serving with the decode off and on the request
path, plus the paper's compress → simulate sweep, split per layer.

Run from the checkout root::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
gives the per-layer metrics from a traced run (and the tracing overhead
against an untraced run of the same length).  ``--workload all`` runs
every workload in its own process.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# the bench_* modules import numpy: they are imported inside the
# functions below, after pin_to_one_cpu()
WORKLOADS = ("serve_hot", "serve_stream", "sweep")


def pin_to_one_cpu() -> None:
    """Run the workload on one CPU.

    The serve workloads' event-loop and executor threads never run
    Python at the same time (the GIL), so one CPU costs them nothing,
    while letting them hop between vCPUs makes every hand-off wait for
    a sleeping vCPU to wake: on a shared VM that swung ``serve_hot``
    between 370 and 1030 req/s from run to run.  Called before numpy
    is imported, so its BLAS threads inherit the mask too.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spec() -> dict:
    import bench_common

    with open(bench_common.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def log(text: str) -> None:
    print(text, flush=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import bench_common

    bench_common.import_program()
    workdir = bench_common.work_dir(workload, seed)
    try:
        if workload == "sweep":
            import bench_sweep

            result = bench_sweep.run(seed, seconds, trace, workdir, log)
        else:
            import bench_serve

            result = bench_serve.run(workload, seed, seconds, trace, workdir, log)
        result["e2e"]["peak_rss_mb"] = bench_common.peak_rss_mb()
        if "obs" in result:
            write_trace(workload, seed, *result.pop("obs"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def write_trace(workload: str, seed: int, o, spans) -> None:
    """Spans go out once, beside the program's own obs counters."""
    import bench_common
    import bench_trace
    from repro.obs import write_outputs

    o.trace.events.extend(bench_trace.chrome_events(spans, o.trace))
    out = write_outputs(o, bench_common.OUT / f"trace-{workload}-s{seed}")
    log(f"[{workload}: trace.json + metrics.json in {out}]")


def report(result: dict, trace: bool) -> dict:
    """The contract's last-line JSON for one workload."""
    s = spec()
    wanted = s["per_layer"] if trace else s["end_to_end"]
    values = result["e2e"]
    if trace:
        # a module the workload never calls spent no time and did no work
        values = {**{m["name"]: 0.0 for m in wanted}, **result["layers"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    width = max(len(m["name"]) for m in wanted)
    for m in wanted:
        log(f"  {m['name']:<{width}}  {metrics[m['name']]['value']:>14.6g} {m['unit']}")
    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    here = Path(__file__).resolve()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        log(f"== {workload}")
        proc = subprocess.run(
            [sys.executable, str(here), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            doc = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            doc = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= bool(doc["correct"]) and proc.returncode == 0
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for name, m in doc["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    doc = report(result, bool(args.trace))
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
