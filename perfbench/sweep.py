#!/usr/bin/env python3
"""Runs perfbench over several seeds and summarises each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads g500,serve_read]
        [--trace 0|1] [--out FILE]

For every workload (default: all in BENCHMARK.json) it runs run.py once
per seed for BENCHMARK.json's run_seconds, then prints per metric the
median, the quartiles and the spread (quartile distance over median) the
way statistics.quantiles(values, n=4) gives them, next to the metric's
bound. --out writes the summary, every run's result and the machine and
build stamp of the first run as JSON.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    summary = {"run_seconds": manifest["run_seconds"], "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(manifest["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            record = (ROOT / ".bench_build" / "records" /
                      f"record-{workload}-seed{seed}-trace{args.trace}.json")
            summary.setdefault("stamp", json.loads(record.read_text())["stamp"])
            runs.append({"seed": seed, "wall_s": round(wall, 1), **result})
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({wall:.0f} s): correct="
                  f"{result['correct']} failed={result['failed']} {values}",
                  flush=True)
        metrics = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) >= 2 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "unit":
                             runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            note = f" bound {bound}" if bound is not None else ""
            print(f"  {workload:12s} {name:28s} median {med:<12.5g} "
                  f"spread {spread:.3f}{note}", flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
