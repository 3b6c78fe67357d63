#!/usr/bin/env python3
"""Records the seed baseline: runs every workload `--runs` times with one
seed, untraced and traced, and writes the median and quartiles of every
metric together with the machine's CPU count and model.

    python3 tpbench/baseline.py [--seed 1] [--runs 5] [--out tpbench/baseline.json]

Run from the repository root; takes about runs x workloads x 2 modes x
(run_seconds + ~4 s).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "runs": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    workloads = {}
    for w in [w["name"] for w in spec["workloads"]]:
        metrics = {}
        for trace in ("0", "1"):
            for _ in range(args.runs):
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(args.seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", trace]
                run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                     text=True, check=True)
                result = json.loads(run.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    sys.exit("%s --trace %s: failed run" % (w, trace))
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, {"unit": m["unit"], "values": []})
                    metrics[name]["values"].append(m["value"])
                print(w, "trace", trace, "ok", flush=True)
        workloads[w] = {name: dict(unit=m["unit"], **summary(m["values"]))
                        for name, m in metrics.items()}

    out = {
        "seed": args.seed,
        "runs": args.runs,
        "run_seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
