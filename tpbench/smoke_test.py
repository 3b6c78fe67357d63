#!/usr/bin/env python3
"""bench_e2e_smoke: every workload for about a second, untraced and traced.

    smoke_test.py <tp_bench> <BENCHMARK.json> <work-dir>

Asserts exit status 0, no failed request, a correct run, and that the
printed metric names and units equal BENCHMARK.json's end_to_end (untraced)
and per_layer (traced) lists, so the file and tp_bench cannot drift
apart.  Asserts nothing about timings.
"""

import json
import subprocess
import sys


def main():
    tp_bench, spec_path, work = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = [tp_bench, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", trace, "--smoke",
                   "--work-dir", work]
            run = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=170)
            label = "%s --trace %s" % (workload, trace)
            before = len(problems)
            if run.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, run.returncode,
                                                     run.stderr[-2000:]))
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" %
                                (label, result["correct"], result["failed"]))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "printed %s, expected %s" %
                                (label, sorted(printed.items()),
                                 sorted(expected[trace].items())))
            print("ok  " if len(problems) == before else "FAIL", label,
                  flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
