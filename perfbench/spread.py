"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json's bounds
are judged: ten runs per workload, each with another seed, and for each
metric the distance between the first and third quartile of the ten values
as a share of their median.

    python3 perfbench/spread.py [WORKLOAD ...]

Writes every run's metrics, its raw median pass time and the kernels'
slowdowns, and the spreads, into perfbench/spread.json, replacing the
entries of the workloads it ran.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run

RUNS = 10


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    names = sys.argv[1:] or list(run.WORKLOADS)
    path = os.path.join(run.HERE, "spread.json")
    out = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
    out.update(env=run.environment(), seconds=spec["run_seconds"])
    for name in names:
        runs = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            timing = next(json.loads(line[len("timing "):]) for line in lines
                          if line.startswith("timing "))
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "timing": timing})
            print(name, runs[-1], flush=True)
        spread = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread[metric["name"]] = {"median": median,
                                      "iqr_over_median": (q3 - q1) / median,
                                      "bound": metric["bound"]}
        raw = [r["timing"]["median_pass_s"] for r in runs]
        q1, _, q3 = statistics.quantiles(raw, n=4)
        spread["raw_median_pass_s"] = {
            "median": statistics.median(raw),
            "iqr_over_median": (q3 - q1) / statistics.median(raw)}
        out["workloads"][name] = {"runs": runs, "spread": spread}
        print(name, json.dumps(spread), flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
