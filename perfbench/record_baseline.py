"""Record the untraced and traced numbers of every workload in
perfbench/baseline.json.

    python3 perfbench/record_baseline.py

Each workload is measured as run.py measures it, at seed 0 and for the
run_seconds of BENCHMARK.json; the file keeps the
environment, every metric with its unit, the op counts, and the failed and
known-defect ops by name.
"""

from __future__ import annotations

import json
import os

import run


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"env": run.environment(), "seed": 0, "seconds": seconds,
           "workloads": {}}
    for name in run.WORKLOADS:
        entry = {}
        for mode, trace in (("untraced", False), ("traced", True)):
            res = run.measure(name, 0, seconds, trace, "full")
            metrics = res["layer"] if trace else res["end_to_end"]
            entry[mode] = {
                "passes": res["passes"], "traced_passes": res["traced_passes"],
                "attempted": res["attempted"], "failed": res["failed"],
                "failed_frac": res["failed_frac"],
                "failed_ops": res["failed_ops"],
                "known_defects": res["known_defects"],
                "ops_not_ok": res["ops"],
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()},
                "op_latency": {k: {"value": v, "unit": u}
                               for k, (v, u) in res["op_latency"].items()},
            }
        entry["sizes"] = res["sizes"]
        out["workloads"][name] = entry
        print(f"{name}: done", flush=True)
    path = os.path.join(run.HERE, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
