"""latforms benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is apery-zeta3, matrix-condition, lattice-scan, corpus-io, or all.
Run it from the root of a checkout; latforms is imported from ``src/``.

Closed loop: one caller, one op after the other, no threads.  Each pass
over a workload's ops runs in a fresh interpreter (worker.py), because
latforms keeps memos (``_LN2_CACHE``, ``RealConstant`` bests) that every
CLI call starts without.  Passes repeat while the next one should end
within S seconds (there is always at least one); the run reports medians
over its passes.

Untraced (``--trace 0``) the run reports the end-to-end metrics:

* ``wall_s``      median over passes of the time of one pass over the ops,
  calibrated (below)
* ``setup_s``     ``import latforms`` plus building the inputs, up to the
  first op, calibrated; median of all set-ups of the run (extra
  set-up-only workers make at least SETUP_SAMPLES of them)
* ``peak_rss_mb`` median over passes of the pass process's ``ru_maxrss``

Calibration.  A shared host slows a pass by up to 2x, in spells of seconds
to minutes, and a median over passes does not remove that.  So each pass
process also runs two small stdlib-only kernels (worker.KERNELS) every
0.1 s, from a timer signal, and leaves their time out of the op times.  A
pass's time is divided by how much slower than on a quiet machine the
kernel whose work resembles the workload's (CALIBRATION) ran in the same
process over the same stretch of time (``slowdown``).  The result is in
seconds of a quiet 2 vCPU Xeon.  The raw median pass time and both
kernels' slowdowns are printed on the ``timing`` line.  A set-up lasts
about 0.1 s, too short to sample the kernels in; the median set-up time is
divided by the run's median slowdown of the ``py`` kernel.

A workload with at least PERCENTILE_MIN_OPS ops per pass (matrix-condition
and lattice-scan) also gets ``op_p50_ms`` and ``op_p90_ms``: percentiles
over the ops of each op's median raw latency across passes, an op that fails
counting as +inf.  They are printed with their sample count but are not in
the result line, whose metrics are the same on every workload.

Traced (``--trace 1``) it alternates untraced and traced passes and
reports the per-layer metrics of tracer.METRICS, the medians over traced
passes; ``trace.overhead_s`` is the traced minus the untraced median raw
pass time (traced passes are not calibrated: the kernels' time would fall
into the spans).

Every op's output is checked against reference.json.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts ops that raised or differ from their
reference; an op that fails exactly as a recorded known defect
(workloads.KNOWN_DEFECTS) is named and counted in ``failed_frac`` but does
not make the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apery-zeta3", "matrix-condition", "lattice-scan", "corpus-io")
SETUP_SAMPLES = 9
PERCENTILE_MIN_OPS = 100   # p90 then has at least 10 ops beyond it
WORKER_TIMEOUT_S = 150
# The calibration kernel (worker.KERNELS) that scales each workload's pass
# times: the one whose speed followed the workload's own most closely
# through the host's slow spells, measured by running both kernels next to
# every workload for minutes at a time.
CALIBRATION = {"apery-zeta3": "int", "matrix-condition": "py",
               "lattice-scan": "py", "corpus-io": "py"}
SETUP_KERNEL = "py"   # imports and input building are interpreter-bound
# Each kernel's median time on a quiet 2 vCPU Xeon with Python 3.11.7:
# calibrated times are in seconds of that machine.
KERNEL_REF_S = {"int": 0.00088, "py": 0.0019}

sys.path.insert(0, HERE)
from tracer import COUNT_METRICS, METRICS as LAYER_METRICS  # noqa: E402
from worker import KERNELS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, size: str, trace: bool = False,
           setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{workload}: worker exited {proc.returncode}\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks; +inf propagates."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]):
        return math.inf if pos > lo or math.isinf(xs[lo]) else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform()}


def git_sha() -> str:
    # the ceiling keeps git from taking the sha of a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def slowdown(samples: list, kernel: str) -> float:
    """How much slower than its reference time ``kernel`` ran over
    ``samples``.  A mean and not a median, because the host flips between
    speeds within a pass, and the pass's time is a sum over them."""
    k = list(KERNELS).index(kernel)
    return statistics.mean(c[k] for c in samples) / KERNEL_REF_S[kernel]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    """All passes of one run of one workload, and their aggregate."""
    worker(workload, seed, size, setup_only=True)   # compile, warm caches
    untraced, traced = [], []
    start = time.perf_counter()
    last = {False: 0.0, True: 0.0}
    # a pass starts only if it should end within the run's seconds (judged
    # by the last pass of its kind), so a run never overshoots by a pass
    while True:
        kind = trace and len(traced) < len(untraced)
        if untraced and (traced or not trace) and \
                time.perf_counter() - start + last[kind] > seconds:
            break
        t = time.perf_counter()
        (traced if kind else untraced).append(
            worker(workload, seed, size, trace=kind))
        last[kind] = time.perf_counter() - t
    setups = [p["setup_s"] for p in untraced]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker(workload, seed, size,
                                 setup_only=True)["setup_s"])

    passes = untraced + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failed_ops = sorted({op["name"] for p in passes for op in p["ops"]
                         if op["status"] == "failed"})
    known = sorted({op["name"] for p in passes for op in p["ops"]
                    if op["status"] == "known_defect"})
    failed = sum(op["status"] == "failed" for p in passes for op in p["ops"])
    known_n = sum(op["status"] == "known_defect"
                  for p in passes for op in p["ops"])
    # the same op must give the same output in every pass, traced or not
    outcomes: dict = {}
    for p in passes:
        for op in p["ops"]:
            outcomes.setdefault(op["name"], set()).add(
                (op["status"], op.get("digest")))
    unstable = sorted(name for name, seen in outcomes.items()
                      if len(seen) > 1)
    # per-op latency: each op's median over the passes, so the percentile
    # falls on the same op whatever the number of passes
    lat = [math.inf if any(p["ops"][k]["status"] == "failed"
                           for p in untraced)
           else statistics.median(p["op_s"][k] for p in untraced) * 1e3
           for k in range(len(untraced[0]["ops"]))]
    raw = statistics.median(p["wall_s"] for p in untraced)
    # set-ups are too short to sample the kernels; they take the run's
    # median slowdown of the interpreter-bound kernel
    setup_slowdown = statistics.median(slowdown(p["calib_s"], SETUP_KERNEL)
                                       for p in untraced)
    e2e = {
        "wall_s": (statistics.median(
            p["wall_s"] / slowdown(p["calib_s"], CALIBRATION[workload])
            for p in untraced), "s"),
        "setup_s": (statistics.median(setups) / setup_slowdown, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                          for p in untraced), "MB"),
    }
    op_latency = {} if len(lat) < PERCENTILE_MIN_OPS else {
        "op_p50_ms": (percentile(lat, 0.50), "ms"),
        "op_p90_ms": (percentile(lat, 0.90), "ms"),
    }
    layer = {}
    if trace:
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall_s"] for p in traced)
                         - raw)
            elif name in COUNT_METRICS:
                # counts must repeat exactly; a pass that disagrees fails
                value = traced[0]["layer"][name]
                if any(p["layer"][name] != value for p in traced):
                    unstable.append(name)
            else:
                value = statistics.median(p["layer"][name] for p in traced)
            layer[name] = (value, unit)
    return {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "passes": len(untraced), "traced_passes": len(traced),
        "setup_samples": len(setups), "op_samples": len(lat),
        "timing": {"median_pass_s": raw, "slowdown": {
            k: statistics.median(slowdown(p["calib_s"], k)
                                 for p in untraced) for k in KERNELS}},
        "sizes": untraced[0]["sizes"], "attempted": attempted,
        "failed": failed + len(unstable), "failed_ops": failed_ops,
        "unstable": unstable, "known_defects": known,
        "failed_frac": (failed + known_n) / attempted,
        "end_to_end": e2e, "op_latency": op_latency, "layer": layer,
        "ops": [{k: v for k, v in op.items() if k != "digest"}
                for op in untraced[0]["ops"] if op["status"] != "ok"],
        # traced outputs when traced, so they can be compared with untraced
        "digests": {op["name"]: op.get("digest")
                    for op in (traced or untraced)[0]["ops"]},
    }


def report(res: dict) -> dict:
    """Print one workload's result for people; return its metrics."""
    print(f"== {res['workload']}  seed={res['seed']} size={res['size']} "
          f"trace={int(res['trace'])} passes={res['passes']} "
          f"traced_passes={res['traced_passes']}")
    print("sizes " + json.dumps(res["sizes"], sort_keys=True))
    print("timing " + json.dumps(res["timing"], sort_keys=True))
    print(f"ops attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={res['failed_frac']:.6f} "
          f"failed_ops={res['failed_ops']} unstable={res['unstable']} "
          f"known_defects={res['known_defects']}")
    for op in res["ops"]:
        print(f"op {op['status']}: {op['name']}: {op.get('why', '')}")
    metrics = res["layer"] if res["trace"] else res["end_to_end"]
    shown = dict(metrics)
    if not res["trace"]:
        shown.update(res["op_latency"])
    for name, (value, unit) in shown.items():
        extra = ""
        if name.startswith("op_p"):
            extra = (f"  (over {res['op_samples']} ops, each the median of "
                     f"{res['passes']} passes)")
        elif name == "setup_s":
            extra = f"  (samples={res['setup_samples']})"
        text = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {text} {unit}{extra}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a small version of each workload "
                         "(for the benchmark's own tests)")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment(), sort_keys=True))
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), args.size))
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        m = report(res)
        print("digests " + json.dumps(res["digests"], sort_keys=True))
        if len(results) == 1:
            metrics = m
        else:
            metrics.update({f"{res['workload']}.{k}": v for k, v in m.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
