"""One pass over one workload, in a fresh interpreter.

Started by run.py, once per pass, so that every pass begins with cold
latforms memos (``_LN2_CACHE``, ``RealConstant`` bests), as each CLI call
does.  Prints one JSON line: set-up time, per-op times and outcomes, pass
wall time, peak RSS, the times of the calibration kernels (every 0.1 s
during an untraced pass) and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
        [--trace] [--setup-only]

Run from the root of the checkout: latforms is imported from ``src/``
there and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
CALIBRATE_EVERY_S = 0.1


def _int_kernel() -> None:
    """A 2000-bit series: products, shifts, divisions by small integers."""
    wp = 2000
    x = (1 << wp) // 7
    x2 = (x * x) >> wp
    term, total, j = x, 0, 0
    while term:
        total += term // (2 * j + 1)
        term = (term * x2) >> wp
        j += 1


def _py_kernel() -> None:
    """Small Fraction arithmetic, then dict, list and str work."""
    from fractions import Fraction   # here, so that set-up imports it
    acc = Fraction(0)
    for k in range(1, 240):
        acc += Fraction(k, k + 7) * Fraction(3 * k + 1, 2 * k + 5)
    table = {str(k): [k, 2 * k] for k in range(3000)}
    sum(len(v) for v in table.values())


KERNELS = {"int": _int_kernel, "py": _py_kernel}


def calibrate() -> list[float]:
    """Time of each calibration kernel, in KERNELS order.

    The kernels run no latforms code, so they measure how fast the host
    lets this process run, not how fast the program is.  The host's slow
    spells slow different work by different factors: big-integer series
    by up to 2x, interpreter-bound code by less, big modular products
    least.  Each workload is scaled by the kernel that its own hot loops
    resemble (run.CALIBRATION); its time over the kernel's mean time over
    the same stretch of time then stays within a few per cent through the
    spells.

    The cyclic collector is off meanwhile, so that the kernels' time does
    not depend on how many objects the workload holds."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for kernel in KERNELS.values():
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times


class Calibrator:
    """Runs calibrate() every CALIBRATE_EVERY_S of wall time, from a
    SIGALRM handler, so that samples fall inside long ops too.  ``spent``
    is the time taken by the handler, which the op times leave out."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _import_latforms():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import latforms
    except ImportError as e:
        sys.exit(f"perfbench: cannot import latforms from {src}: {e}")
    where = os.path.realpath(latforms.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: latforms imported from {where}, not from {src}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # one CPU for the whole pass, so that it does not migrate between CPUs
    # that the host may contend differently
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    _import_latforms()
    tracer = None
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads   # binds latforms names after tracing is installed

    workdir = os.path.join(OUT_DIR, f"{args.workload}-work")
    wl = workloads.build(args.workload, args.size, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    if tracer is not None:
        tracer.reset()
    outputs, op_s = [], []
    # traced passes are not calibrated: the handler's time would fall into
    # the spans
    calibrator = Calibrator()
    try:
        with nullcontext() if tracer else calibrator:
            for op in wl.ops:
                span = (tracer.span(f"op:{op.name}") if tracer
                        else nullcontext())
                start, spent = time.perf_counter(), calibrator.spent
                try:
                    with span:
                        out = op.fn()
                except Exception as e:   # an op that raises counts as failed
                    out = e
                op_s.append(time.perf_counter() - start
                            - (calibrator.spent - spent))
                outputs.append(out)
        calibrator.samples.append(calibrate())   # at least one sample
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops = _check(workloads, wl, outputs)
    finally:
        wl.close()

    result = {"setup_s": setup_s, "wall_s": sum(op_s), "op_s": op_s, "ops": ops,
              "peak_rss_mb": peak_rss_mb, "calib_s": calibrator.samples,
              "sizes": wl.sizes}
    if tracer is not None:
        tracer.counts["cli.report_bytes"] = sum(
            out.get("report_bytes", 0) for out in outputs
            if isinstance(out, dict))
        result["layer"] = tracer.layer_metrics()
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.size}.bin"))
    print(json.dumps(result))


def _check(workloads, wl, outputs) -> list:
    """Outcome of each op: ok, known defect, or failed with a reason."""
    ref = workloads.load_reference()
    ops = []
    for op, out in zip(wl.ops, outputs):
        entry = {"name": op.name, "status": "ok"}
        if isinstance(out, Exception):
            entry.update(status="failed", why=f"{type(out).__name__}: {out}")
        elif workloads.known_defect(op, out):
            entry.update(status="known_defect",
                         why=out["stderr"].strip().splitlines()[-1])
        else:
            try:
                summary = workloads.summarize(op.kind, out)
                expected = workloads.reference_for(ref, wl, op)
            except Exception as e:   # a malformed output is a failed op
                entry.update(status="failed",
                             why=f"summary: {type(e).__name__}: {e}")
            else:
                entry["digest"] = workloads.sha256_text(
                    workloads.canonical(summary))[:16]
                if not workloads.matches(expected, summary):
                    entry.update(status="failed",
                                 why=f"differs from reference: {summary}"[:300])
        ops.append(entry)
    return ops


if __name__ == "__main__":
    main()
