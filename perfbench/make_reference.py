"""Regenerate perfbench/reference.json from the code in src/.

    python3 perfbench/make_reference.py

Runs every fixed op of every workload at both sizes, and every
lattice-scan grid instance, and stores the summary of each output.  Before
writing, it checks the outputs against facts that do not come from the
code under test: the acceptance test's frozen Apery values and recurrence
closed form, the golden-ratio points being Fibonacci pairs, and exact
re-checks of every constructed point.  A reference is only as good as the
code that produced it, so regenerate only when an output is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import math
import os
import sys

from worker import HERE, OUT_DIR, _import_latforms

_import_latforms()

import workloads as W  # noqa: E402
from latforms.model import DiagonalLattice, lattice_membership  # noqa: E402
from latforms.numerics import cmp_abs_vs_power  # noqa: E402

F = W.F


def _lcm_to(n: int) -> int:
    d = 1
    for k in range(2, n + 1):
        d = math.lcm(d, k)
    return d


def _apery_closed_form(n: int) -> list:
    dn, dn1, dn2 = _lcm_to(n), _lcm_to(n + 1), _lcm_to(n + 2)
    poly = 34 * (n + 1) ** 3 + 51 * (n + 1) ** 2 + 27 * (n + 1) + 5
    a0 = -F(dn2, dn) ** 3 * F((n + 1) ** 3, (n + 2) ** 3)
    a1 = F(dn2, dn1) ** 3 * F(poly, (n + 2) ** 3)
    return [str(a0), str(a1)]


def _run(wl) -> dict:
    out = {}
    for op in wl.ops:
        out[op.name] = (op, op.fn())
    return out


def _stored(kind: str, summary):
    """Summary as stored: intervals widened into reference windows."""
    if isinstance(summary, dict) and set(summary) == {"lo", "hi"}:
        return W.widen(summary)
    if isinstance(summary, dict):
        return {k: _stored(kind, v) for k, v in summary.items()}
    return summary


def apery(size: str) -> dict:
    wl = W.build("apery-zeta3", size, 0, "")
    res = _run(wl)
    s = {name: W.summarize(op.kind, out) for name, (op, out) in res.items()}
    rep = s["check_siegel"]["report"]
    assert rep["alpha0_ok"] and rep["bad_ns"] == [] and rep["det_nonzero"]
    assert rep["det_n2"] == "-5184000000" and rep["rank_propagates"]
    assert rep["det_consistent"] == "TRUE"
    for n in W.SIZES[size]["apery-zeta3"]["fit_n"]:
        fit = s[f"fit_recurrence n={n}"]
        assert fit == {"alpha": _apery_closed_form(n), "residual": True,
                       "alpha0_zero": False}, n
    if size == "full":
        tau = res["estimate_tau"][1]
        assert F(6, 100) <= tau.final.mid <= F(10, 100)
        assert tau.precision_used == 4000
        assert s["estimate_tau"]["consistent"] == "TRUE"
        bound = res["irrationality_bound"][1].value.mid
        assert F(13) <= bound <= F(139, 10)
    return {name: _stored(res[name][0].kind, v) for name, v in s.items()}


def _check_primal(basis, taus, delta, Q, point) -> None:
    assert any(point)
    assert lattice_membership(point, DiagonalLattice(tuple(delta)))
    lp = point[-1]
    assert cmp_abs_vs_power(F(lp), Q, 1 + W.SLACK) <= 0
    xs = basis.exact_xi
    if xs is not None:
        for j, x in enumerate(xs):
            err = lp * x - point[j]
            assert cmp_abs_vs_power(err, Q, -taus[j] + W.SLACK) <= 0


def lattice(size: str) -> dict:
    out = {}
    for op in W.fixed_lattice_ops(W.SIZES[size]["lattice-scan"]):
        result = op.fn()
        summary = W.summarize(op.kind, result)
        if op.kind == "verdict":
            assert summary["status"] == "holds", op.name
        else:
            # golden-ratio points are consecutive Fibonacci numbers
            a, b = (abs(F(x)) for x in (summary.get("point")
                                        or summary.get("a")))
            assert b in (W.fibonacci(k) for k in range(60)), op.name
            assert a in (W.fibonacci(k) for k in range(60)), op.name
        out[op.name] = summary
    return out


def pools() -> dict:
    """References of the grid instances the full size uses (the tiny size
    uses a subset)."""
    counts = W.SIZES["full"]["lattice-scan"]["grid"]
    primal = W.primal_pool()
    flat = sum(primal, [])
    p_ref = {}
    for op in W.primal_grid_ops(W.grid_choice(0, primal, counts)):
        idx = int(op.ref_key[-1])
        result = op.fn()
        xs, taus, delta = flat[idx]
        assert result.certificate["margin"].name == "TRUE"
        _check_primal(W._basis(xs), taus, delta, W.Q4, result.point)
        p_ref[str(idx)] = W.summarize(op.kind, result)
    dual = W.dual_pool()
    flat = sum(dual, [])
    d_ref = {}
    for op in W.dual_grid_ops(W.grid_choice(0, dual, counts)):
        idx = int(op.ref_key[-1])
        witness, verdict = op.fn()
        xs, taus, gamma, delta, eps = flat[idx]
        a = witness.point.a
        assert any(a)
        val = sum(ai * F(x) for ai, x in zip(a, list(xs) + ["1"]))
        assert cmp_abs_vs_power(val, W.Q4, -(1 + eps)) <= 0
        assert verdict.status == "violated"
        d_ref[str(idx)] = W.summarize(op.kind, (witness, verdict))
    return {"primal": p_ref, "dual": d_ref}


def corpus(size: str) -> dict:
    workdir = os.path.join(OUT_DIR, "reference-work")
    wl = W.build("corpus-io", size, 0, workdir)
    out = {}
    try:
        for op in wl.ops:
            result = op.fn()
            if op.name in W.KNOWN_DEFECTS:
                assert W.known_defect(op, result), result["stderr"]
                out[op.name] = {"exit": 0, "lossless": True}
                continue
            summary = W.summarize(op.kind, result)
            assert summary["exit"] == 0, (op.name, result["stderr"])
            if op.name.startswith(("roundtrip", "check-siegel")):
                assert summary["status"] in ("success", "holds"), op.name
            if op.name.startswith("roundtrip"):
                assert json.loads(result["stdout"])["result"]["lossless"]
            out[op.name] = summary
    finally:
        wl.close()
    return out


def main() -> None:
    ref = {"matrix-condition": "TRUE", "pool": pools()}
    for size in ("full", "tiny"):
        ref[size] = {"apery-zeta3": apery(size),
                     "lattice-scan": lattice(size),
                     "corpus-io": corpus(size)}
        print(f"{size}: done", file=sys.stderr)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
