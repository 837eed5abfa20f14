"""Span recorder installed around latforms' public boundary functions.

Tracing is done from the outside: ``Tracer.install`` replaces each
boundary function listed in ``BOUNDARIES`` by a wrapper that records a
span (name, parent, start, end) and, for some functions, adds counts taken
from the return value.  Every module-level name under ``latforms`` that is
bound to the same function object is replaced too, so a name that another
module re-bound on import (``exponents.eval_at_basis``,
``cli.dumps_jsonl``, ``latforms.estimate_tau``) is traced as well.
Methods are replaced on their class; ``BallReal.__radd__`` and
``__rmul__`` are aliases of ``__add__`` and ``__mul__`` and are wrapped
separately.

Spans stay in memory in flat arrays and are written out once, at the end
of the traced pass.  ``layer_metrics`` then derives the per-layer numbers:

* a group's ``calls`` and ``s`` count the spans of that group whose parent
  is not in the same group, so a ring op that calls another ring op
  (``a - b`` calls ``__neg__`` and ``__add__``) is one call;
* a layer's self time is the time inside its spans minus the time inside
  their child spans, summed over the layer; a child of the same layer
  hands its own self time back, so the result is the layer's time minus
  the time spent in other layers below it.  Time in the standard library
  (``fractions``, ``math``, ``json``) is charged to the latforms layer that
  called it.

cProfile is not used: it adds cost to every Python call, including those
inside ``fractions``, and shifts the split between layers.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from functools import update_wrapper

LAYERS = ("numerics", "model", "exponents", "criteria", "minkowski",
          "corpus", "cli")

_RING = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "__abs__",
         "from_endpoints")

# (module under latforms, attribute path, group); the layer is the module.
BOUNDARIES = (
    [("numerics", f"BallReal.{a}", "numerics.ring") for a in _RING]
    + [("numerics", "BallReal.log", "numerics.log"),
       ("numerics", "RealConstant.at", "numerics.const")]
    + [("numerics", path, "numerics.other") for path in (
        "BallReal.exact", "BallReal.round_to", "BallReal.exp",
        "BallReal.sqrt", "BallReal.pow", "tri_compare", "cmp_abs_vs_power",
        "floor_scaled_power", "floor_root_rational", "nth_root_floor",
        "parse_real", "refine")]
    + [("model", "eval_at_basis", "model.eval")]
    + [("model", path, "model.other") for path in (
        "FormRecord.__post_init__", "FormSequence.__init__",
        "Basis.xi_balls", "ConvexBody.contains", "ConvexBody.volume",
        "ConvexBody.constraint_value", "lattice_membership",
        "dual_membership", "divisor_chain_check")]
    + [("exponents", "estimate_tau", "exponents.estimate_tau"),
       ("exponents", "fit_alpha_beta", "exponents.fit_alpha_beta")]
    + [("exponents", name, "exponents.other") for name in (
        "estimate_gamma_growth", "irrationality_bound", "dimension_bound",
        "profile")]
    + [("criteria", "matrix_condition_check", "criteria.matrix"),
       ("criteria", "verify_conclusion", "criteria.verify"),
       ("criteria", "check_siegel", "criteria.siegel")]
    + [("criteria", name, "criteria.other") for name in (
        "fit_recurrence", "check_nesterenko", "build_iterate_matrix",
        "phi_of_Q", "eps1_for", "reduce_scale")]
    + [("minkowski", "construct_primal_form", "minkowski.primal"),
       ("minkowski", "construct_dual_witness", "minkowski.dual")]
    + [("minkowski", name, "minkowski.other") for name in (
        "check_condition", "directed_search_sheared",
        "directed_search_coordinate", "enumerate_lattice_points",
        "reciprocal_construct", "surrogate_gamma")]
    + [("corpus", name, "corpus.generate") for name in (
        "generate", "gen_fibonacci", "gen_apery_zeta3", "gen_apery_zeta2",
        "gen_synthetic")]
    + [("corpus", "dumps_jsonl", "corpus.dumps"),
       ("corpus", "loads_jsonl", "corpus.loads")]
    + [("corpus", name, "corpus.other") for name in (
        "export_jsonl", "import_jsonl", "default_basis")]
    + [("cli", "run", "cli.run")]
)

# Groups whose spans feed the exponents.evals_per_record count.
_EXPONENT_FITS = ("exponents.estimate_tau", "exponents.fit_alpha_beta")

# The per-layer metrics, with units, in the order they are reported.
METRICS = (
    ("numerics.log.calls", "count"), ("numerics.log.s", "s"),
    ("numerics.ring.calls", "count"), ("numerics.ring.s", "s"),
    ("numerics.const.s", "s"), ("numerics.self_s", "s"),
    ("model.eval.calls", "count"), ("model.eval.s", "s"),
    ("model.self_s", "s"),
    ("exponents.estimate_tau.s", "s"), ("exponents.fit_alpha_beta.s", "s"),
    ("exponents.records", "count"),
    ("exponents.evals_per_record", "evals/record"),
    ("exponents.precision_used", "bits"), ("exponents.self_s", "s"),
    ("criteria.matrix.calls", "count"), ("criteria.matrix.s", "s"),
    ("criteria.matrix.unknown", "count"),
    ("criteria.verify.s", "s"), ("criteria.verify.prefixes", "count"),
    ("criteria.verify.candidates", "count"),
    ("criteria.verify.escalations", "count"),
    ("criteria.verify.us_per_prefix", "us"),
    ("criteria.siegel.s", "s"), ("criteria.self_s", "s"),
    ("minkowski.primal.s", "s"), ("minkowski.primal.scanned", "count"),
    ("minkowski.primal.us_per_step", "us"),
    ("minkowski.dual.s", "s"), ("minkowski.dual.checked", "count"),
    ("minkowski.dual.us_per_candidate", "us"),
    ("minkowski.unknowns", "count"), ("minkowski.self_s", "s"),
    ("corpus.generate.s", "s"), ("corpus.dumps.s", "s"),
    ("corpus.loads.s", "s"), ("corpus.bytes", "bytes"),
    ("corpus.records", "count"), ("corpus.failed", "count"),
    ("corpus.self_s", "s"),
    ("cli.run.s", "s"), ("cli.report_bytes", "bytes"), ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)

COUNT_METRICS = tuple(name for name, unit in METRICS
                      if unit in ("count", "bytes", "bits"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.group_of: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.failed_spans: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Drop the spans and counts recorded so far (the set-up's)."""
        for col in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del col[:]
        self.failed_spans.clear()
        self.counts.clear()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str, group: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.group_of.append(group)
        return len(self.names) - 1

    def span(self, name: str, layer: str = "bench", group: str = ""):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name, layer, group))

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()
        if failed:
            self.failed_spans.append(idx)

    def _wrap(self, fn, layer: str, path: str, group: str):
        nid = self._name_id(f"{layer}.{path}", layer, group)
        post = _POST.get(path)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx, False)
            if post is not None:
                post(self, args, result)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every boundary function of the imported latforms modules."""
        import latforms.cli  # noqa: F401  (so cli's re-bound names exist)

        mods = [m for key, m in sorted(sys.modules.items())
                if key == "latforms" or key.startswith("latforms.")]
        for modname, path, group in BOUNDARIES:
            mod = sys.modules[f"latforms.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(
                        self._wrap(raw.__func__, modname, path, group)))
                elif callable(raw):
                    setattr(owner, attr, self._wrap(raw, modname, path, group))
                else:   # a property would silently stop working if wrapped
                    raise TypeError(f"cannot trace {modname}.{path}: "
                                    f"{type(raw).__name__}")
                continue
            fn = getattr(mod, path)
            wrapper = self._wrap(fn, modname, path, group)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def in_group(self, groups) -> bool:
        """True when a span of one of `groups` is open."""
        return any(idx >= 0 and self.group_of[self.span_name[idx]] in groups
                   for idx in self.stack)

    def parent_layer(self) -> str:
        """Layer of the innermost open span (the caller of the span that
        just closed)."""
        idx = self.stack[-1]
        return "" if idx < 0 else self.layer_of[self.span_name[idx]]

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as one JSON header line, then the four int64 columns."""
        header = {"names": self.names, "layers": self.layer_of,
                  "groups": self.group_of, "count": len(self.span_name),
                  "columns": ["name", "parent", "start_ns", "end_ns"],
                  "itemsize": 8, "byteorder": sys.byteorder,
                  "failed": self.failed_spans}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                array("q", col).tofile(fh)

    def layer_metrics(self) -> dict:
        n = len(self.span_name)
        name, parent = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_ns: Counter = Counter()
        group_ns: Counter = Counter()
        group_calls: Counter = Counter()
        layer_of, group_of = self.layer_of, self.group_of
        for i in range(n):
            nid = name[i]
            layer_ns[layer_of[nid]] += dur[i] - child[i]
            group = group_of[nid]
            p = parent[i]
            if group and (p < 0 or group_of[name[p]] != group):
                group_calls[group] += 1
                group_ns[group] += dur[i]
        failed_corpus = sum(
            1 for i in self.failed_spans
            if layer_of[name[i]] == "corpus"
            and (parent[i] < 0 or layer_of[name[parent[i]]] != "corpus"))

        def s(group):
            return group_ns[group] / 1e9

        c = self.counts
        records = c["exponents.records"]
        prefixes = c["criteria.verify.prefixes"]
        scanned = c["minkowski.primal.scanned"]
        checked = c["minkowski.dual.checked"]
        out = {
            "numerics.log.calls": group_calls["numerics.log"],
            "numerics.log.s": s("numerics.log"),
            "numerics.ring.calls": group_calls["numerics.ring"],
            "numerics.ring.s": s("numerics.ring"),
            "numerics.const.s": s("numerics.const"),
            "model.eval.calls": group_calls["model.eval"],
            "model.eval.s": s("model.eval"),
            "exponents.estimate_tau.s": s("exponents.estimate_tau"),
            "exponents.fit_alpha_beta.s": s("exponents.fit_alpha_beta"),
            "exponents.records": records,
            "exponents.evals_per_record":
                c["exponents.evals"] / records if records else 0.0,
            "exponents.precision_used": c["exponents.precision_used"],
            "criteria.matrix.calls": group_calls["criteria.matrix"],
            "criteria.matrix.s": s("criteria.matrix"),
            "criteria.matrix.unknown": c["criteria.matrix.unknown"],
            "criteria.verify.s": s("criteria.verify"),
            "criteria.verify.prefixes": prefixes,
            "criteria.verify.candidates": c["criteria.verify.candidates"],
            "criteria.verify.escalations": c["criteria.verify.escalations"],
            "criteria.verify.us_per_prefix":
                s("criteria.verify") * 1e6 / prefixes if prefixes else 0.0,
            "criteria.siegel.s": s("criteria.siegel"),
            "minkowski.primal.s": s("minkowski.primal"),
            "minkowski.primal.scanned": scanned,
            "minkowski.primal.us_per_step":
                s("minkowski.primal") * 1e6 / scanned if scanned else 0.0,
            "minkowski.dual.s": s("minkowski.dual"),
            "minkowski.dual.checked": checked,
            "minkowski.dual.us_per_candidate":
                s("minkowski.dual") * 1e6 / checked if checked else 0.0,
            "minkowski.unknowns": c["minkowski.unknowns"],
            "corpus.generate.s": s("corpus.generate"),
            "corpus.dumps.s": s("corpus.dumps"),
            "corpus.loads.s": s("corpus.loads"),
            "corpus.bytes": c["corpus.bytes"],
            "corpus.records": c["corpus.records"],
            "corpus.failed": failed_corpus,
            "cli.run.s": s("cli.run"),
            "cli.report_bytes": c["cli.report_bytes"],
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
        return out


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx, exc_type is not None)
        return False


# -- counts taken from return values ------------------------------------------


def _eval(tr: Tracer, args, result) -> None:
    if tr.in_group(_EXPONENT_FITS):
        tr.counts["exponents.evals"] += 1


def _tau(tr: Tracer, args, result) -> None:
    tr.counts["exponents.records"] += len(args[0])
    tr.counts["exponents.precision_used"] = max(
        tr.counts["exponents.precision_used"], result.precision_used)


def _fit(tr: Tracer, args, result) -> None:
    tr.counts["exponents.records"] += len(args[0])


def _matrix(tr: Tracer, args, result) -> None:
    if result.name == "UNKNOWN":
        tr.counts["criteria.matrix.unknown"] += 1


def _verify(tr: Tracer, args, result) -> None:
    d = result.diagnostics
    tr.counts["criteria.verify.prefixes"] += d.get("prefixes", 0)
    tr.counts["criteria.verify.candidates"] += d.get("candidates_checked", 0)
    tr.counts["criteria.verify.escalations"] += d.get("escalations", 0)


def _primal(tr: Tracer, args, result) -> None:
    tr.counts["minkowski.primal.scanned"] += result.diagnostics["scanned"]
    tr.counts["minkowski.unknowns"] += result.diagnostics["unknowns"]


def _dual(tr: Tracer, args, result) -> None:
    tr.counts["minkowski.dual.checked"] += result.diagnostics["checked"]
    tr.counts["minkowski.unknowns"] += result.diagnostics["unknowns"]


def _sequence_out(tr: Tracer, args, result) -> None:
    if tr.parent_layer() != "corpus":
        tr.counts["corpus.records"] += len(result)


def _dumps(tr: Tracer, args, result) -> None:
    tr.counts["corpus.bytes"] += len(result)   # JSONL is ASCII


def _loads(tr: Tracer, args, result) -> None:
    tr.counts["corpus.bytes"] += len(args[0])
    _sequence_out(tr, args, result)


_POST = {
    "eval_at_basis": _eval,
    "estimate_tau": _tau,
    "fit_alpha_beta": _fit,
    "matrix_condition_check": _matrix,
    "verify_conclusion": _verify,
    "construct_primal_form": _primal,
    "construct_dual_witness": _dual,
    "generate": _sequence_out,
    "gen_fibonacci": _sequence_out,
    "gen_apery_zeta3": _sequence_out,
    "gen_apery_zeta2": _sequence_out,
    "gen_synthetic": _sequence_out,
    "import_jsonl": _sequence_out,
    "loads_jsonl": _loads,
    "dumps_jsonl": _dumps,
}
