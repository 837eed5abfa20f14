"""Command-line surface over generators, estimators, criterion checks, and
the constructive searches, emitting deterministic JSON reports.

Exit codes: 0 all checks hold / construction succeeded; 2 certified
violation or refusal (a report is still written); 3 undecided at the
precision cap or search budget; 1 usage or I/O errors.  For a fixed input
and configuration the report bytes are identical between runs except for
the timestamp field, which is excluded from identity comparisons.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import re
import shutil
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

from . import __version__
from .corpus import (
    GENERATORS,
    GeneratorSpec,
    InfeasibleSpec,
    default_basis,
    export_jsonl,
    generate,
    import_jsonl,
    _jsonl_lines,
    _parse_jsonl,
    _read_jsonl,
    _utf8_text,
)
from .criteria import (
    BudgetExceeded,
    RecordsExhausted,
    check_nesterenko,
    check_siegel,
    verify_conclusion,
)
from .exponents import profile
from .minkowski import Refusal, SearchFailed, construct_dual_witness, \
    construct_primal_form
from .model import Basis, MissingRecord, ValidationError
from .numerics import (
    MIN_PREC,
    PREC_CAP,
    NumericsError,
    TriBool,
    UncertifiedComparison,
    decimal_to_fraction,
    decimal_to_int,
    int_to_decimal,
    jsonable,
    parse_real,
)

__all__ = ["build_parser", "run", "main"]

_NUMBER = re.compile(r"^-\.?\d")
_EXIT = {"holds": 0, "success": 0, "violated": 2, "refused": 2, "unknown": 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a dash before a digit starts a value, never an option: argparse's
        # own pattern admits -1 and -0.5 but takes -1/2 for an unknown flag
        self._negative_number_matcher = _NUMBER

    # argparse exits 2 on bad flags; 2 means "certified violation" here, so
    # reroute usage problems through the 1 path
    def error(self, message):
        raise _UsageError(message)


def _frac(text: str) -> Fraction:
    try:
        return decimal_to_fraction(text)
    except NumericsError as e:
        raise argparse.ArgumentTypeError(str(e))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _posint(text: str) -> int:
    try:
        v = decimal_to_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return v


def _bits(text: str) -> int:
    """A precision in bits: an integer in MIN_PREC..PREC_CAP."""
    try:
        v = decimal_to_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not MIN_PREC <= v <= PREC_CAP:
        raise argparse.ArgumentTypeError(
            f"precision {int_to_decimal(v)} is outside "
            f"{MIN_PREC}..{PREC_CAP} bits")
    return v


def _default_prec() -> int:
    raw = os.environ.get("LATFORMS_PREC")
    if raw is None:
        return 64
    try:
        return _bits(raw)
    except argparse.ArgumentTypeError as e:
        raise _UsageError(f"LATFORMS_PREC: {e}")


# ---------------------------------------------------------------------------
# input plumbing


def _add_common(sp, *, cap: bool = True, budget: bool = False) -> None:
    sp.add_argument("--prec", type=_bits, default=_default_prec(),
                    metavar="BITS",
                    help="working precision (default 64 or $LATFORMS_PREC)")
    if cap:
        sp.add_argument("--prec-cap", type=_bits, default=PREC_CAP,
                        dest="prec_cap", metavar="BITS",
                        help=f"precision-escalation cap (default {PREC_CAP})")
    if budget:
        sp.add_argument("--budget", type=_posint, default=10 ** 7,
                        help="box a scan may walk, checked up front: prod(2 "
                             "R_j + 1) prefixes (verify, construct-dual), R "
                             "+ 1 x_p steps (construct-primal) (default 10^7)")
    sp.add_argument("--output", metavar="PATH",
                    help="write output here instead of stdout")


def _add_input(sp) -> None:
    sp.add_argument("--input", metavar="PATH",
                    help="JSONL form-sequence file")
    sp.add_argument("--gen", choices=GENERATORS,
                    help="generate the input sequence instead of reading one")
    sp.add_argument("--n-max", dest="n_max", type=_posint,
                    help="last index for --gen")
    sp.add_argument("--params", metavar="JSON",
                    help="generator parameters (synthetic-power)")
    sp.add_argument("--xi", nargs="+", metavar="EXPR",
                    help="basis override: golden zeta3 zeta2 e sqrt(k) p/q "
                         "or decimals")


def _spec_from_args(args) -> GeneratorSpec:
    if args.n_max is None:
        raise _UsageError("--gen requires --n-max")
    params = {}
    if args.params:
        try:
            params = json.loads(args.params, parse_int=decimal_to_int)
        except json.JSONDecodeError as e:
            raise _UsageError(f"--params is not valid JSON: {e.msg}")
        if not isinstance(params, dict):
            raise _UsageError("--params must be a JSON object")
    params.setdefault("prec", args.prec)
    return GeneratorSpec(args.gen, args.n_max, params)


def _load(args):
    """The sequence of --input or --gen, and its basis from _basis_for."""
    if bool(args.input) == bool(args.gen):
        raise _UsageError("exactly one of --input / --gen is required")
    if args.input and (args.n_max is not None or args.params is not None):
        raise _UsageError("--n-max and --params need --gen, not --input")
    seq = (import_jsonl(args.input) if args.input
           else generate(_spec_from_args(args)))
    return seq, _basis_for(args, seq)


def _basis_for(args, seq) -> Basis:
    """The basis of --xi or of the input's generator, capped at --prec-cap."""
    cap = getattr(args, "prec_cap", PREC_CAP)   # check-siegel has no cap
    if args.xi:
        try:
            return Basis(tuple(parse_real(x, args.prec) for x in args.xi),
                         cap)
        except ValueError as e:
            raise _UsageError(str(e))
    prov = seq.provenance
    if isinstance(prov, dict) and prov.get("generator") in GENERATORS:
        # default_basis reads the name and the params, not n_max
        basis = default_basis(GeneratorSpec(prov["generator"], 3,
                                            dict(prov.get("params", {}))))
        return dataclasses.replace(basis, cap=cap)
    raise _UsageError("no basis available: pass --xi or an input with "
                      "generator provenance")


# ---------------------------------------------------------------------------
# subcommands


def _write(text: str, path: Optional[str]) -> None:
    """Write text to path as UTF-8 with "\\n" line ends, or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args):
    seq = generate(_spec_from_args(args))
    export_jsonl(seq, args.output or sys.stdout)
    return None, None


def _copy(src, path: str) -> None:
    """Copy the binary file src, read to its end, from its start to path,
    unless path is src itself."""
    try:
        same = os.path.samestat(os.fstat(src.fileno()), os.stat(path))
    except OSError:             # no such path, or src is held in memory
        same = False
    if not same:
        src.seek(0)
        with open(path, "wb") as out:
            shutil.copyfileobj(src, out)


def _redump(seq, path: Optional[str]) -> tuple[int, bool]:
    """Write the canonical JSONL of seq to path, if any, a line at a time,
    and read each line back as it goes: the text's size in bytes, and
    whether every record and the provenance read back equal."""
    size, found = 0, {}
    with open(path or os.devnull, "w", encoding="utf-8", newline="\n") as fh:
        def lines():
            nonlocal size
            for line in _jsonl_lines(seq):
                line += "\n"
                size += len(line)       # canonical text is ASCII
                fh.write(line)
                yield line
        # every line is written, whatever the records read back
        differ = sum(a != b for a, b in itertools.zip_longest(
            _read_jsonl(lines(), False, found), seq.records))
    return size, not differ and found["provenance"] == seq.provenance


def _cmd_roundtrip(args):
    with open(args.input, "rb") as fh:
        # a pipe cannot be read twice: its bytes are held, to copy from
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        seq, already = _parse_jsonl(_utf8_text(src))
        # canonical input is certified line by line as it is parsed, so it
        # is copied, neither dumped nor parsed again
        if already:
            if args.output:
                _copy(src, args.output)
            size = src.tell()           # at the end of what was read
    lossless = True
    if not already:
        size, lossless = _redump(seq, args.output)
    status = "success" if lossless else "violated"
    return status, {
        "lossless": lossless,
        "already_canonical": already,
        "records": len(seq),
        "p": seq.p,
        "canonical_bytes": size,   # canonical text is ASCII
    }


def _cmd_estimate(args):
    seq, basis = _load(args)
    prof = profile(seq, basis, args.prec, args.tol)
    # gamma and growth end at records with Q >= 2, so only tau can be None
    decided = all(b is not None for b in prof.tau)
    return ("success" if decided else "unknown"), {
        "records": len(seq), "p": seq.p, "profile": prof}


def _cmd_check_nesterenko(args):
    seq, basis = _load(args)
    rep = check_nesterenko(seq, basis, args.prec, args.tol)
    status = {TriBool.TRUE: "holds", TriBool.FALSE: "violated",
              TriBool.UNKNOWN: "unknown"}[rep.consistent]
    return status, rep


def _cmd_check_siegel(args):
    seq, basis = _load(args)
    rep = check_siegel(seq, basis, args.n1, args.n2, args.prec)
    ok = (rep.alpha0_ok and rep.det_nonzero and rep.rank_propagates
          and rep.det_consistent is not TriBool.FALSE)
    return ("holds" if ok else "violated"), rep


def _cmd_verify(args):
    seq, basis = _load(args)
    verdicts = [verify_conclusion(seq, basis, args.tau, Q, args.eps,
                                  args.prec, args.budget)
                for Q in args.Q]
    overall = min((v.status for v in verdicts),
                  key=("violated", "unknown", "holds").index)
    return overall, {"verdicts": verdicts}


def _cmd_construct_primal(args):
    basis = _basis_for(args, None)
    out = construct_primal_form(basis, args.tau, args.delta, args.Q,
                                slack=args.slack, prec=args.prec,
                                budget=args.budget, gamma=args.gamma)
    return "success", out


def _cmd_construct_dual(args):
    basis = _basis_for(args, None)
    out = construct_dual_witness(basis, args.tau, args.gamma, args.delta,
                                 args.Q, args.eps, prec=args.prec,
                                 budget=args.budget)
    return "success", out


# ---------------------------------------------------------------------------
# parser


def _add_construction(sub, name: str, summary: str, handler):
    """A construct-* subcommand with the flags both constructions take."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("--xi", nargs="+", metavar="EXPR", required=True)
    sp.add_argument("--tau", nargs="+", type=_frac, required=True)
    sp.add_argument("--delta", nargs="+", type=_posint, required=True)
    sp.add_argument("--Q", type=_posint, required=True)
    _add_common(sp, budget=True)
    sp.set_defaults(handler=handler)
    return sp


def build_parser() -> _Parser:
    p = _Parser(prog="latforms",
                description="Exact checks for sequences of integer linear "
                            "forms with divisor lattices.")
    p.add_argument("--version", action="version",
                   version=f"latforms {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("generate", help="emit a built-in sequence as JSONL")
    sp.add_argument("--gen", choices=GENERATORS, required=True)
    sp.add_argument("--n-max", dest="n_max", type=_posint, required=True)
    sp.add_argument("--params", metavar="JSON")
    _add_common(sp, cap=False)
    sp.set_defaults(handler=_cmd_generate, data_output=True)

    for name, summary, handler in (
            ("estimate", "exponent profile (tau, gamma, growth)",
             _cmd_estimate),
            ("check-nesterenko", "hypothesis report: divisor chains, decay "
             "traces, norm growth", _cmd_check_nesterenko)):
        sp = sub.add_parser(name, help=summary)
        _add_input(sp)
        sp.add_argument("--tol", type=_frac, default=Fraction(1, 20),
                        help="oscillation tolerance (default 1/20)")
        _add_common(sp)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("check-siegel",
                        help="recurrence fits, alpha_0(n) != 0, exact "
                             "window determinant")
    _add_input(sp)
    sp.add_argument("--n1", type=_posint, required=True)
    sp.add_argument("--n2", type=_posint, required=True)
    _add_common(sp, cap=False)
    sp.set_defaults(handler=_cmd_check_siegel)

    sp = sub.add_parser("verify",
                        help="exhaustive finite-Q check of the conclusion "
                             "|a.xi| > Q^(-1-eps)")
    _add_input(sp)
    sp.add_argument("--tau", nargs="+", type=_frac, required=True)
    sp.add_argument("--Q", nargs="+", type=_posint, required=True)
    sp.add_argument("--eps", type=_frac, required=True)
    _add_common(sp, budget=True)
    sp.set_defaults(handler=_cmd_verify)

    sp = _add_construction(sub, "construct-primal",
                           "small form in the divisor lattice via directed "
                           "Minkowski search", _cmd_construct_primal)
    sp.add_argument("--gamma", nargs="+", type=_frac,
                    help="asymptotic divisor exponents (default all zero)")
    sp.add_argument("--slack", type=_frac, default=Fraction(1, 20))

    sp = _add_construction(sub, "construct-dual",
                           "dual witness violating the conclusion at scale "
                           "Q", _cmd_construct_dual)
    sp.add_argument("--gamma", nargs="+", type=_frac, required=True)
    sp.add_argument("--eps", type=_frac, required=True)

    sp = sub.add_parser("roundtrip",
                        help="canonicalize a JSONL file and certify the "
                             "round trip is lossless")
    sp.add_argument("--input", metavar="PATH", required=True)
    sp.add_argument("--output", metavar="PATH",
                    help="write the canonical form here")
    sp.set_defaults(handler=_cmd_roundtrip, data_output=True)

    return p


# ---------------------------------------------------------------------------
# driver


def _config_echo(args) -> dict:
    skip = {"handler", "command", "output", "data_output"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _error(e: Exception) -> int:
    print(f"latforms: error: {e}", file=sys.stderr)
    return 1


def run(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except _UsageError as e:
        return _error(e)
    # for data-path commands --output names the JSONL, so reports go to stdout
    report_out = None if getattr(args, "data_output", False) \
        else getattr(args, "output", None)
    try:
        status, result = args.handler(args)
    except _UsageError as e:
        return _error(e)
    except InfeasibleSpec as e:
        status = "refused"
        result = {"why": str(e), "condition": e.report}
    except Refusal as e:
        status = "refused"
        result = {"why": str(e), "condition": e.report, "detail": e.detail}
    except SearchFailed as e:
        status = "unknown"
        result = {"why": str(e), "unknowns": e.unknowns}
    except (BudgetExceeded, UncertifiedComparison, RecordsExhausted) as e:
        status = "unknown"
        result = {"why": str(e)}
    except (ValidationError, MissingRecord, OSError, ValueError,
            NumericsError) as e:
        return _error(e)
    if status is None:
        return 0  # generate already wrote its JSONL
    report = {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": _config_echo(args),
        "status": status,
        "result": result,
    }
    try:
        _write(json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n",
               report_out)
    except OSError as e:
        return _error(e)
    return _EXIT[status]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
