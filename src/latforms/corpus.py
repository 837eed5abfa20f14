"""Built-in sequence generators and the JSONL ingestion/export layer.

Three classical families with exactly known behaviour — the Fibonacci
convergents of the golden ratio, and the two Apery recurrences whose scaled
iterates approximate zeta(3) and zeta(2) — plus a synthetic power family
whose decay and divisor exponents are exact by construction.  Every record
is emitted through FormRecord, so integrality and divisor constraints are
validated at the source.

File format is JSONL: an optional header line
    {"generator": name, "params": {...}}
followed by one record per line
    {"n": int, "Q": "dec", "ell": ["dec", ...], "delta": ["dec", ...]}
with integers as decimal strings (records can exceed JSON number ranges).
Export is canonical (sorted keys, compact separators), so canonical files
round-trip byte-identically.  Import reads a text, a text stream or a file
one line at a time, so it never holds the whole text, and certifies that
the text is canonical as it parses it, without encoding Q, ell or delta
back (_parse_jsonl): a round trip of canonical input is one parse.  Each
distinct integer of a record, or of the record before it, is converted
once; a generated Apery sequence prints from Decimal.
"""

from __future__ import annotations

import codecs
import json
import math
import re
from dataclasses import dataclass, field
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, Rounded,
                     getcontext, localcontext)
from fractions import Fraction
from pathlib import Path
from typing import (IO, Callable, Iterable, Iterator, Optional, Sequence,
                    Union)

from .minkowski import ConditionReport, check_condition
from .model import Basis, FormRecord, FormSequence, ValidationError, _form
from .numerics import (NumericsError, RealConstant, TriBool, cmp_abs_le,
                       decimal_to_fraction, decimal_to_int, fraction_to_str,
                       int_to_decimal, parse_real)

__all__ = [
    "GENERATORS",
    "GeneratorSpec",
    "InfeasibleSpec",
    "gen_fibonacci",
    "gen_apery_zeta3",
    "gen_apery_zeta2",
    "gen_synthetic",
    "generate",
    "default_basis",
    "dumps_jsonl",
    "loads_jsonl",
    "export_jsonl",
    "import_jsonl",
]

class InfeasibleSpec(ValueError):
    """The requested exponents cannot be realized by integer forms.

    Carries the condition report for the requested (t, g) pair whenever all
    t_i are finite, so the caller can see which side of the criterion the
    doomed request was on.
    """

    def __init__(self, why: str, report: Optional[ConditionReport] = None):
        super().__init__(why)
        self.report = report


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    n_max: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in GENERATORS:
            raise ValidationError(
                f"unknown generator {self.name!r}; known: {', '.join(GENERATORS)}")
        if not isinstance(self.n_max, int) or self.n_max < 3:
            raise ValidationError("n_max must be an integer >= 3")


# ---------------------------------------------------------------------------
# classical families


def gen_fibonacci(n_max: int) -> FormSequence:
    """Convergent forms of the golden ratio: ell_n = (F_{n+1}, F_n), Q_n = F_n.

    Records start at n=2: F_1 = F_2 = 1 would give two records with Q = 1,
    and scales must strictly increase.  The n=2 record keeps the Q=1
    log-skip path reachable downstream.  Divisors are constant (1, 1).
    """
    if n_max < 3:
        raise ValidationError("n_max must be >= 3")
    records = []
    f_n, f_n1 = 1, 2  # F_2, F_3
    for n in range(2, n_max + 1):
        records.append(FormRecord(n=n, Q=f_n, ell=(f_n1, f_n), delta=(1, 1)))
        f_n, f_n1 = f_n1, f_n + f_n1
    return FormSequence(records, provenance={
        "generator": "fibonacci-golden", "params": {"n_max": n_max}})


def _exact_div(num, den, what: str):
    q, r = divmod(num, den)     # not /: a Decimal non-multiple fills MAX_PREC
    if r:
        x = fraction_to_str(Fraction(int(num), int(den)))
        raise AssertionError(f"integrality failed for {what}: {x} is not an "
                             "integer (generator bug)")
    return q


def _gen_apery(n_max: int, prec: int, *, power: int, front: int,
               poly: Callable[[int], int], sign: int, a1: int, b1: int,
               const: str, name: str) -> FormSequence:
    """Shared Apery driver: u_{m+1} = (poly(m) u_m + sign m^q u_{m-1})/(m+1)^q.

    Both component sequences (a integral, b rational) run scaled, as the
    emitted integers X_n = front d_n^q u_n, d_n = lcm(1..n) grown
    incrementally so the divisor chain holds by construction.  With
    g1 = (d_{n+1}/d_n)^q and g0 = g1 (d_n/d_{n-1})^q,
    X_{n+1} = (poly(n) g1 X_n + sign n^q g0 X_{n-1}) / (n+1)^q, and a
    nonzero remainder of that division is a failed integrality assertion.
    The sanity check runs on the last (ell_1, ell_2) before any record is
    built, so that a refusal does not pay for the records' validation.
    The printer reruns the loop over exact Decimal: linear per digit string.
    """
    if n_max < 3:
        raise ValidationError("n_max must be >= 3")
    if not isinstance(prec, int):
        raise ValidationError(f"{name} prec = {prec!r} is not an integer")

    def run(num):
        a_prev, a_cur = num(front), num(front * a1)     # d_0 = d_1 = 1
        b_prev, b_cur = num(0), num(front * b1)
        d, ratio, scale = 1, 1, num(front)
        for n in range(1, n_max + 1):
            yield b_cur, a_cur, scale
            if n == n_max:
                break
            step = (n + 1) // math.gcd(d, n + 1)
            d *= step
            g1 = step ** power
            c1, c0 = poly(n) * g1, sign * (n * ratio) ** power * g1
            den = (n + 1) ** power
            b_prev, b_cur = b_cur, _exact_div(c1 * b_cur + c0 * b_prev, den,
                                              f"{name} n={n + 1} ell_1")
            a_prev, a_cur = a_cur, _exact_div(c1 * a_cur + c0 * a_prev, den,
                                              f"{name} n={n + 1} ell_2")
            scale *= g1
            ratio = step

    def print_lines() -> Iterator[str]:
        # one line at a time, each step in an exact context (a rounding
        # traps) entered around it, so the caller never runs inside it
        ctx = getcontext().copy()
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = ctx.traps[Rounded] = True
        # each distinct number is printed once: Q is |ell_2|, and the
        # scale is most often the one before
        steps, front_s, scale = run(Decimal), str(front), None
        for n in range(1, n_max + 1):
            with localcontext(ctx):
                b, a, s = next(steps)
                if s != scale:
                    scale, scale_s = s, str(s)
                ell_2 = str(a)
                line = _record_line(n, ell_2.removeprefix("-"),
                                    (str(b), ell_2), (front_s, scale_s))
            yield line
    rows = list(run(int))
    _apery_sanity(n_max, *rows[-1][:2], const, prec, name)
    records = [FormRecord(n=n, Q=abs(a), ell=(b, a), delta=(front, scale))
               for n, (b, a, scale) in enumerate(rows, 1)]
    seq = FormSequence(records, provenance={
        "generator": name, "params": {"n_max": n_max}})
    seq._printer = print_lines
    return seq


def _apery_sanity(n: int, ell_1: int, ell_2: int, const: str, prec: int,
                  name: str) -> None:
    # certify |ell_1 - ell_2 * const| < 1 at the last record; needs absolute
    # precision on the order of the coefficient size
    bits = max(prec, ell_2.bit_length() + 64)
    ball = _form(Basis((parse_real(const),)), (ell_1, ell_2), 1, bits)
    if cmp_abs_le(ball, 1, 1, strict=True) is not TriBool.TRUE:
        raise AssertionError(
            f"{name}: |L_n| at n={n} not certified < 1 (generator bug)")


def _apery3_poly(m: int) -> int:
    return 34 * m ** 3 + 51 * m ** 2 + 27 * m + 5


def _apery2_poly(m: int) -> int:
    return 11 * m ** 2 + 11 * m + 3


def gen_apery_zeta3(n_max: int, prec: int = 64) -> FormSequence:
    """Apery's zeta(3) forms: ell_n = (2 d_n^3 b_n, 2 d_n^3 a_n), Q_n = |ell_2|.

    (m+1)^3 u_{m+1} = (34m^3+51m^2+27m+5) u_m - m^3 u_{m-1}, with
    (a_0, a_1) = (1, 5) and (b_0, b_1) = (0, 6).  2 d_n^3 b_n is an integer
    (asserted per record); divisors (2, 2 d_n^3) form a chain because lcm
    grows incrementally.  prec seeds the final certified sanity check
    |b_n - a_n zeta(3)| < 1/(2 d_n^3).
    """
    return _gen_apery(n_max, prec, power=3, front=2, poly=_apery3_poly,
                      sign=-1, a1=5, b1=6, const="zeta3", name="apery-zeta3")


def gen_apery_zeta2(n_max: int, prec: int = 64) -> FormSequence:
    """The zeta(2) analogue: ell_n = (d_n^2 b_n, d_n^2 a_n), Q_n = |ell_2|.

    (m+1)^2 u_{m+1} = (11m^2+11m+3) u_m + m^2 u_{m-1}, with (a_0, a_1) = (1, 3)
    and (b_0, b_1) = (0, 5); d_n^2 b_n is integral (asserted).
    """
    return _gen_apery(n_max, prec, power=2, front=1, poly=_apery2_poly,
                      sign=+1, a1=3, b1=5, const="zeta2", name="apery-zeta2")


# ---------------------------------------------------------------------------
# synthetic power family


def _frac(x, what: str) -> Fraction:
    """A string as decimal_to_fraction reads it, a number as it is."""
    if isinstance(x, (str, int, float, Fraction)) and not isinstance(x, bool):
        try:
            return decimal_to_fraction(x) if isinstance(x, str) else Fraction(x)
        except NumericsError as e:
            raise ValidationError(f"{what}: {e}") from e
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValidationError(f"{what}: cannot parse {x!r} as a rational")


def gen_synthetic(spec: GeneratorSpec) -> FormSequence:
    """Exact-exponent family over a power base.

    params: B (integer base >= 2), xi (rationals, length p-1), t (decay
    exponents, length p-1, each a rational <= 0 or None for exact
    annihilation), g (divisor exponents, length p, rationals in [0, 1] with
    g_i <= |t_i| for finite t_i).

    Construction: Q_n = B^n, ell_p = V B^n with V = lcm of the xi
    denominators, ell_i = V B^n xi_i + B^(-floor(t_i n)) (or exactly
    V B^n xi_i when t_i is None), delta_i = B^floor(g_i n).  Then
    |ell_i - ell_p xi_i| equals B^(-floor(t_i n)) exactly, so the decay
    trace is floor(t_i n)/n with no rounding noise.

    Positive t_i is unrealizable: against a fixed rational xi_i = c/v a
    nonzero integer-form error is at least 1/v and cannot decay, so such
    requests raise InfeasibleSpec (the fibonacci / apery generators are the
    positive-decay oracles).  Infeasible divisor exponents raise likewise,
    with the condition report attached when every t_i is finite.
    """
    if spec.name != "synthetic-power":
        raise ValidationError(f"gen_synthetic got spec named {spec.name!r}")
    params = spec.params
    missing = [k for k in ("B", "xi", "t", "g") if k not in params]
    if missing:
        raise ValidationError(f"synthetic-power params missing {missing}")
    B = params["B"]
    if not isinstance(B, int) or B < 2:
        raise ValidationError("base B must be an integer >= 2")
    for k in ("xi", "t", "g"):
        if not isinstance(params[k], (list, tuple)):
            raise ValidationError(f"synthetic-power {k} = {params[k]!r} is not a list")
    xi = tuple(_frac(x, "xi") for x in params["xi"])
    if not xi:
        raise ValidationError("need at least one xi (p >= 2)")
    p = len(xi) + 1
    t = tuple(None if x is None else _frac(x, "t") for x in params["t"])
    g = tuple(_frac(x, "g") for x in params["g"])
    if len(t) != p - 1:
        raise ValidationError(f"t has length {len(t)}, expected {p - 1}")
    if len(g) != p:
        raise ValidationError(f"g has length {len(g)}, expected {p}")

    report = None
    if all(ti is not None for ti in t):
        report = check_condition(t, g)
    for i, ti in enumerate(t, start=1):
        if ti is not None and ti > 0:
            raise InfeasibleSpec(
                f"t_{i} = {fraction_to_str(ti)} > 0: a nonzero integer-form "
                f"error against fixed rational xi_{i} is at least 1/"
                "denominator and cannot decay; use the fibonacci/apery "
                "generators for positive decay exponents", report)
    for i, gi in enumerate(g, start=1):
        if gi < 0:
            raise InfeasibleSpec(f"g_{i} = {fraction_to_str(gi)} < 0: "
                                 "divisors must be >= 1", report)
    for i, (ti, gi) in enumerate(zip(t, g), start=1):
        cap = Fraction(1) if ti is None else min(-ti, Fraction(1))
        if gi > cap:
            raise InfeasibleSpec(
                f"g_{i} = {fraction_to_str(gi)} > {fraction_to_str(cap)}: "
                f"delta_{i} = B^floor(g_{i} n) would not divide ell_{i}",
                report)
    if g[-1] > 1:
        raise InfeasibleSpec(
            f"g_{p} = {fraction_to_str(g[-1])} > 1: delta_{p} would not "
            f"divide ell_{p}", report)

    V = math.lcm(*(x.denominator for x in xi))
    c = tuple((V // x.denominator) * x.numerator for x in xi)

    records = []
    for n in range(1, spec.n_max + 1):
        Qn = B ** n
        ell = []
        for i in range(p - 1):
            err = 0 if t[i] is None else B ** (-math.floor(t[i] * n))
            ell.append(c[i] * Qn + err)
        ell.append(V * Qn)
        delta = tuple(B ** math.floor(gi * n) for gi in g)
        records.append(FormRecord(n=n, Q=Qn, ell=tuple(ell), delta=delta))
    canon = {
        "B": B,
        "n_max": spec.n_max,
        "xi": [fraction_to_str(x) for x in xi],
        "t": [None if x is None else fraction_to_str(x) for x in t],
        "g": [fraction_to_str(x) for x in g],
    }
    return FormSequence(records, provenance={
        "generator": "synthetic-power", "params": canon})


# ---------------------------------------------------------------------------
# dispatch


# each family by name: its generator of a spec, and the named constant its
# forms are small against (None: the spec's own xi)
_FAMILIES = {
    "fibonacci-golden": (lambda spec: gen_fibonacci(spec.n_max), "golden"),
    "apery-zeta3": (lambda spec: gen_apery_zeta3(
        spec.n_max, spec.params.get("prec", 64)), "zeta3"),
    "apery-zeta2": (lambda spec: gen_apery_zeta2(
        spec.n_max, spec.params.get("prec", 64)), "zeta2"),
    "synthetic-power": (gen_synthetic, None),
}
GENERATORS = tuple(_FAMILIES)


def generate(spec: GeneratorSpec) -> FormSequence:
    return _FAMILIES[spec.name][0](spec)


def default_basis(spec: GeneratorSpec) -> Basis:
    """The basis each generator's forms are small against."""
    const = _FAMILIES[spec.name][1]
    if const is not None:
        return Basis((parse_real(const),))
    xi = spec.params.get("xi")
    if not xi:
        raise ValidationError("synthetic-power spec has no xi")
    if not isinstance(xi, (list, tuple)):
        raise ValidationError(f"synthetic-power xi = {xi!r} is not a list")
    return Basis(tuple(RealConstant(fraction_to_str(q), interval=(q, q))
                       for q in (_frac(x, "xi") for x in xi)))


# ---------------------------------------------------------------------------
# JSONL serialization


def _canon(obj) -> str:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")) of JSON data,
    with an int of any size written as an integer literal, which loads_jsonl
    reads back through decimal_to_int."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _canon(v)
                              for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_canon, obj)) + "]"
    if obj.__class__ is int:
        return int_to_decimal(obj)
    return json.dumps(obj)


def _jsonl_header(prov) -> Optional[str]:
    """The header line dumps_jsonl writes for this provenance, if any."""
    if prov is None:
        return None
    if isinstance(prov, dict) and "generator" in prov:
        header = {"generator": prov["generator"],
                  "params": prov.get("params", {})}
    else:
        header = {"generator": str(prov), "params": {}}
    return _canon(header)


def _record_line(n: int, Q: str, ell: Sequence[str],
                 delta: Sequence[str]) -> str:
    """The canonical line of record n whose integers are the decimal
    strings Q, ell and delta: what _canon gives for the record object, keys
    in sorted order, built without a JSON encoder.  Decimal strings need no
    escape, and n is encoded past the 4300-digit cap too."""
    return ('{"Q":"' + Q + '","delta":["' + '","'.join(delta)
            + '"],"ell":["' + '","'.join(ell) + '"],"n":'
            + int_to_decimal(n) + "}")


def _jsonl_lines(seq: FormSequence) -> Iterator[str]:
    """The lines of the canonical JSONL text, without their "\\n", made one
    at a time: header line (when provenance exists), then records ordered by
    n, integers as decimal strings: seq._printer's lines, else each distinct
    integer of a record encoded once (often Q == ell_p)."""
    header = _jsonl_header(seq.provenance)
    if header is not None:
        yield header
    if seq._printer is not None:
        yield from seq._printer()
        return
    for r in seq.records:
        dec = {x: int_to_decimal(x) for x in {r.Q, *r.ell, *r.delta}}
        yield _record_line(r.n, dec[r.Q], [dec[x] for x in r.ell],
                           [dec[x] for x in r.delta])


def dumps_jsonl(seq: FormSequence) -> str:
    """Canonical JSONL text: the lines of _jsonl_lines, each ended by "\\n"."""
    return "\n".join(_jsonl_lines(seq)) + "\n"


_RECORD_KEYS = {"n", "Q", "ell", "delta"}

# the decimal strings s with int_to_decimal(decimal_to_int(s)) == s: int()
# also takes "+", "_", blanks, leading zeros and non-ASCII digits, and -0
_CANON_INT = re.compile(r"0|-?[1-9][0-9]*")


def _line_int(v, lineno: int, what: str) -> int:
    if isinstance(v, bool):
        raise ValidationError(f"line {lineno}: {what} must be an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return decimal_to_int(v)
        except ValueError:
            pass
    raise ValidationError(
        f"line {lineno}: {what} = {v!r} is not a decimal integer")


def _line_record(obj: dict, lineno: int,
                 prev: dict) -> tuple[FormRecord, dict]:
    """The record of one parsed line, and the integers of its strings.
    Each distinct string is decoded once, and one the previous record's
    strings (prev) hold is not decoded again: Apery records have Q == ell_p,
    and most share delta_2 = 2 d_n^3 with the record before."""
    keys = set(obj)
    if keys != _RECORD_KEYS:
        extra = sorted(keys - _RECORD_KEYS)
        missing = sorted(_RECORD_KEYS - keys)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unknown {extra}")
        raise ValidationError(f"line {lineno}: bad record fields: "
                              + ", ".join(parts))
    decoded: dict[str, int] = {}

    def value(v, what: str) -> int:
        if not isinstance(v, str):
            return _line_int(v, lineno, what)
        if v not in decoded:
            decoded[v] = prev[v] if v in prev else _line_int(v, lineno, what)
        return decoded[v]

    n = value(obj["n"], "n")
    Q = value(obj["Q"], "Q")
    for name in ("ell", "delta"):
        if not isinstance(obj[name], list) or not obj[name]:
            raise ValidationError(f"line {lineno}: {name} must be a non-empty "
                                  "list")
    ell = tuple(value(v, f"ell[{k}]")
                for k, v in enumerate(obj["ell"], start=1))
    delta = tuple(value(v, f"delta[{k}]")
                  for k, v in enumerate(obj["delta"], start=1))
    try:
        return FormRecord(n=n, Q=Q, ell=ell, delta=delta), decoded
    except ValidationError as e:
        raise ValidationError(f"line {lineno}: {e}") from None


def _canonical_record_line(raw: str, obj: dict) -> bool:
    """Whether the record line raw, parsed as obj, is the line dumps_jsonl
    writes for it: n a JSON int, every other integer a string that decodes
    and encodes back to itself, and raw equal to their _record_line."""
    n, Q, ell, delta = obj["n"], obj["Q"], obj["ell"], obj["delta"]
    return (type(n) is int
            and all(isinstance(v, str) and _CANON_INT.fullmatch(v)
                    for v in (Q, *ell, *delta))
            and raw == _record_line(n, Q, ell, delta))


_BLOCK = 1 << 14                # bytes read from a file at a time


def _lines(source: Union[str, Iterable[str]]) -> Iterator[tuple[str, bool]]:
    """The lines of a text, or of the text a stream iterates in pieces,
    without their ends, each with False where the line has no end or the
    text read with it holds a CR (either makes the text not canonical).

    Lines end at LF, CRLF or CR, and nowhere else, wherever the pieces are
    cut (a CRLF may be cut in two) and whatever newline mode a stream was
    opened in: JSON strings may hold a raw U+2028, but no raw CR or LF.
    A line waits for the piece that ends it, and a CR that ends a piece for
    the next piece.
    """
    rest: list[str] = []        # the pieces of a line not ended yet
    cr = False                  # whether a CR ends them
    for piece in (source,) if isinstance(source, str) else source:
        rest.append(piece)
        if not cr and "\n" not in piece and "\r" not in piece:
            continue
        text = "".join(rest)
        plain = "\r" not in text
        if not plain:
            cr = text.endswith("\r")           # may be half of a CRLF
            if cr:
                text = text[:-1]
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        start = 0
        while (end := text.find("\n", start)) >= 0:
            yield text[start:end], plain
            start = end + 1
        rest = [text[start:] + "\r" * cr]
    text = "".join(rest)
    if text:
        yield text.removesuffix("\r"), False


def _utf8_text(fh: IO[bytes]) -> Iterator[str]:
    """The text of a binary stream of UTF-8, decoded a block at a time.  A
    byte that is not UTF-8 is a ValidationError that names its offset in
    the stream, not in the block it came in."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0                                  # of the block at hand
    while True:
        block = fh.read(_BLOCK)
        held = len(decoder.getstate()[0])       # bytes of a split character
        try:
            text = decoder.decode(block, final=not block)
        except UnicodeDecodeError as e:
            raise ValidationError(
                f"byte {offset - held + e.start}: not UTF-8 "
                f"({e.reason})") from None
        if not block:
            return
        yield text
        offset += len(block)


def _parse_jsonl(source: Union[str, Iterable[str]],
                 certify: bool = True) -> tuple[FormSequence, bool]:
    """loads_jsonl of a text, or of the text a stream iterates, and whether
    that text == dumps_jsonl of the result, decided without encoding Q, ell
    or delta back; without certify the flag is False and costs nothing
    (only roundtrip reads it)."""
    found: dict = {}
    records = list(_read_jsonl(source, certify, found))
    return FormSequence(records, provenance=found["provenance"]), \
        found["canonical"]


def _read_jsonl(source: Union[str, Iterable[str]], certify: bool,
                found: dict) -> Iterator[FormRecord]:
    """The records of a JSONL text, or of the text a stream iterates, each
    checked against the one before, made one at a time: only the line at
    hand is held (_lines).  found["provenance"] is set before the first
    record, and found["canonical"] once the text is read.

    The text is canonical when it holds no CR, ends with "\n" and no line
    is blank, a header line is _jsonl_header of the provenance it gives and
    every record line passes _canonical_record_line.
    """
    found["provenance"] = provenance = None
    prev: Optional[FormRecord] = None
    decoded: dict[str, int] = {}
    canonical = certify
    lineno = 0
    for lineno, (raw, plain) in enumerate(_lines(source), start=1):
        canonical = canonical and plain
        line = raw.strip()
        if not line:
            canonical = False
            continue
        try:
            obj = json.loads(line, parse_int=decimal_to_int)
        except json.JSONDecodeError as e:
            raise ValidationError(f"line {lineno}: invalid JSON: {e.msg}") \
                from None
        except RecursionError:
            raise ValidationError(f"line {lineno}: invalid JSON: nested too "
                                  "deeply") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"line {lineno}: expected an object")
        if provenance is None and prev is None and "generator" in obj:
            params = obj.get("params", {})
            if not isinstance(params, dict):
                raise ValidationError(f"line {lineno}: params must be an "
                                      "object")
            found["provenance"] = provenance = {"generator": obj["generator"],
                                                "params": params}
            canonical = canonical and raw == _jsonl_header(provenance)
            continue
        rec, decoded = _line_record(obj, lineno, decoded)
        if prev is not None:
            if rec.n <= prev.n:
                raise ValidationError(
                    f"line {lineno}: n={int_to_decimal(rec.n)} not greater "
                    f"than previous n={int_to_decimal(prev.n)}")
            if rec.Q <= prev.Q:
                raise ValidationError(
                    f"line {lineno}: Q={int_to_decimal(rec.Q)} not greater "
                    f"than previous Q={int_to_decimal(prev.Q)}")
            if rec.p != prev.p:
                raise ValidationError(
                    f"line {lineno}: p={rec.p} differs from previous "
                    f"p={prev.p}")
        canonical = canonical and _canonical_record_line(raw, obj)
        yield rec
        prev = rec
    if prev is None:
        raise ValidationError(f"line {lineno + 1}: no records in input")
    found["canonical"] = canonical


def loads_jsonl(text: str) -> FormSequence:
    """Parse JSONL into a FormSequence; all errors carry line numbers.

    Records must appear in strictly increasing n with strictly increasing Q
    (the canonical order); a leading {"generator": ...} line becomes the
    sequence provenance.
    """
    return _parse_jsonl(text, False)[0]


def export_jsonl(seq: FormSequence,
                 target: Union[str, Path, IO[str]]) -> None:
    """Write dumps_jsonl(seq) to a path (UTF-8, "\\n" line ends) or a text
    stream, a line at a time: the whole text is never held at once."""
    if hasattr(target, "write"):
        target.writelines(line + "\n" for line in _jsonl_lines(seq))
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            export_jsonl(seq, fh)


def import_jsonl(source: Union[str, Path, IO[str]]) -> FormSequence:
    """loads_jsonl of a text stream, or of a UTF-8 file at a path, read a
    line at a time: the whole text is never held at once."""
    if hasattr(source, "read"):
        return _parse_jsonl(source, False)[0]
    with open(source, "rb") as fh:
        return _parse_jsonl(_utf8_text(fh), False)[0]
