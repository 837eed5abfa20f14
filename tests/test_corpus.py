"""Generator oracles (Fibonacci/Apery closed forms), JSONL round trips.

The Apery driver runs its recurrence on scaled integers; the exact
``Fraction`` driver it replaced is kept below as an oracle.
"""

import io
import json
import math
import re
import time
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact,
                     getcontext, localcontext)
from fractions import Fraction

import pytest
import mpmath
from hypothesis import given, settings, strategies as st

from latforms.numerics import (PrecisionCapExceeded, TriBool, int_to_decimal,
                               parse_real)
from latforms.model import (
    Basis,
    DiagonalLattice,
    FormRecord,
    FormSequence,
    ValidationError,
    divisor_chain_check,
    eval_at_basis,
    lattice_membership,
)
from latforms.criteria import fit_recurrence
from latforms.exponents import estimate_gamma_growth, estimate_tau
from latforms import corpus
from latforms.corpus import (
    GENERATORS,
    GeneratorSpec,
    InfeasibleSpec,
    default_basis,
    dumps_jsonl,
    export_jsonl,
    gen_apery_zeta2,
    gen_apery_zeta3,
    gen_fibonacci,
    gen_synthetic,
    generate,
    import_jsonl,
    loads_jsonl,
)

mpmath.mp.dps = 60

F = Fraction


def _fib(n_max):
    f = [0, 1]
    while len(f) <= n_max + 2:
        f.append(f[-1] + f[-2])
    return f


def _syn_spec(n_max=8, t=("-1/2",), g=("1/4", "1")):
    return GeneratorSpec("synthetic-power", n_max,
                         {"B": 2, "xi": ["1/3"], "t": list(t), "g": list(g)})


# ---------------------------------------------------------------------------
# fibonacci-golden


def test_fibonacci_matches_closed_form():
    seq = gen_fibonacci(12)
    f = _fib(12)
    assert tuple(r.n for r in seq) == tuple(range(2, 13))
    for r in seq:
        assert r.ell == (f[r.n + 1], f[r.n])
        assert r.Q == f[r.n]
        assert r.delta == (1, 1)
    r6 = seq.record(6)
    assert r6.ell == (13, 8) and r6.Q == 8


def test_fibonacci_q1_record_is_log_skipped():
    # F_2 = 1 gives the single Q=1 record; tau estimation must skip it
    seq = gen_fibonacci(8)
    assert seq.record(2).Q == 1
    est = estimate_tau(seq, Basis((parse_real("golden"),)), 1)
    first = est.trace[0]
    assert first.n == 2 and first.value is None and "Q=1" in first.note


def test_fibonacci_chain_empty():
    assert divisor_chain_check(gen_fibonacci(10)) == []


def test_fibonacci_cassini():
    seq = gen_fibonacci(20)
    for n in range(2, 20):
        a, b = seq.record(n).ell
        c, d = seq.record(n + 1).ell
        det = a * d - b * c
        # F_{n+1}^2 - F_n F_{n+2} = (-1)^n
        assert det == (-1) ** n


# ---------------------------------------------------------------------------
# apery-zeta3 / apery-zeta2


def _apery3_a(n):
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2
               for k in range(n + 1))


def _apery2_a(n):
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k)
               for k in range(n + 1))


def _lcm_upto(n):
    d = 1
    for k in range(2, n + 1):
        d = math.lcm(d, k)
    return d


def test_apery_zeta3_closed_form_and_scaling():
    seq = gen_apery_zeta3(8)
    assert tuple(r.n for r in seq) == tuple(range(1, 9))
    for r in seq:
        d = _lcm_upto(r.n)
        scale = 2 * d ** 3
        assert r.delta == (2, scale)
        assert r.ell[1] == scale * _apery3_a(r.n)  # binomial-sum oracle
        assert r.Q == r.ell[1]
    assert seq.record(2).ell[1] // (2 * 2 ** 3) == 73   # a_2
    assert _lcm_upto(5) == 60 and seq.record(5).delta[1] == 2 * 60 ** 3


def test_apery_zeta3_forms_shrink_against_zeta3():
    seq = gen_apery_zeta3(10)
    z3 = mpmath.zeta(3)
    for r in seq:
        err = abs(r.ell[0] - r.ell[1] * z3)
        assert err < 1  # 2 d^3 |b - a zeta3| stays below one at every n
    last = seq.record(10)
    assert abs(last.ell[0] - last.ell[1] * z3) < mpmath.mpf("1e-6")


def test_apery_zeta3_membership_and_chain():
    seq = gen_apery_zeta3(12)
    for r in seq:
        assert lattice_membership(r.ell, DiagonalLattice(r.delta))
    assert divisor_chain_check(seq) == []


def test_apery_fit_recurrence_recovers_coefficients():
    seq = gen_apery_zeta3(8)
    fit = fit_recurrence(seq, 5)
    # ell_{n} = 2 d_n^3 u_n, so the u-recurrence picks up lcm-ratio factors
    d5, d6, d7 = (_lcm_upto(k) for k in (5, 6, 7))
    p6 = 34 * 6 ** 3 + 51 * 6 ** 2 + 27 * 6 + 5
    alpha1 = F(d7, d6) ** 3 * F(p6, 7 ** 3)
    alpha0 = -F(d7, d5) ** 3 * F(6 ** 3, 7 ** 3)
    assert fit is not None and fit.alpha == (alpha0, alpha1)
    assert fit.alpha == (F(-216), F(9347))
    assert fit.residual and not fit.non_unique and not fit.alpha0_zero


def test_apery_zeta2_closed_form():
    seq = gen_apery_zeta2(8)
    for r in seq:
        d = _lcm_upto(r.n)
        assert r.delta == (1, d ** 2)
        assert r.ell[1] == d ** 2 * _apery2_a(r.n)
    assert seq.record(2).ell == (125, 76)  # d_2^2 * (125/4, 19)
    z2 = mpmath.pi ** 2 / 6
    for r in seq:
        assert abs(r.ell[0] - r.ell[1] * z2) < 1


def test_apery_zeta2_membership_and_chain():
    seq = gen_apery_zeta2(10)
    for r in seq:
        assert lattice_membership(r.ell, DiagonalLattice(r.delta))
    assert divisor_chain_check(seq) == []


def _as_int(x, what):
    if x.denominator != 1:
        raise AssertionError(
            f"integrality failed for {what}: {x} is not an integer "
            "(generator bug)")
    return x.numerator


def fraction_gen_apery(n_max, prec, *, power, front, poly, sign, a1, b1,
                       const, name):
    """The earlier driver: both components in exact Fractions, each record
    front d_n^power u_n checked integral as it is emitted."""
    if n_max < 3:
        raise ValidationError("n_max must be >= 3")
    a_prev, a_cur = F(1), F(a1)
    b_prev, b_cur = F(0), F(b1)
    d = 1
    records = []
    for n in range(1, n_max + 1):
        d = d * n // math.gcd(d, n)
        scale = front * d ** power
        l1 = _as_int(scale * b_cur, f"{name} n={n} ell_1")
        l2 = _as_int(scale * a_cur, f"{name} n={n} ell_2")
        records.append(FormRecord(n=n, Q=abs(l2), ell=(l1, l2),
                                  delta=(front, scale)))
        num, den = poly(n), (n + 1) ** power
        lag = sign * n ** power
        a_prev, a_cur = a_cur, (num * a_cur + lag * a_prev) / den
        b_prev, b_cur = b_cur, (num * b_cur + lag * b_prev) / den
    corpus._apery_sanity(records[-1].n, *records[-1].ell, const, prec, name)
    return FormSequence(records, provenance={
        "generator": name, "params": {"n_max": n_max}})


APERY_GENS = {"apery-zeta3": (gen_apery_zeta3, "_apery3_poly"),
              "apery-zeta2": (gen_apery_zeta2, "_apery2_poly")}


@pytest.mark.parametrize("name", sorted(APERY_GENS))
@pytest.mark.parametrize("n_max", [3, 12, 200])
def test_integer_driver_matches_fraction_oracle(monkeypatch, name, n_max):
    gen = APERY_GENS[name][0]
    fast = gen(n_max)
    monkeypatch.setattr(corpus, "_gen_apery", fraction_gen_apery)
    slow = gen(n_max)
    assert fast.records == slow.records
    assert fast.provenance == slow.provenance
    assert dumps_jsonl(fast) == dumps_jsonl(slow)


def test_integrality_guard_aborts(monkeypatch):
    """poly(5) off by one leaves d_6^q u_6 with a denominator: the driver
    names the generator and n, with the message of the Fraction oracle."""
    for name, (gen, attr) in APERY_GENS.items():
        poly = getattr(corpus, attr)
        with monkeypatch.context() as m:
            m.setattr(corpus, attr, lambda k: poly(k) + (k == 5))
            with pytest.raises(AssertionError) as fast:
                gen(12)
            m.setattr(corpus, "_gen_apery", fraction_gen_apery)
            with pytest.raises(AssertionError) as slow:
                gen(12)
        assert re.match(rf"integrality failed for {name} n=6 ell_1: \d+/\d+ "
                        r"is not an integer \(generator bug\)$",
                        str(fast.value))
        assert str(fast.value) == str(slow.value)


def test_apery_refusal_builds_no_record(monkeypatch):
    """n = 7000 needs the sanity check above the precision cap: the
    generator refuses on the raw last pair, before any FormRecord is
    validated."""
    built = []

    class Counted(FormRecord):
        def __post_init__(self):
            built.append(self.n)
            super().__post_init__()
    monkeypatch.setattr(corpus, "FormRecord", Counted)
    assert len(gen_apery_zeta3(12)) == 12 and len(built) == 12
    built.clear()
    with pytest.raises(PrecisionCapExceeded,
                       match=r"^66066 bits exceeds cap 65536$"):
        gen_apery_zeta3(7000)
    assert built == []


def _encoded_lines(seq):
    """The record lines of seq from its ints, one int_to_decimal each."""
    return [corpus._record_line(r.n, int_to_decimal(r.Q),
                                [int_to_decimal(x) for x in r.ell],
                                [int_to_decimal(x) for x in r.delta])
            for r in seq]


@pytest.mark.parametrize("name", sorted(APERY_GENS))
@pytest.mark.parametrize("n_max", [3, 4, 12, 200, 1700])
def test_decimal_printer_matches_the_int_encoding(name, n_max):
    """The lines a generated Apery sequence prints from its Decimal run are
    those of its ints, past the 4300-digit limit too (n = 1700); the same
    text parsed back has no printer and encodes its ints to the same
    bytes."""
    seq = APERY_GENS[name][0](n_max)
    lines = list(seq._printer())
    assert lines == _encoded_lines(seq)
    text = dumps_jsonl(seq)
    assert text.splitlines()[1:] == lines
    back = loads_jsonl(text)
    assert back._printer is None
    assert dumps_jsonl(back) == text


def test_failed_division_is_a_generator_bug_in_both_rings():
    """A remainder is the same AssertionError over int and over Decimal,
    in an exact Decimal context and past the 4300-digit limit too."""
    big = 10 ** 5000 + 1                      # 2 mod 3
    for num, den, shown in ((7, 2, "7/2"), (big, 3, None)):
        msgs = []
        for ring in (int, Decimal):
            with localcontext() as ctx:
                ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
                with pytest.raises(AssertionError) as err:
                    corpus._exact_div(ring(num), ring(den), "x n=5 ell_1")
            msgs.append(str(err.value))
        assert msgs[0] == msgs[1]
        assert msgs[0].startswith("integrality failed for x n=5 ell_1: ")
        assert msgs[0].endswith(" is not an integer (generator bug)")
        if shown is not None:
            assert f": {shown} is not" in msgs[0]
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        assert corpus._exact_div(Decimal(big - 1), Decimal(10), "x") \
            == Decimal((big - 1) // 10)


def _no_decimal_work(m):
    def boom(*args, **kwargs):
        raise RuntimeError("Decimal work")
    m.setattr(corpus, "localcontext", boom)
    m.setattr(corpus, "Decimal", boom)


def test_generation_and_refusal_do_no_decimal_work(monkeypatch):
    """The printer runs only when the sequence is dumped: building the
    apery-zeta3 workload's n = 200 and refusing n = 7000 at the precision
    cap never touch Decimal."""
    with monkeypatch.context() as m:
        _no_decimal_work(m)
        seq = gen_apery_zeta3(200)
        with pytest.raises(PrecisionCapExceeded):
            gen_apery_zeta3(7000)
        with pytest.raises(RuntimeError, match="Decimal work"):
            dumps_jsonl(seq)
    assert dumps_jsonl(seq).splitlines()[1:] == _encoded_lines(seq)


# ---------------------------------------------------------------------------
# synthetic-power


def test_synthetic_exact_decay_trace():
    spec = _syn_spec()
    seq = gen_synthetic(spec)
    basis = default_basis(spec)
    for r in seq:
        # |ell_1 - ell_2/3| = 2^(-floor(-n/2)) exactly
        err = abs(F(r.ell[0]) - F(r.ell[1]) * F(1, 3))
        assert err == F(2) ** (-math.floor(F(-1, 2) * r.n))
    est = estimate_tau(seq, basis, 1)
    for entry in est.trace:
        want = F(math.floor(F(-1, 2) * entry.n), entry.n)
        assert entry.value is not None and entry.value.contains(want)
        assert entry.value.rad < F(1, 2 ** 30)


def test_synthetic_exact_divisor_trace():
    spec = _syn_spec(n_max=9, g=("1/4", "1"))
    seq = gen_synthetic(spec)
    gg = estimate_gamma_growth(seq)
    for entry in gg.gamma[0]:
        assert entry.value.contains(F(math.floor(F(1, 4) * entry.n), entry.n))
    for entry in gg.gamma[1]:
        assert entry.value.contains(F(1))  # g_p = 1: delta_p = Q_n
    for entry in gg.growth:
        assert entry.value.contains(F(entry.n + 1, entry.n))


def test_synthetic_annihilation_mode():
    spec = GeneratorSpec("synthetic-power", 6,
                         {"B": 3, "xi": ["2/5", "-1/3"], "t": [None, "-1"],
                          "g": ["1", "0", "1/2"]})
    seq = gen_synthetic(spec)
    basis = default_basis(spec)
    for r in seq:
        z = eval_at_basis(seq, basis, r.n, 1)
        assert z.is_exact and z.mid == 0
        e2 = eval_at_basis(seq, basis, r.n, 2)
        assert e2.is_exact and abs(e2.mid) == F(3) ** r.n
        assert r.delta[0] == 3 ** r.n  # g_1 = 1 rides on the exact zero


def test_synthetic_positive_decay_infeasible():
    with pytest.raises(InfeasibleSpec) as exc:
        gen_synthetic(GeneratorSpec("synthetic-power", 5,
                                    {"B": 2, "xi": ["1/3"], "t": ["1"],
                                     "g": ["0", "0"]}))
    err = exc.value
    assert err.report is not None and err.report.relation is TriBool.FALSE
    assert "fibonacci" in str(err)


def test_synthetic_divisor_infeasibilities():
    with pytest.raises(InfeasibleSpec, match="delta_1"):
        gen_synthetic(_syn_spec(g=("3/4", "0")))  # g_1 > |t_1|
    with pytest.raises(InfeasibleSpec, match="delta_2"):
        gen_synthetic(_syn_spec(g=("0", "3/2")))  # g_p > 1
    with pytest.raises(InfeasibleSpec, match=">= 1"):
        gen_synthetic(_syn_spec(g=("-1/4", "0")))


def test_synthetic_structural_validation():
    with pytest.raises(ValidationError, match="missing"):
        gen_synthetic(GeneratorSpec("synthetic-power", 5, {"B": 2}))
    with pytest.raises(ValidationError, match="base B"):
        gen_synthetic(GeneratorSpec("synthetic-power", 5,
                                    {"B": 1, "xi": ["1/2"], "t": ["0"],
                                     "g": ["0", "0"]}))
    with pytest.raises(ValidationError, match="length"):
        gen_synthetic(GeneratorSpec("synthetic-power", 5,
                                    {"B": 2, "xi": ["1/2"], "t": ["0", "0"],
                                     "g": ["0", "0"]}))
    with pytest.raises(ValidationError):
        GeneratorSpec("no-such-generator", 5)
    with pytest.raises(ValidationError):
        GeneratorSpec("fibonacci-golden", 2)
    # refused from its text: Fraction("1e99999999") builds 10^99999999
    with pytest.raises(ValidationError, match="xi: .*1e99999999.*-bit bound"):
        gen_synthetic(GeneratorSpec("synthetic-power", 5,
                                    {"B": 2, "xi": ["1e99999999"],
                                     "t": ["0"], "g": ["0", "0"]}))


# ---------------------------------------------------------------------------
# JSONL import/export


def test_roundtrip_fibonacci():
    seq = gen_fibonacci(10)
    text = dumps_jsonl(seq)
    back = loads_jsonl(text)
    assert back.records == seq.records
    assert back.provenance == seq.provenance
    assert dumps_jsonl(back) == text


def test_header_line_carries_generator():
    text = dumps_jsonl(gen_apery_zeta3(5))
    head = json.loads(text.splitlines()[0])
    assert head == {"generator": "apery-zeta3", "params": {"n_max": 5}}
    rec = json.loads(text.splitlines()[1])
    assert set(rec) == {"n", "Q", "ell", "delta"}
    assert rec["Q"] == "10" and rec["ell"] == ["12", "10"]


def test_headerless_and_noncanonical_input():
    canon = dumps_jsonl(gen_fibonacci(6))
    headerless = "\n".join(canon.splitlines()[1:]) + "\n"
    back = loads_jsonl(headerless)
    assert back.provenance is None
    assert dumps_jsonl(back) == headerless
    # ints instead of dec-strings, shuffled keys: accepted, then canonicalized
    loose = '{"ell": [2, 1], "n": 2, "delta": [1, 1], "Q": 1}\n' \
            '{"n": 3, "Q": "2", "ell": ["3", "2"], "delta": ["1", "1"]}\n'
    again = loads_jsonl(loose)
    assert dumps_jsonl(again) == "\n".join(headerless.splitlines()[:2]) + "\n"


def test_malformed_lines_report_position():
    good = dumps_jsonl(gen_fibonacci(8)).splitlines()  # header + n=2..8
    assert len(good) == 8
    with pytest.raises(ValidationError, match="line 3"):
        loads_jsonl("\n".join(good[:2] + ["{not json"] + good[3:]))
    bad_delta = json.dumps({"n": 99, "Q": "999", "ell": ["0", "999"],
                            "delta": ["0", "1"]})
    with pytest.raises(ValidationError, match=r"line 9.*delta_1"):
        loads_jsonl("\n".join(good + [bad_delta]) + "\n")
    with pytest.raises(ValidationError, match="line 4.*n=2 not greater"):
        loads_jsonl("\n".join(good[:3] + [good[1]]))
    flat_q = [
        '{"n": 2, "Q": "1", "ell": ["2", "1"], "delta": ["1", "1"]}',
        '{"n": 3, "Q": "2", "ell": ["3", "2"], "delta": ["1", "1"]}',
        '{"n": 4, "Q": "2", "ell": ["5", "3"], "delta": ["1", "1"]}',
    ]
    with pytest.raises(ValidationError, match="line 3.*Q=2 not greater"):
        loads_jsonl("\n".join(flat_q) + "\n")
    with pytest.raises(ValidationError, match="line 2.*unknown"):
        loads_jsonl(good[1] + "\n"
                    '{"n": 3, "Q": "2", "ell": ["3", "2"], '
                    '"delta": ["1", "1"], "extra": 0}\n')
    with pytest.raises(ValidationError, match="line 1.*decimal integer"):
        loads_jsonl('{"n": 2, "Q": "1.5", "ell": ["2", "1"], '
                    '"delta": ["1", "1"]}\n')
    with pytest.raises(ValidationError, match="no records"):
        loads_jsonl('{"generator": "x", "params": {}}\n')


def test_deep_nesting_and_bad_params_are_located():
    record = '{"n": 2, "Q": "1", "ell": ["2", "1"], "delta": ["1", "1"]}\n'
    deep = "[" * 10 ** 5 + "]" * 10 ** 5
    with pytest.raises(ValidationError, match="line 2: invalid JSON"):
        loads_jsonl(record + deep + "\n")
    with pytest.raises(ValidationError, match="line 1: params must be an "
                                              "object"):
        loads_jsonl('{"generator": "fibonacci-golden", "params": 3}\n'
                    + record)
    with pytest.raises(ValidationError, match="line 2: no records"):
        loads_jsonl('{"generator": "x", "params": {}}\n')
    # a header's params reach default_basis, which checks the xi list
    with pytest.raises(ValidationError, match="xi = 3 is not a list"):
        default_basis(GeneratorSpec("synthetic-power", 3, {"xi": 3}))


_JSON_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6) | st.integers().map(str))
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(
                       ["n", "Q", "ell", "delta", "generator", "params",
                        "xi"]) | st.text(max_size=3), inner, max_size=5)),
    max_leaves=12)
_INT_ISH = st.integers(-2, 30) | st.integers(-2, 30).map(str) | _JSON_SCALAR
_RECORDISH = st.fixed_dictionaries(
    {"n": _INT_ISH, "Q": _INT_ISH,
     "ell": st.lists(_INT_ISH, max_size=4),
     "delta": st.lists(_INT_ISH, max_size=4)},
    optional={"extra": _JSON_SCALAR})
_RECORD = st.tuples(
    st.integers(0, 9), st.integers(1, 60),
    st.lists(st.tuples(st.integers(1, 4), st.integers(-5, 5)), min_size=2,
             max_size=3)).map(lambda r: {
                 "n": r[0], "Q": str(r[1]),
                 "ell": [str(d * k) for d, k in r[2]],
                 "delta": [str(d) for d, _ in r[2]]})
_HEADERISH = st.fixed_dictionaries({"generator": _JSON_VALUE},
                                   optional={"params": _JSON_VALUE})
_LINE = (st.text(max_size=30) | _JSON_VALUE.map(json.dumps)
         | _RECORDISH.map(json.dumps) | _RECORD.map(json.dumps)
         | _HEADERISH.map(json.dumps))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE, max_size=6))
def test_loads_jsonl_raises_only_located_validation_errors(lines):
    try:
        seq = loads_jsonl("\n".join(lines))
    except ValidationError as e:
        assert re.match(r"line \d+: ", str(e)), str(e)
    else:
        assert dumps_jsonl(loads_jsonl(dumps_jsonl(seq))) == dumps_jsonl(seq)


def _certified_as_the_redump_finds(text):
    """_parse_jsonl's canonical flag is the full re-dump oracle; returns the
    flag, or None when the text does not parse."""
    try:
        seq, canonical = corpus._parse_jsonl(text)
    except ValidationError:
        return None
    assert canonical == (text == dumps_jsonl(seq))
    return canonical


_ENCODE = st.sampled_from([corpus._canon, json.dumps])
_HEADER_LINES = st.lists(st.builds(lambda h, enc: enc(h), _HEADERISH,
                                   _ENCODE), max_size=1)
# records in increasing n and Q with p = 2, most lines of them parse
_RECORD_LINES = st.lists(st.tuples(_RECORD, _ENCODE), min_size=1,
                         max_size=4).map(lambda rs: [
                             enc(dict(r, n=k, Q=str(k + 1), ell=r["ell"][:2],
                                      delta=r["delta"][:2]))
                             for k, (r, enc) in enumerate(rs)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=6)
       | st.builds(lambda h, rs: h + rs, _HEADER_LINES, _RECORD_LINES),
       st.sampled_from(["\n", "\n", "\r\n", "\n\n", "\x0b"]),
       st.sampled_from(["\n", "\n", "", "\r\n", "\n\n"]))
def test_canonical_flag_matches_the_redump_on_fuzzed_lines(lines, sep, end):
    _certified_as_the_redump_finds(sep.join(lines) + end)


_APERY_TEXT = dumps_jsonl(gen_apery_zeta3(6))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(_APERY_TEXT)),
       st.sampled_from(["replace", "insert", "delete"]),
       st.sampled_from(list('0123456789-+_ \t\r\n",:[]{}eE.') +
                       ["٣", "²", " ", "\x85", "\x0c"]))
def test_canonical_flag_matches_the_redump_on_mutated_apery_text(i, how, c):
    text = _APERY_TEXT
    if how == "insert":
        text = text[:i] + c + text[i:]
    elif i < len(text):
        text = text[:i] + ("" if how == "delete" else c) + text[i + 1:]
    _certified_as_the_redump_finds(text)


_ONE = '{"Q":"1","delta":["1","1"],"ell":["2","1"],"n":2}'
_TWO = '{"Q":"2","delta":["1","1"],"ell":["3","2"],"n":3}'
_HEAD = '{"generator":"x","params":{}}'
_BIG = 7 ** 6000                                   # 5071 digits


def _big_text(prefix=""):
    seq = FormSequence([FormRecord(n=1, Q=_BIG, ell=(3 * _BIG, _BIG),
                                   delta=(1, _BIG))])
    return dumps_jsonl(seq).replace('"Q":"', '"Q":"' + prefix, 1)


@pytest.mark.parametrize("text, canonical", [
    (_ONE + "\n" + _TWO + "\n", True),
    (_HEAD + "\n" + _ONE + "\n", True),
    (_ONE.replace('"Q":"1"', '"Q":"001"') + "\n", False),    # leading 0
    (_ONE.replace('"Q":"1"', '"Q":"+1"') + "\n", False),     # plus sign
    (_ONE.replace('"2","1"', '"-0","1"') + "\n", False),     # minus 0
    (_TWO.replace('"ell":["3"', '"ell":["0"') + "\n", True),   # 0 itself
    (_TWO.replace('"ell":["3"', '"ell":["1_3"') + "\n", False),  # underscore
    (_ONE.replace('"Q":"1"', '"Q":"\\u0031"') + "\n", False),  # escaped "1"
    (_ONE.replace('"Q":"1"', '"Q":"1٣"') + "\n", False),  # Unicode digit
    (_ONE.replace('"n":2', '"n":"2"') + "\n", False),          # string n
    (_ONE.replace('"Q":"1"', '"Q":1') + "\n", False),          # JSON-int Q
    ('{"delta":["1","1"],"Q":"1","ell":["2","1"],"n":2}\n', False),
    (_ONE.replace(",", ", ") + "\n", False),                   # blanks
    (" " + _ONE + "\n", False),
    (_ONE + "\t\n", False),
    (_ONE + "\r\n" + _TWO + "\r\n", False),
    (_ONE + "\n" + _TWO, False),                               # no final \n
    (_ONE + "\n\n" + _TWO + "\n", False),                      # blank lines
    ("\n" + _ONE + "\n", False),
    (_ONE + "\n" + _TWO + "\n\n", False),
    (_HEAD.replace("}}", '},"extra":1}') + "\n" + _ONE + "\n", False),
    (_big_text(), True),                                       # Decimal path
    (_big_text("0"), False),
    (_ONE.replace('"n":2', '"n":' + "1" * 5000) + "\n", True),  # long n
])
def test_canonical_flag_on_hand_made_inputs(text, canonical):
    assert _certified_as_the_redump_finds(text) is canonical


def test_lines_end_only_at_lf_crlf_and_cr():
    """A JSON string may hold a raw U+2028, U+2029 or U+0085, so those do
    not end a line; nor do \\v, \\f or U+001C..U+001E."""
    for sep in ("\u2028", "\u2029", "\x85"):
        text = '{"generator":"fib' + sep + 'x","params":{}}\n' + _ONE + "\n"
        seq = loads_jsonl(text)
        assert seq.provenance == {"generator": f"fib{sep}x", "params": {}}
        assert _certified_as_the_redump_finds(text) is False  # "\\u2028"
    for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e"):
        with pytest.raises(ValidationError, match="line 1: invalid JSON"):
            loads_jsonl(_ONE + sep + _TWO + "\n")
    for sep in ("\r\n", "\r"):
        text = _ONE + sep + _TWO + sep
        assert loads_jsonl(text).records == loads_jsonl(
            text.replace(sep, "\n")).records
        assert _certified_as_the_redump_finds(text) is False


def test_only_roundtrip_pays_for_the_canonical_flag(monkeypatch):
    """loads_jsonl never checks a record line for canonical form; the
    parse roundtrip makes checks each one."""
    checked = []
    line_check = corpus._canonical_record_line
    monkeypatch.setattr(corpus, "_canonical_record_line",
                        lambda raw, obj: checked.append(raw)
                        or line_check(raw, obj))
    text = dumps_jsonl(gen_apery_zeta3(12))
    assert dumps_jsonl(loads_jsonl(text)) == text and checked == []
    seq, canonical = corpus._parse_jsonl(text)
    assert canonical and len(checked) == len(seq)


def test_jsonl_past_the_int_str_digit_limit():
    big = 7 ** 6000                       # 5071 digits
    seq = FormSequence([FormRecord(n=1, Q=big, ell=(3 * big, big),
                                   delta=(1, big))])
    text = dumps_jsonl(seq)
    assert loads_jsonl(text).records == seq.records
    # the same record with Q as a bare JSON integer
    q = json.loads(text)["Q"]
    bare = text.replace(f'"Q":"{q}"', f'"Q":{q}')
    assert loads_jsonl(bare).records == seq.records
    # a bare long integer line, and a long Q int() rejects, keep their lines
    with pytest.raises(ValidationError, match="line 2: expected an object"):
        loads_jsonl(text + q + "\n")
    with pytest.raises(ValidationError, match="line 1: Q = .* not a decimal"):
        loads_jsonl(text.replace('"Q":"', '"Q":"_', 1))


def test_file_and_stream_io(tmp_path):
    seq = gen_apery_zeta2(6)
    path = tmp_path / "forms.jsonl"
    export_jsonl(seq, path)
    assert import_jsonl(path).records == seq.records
    buf = io.StringIO()
    export_jsonl(seq, buf)
    assert import_jsonl(io.StringIO(buf.getvalue())).records == seq.records
    assert buf.getvalue() == dumps_jsonl(seq)


def test_export_streams_lines_in_their_own_context():
    """A generated Apery sequence prints one line at a time and export_jsonl
    writes each as it comes; the exact Decimal context is entered around
    each step only, so between lines the caller's context is its own."""
    seq = gen_apery_zeta3(12)

    class Sink(io.StringIO):
        def write(self, s):
            assert getcontext().prec == 7 and not getcontext().traps[Inexact]
            assert Decimal(1) / 3 == Decimal("0.3333333")
            self.sizes.append(len(s))
            return super().write(s)

    sink = Sink()
    sink.sizes = []
    with localcontext() as ctx:
        ctx.prec = 7
        export_jsonl(seq, sink)
    assert sink.getvalue() == dumps_jsonl(seq)
    assert len(sink.sizes) == len(seq) + 1      # the header, then a record


def test_bulk_roundtrip_is_fast():
    recs = [FormRecord(n=k, Q=k, ell=(k + 1, k), delta=(1, 1))
            for k in range(1, 10_001)]
    seq = FormSequence(recs)
    t0 = time.perf_counter()
    text = dumps_jsonl(seq)
    back = loads_jsonl(text)
    elapsed = time.perf_counter() - t0
    assert len(back) == 10_000
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# dispatch & bases


def test_generate_dispatch():
    assert generate(GeneratorSpec("fibonacci-golden", 6)).records \
        == gen_fibonacci(6).records
    assert generate(GeneratorSpec("apery-zeta3", 4)).records \
        == gen_apery_zeta3(4).records
    assert generate(GeneratorSpec("apery-zeta2", 4)).records \
        == gen_apery_zeta2(4).records
    spec = _syn_spec()
    assert generate(spec).records == gen_synthetic(spec).records
    assert set(GENERATORS) == {"fibonacci-golden", "apery-zeta3",
                               "apery-zeta2", "synthetic-power"}


def test_default_bases():
    assert default_basis(GeneratorSpec("fibonacci-golden", 3)).xi[0].expr \
        == "golden"
    assert default_basis(GeneratorSpec("apery-zeta3", 3)).xi[0].expr == "zeta3"
    assert default_basis(GeneratorSpec("apery-zeta2", 3)).xi[0].expr == "zeta2"
    b = default_basis(_syn_spec())
    assert b.exact_xi == (F(1, 3),)
