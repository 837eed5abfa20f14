"""Exponent-estimation tests: traces vs closed forms, measure-bound pins."""

import hashlib
import json
import math
import random
import weakref
from fractions import Fraction

import pytest
import mpmath

from latforms.numerics import (
    BallReal,
    TriBool,
    UncertifiedComparison,
    parse_real,
)
from latforms.model import Basis, FormRecord, FormSequence, ValidationError
from latforms.corpus import gen_apery_zeta3, gen_fibonacci
from latforms.criteria import check_nesterenko
from latforms.exponents import (
    TauEstimate,
    TraceEntry,
    _certified_nonzero_eval,
    _oscillation,
    dimension_bound,
    estimate_gamma_growth,
    estimate_tau,
    fit_alpha_beta,
    irrationality_bound,
    profile,
)
from test_ln_exp_kernel import prec8_log

mpmath.mp.dps = 60


def _fib(n_max):
    f = [0, 1]
    while len(f) <= n_max + 1:
        f.append(f[-1] + f[-2])
    return f


def fib_seq(n_max):
    """|F_{n+1} - F_n*phi| = phi^(-n) exactly, so tau-hat_1(n) = n log phi / log F_n."""
    f = _fib(n_max)
    recs = [FormRecord(n=n, Q=f[n], ell=(f[n + 1], f[n]), delta=(1, 1))
            for n in range(2, n_max + 1)]
    return FormSequence(recs, provenance="fibonacci")


GOLDEN = Basis((parse_real("golden"),))


def _frac(mpf_val):
    # mp.dps=60 string -> Fraction; plenty below the ball radii used here
    return Fraction(mpmath.nstr(mpf_val, 50))


def tau_true(n):
    return _frac(n * mpmath.log(mpmath.phi) / mpmath.log(mpmath.fib(n)))


def test_tau_trace_matches_closed_form():
    est = estimate_tau(fib_seq(40), GOLDEN, 1, prec=128)
    by_n = {e.n: e for e in est.trace}
    for n in (10, 25, 40):
        ball = by_n[n].value
        t = tau_true(n)
        assert ball.lower - Fraction(1, 10**45) <= t <= ball.upper + Fraction(1, 10**45)
        assert ball.rad < Fraction(1, 2**60)


def test_tau_final_40_within_five_percent():
    est = estimate_tau(fib_seq(40), GOLDEN, 1, prec=128)
    assert abs(est.final.mid - 1) < Fraction(5, 100)
    assert est.consistent is TriBool.TRUE
    assert est.oscillation is not None and est.oscillation < Fraction(5, 100)


def test_tau_final_60_frozen():
    est = estimate_tau(fib_seq(60), GOLDEN, 1, prec=128)
    excess = est.final.mid - 1
    assert Fraction(28, 1000) < excess < Fraction(295, 10000)


def test_tau_q_equal_one_skipped():
    est = estimate_tau(fib_seq(20), GOLDEN, 1, prec=64)
    first = est.trace[0]
    assert first.n == 2 and first.value is None and "Q=1" in first.note


def test_tau_exact_vanishing_forms_unknown():
    half = Basis((parse_real("1/2"),))
    recs = [FormRecord(n=n, Q=2**n, ell=(3 * n, 6 * n), delta=(1, 1))
            for n in range(1, 6)]
    est = estimate_tau(FormSequence(recs), half, 1, prec=64)
    assert all(e.value is None for e in est.trace)
    assert est.final is None
    assert est.consistent is TriBool.UNKNOWN
    assert est.oscillation is None


def test_tau_escalates_precision_when_needed():
    est = estimate_tau(fib_seq(150), GOLDEN, 1, prec=64)
    assert est.precision_used > 64
    assert est.final is not None
    assert abs(est.final.mid - 1) < Fraction(2, 100)


def test_tau_validations():
    seq = fib_seq(10)
    with pytest.raises(ValidationError):
        estimate_tau(seq, GOLDEN, 0)
    with pytest.raises(ValidationError):
        estimate_tau(seq, GOLDEN, 2)
    short = FormSequence(seq.records[:2])
    with pytest.raises(ValidationError):
        estimate_tau(short, GOLDEN, 1)


def test_gamma_growth_geometric():
    recs = [FormRecord(n=n, Q=2**n, ell=(3 * 2**(n // 2), 2**n),
                       delta=(2**(n // 2), 1))
            for n in range(1, 46)]
    gg = estimate_gamma_growth(FormSequence(recs), prec=128)
    g1 = gg.gamma_final[0]
    assert abs(g1.mid - Fraction(22, 45)) < Fraction(1, 2**80)
    g2 = gg.gamma_final[1]
    assert g2.is_exact and g2.mid == 0
    assert abs(gg.growth_final.mid - Fraction(45, 44)) < Fraction(1, 2**80)
    assert gg.growth_consistent is TriBool.TRUE
    assert gg.skipped == []


def test_growth_divergence_flagged():
    recs = [FormRecord(n=n, Q=2**(n * n), ell=(1, 2**(n * n)), delta=(1, 1))
            for n in range(1, 16)]
    gg = estimate_gamma_growth(FormSequence(recs), prec=64)
    assert gg.growth_consistent is TriBool.FALSE


def test_gamma_q_equal_one_skipped():
    gg = estimate_gamma_growth(fib_seq(12), prec=64)
    assert gg.skipped and gg.skipped[0][0] == 2
    assert gg.gamma[0][0].value is None


def test_dimension_bound_pinned():
    quarter = BallReal.exact(Fraction(1, 4), 128)
    half = BallReal.exact(Fraction(1, 2), 128)
    two = BallReal.exact(2, 128)
    d = dimension_bound(quarter, two).value
    assert abs(d.mid - 3) < Fraction(1, 2**100) and d.rad < Fraction(1, 2**90)
    d2 = dimension_bound(half, two).value
    assert abs(d2.mid - 2) < Fraction(1, 2**100)


def test_irrationality_bound_pinned():
    quarter = BallReal.exact(Fraction(1, 4), 128)
    half = BallReal.exact(Fraction(1, 2), 128)
    two = BallReal.exact(2, 128)
    m = irrationality_bound(quarter, two).value
    assert abs(m.mid - Fraction(3, 2)) < Fraction(1, 2**100)
    m2 = irrationality_bound(half, two).value
    assert abs(m2.mid - 2) < Fraction(1, 2**100)


def test_measure_bounds_apery_closed_form():
    e = parse_real("e").at(256)
    s2 = parse_real("sqrt(2)").at(256)
    unit4 = (1 + s2).pow(4)
    alpha = e.pow(3) / unit4
    beta = e.pow(3) * unit4
    dim = dimension_bound(alpha, beta).value
    mu = irrationality_bound(alpha, beta).value
    mm_a = mpmath.e**3 / (1 + mpmath.sqrt(2))**4
    mm_b = mpmath.e**3 * (1 + mpmath.sqrt(2))**4
    dim_true = _frac(1 - mpmath.log(mm_a) / mpmath.log(mm_b))
    mu_true = _frac(1 - mpmath.log(mm_b) / mpmath.log(mm_a))
    assert dim.lower - Fraction(1, 10**40) <= dim_true <= dim.upper + Fraction(1, 10**40)
    assert mu.lower - Fraction(1, 10**40) <= mu_true <= mu.upper + Fraction(1, 10**40)
    assert abs(dim.mid - Fraction("1.0805")) < Fraction(1, 10**3)
    assert abs(mu.mid - Fraction("13.4178")) < Fraction(1, 10**3)


def test_measure_bound_preconditions():
    two = BallReal.exact(2, 64)
    half = BallReal.exact(Fraction(1, 2), 64)
    straddle = BallReal.from_endpoints(Fraction(9, 10), Fraction(11, 10), 64)
    with pytest.raises(UncertifiedComparison):
        dimension_bound(straddle, two)
    with pytest.raises(ValidationError):
        dimension_bound(two, two)          # alpha >= 1, certified
    with pytest.raises(ValidationError):
        irrationality_bound(half, half)    # beta <= 1, certified
    wide = BallReal.from_endpoints(Fraction(-1, 10), Fraction(1, 10), 64)
    with pytest.raises(UncertifiedComparison):
        dimension_bound(wide, two)


def test_measure_bound_monotonicity():
    rng = random.Random(20260823)
    from latforms.numerics import tri_compare
    for _ in range(40):
        a1 = rng.randrange(4, 40)
        a2 = rng.randrange(a1 + 4, 60)
        b = rng.randrange(130, 400)
        alpha1 = BallReal.exact(Fraction(a1, 64), 128)
        alpha2 = BallReal.exact(Fraction(a2, 64), 128)
        beta = BallReal.exact(Fraction(b, 64), 128)
        d1 = dimension_bound(alpha1, beta).value
        d2 = dimension_bound(alpha2, beta).value
        assert tri_compare(d1, d2) is TriBool.TRUE  # smaller alpha, larger bound
        m1 = irrationality_bound(alpha1, beta).value
        beta_hi = BallReal.exact(Fraction(b + 64, 64), 128)
        m_hi = irrationality_bound(alpha1, beta_hi).value
        assert tri_compare(m_hi, m1) is TriBool.TRUE  # larger beta, larger bound


def test_fit_alpha_beta_fibonacci():
    alpha, beta = fit_alpha_beta(fib_seq(50), GOLDEN, 1, prec=128)
    inv_phi = _frac(1 / mpmath.phi)
    assert abs(alpha.mid - inv_phi) < Fraction(1, 10**10)
    mu = irrationality_bound(alpha, beta).value
    assert abs(mu.mid - 2) < Fraction(1, 100)


def test_fit_requires_usable_records():
    half = Basis((parse_real("1/2"),))
    recs = [FormRecord(n=n, Q=2**n, ell=(n, 2 * n), delta=(1, 1))
            for n in range(1, 5)]
    with pytest.raises(ValidationError):
        fit_alpha_beta(FormSequence(recs), half, 1)


def test_profile_and_json():
    prof = profile(fib_seq(30), GOLDEN, prec=96)
    assert len(prof.tau) == 1 and prof.tau[0] is not None
    assert prof.gamma[0].is_exact and prof.gamma[0].mid == 0
    assert prof.growth is not None
    doc = prof.to_json()
    assert set(doc) == {"tau", "gamma", "growth", "oscillation"}
    assert doc["tau"][0]["prec"] == 64


def test_last_third_rule_shared():
    """The oscillation, growth and sup-norm diagnostics read the same
    window: the last third of the trace, at least two entries, and any
    undecided entry in it makes the answer Unknown."""
    from latforms.exponents import _last_third, _near_one
    assert _last_third([1, 2, 3, 4, 5, 6]) == [5, 6]
    assert _last_third([1, 2, 3, 4, 5, 6, 7]) == [5, 6, 7]
    assert _last_third([None, 2, 3]) == [2, 3]
    assert _last_third([1, None, 3]) is None
    assert _last_third([1]) is None
    one = BallReal.exact(1, 64)
    tol = Fraction(1, 16)
    assert _near_one([None, one, one + tol], tol) is TriBool.TRUE
    assert _near_one([one, one + 2 * tol], tol) is TriBool.FALSE
    assert _near_one([one, None], tol) is TriBool.UNKNOWN
    # the reports use it: a geometric family is near 1, growth and all
    seq = FormSequence([FormRecord(n=n, Q=2 ** n, ell=(2 ** n, 2 ** n),
                                   delta=(1, 1)) for n in range(1, 61)])
    assert estimate_gamma_growth(seq).growth_consistent is TriBool.TRUE


def test_trace_checks_false_only_past_tol():
    """The spread and the distance to 1 are False only when their certain
    lower bound exceeds tol; a ball that straddles tol is Unknown."""
    from latforms.exponents import TraceEntry, _near_one
    tol = Fraction(1, 16)

    def ball(mid, rad):
        return BallReal.from_endpoints(Fraction(mid) - Fraction(rad),
                                       Fraction(mid) + Fraction(rad), 64)
    # spread of the straddling pair: at most 1/16 + 1/32, at least
    # 1/16 - 1/32; the pair beyond it spreads at least 3/16 - 1/32
    straddle = [ball(0, Fraction(1, 64)), ball(tol, Fraction(1, 64))]
    beyond = [ball(0, Fraction(1, 64)), ball(3 * tol, Fraction(1, 64))]
    for values, want in ((straddle, TriBool.UNKNOWN), (beyond, TriBool.FALSE)):
        trace = [TraceEntry(n, v) for n, v in enumerate(values)]
        spread, ok = _oscillation(trace, tol)
        assert ok is want
        assert spread == max(v.upper for v in values) - min(
            v.lower for v in values)
        assert _near_one([ball(1, 0)] + [v + 1 for v in values], tol) is want
    assert _near_one([ball(1, 0), ball(1 - tol, Fraction(1, 64))],
                     tol) is TriBool.UNKNOWN
    assert _near_one([ball(1, 0), ball(1 - 3 * tol, Fraction(1, 64))],
                     tol) is TriBool.FALSE


def test_report_json_at_high_precision():
    # at 16384 bits a trace's spread has a denominator of about 4900
    # digits, past Python's 4300-digit int/str limit
    from latforms.criteria import NesterenkoReport
    from latforms.exponents import ExponentProfile, TauEstimate, TraceEntry
    from latforms.exponents import _oscillation
    from latforms.numerics import decimal_to_int
    a = BallReal.exact(1, 16384)
    b = a + BallReal.exact(Fraction(1, 3), 16384)
    trace = [TraceEntry(1, a), TraceEntry(2, b)]
    spread, ok = _oscillation(trace, Fraction(1, 2))
    est = TauEstimate(i=1, trace=trace, final=b, oscillation=spread,
                      consistent=ok, precision_used=16384)
    prof = ExponentProfile(tau=[b], gamma=[None, None], growth=None,
                           tau_traces=[est], gamma_growth=None)
    nes = NesterenkoReport(divisor_violations=[], tau=[est], norm_trace=[],
                           norm_consistent=TriBool.UNKNOWN,
                           consistent=TriBool.UNKNOWN)
    for text in (prof.to_json()["oscillation"][0],
                 nes.to_json()["tau"][0]["oscillation"]):
        num, den = text.split("/")
        assert len(den) > 4300
        assert Fraction(decimal_to_int(num), decimal_to_int(den)) == spread


# ---------------------------------------------------------------------------
# the per-sequence log table


def forward_tau(seq, basis, i, prec, tol=Fraction(1, 20)):
    """Oracle: estimate_tau as one loop over the records, first to last,
    each record evaluated and logged on its own."""
    trace = []
    max_prec = prec
    for rec in seq:
        if rec.Q == 1:
            trace.append(TraceEntry(rec.n, None, "Q=1: log scale vanishes"))
            continue
        ball, used = _certified_nonzero_eval(seq, basis, rec.n, i, prec)
        max_prec = max(max_prec, used)
        if ball is None:
            trace.append(TraceEntry(rec.n, None,
                                    "enclosure of L_n(e_i) contains 0"))
            continue
        lnq = BallReal.exact(rec.Q, used).log()
        trace.append(TraceEntry(rec.n, -(ball.log() / lnq)))
    final = trace[-1].value if trace else None
    oscillation, consistent = _oscillation(trace, tol)
    return TauEstimate(i=i, trace=trace, final=final, oscillation=oscillation,
                       consistent=consistent, precision_used=max_prec)


def _digest(*balls):
    blob = json.dumps([b.to_json() for b in balls], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_apery():
    """Apery at n=200 and 2000 bits, in the benchmark's order: tau, then
    the fit and the measure bound, on one zeta(3) handle."""
    seq = gen_apery_zeta3(200, prec=2000)
    basis = Basis((parse_real("zeta3"),))
    est = estimate_tau(seq, basis, 1, prec=2000)
    alpha, beta = fit_alpha_beta(seq, basis, 1, prec=2000)
    return seq, est, alpha, beta, irrationality_bound(alpha, beta).value


@pytest.fixture(scope="module")
def apery_run():
    return run_apery()


def test_apery_fit_pinned(apery_run):
    """Moved from 6a55a15e... to 1f4f6d58... when the log of an inexact
    ball came to be bracketed at the bits the ball holds: alpha and the
    bound keep their radii, and both ends of alpha move by -2.05e-46 and
    of the bound by -2.92e-45; beta is unchanged.  Moved again, to
    2232b7de..., when midpoints came to round halves to even: the
    midpoints of alpha, beta and the bound moved by less than 2^-1988 and
    every radius and the tau trace are the same.  Moved again, to
    4d182f64..., when a constant's ball came to be computed at 64 guard
    bits and rounded: alpha's midpoint moved by less than 2^-2120, beta
    and the bound are the same, every radius is the same, and the tau
    entries of records 197 to 200, at 4000 bits, are narrower by 0.002% to
    0.003% of their radius.  Moved again, to 62a1ddc0..., when ln came
    to be reduced by a table of ln(1 + 2^-j): alpha and the tau trace are
    the same, beta keeps its midpoint and both its ends move inward by
    1.46e-606 (its radius, 5.672e-598, narrows), and the bound keeps its
    radius while its midpoint moves by -3.33e-615.  Moved again, to
    c4bf3103..., when rounding came to take its grid from the value of a
    quotient, not its lowest terms: every radius but beta's is the same,
    beta's narrows from 5.6716e-598 to 5.6095e-598 with its midpoint moved
    by -5.2e-1200, and alpha's midpoint moves by 1.28e-603 and the bound's
    by -1.38e-608; 86 of the 200 tau entries narrow, by up to 0.47% of
    their radius."""
    *_, alpha, beta, mu = apery_run
    assert _digest(alpha, beta, mu) == \
        "c4bf31037c72a08bee12c806a3630a872d915eaeffe9168ac53d9bef495e2009"


def test_fit_independent_of_call_order(apery_run):
    """A fit on a fresh zeta(3) handle gives the bytes it gives after
    estimate_tau has escalated the handle."""
    seq, _, alpha, beta, _ = apery_run
    fresh = fit_alpha_beta(seq, Basis((parse_real("zeta3"),)), 1, prec=2000)
    assert _digest(*fresh) == _digest(alpha, beta)


def test_tau_independent_of_earlier_reads_of_xi():
    """A golden basis read at 1024 bits first gives the tau trace of a
    fresh one: a constant's ball depends on the precision asked alone."""
    fresh = estimate_tau(gen_fibonacci(60), Basis((parse_real("golden"),)),
                         1, prec=64)
    read = Basis((parse_real("golden"),))
    read.xi[0].at(1024)
    again = estimate_tau(gen_fibonacci(60), read, 1, prec=64)
    assert again.trace == fresh.trace and again.final == fresh.final


def _interval(ball):
    """perfbench's summary of a ball: its ends rounded outward to 40
    decimal places."""
    return (Fraction(math.floor(ball.lower * 10 ** 40), 10 ** 40),
            Fraction(math.ceil(ball.upper * 10 ** 40), 10 ** 40))


def test_apery_within_perfbench_window_of_the_prec8_log(apery_run,
                                                        monkeypatch):
    """perfbench checks the Apery tau, fit and bound against a reference
    window: the reference interval widened by 10^-30.  Here the reference
    is the run with every log bracketed at prec + 8 bits, so a log whose
    guard bits are too few fails here before the benchmark runs."""
    _, est, alpha, beta, mu = apery_run
    monkeypatch.setattr(BallReal, "log", prec8_log)
    _, old_est, *old = run_apery()
    margin = Fraction(1, 10 ** 30)
    for new, ref in zip((est.final, alpha, beta, mu), (old_est.final, *old)):
        (lo, hi), (ref_lo, ref_hi) = _interval(new), _interval(ref)
        assert ref_lo - margin <= lo and hi <= ref_hi + margin


def _mp_tau(rec, xi, prec):
    """-ln|l_1 - l_2 xi| / ln Q_n by mpmath at 4 prec bits, a Fraction."""
    with mpmath.workprec(4 * prec):
        val = -mpmath.log(abs(rec.ell[0] - rec.ell[1] * xi())) \
            / mpmath.log(rec.Q)
        man, exp = val.man_exp    # man is |mantissa|
    return Fraction(man if val >= 0 else -man) * Fraction(2) ** exp


def _assert_matches_forward(seq, est, oracle, xi):
    assert est.trace == oracle.trace
    assert est.final == oracle.final
    assert est.precision_used == oracle.precision_used
    assert est.consistent is oracle.consistent
    assert len(est.trace) == len(seq)
    for entry, rec in zip(est.trace, seq):
        assert entry.n == rec.n
        if entry.value is None:
            continue
        # the entry's precision, not prec: an escalated entry cancels more
        w = entry.value.prec
        t = _mp_tau(rec, xi, w)
        slack = Fraction(1, 2 ** (2 * w))
        assert entry.value.lower - slack <= t <= entry.value.upper + slack


def test_tau_matches_forward_oracle_apery(apery_run):
    seq, est, *_ = apery_run
    oracle = forward_tau(seq, Basis((parse_real("zeta3"),)), 1, 2000)
    _assert_matches_forward(seq, est, oracle, lambda: mpmath.zeta(3))


def _rational_seq():
    """Fibonacci records, with an exact zero of L_n(e_1) at xi = 1/3."""
    f = _fib(30)
    recs = [FormRecord(n=n, Q=f[n], ell=(f[n + 1], f[n]), delta=(1, 1))
            for n in range(2, 30) if n != 9]
    recs.append(FormRecord(n=9, Q=f[9], ell=(f[9], 3 * f[9]), delta=(1, 1)))
    return FormSequence(recs)


@pytest.mark.parametrize("seq, xi, mp_xi, prec", [
    (fib_seq(150), "golden", lambda: mpmath.phi, 64),
    (_rational_seq(), "1/3", lambda: mpmath.mpf(1) / 3, 64),
    (fib_seq(60), "0.5±0.01", lambda: mpmath.mpf(1) / 2, 128),
])
def test_tau_matches_forward_oracle(seq, xi, mp_xi, prec):
    est = estimate_tau(seq, Basis((parse_real(xi),)), 1, prec=prec)
    oracle = forward_tau(seq, Basis((parse_real(xi),)), 1, prec)
    _assert_matches_forward(seq, est, oracle, mp_xi)


def test_log_table_computes_each_log_once(monkeypatch):
    calls = []
    log = BallReal.log
    monkeypatch.setattr(BallReal, "log",
                        lambda self: calls.append(self) or log(self))

    def count(fn, *args, **kw):
        calls.clear()
        fn(*args, **kw)
        return len(calls)

    seq = fib_seq(40)
    basis = Basis((parse_real("golden"),))
    assert count(estimate_tau, seq, basis, 1, prec=128) > 0
    assert count(fit_alpha_beta, seq, basis, 1, prec=128) == 0
    assert count(estimate_tau, seq, basis, 1, prec=128) == 0
    # ln Q_n at 128 bits is in the table; so is the sup-norm F_(n+1) = Q_(n+1)
    # of every record but the last
    assert count(estimate_gamma_growth, seq, prec=128) == 0
    assert count(check_nesterenko, seq, basis, prec=128) == 1
    assert count(estimate_tau, seq, basis, 1, prec=192) > 0
    assert count(estimate_tau, seq, Basis((parse_real("golden"),)), 1,
                 prec=128) > 0


def _asked(handle):
    """The precisions handle.at is asked for, appended as it is."""
    asked = []
    at = handle.at
    handle.at = lambda prec: asked.append(prec) or at(prec)
    return asked


def test_fit_on_a_capped_basis_asks_no_more_than_its_cap():
    """The last of 150 golden records need 256 bits to exclude 0: a fit on
    an uncapped basis asks for them, one on a basis capped at 128 bits
    does not."""
    for cap, most in ((None, 256), (128, 128)):
        golden = parse_real("golden")
        asked = _asked(golden)
        basis = Basis((golden,)) if cap is None else Basis((golden,), cap)
        fit_alpha_beta(fib_seq(150), basis, 1)
        assert max(asked) == most


def test_fit_after_tau_on_a_capped_basis_computes_no_log(monkeypatch):
    """estimate_tau and fit_alpha_beta read the same rows of a capped
    basis, whose last records stay undecided at the cap."""
    calls = []
    log = BallReal.log
    monkeypatch.setattr(BallReal, "log",
                        lambda self: calls.append(self) or log(self))
    seq = fib_seq(150)
    basis = Basis((parse_real("golden"),), 128)
    est = estimate_tau(seq, basis, 1)
    assert est.precision_used == 128 and est.trace[-1].value is None
    calls.clear()
    fit_alpha_beta(seq, basis, 1)
    assert calls == []


def test_log_table_goes_with_its_sequence():
    seq = fib_seq(40)
    estimate_tau(seq, GOLDEN, 1, prec=128)
    fit_alpha_beta(seq, GOLDEN, 1, prec=128)
    estimate_gamma_growth(seq, prec=128)
    ref = weakref.ref(seq)
    del seq
    assert ref() is None


if __name__ == "__main__":
    # the digest test_apery_fit_pinned pins
    *_, alpha, beta, mu = run_apery()
    print(_digest(alpha, beta, mu))
