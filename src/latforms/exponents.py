"""Finite-data estimation of the asymptotic exponents the criteria consume.

For a sequence of forms L_n with scales Q_n the quantities of interest are

    tau_i:    |L_n(e_i)| = Q_n^(-tau_i + o(1))      (decay/growth exponents)
    gamma_i:  delta_{i,n} = Q_n^(gamma_i + o(1))    (divisor growth)
    growth:   log Q_{n+1} / log Q_n -> 1            (quasi-geometric scales)

Every estimate is the finite-n log ratio, returned as a certified ball.  A
trace entry whose underlying enclosure cannot be separated from zero at the
precision cap is reported Unknown rather than guessed.  Measure bounds
(irrationality exponent / dimension lower bound) are evaluated from certified
alpha, beta enclosures with the preconditions 0 < alpha < 1 < beta checked,
not assumed.

Each sequence keeps one table of the certified logs read off it: ln of an
exact integer per (x, prec), whose ratios ln x / ln Q_n _log_ratio gives
the gamma, growth and norm traces, and per (basis, i, prec) one row per
record of ln|L_n(e_i)| and ln Q_n at the precision asked for, whatever
precision separated L_n(e_i) from 0 (_log_rows).  ln Q_n in a row is the
table's entry (Q_n, prec), the one _log_ratio reads.  estimate_tau,
fit_alpha_beta, estimate_gamma_growth and check_nesterenko read it, so
each log is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import (
    BallReal,
    TriBool,
    UncertifiedComparison,
    _enclose,
    escalate,
    jsonable,
    tri_compare,
)
from .model import Basis, FormSequence, ValidationError, eval_at_basis

__all__ = [
    "TraceEntry",
    "TauEstimate",
    "GammaGrowth",
    "ExponentProfile",
    "MeasureBound",
    "estimate_tau",
    "estimate_gamma_growth",
    "fit_alpha_beta",
    "dimension_bound",
    "irrationality_bound",
    "profile",
]


@dataclass(frozen=True)
class TraceEntry:
    n: int
    value: Optional[BallReal]  # None: skipped or undecidable at the cap
    note: str = ""


@dataclass
class TauEstimate:
    i: int
    trace: list[TraceEntry]
    final: Optional[BallReal]
    oscillation: Optional[Fraction]  # sup of pairwise spread, last third
    consistent: TriBool
    precision_used: int


@dataclass
class GammaGrowth:
    gamma: list[list[TraceEntry]]   # one trace per coordinate, 1-based outside
    growth: list[TraceEntry]
    gamma_final: list[Optional[BallReal]]
    growth_final: Optional[BallReal]
    growth_consistent: TriBool
    skipped: list[tuple[int, str]]


@dataclass
class ExponentProfile:
    tau: list[Optional[BallReal]]
    gamma: list[Optional[BallReal]]
    growth: Optional[BallReal]
    tau_traces: list[TauEstimate]
    gamma_growth: GammaGrowth

    def to_json(self) -> dict:
        return jsonable({
            "tau": self.tau, "gamma": self.gamma, "growth": self.growth,
            "oscillation": [t.oscillation for t in self.tau_traces],
        })


@dataclass(frozen=True)
class MeasureBound:
    alpha: BallReal
    beta: BallReal
    value: BallReal


def _certified_nonzero_eval(seq: FormSequence, basis: Basis, n: int, i: int,
                            prec: int) -> tuple[Optional[BallReal], int]:
    """|L_n(e_i)|, doubling the precision up to basis.cap until 0 is
    excluded; None if it is not, or if the form is exactly zero."""
    def at(w):
        ball = abs(eval_at_basis(seq, basis, n, i, w))
        return ball if ball.sign() is not None else TriBool.UNKNOWN
    ball, used = escalate(at, prec, basis.cap)
    return (ball if ball is not TriBool.UNKNOWN and ball.sign() == 1
            else None), used


def _ln(seq: FormSequence, x: int, prec: int) -> BallReal:
    """ln x for an integer x >= 1 at prec, kept in the log table of seq."""
    ln = seq._logs.get((x, prec))
    if ln is None:
        ln = seq._logs[(x, prec)] = BallReal.exact(x, prec).log()
    return ln


def _log_ratio(seq: FormSequence, x: int, Q: int,
               prec: int) -> Optional[BallReal]:
    """ln x / ln Q for integers x >= 0, Q >= 1 from the log table of seq:
    None where Q = 1 or x = 0, and an exact 0 for x = 1 without a log."""
    if Q == 1 or x == 0:
        return None
    if x == 1:
        return BallReal.exact(0, prec)
    return _ln(seq, x, prec) / _ln(seq, Q, prec)


def _log_rows(seq: FormSequence, basis: Basis, i: int,
              prec: int) -> list[tuple]:
    """Per record: (n, used, ln|L_n(e_i)|, ln Q_n, note), or None for both
    logs with the note of a skipped record; `used` is the precision that
    separated L_n(e_i) from 0.  Both logs are taken at prec, whatever
    `used` is: ln Q_n, of an exact integer, is the table's (Q_n, prec)
    entry, and ln|L_n(e_i)| the log of the separated ball rounded to prec
    (BallReal.log brackets it at the bits that ball holds plus guard bits,
    where that is below prec + 8).  Where that rounding would take the
    ball back to 0, as it can when its radius is within a relative
    2^-min(prec, 31) or so of its midpoint, the unrounded ball's log is
    rounded to prec instead.  Built once per (basis, i, prec) in the
    table of seq."""
    key = (basis, i, prec)
    if key not in seq._logs:
        rows = []
        for rec in seq.records:
            if rec.Q == 1:
                rows.append((rec.n, prec, None, None,
                             "Q=1: log scale vanishes"))
                continue
            ball, used = _certified_nonzero_eval(seq, basis, rec.n, i, prec)
            if ball is None:
                rows.append((rec.n, used, None, None,
                             "enclosure of L_n(e_i) contains 0"))
                continue
            rounded = ball.round_to(prec)
            ln_l = (rounded.log() if rounded.sign() == 1
                    else ball.log().round_to(prec))
            rows.append((rec.n, used, ln_l, _ln(seq, rec.Q, prec), ""))
        seq._logs[key] = rows
    return seq._logs[key]


def estimate_tau(seq: FormSequence, basis: Basis, i: int, prec: int = 64,
                 tol: Fraction = Fraction(1, 20)) -> TauEstimate:
    """Trace of tau-hat_i(n) = -log|L_n(e_i)| / log Q_n, plus diagnostics."""
    if not 1 <= i <= seq.p - 1:
        raise ValidationError(f"i={i} must be in 1..{seq.p - 1}")
    if len(seq) < 3:
        raise ValidationError("need at least 3 records")
    rows = _log_rows(seq, basis, i, prec)
    trace = [TraceEntry(n, None if ln_l is None else -(ln_l / ln_q), note)
             for n, _, ln_l, ln_q, note in rows]
    oscillation, consistent = _oscillation(trace, tol)
    return TauEstimate(i=i, trace=trace, final=trace[-1].value,
                       oscillation=oscillation, consistent=consistent,
                       precision_used=max(used for _, used, *_ in rows))


def _last_third(values: Sequence) -> Optional[Sequence[BallReal]]:
    """Last third of a trace (>= 2 entries); None if shorter or undecided."""
    tail = values[-max(2, (len(values) + 2) // 3):]
    return None if len(tail) < 2 or None in tail else tail


def _within(hi: Fraction, lo: Fraction, tol: Fraction) -> TriBool:
    """Certified 'x <= tol' for a quantity x known to lie in [lo, hi]."""
    if hi <= tol:
        return TriBool.TRUE
    return TriBool.FALSE if lo > tol else TriBool.UNKNOWN


def _oscillation(trace: Sequence[TraceEntry],
                 tol: Fraction) -> tuple[Optional[Fraction], TriBool]:
    """Sup bound on pairwise spread over the last third of the trace, and
    whether the spread is certainly within tol."""
    tail = _last_third([e.value for e in trace])
    if tail is None:
        return None, TriBool.UNKNOWN
    lo, hi = [v.lower for v in tail], [v.upper for v in tail]
    spread = max(hi) - min(lo)
    return spread, _within(spread, max(lo) - min(hi), tol)


def _near_one(values: Sequence, tol: Fraction) -> TriBool:
    """Whether the last third of a trace certainly stays within tol of 1."""
    tail = _last_third(values)
    if tail is None:
        return TriBool.UNKNOWN
    lo, hi = [v.lower for v in tail], [v.upper for v in tail]
    return _within(max(max(hi) - 1, 1 - min(lo)),
                   max(max(lo) - 1, 1 - min(hi)), tol)


def estimate_gamma_growth(seq: FormSequence, prec: int = 64,
                          tol: Fraction = Fraction(1, 20)) -> GammaGrowth:
    """Traces gamma-hat_i(n) = log delta_{i,n} / log Q_n and the growth ratio."""
    if len(seq) < 3:
        raise ValidationError("need at least 3 records")
    skipped = [(rec.n, "Q=1: log scale vanishes") for rec in seq
               if rec.Q == 1]
    gamma = [[TraceEntry(rec.n, _log_ratio(seq, rec.delta[i], rec.Q, prec),
                         "Q=1" if rec.Q == 1 else "") for rec in seq]
             for i in range(seq.p)]
    # the scales strictly increase, so only the first can be 1
    growth = [TraceEntry(cur.n, _log_ratio(seq, nxt.Q, cur.Q, prec),
                         "Q=1 neighbour" if cur.Q == 1 else "")
              for cur, nxt in zip(seq.records, seq.records[1:])]
    gc = _near_one([e.value for e in growth], tol)
    return GammaGrowth(gamma=gamma, growth=growth,
                       gamma_final=[g[-1].value for g in gamma],
                       growth_final=growth[-1].value, growth_consistent=gc,
                       skipped=skipped)


def fit_alpha_beta(seq: FormSequence, basis: Basis, i: int = 1,
                   prec: int = 64) -> tuple[BallReal, BallReal]:
    """Fit |L_n(e_i)| ~ alpha^n and Q_n ~ beta^n by log-linear least squares.

    With N usable records and integer weights k_n = N n - sum n, the
    regression slope of the logs y_n is N sum k_n y_n / sum k_n^2.  Each
    slope is that exact function of certified log enclosures, rounded
    once (_slope), so the returned (alpha, beta) are themselves certified
    balls for the fitted values.  Records with Q=1 or with enclosures not
    separable from zero are dropped from the fit.
    """
    usable = [(n, ln_l, ln_q) for n, _, ln_l, ln_q, _ in
              _log_rows(seq, basis, i, prec) if ln_l is not None]
    if len(usable) < 2:
        raise ValidationError("fewer than 2 usable records for the fit")
    ns, ln_ls, ln_qs = zip(*usable)
    N, sx = len(ns), sum(ns)
    ks = [N * n - sx for n in ns]
    den = sum(k * k for k in ks)
    return (_slope(ks, ln_ls, N, den, prec).exp(),
            _slope(ks, ln_qs, N, den, prec).exp())


def _slope(ks: Sequence[int], ys: Sequence[BallReal], N: int, den: int,
           prec: int) -> BallReal:
    """N sum k y / den: the midpoints and radii of the balls y summed
    exactly as integers at their least exponent (|k| weighting a radius),
    then rounded and divided once."""
    e = min(y._e for y in ys)
    m = r = 0
    for k, y in zip(ks, ys):
        s = y._e - e
        m += k * y._m << s
        r += abs(k) * y._r << s
    return _enclose(N * m, N * r, den, prec, e)


def _require_alpha_beta(alpha: BallReal, beta: BallReal) -> None:
    checks = [
        (tri_compare(alpha, 0), "alpha > 0"),
        (tri_compare(1, alpha), "alpha < 1"),
        (tri_compare(beta, 1), "beta > 1"),
    ]
    for got, what in checks:
        if got is TriBool.UNKNOWN:
            raise UncertifiedComparison(f"cannot certify {what} at this precision")
        if got is TriBool.FALSE:
            raise ValidationError(f"precondition {what} certifiedly fails")


def dimension_bound(alpha: BallReal, beta: BallReal) -> MeasureBound:
    """1 - log(alpha)/log(beta): lower bound for the dimension of the span."""
    _require_alpha_beta(alpha, beta)
    value = 1 - alpha.log() / beta.log()
    return MeasureBound(alpha=alpha, beta=beta, value=value)


def irrationality_bound(alpha: BallReal, beta: BallReal) -> MeasureBound:
    """1 - log(beta)/log(alpha): upper bound for the irrationality exponent."""
    _require_alpha_beta(alpha, beta)
    value = 1 - beta.log() / alpha.log()
    return MeasureBound(alpha=alpha, beta=beta, value=value)


def profile(seq: FormSequence, basis: Basis, prec: int = 64,
            tol: Fraction = Fraction(1, 20)) -> ExponentProfile:
    """Full exponent profile: every tau trace, gamma traces, growth."""
    taus = [estimate_tau(seq, basis, i, prec, tol)
            for i in range(1, seq.p)]
    gg = estimate_gamma_growth(seq, prec, tol)
    return ExponentProfile(
        tau=[t.final for t in taus],
        gamma=gg.gamma_final,
        growth=gg.growth_final,
        tau_traces=taus,
        gamma_growth=gg,
    )
