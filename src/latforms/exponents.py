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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import (
    BallReal,
    PREC_CAP,
    TriBool,
    UncertifiedComparison,
    escalate,
    fraction_to_str,
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
        def ball(b):
            return None if b is None else b.round_to(64).to_json()
        return {
            "tau": [ball(b) for b in self.tau],
            "gamma": [ball(b) for b in self.gamma],
            "growth": ball(self.growth),
            "oscillation": [None if t.oscillation is None
                            else fraction_to_str(t.oscillation)
                            for t in self.tau_traces],
        }


@dataclass(frozen=True)
class MeasureBound:
    alpha: BallReal
    beta: BallReal
    value: BallReal


def _certified_nonzero_eval(seq: FormSequence, basis: Basis, n: int, i: int,
                            prec: int, cap: int = PREC_CAP
                            ) -> tuple[Optional[BallReal], int]:
    """|L_n(e_i)| with precision doubling until 0 is excluded (or cap); None
    when it is not, or when the form is exactly zero (no escalation helps)."""
    def at(w):
        ball = abs(eval_at_basis(seq, basis, n, i, w))
        return ball if ball.lower > 0 or ball.is_exact else TriBool.UNKNOWN
    ball, used = escalate(at, prec, cap)
    return (ball if ball is not TriBool.UNKNOWN and ball.lower > 0
            else None), used


def estimate_tau(seq: FormSequence, basis: Basis, i: int, prec: int = 64,
                 tol: Fraction = Fraction(1, 20),
                 cap: int = PREC_CAP) -> TauEstimate:
    """Trace of tau-hat_i(n) = -log|L_n(e_i)| / log Q_n, plus diagnostics."""
    if not 1 <= i <= seq.p - 1:
        raise ValidationError(f"i={i} must be in 1..{seq.p - 1}")
    if len(seq) < 3:
        raise ValidationError("need at least 3 records")
    trace: list[TraceEntry] = []
    max_prec = prec
    for rec in seq:
        if rec.Q == 1:
            trace.append(TraceEntry(rec.n, None, "Q=1: log scale vanishes"))
            continue
        ball, used = _certified_nonzero_eval(seq, basis, rec.n, i, prec, cap)
        max_prec = max(max_prec, used)
        if ball is None:
            trace.append(TraceEntry(rec.n, None,
                                    "enclosure of L_n(e_i) contains 0"))
            continue
        lnq = BallReal.exact(rec.Q, used).log()
        tau = -(ball.log() / lnq)
        trace.append(TraceEntry(rec.n, tau))
    final = trace[-1].value if trace else None
    oscillation, consistent = _oscillation(trace, tol)
    return TauEstimate(i=i, trace=trace, final=final, oscillation=oscillation,
                       consistent=consistent, precision_used=max_prec)


def _last_third(values: Sequence) -> Optional[Sequence[BallReal]]:
    """Last third of a trace (>= 2 entries); None if shorter or undecided."""
    tail = values[-max(2, (len(values) + 2) // 3):]
    return None if len(tail) < 2 or None in tail else tail


def _oscillation(trace: Sequence[TraceEntry],
                 tol: Fraction) -> tuple[Optional[Fraction], TriBool]:
    """Sup bound on pairwise spread over the last third of the trace."""
    tail = _last_third([e.value for e in trace])
    if tail is None:
        return None, TriBool.UNKNOWN
    spread = max(v.upper for v in tail) - min(v.lower for v in tail)
    return spread, TriBool.TRUE if spread <= tol else TriBool.FALSE


def _near_one(values: Sequence, tol: Fraction) -> TriBool:
    """Whether the last third of a trace stays within tol of 1."""
    tail = _last_third(values)
    if tail is None:
        return TriBool.UNKNOWN
    dev = max(max(v.upper - 1, 1 - v.lower) for v in tail)
    return TriBool.TRUE if dev <= tol else TriBool.FALSE


def estimate_gamma_growth(seq: FormSequence, prec: int = 64,
                          tol: Fraction = Fraction(1, 20)) -> GammaGrowth:
    """Traces gamma-hat_i(n) = log delta_{i,n} / log Q_n and the growth ratio."""
    if len(seq) < 3:
        raise ValidationError("need at least 3 records")
    skipped: list[tuple[int, str]] = []
    gamma: list[list[TraceEntry]] = [[] for _ in range(seq.p)]
    growth: list[TraceEntry] = []
    lnq_cache: dict[int, BallReal] = {}

    def lnq(Q: int) -> BallReal:
        if Q not in lnq_cache:
            lnq_cache[Q] = BallReal.exact(Q, prec).log()
        return lnq_cache[Q]

    for rec in seq:
        if rec.Q == 1:
            skipped.append((rec.n, "Q=1: log scale vanishes"))
            for i in range(seq.p):
                gamma[i].append(TraceEntry(rec.n, None, "Q=1"))
            continue
        denom = lnq(rec.Q)
        for i in range(seq.p):
            d = rec.delta[i]
            if d == 1:
                gamma[i].append(TraceEntry(rec.n, BallReal.exact(0, prec)))
            else:
                gamma[i].append(TraceEntry(rec.n, lnq(d) / denom))
    for cur, nxt in zip(seq.records, seq.records[1:]):
        if cur.Q == 1 or nxt.Q == 1:
            growth.append(TraceEntry(cur.n, None, "Q=1 neighbour"))
            continue
        growth.append(TraceEntry(cur.n, lnq(nxt.Q) / lnq(cur.Q)))
    gamma_final = [g[-1].value if g else None for g in gamma]
    growth_final = growth[-1].value if growth else None
    gc = _near_one([e.value for e in growth], tol)
    return GammaGrowth(gamma=gamma, growth=growth, gamma_final=gamma_final,
                       growth_final=growth_final, growth_consistent=gc,
                       skipped=skipped)


def fit_alpha_beta(seq: FormSequence, basis: Basis, i: int = 1,
                   prec: int = 64) -> tuple[BallReal, BallReal]:
    """Fit |L_n(e_i)| ~ alpha^n and Q_n ~ beta^n by log-linear least squares.

    The regression slope is an exact-rational-weighted sum of certified log
    enclosures, so the returned (alpha, beta) are themselves certified balls
    for the fitted values.  Records with Q=1 or with enclosures not separable
    from zero are dropped from the fit.
    """
    xs: list[int] = []
    ys_l: list[BallReal] = []
    ys_q: list[BallReal] = []
    for rec in seq:
        if rec.Q == 1:
            continue
        ball, used = _certified_nonzero_eval(seq, basis, rec.n, i, prec)
        if ball is None:
            continue
        xs.append(rec.n)
        ys_l.append(ball.log())
        ys_q.append(BallReal.exact(rec.Q, used).log())
    if len(xs) < 2:
        raise ValidationError("fewer than 2 usable records for the fit")
    mean = Fraction(sum(xs), len(xs))
    s2 = sum((Fraction(x) - mean) ** 2 for x in xs)
    slope_l = BallReal.exact(0, prec)
    slope_q = BallReal.exact(0, prec)
    for x, yl, yq in zip(xs, ys_l, ys_q):
        w = (Fraction(x) - mean) / s2
        slope_l = slope_l + yl * w
        slope_q = slope_q + yq * w
    return slope_l.exp(), slope_q.exp()


def _require_alpha_beta(alpha: BallReal, beta: BallReal) -> None:
    checks = [
        (tri_compare(alpha, 0), "alpha > 0"),
        (tri_compare(BallReal.exact(1, alpha.prec), alpha), "alpha < 1"),
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
            tol: Fraction = Fraction(1, 20),
            cap: int = PREC_CAP) -> ExponentProfile:
    """Full exponent profile: every tau trace, gamma traces, growth."""
    taus = [estimate_tau(seq, basis, i, prec, tol, cap)
            for i in range(1, seq.p)]
    gg = estimate_gamma_growth(seq, prec, tol)
    return ExponentProfile(
        tau=[t.final for t in taus],
        gamma=gg.gamma_final,
        growth=gg.growth_final,
        tau_traces=taus,
        gamma_growth=gg,
    )
