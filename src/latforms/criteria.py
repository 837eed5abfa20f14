"""Hypothesis checks and finite-Q conclusion verification for the
linear-independence criteria.

The pipeline: Phi maps a scale Q to the last usable record index; eps1_for
picks the dyadic iteration parameter; build_iterate_matrix stacks the forms
at the phi-iterated indices; matrix_condition_check certifies the
factorial-ratio condition that forces invertibility; fit_recurrence /
check_siegel handle the recurrence-based variant; verify_conclusion
exhaustively tests the lower bound |a_1 xi_1 + ... + a_p| > Q^(-1-eps) over
the admissible dual points at one concrete Q.

Everything that can be decided in exact integer/rational arithmetic is;
irrational data goes through certified balls with precision escalation, and
undecided comparisons surface as Unknown rather than being rounded away.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

from .numerics import (
    BallReal,
    PREC_CAP,
    TriBool,
    cmp_abs_le,
    cmp_abs_vs_power,
    escalate,
    floor_scaled_power,
    fraction_to_str,
    int_to_decimal,
    nth_root_floor,
    tri_compare,
)
from .model import (
    Basis,
    DualPoint,
    FormSequence,
    ValidationError,
    divisor_chain_check,
    eval_at_basis,
)
from .exponents import TauEstimate, estimate_tau, _near_one

__all__ = [
    "PhiIndex",
    "IterateMatrix",
    "RecurrenceFit",
    "SiegelReport",
    "NesterenkoReport",
    "Verdict",
    "RecordsExhausted",
    "BudgetExceeded",
    "phi_of_Q",
    "eps1_for",
    "build_iterate_matrix",
    "matrix_condition_check",
    "fit_recurrence",
    "check_siegel",
    "check_nesterenko",
    "verify_conclusion",
    "reduce_scale",
]

Rat = Union[int, Fraction]


class RecordsExhausted(LookupError):
    """Not enough records to complete the requested iteration."""


class BudgetExceeded(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(f"estimated {estimate} candidates exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# Phi and the iteration parameter


@dataclass(frozen=True)
class PhiIndex:
    Q: int
    value: int            # position into seq.records
    truncated: bool = False  # Q past the last record: value may undercount


def phi_of_Q(seq: FormSequence, Q: int) -> PhiIndex:
    """Largest record position k with Q_k <= Q (positions are 0-based)."""
    qs = seq.Qs
    if Q < qs[0]:
        raise ValidationError(f"Q={Q} below the first scale Q_0={qs[0]}")
    k = bisect_right(qs, Q) - 1
    return PhiIndex(Q=Q, value=k, truncated=Q > qs[-1])


def eps1_for(eps: Rat, tau: Sequence[Rat], p: int) -> Fraction:
    """Largest dyadic 2^-k with (1+e)^(p-1)-1 < eps/2, and for every tau_i<0
    also |tau_i|((1+e)^(p-1)-1) < eps/2."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    taus = [Fraction(t) for t in tau]
    if any(t <= -1 for t in taus):
        raise ValidationError("requires tau_i > -1")
    half = eps / 2
    k = 1
    while True:
        e1 = Fraction(1, 2 ** k)
        g = (1 + e1) ** (p - 1) - 1
        if g < half and all(-t * g < half for t in taus if t < 0):
            return e1
        k += 1


@dataclass(frozen=True)
class IterateMatrix:
    n: int                       # starting position
    eps1: Fraction
    indices: tuple[int, ...]     # positions, strictly increasing
    entries: tuple[tuple[BallReal, ...], ...]  # entry(i,j) below, 1-based

    def entry(self, i: int, j: int) -> BallReal:
        return self.entries[i - 1][j - 1]


def build_iterate_matrix(seq: FormSequence, basis: Basis, n: int,
                         eps1: Rat, prec: int = 64) -> IterateMatrix:
    """Rows are the forms at positions n, phi(n), ..., phi^(p-1)(n), where
    phi(m)-1 is Phi applied to Q_m^(1+eps1); columns evaluate e_1..e_p.

    Q_m^(1+eps1) is handled exactly: for eps1=u/v the threshold is
    floor((Q_m^(u+v))^(1/v)), which leaves Phi unchanged since scales are
    integers.
    """
    eps1 = Fraction(eps1)
    if eps1 <= 0:
        raise ValidationError("eps1 must be positive")
    p = seq.p
    if not 0 <= n < len(seq):
        raise RecordsExhausted(f"no record at position {n}")
    u, v = eps1.numerator, eps1.denominator
    positions = [n]
    for _ in range(p - 1):
        m = positions[-1]
        Qm = seq.records[m].Q
        threshold = nth_root_floor(Qm ** (u + v), v)
        phi = phi_of_Q(seq, threshold)
        nxt = phi.value + 1
        if phi.truncated or nxt >= len(seq):
            raise RecordsExhausted(
                f"phi iteration from position {m} needs records past the last one")
        positions.append(nxt)
    entries = tuple(
        tuple(eval_at_basis(seq, basis, seq.records[m].n, j, prec)
              for j in range(1, p + 1))
        for m in positions)
    return IterateMatrix(n=n, eps1=eps1, indices=tuple(positions),
                         entries=entries)


def matrix_condition_check(M: Sequence[Sequence[BallReal]],
                           p: Optional[int] = None) -> TriBool:
    """Certified check of |m_i'j m_ij'| <= |m_ij m_i'j'|/(p+1)! for all
    i<i', j<j'.  False dominates Unknown; an entry enclosure containing 0
    is a precondition failure, not an Unknown."""
    if p is None:
        p = len(M)
    if len(M) != p or any(len(row) != p for row in M):
        raise ValidationError("matrix must be p x p")
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            if not (m.lower > 0 or m.upper < 0):
                raise ValidationError(
                    f"entry ({i + 1},{j + 1}) enclosure does not exclude 0")
    fact = factorial(p + 1)
    saw_unknown = False
    for i1, i2 in itertools.combinations(range(p), 2):
        for j1, j2 in itertools.combinations(range(p), 2):
            cross = abs(M[i2][j1] * M[i1][j2]) * fact
            diag = abs(M[i1][j1] * M[i2][j2])
            t = tri_compare(cross, diag)   # certified cross*(p+1)! > diag
            if t is TriBool.TRUE:
                return TriBool.FALSE
            if t is TriBool.UNKNOWN:
                saw_unknown = True
    return TriBool.UNKNOWN if saw_unknown else TriBool.TRUE


# ---------------------------------------------------------------------------
# Recurrence fitting and the Siegel-type report


@dataclass(frozen=True)
class RecurrenceFit:
    n: int
    alpha: tuple[Fraction, ...]   # alpha_0(n) .. alpha_{p-1}(n)
    residual: bool                # substitution check passed exactly
    alpha0_zero: bool
    non_unique: bool              # singular-but-consistent system


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form, in place, over the leading
    ncols columns; trailing augmented entries ride along.  Every division is
    exact (Sylvester's identity), so rows stay integral.  Returns the pivot
    columns and the determinant of the leading square block (0 unless it
    has full rank)."""
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        for k in range(r + 1, len(rows)):
            f = rows[k][c]
            rows[k] = [(top[c] * x - f * y) // prev
                       for x, y in zip(rows[k], top)]
        prev = top[c]
        pivots.append(c)
    full = len(pivots) == ncols == len(rows)
    return pivots, sign * prev if full else 0


def fit_recurrence(seq: FormSequence, n: int) -> Optional[RecurrenceFit]:
    """Solve ell_{i,n+p} = sum_j alpha_j(n) ell_{i,n+j} exactly.

    Unique system: the fit, with alpha_0(n)=0 flagged.  Singular but
    consistent: the canonical representative with free coefficients at the
    low-lag end set to 0 (non_unique flag).  Inconsistent: None.
    """
    p = seq.p
    recs = [seq.record(n + j) for j in range(p + 1)]
    # unknowns alpha_j; columns reversed so pivots prefer high lags
    rows = [[recs[j].ell[i] for j in range(p - 1, -1, -1)] + [recs[p].ell[i]]
            for i in range(p)]
    pivots, _ = _echelon(rows, p)
    rank = len(pivots)
    if any(row[p] for row in rows[rank:]):
        return None
    rev = [Fraction(0)] * p           # free unknowns stay 0
    for row, c in reversed(list(zip(rows, pivots))):
        rest = sum(row[k] * rev[k] for k in range(c + 1, p))
        rev[c] = Fraction(row[p] - rest) / row[c]
    alpha = tuple(reversed(rev))
    ok = all(recs[p].ell[i] == sum(alpha[j] * recs[j].ell[i] for j in range(p))
             for i in range(p))
    return RecurrenceFit(n=n, alpha=alpha, residual=ok,
                         alpha0_zero=alpha[0] == 0,
                         non_unique=rank < p)


def _delta_matrix(seq: FormSequence, n: int) -> list[list[int]]:
    """p x p window: row i holds ell_{i,n} .. ell_{i,n+p-1}."""
    p = seq.p
    recs = [seq.record(n + j) for j in range(p)]
    return [[recs[j].ell[i] for j in range(p)] for i in range(p)]


def _ball_det(M: Sequence[Sequence[BallReal]]) -> BallReal:
    p = len(M)
    prec = M[0][0].prec
    total = BallReal.exact(0, prec)
    for perm in itertools.permutations(range(p)):
        sign = 1
        seen = list(perm)
        for i in range(p):            # parity by counting inversions
            for j in range(i + 1, p):
                if seen[i] > seen[j]:
                    sign = -sign
        term = BallReal.exact(sign, prec)
        for i in range(p):
            term = term * M[i][perm[i]]
        total = total + term
    return total


@dataclass
class SiegelReport:
    n1: int
    n2: int
    p: int
    fits: dict[int, Optional[RecurrenceFit]]
    alpha0_ok: bool               # fit exists with alpha_0(n) != 0 throughout
    bad_ns: list[int]
    det_n2: int
    det_nonzero: bool
    ranks: list[tuple[int, int]]  # (n, rank of the Delta window at n)
    rank_propagates: bool
    det_consistent: TriBool       # det(L-values) vs (1+sum xi^2) det(Delta)

    def to_json(self) -> dict:
        return {
            "n1": self.n1, "n2": self.n2, "p": self.p,
            "alpha0_ok": self.alpha0_ok,
            "bad_ns": self.bad_ns,
            "det_n2": int_to_decimal(self.det_n2),
            "det_nonzero": self.det_nonzero,
            "rank_propagates": self.rank_propagates,
            "ranks": [[n, r] for n, r in self.ranks],
            "det_consistent": self.det_consistent.name,
            "alpha": {str(n): [fraction_to_str(a) for a in f.alpha]
                      for n, f in self.fits.items() if f is not None},
        }


def check_siegel(seq: FormSequence, basis: Basis, n1: int, n2: int,
                 prec: int = 64) -> SiegelReport:
    """Recurrence-based hypothesis report: exact fits with alpha_0(n) != 0
    over [n1, last-p], exact det of the Delta window at n2, observed rank
    propagation, and a determinant cross-check against the basis values."""
    p = seq.p
    last = seq.records[-1].n
    if not (n1 <= n2 <= last - p + 1):
        raise ValidationError(f"need n1 <= n2 <= {last - p + 1}")
    fits: dict[int, Optional[RecurrenceFit]] = {}
    bad: list[int] = []
    for n in range(n1, last - p + 1):
        f = fit_recurrence(seq, n)
        fits[n] = f
        if f is None or f.alpha0_zero or not f.residual:
            bad.append(n)
    _, det2_int = _echelon(_delta_matrix(seq, n2), p)
    ranks = [(n, len(_echelon(_delta_matrix(seq, n), p)[0]))
             for n in range(n1, last - p + 2)]
    rank_prop = all(a[1] == b[1] for a, b in zip(ranks, ranks[1:]))
    # det of the evaluated window equals (1 + sum xi_i^2) * det(Delta_n2)
    V = [[eval_at_basis(seq, basis, n2 + j, i, prec) for j in range(p)]
         for i in range(1, p + 1)]
    diff = _ball_det(V) - _one_plus_sq(basis, prec) * Fraction(det2_int)
    consistent = TriBool.TRUE if diff.contains_zero() else TriBool.FALSE
    return SiegelReport(n1=n1, n2=n2, p=p, fits=fits,
                        alpha0_ok=not bad, bad_ns=bad,
                        det_n2=det2_int, det_nonzero=det2_int != 0,
                        ranks=ranks, rank_propagates=rank_prop,
                        det_consistent=consistent)


# ---------------------------------------------------------------------------
# Hypothesis report for the divisor-aware criterion


@dataclass
class NesterenkoReport:
    divisor_violations: list[tuple[int, int]]
    tau: list[TauEstimate]
    norm_trace: list[tuple[int, Optional[BallReal]]]
    norm_consistent: TriBool      # sup-norm exponent -> 1
    consistent: TriBool

    def to_json(self) -> dict:
        return {
            "divisor_violations": [list(v) for v in self.divisor_violations],
            "tau": [{"i": t.i,
                     "final": None if t.final is None else t.final.round_to(64).to_json(),
                     "oscillation": None if t.oscillation is None
                     else fraction_to_str(t.oscillation),
                     "consistent": t.consistent.name}
                    for t in self.tau],
            "norm_consistent": self.norm_consistent.name,
            "consistent": self.consistent.name,
        }


def check_nesterenko(seq: FormSequence, basis: Basis, prec: int = 64,
                     tol: Fraction = Fraction(1, 20),
                     cap: int = PREC_CAP) -> NesterenkoReport:
    """Finite-n consistency report for the three hypotheses: divisor chains,
    |L_n(e_i)| = Q_n^(-tau_i+o(1)) (trace oscillation below tol), and
    sup-norm growth ||L_n|| = Q_n^(1+o(1))."""
    violations = divisor_chain_check(seq)
    taus = [estimate_tau(seq, basis, i, prec, tol, cap)
            for i in range(1, seq.p)]
    norm_trace: list[tuple[int, Optional[BallReal]]] = []
    for rec in seq:
        s = rec.sup_norm()
        if rec.Q == 1 or s == 0:
            norm_trace.append((rec.n, None))
            continue
        val = BallReal.exact(s, prec).log() / BallReal.exact(rec.Q, prec).log()
        norm_trace.append((rec.n, val))
    norm_ok = _near_one([v for _, v in norm_trace], tol)
    parts = [t.consistent for t in taus] + [norm_ok]
    if violations:
        overall = TriBool.FALSE
    elif any(x is TriBool.FALSE for x in parts):
        overall = TriBool.FALSE
    elif any(x is TriBool.UNKNOWN for x in parts):
        overall = TriBool.UNKNOWN
    else:
        overall = TriBool.TRUE
    return NesterenkoReport(divisor_violations=violations, tau=taus,
                            norm_trace=norm_trace, norm_consistent=norm_ok,
                            consistent=overall)


# ---------------------------------------------------------------------------
# Finite-Q conclusion verifier


@dataclass
class Verdict:
    status: str                   # holds | violated | unknown
    witness: Optional[DualPoint]
    Q: int
    eps: Fraction
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json(),
            "Q": int_to_decimal(self.Q),
            "eps": str(self.eps),
            "candidates_checked": self.diagnostics.get("candidates_checked", 0),
            "diagnostics": {k: v for k, v in self.diagnostics.items()},
        }


def _signed(R: int, negative: bool = True):
    """0, 1, -1, ..., R, -R: smallest absolute value first (without the -k
    when not `negative`)."""
    if R < 0:          # empty axis (e.g. strict zero bound): no valid entry
        return
    yield 0
    for k in range(1, R + 1):
        yield k
        if negative:
            yield -k


def _prefixes(ranges: Sequence[int], free: bool = False):
    """The prefixes over |m_i| <= R_i in _signed order, lazily; until `free`
    the first nonzero entry is positive (the axis skips its negatives)."""
    if not ranges:
        yield ()
        return
    rest = ranges[1:]
    for m in _signed(ranges[0], free):
        if not rest:
            yield (m,)
            continue
        for tail in _prefixes(rest, free or m > 0):
            yield (m, *tail)


def _odometer(ranges: Sequence[int], budget: int, per_prefix: int = 1):
    """The prefix odometer over |m_i| <= R_i in _signed order, keeping the
    prefixes whose first nonzero entry is positive (negating a whole point
    maps the others onto these).  Returns the candidate estimate
    per_prefix * prod(2 R_i + 1), checked against the budget up front, and
    the prefix iterator."""
    estimate = per_prefix
    for R in ranges:
        estimate *= 2 * R + 1
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    if any(R < 0 for R in ranges):     # empty box: do not walk the axes
        return estimate, iter(())
    return estimate, _prefixes(ranges)


def _dual_point(p: int, labels, prefix, delta, kp: int) -> DualPoint:
    """The dual point with a_j = m_j/delta_j on the labels, a_p = kp/delta_p
    and 0 elsewhere."""
    a = [Fraction(0)] * p
    for m, j in zip(prefix, labels):
        a[j - 1] = Fraction(m, delta[j - 1])
    a[p - 1] = Fraction(kp, delta[p - 1])
    return DualPoint(tuple(a))


def _prefix_ball(basis: Basis, prefix: Sequence[int], labels: Sequence[int],
                 delta: Sequence[int], prec: int) -> BallReal:
    """Enclosure of sum_k (m_k / delta_{j_k}) xi_{j_k} over the labels j_k."""
    xb = basis.xi_balls(prec)
    s = BallReal.exact(0, prec)
    for m, j in zip(prefix, labels):
        if m:
            s = s + xb[j - 1] * Fraction(m, delta[j - 1])
    return s


def _scan_prec(prec: int) -> int:
    """Base precision of the lattice scans: prec, but at least 96 bits."""
    return max(prec, 96)


def _box_ranges(delta: Sequence[int], labels: Sequence[int],
                taus: Sequence[Fraction], Q: int, eps: Fraction) -> list[int]:
    """R_j = floor(delta_j Q^(tau_j-eps)) over the labels, exactly."""
    return [floor_scaled_power(Fraction(delta[j - 1]), Q, taus[j - 1] - eps)
            for j in labels]


def _power_bracket(Q: int, expo: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of Q^expo (expo > 0) with ~bits of resolution."""
    M = floor_scaled_power(1 << bits, Q, expo)
    return Fraction(M, 1 << bits), Fraction(M + 1, 1 << bits)


def verify_conclusion(seq: FormSequence, basis: Basis, tau: Sequence[Rat],
                      Q: int, eps: Rat, prec: int = 64,
                      budget: int = 10 ** 7, cap: int = PREC_CAP) -> Verdict:
    """Exhaustively test |a_1 xi_1 + ... + a_{p-1} xi_{p-1} + a_p| > Q^(-1-eps)
    over nonzero a with delta_{i,Phi(Q)} a_i integral and |a_i| <= Q^(tau_i-eps).

    The prefix (a_1..a_{p-1}) is enumerated smallest-absolute-value-first; for
    each prefix only the finitely many a_p within Q^(-1-eps) of -sum a_i xi_i
    can violate, all others are certified in bulk.  Rational bases are decided
    exactly; irrational ones via balls with precision escalation, leaving any
    stubborn candidate as unknown (a certified violation found later still
    dominates).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    p = seq.p
    taus = [Fraction(t) for t in tau]
    if len(taus) != p - 1:
        raise ValidationError(f"tau must have length {p - 1}")
    phi = phi_of_Q(seq, Q)
    delta = seq.records[phi.value].delta
    dp = delta[p - 1]

    ranges = _box_ranges(delta, range(1, p), taus, Q, eps)
    estimate, odometer = _odometer(ranges, budget)

    # threshold t = Q^-(1+eps): exact when Q^(1+eps) is rational
    one_eps = 1 + eps
    u, v = one_eps.numerator, one_eps.denominator
    root = nth_root_floor(Q ** u, v)
    t_exact: Optional[Fraction] = Fraction(1, root) if root ** v == Q ** u else None
    t_bits = 96
    if t_exact is None:
        q_lo, q_hi = _power_bracket(Q, one_eps, t_bits)
        t_lo, t_hi = 1 / q_hi, 1 / q_lo
    else:
        t_lo = t_hi = t_exact

    exact_xi = basis.exact_xi
    work = _scan_prec(prec)
    if exact_xi is None:
        # rigorous scaled-integer brackets: X_lo <= xi * 2^work <= X_hi
        scale = 1 << work
        X = [(math.floor(x.lower * scale), math.ceil(x.upper * scale))
             for x in basis.xi_balls(work)]
        D = math.lcm(*delta)
        mults = [D // d for d in delta[:p - 1]]
        step = (D // dp) * scale
        T_lo = math.floor(t_lo * D * scale)
        T_hi = math.ceil(t_hi * D * scale)

    checked = 0
    prefixes = 0
    unknowns: list[tuple] = []
    escalations = 0

    def decide_slow(prefix: tuple, kp: int) -> TriBool:
        """Certified |value| <= t by balls, escalating past `work`."""
        def at(w):
            nonlocal escalations
            if w == work:
                return TriBool.UNKNOWN   # the integer brackets left it open
            escalations += 1
            if t_exact is None:
                q_lo, q_hi = _power_bracket(Q, one_eps, w + 32)
                tl, th = 1 / q_hi, 1 / q_lo
            else:
                tl = th = t_exact
            val = _prefix_ball(basis, prefix, range(1, p), delta, w)
            return cmp_abs_le(val + Fraction(kp, dp), tl, th)
        return escalate(at, work, cap)[0]

    def violated(prefix: tuple, kp: int, **diag) -> Verdict:
        wit = _dual_point(p, range(1, p), prefix, delta, kp)
        return Verdict("violated", wit, Q, eps,
                       {"candidates_checked": checked, "prefixes": prefixes,
                        "budget_estimate": estimate, **diag})

    for prefix in odometer:
        zero = not any(prefix)
        prefixes += 1
        if exact_xi is not None:
            s = sum((Fraction(k, d) * x for k, d, x in
                     zip(prefix, delta, exact_xi)), Fraction(0))
            kmin = math.ceil((-s - t_hi) * dp)
            kmax = math.floor((-s + t_hi) * dp)
            start = max(kmin, 1) if zero else kmin
            for kp in range(start, kmax + 1):
                checked += 1
                if cmp_abs_vs_power(s + Fraction(kp, dp), Q, -one_eps) <= 0:
                    return violated(prefix, kp)
        else:
            # integer brackets of v * D * 2^work for the whole prefix
            s_lo = s_hi = 0
            for k, m, (xl, xh) in zip(prefix, mults, X):
                if k > 0:
                    s_lo += k * m * xl
                    s_hi += k * m * xh
                elif k < 0:
                    s_lo += k * m * xh
                    s_hi += k * m * xl
            kmin = -((s_hi + T_hi) // step)
            kmax = (T_hi - s_lo) // step
            start = max(kmin, 1) if zero else kmin
            for kp in range(start, kmax + 1):
                checked += 1
                v_lo = s_lo + kp * step
                v_hi = s_hi + kp * step
                if v_lo > 0 or v_hi < 0:
                    alo, ahi = min(abs(v_lo), abs(v_hi)), max(abs(v_lo), abs(v_hi))
                else:
                    alo, ahi = 0, max(-v_lo, v_hi)
                if alo > T_hi:
                    continue                       # certified holds
                outcome = TriBool.TRUE if ahi <= T_lo \
                    else decide_slow(prefix, kp)
                if outcome is TriBool.TRUE:
                    return violated(prefix, kp, escalations=escalations)
                if outcome is TriBool.UNKNOWN:
                    unknowns.append(prefix + (kp,))
    diag = {"candidates_checked": checked, "prefixes": prefixes,
            "budget_estimate": estimate, "escalations": escalations,
            "unknown_candidates": len(unknowns)}
    if unknowns:
        return Verdict("unknown", None, Q, eps, diag)
    return Verdict("holds", None, Q, eps, diag)


def _one_plus_sq(basis: Basis, prec: int) -> BallReal:
    """Enclosure of 1 + sum xi_i^2."""
    return sum((x * x for x in basis.xi_balls(prec)), BallReal.exact(1, prec))


def reduce_scale(Q: int, eps: Rat, basis: Basis,
                 prec: int = 64) -> tuple[BallReal, Fraction]:
    """Scale change (Q, eps) -> (Q', eps/2) with
    Q' = ((1 + sum xi_i^2) Q^(1+eps))^(1/(1+eps/2))."""
    eps = Fraction(eps)
    if Q < 2 or eps <= 0:
        raise ValidationError("need Q >= 2 and eps > 0")
    eps2 = eps / 2
    inner = _one_plus_sq(basis, prec) * BallReal.exact(Q, prec).pow(1 + eps)
    return inner.pow(1 / (1 + eps2)), eps2
