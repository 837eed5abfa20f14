"""Hypothesis checks and finite-Q conclusion verification for the
linear-independence criteria.

The pipeline: Phi maps a scale Q to the last record index at or below it,
and refuses a Q past the last record, where it is unknown; eps1_for
picks the dyadic iteration parameter; build_iterate_matrix stacks the forms
at the phi-iterated indices; matrix_condition_check certifies the
factorial-ratio condition that forces invertibility, exactly on the
integer ends of the entries' magnitudes and from the adjacent 2 x 2
minors when they suffice; fit_recurrence / check_siegel handle the
recurrence-based variant, with integer residuals, wide windows certified
modulo a prime and a ball determinant whose minors are memoised;
verify_conclusion
exhaustively tests the lower bound |a_1 xi_1 + ... + a_p| > Q^(-1-eps) over
the admissible dual points at one concrete Q through _dual_scan, as
minkowski's dual witness does: the one coordinate-frame scan
(_coordinate_scan), shared with directed_search_coordinate.  With one
label every scan walks the steps of _walk: 0 and the convergent
denominators certified across the xi enclosure, then every step from the
first one it may miss or from just after the first undecided one.

Everything decidable in exact integer/rational arithmetic is decided so,
an exact-interval input once; computed constants go through certified
balls with precision escalation; what stays undecided surfaces as Unknown.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

from .numerics import (
    BallReal,
    TriBool,
    _cmp,
    cmp_abs_le,
    cmp_abs_vs_power,
    escalate,
    floor_scaled_power,
    int_to_decimal,
    jsonable,
    tri_all,
)
from .model import (
    Basis,
    DualPoint,
    FormSequence,
    ValidationError,
    _form,
    _same_p,
    divisor_chain_check,
    eval_at_basis,
)
from .exponents import TauEstimate, estimate_tau, _log_ratio, _near_one

__all__ = [
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
    """The records end before the scale or position asked for."""


class BudgetExceeded(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(f"estimated {int_to_decimal(estimate)} candidates "
                         f"exceeds budget {int_to_decimal(budget)}")
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# Phi and the iteration parameter


def phi_of_Q(seq: FormSequence, Q: int) -> int:
    """Phi(Q): the largest record position k with Q_k <= Q (positions are
    0-based).  Past the last record Phi is unknown, since a later record
    may still have Q_n <= Q, so a Q above Q_N raises RecordsExhausted."""
    qs = seq.Qs
    if Q < qs[0]:
        raise ValidationError(f"Q={int_to_decimal(Q)} below the first scale "
                              f"Q_0={int_to_decimal(qs[0])}")
    if Q > qs[-1]:
        raise RecordsExhausted(
            f"Q = {int_to_decimal(Q)} is past the last record, "
            f"Q_{seq.records[-1].n} = {int_to_decimal(qs[-1])}")
    return bisect_right(qs, Q) - 1


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
    entries: tuple[tuple[BallReal, ...], ...]  # row per position, col per e_j


def build_iterate_matrix(seq: FormSequence, basis: Basis, n: int,
                         eps1: Rat, prec: int = 64) -> IterateMatrix:
    """Rows are the forms at positions n, phi(n), ..., phi^(p-1)(n), where
    phi(m)-1 is Phi applied to Q_m^(1+eps1); columns evaluate e_1..e_p.

    Q_m^(1+eps1) is handled exactly: the threshold is its floor, which
    leaves Phi unchanged since scales are integers.
    """
    eps1 = Fraction(eps1)
    if eps1 <= 0:
        raise ValidationError("eps1 must be positive")
    p = seq.p
    if not 0 <= n < len(seq):
        raise RecordsExhausted(f"no record at position {n}")
    positions = [n]
    for _ in range(p - 1):
        m = positions[-1]
        Qm = seq.records[m].Q
        threshold = floor_scaled_power(Fraction(1), Qm, 1 + eps1)
        nxt = phi_of_Q(seq, threshold) + 1
        if nxt >= len(seq):
            raise RecordsExhausted(
                f"phi iteration from position {m} needs records past the last one")
        positions.append(nxt)
    entries = tuple(
        tuple(eval_at_basis(seq, basis, seq.records[m].n, j, prec)
              for j in range(1, p + 1))
        for m in positions)
    return IterateMatrix(n=n, eps1=eps1, indices=tuple(positions),
                         entries=entries)


def matrix_condition_check(M: Sequence[Sequence[BallReal]]) -> TriBool:
    """Certified check of |m_i'j m_ij'| <= |m_ij m_i'j'|/(p+1)! for all
    i<i', j<j' of the p x p matrix M.  False dominates Unknown; an entry
    enclosure containing 0 is a precondition failure, not an Unknown.

    Decided exactly: an entry m 2^e +/- r 2^e with r < |m| has |entry| in
    [|m| - r, |m| + r] 2^e, so each minor compares integer products of
    those ends (_minors); nothing is rounded.

    Adjacent minors first.  With x_ij = ln|m_ij|, the excess D(i,i';j,j')
    = x_ij + x_i'j' - x_i'j - x_ij' of a rectangle is the sum of D over its
    (i'-i)(j'-j) unit cells, which telescope.  So if every adjacent minor
    (i, i+1; j, j+1) holds at every point of the balls, then at every
    point D >= (i'-i)(j'-j) ln (p+1)! >= ln (p+1)! on every rectangle: the
    classic reduction of a Monge array to its adjacent 2 x 2 conditions
    (Burkard, Klinz & Rudolf, "Perspectives of Monge properties in
    optimization", 1996).  So the (p-1)^2 adjacent minors decide first:
    all TRUE certifies TRUE, and one FALSE is a FALSE of the whole
    matrix.  Only where they leave UNKNOWN are all C(p,2)^2 minors
    decided, so that FALSE still dominates UNKNOWN."""
    p = len(M)
    if any(len(row) != p for row in M):
        raise ValidationError("matrix must be p x p")
    ends = []
    for i, row in enumerate(M):
        ends.append([])
        for j, x in enumerate(row):
            if x.contains_zero():
                raise ValidationError(
                    f"entry ({i + 1},{j + 1}) enclosure does not exclude 0")
            m, r = abs(x._m), x._r
            ends[-1].append((m - r, m + r, x._e))
    fact = factorial(p + 1)
    out = _minors(ends, fact, [(i, i + 1) for i in range(p - 1)])
    if out is not TriBool.UNKNOWN:
        return out
    return _minors(ends, fact, list(itertools.combinations(range(p), 2)))


def _minors(ends: list[list[tuple[int, int, int]]], fact: int,
            pairs: Sequence[tuple[int, int]]) -> TriBool:
    """Kleene AND of cross fact <= diag over the minors (i, i'; j, j')
    with (i, i') and (j, j') in pairs, the magnitudes of the entries in
    the exact ranges ends[i][j] = (lo, hi, e), [lo, hi] 2^e: FALSE where
    inf(cross) fact > sup(diag), TRUE where sup(cross) fact <= inf(diag),
    else UNKNOWN."""
    out = TriBool.TRUE
    for i1, i2 in pairs:
        top, bottom = ends[i1], ends[i2]
        for j1, j2 in pairs:
            # diag m_ij m_i'j' = a b, cross m_i'j m_ij' = c d
            a_lo, a_hi, a_e = top[j1]
            b_lo, b_hi, b_e = bottom[j2]
            c_lo, c_hi, c_e = bottom[j1]
            d_lo, d_hi, d_e = top[j2]
            ce, de = c_e + d_e, a_e + b_e
            if _cmp(c_lo * d_lo * fact, ce, a_hi * b_hi, de) > 0:
                return TriBool.FALSE
            if _cmp(c_hi * d_hi * fact, ce, a_lo * b_lo, de) > 0:
                out = TriBool.UNKNOWN
    return out


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
    exact (Sylvester's identity), so rows stay integral.  Below a pivot at
    column c the entries at columns <= c are exactly 0, so only the columns
    after c are updated.  Returns the pivot columns and the determinant of
    the leading square block (0 unless it has full rank)."""
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
        t = top[c]
        for row in rows[r + 1:]:
            f = row[c]
            row[c] = 0
            for j in range(c + 1, len(row)):
                row[j] = (t * row[j] - f * top[j]) // prev
        prev = t
        pivots.append(c)
    full = len(pivots) == ncols == len(rows)
    return pivots, sign * prev if full else 0


def fit_recurrence(seq: FormSequence, n: int) -> Optional[RecurrenceFit]:
    """Solve ell_{i,n+p} = sum_j alpha_j(n) ell_{i,n+j} exactly.

    Unique system: the fit, with alpha_0(n)=0 flagged.  Singular but
    consistent: the canonical representative with free coefficients at the
    low-lag end set to 0 (non_unique flag).  Inconsistent: None.  The
    last window, with no record after it, raises MissingRecord.
    """
    fit = _fit(seq, n)[0]     # MissingRecord for a record of the window
    return fit if seq.has(n + seq.p) else seq.record(n + seq.p)  # raises


def _fit(seq: FormSequence, n: int, mods: Optional[dict] = None
         ) -> tuple[Optional[RecurrenceFit], int, Optional[int]]:
    """fit_recurrence(seq, n) and the rank and determinant of the Delta
    window at n, which its system holds with the columns reversed, also
    where the fit is None: the system is inconsistent, or the window is
    the last one and has no record after it.

    Given mods, each record's ell reduced mod _P keyed by its n, the window
    first takes the modular route (_mod_fit), which certifies a full-rank
    window without its determinant: det is then None.  A window the route
    does not certify is eliminated exactly."""
    p = seq.p
    recs = [seq.record(n + j) for j in range(p + seq.has(n + p))]
    if mods is not None:
        out = _mod_fit(recs, [mods[r.n] for r in recs])
        if out is not None:
            return out
    # unknowns alpha_j; columns reversed so pivots prefer high lags, and
    # the record after the window, if any, rides along
    rows = [[r.ell[i] for r in recs[p - 1::-1] + recs[p:]] for i in range(p)]
    pivots, det = _echelon(rows, p)
    rank = len(pivots)
    # reversing p columns is p(p-1)/2 transpositions
    det = -det if p * (p - 1) // 2 % 2 else det
    if len(recs) == p or any(row[p] for row in rows[rank:]):
        return None, rank, det
    rev = [Fraction(0)] * p           # free unknowns stay 0
    for row, c in reversed(list(zip(rows, pivots))):
        rest = sum(row[k] * rev[k] for k in range(c + 1, p))
        rev[c] = Fraction(row[p] - rest) / row[c]
    alpha = tuple(reversed(rev))
    # the residual on ints: D ell_{n+p} = sum (D alpha_j) ell_{n+j}, D the
    # lcm of the alpha denominators
    D = math.lcm(*(a.denominator for a in alpha))
    scaled = [a.numerator * (D // a.denominator) for a in alpha]
    ok = _substitutes(recs, D, scaled)
    return RecurrenceFit(n=n, alpha=alpha, residual=ok,
                         alpha0_zero=alpha[0] == 0,
                         non_unique=rank < p), rank, det


def _substitutes(recs, D: int, scaled: Sequence[int]) -> bool:
    """D ell_{i,n+p} = sum_j scaled_j ell_{i,n+j} for every i, exactly:
    small-by-big products only."""
    p = len(scaled)
    return all(D * recs[p].ell[i] == sum(scaled[j] * recs[j].ell[i]
                                         for j in range(p))
               for i in range(p))


# The modular route of a Siegel window.  _P is prime, so a window whose
# determinant is nonzero mod _P has a nonzero determinant over Z: rank p
# and one solution.  A candidate rebuilt from the solution mod _P that
# substitutes back exactly is therefore that solution.  2^255 - 19 rebuilds
# every Apery fit up to n = 3,000 (2^127 - 1 fails from n = 1,450 on).
_P = 2 ** 255 - 19
_HALF = math.isqrt(_P // 2)   # Wang's bound on numerators and denominators
# The route pays for entries of this many bits and more: below, its fixed
# cost (an inverse and a rebuild mod _P) exceeds Bareiss on the window.
_MOD_BITS = 4096


def _mod_p(ell: Sequence[int]) -> tuple[int, ...]:
    return tuple(x % _P for x in ell)


def _mod_fit(recs, mods):
    """_fit's (fit, rank, det) of the window at recs[0].n, whose records'
    ell reduced mod _P are mods, certified through _P with det None; or
    None where the route does not certify it: the determinant is 0 mod
    _P, a coefficient is not rebuilt within _HALF, or the rebuilt ones do
    not substitute back."""
    p = len(mods[0])
    x = _mod_solve([[m[i] for m in mods] for i in range(p)], p)
    if x is None:
        return None
    if len(recs) == p:                  # the last window: no fit
        return None, p, None
    # rebuild alpha_j = u_j / D from x_j (Wang 1981): the extended Euclid
    # of (_P, D x_j) stops at the first remainder within _HALF
    D, us = 1, []
    for xj in x:
        r0, r1, t0, t1 = _P, xj * D % _P, 0, 1
        while r1 > _HALF:
            q, r = divmod(r0, r1)
            r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
        if abs(t1) > _HALF:
            return None
        us = [u * t1 for u in us] + [r1]    # D x_j = r1 / t1 (mod _P)
        D *= t1
    if not _substitutes(recs, D, us):
        return None
    alpha = tuple(Fraction(u, D) for u in us)
    return RecurrenceFit(n=recs[0].n, alpha=alpha, residual=True,
                         alpha0_zero=alpha[0] == 0, non_unique=False), p, None


def _mod_solve(rows: list[list[int]], p: int) -> Optional[list[int]]:
    """x with sum_j rows[i][j] x_j = rows[i][p] (mod _P) for i < p, or
    None if the leading p x p block is singular mod _P; with no column p,
    an empty x for a nonsingular block.  Division-free Gauss-Jordan, so
    the one inverse is of the product of the pivots."""
    for c in range(p):
        piv = next((k for k in range(c, p) if rows[k][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        t = top[c]
        for k, row in enumerate(rows):
            f = row[c]
            if k != c and f:
                rows[k] = [(t * a - f * b) % _P for a, b in zip(row, top)]
    if len(rows[0]) == p:
        return []
    # row c reads d_c x_c = b_c
    d = [row[c] for c, row in enumerate(rows)]
    w = pow(math.prod(d) % _P, -1, _P)
    return [row[p] * w * math.prod(d[:c] + d[c + 1:]) % _P
            for c, row in enumerate(rows)]


def _ball_det(M: Sequence[Sequence[BallReal]]) -> BallReal:
    """Enclosure of det M by cofactor expansion along the first row, each
    minor computed once: a minor is named by its tuple of remaining
    columns (its rows are the last ones), so the expansion costs O(p 2^p)
    ring ops, not O(p!)."""
    p = len(M)

    @functools.cache
    def minor(cols: tuple[int, ...]) -> BallReal:
        row = M[p - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        return sum((-1) ** j * row[c] * minor(cols[:j] + cols[j + 1:])
                   for j, c in enumerate(cols))
    return minor(tuple(range(p)))


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
        return jsonable({
            "n1": self.n1, "n2": self.n2, "p": self.p,
            "alpha0_ok": self.alpha0_ok,
            "bad_ns": self.bad_ns,
            "det_n2": int_to_decimal(self.det_n2),
            "det_nonzero": self.det_nonzero,
            "rank_propagates": self.rank_propagates,
            "ranks": self.ranks,
            "det_consistent": self.det_consistent,
            "alpha": {n: f.alpha for n, f in self.fits.items()
                      if f is not None},
        })


def check_siegel(seq: FormSequence, basis: Basis, n1: int, n2: int,
                 prec: int = 64) -> SiegelReport:
    """Recurrence-based hypothesis report: exact fits with alpha_0(n) != 0
    over [n1, last-p], exact det of the Delta window at n2, observed rank
    propagation, and a determinant cross-check against the basis values.

    The n2 window is eliminated exactly (Bareiss).  Where some entry of
    the records from n1 on has _MOD_BITS bits or more, each record is
    reduced mod the prime _P once and every other window is certified
    modulo _P, in time linear in its bits: det != 0 mod _P proves rank p,
    and alpha rebuilt from the solution mod _P that substitutes back
    exactly is the one solution.  A window singular mod _P, or whose
    alpha is not rebuilt or does not substitute back, is eliminated
    exactly, so the report is the one elimination of every window gives."""
    p = seq.p
    last = seq.records[-1].n
    if not (n1 <= n2 <= last - p + 1):
        raise ValidationError(
            f"need n1 <= n2 <= {int_to_decimal(last - p + 1)}")
    recs = [r for r in seq.records if r.n >= n1]
    wide = max(x.bit_length() for r in recs for x in r.ell) >= _MOD_BITS
    mods = {r.n: _mod_p(r.ell) for r in recs} if wide else None
    windows = {n: _fit(seq, n, None if n == n2 else mods)
               for n in range(n1, last - p + 2)}
    # the last window has no record after it, hence no fit
    fits = {n: f for n, (f, _, _) in windows.items() if n + p <= last}
    ranks = [(n, rank) for n, (_, rank, _) in windows.items()]
    det2_int = windows[n2][2]
    bad = [n for n, f in fits.items()
           if f is None or f.alpha0_zero or not f.residual]
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
        return jsonable({
            "divisor_violations": self.divisor_violations,
            "tau": [{"i": t.i, "final": t.final,
                     "oscillation": t.oscillation,
                     "consistent": t.consistent} for t in self.tau],
            "norm_consistent": self.norm_consistent,
            "consistent": self.consistent,
        })


def check_nesterenko(seq: FormSequence, basis: Basis, prec: int = 64,
                     tol: Fraction = Fraction(1, 20)) -> NesterenkoReport:
    """Finite-n consistency report for the three hypotheses: divisor chains,
    |L_n(e_i)| = Q_n^(-tau_i+o(1)) (trace oscillation below tol), and
    sup-norm growth ||L_n|| = Q_n^(1+o(1))."""
    violations = divisor_chain_check(seq)
    taus = [estimate_tau(seq, basis, i, prec, tol)
            for i in range(1, seq.p)]
    norm_trace = [(rec.n, _log_ratio(seq, rec.sup_norm(), rec.Q, prec))
                  for rec in seq]
    norm_ok = _near_one([v for _, v in norm_trace], tol)
    overall = TriBool.FALSE if violations else \
        tri_all([t.consistent for t in taus] + [norm_ok])
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
        return jsonable({
            "status": self.status,
            "witness": self.witness,
            "Q": int_to_decimal(self.Q),
            "eps": self.eps,
            "candidates_checked": self.diagnostics.get("candidates_checked", 0),
            "diagnostics": self.diagnostics,
        })


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


def _odometer(ranges: Sequence[int], budget: int):
    """The prefix odometer over |m_i| <= R_i in _signed order, keeping the
    prefixes whose first nonzero entry is positive (negating a whole point
    maps the others onto these).  Returns the candidate estimate
    prod(2 R_i + 1), checked against the budget up front, and the prefix
    iterator."""
    estimate = math.prod(2 * R + 1 for R in ranges)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    if any(R < 0 for R in ranges):     # empty box: do not walk the axes
        return estimate, iter(())
    return estimate, _prefixes(ranges)


def _cf_denominators(lo: Fraction, hi: Fraction, R: int) -> tuple[list[int], int]:
    """The distinct convergent denominators 1 = q_0 < q_1 < ... <= R shared
    by every real in [lo, hi], and the first step where some real in it may
    have a denominator missing from that list (R + 1 when none does).

    Both ends are expanded by exact Euclid and a quotient is kept while the
    two ends agree on it: the reals whose first k quotients are given form
    an interval, so the reals between two ends that share them share them
    too.  Where the ends disagree (or one ends, being rational), every real
    between has a next quotient a >= the smaller floor, so its next
    denominator is at least a q_k + q_(k-1).  A rational interval [x, x] is
    the plain expansion of x."""
    if R < 1:
        return [], R + 1
    a = lo.numerator // lo.denominator
    if a != hi.numerator // hi.denominator:
        return [1], 2                   # an integer inside: q_1 or q_2 is 2
    ends = [(lo.numerator, lo.denominator), (hi.numerator, hi.denominator)]
    out, q_prev, q = [1], 0, 1
    while True:
        # each end's next complete quotient, None where the end is rational
        # and its expansion stops at the shared quotient a
        ends = [None if e is None or e[0] == a * e[1]
                else (e[1], e[0] - a * e[1]) for e in ends]
        nxt = [n // d for n, d in filter(None, ends)]
        if not nxt:
            return out, R + 1
        if len(nxt) == 1 or nxt[0] != nxt[1]:
            return out, min(min(nxt) * q + q_prev, R + 1)
        a = nxt[0]
        q_prev, q = q, a * q + q_prev
        if q > R:
            return out, R + 1
        if q > out[-1]:           # a_1 = 1 repeats q_0 = 1
            out.append(q)


def _convergents(basis: Basis, j: int, ratio: Fraction, R: int,
                 work: int) -> tuple[list[int], int, int]:
    """The convergent denominators <= R of x = xi_j * ratio, the first step
    they may miss (_cf_denominators) and the precision that gave them:
    work for an exact interval xi_j (exact Euclid at its ends), else the
    enclosure of xi_j escalated from work to basis.cap while one is missed."""
    handle = basis.xi[j - 1]
    if handle.interval is not None:
        lo, hi = handle.interval
        x = lo * ratio
        return (*_cf_denominators(x, x if lo == hi else hi * ratio, R), work)
    out = None

    def decide(w: int):
        nonlocal out
        ball = handle.at(w)
        out = (*_cf_denominators(ball.lower * ratio, ball.upper * ratio, R), w)
        return TriBool.UNKNOWN if out[1] <= R else None
    escalate(decide, work, basis.cap)
    return out


def _steps(qs: Sequence[int], start: int, R: int, doubt):
    """0 and the denominators qs below start, then every step from start
    to R, or from just after the first step that leaves doubt() true.  The
    least m > 0 with ||m x|| <= t is a best approximation of the second
    kind, hence a convergent denominator (Lagrange; Khinchin, Continued
    Fractions, Thms 16-17): each step skipped before the doubt is one the
    linear scan rules out, and from the doubt on the steps are its own."""
    last = -1
    for q in (0, *qs):
        if q >= start or doubt():
            break
        yield q
        last = q
    yield from range(last + 1 if doubt() else max(start, last + 1), R + 1)


def _walk(basis: Basis, j: int, delta: Sequence[int], R: int, work: int,
          doubt, sure: int):
    """The single-label walk over the steps 0..R of label j: the _steps
    of the convergent denominators of x = xi_j delta_p/delta_j, open from
    the first step they may miss or from sure + 1, whichever comes first.
    Returns the steps and the precision of the convergents."""
    qs, start, bits = _convergents(
        basis, j, Fraction(delta[basis.p - 1], delta[j - 1]), R, work)
    return _steps(qs, min(start, sure + 1), R, doubt), bits


def _dual_point(p: int, labels, prefix, delta, kp: int) -> DualPoint:
    """The dual point with a_j = m_j/delta_j on the labels, a_p = kp/delta_p
    and 0 elsewhere."""
    a = [Fraction(0)] * p
    for m, j in zip(prefix, labels):
        a[j - 1] = Fraction(m, delta[j - 1])
    a[p - 1] = Fraction(kp, delta[p - 1])
    return DualPoint(tuple(a))


def _scan_prec(prec: int, cap: int) -> int:
    """Base precision of the lattice scans: max(prec, 96), at most cap."""
    return min(max(prec, 96), cap)


def _box_ranges(delta: Sequence[int], labels: Sequence[int],
                taus: Sequence[Fraction], Q: int, eps: Fraction) -> list[int]:
    """R_j = floor(delta_j Q^(tau_j-eps)) over the labels, exactly."""
    return [floor_scaled_power(Fraction(delta[j - 1]), Q, taus[j - 1] - eps)
            for j in labels]


def _power_bracket(Q: int, expo: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of Q^expo with ~bits of resolution: units of 2^-bits
    for expo >= 0, and for expo < 0 as many bits below Q^expo >
    2^(expo bitlen(Q)), so that a small power keeps its bits too."""
    if expo < 0:
        bits += -(expo.numerator * Q.bit_length() // expo.denominator)
    M = floor_scaled_power(1 << bits, Q, expo)
    return Fraction(M, 1 << bits), Fraction(M + 1, 1 << bits)


def _threshold(Q: int, eps: Fraction, work: int):
    """The test |v| <= Q^-(1+eps) as inside(v, w), and the upper end of the
    threshold's bracket at work bits, which bounds the candidates.  An exact
    interval v = (lo, hi) is decided exactly, UNKNOWN where it straddles
    the threshold; a ball at w bits against the bracket at w bits, exact
    when Q^(1+eps) is an integer and otherwise computed once per precision."""
    expo = 1 + eps
    root = Fraction(floor_scaled_power(Fraction(1), Q, expo))
    exact = 1 / root if cmp_abs_vs_power(root, Q, expo) == 0 else None

    @functools.cache
    def bracket(w: int) -> tuple[Fraction, Fraction]:
        if exact is not None:
            return exact, exact
        q_lo, q_hi = _power_bracket(Q, expo, w)
        return 1 / q_hi, 1 / q_lo

    def inside(v, w: int) -> TriBool:
        if isinstance(v, tuple):
            lo, hi = v
            top = hi if lo is hi else max(hi, -lo)  # a point (q, q): q, as is
            if cmp_abs_vs_power(top, Q, -expo) <= 0:
                return TriBool.TRUE
            far = lo is hi or cmp_abs_vs_power(max(lo, -hi, 0), Q, -expo) > 0
            return TriBool.FALSE if far else TriBool.UNKNOWN
        return cmp_abs_le(v, *bracket(w))
    return inside, bracket(work)[1]


def _coordinate_scan(basis: Basis, labels: Sequence[int], delta: Sequence[int],
                     ranges: Sequence[int], budget: int, work: int,
                     t_hi: Fraction, inside
                     ) -> tuple[Optional[DualPoint], dict]:
    """The coordinate-frame scan: the first point in odometer order with
    a_j = m_j/delta_j on the labels (|m_j| <= R_j), a_p = kp/delta_p and 0
    elsewhere for which inside(v, w) certifies v = sum a_j xi_j + a_p.

    Each prefix sum is bracketed by integers at the scale D*S, with D the
    lcm of the deltas and S = 2^bits (for exact-interval xi, the lcm of the
    ends' denominators: the bracket is exact).  Only the kp with |v| <= t_hi
    possible are candidates, ascending, kp > 0 for the zero prefix.  inside
    decides each once on the exact interval of v for such xi, else on an
    enclosure at w bits escalated from work to basis.cap; a None from it
    (no precision can decide the candidate) is an unknown at once.  Returns
    the point (or None) and the counts: estimate (the budget estimate),
    prefixes, checked, escalations (steps past work) and unknowns.

    With one label j the prefixes are the _walk of j, at whose precision
    the sums are bracketed (bits = work otherwise): m passes iff
    ||m x|| <= t delta_p for x = xi_j delta_p/delta_j.
    """
    p = basis.p
    dp = delta[p - 1]
    estimate, steps = _odometer(ranges, budget)
    prefixes = checked = escalations = unknowns = 0
    bits = work
    if len(labels) == 1:
        walk, bits = _walk(basis, labels[0], delta, ranges[0], work,
                           lambda: unknowns, ranges[0])
        steps = ((m,) for m in walk)
    ends = [h.interval for h in basis.xi]
    if exact := None not in ends:
        S = math.lcm(*(e.denominator for j in labels for e in ends[j - 1]))
    else:
        S = 1 << bits
        ends = [(x.lower, x.upper) for x in basis.xi_balls(bits)]
    D = math.lcm(dp, *(delta[j - 1] for j in labels))
    X = []                              # brackets of (D/delta_j) xi_j S
    for j in labels:
        lo, hi = ends[j - 1]
        c = D // delta[j - 1] * S
        X.append((math.floor(lo * c), math.ceil(hi * c)))
    step = D // dp * S                  # kp/delta_p at the same scale
    T = math.floor(t_hi * D * S)

    def decide(w: int) -> TriBool:      # the loop's current prefix and kp
        nonlocal escalations
        escalations += w > work
        a = _dual_point(p, labels, prefix, delta, kp).a
        return inside(_form(basis, a, p, w), w)

    def counts() -> dict:
        return {"estimate": estimate, "prefixes": prefixes,
                "checked": checked, "escalations": escalations,
                "unknowns": unknowns}

    for prefixes, prefix in enumerate(steps, 1):
        s_lo = s_hi = 0
        for m, (xl, xh) in zip(prefix, X):
            if m > 0:
                s_lo += m * xl
                s_hi += m * xh
            elif m < 0:
                s_lo += m * xh
                s_hi += m * xl
        kmin = -((s_hi + T) // step)
        kmax = (T - s_lo) // step
        for kp in range(kmin if any(prefix) else max(kmin, 1), kmax + 1):
            checked += 1
            if exact:
                lo = Fraction(s_lo + kp * step, D * S)
                hi = lo if s_hi == s_lo else Fraction(s_hi + kp * step, D * S)
                ok = inside((lo, hi), work)
            else:
                ok = escalate(decide, work, basis.cap)[0]
            if ok is TriBool.TRUE:
                return _dual_point(p, labels, prefix, delta, kp), counts()
            if ok is not TriBool.FALSE:
                unknowns += 1
    return None, counts()


def _dual_scan(basis: Basis, labels: Sequence[int], delta: Sequence[int],
               taus: Sequence[Fraction], Q: int, eps: Fraction, prec: int,
               budget: int) -> tuple[Optional[DualPoint], dict]:
    """The coordinate-frame scan of the dual box at Q, |a_j| <=
    Q^(tau_j-eps) on the labels and a_j = 0 off them and p, against the
    threshold Q^-(1+eps) from the base precision _scan_prec."""
    work = _scan_prec(prec, basis.cap)
    inside, t_hi = _threshold(Q, eps, work)
    return _coordinate_scan(basis, labels, delta,
                            _box_ranges(delta, labels, taus, Q, eps), budget,
                            work, t_hi, inside)


def verify_conclusion(seq: FormSequence, basis: Basis, tau: Sequence[Rat],
                      Q: int, eps: Rat, prec: int = 64,
                      budget: int = 10 ** 7) -> Verdict:
    """Exhaustively test |a_1 xi_1 + ... + a_{p-1} xi_{p-1} + a_p| > Q^(-1-eps)
    over nonzero a with delta_{i,Phi(Q)} a_i integral and |a_i| <= Q^(tau_i-eps).
    A Q past the last record raises RecordsExhausted from phi_of_Q: the
    divisors at Phi(Q) are then unknown.

    This is the coordinate-frame scan over that box: prefixes (a_1..a_{p-1})
    smallest-absolute-value-first, and for each only the finitely many a_p
    within Q^(-1-eps) of -sum a_i xi_i, all others certified in bulk.
    Exact-interval bases are decided exactly, computed ones via balls with
    precision escalation, leaving any stubborn candidate as unknown (a
    certified violation found later still dominates).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    p = seq.p
    _same_p(seq, basis)
    taus = [Fraction(t) for t in tau]
    if len(taus) != p - 1:
        raise ValidationError(f"tau must have length {p - 1}")
    delta = seq.records[phi_of_Q(seq, Q)].delta
    witness, n = _dual_scan(basis, range(1, p), delta, taus, Q, eps, prec,
                            budget)
    diag = {"candidates_checked": n["checked"], "prefixes": n["prefixes"],
            "budget_estimate": n["estimate"], "escalations": n["escalations"],
            "unknown_candidates": n["unknowns"]}
    status = ("violated" if witness is not None
              else "unknown" if n["unknowns"] else "holds")
    return Verdict(status, witness, Q, eps, diag)


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
