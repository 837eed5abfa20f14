"""Constructive lattice-point existence: given exponent data on the correct
side of the condition

    gamma_p + sum_{j in J} (tau_j + gamma_j)  vs  1,
    J = { j < p : tau_j + gamma_j >= 0 },

either build a small primal form vector in the sheared box K_n (condition
<= 1) or a dual witness in the coordinate box K_Q (condition > 1 with an
eps-margin).  Both constructions carry an explicit Minkowski
volume-vs-determinant certificate, and refusals (hypotheses not certified,
or Q too small for the certificate) are first-class outcomes distinct from
search failure.

The directed searches exploit the box shape.  The primal one scans the
last coordinate and takes the nearest lattice multiple in each remaining
coordinate.  The dual one is the coordinate-frame scan of criteria, the
one verify_conclusion runs (criteria._dual_scan): it walks the bounded
prefix coordinates and tries only the last coordinates within the
threshold.  With one label both take criteria._walk, convergent
denominators first and every step from the first doubt.  A
full-enumeration oracle cross-checks both at small sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .numerics import (
    BallReal,
    TriBool,
    cmp_abs_le,
    cmp_abs_vs_power,
    escalate,
    fraction_to_str,
    int_to_decimal,
    jsonable,
    tri_all,
    tri_compare,
)
from .model import (
    Basis,
    Bound,
    ConvexBody,
    DualPoint,
    FormRecord,
    FormSequence,
    ValidationError,
)
from .criteria import (
    BudgetExceeded,
    _coordinate_scan,
    _dual_scan,
    _power_bracket,
    _scan_prec,
    _signed,
    _walk,
)

__all__ = [
    "ConditionReport",
    "SearchOutcome",
    "Refusal",
    "SearchFailed",
    "ReciprocalEntry",
    "check_condition",
    "surrogate_gamma",
    "construct_primal_form",
    "construct_dual_witness",
    "reciprocal_construct",
    "directed_search_sheared",
    "directed_search_coordinate",
    "enumerate_lattice_points",
]

Rat = Union[int, Fraction]
Num = Union[int, Fraction, BallReal]


class Refusal(RuntimeError):
    """Hypotheses not certified for the requested construction."""

    def __init__(self, why: str, report: Optional["ConditionReport"] = None,
                 detail: Optional[dict] = None):
        super().__init__(why)
        self.report = report
        self.detail = detail or {}


class SearchFailed(RuntimeError):
    """Scan exhausted without a certified point (see .unknowns)."""

    def __init__(self, why: str, unknowns: int = 0):
        super().__init__(why)
        self.unknowns = unknowns


# ---------------------------------------------------------------------------
# the condition


@dataclass
class ConditionReport:
    J: tuple[int, ...]            # 1-based labels j < p with tau_j+gamma_j >= 0
    lhs: BallReal
    relation: TriBool             # TRUE: lhs > 1; FALSE: lhs <= 1; else Unknown
    unknown_j: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return jsonable({"J": self.J, "lhs": self.lhs,
                         "relation": {"TRUE": ">1", "FALSE": "<=1",
                                      "UNKNOWN": "unknown"}[self.relation.name],
                         "unknown_j": self.unknown_j})


def check_condition(tau: Sequence[Num], gamma: Sequence[Num],
                    prec: int = 64) -> ConditionReport:
    """Membership in J by the sign of tau_j+gamma_j (boundary zero stays in
    J), then lhs = gamma_p + sum_J (tau_j+gamma_j) compared against 1.

    Rationals stay exact, so only a ball entry can leave a sign or the
    comparison Unknown; a still-rational lhs is reported as a ball at prec.
    """
    p = len(gamma)
    if len(tau) != p - 1:
        raise ValidationError(f"tau must have length {p - 1}")
    taus, gammas = ([x if isinstance(x, BallReal) else Fraction(x) for x in v]
                    for v in (tau, gamma))
    J, unknown, lhs = [], [], gammas[p - 1]
    for j in range(p - 1):
        s = taus[j] + gammas[j]
        t = tri_compare(-s, 0)          # certified s < 0
        if t is TriBool.FALSE:          # s >= 0: j is in J
            J.append(j + 1)
            lhs = lhs + s
        elif t is TriBool.UNKNOWN:
            unknown.append(j + 1)
    rel = TriBool.UNKNOWN if unknown else tri_compare(lhs, 1)
    return ConditionReport(J=tuple(J), relation=rel, unknown_j=tuple(unknown),
                           lhs=lhs if isinstance(lhs, BallReal)
                           else BallReal.exact(lhs, prec))


# ---------------------------------------------------------------------------
# search outcomes


@dataclass
class SearchOutcome:
    kind: str                                  # "primal" | "dual"
    point: Union[tuple[int, ...], DualPoint]
    certificate: dict                          # volume, lattice_det, margin...
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        pt = (self.point if isinstance(self.point, DualPoint)
              else [int_to_decimal(x) for x in self.point])
        return jsonable({"kind": self.kind, "point": pt,
                         "certificate": self.certificate,
                         "diagnostics": self.diagnostics})


def _round_half_to_zero(q: Fraction) -> int:
    """Integer nearest to q, half-ties toward zero."""
    m = math.floor(q + Fraction(1, 2))
    if q + Fraction(1, 2) == m and q > 0:
        m -= 1
    return m


# ---------------------------------------------------------------------------
# directed searches over explicit bodies


def directed_search_sheared(body: ConvexBody, delta: Sequence[int],
                            basis: Basis, prec: int = 64, budget: int = 10 ** 7
                            ) -> tuple[Optional[tuple[int, ...]], dict]:
    """First nonzero primal point of the diagonal lattice in a sheared-frame
    box, scanning x_p = 0, d_p, 2 d_p, ... and taking the nearest multiple of
    delta_j in each labelled coordinate (negating a point changes nothing, so
    only x_p >= 0 is scanned).  Unknown-at-cap candidates are skipped and
    counted in the diagnostics.

    With one label j the steps are the criteria._walk of j, over the
    convergent denominators of y = delta_p xi_j/delta_j (a step s passes
    iff ||s y|| <= b_j/delta_j), open past the certified lower end of the
    last bound, which the |x_p| test alone may leave unknown.
    """
    if body.frame != "sheared":
        raise ValidationError("need a sheared-frame body")
    p = basis.p
    labels = body.coords[:-1]
    if body.coords[-1] != p:
        raise ValidationError("last body coordinate must be p")
    dp = delta[p - 1]
    brackets = [(b.value.lower, b.value.upper, b.strict) for b in body.bounds]
    lo, hi, strict = brackets[-1]
    # |step dp| <= b_p holds for certain iff step <= sure; it fails only at
    # a strict integer hi = step dp, as steps never pass R
    sure = (math.ceil(lo) - 1 if strict else math.floor(lo)) // dp
    R = math.floor(hi) // dp
    if R + 1 > budget:
        raise BudgetExceeded(R + 1, budget)
    scanned = unknowns = 0
    steps = range(R + 1)
    if len(labels) == 1:
        steps = _walk(basis, labels[0], delta, R, _scan_prec(prec, basis.cap),
                      lambda: unknowns, sure)[0]

    def nearest(point: list, j: int, k: int) -> TriBool:
        """|x_p xi_j - x_j| <= b_k for the multiple x_j of delta_j nearest
        x_p xi_j, both at the precision that decides the check (at once at
        the cap for a fixed width); x_j is written into the point."""
        xp = point[p - 1]

        def decide(w: int) -> TriBool:
            target = basis.xi_balls(w)[j - 1] * xp
            d = delta[j - 1]
            point[j - 1] = _round_half_to_zero(target.mid / d) * d
            return cmp_abs_le(target - point[j - 1], *brackets[k])
        fixed = basis.xi[j - 1].exact is None and basis.xi[j - 1].interval
        return escalate(decide, basis.cap if fixed else min(prec, basis.cap),
                        basis.cap)[0]

    for scanned, step in enumerate(steps, 1):
        xp = step * dp
        if step > sure:
            if strict and xp == hi:
                break
            unknowns += 1
            continue
        if xp == 0:
            # the only candidates are the single-axis points delta_j e_j,
            # whose constraints |0 xi_k - x_k| = |x_k| are exact
            for j in labels:
                point = [0] * p
                point[j - 1] = delta[j - 1]
                ok = body.contains(point, basis, prec)
                if ok is TriBool.TRUE:
                    return tuple(point), {"scanned": scanned,
                                          "unknowns": unknowns}
                unknowns += ok is TriBool.UNKNOWN
            continue
        point = [0] * p
        point[p - 1] = xp
        ok = tri_all(nearest(point, j, k) for k, j in enumerate(labels))
        if ok is TriBool.TRUE:
            return tuple(point), {"scanned": scanned, "unknowns": unknowns}
        unknowns += ok is TriBool.UNKNOWN
    return None, {"scanned": scanned, "unknowns": unknowns}


def directed_search_coordinate(body: ConvexBody, delta: Sequence[int],
                               basis: Basis, prec: int = 64,
                               budget: int = 10 ** 7
                               ) -> tuple[Optional[DualPoint], dict]:
    """First nonzero dual point (a_j in Z/delta_j) in a coordinate-frame box.
    Prefix ranges come from the certified (lower) end of each bound.  A
    candidate whose |v| lies strictly inside the last bound's own interval
    is an unknown at once: no precision can decide it."""
    if body.frame != "coordinate":
        raise ValidationError("need a coordinate-frame body")
    labels = body.coords[:-1]
    if body.coords[-1] != basis.p:
        raise ValidationError("last body coordinate must be p")
    ranges = []
    for b, j in zip(body.bounds, labels):
        lo = b.value.lower * delta[j - 1]
        R = math.ceil(lo) - 1 if b.strict else math.floor(lo)
        ranges.append(max(R, -1))      # a bound below 0 empties its axis
    t = body.bounds[-1]
    t_lo, t_hi = t.value.lower, t.value.upper

    def inside(v, w):
        ball = v if isinstance(v, BallReal) else BallReal.from_endpoints(*v, w)
        out = cmp_abs_le(ball, t_lo, t_hi, t.strict)
        if (out is TriBool.UNKNOWN
                and cmp_abs_le(ball, t_lo, t_lo) is TriBool.FALSE
                and cmp_abs_le(ball, t_hi, t_hi, True) is TriBool.TRUE):
            return None                 # t_lo < |v| < t_hi: undecidable
        return out
    point, n = _coordinate_scan(basis, labels, delta, ranges, budget,
                                _scan_prec(prec, basis.cap), t_hi, inside)
    return point, {"checked": n["checked"], "unknowns": n["unknowns"]}


# ---------------------------------------------------------------------------
# primal construction (condition <= 1)


def _check_lengths(p: int, tau: Sequence, delta: Sequence,
                   gamma: Sequence) -> None:
    for name, v, n in (("tau", tau, p - 1), ("delta", delta, p),
                       ("gamma", gamma, p)):
        if len(v) != n:
            raise ValidationError(f"{name} needs length {n}, got {len(v)}")


def construct_primal_form(xi: Basis, tau: Sequence[Rat], delta_n: Sequence[int],
                          Q_n: int, slack: Fraction = Fraction(1, 20),
                          prec: int = 64, budget: int = 10 ** 7,
                          gamma: Optional[Sequence[Num]] = None
                          ) -> SearchOutcome:
    """Nonzero (ell_1..ell_p) in the diagonal lattice with
    |ell_p xi_j - ell_j| <= Q^(-tau_j+slack) for all j and
    |ell_p| <= Q^(1+slack), provided the condition certifies <= 1.

    gamma declares the asymptotic divisor exponents (delta_{j,n} growing
    like Q_n^gamma_j); omitted it defaults to all zero, i.e. divisors
    bounded along the sequence.  The certificate compares the body volume
    over the J u {p} coordinates, 2^(|J|+1) Q^(1 - sum_J tau_j + (|J|+1)
    slack), against 2^dim times the concrete sublattice determinant
    delta_p prod_J delta_j (exact margin — success can outrun a failing
    margin, e.g. rational annihilation).  For each j outside J the interval
    gate delta_j Q^tau_j + Q^(-2 slack) < 1 is reported.
    """
    slack = Fraction(slack)
    if slack <= 0:
        raise ValidationError("slack must be positive")
    p = xi.p
    taus = [Fraction(t) for t in tau]
    gamma = [Fraction(0)] * p if gamma is None else list(gamma)
    _check_lengths(p, taus, delta_n, gamma)
    if Q_n < 2:
        raise ValidationError("need Q_n >= 2")
    report = check_condition(taus, gamma, prec)
    if report.relation is not TriBool.FALSE:
        raise Refusal("condition not certified <= 1", report)
    J = list(report.J)
    tau_J = sum((taus[j - 1] for j in J), Fraction(0))
    wp = _scan_prec(prec, xi.cap)
    expo = 1 - tau_J + (len(J) + 1) * slack
    det, vol = _volume(delta_n, J, Q_n, expo, wp)
    Qb = BallReal.exact(Q_n, wp)
    gates = {}
    for j in range(1, p):
        if j not in J:
            g = Qb.pow(taus[j - 1]) * delta_n[j - 1] + Qb.pow(-2 * slack)
            gates[f"gate_j{j}"] = tri_compare(1, g)
    margin = cmp_abs_vs_power(det, Q_n, expo) <= 0      # Q_n^expo >= det
    body = _primal_body(xi, taus, Q_n, slack, wp)
    point, diag = directed_search_sheared(body, delta_n, xi, prec, budget)
    if point is None:
        raise SearchFailed("no certified point in the K_n scan",
                           diag.get("unknowns", 0))
    cert = {"volume": vol, "lattice_det": BallReal.exact(det, wp),
            "margin": TriBool.TRUE if margin else TriBool.FALSE, **gates}
    diag.update(J=list(J), slack=slack)
    return SearchOutcome(kind="primal", point=point, certificate=cert,
                         diagnostics=diag)


def _volume(delta: Sequence[int], J: Sequence[int], Q: int, expo: Fraction,
            wp: int) -> tuple[int, BallReal]:
    """Minkowski certificate sides: delta_p prod_J delta_j, 2^(|J|+1) Q^expo."""
    det = delta[-1] * math.prod(delta[j - 1] for j in J)
    return det, (BallReal.exact(1 << (len(J) + 1), wp)
                 * BallReal.exact(Q, wp).pow(expo))


def surrogate_gamma(delta_n: Sequence[int], Q_n: int,
                    prec: int = 64) -> list[Union[Fraction, BallReal]]:
    """Finite-n stand-in for the asymptotic divisor exponents:
    log delta_j / log Q_n (exact 0 for delta_j = 1)."""
    lq = BallReal.exact(Q_n, prec).log()
    return [Fraction(0) if d == 1 else BallReal.exact(d, prec).log() / lq
            for d in delta_n]


def _primal_body(xi: Basis, taus: Sequence[Fraction], Q: int,
                 slack: Fraction, wp: int) -> ConvexBody:
    p = xi.p
    bounds = []
    for j in range(1, p):
        lo, hi = _power_bracket(Q, -taus[j - 1] + slack, wp)
        bounds.append(Bound(BallReal.from_endpoints(lo, hi, wp), strict=False))
    lo, hi = _power_bracket(Q, 1 + slack, wp)
    bounds.append(Bound(BallReal.from_endpoints(lo, hi, wp), strict=False))
    return ConvexBody(frame="sheared", coords=tuple(range(1, p + 1)),
                      bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# dual construction (condition > 1 with eps-margin)


def construct_dual_witness(xi: Basis, tau: Sequence[Rat], gamma: Sequence[Num],
                           delta_PhiQ: Sequence[int], Q: int, eps: Rat,
                           prec: int = 64, budget: int = 10 ** 7
                           ) -> SearchOutcome:
    """Nonzero dual point with |a_j| <= Q^(tau_j-eps) on J, a_j = 0 off
    J u {p}, and |a_1 xi_1 + ... + a_p| <= Q^(-1-eps).

    Requires the condition certified > 1 with margin above (|J|+2) eps and a
    passing exact volume certificate
    Q^(sum_J tau_j - 1 - (|J|+1) eps) * delta_p prod_J delta_j > 1; refusal
    otherwise.  The witness is the first point of the coordinate-frame scan
    that verify_conclusion runs, over the box with a_j = 0 off J u {p}.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    p = xi.p
    taus = [Fraction(t) for t in tau]
    _check_lengths(p, taus, delta_PhiQ, gamma)
    if Q < 2:
        raise ValidationError("need Q >= 2")
    report = check_condition(taus, gamma, prec)
    if report.relation is not TriBool.TRUE:
        raise Refusal("condition not certified > 1", report)
    J = list(report.J)
    need = 1 + (len(J) + 2) * eps
    if tri_compare(report.lhs, need) is not TriBool.TRUE:
        raise Refusal("margin not certified above (|J|+2) eps (need > "
                      f"{fraction_to_str(need)})", report)
    expo = sum((taus[j - 1] for j in J), Fraction(0)) - 1 - (len(J) + 1) * eps
    wp = _scan_prec(prec, xi.cap)
    det, vol = _volume(delta_PhiQ, J, Q, expo, wp)
    if cmp_abs_vs_power(Fraction(1, det), Q, expo) >= 0:  # Q^expo det <= 1
        raise Refusal("volume certificate fails: Q too small", report,
                      {"volume": vol, "needed": 1 << (len(J) + 1),
                       "lattice_det": Fraction(1, det)})
    cert = {"volume": vol, "lattice_det": BallReal.exact(Fraction(1, det), wp),
            "margin": TriBool.TRUE}
    point, n = _dual_scan(xi, J, delta_PhiQ, taus, Q, eps, prec, budget)
    if point is None:
        raise SearchFailed("no certified witness in the K_Q scan",
                           n["unknowns"])
    diag = {"checked": n["checked"], "unknowns": n["unknowns"], "J": J}
    return SearchOutcome(kind="dual", point=point, certificate=cert,
                         diagnostics=diag)


# ---------------------------------------------------------------------------
# the reciprocal construction


@dataclass
class ReciprocalEntry:
    n: int
    Q: int
    outcome: Optional[SearchOutcome]
    refusal: Optional[str]


def reciprocal_construct(skeleton: Sequence, xi: Basis, tau: Sequence[Rat],
                         eps: Fraction = Fraction(1, 20), prec: int = 64,
                         budget: int = 10 ** 7
                         ) -> tuple[list[ReciprocalEntry], Optional[FormSequence]]:
    """Run the primal construction at every skeleton entry (Q_n, delta_n),
    numbered n = 1, 2, ... in order, with eps as the per-n slack and the
    per-n surrogate gamma (log delta / log Q_n) feeding the condition
    report, so a sweep can mix accepted and refused entries.  Refusals are
    recorded per entry rather than aborting; budget and search failures
    propagate.  Successes aggregate into a FormSequence whose records
    re-enter the estimation/verification pipeline.
    """
    entries: list[ReciprocalEntry] = []
    records: list[FormRecord] = []
    for n, (Q_n, delta_n) in enumerate(skeleton, start=1):
        try:
            out = construct_primal_form(xi, tau, delta_n, Q_n, slack=eps,
                                        prec=prec, budget=budget,
                                        gamma=surrogate_gamma(delta_n, Q_n,
                                                              prec))
        except Refusal as r:
            entries.append(ReciprocalEntry(n=n, Q=Q_n, outcome=None,
                                           refusal=str(r)))
            continue
        entries.append(ReciprocalEntry(n=n, Q=Q_n, outcome=out, refusal=None))
        records.append(FormRecord(n=n, Q=Q_n, ell=tuple(out.point),
                                  delta=tuple(delta_n)))
    seq = (FormSequence(records, provenance={"generator": "reciprocal-construct",
                                             "params": {}})
           if records else None)
    return entries, seq


# ---------------------------------------------------------------------------
# brute-force oracle


def enumerate_lattice_points(body: ConvexBody, delta: Sequence[int],
                             basis: Basis, prec: int = 64,
                             limit: int = 10 ** 5
                             ) -> tuple[Optional[tuple], int, int]:
    """Full enumeration of the nonzero lattice points in an enclosing box of
    the body, filtered through body.contains (labels absent from the body
    stay 0).  Returns (first certified point, Unknown count, tested count).
    Scan order matches the directed searches: last coordinate outermost and
    ascending, remaining coordinates smallest magnitude first.
    """
    p = basis.p
    labels = body.coords[:-1]
    dp = delta[p - 1]
    wp = _scan_prec(prec, basis.cap)
    tested = 0
    unknowns = 0

    if body.frame == "sheared":
        xp_cap = math.floor(body.bounds[-1].value.upper)
        xb = basis.xi_balls(wp)
        for step in range(0, xp_cap // dp + 1):
            xp = step * dp
            axes = []
            for k, j in enumerate(labels):
                d = delta[j - 1]
                b = body.bounds[k].value.upper
                center = xb[j - 1] * xp
                lo = math.floor((center.lower - b) / d)
                hi = math.ceil((center.upper + b) / d)
                mids = sorted(range(lo, hi + 1), key=lambda m: (abs(m), -m))
                axes.append([m * d for m in mids])
            for combo in itertools.product(*axes):
                if xp == 0 and all(c == 0 for c in combo):
                    continue
                point = [0] * p
                point[p - 1] = xp
                for j, c in zip(labels, combo):
                    point[j - 1] = c
                tested += 1
                if tested > limit:
                    raise BudgetExceeded(tested, limit)
                ok = body.contains(point, basis, wp)
                if ok is TriBool.TRUE:
                    return tuple(point), unknowns, tested
                if ok is TriBool.UNKNOWN:
                    unknowns += 1
        return None, unknowns, tested

    if body.frame != "coordinate":
        raise ValidationError(f"unknown frame {body.frame!r}")
    axes = []
    for k, j in enumerate(labels):
        d = delta[j - 1]
        R = math.floor(body.bounds[k].value.upper * d)
        axes.append([Fraction(m, d) for m in _signed(R)])
    t_hi = body.bounds[-1].value.upper
    exact_xi = basis.exact_xi
    xb = None if exact_xi is not None else basis.xi_balls(wp)
    for combo in itertools.product(*axes):
        if exact_xi is not None:
            s = sum((a * exact_xi[j - 1] for a, j in zip(combo, labels)),
                    Fraction(0))
            kmin = math.ceil((-s - t_hi) * dp)
            kmax = math.floor((-s + t_hi) * dp)
        else:
            s = BallReal.exact(0, wp)
            for a, j in zip(combo, labels):
                if a:
                    s = s + xb[j - 1] * a
            kmin = math.ceil((-s.upper - t_hi) * dp)
            kmax = math.floor((-s.lower + t_hi) * dp)
        for kp in range(kmin, kmax + 1):
            ap = Fraction(kp, dp)
            if ap == 0 and all(a == 0 for a in combo):
                continue
            point = [Fraction(0)] * p
            for j, a in zip(labels, combo):
                point[j - 1] = a
            point[p - 1] = ap
            tested += 1
            if tested > limit:
                raise BudgetExceeded(tested, limit)
            ok = body.contains(point, basis, wp)
            if ok is TriBool.TRUE:
                return tuple(point), unknowns, tested
            if ok is TriBool.UNKNOWN:
                unknowns += 1
    return None, unknowns, tested
