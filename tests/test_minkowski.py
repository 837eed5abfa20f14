"""Construction tests: condition reports, primal/dual searches with their
Minkowski certificates, refusal guards, the reciprocal sweep, and the
directed-vs-enumeration equivalence oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from latforms.numerics import (PREC_CAP, BallReal, RealConstant, TriBool,
                               cmp_abs_le, cmp_abs_vs_power, parse_real,
                               tri_compare)
from latforms.model import (
    Basis,
    Bound,
    ConvexBody,
    DiagonalLattice,
    DualPoint,
    FormRecord,
    FormSequence,
    ValidationError,
    dual_membership,
    lattice_membership,
)
import latforms.criteria as criteria
import latforms.minkowski as minkowski
from latforms.criteria import BudgetExceeded, verify_conclusion
from latforms.minkowski import (
    Refusal,
    SearchFailed,
    check_condition,
    construct_dual_witness,
    construct_primal_form,
    directed_search_coordinate,
    directed_search_sheared,
    enumerate_lattice_points,
    reciprocal_construct,
    surrogate_gamma,
)

GOLDEN = Basis((parse_real("golden"),))
HALF = Basis((parse_real("1/2"),))
THIRD = Basis((parse_real("1/3"),))

F = Fraction


def _fib(n_max):
    f = [0, 1]
    while len(f) <= n_max + 2:
        f.append(f[-1] + f[-2])
    return f


def dyadic_body(frame, coords, vals, strict=None):
    strict = strict or [False] * len(vals)
    return ConvexBody(frame=frame, coords=tuple(coords),
                      bounds=tuple(Bound(BallReal.exact(F(v), 64), strict=s)
                                   for v, s in zip(vals, strict)))


# -- condition reports -------------------------------------------------------

def test_condition_boundary_included():
    r = check_condition([F(1)], [F(0), F(0)])
    assert r.J == (1,)
    assert r.lhs.mid == 1 and r.lhs.is_exact
    assert r.relation is TriBool.FALSE          # <= 1 branch, boundary in


def test_condition_above_one():
    r = check_condition([F(9, 10), F(9, 10)], [0, 0, 0])
    assert r.J == (1, 2)
    assert r.lhs.contains(F(9, 5)) and r.lhs.rad < F(1, 2 ** 50)
    assert r.relation is TriBool.TRUE


def test_condition_negative_sum_drops_index():
    r = check_condition([F(-1, 2)], [F(1, 5), 0])
    assert r.J == ()
    assert r.lhs.mid == 0
    assert r.relation is TriBool.FALSE


def test_condition_ball_straddle_goes_unknown():
    fuzzy = BallReal.from_endpoints(F(-1, 100), F(1, 100), 64)
    r = check_condition([fuzzy], [F(0), F(0)])
    assert r.unknown_j == (1,)
    assert r.relation is TriBool.UNKNOWN


def test_condition_certified_ball_entries():
    # tau_1 enclosed away from -gamma_1: membership certified, lhs a ball
    t = BallReal.from_endpoints(F(39, 100), F(41, 100), 64)
    r = check_condition([t], [F(0), F(1, 2)])
    assert r.J == (1,) and r.unknown_j == ()
    assert r.relation is TriBool.FALSE          # lhs <= 0.41+0.5 < 1


def test_condition_length_validation():
    with pytest.raises(ValidationError):
        check_condition([F(1), F(1)], [0, 0])


def _fraction_condition(tau, gamma, prec):
    """check_condition's former branch for all-rational input: J by
    tau_j + gamma_j >= 0 and the relation by lhs > 1, on Fractions."""
    p = len(gamma)
    taus, gammas = [F(t) for t in tau], [F(g) for g in gamma]
    J = tuple(j + 1 for j in range(p - 1) if taus[j] + gammas[j] >= 0)
    lhs = gammas[p - 1] + sum(taus[j - 1] + gammas[j - 1] for j in J)
    return J, BallReal.exact(lhs, prec), TriBool.TRUE if lhs > 1 else TriBool.FALSE


_small_rationals = st.one_of(st.integers(-3, 3),
                             st.fractions(-2, 2, max_denominator=6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda p: st.tuples(
    st.lists(_small_rationals, min_size=p - 1, max_size=p - 1),
    st.lists(_small_rationals, min_size=p, max_size=p))),
    st.sampled_from([16, 64, 200]))
def test_condition_on_rationals_matches_the_fraction_branch(tg, prec):
    """All-rational input runs the loop that ball input runs, on Fractions:
    J, lhs, relation and unknown_j are those of the old Fraction branch,
    boundary sums of exactly 0 and 1 included."""
    tau, gamma = tg
    r = check_condition(tau, gamma, prec)
    J, lhs, rel = _fraction_condition(tau, gamma, prec)
    assert (r.J, r.lhs, r.relation, r.unknown_j) == (J, lhs, rel, ())


def _coerced_condition(tau, gamma, prec):
    """check_condition's former mode once any entry is a ball: every
    rational coerced to a ball at prec, then the loop on balls.  Returns
    each j's status (True in J, False out, None unknown) and the relation."""
    taus, gammas = ([x if isinstance(x, BallReal) else BallReal.exact(F(x), prec)
                     for x in v] for v in (tau, gamma))
    status, lhs = [], gammas[-1]
    for t, g in zip(taus, gammas):
        s = t + g
        out = tri_compare(-s, 0)
        status.append(None if out is TriBool.UNKNOWN else out is TriBool.FALSE)
        if out is TriBool.FALSE:
            lhs = lhs + s
    rel = TriBool.UNKNOWN if None in status else tri_compare(lhs, 1)
    return status, rel


@st.composite
def _conditions_with_one_ball(draw):
    """Rational tau and gamma with the entry at k of tau + gamma replaced
    by a ball, and that ball's value enclosed (as a ball at 4 prec bits
    for a surrogate gamma, exactly for a coerced non-dyadic rational)."""
    p = draw(st.integers(1, 4))
    tau = draw(st.lists(_small_rationals, min_size=p - 1, max_size=p - 1))
    gamma = draw(st.lists(_small_rationals, min_size=p, max_size=p))
    prec = draw(st.sampled_from([16, 64, 200]))
    if draw(st.booleans()):
        d, Q = draw(st.integers(2, 50)), draw(st.integers(2, 10 ** 6))
        ball = surrogate_gamma([d], Q, prec)[0]
        value = surrogate_gamma([d], Q, 4 * prec)[0]
    else:
        value = draw(st.fractions(-2, 2, max_denominator=12).filter(
            lambda q: q.denominator & (q.denominator - 1)))
        ball = BallReal.exact(value, prec)
    k = draw(st.integers(0, 2 * p - 2))
    entries = [*tau, *gamma]
    entries[k] = ball
    return entries[:p - 1], entries[p - 1:], prec, k, value


@settings(max_examples=300, deadline=None)
@given(_conditions_with_one_ball())
@example(([F(1, 3)], [F(-1, 3), BallReal.exact(F(1, 3), 64)], 64, 2, F(1, 3)))
def test_condition_with_one_ball_keeps_rationals_exact(case):
    """Mixed input: every index and relation the coerced oracle decides
    comes out the same, a rational boundary zero tau_j = -gamma_j is in J,
    and lhs contains gamma_p + sum_J (tau_j + gamma_j)."""
    tau, gamma, prec, k, value = case
    p = len(gamma)
    r = check_condition(tau, gamma, prec)
    status, rel = _coerced_condition(tau, gamma, prec)
    for j, known in enumerate(status, 1):
        if known is not None:
            assert (j in r.J) is known and j not in r.unknown_j
        if k not in (j - 1, p - 1 + j - 1) and tau[j - 1] + gamma[j - 1] == 0:
            assert j in r.J
    if rel is not TriBool.UNKNOWN:
        assert r.relation is rel
    exact = [value if i == k else F(x) for i, x in enumerate([*tau, *gamma])]
    total = exact[-1] + sum((exact[j - 1] + exact[p - 1 + j - 1] for j in r.J),
                            F(0))
    assert r.lhs.contains(total)


# -- primal construction -----------------------------------------------------

def test_primal_rational_annihilation():
    out = construct_primal_form(THIRD, [F(1)], [1, 3], 27)
    assert out.point == (1, 3)
    assert lattice_membership(out.point, DiagonalLattice((1, 3)))
    # 3 * (1/3) - 1 == 0: the sheared bound holds with exact zero
    assert out.point[1] * F(1, 3) - out.point[0] == 0
    # concrete det 3 exceeds Q^0.1: Minkowski margin honestly fails, yet the
    # rational annihilation succeeds anyway
    assert out.certificate["margin"] is TriBool.FALSE
    assert out.diagnostics["J"] == [1]


def test_primal_golden_convergent_pair():
    f = _fib(25)
    out = construct_primal_form(GOLDEN, [F(1)], [1, 1], f[20])
    assert out.point == (f[19], f[18])           # first convergent in range
    assert out.certificate["margin"] is TriBool.TRUE
    # re-pass the body bounds: |l2*phi - l1| <= Q^(-0.95), |l2| <= Q^1.05
    err = GOLDEN.xi_balls(128)[0] * out.point[1] - out.point[0]
    assert cmp_abs_vs_power(F(out.point[1]), f[20], F(21, 20)) <= 0
    t = BallReal.exact(f[20], 128).pow(F(-19, 20))
    assert tri_compare(t, abs(err)) is TriBool.TRUE


def _consecutive_fibonacci(big, small):
    a, b = 1, 2
    while b < big:
        a, b = b, a + b
    return (b, a) == (big, small)


def test_primal_golden_large_Q_fibonacci_pair():
    """Q = 10^50: about 10^52 steps in the box, a few hundred visited."""
    Q = 10 ** 50
    out = construct_primal_form(GOLDEN, [F(1)], [1, 1], Q, budget=10 ** 60)
    l1, l2 = out.point
    assert _consecutive_fibonacci(l1, l2)
    assert out.diagnostics["scanned"] <= 300
    err = GOLDEN.xi_balls(512)[0] * l2 - l1
    t = BallReal.exact(Q, 512).pow(F(-19, 20))
    assert tri_compare(t, abs(err)) is TriBool.TRUE


def test_primal_outside_J_gate():
    # tau_1 = -0.6 with delta_1 = floor(Q^0.2): J empty, gate certified
    out = construct_primal_form(GOLDEN, [F(-3, 5)], [15, 1], 10 ** 6)
    assert out.diagnostics["J"] == []
    assert out.certificate["gate_j1"] is TriBool.TRUE
    assert out.certificate["margin"] is TriBool.TRUE
    # nearest-multiple distance <= delta_1/2 <= Q^(0.6+slack)
    assert cmp_abs_vs_power(F(15, 2), 10 ** 6, F(13, 20)) <= 0
    assert lattice_membership(out.point, DiagonalLattice((15, 1)))


def test_primal_refusal_on_declared_gamma():
    with pytest.raises(Refusal) as info:
        construct_primal_form(HALF, [F(1)], [1, 1], 100,
                              gamma=[F(0), F(1, 2)])
    assert info.value.report.relation is TriBool.TRUE
    assert info.value.report.lhs.mid == F(3, 2)


def test_primal_validations():
    with pytest.raises(ValidationError):
        construct_primal_form(HALF, [F(1)], [1, 1], 100, slack=F(0))
    with pytest.raises(ValidationError):
        construct_primal_form(HALF, [F(1), F(1)], [1, 1], 100)
    with pytest.raises(ValidationError):
        construct_primal_form(HALF, [F(1)], [1, 1], 1)
    for gamma in ([0], [0, 0, 0]):
        with pytest.raises(ValidationError, match="^gamma needs length 2"):
            construct_primal_form(HALF, [F(1)], [1, 1], 100, gamma=gamma)


def test_primal_budget_refusal():
    with pytest.raises(BudgetExceeded) as info:
        construct_primal_form(GOLDEN, [F(1)], [1, 1], 10 ** 8, budget=100)
    assert info.value.budget == 100


# -- dual construction -------------------------------------------------------

def test_dual_rational_annihilation_witness():
    out = construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 100, F(1, 10))
    assert out.point.a == (F(2), F(-1))
    assert 2 * F(1, 2) - 1 == 0                  # exact annihilation
    assert dual_membership(out.point, DiagonalLattice((1, 1)))
    assert out.certificate["margin"] is TriBool.TRUE


def test_dual_golden_scan():
    out = construct_dual_witness(GOLDEN, [F(2)], [0, 0], [1, 1], 50, F(1, 10))
    a1, a2 = out.point.a
    assert abs(a1) <= 50 ** F(19, 10)
    # |a1 phi + a2| <= 50^(-1.1) = 0.0137..., certified
    v = GOLDEN.xi_balls(128)[0] * a1 + a2
    t = BallReal.exact(50, 128).pow(F(-11, 10))
    assert tri_compare(t, abs(v)) is TriBool.TRUE
    # the scan finds a continued-fraction pair
    assert (a1, abs(a2)) == (34, 55)


def test_dual_golden_large_Q_fibonacci_pair():
    out = construct_dual_witness(GOLDEN, [F(3, 2)], [0, 0], [1, 1], 10 ** 30,
                                 F(1, 20), budget=10 ** 45)
    a1, a2 = out.point.a
    assert a1.denominator == a2.denominator == 1
    assert _consecutive_fibonacci(-a2.numerator, a1.numerator)
    v = GOLDEN.xi_balls(512)[0] * a1 + a2
    t = BallReal.exact(10 ** 30, 512).pow(F(-21, 20))
    assert tri_compare(t, abs(v)) is TriBool.TRUE
    # the walk visits 0 and the distinct Fibonacci numbers up to a1, with
    # the prefix sums bracketed at the precision of the convergents
    visited = 1 + len({f for f in _fib(300) if 1 <= f <= a1})
    assert out.diagnostics["checked"] <= 2 * visited


def test_dual_threshold_is_inclusive():
    # Q=4, eps=1/2: the threshold Q^(-3/2) = 1/8 is met with equality by
    # a = (1/2, 0) against xi = 1/4, the first candidate of the scan and
    # the only one within the threshold of -a_1 xi_1
    out = construct_dual_witness(Basis((parse_real("1/4"),)), [2],
                                 [F(1, 2), F(1, 2)], [2, 2], 4, F(1, 2))
    assert out.point.a == (F(1, 2), F(0))
    assert out.diagnostics["checked"] == 1


def test_dual_refuses_condition_below_one():
    with pytest.raises(Refusal) as info:
        construct_dual_witness(HALF, [F(1, 2)], [0, 0], [1, 1], 100, F(1, 10))
    assert info.value.report.relation is TriBool.FALSE


def test_dual_refuses_thin_margin():
    # lhs = 1.05 > 1 but not above 1 + 3*eps = 1.3
    with pytest.raises(Refusal) as info:
        construct_dual_witness(HALF, [F(21, 20)], [0, 0], [1, 1], 100,
                               F(1, 10))
    assert "margin" in str(info.value)


def test_dual_refuses_small_Q_certificate():
    # gamma carries the margin; volume exponent is negative and the concrete
    # divisors are too small at Q = 100
    with pytest.raises(Refusal) as info:
        construct_dual_witness(HALF, [F(4, 5)], [F(1, 2), F(1, 2)],
                               [1, 1], 100, F(1, 20))
    assert "volume certificate" in str(info.value)
    assert "lattice_det" in info.value.detail


def test_dual_with_divisors_scaled_witness():
    # same exponents but delta = (4, 4): det 16 beats Q^0.3 at Q = 100
    out = construct_dual_witness(HALF, [F(4, 5)], [F(1, 2), F(1, 2)],
                                 [4, 4], 100, F(1, 20))
    a1, a2 = out.point.a
    assert dual_membership(out.point, DiagonalLattice((4, 4)))
    assert a1 * F(1, 2) + a2 == 0               # annihilation at 1/4 scale
    assert (a1, a2) == (F(1, 2), F(-1, 4))


def test_dual_verifier_coherence():
    """construct_dual_witness success => verify_conclusion violated."""
    f = _fib(30)
    seq = FormSequence([FormRecord(n=n, Q=f[n], ell=(f[n + 1], f[n]),
                                   delta=(1, 1)) for n in range(2, 26)])
    out = construct_dual_witness(GOLDEN, [F(2)], [0, 0], [1, 1], 50, F(1, 10))
    verdict = verify_conclusion(seq, GOLDEN, [F(2)], 50, F(1, 10))
    assert verdict.status == "violated"
    # the verifier's own witness re-checks too (may differ from ours)
    w = verdict.witness
    assert w is not None and any(w.a)
    assert out.point.a != () and dual_membership(w, DiagonalLattice((1, 1)))


def test_dual_validations():
    with pytest.raises(ValidationError):
        construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 100, F(0))
    with pytest.raises(ValidationError):
        construct_dual_witness(HALF, [F(2)], [0, 0, 0], [1, 1], 100, F(1, 10))
    with pytest.raises(ValidationError):
        construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 1, F(1, 10))


def test_dual_budget_refusal():
    with pytest.raises(BudgetExceeded):
        construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 10 ** 4,
                               F(1, 10), budget=50)


def test_dual_box_within_budget_is_scanned():
    """The dual scan and the coordinate search estimate prod(2 R_j + 1)
    candidates, as verify does: a box of budget/2 < prod <= budget is
    scanned, and one candidate fewer of budget refuses it."""
    ranges = criteria._box_ranges([1, 1], [1], [F(2)], 100, F(1, 10))
    estimate = math.prod(2 * R + 1 for R in ranges)
    assert ranges == [6309] and estimate == 12619
    out = construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 100, F(1, 10),
                                 budget=estimate)
    assert out.point == construct_dual_witness(
        HALF, [F(2)], [0, 0], [1, 1], 100, F(1, 10)).point
    with pytest.raises(BudgetExceeded):
        construct_dual_witness(HALF, [F(2)], [0, 0], [1, 1], 100, F(1, 10),
                               budget=estimate - 1)
    for basis, vals, estimate in ((HALF, [10, F(1, 4)], 21),
                                  (Basis((parse_real("1/3"), parse_real("sqrt(2)"))),
                                   [3, 4, F(1, 8)], 63)):
        body = dyadic_body("coordinate", range(1, basis.p + 1), vals)
        delta = [1] * basis.p
        point, _ = directed_search_coordinate(body, delta, basis,
                                              budget=estimate)
        assert point == directed_search_coordinate(body, delta, basis)[0]
        with pytest.raises(BudgetExceeded):
            directed_search_coordinate(body, delta, basis, budget=estimate - 1)


# -- volume certificate => success -------------------------------------------

def test_margin_true_implies_primal_success():
    """Minkowski guarantee at desk scale: whenever the exact margin passes
    (J covering all coordinates, so no gate caveats), the scan must find a
    point."""
    rng = random.Random(23)
    bases = [HALF, THIRD, GOLDEN, Basis((parse_real("sqrt(2)"),)),
             Basis((parse_real("sqrt(2)"), parse_real("sqrt(3)"))),
             Basis((parse_real("1/3"), parse_real("2/7"), parse_real("sqrt(5)"))),
             Basis((parse_real("golden"), parse_real("sqrt(7)"),
                    parse_real("3/11"), parse_real("sqrt(10)")))]
    ran = 0
    for _ in range(40):
        xi = rng.choice(bases)
        p = xi.p
        taus = [F(rng.choice([0, 1, 2, 5]), 10) for _ in range(p - 1)]
        if sum(taus) > 1:
            continue
        delta = [rng.choice([1, 1, 2]) for _ in range(p)]
        Q = rng.choice([64, 100, 243])
        out = construct_primal_form(xi, taus, delta, Q)   # may not raise
        if out.certificate["margin"] is TriBool.TRUE:
            ran += 1
        assert lattice_membership(out.point, DiagonalLattice(tuple(delta)))
        assert any(out.point)
    assert ran >= 10


# -- directed vs brute-force equivalence -------------------------------------

def _random_sheared(rng, basis):
    p = basis.p
    vals = [F(rng.randrange(0, 40), 8) for _ in range(p - 1)]
    vals.append(F(rng.randrange(4, 80), 4))
    strict = [rng.random() < 0.3 for _ in range(p)]
    delta = [rng.choice([1, 2, 3]) for _ in range(p)]
    return dyadic_body("sheared", range(1, p + 1), vals, strict), delta


def _random_coordinate(rng, basis):
    p = basis.p
    vals = [F(rng.randrange(0, 32), 8) for _ in range(p - 1)]
    vals.append(F(rng.randrange(0, 24), 32))
    strict = [rng.random() < 0.3 for _ in range(p)]
    delta = [rng.choice([1, 2, 3]) for _ in range(p)]
    return dyadic_body("coordinate", range(1, p + 1), vals, strict), delta


def test_sheared_equivalence_sampled():
    rng = random.Random(101)
    bases = [HALF, THIRD, Basis((parse_real("2/7"), parse_real("1/2")))]
    found = 0
    for _ in range(40):
        basis = rng.choice(bases)
        body, delta = _random_sheared(rng, basis)
        direct, diag = directed_search_sheared(body, delta, basis)
        brute, unknowns, _ = enumerate_lattice_points(body, delta, basis,
                                                      limit=20000)
        assert unknowns == 0 and diag["unknowns"] == 0
        assert (direct is None) == (brute is None)
        if direct is not None:
            found += 1
            assert body.contains(direct, basis) is TriBool.TRUE
            assert body.contains(brute, basis) is TriBool.TRUE
    assert 5 <= found < 40                       # both outcomes exercised


def test_coordinate_equivalence_sampled():
    rng = random.Random(202)
    bases = [HALF, THIRD, Basis((parse_real("2/7"), parse_real("1/2")))]
    found = 0
    for _ in range(40):
        basis = rng.choice(bases)
        body, delta = _random_coordinate(rng, basis)
        direct, diag = directed_search_coordinate(body, delta, basis)
        brute, unknowns, _ = enumerate_lattice_points(body, delta, basis,
                                                      limit=20000)
        assert unknowns == 0 and diag["unknowns"] == 0
        assert (direct is None) == (brute is None)
        if direct is not None:
            found += 1
            assert body.contains(direct.a, basis) is TriBool.TRUE
            assert body.contains(brute, basis) is TriBool.TRUE
    assert 5 <= found < 40


# -- convergent steps vs the linear scans ------------------------------------

SQRTS = [k for k in range(2, 40) if int(k ** 0.5) ** 2 != k]


def _random_xi(rng):
    """A seeded xi expression: a rational, sqrt(k) or golden."""
    kind = rng.randrange(3)
    if kind == 0:
        return f"{rng.randrange(-60, 60)}/{rng.randrange(1, 50)}"
    return f"sqrt({rng.choice(SQRTS)})" if kind == 1 else "golden"


def _basis(*exprs, cap=PREC_CAP):
    return Basis(tuple(parse_real(x) for x in exprs), cap)


def _linear_convergents(basis, j, ratio, R, work):
    """No denominator certified and every step from 1 open: the single-label
    walk visits every step, as the linear scan does."""
    return [], min(1, R + 1), work


def _with_and_without_convergents(monkeypatch, run):
    """run() on fresh handles with the convergent steps, then with every
    step visited (_linear_convergents)."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(criteria, "_convergents", _linear_convergents)
        slow = run()
    return fast, slow


def _outcome(call):
    """(status, point, unknowns) of a construction, refusals included."""
    try:
        out = call()
    except Refusal as e:
        return "refused", str(e), None
    except SearchFailed as e:
        return "failed", None, e.unknowns
    return "found", out.point, out.diagnostics["unknowns"]


DELTAS = (1, 2, 3, 5, 10)


def test_convergent_verify_matches_linear_scan(monkeypatch):
    rng = random.Random(404)
    seen = set()
    for _ in range(60):
        xi = _random_xi(rng)
        delta = (rng.choice(DELTAS), rng.choice(DELTAS))
        seq = FormSequence([FormRecord(n=k + 1, Q=10 ** (1 + k),
                                       ell=tuple(d * (k + 1) for d in delta),
                                       delta=delta) for k in range(4)])
        tau, eps = rng.choice([F(1, 2), F(3, 4), 1, F(5, 4)]), \
            rng.choice([F(1, 10), F(1, 5), F(1, 4)])
        Q = rng.randrange(10, 3000)
        if delta[0] * Q ** float(tau - eps) > 2000:
            continue

        def run():
            v = verify_conclusion(seq, _basis(xi), [tau], Q, eps)
            return (v.status, v.witness,
                    v.diagnostics.get("unknown_candidates"))
        fast, slow = _with_and_without_convergents(monkeypatch, run)
        assert fast == slow, (xi, delta, tau, eps, Q)
        seen.add(fast[0])
    assert seen == {"holds", "violated"}


def test_convergent_dual_matches_linear_scan(monkeypatch):
    """p = 2, and p = 3 with J = {1} (tau_2 + gamma_2 < 0)."""
    rng = random.Random(505)
    seen = set()
    for k in range(60):
        p3 = k % 3 == 2
        xis = [_random_xi(rng) for _ in range(2 if p3 else 1)]
        delta = [rng.choice(DELTAS) for _ in range(len(xis) + 1)]
        tau = [rng.choice([F(5, 4), F(3, 2), F(7, 4)])] + \
            ([F(-1, 2)] if p3 else [])
        eps = rng.choice([F(1, 20), F(1, 10)])
        Q = rng.randrange(4, 400)
        if delta[0] * Q ** float(tau[0] - eps) > 2000:
            continue
        gamma = [0] * len(delta)
        fast, slow = _with_and_without_convergents(
            monkeypatch, lambda: _outcome(lambda: construct_dual_witness(
                _basis(*xis), tau, gamma, delta, Q, eps)))
        assert fast == slow, (xis, delta, tau, eps, Q)
        seen.add(fast[0])
    assert {"found", "refused"} <= seen


def test_convergent_coordinate_search_matches_linear_scan(monkeypatch):
    rng = random.Random(606)
    found = unknown = 0
    for _ in range(60):
        xi = _random_xi(rng)
        delta = [rng.choice(DELTAS), rng.choice(DELTAS)]
        lo = F(rng.randrange(0, 2000 * 8), 8 * delta[0])
        b = (BallReal.exact(lo, 64) if rng.random() < 0.5 else
             BallReal.from_endpoints(lo, lo + F(rng.randrange(1, 9), 8), 64))
        t = F(rng.randrange(1, 64), 2 ** rng.randrange(8, 16))
        # an interval threshold leaves the candidates inside it unknown
        t = (BallReal.exact(t, 64) if rng.random() < 0.6 else
             BallReal.from_endpoints(t, 2 * t, 64))
        body = ConvexBody(frame="coordinate", coords=(1, 2), bounds=(
            Bound(b, strict=rng.random() < 0.3),
            Bound(t, strict=rng.random() < 0.3)))

        def run():
            point, diag = directed_search_coordinate(body, delta, _basis(xi))
            return point, diag["unknowns"]
        fast, slow = _with_and_without_convergents(monkeypatch, run)
        assert fast == slow, (xi, delta, b, t)
        found += fast[0] is not None
        unknown += fast[1] > 0
    assert 5 <= found < 60 and unknown >= 5


def test_convergent_sheared_search_matches_linear_scan(monkeypatch):
    rng = random.Random(808)
    found = unknown = 0
    for _ in range(60):
        xi = _random_xi(rng)
        delta = [rng.choice(DELTAS), rng.choice(DELTAS)]
        t = F(rng.randrange(1, 64), 2 ** rng.randrange(6, 14))
        t = (BallReal.exact(t, 64) if rng.random() < 0.6 else
             BallReal.from_endpoints(t, 2 * t, 64))
        top = F(rng.randrange(1, 2000 * 8), 8) * delta[1]
        body = ConvexBody(frame="sheared", coords=(1, 2), bounds=(
            Bound(t, strict=rng.random() < 0.3),
            Bound(BallReal.exact(top, 64), strict=rng.random() < 0.3)))

        def run():
            point, diag = directed_search_sheared(body, delta,
                                                  _basis(xi, cap=1024))
            return point, diag["unknowns"]
        fast, slow = _with_and_without_convergents(monkeypatch, run)
        assert fast == slow, (xi, delta, t, top)
        found += fast[0] is not None
        unknown += fast[1] > 0
    assert 5 <= found < 60 and unknown >= 5


def test_convergent_primal_matches_linear_scan(monkeypatch):
    rng = random.Random(707)
    seen = set()
    for _ in range(60):
        xi = _random_xi(rng)
        delta = [rng.choice(DELTAS), rng.choice(DELTAS)]
        tau = rng.choice([F(1, 4), F(1, 2), F(3, 4), 1])
        Q = rng.randrange(2, 2500)
        if Q ** 1.05 / delta[1] > 2000:
            continue
        fast, slow = _with_and_without_convergents(
            monkeypatch, lambda: _outcome(lambda: construct_primal_form(
                _basis(xi), [tau], delta, Q)))
        assert fast == slow, (xi, delta, tau, Q)
        seen.add(fast[0])
    assert "found" in seen


def _escalating(expr):
    """The fixed ball of a mid±rad literal as a computed handle, which
    takes the escalating ball path, not the exact interval: the same ball
    at every precision from 64 bits on."""
    ball = parse_real(expr).at(64)
    return RealConstant(expr, compute=lambda prec: ball)


_DECIMAL = st.integers(-25000, 25000).map(
    lambda k: f"{'-' * (k < 0)}{abs(k) // 10000}.{abs(k) % 10000:04d}")


@settings(max_examples=60, deadline=None)
@given(mids=st.lists(_DECIMAL, min_size=1, max_size=2),
       rads=st.lists(st.sampled_from(["0.0001", "0.003", "0.01", "0.05"]),
                     min_size=2, max_size=2),
       delta=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       taus=st.lists(st.sampled_from([F(1, 4), F(1, 2), F(1)]), min_size=2,
                     max_size=2),
       Q=st.integers(2, 40), eps=st.sampled_from([F(1, 20), F(1, 8)]))
def test_interval_route_is_the_escalating_routes_limit(mids, rads, delta,
                                                        taus, Q, eps):
    """A fixed-width xi read from its exact interval gives what the same
    ball gives on the escalating path at cap 256: the same verdict,
    witness, point and convergents, and no more unknowns (fewer only where
    the exact ends decide what the rounded balls leave open)."""
    exprs = [f"{m}±{r}" for m, r in zip(mids, rads)]
    p = len(exprs) + 1
    delta = tuple(delta[:p])
    exact = Basis(tuple(parse_real(e) for e in exprs), 256)
    balls = Basis(tuple(_escalating(e) for e in exprs), 256)
    assert None not in (h.interval for h in exact.xi)
    seq = FormSequence([FormRecord(n=1, Q=Q, ell=delta, delta=delta)])
    taus = taus[:p - 1]
    a, b = (verify_conclusion(seq, basis, taus, Q, eps)
            for basis in (exact, balls))
    assert (a.status, a.witness) == (b.status, b.witness)
    assert a.diagnostics["escalations"] == 0
    assert a.diagnostics["unknown_candidates"] <= \
        b.diagnostics["unknown_candidates"]
    gamma = [0] * p
    for build in (lambda xi: construct_dual_witness(
                      xi, [F(3, 2 * (p - 1))] * (p - 1), gamma, delta, Q,
                      eps),
                  lambda xi: construct_primal_form(xi, taus, delta, Q,
                                                   slack=eps)):
        (sa, pa, ua), (sb, pb, ub) = (_outcome(lambda: build(xi))
                                      for xi in (exact, balls))
        assert (sa, pa) == (sb, pb)
        assert ua is ub is None or ua <= ub
    for j in range(1, p):
        ratio = F(delta[-1], delta[j - 1])
        qa, qb = (criteria._convergents(xi, j, ratio, 10 ** 6, 96)
                  for xi in (exact, balls))
        assert qa[:2] == qb[:2]


@pytest.mark.parametrize("xi", ["0.3±0.001", "0.5±0.01"])
def test_fixed_width_xi_keeps_the_linear_counts(monkeypatch, xi):
    """A fixed-width xi does not narrow, so only the denominators certified
    at the start precision are skipped to.  For 0.5±0.01 that is none past
    1, and every counter is the linear scan's; for 0.3±0.001 the verify
    skips 2, 4, 5 and 6 to the open steps from 7 (15 prefixes against 19),
    with the same verdict and unknowns."""
    seq = FormSequence([FormRecord(n=k + 1, Q=10 ** (1 + k), ell=(k + 1, k + 1),
                                   delta=(1, 1)) for k in range(3)])

    def run():
        v = verify_conclusion(seq, _basis(xi, cap=256), [1], 50, F(1, 4))
        out = [(v.status, v.witness, v.diagnostics)]
        for build in (lambda: construct_dual_witness(
                          _basis(xi, cap=256), [F(3, 2)], [0, 0], [1, 1], 40,
                          F(1, 20)),
                      lambda: construct_primal_form(
                          _basis(xi, cap=256), [F(1, 2)], [1, 2], 300)):
            try:
                res = build()
                out.append((res.point, res.diagnostics))
            except SearchFailed as e:
                out.append(("failed", e.unknowns))
        return out
    fast, slow = _with_and_without_convergents(monkeypatch, run)
    assert fast[0][2]["unknown_candidates"] > 0
    if xi == "0.5±0.01":
        assert fast == slow
        return
    (status, witness, diag), (_, _, linear) = fast[0], slow[0]
    assert (status, witness) == slow[0][:2]
    assert diag["unknown_candidates"] == linear["unknown_candidates"]
    assert (diag["prefixes"], linear["prefixes"]) == (15, 19)
    assert fast[1:] == slow[1:]


def _spy_steps(monkeypatch):
    """Record every step the single-label walk (criteria._walk) visits."""
    seen = []
    real = criteria._steps

    def spy(*args):
        for step in real(*args):
            seen.append(step)
            yield step
    monkeypatch.setattr(criteria, "_steps", spy)
    return seen


@pytest.mark.parametrize("t_lo, t_hi, walk, unknowns", [
    # ||m sqrt 2|| for m = 1..5: .414 .172 .243 .343 .071.  The first
    # convergent, 1, lies inside the threshold's own width: the walk goes
    # on at 2 and is the linear scan from there.
    (F(7, 64), F(29, 64), [0, 1, 2, 3, 4, 5], 4),
    # only 5 (.071) is undecided; 3 and 4 are skipped before it, and 6..12
    # are visited after it, up to ||12 sqrt 2|| = .029
    (F(1, 16), F(5, 64), [0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12], 1),
])
def test_walk_continues_after_an_undecided_convergent(monkeypatch, t_lo, t_hi,
                                                      walk, unknowns):
    body = ConvexBody(frame="coordinate", coords=(1, 2), bounds=(
        Bound(BallReal.exact(20, 64), strict=False),
        Bound(BallReal.from_endpoints(t_lo, t_hi, 64), strict=False)))

    def run():
        point, diag = directed_search_coordinate(body, [1, 1], _basis("sqrt(2)"))
        return point, diag["unknowns"], diag["checked"]
    with monkeypatch.context() as m:
        seen = _spy_steps(m)
        fast, slow = _with_and_without_convergents(monkeypatch, run)
    assert seen[:len(walk)] == walk               # each step visited once
    assert fast[:2] == slow[:2] and fast[1] == unknowns
    assert fast[0].a[0] == walk[-1]
    assert fast[2] <= slow[2]


def test_sheared_walk_visits_the_steps_the_top_bound_leaves_open(monkeypatch):
    """|x_p| <= [5.5, 10.5] leaves the steps 6..10 unknown, none of them a
    convergent denominator of sqrt 2 (1, 2, 5, 12): the walk visits them
    all, as the linear scan does."""
    body = ConvexBody(frame="sheared", coords=(1, 2), bounds=(
        Bound(BallReal.exact(F(1, 1000), 64), strict=False),
        Bound(BallReal.from_endpoints(F(11, 2), F(21, 2), 64), strict=False)))

    def run():
        return directed_search_sheared(body, [1, 1], _basis("sqrt(2)"))
    with monkeypatch.context() as m:
        seen = _spy_steps(m)
        fast, slow = _with_and_without_convergents(monkeypatch, run)
    assert seen[:9] == [0, 1, 2, 5, 6, 7, 8, 9, 10]
    assert fast == (None, {"scanned": 9, "unknowns": 5})
    assert slow == (None, {"scanned": 11, "unknowns": 5})


def test_sheared_step_with_a_label_certainly_out_is_not_unknown():
    """A step is folded over its labels as contains folds its constraints:
    a step whose label 1 stays undecided but whose label 2 certainly fails
    is excluded, not unknown.  The walk then counts the unknowns the
    enumeration oracle counts; it used to stop at label 1 and count 18."""
    basis = Basis((parse_real("0.5±0.01"), parse_real("1/3")), 256)
    body = ConvexBody(frame="sheared", coords=(1, 2, 3), bounds=tuple(
        Bound(BallReal.exact(b, 96), strict=False)
        for b in (F(1, 20), F(1, 100), F(40))))
    assert directed_search_sheared(body, [1, 1, 1], basis, prec=64) \
        == (None, {"scanned": 41, "unknowns": 6})
    assert enumerate_lattice_points(body, [1, 1, 1], basis, prec=64)[:2] \
        == (None, 6)


def test_coordinate_range_from_certified_end():
    # |a_1| <= b with b only known to lie in [9/10, 21/10]: no a_1 != 0 is
    # certified inside, so neither search may return a point
    b = BallReal.from_endpoints(F(9, 10), F(21, 10), 64)
    body = ConvexBody(frame="coordinate", coords=(1, 2),
                      bounds=(Bound(b, strict=False),
                              Bound(BallReal.exact(F(3, 10), 64), strict=False)))
    direct, diag = directed_search_coordinate(body, [1, 1], GOLDEN)
    brute, unknowns, _ = enumerate_lattice_points(body, [1, 1], GOLDEN)
    assert direct is None and diag["unknowns"] == 0
    assert brute is None and unknowns == 2
    # a strict bound excludes its own end: |a_1| < b with b in [1, 3/2]
    # certifies no a_1 != 0, though a_1 = 1, a_2 = -2 meets the last bound
    for b in (BallReal.exact(1, 64), BallReal.from_endpoints(1, F(3, 2), 64)):
        body = ConvexBody(frame="coordinate", coords=(1, 2),
                          bounds=(Bound(b, strict=True),
                                  Bound(BallReal.exact(F(2, 5), 64),
                                        strict=False)))
        assert directed_search_coordinate(body, [1, 1], GOLDEN)[0] is None
        assert enumerate_lattice_points(body, [1, 1], GOLDEN)[0] is None


def test_undecidable_candidate_is_unknown_without_escalating():
    """|3 phi - 5| = 0.145... lies strictly inside the last bound's
    interval [1/10, 1/5]: no precision decides it, so the search counts it
    unknown at the start precision instead of doubling up to the cap."""
    golden = parse_real("golden")
    asked = []
    at = golden.at
    golden.at = lambda prec: asked.append(prec) or at(prec)
    body = ConvexBody(frame="coordinate", coords=(1, 2),
                      bounds=(Bound(BallReal.exact(3, 64), strict=False),
                              Bound(BallReal.from_endpoints(F(1, 10), F(1, 5),
                                                            64),
                                    strict=False)))
    point, diag = directed_search_coordinate(body, [1, 1], Basis((golden,)))
    assert point is None and diag == {"checked": 1, "unknowns": 1}
    assert asked and max(asked) == asked[0]


def _at_each_cap(run):
    """(most bits asked of golden, result of run) on a golden basis at the
    default cap, then on one capped at 128 bits."""
    out = []
    for cap in (PREC_CAP, 128):
        golden = parse_real("golden")
        asked = []
        golden.at = lambda prec, at=golden.at: asked.append(prec) or at(prec)
        result = run(Basis((golden,), cap))
        out.append((max(asked), result))
    return out


def test_capped_basis_bounds_the_coordinate_search():
    """The candidate 3 phi - 5 lies within 2^-200 of the last bound: it is
    certified at 384 bits, and stays unknown on a basis capped at 128."""
    # |3 phi - 5| = (7 - 3 sqrt 5)/2, bounded from above within 2^-200
    t = F((7 << 200) - 3 * math.isqrt(5 << 400), 1 << 201)
    body = ConvexBody(frame="coordinate", coords=(1, 2), bounds=(
        Bound(BallReal.exact(3, 64), strict=False),
        Bound(BallReal.exact(t, 256), strict=False)))
    assert _at_each_cap(
        lambda b: directed_search_coordinate(body, [1, 1], b)) == [
            (384, (DualPoint((F(3), F(-5))), {"checked": 1, "unknowns": 0})),
            (128, (None, {"checked": 1, "unknowns": 1}))]


def test_no_scan_reads_golden_past_a_cap_below_96_bits():
    """The scans start at 96 bits, but never past the basis cap: at cap 64
    each of them reads golden at 64 bits at most and gives the answer it
    gives uncapped."""
    f = _fib(30)
    seq = FormSequence([FormRecord(n=n, Q=f[n], ell=(f[n + 1], f[n]),
                                   delta=(1, 1)) for n in range(2, 26)])
    body = ConvexBody(frame="coordinate", coords=(1, 2), bounds=(
        Bound(BallReal.exact(40, 64), strict=False),
        Bound(BallReal.exact(F(1, 50), 64), strict=False)))
    runs = [
        (lambda b: verify_conclusion(seq, b, [1], 10 ** 4, F(1, 5)).status,
         "holds"),
        (lambda b: construct_dual_witness(b, [F(3, 2)], [0, 0], [1, 1], 1000,
                                          F(1, 10)).point,
         DualPoint((F(987), F(-1597)))),
        (lambda b: construct_primal_form(b, [F(1)], [1, 1], 987).point,
         (610, 377)),
        (lambda b: directed_search_coordinate(body, [1, 1], b)[0],
         DualPoint((F(34), F(-55))))]
    for run, want in runs:
        golden = parse_real("golden")
        asked = []
        golden.at = lambda prec, at=golden.at: asked.append(prec) or at(prec)
        assert run(Basis((golden,), 64)) == want == run(GOLDEN)
        assert asked and max(asked) <= 64


def test_capped_basis_bounds_the_reciprocal_construction():
    """At Q = 10^19 the convergents of phi up to Q^(21/20) need 192 bits;
    on a basis capped at 128 bits the walk finds the same point, the
    convergent (F_88, F_87), without them."""
    point = (1100087778366101931, 679891637638612258)
    assert _at_each_cap(lambda b: reciprocal_construct(
        [(10 ** 19, (1, 1))], b, [1], budget=10 ** 21)[0][0].outcome.point) \
        == [(192, point), (128, point)]


def test_coordinate_equivalence_inexact_prefix_bounds():
    """Prefix bounds known only up to an interval: every returned point is
    certified, and the directed search finds one exactly when the oracle
    finds a certified one."""
    rng = random.Random(303)
    bases = [HALF, THIRD, GOLDEN, Basis((parse_real("2/7"), parse_real("1/2")))]
    found = 0
    for _ in range(80):
        basis = rng.choice(bases)
        p = basis.p
        bounds = []
        for _ in range(p - 1):
            lo = F(rng.randrange(0, 24), 8)
            hi = lo + F(rng.randrange(1, 16), 8)
            bounds.append(Bound(BallReal.from_endpoints(lo, hi, 64),
                                strict=rng.random() < 0.3))
        bounds.append(Bound(BallReal.exact(F(rng.randrange(1, 24), 32), 64),
                            strict=rng.random() < 0.3))
        body = ConvexBody(frame="coordinate", coords=tuple(range(1, p + 1)),
                          bounds=tuple(bounds))
        delta = [rng.choice([1, 2, 3]) for _ in range(p)]
        direct, _ = directed_search_coordinate(body, delta, basis)
        brute, _, _ = enumerate_lattice_points(body, delta, basis,
                                               limit=20000)
        assert (direct is None) == (brute is None)
        if direct is not None:
            found += 1
            assert body.contains(direct.a, basis) is TriBool.TRUE
    assert 5 <= found < 80


def test_strict_zero_bound_empties_both_searches():
    # |a_1| < 0 is unsatisfiable: directed and brute force agree on "none"
    body = dyadic_body("coordinate", [1, 2], [0, F(1, 4)], [True, False])
    direct, _ = directed_search_coordinate(body, [1, 1], HALF)
    brute, _, _ = enumerate_lattice_points(body, [1, 1], HALF)
    assert direct is None and brute is None
    body2 = dyadic_body("sheared", [1, 2], [0, 10], [True, False])
    direct2, _ = directed_search_sheared(body2, [1, 1], HALF)
    brute2, _, _ = enumerate_lattice_points(body2, [1, 1], HALF)
    assert direct2 is None and brute2 is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-24, 64), min_size=2, max_size=2),
       st.integers(1, 3), st.booleans())
def test_sheared_last_bound_is_decided_on_integers(ends, dp, strict):
    """|x_p| <= b_p is decided on the integer x_p = step dp, with no ball:
    every step counts as the per-step cmp_abs_le(BallReal.exact(x_p), ...)
    counted it, on strict and non-strict brackets with integer, quarter
    and negative ends.  The labelled bounds are negative, so no point
    passes and the scan reports the steps it took and its unknowns."""
    lo, hi = sorted(F(e, 4) for e in ends)
    bounds = [Bound(BallReal.exact(-1, 64), strict=False)] * 2
    bounds.append(Bound(BallReal.from_endpoints(lo, hi, 64), strict))
    body = ConvexBody(frame="sheared", coords=(1, 2, 3), bounds=tuple(bounds))
    assert (body.bounds[-1].value.lower, body.bounds[-1].value.upper) == (lo, hi)
    scanned = unknowns = 0
    for step in range(math.floor(hi) // dp + 1):
        scanned += 1
        ok = cmp_abs_le(BallReal.exact(step * dp, 64), lo, hi, strict)
        if ok is TriBool.FALSE:
            break
        unknowns += ok is TriBool.UNKNOWN
    basis = Basis((parse_real("1/2"), parse_real("sqrt(2)")))
    assert directed_search_sheared(body, [1, 1, dp], basis) == \
        (None, {"scanned": scanned, "unknowns": unknowns})


def test_directed_search_frame_validation():
    body, delta = _random_sheared(random.Random(1), HALF)
    with pytest.raises(ValidationError):
        directed_search_coordinate(body, delta, HALF)
    (body2, delta2) = _random_coordinate(random.Random(1), HALF)
    with pytest.raises(ValidationError):
        directed_search_sheared(body2, delta2, HALF)


# -- reciprocal sweep --------------------------------------------------------

def test_reciprocal_golden_round_trip():
    from latforms.exponents import estimate_tau
    f = _fib(24)
    skel = [(f[2 * n], (1, 1)) for n in range(4, 12)]
    entries, seq = reciprocal_construct(skel, GOLDEN, [F(1)])
    assert all(e.outcome is not None for e in entries)
    # per-n convergent forms: consecutive Fibonacci pairs
    for e in entries:
        l1, l2 = e.outcome.point
        assert l1 in f and l2 in f and f.index(l1) == f.index(l2) + 1
    assert seq.provenance["generator"] == "reciprocal-construct"
    est = estimate_tau(seq, GOLDEN, 1)
    assert abs(est.final.mid - 1) < F(5, 100)


def test_reciprocal_rational_zero_error():
    skel = [(3 ** k, (1, 1)) for k in range(2, 8)]
    entries, seq = reciprocal_construct(skel, THIRD, [F(1)])
    for e in entries:
        l1, l2 = e.outcome.point
        assert l2 * F(1, 3) - l1 == 0            # exact annihilation each n
    assert len(seq.records) == 6


def test_reciprocal_mixed_condition_sweep():
    f = _fib(20)
    skel = [(f[2 * n], (1, 1)) for n in range(4, 9)]
    skel[2] = (skel[2][0], (1, 60))              # fat divisor at one entry
    entries, seq = reciprocal_construct(skel, GOLDEN, [F(1)])
    assert entries[2].outcome is None
    assert "condition" in entries[2].refusal
    assert sum(e.outcome is not None for e in entries) == 4
    assert len(seq.records) == 4


def test_reciprocal_all_refused_returns_no_sequence():
    entries, seq = reciprocal_construct([(100, (1, 60)), (1000, (1, 700))],
                                        GOLDEN, [F(1)])
    assert seq is None and all(e.refusal for e in entries)


def test_surrogate_gamma_values():
    g = surrogate_gamma([1, 8], 64)
    assert g[0] == 0
    assert g[1].contains(F(1, 2))                # log 8 / log 64
    assert g[1].rad < F(1, 2 ** 40)