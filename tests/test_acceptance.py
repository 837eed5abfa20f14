"""Acceptance gate: the six end-to-end targets the package is built to hit.

Each test asserts its target at the stated tolerance.  The golden-ratio
tau target is the closed-form value of tau-hat_1(60), computed independently
with mpmath; see its docstring for why it is not a window around 1.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from latforms.cli import run
from latforms.corpus import (
    dumps_jsonl,
    export_jsonl,
    gen_apery_zeta3,
    gen_fibonacci,
    import_jsonl,
    loads_jsonl,
)
from latforms.criteria import (
    _echelon,
    check_siegel,
    fit_recurrence,
    matrix_condition_check,
    verify_conclusion,
)
from latforms.exponents import estimate_tau, fit_alpha_beta, irrationality_bound
from latforms.minkowski import (
    construct_dual_witness,
    construct_primal_form,
    directed_search_coordinate,
    directed_search_sheared,
    enumerate_lattice_points,
    reciprocal_construct,
)
from latforms.model import (
    Basis,
    Bound,
    ConvexBody,
    DiagonalLattice,
    FormRecord,
    FormSequence,
    lattice_membership,
)
from latforms.numerics import BallReal, TriBool, cmp_abs_vs_power, parse_real

F = Fraction
GOLDEN = Basis((parse_real("golden"),))


@pytest.fixture(scope="module")
def fib60():
    return gen_fibonacci(60)


# -- 1. golden-ratio pipeline ------------------------------------------------

def test_golden_tau_window_at_n60(fib60):
    """Target: tau-hat_1(60) = 60 ln(phi) / ln(F_60), enclosed by a tight ball.

    By Binet |F_61 - F_60 phi| = phi^(-60) exactly, so
    tau-hat_1(n) = n ln(phi) / ln(F_n) = 1 + ln(sqrt 5)/ln(F_n) + O(phi^(-2n)).
    tau is a limit exponent: the finite-n excess ln(sqrt 5)/ln(F_60) ~ 0.0287
    belongs to tau-hat itself, so no correct estimator meets |tau-hat - 1| < 0.02
    at n=60 (that window is first met at n=86).  The target is the exact value,
    computed with mpmath at 4x the working precision; for even n the O(phi^(-2n))
    term is -ln(1 - phi^(-2n))/ln(F_n), in (0, phi^(-2n)).  The frozen excess
    pin is test_exponents.test_tau_final_60_frozen.
    """
    est = estimate_tau(fib60, GOLDEN, 1)
    ball = est.final

    def exact(x):
        man, exp = x.man_exp
        return F(man) * F(2) ** exp

    with mpmath.workprec(4 * est.precision_used):
        ln_f60 = mpmath.log(mpmath.fib(60))
        tau_60 = exact(60 * mpmath.log(mpmath.phi) / ln_f60)
        bias = exact(mpmath.log(mpmath.sqrt(5)) / ln_f60)
        binet_tail = exact(mpmath.phi ** -120)

    assert ball.contains(tau_60)
    assert ball.rad < F(1, 10**12)
    assert ball.lower - 1 - binet_tail <= bias <= ball.upper - 1 + binet_tail


def test_golden_irrationality_bound_is_two():
    """mu(golden) via 1 - log(beta)/log(alpha) with alpha = 1/phi, beta = phi:
    the enclosure must trap 2 at width < 1e-10."""
    phi = parse_real("golden").at(128)
    mb = irrationality_bound(BallReal.exact(1, 128) / phi, phi)
    assert mb.value.contains(F(2))
    assert mb.value.upper - mb.value.lower < F(1, 10**10)


def test_golden_verify_holds_through_1e6(fib60):
    for Q in (10**2, 10**3, 10**4, 10**5, 10**6):
        t0 = time.perf_counter()
        v = verify_conclusion(fib60, GOLDEN, [F(1)], Q, F(1, 5))
        elapsed = time.perf_counter() - t0
        assert v.status == "holds", Q
        assert elapsed < 5.0, (Q, elapsed)


# -- 2. Apery zeta(3) pipeline at desk scale ---------------------------------

def _lcm_to(n):
    d = 1
    for k in range(2, n + 1):
        d = math.lcm(d, k)
    return d


def _apery_poly(m):
    return 34 * m**3 + 51 * m**2 + 27 * m + 5


@pytest.fixture(scope="module")
def apery_desk():
    """One timed run of the whole zeta(3) pipeline at 2000 starting bits."""
    t0 = time.perf_counter()
    seq = gen_apery_zeta3(200, prec=2000)
    basis = Basis((parse_real("zeta3"),))
    est = estimate_tau(seq, basis, 1, prec=2000)
    alpha, beta = fit_alpha_beta(seq, basis, 1, prec=2000)
    mb = irrationality_bound(alpha, beta)
    siegel = check_siegel(seq, basis, 2, 5, prec=2000)
    fits = {n: fit_recurrence(seq, n) for n in range(5, 200, 20)}
    elapsed = time.perf_counter() - t0
    return {"seq": seq, "est": est, "mb": mb, "siegel": siegel,
            "fits": fits, "elapsed": elapsed}


def test_apery_tau_window(apery_desk):
    est = apery_desk["est"]
    assert F(6, 100) <= est.final.mid <= F(10, 100)
    # 2000 bits alone cannot separate the late evaluations from zero;
    # one doubling must have been spent
    assert est.precision_used == 4000
    assert est.consistent is TriBool.TRUE


def test_apery_irrationality_bound_window(apery_desk):
    assert F(13) <= apery_desk["mb"].value.mid <= F(139, 10)


def test_apery_siegel_report(apery_desk):
    rep = apery_desk["siegel"]
    assert rep.alpha0_ok and rep.bad_ns == []
    assert rep.det_nonzero and rep.det_n2 == -5184000000
    assert rep.rank_propagates
    assert rep.det_consistent is TriBool.TRUE


def test_apery_recurrence_recovered_at_sampled_n(apery_desk):
    """The fitted two-term recurrence at 10 sampled n must equal the scaled
    closed form: the lcm(1..n) rescaling multiplies the classical
    coefficients by (d_{n+2}/d_n)^3 resp. (d_{n+2}/d_{n+1})^3."""
    fits = apery_desk["fits"]
    assert len(fits) == 10
    for n, fit in fits.items():
        dn, dn1, dn2 = _lcm_to(n), _lcm_to(n + 1), _lcm_to(n + 2)
        a0 = -F(dn2, dn) ** 3 * F((n + 1) ** 3, (n + 2) ** 3)
        a1 = F(dn2, dn1) ** 3 * F(_apery_poly(n + 1), (n + 2) ** 3)
        assert fit is not None and fit.alpha == (a0, a1), n
        assert fit.residual and not fit.alpha0_zero


def test_apery_pipeline_under_60s(apery_desk):
    assert apery_desk["elapsed"] < 60.0


# -- 3. factorial matrix condition forces invertibility ----------------------

def _condition_matrix(rng, p):
    """Entries +-r_ij G^((i+1)(j+1)) with r in [1,2) and G = 4(p+1)!+1, then
    random rational row/column rescalings.  For i<i', j<j' the
    diagonal/cross magnitude ratio is >= G (r_min/r_max)^2 >= G/4 > (p+1)!
    and the rescalings cancel in every such ratio, so the condition holds
    by construction while the determinant question is untouched (it only
    picks up a nonzero rational factor)."""
    G = 4 * math.factorial(p + 1) + 1
    rows = [[F(rng.choice([-1, 1])) * (1 + F(rng.randrange(1000), 1001))
             * F(G) ** ((i + 1) * (j + 1)) for j in range(p)]
            for i in range(p)]
    rs = [F(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 10))
          for _ in range(p)]
    cs = [F(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 10))
          for _ in range(p)]
    return [[rs[i] * cs[j] * rows[i][j] for j in range(p)] for i in range(p)]


def _cleared(M):
    """Row-wise denominator clearing: preserves det != 0, yields ints."""
    out = []
    for row in M:
        scale = math.lcm(*(x.denominator for x in row))
        scaled = [x * scale for x in row]
        assert all(s.denominator == 1 for s in scaled)
        out.append([int(s) for s in scaled])
    return out


def test_factorial_condition_implies_nonzero_det_bulk():
    """1000 random exact-rational matrices per p in 2..5, each certified
    against the (p+1)! cross-ratio condition, must all be invertible --
    exact determinant nonzero, full rank, no exceptions."""
    for p in (2, 3, 4, 5):
        rng = random.Random(1000 + p)
        for k in range(1000):
            M = _condition_matrix(rng, p)
            balls = [[BallReal.exact(x, 96) for x in row] for row in M]
            assert matrix_condition_check(balls) is TriBool.TRUE, (p, k)
            pivots, det = _echelon(_cleared(M), p)
            assert det != 0 and len(pivots) == p, (p, k)


# -- 4. Minkowski soundness on a (tau, gamma) grid ---------------------------

Q4 = 10**4
SLACK = F(1, 20)
XI2 = ("1/2", "1/3", "2/5", "3/7", "5/8", "2/9", "4/11", "7/12")
XI3 = (("1/2", "1/3"), ("2/5", "3/7"), ("1/4", "2/7"), ("3/8", "5/9"))


def _margin_ok(taus, delta, p):
    """Independent restatement of the primal volume certificate at Q=10^4,
    slack 1/20: Q^(1 - sum_J tau + (|J|+1) slack) >= delta_p prod_J delta_j,
    decided in exact integer arithmetic."""
    J = [j for j in range(1, p) if taus[j - 1] >= 0]
    det = delta[p - 1]
    for j in J:
        det *= delta[j - 1]
    expo = 1 - sum(taus[j - 1] for j in J) + (len(J) + 1) * SLACK
    u, v = expo.numerator, expo.denominator
    return Q4 ** u >= det ** v if u >= 0 else 1 >= det ** v * Q4 ** (-u)


def _primal_grid():
    grid2, grid3 = [], []
    for xi in XI2:
        for t1 in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            for delta in ((1, 1), (1, 2), (2, 1), (3, 2), (1, 5), (4, 3)):
                if _margin_ok([t1], delta, 2):
                    grid2.append((Basis((parse_real(xi),)), [t1], list(delta)))
    for xs in XI3:
        for taus in ((F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)),
                     (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))):
            for delta in ((1, 1, 1), (1, 2, 1), (2, 1, 3), (1, 1, 4)):
                if _margin_ok(list(taus), delta, 3):
                    grid3.append((Basis(tuple(parse_real(x) for x in xs)),
                                  list(taus), list(delta)))
    return grid2, grid3


def _dual_grid():
    """Instances with exact condition value lhs > 1.  Divisors are 10^k at
    Q=10^4, so the declared gamma_i = k_i/4 are the exact divisor exponents
    and every certificate inequality is decided on rationals.  eps =
    min(1/10, (lhs-1)/(p+2)) keeps (|J|+2) eps strictly under the gap."""
    grid2, grid3 = [], []
    for xi in XI2:
        for t1 in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            for k1 in (0, 1, 2):
                for k2 in (0, 1, 2):
                    lhs = t1 + F(k1, 4) + F(k2, 4)
                    if lhs > 1:
                        eps = min(F(1, 10), (lhs - 1) / 4)
                        grid2.append((Basis((parse_real(xi),)), [t1],
                                      [F(k1, 4), F(k2, 4)],
                                      [10**k1, 10**k2], eps))
    for xs in XI3:
        for taus in ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)),
                     (F(1, 2), F(1, 2))):
            for ks in ((a, b, c) for a in (0, 1) for b in (0, 1)
                       for c in (0, 1)):
                lhs = sum(taus) + F(sum(ks), 4)
                if lhs > 1:
                    eps = min(F(1, 10), (lhs - 1) / 5)
                    grid3.append((Basis(tuple(parse_real(x) for x in xs)),
                                  list(taus), [F(k, 4) for k in ks],
                                  [10**k for k in ks], eps))
    return grid2, grid3


def test_primal_grid_constructions_repass():
    """100 grid instances with the condition certified <= 1: the primal
    construction must succeed with a passing margin, and every output must
    re-pass lattice membership and the body bounds in exact arithmetic."""
    grid2, grid3 = _primal_grid()
    assert len(grid2) >= 60 and len(grid3) >= 40
    for basis, taus, delta in grid2[:60] + grid3[:40]:
        out = construct_primal_form(basis, taus, delta, Q4)
        assert out.certificate["margin"] is TriBool.TRUE
        assert any(out.point)
        assert lattice_membership(out.point, DiagonalLattice(tuple(delta)))
        lp = out.point[basis.p - 1]
        assert cmp_abs_vs_power(F(lp), Q4, 1 + SLACK) <= 0
        for j in range(1, basis.p):
            err = lp * basis.exact_xi[j - 1] - out.point[j - 1]
            assert cmp_abs_vs_power(err, Q4, -taus[j - 1] + SLACK) <= 0


def _carrier_seq(delta):
    """Minimal quasi-geometric sequence whose Phi(10^4) record carries the
    instance divisors, so the verifier picks them up."""
    recs = [FormRecord(n=k + 1, Q=10 ** (2 + k),
                       ell=tuple(d * (k + 1) for d in delta),
                       delta=tuple(delta)) for k in range(3)]
    return FormSequence(recs)


def test_dual_grid_witness_and_independent_verify():
    """100 grid instances with the condition certified > 1 and eps-margin:
    the dual construction must produce a witness at Q = 10^4, the witness
    must violate the conclusion bound exactly, and the exhaustive verifier
    must independently return violated on the same parameters."""
    grid2, grid3 = _dual_grid()
    assert len(grid2) >= 60 and len(grid3) >= 40
    for basis, taus, gamma, delta, eps in grid2[:60] + grid3[:40]:
        out = construct_dual_witness(basis, taus, gamma, delta, Q4, eps)
        a = out.point.a
        assert any(a)
        val = sum(ai * x for ai, x in
                  zip(a, list(basis.exact_xi) + [F(1)]))
        assert cmp_abs_vs_power(val, Q4, -(1 + eps)) <= 0
        v = verify_conclusion(_carrier_seq(delta), basis, taus, Q4, eps)
        assert v.status == "violated", (basis.exact_xi, taus, gamma)


# -- 5. directed search vs full enumeration ----------------------------------

_BODY_BASES = [Basis((parse_real("1/2"),)), Basis((parse_real("1/3"),)),
               Basis((parse_real("2/7"), parse_real("1/2"))),
               Basis((parse_real("3/5"), parse_real("1/4"))),
               Basis((parse_real("-2/3"),))]


def _dyadic_body(frame, vals, strict):
    return ConvexBody(frame=frame, coords=tuple(range(1, len(vals) + 1)),
                      bounds=tuple(Bound(BallReal.exact(F(v), 64), strict=s)
                                   for v, s in zip(vals, strict)))


def test_directed_vs_enumeration_on_500_bodies():
    """Point found iff one exists, on 500 seeded random bodies (dims <= 3,
    <= 10^3 candidates each).  Rational bases and dyadic bounds keep every
    membership test exactly decidable -- sheared error bounds stay >= 1/8
    because a zero-width bound against a non-dyadic xi is undecidable in
    ball arithmetic (the bound-0 cases live in test_minkowski)."""
    rng = random.Random(4242)
    found = none = 0
    for k in range(500):
        basis = rng.choice(_BODY_BASES)
        p = basis.p
        frame = rng.choice(["sheared", "coordinate"])
        delta = [rng.choice([1, 2, 3]) for _ in range(p)]
        strict = [rng.random() < 0.3 for _ in range(p)]
        if frame == "sheared":
            vals = [F(rng.randrange(1, 24), 8) for _ in range(p - 1)]
            vals.append(F(rng.randrange(4, 48), 4))
            body = _dyadic_body(frame, vals, strict)
            direct, diag = directed_search_sheared(body, delta, basis)
            direct_pt = direct
        else:
            vals = [F(rng.randrange(0, 16), 8) for _ in range(p - 1)]
            vals.append(F(rng.randrange(0, 24), 32))
            body = _dyadic_body(frame, vals, strict)
            direct, diag = directed_search_coordinate(body, delta, basis)
            direct_pt = None if direct is None else direct.a
        brute, unknowns, tested = enumerate_lattice_points(body, delta, basis,
                                                           limit=1000)
        assert tested <= 1000
        assert unknowns == 0 and diag["unknowns"] == 0, k
        assert (direct is None) == (brute is None), k
        if direct is None:
            none += 1
        else:
            found += 1
            assert body.contains(direct_pt, basis) is TriBool.TRUE
            assert body.contains(brute, basis) is TriBool.TRUE
    assert found >= 50 and none >= 50        # both outcomes well represented


# -- 6. round-trip determinism -----------------------------------------------

def _fib_values(n_max):
    f = [0, 1]
    while len(f) <= n_max + 2:
        f.append(f[-1] + f[-2])
    return f


@pytest.fixture(scope="module")
def reciprocal_seq():
    f = _fib_values(26)
    skel = [(f[2 * n], (1, 1)) for n in range(4, 13)]
    entries, seq = reciprocal_construct(skel, GOLDEN, [F(1)])
    assert all(e.outcome is not None for e in entries)
    return seq


def test_reciprocal_feeds_back_to_declared_tau(reciprocal_seq):
    """Constructed forms re-estimated must land within 0.05 of the declared
    tau = 1."""
    est = estimate_tau(reciprocal_seq, GOLDEN, 1)
    assert abs(est.final.mid - 1) < F(1, 20)


def test_reciprocal_export_import_byte_identical(reciprocal_seq, tmp_path):
    text = dumps_jsonl(reciprocal_seq)
    assert dumps_jsonl(loads_jsonl(text)) == text
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    export_jsonl(reciprocal_seq, first)
    export_jsonl(import_jsonl(first), second)
    assert first.read_bytes() == second.read_bytes()


def _cli_sans_timestamp(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, "\n".join(line for line in out.splitlines()
                           if '"timestamp"' not in line)


@pytest.mark.parametrize("argv", [
    ("estimate", "--gen", "apery-zeta3", "--n-max", "20"),
    ("check-nesterenko", "--gen", "fibonacci-golden", "--n-max", "40"),
    ("verify", "--gen", "fibonacci-golden", "--n-max", "30",
     "--tau", "1", "--Q", "1000", "--eps", "1/5"),
])
def test_repeated_cli_runs_report_identical(capsys, argv):
    code1, rep1 = _cli_sans_timestamp(capsys, *argv)
    code2, rep2 = _cli_sans_timestamp(capsys, *argv)
    assert code1 == code2 == 0
    assert rep1 == rep2
