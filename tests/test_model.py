"""Form sequences, lattices, convex bodies, basis evaluation."""

import random
from fractions import Fraction

import mpmath
import pytest

from latforms.numerics import BallReal, TriBool, cmp_abs_le, parse_real
from latforms.model import (
    Basis,
    Bound,
    ConvexBody,
    DiagonalLattice,
    DualPoint,
    FormRecord,
    FormSequence,
    MissingRecord,
    ValidationError,
    _form,
    divisor_chain_check,
    dual_membership,
    eval_at_basis,
    lattice_membership,
)

PHI_M6 = Fraction("0.055728090000841214")  # phi^-6, frozen to 18 digits


def fib_seq(n_max=12):
    """Hand-rolled Fibonacci convergent records (F_{n+1}, F_n), Q = F_n."""
    F = [0, 1]
    while len(F) <= n_max + 2:
        F.append(F[-1] + F[-2])
    recs = [FormRecord(n=n, Q=F[n], ell=(F[n + 1], F[n]), delta=(1, 1))
            for n in range(2, n_max + 1)]
    return FormSequence(recs)


def golden_basis():
    return Basis((parse_real("golden", 64),))


# ---------------------------------------------------------------------------
# records and sequences
# ---------------------------------------------------------------------------

def test_record_validation():
    with pytest.raises(ValidationError):
        FormRecord(n=0, Q=0, ell=(1, 1), delta=(1, 1))
    with pytest.raises(ValidationError):
        FormRecord(n=0, Q=1, ell=(1, 1), delta=(1,))
    with pytest.raises(ValidationError):
        FormRecord(n=0, Q=1, ell=(3,), delta=(1,))
    with pytest.raises(ValidationError):
        FormRecord(n=0, Q=1, ell=(3, 2), delta=(2, 1))  # 2 does not divide 3
    with pytest.raises(ValidationError):
        FormRecord(n=0, Q=1, ell=(4, 2), delta=(0, 1))
    r = FormRecord(n=0, Q=1, ell=(4, -6), delta=(2, 3))
    assert r.sup_norm() == 6


def test_sequence_q_strictly_increasing():
    r1 = FormRecord(n=1, Q=2, ell=(1, 1), delta=(1, 1))
    r2 = FormRecord(n=2, Q=2, ell=(2, 1), delta=(1, 1))
    with pytest.raises(ValidationError):
        FormSequence([r1, r2])
    r3 = FormRecord(n=2, Q=3, ell=(2, 1), delta=(1, 1))
    seq = FormSequence([r3, r1])  # sorts by n
    assert tuple(r.n for r in seq) == (1, 2)
    assert seq.Qs == (2, 3)


def test_sequence_duplicate_and_mismatched_p():
    r1 = FormRecord(n=1, Q=2, ell=(1, 1), delta=(1, 1))
    with pytest.raises(ValidationError):
        FormSequence([r1, FormRecord(n=1, Q=3, ell=(1, 1), delta=(1, 1))])
    with pytest.raises(ValidationError):
        FormSequence([r1, FormRecord(n=2, Q=3, ell=(1, 1, 1), delta=(1, 1, 1))])
    with pytest.raises(ValidationError):
        FormSequence([])


def test_sequence_lookup():
    seq = fib_seq(10)
    assert seq.record(6).ell == (13, 8)
    assert seq.record(6).Q == 8
    assert seq.has(10) and not seq.has(11)
    with pytest.raises(MissingRecord):
        seq.record(99)


# ---------------------------------------------------------------------------
# lattices and dual points
# ---------------------------------------------------------------------------

def test_lattice_membership():
    lat = DiagonalLattice((2, 6))
    assert lattice_membership((4, -12), lat)
    assert not lattice_membership((4, -3), lat)
    with pytest.raises(ValidationError):
        lattice_membership((4,), lat)
    with pytest.raises(ValidationError):
        DiagonalLattice((0, 1))


def test_dual_membership():
    lat = DiagonalLattice((2, 3))
    assert dual_membership(DualPoint((Fraction(1, 2), Fraction(-5, 3))), lat)
    assert dual_membership((Fraction(3), Fraction(2, 3)), lat)
    assert not dual_membership((Fraction(1, 3), Fraction(0)), lat)


def test_dual_point_json():
    pt = DualPoint((Fraction(1, 2), Fraction(-3), Fraction(7, 5)))
    j = pt.to_json()
    assert j == ["1/2", "-3", "7/5"]
    assert DualPoint.from_json(j) == pt
    # 5,000 digits, past the int/str digit cap of 4,300
    big = DualPoint((Fraction(-10 ** 4999 - 7, 3), Fraction(1, 10 ** 4999 + 1)))
    j = big.to_json()
    assert len(j[0]) == 5003 and len(j[1]) == 5002
    assert DualPoint.from_json(j) == big


def test_divisor_chain_check():
    recs = [
        FormRecord(n=1, Q=2, ell=(2, 4), delta=(2, 4)),
        FormRecord(n=2, Q=3, ell=(4, 8), delta=(4, 8)),
        FormRecord(n=3, Q=5, ell=(2, 16), delta=(2, 16)),  # 4 does not divide 2
    ]
    seq = FormSequence(recs)
    assert divisor_chain_check(seq) == [(1, 2)]
    assert divisor_chain_check(fib_seq(8)) == []


# ---------------------------------------------------------------------------
# eval_at_basis
# ---------------------------------------------------------------------------

def test_eval_fibonacci_record_six():
    seq = fib_seq(10)
    basis = golden_basis()
    ball = eval_at_basis(seq, basis, 6, 1, prec=96)
    # 13 - 8 phi = phi^-6 (alternating convergents: positive here)
    assert ball.contains(PHI_M6) or abs(ball.mid - PHI_M6) < Fraction(1, 10**15)
    assert ball.lower > 0
    ball_p = eval_at_basis(seq, basis, 6, 2, prec=96)
    # 13 phi + 8 = 29.03444185374863303...
    assert abs(ball_p.mid - Fraction("29.03444185374863303")) < Fraction(1, 10**15)


def test_eval_exact_rational_annihilation():
    basis = Basis((parse_real("2/5", 32),))
    recs = [FormRecord(n=k, Q=k + 1, ell=(2 * k, 5 * k), delta=(1, 1))
            for k in range(1, 5)]
    seq = FormSequence(recs)
    ball = eval_at_basis(seq, basis, 3, 1, prec=64)
    assert ball.is_exact and ball.mid == 0


def test_rational_form_is_exact_only_when_its_value_is_dyadic():
    """A rational xi gives an exact value, enclosed once at prec: radius 0
    for 1 - 3 (1/3) = 0, a rounding around 2/3 + 3 = 11/3."""
    basis = Basis((parse_real("1/3"),))
    seq = FormSequence([FormRecord(n=1, Q=1, ell=(1, 3), delta=(1, 1)),
                        FormRecord(n=2, Q=2, ell=(2, 3), delta=(1, 1))])
    for zero in (_form(basis, (1, 3), 1, 64), eval_at_basis(seq, basis, 1, 1)):
        assert zero.is_exact and zero.mid == 0
    for ball in (_form(basis, (2, 3), 2, 64), eval_at_basis(seq, basis, 2, 2)):
        assert not ball.is_exact and ball.contains(Fraction(11, 3))
        assert 0 < ball.rad < Fraction(1, 2 ** 60)


def test_basis_cap_is_a_precision_its_handles_accept():
    """A cap past PREC_CAP would fail mid-scan, when RealConstant.at is
    asked for more; one below MIN_PREC could never be asked for."""
    xi = (parse_real("0.5±0.01"),)
    assert Basis(xi, 16).cap == 16 and Basis(xi).cap == 65536
    for cap in (8, 15, 65537, 1 << 17):
        with pytest.raises(ValidationError, match=f"cap {cap} is outside"):
            Basis(xi, cap)


def test_eval_validations():
    seq = fib_seq(8)
    basis = golden_basis()
    with pytest.raises(ValidationError):
        eval_at_basis(seq, basis, 6, 0)
    with pytest.raises(ValidationError):
        eval_at_basis(seq, basis, 6, 3)
    with pytest.raises(MissingRecord):
        eval_at_basis(seq, basis, 77, 1)
    bad = Basis((parse_real("1/2", 32), parse_real("1/3", 32)))
    with pytest.raises(ValidationError):
        eval_at_basis(seq, bad, 6, 1)


def test_eval_precision_tightens():
    seq = fib_seq(30)
    basis = golden_basis()
    wide = eval_at_basis(seq, basis, 30, 1, prec=32)
    tight = eval_at_basis(seq, basis, 30, 1, prec=256)
    assert tight.rad < wide.rad
    assert tight.lower > 0  # phi^-30 certified positive at 256 bits


# ---------------------------------------------------------------------------
# convex bodies
# ---------------------------------------------------------------------------

def test_body_coordinate_frame_exact_xi():
    basis = Basis((parse_real("1/2", 32),))
    body = ConvexBody(
        frame="coordinate", coords=(1, 2),
        bounds=(Bound(BallReal.exact(2), strict=False),
                Bound(BallReal.exact(Fraction(1, 2)), strict=False)))
    # point (1, -1): |a1| = 1 <= 2, |a1/2 + a2| = 1/2 <= 1/2
    assert body.contains((Fraction(1), Fraction(-1)), basis) is TriBool.TRUE
    strict_body = ConvexBody(
        frame="coordinate", coords=(1, 2),
        bounds=(Bound(BallReal.exact(2), strict=False),
                Bound(BallReal.exact(Fraction(1, 2)), strict=True)))
    # boundary point fails the strict bound, decidably
    assert strict_body.contains((Fraction(1), Fraction(-1)), basis) is TriBool.FALSE
    assert body.contains((Fraction(3), Fraction(0)), basis) is TriBool.FALSE


def _last_coordinate_constraint(point, basis, prec):
    """|sum_j a_j xi_j + a_p| computed on its own: the oracle for the bits
    of the form evaluator that constraint_value shares with
    eval_at_basis."""
    p = basis.p
    point = [Fraction(x) for x in point]
    exact = basis.exact_xi
    if exact is not None:
        s = sum((point[j] * exact[j] for j in range(p - 1)), point[p - 1])
        return BallReal.exact(abs(s), prec)
    balls = basis.xi_balls(prec)
    acc = BallReal.exact(point[p - 1], prec)
    for j in range(p - 1):
        acc = acc + balls[j] * point[j]
    return abs(acc)


@pytest.mark.parametrize("xi", [("1/3",), ("2/7", "-5/3", "1/10"),
                                ("0.7±0.001",), ("1/3", "0.25±0.0001"),
                                ("golden",), ("sqrt(2)", "zeta3", "e")])
@pytest.mark.parametrize("prec", [16, 64, 200])
def test_coordinate_constraint_bits_unchanged(monkeypatch, xi, prec):
    import latforms.model as model
    monkeypatch.setattr(model, "eval_at_basis", None)   # must not be called
    rng = random.Random(f"{xi}{prec}")
    basis = Basis(tuple(parse_real(x, prec) for x in xi))
    p = basis.p
    body = ConvexBody(frame="coordinate", coords=tuple(range(1, p + 1)),
                      bounds=(Bound(BallReal.exact(1), False),) * p)
    for _ in range(60):
        point = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                          rng.choice([1, 2, 3, 7, 64, 1000]))
                 for _ in range(p)]
        got = body.constraint_value(p - 1, point, basis, prec)
        want = _last_coordinate_constraint(point, basis, prec)
        assert (got.mid, got.rad, got.prec) == (want.mid, want.rad, want.prec)


def _old_sheared_constraint(label, point, basis, prec):
    """The sheared frame's own arithmetic, which constraint_value carried
    before every form came from the one evaluator: |x_p xi_j - x_j| for a
    label j < p, |x_p| for p."""
    p = basis.p
    point = [Fraction(x) for x in point]
    if label < p:
        exact = basis.exact_xi
        if exact is not None:
            s = point[p - 1] * exact[label - 1] - point[label - 1]
            return BallReal.exact(abs(s), prec)
        balls = basis.xi_balls(prec)
        return abs(balls[label - 1] * point[p - 1]
                   - BallReal.exact(point[label - 1], prec))
    return BallReal.exact(abs(point[p - 1]), prec)


def _old_contains(body, point, basis, prec):
    """The flag loop contains ran before it folded through tri_all."""
    unknown = False
    for k, bound in enumerate(body.bounds):
        val = _old_sheared_constraint(body.coords[k], point, basis, prec)
        inside = cmp_abs_le(val, bound.value.lower, bound.value.upper,
                            bound.strict)
        if inside is TriBool.FALSE:
            return TriBool.FALSE
        if inside is TriBool.UNKNOWN:
            unknown = True
    return TriBool.UNKNOWN if unknown else TriBool.TRUE


_MP = {"golden": lambda: (1 + mpmath.sqrt(5)) / 2,
       "sqrt(2)": lambda: mpmath.sqrt(2), "sqrt(3)": lambda: mpmath.sqrt(3),
       "zeta3": lambda: mpmath.zeta(3), "e": lambda: mpmath.e}


def _mpf_fraction(v):
    sign, man, exp, _ = mpmath.mpf(v)._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _mp_xi(expr):
    """xi at mpmath's working precision, or None for a fixed-width one."""
    if expr in _MP:
        return _MP[expr]()
    if "±" in expr:
        return None
    q = Fraction(expr)
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("xi", [("golden",), ("sqrt(2)", "1/3"),
                                ("sqrt(3)", "zeta3", "e"), ("2/7", "5/8"),
                                ("0.7±0.001",), ("1/3", "0.25±0.0001")])
@pytest.mark.parametrize("prec", [16, 64, 200])
def test_sheared_constraint_matches_its_old_branch(xi, prec):
    """Each sheared constraint is the one evaluator's |L(e_j)| or an exact
    |x_p|, and both balls hold the value mpmath gives at 4x the precision.
    x_j - x_p xi_j is rounded where the old branch rounded x_p xi_j - x_j;
    halves round to even, so negation is exact and the two balls are equal
    bit for bit, and contains answers as the old branch did."""
    rng = random.Random(f"{xi}{prec}")
    basis = Basis(tuple(parse_real(x, prec) for x in xi))
    p = basis.p
    mids = [float(b.mid) for b in basis.xi_balls(prec)]
    with mpmath.workprec(4 * prec):
        x = [_mp_xi(e) for e in xi]
    for _ in range(60):
        xp = rng.randint(-10 ** 4, 10 ** 4)
        point = [round(xp * m) + rng.choice([rng.randint(-10 ** 4, 10 ** 4),
                                             Fraction(rng.randint(-3, 3),
                                                      rng.choice([1, 3, 64]))])
                 for m in mids]
        point.append(xp)
        old = [_old_sheared_constraint(j, point, basis, prec)
               for j in range(1, p + 1)]
        body = ConvexBody("sheared", tuple(range(1, p + 1)), tuple(
            Bound(BallReal.exact(rng.choice([v.lower, v.upper, v.mid,
                                             Fraction(rng.randrange(64), 16)]),
                                 256), rng.random() < 0.5) for v in old))
        new = [body.constraint_value(k, point, basis, prec) for k in range(p)]
        assert body.contains(point, basis, prec) is \
            _old_contains(body, point, basis, prec)
        for k, (got, want) in enumerate(zip(new, old)):
            assert got == want
            if k < p - 1 and x[k] is None:
                continue
            with mpmath.workprec(4 * prec):
                ref = _mpf_fraction(abs(point[p - 1] * x[k] - point[k])
                                    if k < p - 1 else abs(point[p - 1]))
            tol = (ref + 1) / 2 ** (4 * prec - 2)   # mpmath's own rounding
            for ball in (got, want):
                assert ball.lower - tol <= ref <= ball.upper + tol


def test_body_sheared_frame():
    basis = golden_basis()
    body = ConvexBody(
        frame="sheared", coords=(1, 2),
        bounds=(Bound(BallReal.exact(Fraction(1, 10)), strict=False),
                Bound(BallReal.exact(10), strict=False)))
    # x = (13, 8): |8 phi - 13| = phi^-6 ~ 0.0557 <= 0.1, |8| <= 10
    assert body.contains((Fraction(13), Fraction(8)), basis, prec=96) is TriBool.TRUE
    # x = (12, 8): |8 phi - 12| ~ 0.944 > 0.1
    assert body.contains((Fraction(12), Fraction(8)), basis, prec=96) is TriBool.FALSE


def test_body_volume():
    body = ConvexBody(
        frame="coordinate", coords=(1, 2),
        bounds=(Bound(BallReal.exact(3), strict=False),
                Bound(BallReal.exact(Fraction(1, 4)), strict=True)))
    vol = body.volume()
    assert vol.contains(Fraction(3))  # 2^2 * 3 * 1/4


def test_body_unknown_at_low_precision():
    basis = golden_basis()
    # bound sits essentially on phi^-6; low-precision enclosure cannot decide
    body = ConvexBody(
        frame="sheared", coords=(1, 2),
        bounds=(Bound(BallReal.exact(PHI_M6), strict=False),
                Bound(BallReal.exact(100), strict=False)))
    got = body.contains((Fraction(13), Fraction(8)), basis, prec=24)
    assert got is TriBool.UNKNOWN


def test_body_validation():
    with pytest.raises(ValidationError):
        ConvexBody(frame="weird", coords=(1,), bounds=(Bound(BallReal.exact(1), False),))
    with pytest.raises(ValidationError):
        ConvexBody(frame="coordinate", coords=(1, 2), bounds=(Bound(BallReal.exact(1), False),))
