"""The named constants by binary splitting against the series they replaced.

The oracle below keeps the earlier per-term loops for zeta(3), zeta(2) and
e: one full-width division per term, a floor and a ceiling per term, and a
bracket about one unit per term wide.  Each new integer bracket must
contain mpmath's value at 4x precision and be exactly as wide as its proof
says (3 units for zeta(3), 2 for zeta(2) and e).  Each ball must contain
mpmath's value too, be no wider than the oracle's ball, and lie inside the
oracle's ball widened by one ulp of its midpoint.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from latforms.numerics import PREC_CAP, _NAMED, _e_bracket, _span, \
    _zeta2_bracket, _zeta3_bracket


# ---------------------------------------------------------------------------
# the earlier per-term series, kept as the oracle
# ---------------------------------------------------------------------------

def old_zeta3(prec):
    # 5/2 * sum (-1)^(k-1) / (k^3 C(2k,k)); alternating, terms decreasing
    wp = prec + 16
    C = 1
    s_lo = s_hi = 0
    k = 0
    sign = 1
    while True:
        k += 1
        C = C * (2 * k) * (2 * k - 1) // (k * k)
        den = 2 * k ** 3 * C
        t_lo = (5 << wp) // den
        t_hi = t_lo + 1
        if sign > 0:
            s_lo += t_lo
            s_hi += t_hi
        else:
            s_lo -= t_hi
            s_hi -= t_lo
        if t_hi <= 1:
            s_lo -= 1  # remaining alternating tail is below one ulp
            s_hi += 1
            break
        sign = -sign
    return _span(s_lo, s_hi, -wp, prec)


def old_zeta2(prec):
    # 3 * sum 1 / (k^2 C(2k,k)); term ratio < 1/4 so tail < next*4/3
    wp = prec + 16
    C = 1
    s_lo = s_hi = 0
    k = 0
    while True:
        k += 1
        C = C * (2 * k) * (2 * k - 1) // (k * k)
        den = k * k * C
        t_lo = (3 << wp) // den
        s_lo += t_lo
        s_hi += t_lo + 1
        if t_lo <= 1:
            s_hi += 2
            break
    return _span(s_lo, s_hi, -wp, prec)


def old_euler_e(prec):
    wp = prec + 16
    term = 1 << wp
    s_lo = s_hi = term  # k = 0
    k = 0
    while True:
        k += 1
        term //= k
        s_lo += term
        s_hi += term + 1
        if term <= 1:
            s_hi += 2  # tail < 2/(k+1)!
            break
    return _span(s_lo, s_hi, -wp, prec)


CONSTANTS = {  # name: (bracket, width, oracle, mpmath value)
    "zeta3": (_zeta3_bracket, 3, old_zeta3, lambda: +mpmath.apery),
    "zeta2": (_zeta2_bracket, 2, old_zeta2, lambda: mpmath.pi ** 2 / 6),
    "e": (_e_bracket, 2, old_euler_e, lambda: +mpmath.e),
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _frac(v):
    """An mpf as an exact Fraction."""
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _mid_ulp(ball):
    """One unit in the last of the ball's prec bits of its midpoint."""
    m = ball.mid
    return Fraction(2) ** (abs(m.numerator).bit_length()
                           - m.denominator.bit_length() - ball.prec + 1)


def _reference(name, wp):
    """mpmath's value at 4 wp bits, and a bound on its rounding error."""
    with mpmath.workprec(4 * wp):
        v = _frac(CONSTANTS[name][3]())
    return v, v / (1 << (4 * wp - 4))


def _check_bracket(name, wp):
    bracket, width = CONSTANTS[name][:2]
    lo, hi = bracket(wp)
    v, tol = _reference(name, wp)
    v *= 1 << wp
    tol *= 1 << wp
    assert lo - tol <= v <= hi + tol
    assert hi - lo == width


def _check_ball(name, prec):
    ball, ref = _NAMED[name](prec), CONSTANTS[name][2](prec)
    assert ball.prec == prec
    v, tol = _reference(name, prec)
    assert ball.lower - tol <= v <= ball.upper + tol
    assert ball.rad <= ref.rad
    ulp = _mid_ulp(ref)
    assert ref.lower - ulp <= ball.lower and ball.upper <= ref.upper + ulp


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONSTANTS))
@settings(max_examples=40, deadline=None)
@given(wp=st.integers(32, 8016))
@example(wp=32)
@example(wp=8016)
def test_bracket_contains_mpmath(name, wp):
    _check_bracket(name, wp)


@pytest.mark.parametrize("name", sorted(CONSTANTS))
@settings(max_examples=40, deadline=None)
@given(prec=st.integers(16, 8000))
@example(prec=16)
@example(prec=8000)
def test_ball_contains_mpmath_and_is_no_wider_than_oracle(name, prec):
    _check_ball(name, prec)


def test_zeta3_at_the_apery_generator_precision():
    """About 15,100 bits certify the n=1600 Apery record."""
    _check_bracket("zeta3", 15_116)
    _check_ball("zeta3", 15_100)


def test_zeta3_at_the_precision_cap():
    """The per-term oracle takes over a minute here, so the ball is checked
    against mpmath alone."""
    _check_bracket("zeta3", PREC_CAP + 16)
    ball = _NAMED["zeta3"](PREC_CAP)
    v, tol = _reference("zeta3", PREC_CAP)
    assert ball.lower - tol <= v <= ball.upper + tol
