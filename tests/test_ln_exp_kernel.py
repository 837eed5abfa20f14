"""The reduced-argument ln and exp kernels against the series they replaced.

The oracle below keeps the earlier kernels: atanh summed by two chains (a
floor one and a ceiling one) at t = (m - 1)/(m + 1) in [-1/7, 1/5], exp
summed directly at r = x - k ln 2, both on Fraction endpoints, and the
ball maps that rounded each ball end outward to wp bits first.  Every new
bracket must contain mpmath at 4x precision, be at most 2 units wide at
its scale, and be no wider than the oracle's by more than one unit; the
ball maps likewise, by one ulp of the midpoint.  The log of a narrow ball,
which reaches its upper end from its lower one by an atanh series, is
also held to the log that brackets both ends.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latforms import numerics
from latforms.corpus import gen_apery_zeta3
from latforms.numerics import BallReal, _atanh_bracket, _exp_bracket, \
    _ln2_bracket, _ln_bracket


def _pow2(k):
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


# ---------------------------------------------------------------------------
# the earlier kernels, kept as the oracle
# ---------------------------------------------------------------------------

def old_atanh_bracket(num, den, wp):
    """Bracket of atanh(num/den) * 2**wp for 0 <= num/den <= 1/2."""
    if num == 0:
        return 0, 0
    t_lo = (num << wp) // den
    t_hi = t_lo + 1
    t2_lo = (t_lo * t_lo) >> wp
    t2_hi = ((t_hi * t_hi) >> wp) + 1
    p_lo, p_hi = t_lo, t_hi
    s_lo = s_hi = 0
    j = 0
    while True:
        s_lo += p_lo // (2 * j + 1)
        s_hi += p_hi // (2 * j + 1) + 1
        p_lo = (p_lo * t2_lo) >> wp
        p_hi = ((p_hi * t2_hi) >> wp) + 1
        j += 1
        if p_hi // (2 * j + 1) == 0:
            return s_lo, s_hi + 2


def old_ln2_bracket(wp):
    lo, hi = old_atanh_bracket(1, 3, wp + 4)
    return (2 * lo) >> 4, ((2 * hi) >> 4) + 1


def _cmp_scaled(n, d, e):
    """Sign of n/(d*2^e) - 3/4."""
    lhs, rhs = (4 * n, 3 * (d << e)) if e >= 0 else (4 * (n << -e), 3 * d)
    return (lhs > rhs) - (lhs < rhs)


def old_ln_bracket(x, wp):
    """Fraction bracket of ln(x), x > 0 rational."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    while _cmp_scaled(n, d, e) < 0:
        e -= 1
    while _cmp_scaled(n, d, e + 1) >= 0:
        e += 1
    if e >= 0:
        tn, td = n - (d << e), n + (d << e)
    else:
        tn, td = (n << -e) - d, (n << -e) + d
    lo_i, hi_i = old_atanh_bracket(abs(tn), td, wp)
    if tn < 0:
        lo_i, hi_i = -hi_i, -lo_i
    ln2_lo, ln2_hi = old_ln2_bracket(wp)
    if e >= 0:
        lo_i, hi_i = 2 * lo_i + e * ln2_lo, 2 * hi_i + e * ln2_hi
    else:
        lo_i, hi_i = 2 * lo_i + e * ln2_hi, 2 * hi_i + e * ln2_lo
    return Fraction(lo_i, 1 << wp), Fraction(hi_i, 1 << wp)


def old_exp_pos_bracket(num, den, wp):
    """Bracket of exp(num/den) * 2**wp for 0 <= num/den <= 3/4."""
    if num == 0:
        return 1 << wp, 1 << wp
    r_lo = (num << wp) // den
    r_hi = r_lo + 1
    term_lo = term_hi = s_lo = s_hi = 1 << wp
    j = 0
    while True:
        j += 1
        term_lo = (term_lo * r_lo >> wp) // j
        term_hi = ((term_hi * r_hi >> wp) + 1) // j + 1
        s_lo += term_lo
        s_hi += term_hi
        if term_hi <= 1:
            return s_lo, s_hi + 4


def old_exp_bracket(x, wp):
    """Fraction bracket of exp(x), x rational."""
    ln2_lo, ln2_hi = old_ln2_bracket(wp)
    k = int((x * (1 << wp) * 2 + Fraction(ln2_lo + ln2_hi, 2))
            // Fraction(ln2_lo + ln2_hi))
    if k >= 0:
        r_lo = x - Fraction(k * ln2_hi, 1 << wp)
        r_hi = x - Fraction(k * ln2_lo, 1 << wp)
    else:
        r_lo = x - Fraction(k * ln2_lo, 1 << wp)
        r_hi = x - Fraction(k * ln2_hi, 1 << wp)
    out = []
    for r in (r_lo, r_hi):
        if r >= 0:
            lo_i, hi_i = old_exp_pos_bracket(r.numerator, r.denominator, wp)
        else:
            plo, phi = old_exp_pos_bracket(-r.numerator, r.denominator, wp)
            lo_i = (1 << (2 * wp)) // phi
            hi_i = -((-1 << (2 * wp)) // plo)
        out.append((lo_i, hi_i))
    return (Fraction(out[0][0], 1 << wp) * _pow2(k),
            Fraction(out[1][1], 1 << wp) * _pow2(k))


def old_shrink(x, wp, up):
    """x rounded to wp bits (halves up), then outward by half a unit."""
    n, d = x.numerator, x.denominator
    k = abs(n).bit_length() - d.bit_length() - wp
    den = d if k < 0 else d << k
    q, rem = divmod(n << -k if k < 0 else n, den)
    if 2 * rem >= den:
        q += 1
    if rem:
        q, k = 2 * q + (1 if up else -1), k - 1
    return q * _pow2(k)


def old_map(ball, bracket):
    wp = ball.prec + 8
    lo = old_shrink(ball.lower, wp, up=False)
    hi = old_shrink(ball.upper, wp, up=True)
    lo_f, hi_f = bracket(lo, wp)
    if hi != lo:
        hi_f = bracket(hi, wp)[1]
    return BallReal.from_endpoints(lo_f, hi_f, ball.prec)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _frac(v):
    """An mpf as an exact Fraction."""
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * _pow2(exp)


def _mid_ulp(ball):
    """One unit in the last of the ball's prec bits of its midpoint."""
    m = ball.mid
    return _pow2(abs(m.numerator).bit_length() - m.denominator.bit_length()
                 - ball.prec + 1) if m else Fraction(0)


def _examples(*args):
    """@example(arg) for each arg."""
    def deco(test):
        for arg in args:
            test = example(arg)(test)
        return test
    return deco


_Q1000 = gen_apery_zeta3(1000).records[-1].Q          # 9,384 bits


def _dyadic(draw, lo_exp, hi_exp, max_bits):
    """n 2^e with n of 1..max_bits bits and |n 2^e| in [2^lo_exp, 2^hi_exp]."""
    bits = draw(st.integers(1, max_bits))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return n, draw(st.integers(lo_exp, hi_exp)) - bits + 1


@st.composite
def ln_args(draw):
    return _dyadic(draw, -5000, 5000, 9000), draw(st.integers(16, 8000))


@st.composite
def exp_args(draw):
    (n, e), wp = _dyadic(draw, -5000, 11, 700), draw(st.integers(16, 8000))
    return (draw(st.sampled_from([-1, 1])) * n, e), wp


@st.composite
def balls(draw, positive):
    if positive:
        n, e = _dyadic(draw, -5000, 5000, 300)
    else:
        n, e = _dyadic(draw, -300, 9, 300)
        n *= draw(st.sampled_from([-1, 1]))
    lo = n * _pow2(e)
    width = draw(st.sampled_from([None, None, 0, -20, -200, -2000]))
    hi = lo if width is None else lo + abs(lo) * _pow2(width) * draw(
        st.integers(0, 1000))
    return BallReal.from_endpoints(lo, hi, draw(st.integers(16, 8000)))


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 40), st.integers(1, 1 << 40),
       st.integers(16, 8000))
def test_atanh_bracket_contains_mpmath(num, den, wp):
    num %= den // 2 + 1                              # num/den <= 1/2
    lo, hi = _atanh_bracket(num, den, wp)
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.atanh(_mp(Fraction(num, den))) * 2 ** wp)
    tol = abs(v) / (1 << (4 * wp - 4))
    assert lo - tol <= v <= hi + tol


@settings(max_examples=60, deadline=None)
@given(ln_args())
@example(((1, 0), 16))
@example(((1, 5000), 8000))
@example(((1, -5000), 8000))
@example((((1 << 9000) - 1, -14000), 8000))
@example(((3, -2), 16))
# x = 1 +/- 2^-j at j = 1, J and J + 1: the table runs to J = 8 at 16
# bits and to J = 62 at 2,008 bits
@_examples(*[(((1 << j) + s, -j), wp)
             for wp, js in ((16, (1, 8, 9)), (2008, (1, 62, 63)))
             for j in js for s in (1, -1)])
# wp at each side of a precision class edge: wp + guard bits is 128, 512
# and 2,048 at the lower one; J grows across the first two (8 to 9 and
# 24 to 36) and stays at 62 across the third
@_examples(*[((3, -2), wp) for wp in (117, 118, 499, 500, 2033, 2034)])
@example(((_Q1000, 0), 2008))
@example(((_Q1000, 0), 8008))
def test_ln_bracket_contains_mpmath_and_is_no_wider_than_oracle(arg):
    (n, e), wp = arg
    lo, hi = _ln_bracket(n, e, wp)
    x = n * _pow2(e)
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.log(_mp(x)) * 2 ** wp)
    tol = abs(v) / (1 << (4 * wp - 16))
    assert lo - tol <= v <= hi + tol
    assert hi - lo <= 2
    o_lo, o_hi = old_ln_bracket(x, wp)
    assert hi - lo <= (o_hi - o_lo) * 2 ** wp + 1


@settings(max_examples=60, deadline=None)
@given(exp_args())
@example(((1, -5000), 8000))
@example(((-(1 << 700) + 1, -689), 8000))
@example((((1 << 700) - 1, -689), 16))
@example(((-1, 0), 16))
def test_exp_bracket_contains_mpmath_and_is_no_wider_than_oracle(arg):
    (n, e), wp = arg
    lo, hi, s = _exp_bracket(n, e, wp)
    x = n * _pow2(e)
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.exp(_mp(x)) / mpmath.mpf(2) ** s)
    tol = v / (1 << (4 * wp - 16))
    assert lo - tol <= v <= hi + tol
    assert lo.bit_length() == wp + 1 and hi - lo <= 2
    o_lo, o_hi = old_exp_bracket(x, wp)
    assert hi - lo <= (o_hi - o_lo) / _pow2(s) + 1


@settings(max_examples=60, deadline=None)
@given(ln_args(), exp_args())
def test_brackets_hold_without_guard_bits(ln_arg, exp_arg):
    """With no guard bits the error bounds of the proofs set the bracket
    ends directly, at the scale where they are counted."""
    guard, numerics._guard = numerics._guard, lambda wp: 0
    try:
        (n, e), wp = ln_arg
        lo, hi = _ln_bracket(n, e, wp)
        (xn, xe), xwp = exp_arg
        xlo, xhi, s = _exp_bracket(xn, xe, xwp)
    finally:
        numerics._guard = guard
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.log(_mp(n * _pow2(e))) * 2 ** wp)
    tol = abs(v) / (1 << (4 * wp - 16))
    assert lo - tol <= v <= hi + tol
    with mpmath.workprec(4 * xwp):
        v = _frac(mpmath.exp(_mp(xn * _pow2(xe))) / mpmath.mpf(2) ** s)
    tol = v / (1 << (4 * xwp - 16))
    assert xlo - tol <= v <= xhi + tol


@settings(max_examples=60, deadline=None)
@given(st.integers(1, (1 << 64) - 1), st.integers(0, 1 << 64),
       st.integers(16, 8000), st.integers(1, 200))
@example(3, 1, 16000, 1)
def test_atanh_small_den_chain_agrees_with_t2_chain(den, num, wp, k):
    """A den of at most 64 bits takes the exact chain; the same q with
    den scaled past 64 bits takes the t2 chain.  The exact chain floors
    less, so it starts no lower and runs at most one term longer."""
    num %= den // 2 + 1                              # num/den <= 1/2
    lo, hi = _atanh_bracket(num, den, wp)
    sh = 65 - den.bit_length() + k
    t_lo, t_hi = _atanh_bracket(num << sh, den << sh, wp)
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.atanh(_mp(Fraction(num, den))) * 2 ** wp)
    tol = abs(v) / (1 << (4 * wp - 4))
    assert lo - tol <= v <= hi + tol and t_lo - tol <= v <= t_hi + tol
    assert t_lo <= lo and hi - lo <= t_hi - t_lo + 2


@settings(max_examples=20, deadline=None)
@given(st.integers(16, 32000))
@example(32000)
def test_ln2_bracket_is_at_most_two_units_wide(wp):
    lo, hi = _ln2_bracket(wp)
    with mpmath.workprec(4 * wp):
        v = _frac(mpmath.log(2) * 2 ** wp)
    assert lo <= v <= hi and hi - lo <= 2


def test_ln2_bracket_does_not_depend_on_call_order():
    numerics._LN_TABLE.clear()
    first = [_ln2_bracket(wp) for wp in (100, 3000, 129, 64)]
    numerics._LN_TABLE.clear()
    again = [_ln2_bracket(wp) for wp in (64, 129, 3000, 100)][::-1]
    assert first == again
    for wp, (lo, hi) in zip((100, 3000, 129, 64), first):
        with mpmath.workprec(4 * wp):
            assert lo <= _frac(mpmath.log(2) * 2 ** wp) <= hi
        assert hi - lo <= 2


def test_ln_bracket_does_not_depend_on_call_order():
    """Each precision class fills its table as its entries are first asked
    for, so a bracket is the same whatever was bracketed before it.  The
    filled tables are compared too: a table picked by what was asked
    before, not by wp, changes a bracket only in rare roundings."""
    args = [(3, -2, 16), (_Q1000, 0, 100), ((1 << 9000) - 1, -14000, 499),
            (5, 7, 500), (_Q1000, -9384, 2008), (7, -3, 3000),
            (1, 5000, 129), ((1 << 63) + 1, -63, 2008)]
    numerics._LN_TABLE.clear()
    first = [_ln_bracket(*a) for a in args]
    tables = {top: dict(memo) for top, memo in numerics._LN_TABLE.items()}
    assert len(tables) >= 4
    numerics._LN_TABLE.clear()
    again = [_ln_bracket(*a) for a in reversed(args)][::-1]
    assert first == again
    assert numerics._LN_TABLE == tables


# ---------------------------------------------------------------------------
# the ball maps
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(balls(positive=True))
def test_ball_log_contains_mpmath_and_is_no_wider_than_oracle(x):
    out = x.log()
    with mpmath.workprec(4 * x.prec + 32):
        lo = _frac(mpmath.log(_mp(x.lower)))
        hi = _frac(mpmath.log(_mp(x.upper)))
    tol = max(abs(lo), abs(hi)) / (1 << (4 * x.prec + 16))
    assert out.lower - tol <= lo and hi <= out.upper + tol
    assert out.rad <= old_map(x, old_ln_bracket).rad + _mid_ulp(out)


@settings(max_examples=60, deadline=None)
@given(balls(positive=False))
def test_ball_exp_contains_mpmath_and_is_no_wider_than_oracle(x):
    out = x.exp()
    with mpmath.workprec(4 * x.prec + 32):
        lo = _frac(mpmath.exp(_mp(x.lower)))
        hi = _frac(mpmath.exp(_mp(x.upper)))
    tol = hi / (1 << (4 * x.prec + 16))
    assert out.lower - tol <= lo and hi <= out.upper + tol
    assert out.rad <= old_map(x, old_exp_bracket).rad + _mid_ulp(out)


def test_ball_exp_aligns_ends_reduced_at_different_scales(monkeypatch):
    """The two ends of a ball may come back at different scales; exp
    brings the lower one to the finer scale.  The upper end returned at a
    scale finer than the lower end's must give the same ball."""
    balls = [BallReal.from_endpoints(Fraction(683, 1000),
                                     Fraction(703, 1000), 64),
             BallReal.from_endpoints(Fraction(-5, 2), Fraction(3), 96),
             BallReal.from_endpoints(Fraction(1, 3),
                                     Fraction(1, 3) + Fraction(1, 10 ** 20),
                                     200)]
    want = [b.exp() for b in balls]
    scales = []

    def finer_upper(n, e, wp):
        lo, hi, s = _exp_bracket(n, e, wp)
        scales.append(s)
        if len(scales) % 2 == 0:
            d = max(s - scales[-2], 0) + 1
            lo, hi, s = lo << d, hi << d, s - d
        return lo, hi, s

    monkeypatch.setattr(numerics, "_exp_bracket", finer_upper)
    assert [b.exp() for b in balls] == want
    assert len(scales) == 2 * len(balls)


def two_bracket_log(x):
    """The ball log that brackets ln at each end of the ball."""
    m, r, e, wp = x._m, x._r, x._e, x.prec + 8
    return numerics._span(_ln_bracket(m - r, e, wp)[0],
                          _ln_bracket(m + r, e, wp)[1], -wp, x.prec)


@st.composite
def narrow_balls(draw):
    """Inexact balls with rad/mid <= 1/16, at 16 to 8,000 bits."""
    n, e = _dyadic(draw, -5000, 5000, 300)
    lo = n * _pow2(e)
    width = lo * draw(st.integers(1, 1023)) * _pow2(
        draw(st.integers(-8200, -3)) - 10)
    x = BallReal.from_endpoints(lo, lo + width, draw(st.integers(16, 8000)))
    assume(x._r and x._r << 4 <= x._m)
    return x


@settings(max_examples=60, deadline=None)
@given(narrow_balls())
def test_narrow_ball_log_contains_mpmath_and_is_no_wider_than_two_brackets(x):
    out = x.log()
    with mpmath.workprec(4 * x.prec + 32):
        lo = _frac(mpmath.log(_mp(x.lower)))
        hi = _frac(mpmath.log(_mp(x.upper)))
    tol = max(abs(lo), abs(hi)) / (1 << (4 * x.prec + 16))
    assert out.lower - tol <= lo and hi <= out.upper + tol
    assert out.rad <= two_bracket_log(x).rad + _mid_ulp(out)


def test_ball_log_at_boundary_widths_is_no_wider_than_oracle():
    """Balls at a few precisions, low ends and widths low c 2^-j, from
    far wider than 1/16 of the midpoint to far below its last bit."""
    for prec in (16, 64, 200, 396):
        for low in (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(5, 4),
                    Fraction(1 << 40)):
            for c in (1, 3, 1000):
                for j in (8, 20, 64, 100, 201, 300, 400):
                    x = BallReal.from_endpoints(low, low + low * c * _pow2(-j),
                                                prec)
                    out = x.log()
                    assert out.rad <= old_map(x, old_ln_bracket).rad \
                        + _mid_ulp(out), (prec, low, c, j)


# ---------------------------------------------------------------------------
# the log at the precision a ball holds
# ---------------------------------------------------------------------------

def prec8_log(x):
    """The ball log as it was before an inexact ball's log came to be
    bracketed at the bits the ball holds: at prec + 8 bits, a narrow
    ball's upper end reached by ln(m - r) + 2 atanh(r/m) summed at
    _LOG_GUARD bits more."""
    m, r, e, wp = x._m, x._r, x._e, x.prec + 8
    if not r and m == 1 and not e:
        return BallReal.exact(0, x.prec)
    if r and r << 4 <= m:
        g = numerics._LOG_GUARD
        lo, hi = _ln_bracket(m - r, e, wp + g)
        hi += 2 * _atanh_bracket(r, m, wp + g)[1]
        lo, hi = lo >> g, -(-hi >> g)
    else:
        lo, hi = _ln_bracket(m - r, e, wp)
        if r:
            hi = _ln_bracket(m + r, e, wp)[1]
    return numerics._span(lo, hi, -wp, x.prec)


@st.composite
def held_balls(draw):
    """Inexact balls at 16 to 8,000 bits, of relative widths 2^-4 down to
    2^-prec."""
    prec = draw(st.integers(16, 8000))
    n, e = _dyadic(draw, -5000, 5000, 300)
    lo = n * _pow2(e)
    width = lo * _pow2(-draw(st.integers(4, prec))) * Fraction(
        draw(st.integers(1 << 10, (1 << 11) - 1)), 1 << 11)
    return BallReal.from_endpoints(lo, lo + width, prec)


_STRADDLE = 64923057738966655118621990 * _pow2(-126)
_STRADDLE_BIG = 5003120229309602662697647 * _pow2(3804)


@settings(max_examples=80, deadline=None)
@given(held_balls())
@example(BallReal.from_endpoints(
    _STRADDLE, _STRADDLE * (1 + Fraction(97, 128) * _pow2(-167)), 296))
@example(BallReal.from_endpoints(
    _STRADDLE_BIG, _STRADDLE_BIG * (1 + Fraction(1075, 2048) * _pow2(-308)),
    446))
def test_held_precision_log_contains_mpmath_and_keeps_the_oracle_radius(x):
    """The log of a ball that holds h bits is bracketed at h + G bits,
    G = _HELD_GUARD, when that is below prec + 8.  Its radius is the
    oracle's or less, and its ends lie within 2^-(h+G-2) of the oracle's,
    or one unit of the midpoint's last place further where the bracket
    ends moved the midpoint across a rounding boundary at prec bits (the
    examples are two such balls, near 7.6e-13 and near 6.6e1169; the
    second is past the range of a float)."""
    out, old = x.log(), prec8_log(x)
    with mpmath.workprec(4 * x.prec + 32):
        lo = _frac(mpmath.log(_mp(x.lower)))
        hi = _frac(mpmath.log(_mp(x.upper)))
    tol = max(abs(lo), abs(hi)) / (1 << (4 * x.prec + 16))
    assert out.lower - tol <= lo and hi <= out.upper + tol
    assert out.rad <= old.rad
    h = x._m.bit_length() - x._r.bit_length()
    near = _pow2(2 - h - numerics._HELD_GUARD)
    if abs(out.mid - old.mid) > near:       # rounded the other way
        near += _mid_ulp(old)
    assert abs(out.lower - old.lower) <= near
    assert abs(out.upper - old.upper) <= near


def _tight(f, wp):
    """floor(f 2^wp) and one more, from mpmath at 4 wp + 64 bits: a
    bracket one unit wide with no slack of its own."""
    with mpmath.workprec(4 * wp + 64):
        lo = int(mpmath.floor(f() * mpmath.mpf(2) ** wp))
    return lo, lo + 1


@pytest.mark.parametrize("wp", [24, 32, 64, 128, 256])
def test_ln_bracket_rounding_slack_is_needed_and_enough(monkeypatch, wp):
    """_ln_bracket's own rounding slack, the term 2 (2 + P/2^S) added to
    the atanh bracket, seen alone: atanh and the table come back one unit
    wide from mpmath, there are no guard bits and no precision classes,
    and x = n/2^b lies in (1/2, 1), so E = 0 and no ln 2 is added.  The
    bracket must still contain ln x; without the slack it misses for
    one x of these in 13 (wp = 32) to one in 270 (wp = 256)."""
    memo = {}

    def atanh(num, den, w):
        return _tight(lambda: mpmath.atanh(mpmath.mpf(num) / den), w)

    def ln1p(top, memo, j):
        memo[j] = _tight(lambda: mpmath.log1p(mpmath.mpf(2) ** -j), top)
        return memo[j]

    monkeypatch.setattr(numerics, "_atanh_bracket", atanh)
    monkeypatch.setattr(numerics, "_ln1p", ln1p)
    monkeypatch.setattr(numerics, "_guard", lambda w: 0)
    monkeypatch.setattr(numerics, "_table", lambda w: (w, memo))
    rng = random.Random(wp)
    for _ in range(500):
        b = rng.randint(2, 2 * wp)
        n = rng.randint((1 << (b - 1)) + 1, (1 << b) - 1)
        lo, hi = _ln_bracket(n, -b, wp)
        with mpmath.workprec(4 * wp + 64):
            v = _frac(mpmath.log(mpmath.mpf(n) / mpmath.mpf(2) ** b)
                      * mpmath.mpf(2) ** wp)
        assert lo <= v <= hi, (n, b)
