"""Ball arithmetic: containment, nesting, comparisons, certified functions.

Oracle values are frozen 50-digit decimal strings (checked once against
mpmath, which is also used directly for randomized cross-checks).
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf
import mpmath

from latforms.numerics import (
    BallReal,
    PrecisionCapExceeded,
    NumericsError,
    RealConstant,
    TriBool,
    PREC_CAP,
    POWER_BITS,
    check_literal,
    cmp_abs_vs_power,
    decimal_to_int,
    dyadic_to_decimal,
    decimal_to_fraction,
    int_to_decimal,
    floor_root_rational,
    floor_scaled_power,
    fraction_to_str,
    nth_root_floor,
    parse_real,
    refine,
    tri_all,
    tri_compare,
)
from latforms import numerics

# frozen independent oracles (50 decimal digits)
ZETA3 = Fraction("1.20205690315959428539973816151144999076498629234049")
ZETA2 = Fraction("1.64493406684822643647241516664602518921894990120679")
EULER_E = Fraction("2.71828182845904523536028747135266249775724709369995")
GOLDEN = Fraction("1.61803398874989484820458683436563811772030917980576")
SQRT2 = Fraction("1.41421356237309504880168872420969807856967187537694")
LN2 = Fraction("0.69314718055994530941723212145817656807550013436025")
TOL50 = Fraction(1, 10**48)


def contains_close(ball, q, tol=TOL50):
    return ball.lower - tol <= q <= ball.upper + tol


# ---------------------------------------------------------------------------
# constants / parse_real / refine
# ---------------------------------------------------------------------------

def test_named_constants_contain_frozen_values():
    for name, val in [("golden", GOLDEN), ("zeta3", ZETA3),
                      ("zeta2", ZETA2), ("e", EULER_E)]:
        ball = parse_real(name, 128).at(128)
        assert contains_close(ball, val), name
        assert ball.rad <= Fraction(1, 2**126)


def test_sqrt_constants():
    ball = parse_real("sqrt(2)", 128).at(128)
    assert contains_close(ball, SQRT2)
    assert parse_real("sqrt(4)", 32).at(32).is_exact
    assert parse_real("sqrt(4)", 32).at(32).mid == 2
    sq = parse_real("sqrt(13)", 96).at(96)
    prod = sq * sq
    assert prod.contains(13)


def test_parse_rational_and_decimal():
    h = parse_real("0.5", 32)
    assert h.at(32).is_exact and h.at(32).mid == Fraction(1, 2)
    h = parse_real("-3/7", 64)
    assert h.exact == Fraction(-3, 7)
    ball = h.at(64)
    assert ball.contains(Fraction(-3, 7))
    assert parse_real("1.25e2", 32).exact == 125


def test_parse_uncertain_literal():
    h = parse_real("1.2020569031±1e-9", 64)
    ball = h.at(64)
    assert ball.contains(ZETA3)
    assert ball.rad >= Fraction(1, 10**9)
    # refining cannot shrink below the stated uncertainty
    again = refine(h, 4096)
    assert again.rad >= Fraction(1, 10**9)


def test_parse_errors():
    for bad in ["frobnitz", "sqrt(-1)", "sqrt(0)", "1/0", "1.2.3", "1.0±-1"]:
        with pytest.raises(ValueError):
            parse_real(bad, 64)
    with pytest.raises(ValueError):
        parse_real("golden", 8)  # below minimum precision


@pytest.mark.parametrize("bad", [
    "1e99999999", "0.5e-99999999", "1.5E+6000000", "-2e-5100000",
    "1e999999999999999999999999999999", "1" * 5_100_000],
    ids=lambda s: s if len(s) < 40 else f"{len(s)} digits")
def test_huge_decimal_literal_refused_before_it_is_built(bad):
    """A literal whose exact value may need more than POWER_BITS bits is
    refused from its text, in every form that reads one; building it
    took minutes (10^99999999) or raised InvalidOperation (an exponent
    past Decimal's range)."""
    for read in (decimal_to_fraction,
                 lambda s: parse_real(s, 64),
                 lambda s: parse_real(f"{s}±1", 64),
                 lambda s: parse_real(f"1±{s}", 64),
                 lambda s: BallReal.from_json({"mid": s, "rad": "0",
                                               "prec": 64}),
                 lambda s: BallReal.from_json({"mid": "0", "rad": s,
                                               "prec": 64})):
        with pytest.raises(NumericsError, match=f"{POWER_BITS}-bit bound"):
            read(bad)


def test_decimal_literal_under_the_bound_is_exact():
    # the bound falls between 10^5,050,000 and 10^5,050,500
    check_literal("1e5050000")
    check_literal("1e-0000000000005")
    with pytest.raises(NumericsError):
        check_literal("1e5050500")
    assert decimal_to_fraction("1e-100000") == Fraction(1, 10 ** 100_000)
    assert decimal_to_fraction("2.5e3") == 2500
    assert parse_real("0.5e-3±1e-4", 64).at(64).contains(Fraction(1, 2000))


def test_refine_nesting_and_cap():
    h = parse_real("zeta3", 32)
    balls = [h.at(p) for p in (32, 64, 128, 256, 512)]
    for wide, narrow in zip(balls, balls[1:]):
        assert wide.contains(narrow)
        assert narrow.rad < wide.rad
    with pytest.raises(PrecisionCapExceeded):
        refine(h, (1 << 16) + 1)


def test_cap_is_fixed_for_every_handle():
    for h in (parse_real("3/7"), parse_real("0.5±0.01"), parse_real("golden")):
        with pytest.raises(PrecisionCapExceeded):
            h.at(PREC_CAP + 1)
    with pytest.raises(TypeError):
        RealConstant("1", exact=Fraction(1), cap=PREC_CAP)


def test_int_decimal_codec_past_the_digit_limit():
    """Python refuses int<->str past 4300 digits by default; the codec
    round-trips any size and agrees with str/int below the limit."""
    rng = random.Random(17)
    for digits in (1, 20, 4300, 4301, 10 ** 5):
        n = rng.randrange(10 ** (digits - 1), 10 ** digits)
        for v in ((n, -n) if digits < 10 ** 5 else (-n,)):
            s = int_to_decimal(v)
            assert len(s) == digits + (v < 0)
            assert decimal_to_int(s) == v
            if digits <= 4300:
                assert s == str(v) and decimal_to_int(s) == int(s)
    assert decimal_to_int("+" + "7" * 5000) == int("7" * 2500) * (10 ** 2500 + 1)
    # int(s, 10) stays the reference below the limit ...
    for text, value in ((" 12 ", 12), ("1_000", 1000), ("١٢", 12)):
        assert decimal_to_int(text) == int(text) == value
    for bad in ("", " ", "+", "1e5", "1.0", "0x10", "NaN"):
        with pytest.raises(ValueError):
            decimal_to_int(bad)
    # ... and past it too: blanks, underscores and digits of any script
    assert decimal_to_int("1_0" * 3000) == 10 * (10 ** 6000 - 1) // 99
    assert decimal_to_int(" " + "1" * 5000 + "\n") == (10 ** 5000 - 1) // 9
    assert decimal_to_int("١" * 5000) == (10 ** 5000 - 1) // 9
    for bad in ("1" * 5000 + "e1", "1__0" * 2000, "_" + "1" * 5000,
                "1" * 5000 + "_", "\x1c" + "1" * 5000, "- " + "1" * 5000):
        with pytest.raises(ValueError):
            decimal_to_int(bad)


# digit counts log-uniform in 1..10^5, so most examples stay cheap
_DIGITS = st.integers(1, 5).flatmap(lambda k: st.integers(10 ** (k - 1),
                                                          10 ** k))


def _of_digits(digits: int, seed: int) -> int:
    return random.Random(seed).randrange(10 ** (digits - 1), 10 ** digits)


@settings(max_examples=40, deadline=None)
@given(_DIGITS, st.integers(0, 2 ** 32), st.booleans())
def test_int_codec_round_trips_at_any_size(digits, seed, negative):
    n = _of_digits(digits, seed) * (-1 if negative else 1)
    assert decimal_to_int(int_to_decimal(n)) == n


@settings(max_examples=30, deadline=None)
@given(_DIGITS, _DIGITS, st.integers(0, 2 ** 32), st.booleans())
def test_fraction_codec_round_trips_at_any_size(num, den, seed, negative):
    q = Fraction(_of_digits(num, seed), _of_digits(den, seed + 1))
    q = -q if negative else q
    assert decimal_to_fraction(fraction_to_str(q)) == q


@pytest.fixture
def unlimited():
    """call(f, s): f(s), or the class of its ValueError or
    ZeroDivisionError, with the int/str digit limit lifted by
    sys.set_int_max_str_digits(0); the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()

    def call(f, s):
        sys.set_int_max_str_digits(0)
        try:
            return _outcome(f, s)
        finally:
            sys.set_int_max_str_digits(limit)
    yield call
    sys.set_int_max_str_digits(limit)


def _outcome(f, s):
    try:
        return f(s)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


_BLANKS = [" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2028",
           "\u3000"]
_DIGIT_CHARS = ["0", "1", "7", "9", "٣", "߀", "𝟗"]
_RUNS = ["7" * 4301, "1" * 4400, "٣" * 4301, "1_0" * 2200]
# free strings over the grammar's characters, and strings shaped as blanks,
# a sign, digit groups joined by "_", "/", "." or "e", and blanks
_PIECE = st.sampled_from(_BLANKS + _DIGIT_CHARS + _RUNS
                         + ["+", "-", "_", "/", ".", "e", "E"])
_GROUP = st.lists(st.sampled_from(_DIGIT_CHARS + _RUNS[:3]), min_size=1,
                  max_size=3).map("".join)
_SHAPED = st.builds(
    lambda a, sign, groups, seps, b: a + sign + "".join(
        g + sep for g, sep in zip(groups, seps + [""] * len(groups))) + b,
    st.sampled_from([""] + _BLANKS), st.sampled_from(["", "+", "-"]),
    st.lists(_GROUP, min_size=1, max_size=3),
    st.lists(st.sampled_from(["_", "__", "/", ".", "e", "e-", " "]),
             max_size=2),
    st.sampled_from([""] + _BLANKS))
_TEXT = st.lists(_PIECE, max_size=8).map("".join) | _SHAPED


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TEXT)
def test_decimal_to_int_reads_what_int_reads(unlimited, s):
    """The same value or refusal as int(s, 10) with no digit limit."""
    assert _outcome(decimal_to_int, s) == unlimited(lambda t: int(t, 10), s)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TEXT)
def test_decimal_to_fraction_reads_what_fraction_reads(unlimited, s):
    """Fraction(s) with no digit limit, on every s parse_real's two
    regexes accept; a refusal on every other s."""
    t = s.strip()
    try:
        got = _outcome(decimal_to_fraction, s)
    except NumericsError:
        return      # refused from its length before it is built
    if numerics._RAT_RE.match(t) or numerics._DEC_RE.match(t):
        assert got == unlimited(Fraction, s)
    else:
        assert got is ValueError


def test_dyadic_to_decimal_past_the_digit_limit():
    q = Fraction(3 ** 9100 + 2, 1 << 40)        # 4342 digits over 2^40
    assert decimal_to_fraction(dyadic_to_decimal(q)) == q
    assert decimal_to_fraction(dyadic_to_decimal(-q * (1 << 40))) == -q * (1 << 40)


def test_golden_satisfies_quadratic():
    # phi^2 = phi + 1 must hold within enclosure widths
    phi = parse_real("golden", 192).at(192)
    lhs = phi * phi
    rhs = phi + 1
    assert tri_compare(lhs - rhs, Fraction(1, 2**180)) is TriBool.FALSE
    assert (lhs - rhs).contains(0)


# ---------------------------------------------------------------------------
# tri_compare
# ---------------------------------------------------------------------------

def test_tri_compare_pinned_cases():
    a = BallReal.from_endpoints(Fraction(29, 10), Fraction(31, 10), 64)
    b = BallReal.from_endpoints(Fraction(9, 10), Fraction(11, 10), 64)
    assert tri_compare(a, b) is TriBool.TRUE
    c = BallReal.from_endpoints(Fraction(1, 2), Fraction(3, 2), 64)
    assert tri_compare(c, c) is TriBool.UNKNOWN
    half = BallReal.exact(Fraction(1, 2))
    assert tri_compare(half, half) is TriBool.FALSE  # not strictly greater


def test_tribool_is_not_a_bool():
    with pytest.raises(TypeError):
        bool(TriBool.UNKNOWN)
    assert TriBool.TRUE.certain and not TriBool.UNKNOWN.certain


def test_tribool_invert_is_kleene_negation():
    assert [~t for t in TriBool] == [TriBool.FALSE, TriBool.TRUE,
                                     TriBool.UNKNOWN]


T, U, FF = TriBool.TRUE, TriBool.UNKNOWN, TriBool.FALSE


@pytest.mark.parametrize("x, y, want", [
    (T, T, T), (T, U, U), (T, FF, FF),
    (U, T, U), (U, U, U), (U, FF, FF),
    (FF, T, FF), (FF, U, FF), (FF, FF, FF),
])
def test_tri_all_truth_table(x, y, want):
    assert tri_all([x, y]) is want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(TriBool)), max_size=8))
def test_tri_all_is_kleene_and_stops_at_the_first_false(values):
    """FALSE < UNKNOWN < TRUE, tri_all is the least value (TRUE when there
    are none), and nothing after the first FALSE is drawn."""
    drawn = []

    def lazily():
        for v in values:
            drawn.append(v)
            yield v
    order = (FF, U, T)
    assert tri_all(lazily()) is min(values, key=order.index, default=T)
    stop = values.index(FF) + 1 if FF in values else len(values)
    assert drawn == values[:stop]


# ---------------------------------------------------------------------------
# ring ops: containment property under random exact inputs
# ---------------------------------------------------------------------------

def test_ring_ops_contain_exact_results():
    rng = random.Random(20260823)
    for _ in range(300):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        prec = rng.choice([24, 48, 64])
        x, y = BallReal.exact(a, prec), BallReal.exact(b, prec)
        assert (x + y).contains(a + b)
        assert (x - y).contains(a - b)
        assert (x * y).contains(a * b)
        if b != 0:
            try:
                assert (x / y).contains(a / b)
            except NumericsError:
                # y's enclosure may straddle zero only if b was non-dyadic tiny
                assert not y.is_exact
        assert abs(x).contains(abs(a))
        assert x._int_pow(3).contains(a**3)


def test_exact_dyadics_stay_exact():
    x = BallReal.exact(Fraction(3, 8), 24)
    y = BallReal.exact(12345678901234567890123456789, 24)
    z = x * y + x - y
    assert z.is_exact
    assert z.mid == Fraction(3, 8) * 12345678901234567890123456789 + Fraction(3, 8) - 12345678901234567890123456789


def test_division_by_zero_straddling_ball():
    num = BallReal.exact(1, 32)
    den = BallReal.from_endpoints(Fraction(-1), Fraction(1), 32)
    with pytest.raises(NumericsError):
        num / den


def test_abs_straddling_zero():
    b = BallReal.from_endpoints(Fraction(-1, 4), Fraction(1, 2), 32)
    a = abs(b)
    assert a.lower >= 0
    assert a.contains(Fraction(1, 2)) and a.contains(0)


# ---------------------------------------------------------------------------
# log / exp / sqrt / pow against mpmath
# ---------------------------------------------------------------------------

def _mp(x: Fraction):
    return mpf(x.numerator) / x.denominator


def test_log_exp_cross_check_mpmath():
    mp.prec = 300
    rng = random.Random(7)
    for _ in range(60):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        ball = BallReal.exact(q, 128)
        lg = ball.log()
        assert _mp(lg.lower) <= mpmath.log(_mp(q)) <= _mp(lg.upper)
        e = BallReal.exact(Fraction(rng.randint(-400, 400), rng.randint(1, 64)), 128).exp()
        assert e.lower > 0
    x = BallReal.exact(2, 160).log()
    assert contains_close(x, LN2)


def test_log_exact_one_is_exact_zero():
    assert BallReal.exact(1, 64).log().is_exact
    assert BallReal.exact(1, 64).log().mid == 0


def test_log_rejects_nonpositive():
    with pytest.raises(NumericsError):
        BallReal.exact(0, 64).log()
    with pytest.raises(NumericsError):
        BallReal.from_endpoints(Fraction(-1), Fraction(2), 64).log()


def test_exp_log_roundtrip():
    for q in [Fraction(5, 3), Fraction(1, 7), Fraction(100), Fraction(1, 10**6)]:
        ball = BallReal.exact(q, 128)
        back = ball.log().exp()
        assert back.contains(q)


def test_log_of_huge_integer_is_cheap_and_tight():
    n = 12345678901234567890 ** 100  # ~6400 bits
    lg = BallReal.exact(n, 96).log()
    mp.prec = 7000
    true = mpmath.log(mpf(n))
    assert _mp(lg.lower) <= true <= _mp(lg.upper)
    assert lg.rad < Fraction(1, 2**80)


def test_repr_past_the_float_range():
    """A ball's repr is written from its integers, so it needs no float:
    balls past 2^1024 and below 2^-1074 have one, and an exact ball past
    the int/str digit cap is written in full."""
    big = 5003120229309602662697647 * Fraction(2) ** 3804
    x = BallReal.from_endpoints(big, big * (1 + Fraction(1075, 2048)
                                            * Fraction(1, 2 ** 308)), 446)
    assert repr(x) == "BallReal(6.56666e+1169 ± 3.3e+1076, prec=446)"
    assert repr(-x) == "BallReal(-6.56666e+1169 ± 3.3e+1076, prec=446)"
    tiny = BallReal.from_endpoints(Fraction(1, 2 ** 5000),
                                   Fraction(3, 2 ** 5000), 64)
    assert repr(tiny) == "BallReal(1.41596e-1505 ± 7.08e-1506, prec=64)"
    assert repr(BallReal.from_endpoints(Fraction(1, 3), Fraction(1, 2), 64)) \
        == "BallReal(0.416667 ± 0.0833, prec=64)"
    assert repr(BallReal.exact(10 ** 5000, 64)) == \
        f"BallReal(1{'0' * 5000} exact, prec=64)"


def test_pow_rational_and_ball_exponents():
    mp.prec = 300
    b = BallReal.exact(2, 128)
    c = b.pow(Fraction(1, 2))
    assert contains_close(c, SQRT2)
    d = BallReal.exact(10, 128).pow(Fraction(-3, 2))
    true = mpf(10) ** mpf(-1.5)
    assert _mp(d.lower) <= true <= _mp(d.upper)
    expo = BallReal.exact(Fraction(1, 2), 128)
    c2 = (b.log() * expo).exp()         # a ball exponent, by exp and log
    assert contains_close(c2, SQRT2, Fraction(1, 2**100))


def test_sqrt_bracket():
    s = BallReal.exact(2, 128).sqrt()
    assert contains_close(s, SQRT2)
    z = BallReal.exact(0, 64).sqrt()
    assert z.contains(0) and z.upper < Fraction(1, 2**32)


# ---------------------------------------------------------------------------
# integer root / exact threshold helpers
# ---------------------------------------------------------------------------

def test_nth_root_floor_property():
    rng = random.Random(99)
    for _ in range(200):
        x = rng.randint(0, 10**30)
        n = rng.randint(1, 7)
        r = nth_root_floor(x, n)
        assert r**n <= x < (r + 1) ** n


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 3000), st.integers(1, 3000), st.integers(-2, 2),
       st.booleans())
def test_nth_root_floor_brackets_the_root(x, n, d, near_power):
    """r**n <= x < (r+1)**n, also next to an exact power, where the float
    start is closest to the root."""
    if near_power:
        x = max(nth_root_floor(x, n) ** n + d, 0)
    r = nth_root_floor(x, n)
    assert r ** n <= x < (r + 1) ** n


@pytest.mark.parametrize("x", [1, 2, 3, 100, 2 ** 64 - 1, 3 ** 200])
def test_nth_root_floor_of_a_huge_index_is_one_at_once(x):
    """For n >= x.bit_length() the root is 1 since x < 2^n: it is returned
    without building r^(n-1), so n = 10^12 costs nothing; at the edge, and
    one bit below it, it still brackets the root."""
    assert nth_root_floor(x, 10 ** 12) == 1
    for n in (x.bit_length() - 1, x.bit_length()):
        if n >= 1:
            r = nth_root_floor(x, n)
            assert r ** n <= x < (r + 1) ** n
    assert nth_root_floor(0, 10 ** 12) == 0


def test_exact_powers_past_the_bound_refuse():
    """Q^(10^12 + 1) is never built: floor_scaled_power and
    cmp_abs_vs_power refuse it at once, and accept a power below the
    bound."""
    expo = Fraction(10 ** 12 - 1, 10 ** 12)
    with pytest.raises(NumericsError, match="bound"):
        floor_scaled_power(Fraction(1), 100, expo)
    with pytest.raises(NumericsError, match="bound"):
        cmp_abs_vs_power(Fraction(3), 100, -1 - Fraction(1, 10 ** 12))
    u = POWER_BITS // 2 - 1                  # 2^u: 2u bits by bit length
    assert floor_scaled_power(Fraction(1), 2, Fraction(u, 1)) == 2 ** u
    with pytest.raises(NumericsError):
        floor_scaled_power(Fraction(1), 2, Fraction(u + 1, 1))


@pytest.mark.parametrize("v", [10 ** 6, 10 ** 9])
def test_rational_ball_power_past_the_bound_refuses(v):
    """1000^(1/2 - 2/v) at 96 bits would take a v-th root of an input of
    about 100 v bits: refused before the power is built, with the message
    of the exact powers."""
    with pytest.raises(NumericsError, match=r"^exact power of up to \d+ "
                       f"bits exceeds the {POWER_BITS}-bit bound$"):
        BallReal.exact(1000, 96).pow(Fraction(1, 2) - Fraction(2, v))


def test_nth_root_floor_pinned():
    assert nth_root_floor(2**60, 2) == 2**30
    assert nth_root_floor(3**45, 45) == 3
    assert nth_root_floor(3**45 - 1, 45) == 2
    assert nth_root_floor(0, 5) == 0


def test_floor_root_rational():
    assert floor_root_rational(10**6, 7, 3) == 52  # (1e6/7)^(1/3) = 52.27..
    rng = random.Random(5)
    for _ in range(100):
        a, b, v = rng.randint(0, 10**12), rng.randint(1, 10**6), rng.randint(1, 5)
        r = floor_root_rational(a, b, v)
        assert r**v * b <= a < (r + 1) ** v * b


def test_floor_scaled_power():
    # floor(3 * 10^(12/5)) = floor(753.56...) = 753
    assert floor_scaled_power(Fraction(3), 10, Fraction(12, 5)) == 753
    assert floor_scaled_power(Fraction(1), 100, Fraction(4, 5)) == 39  # 100^0.8
    assert floor_scaled_power(Fraction(5), 10, Fraction(-1, 2)) == 1  # 5/sqrt(10)
    assert floor_scaled_power(Fraction(0), 10, Fraction(3)) == 0


def test_cmp_abs_vs_power():
    # |a| vs 10^(3/2): 31 < 31.62... < 32
    assert cmp_abs_vs_power(Fraction(31), 10, Fraction(3, 2)) == -1
    assert cmp_abs_vs_power(Fraction(-32), 10, Fraction(3, 2)) == 1
    assert cmp_abs_vs_power(Fraction(8), 2, Fraction(3)) == 0
    assert cmp_abs_vs_power(Fraction(1, 32), 2, Fraction(-5)) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ball_json_roundtrip():
    ball = parse_real("golden", 80).at(80)
    j = json.loads(json.dumps(ball.to_json()))
    back = BallReal.from_json(j)
    assert back.mid == ball.mid and back.rad == ball.rad and back.prec == ball.prec


@pytest.mark.parametrize("obj", [
    {"mid": "0.1", "rad": "0", "prec": 64},
    {"mid": "0.5", "rad": "0.3", "prec": 64},
])
def test_ball_json_rejects_non_dyadic(obj):
    # to_json could not write such a ball back out
    with pytest.raises(NumericsError, match="dyadic"):
        BallReal.from_json(obj)


def test_dyadic_decimal_exactness():
    for q in [Fraction(3, 4), Fraction(-7, 32), Fraction(5), Fraction(0),
              Fraction(1, 2**40), Fraction(-123456789, 2**10)]:
        s = dyadic_to_decimal(q)
        assert decimal_to_fraction(s) == q
