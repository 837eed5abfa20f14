"""Certified real arithmetic on dyadic balls.

Every real quantity in this package is either an exact rational (Fraction)
or a ball ``mid +/- rad`` whose midpoint and radius are dyadic rationals
(denominator a power of two).  Ring operations compute exact rational
interval endpoints first and only then round the midpoint to the working
precision, so the enclosure property "the true value lies inside the ball"
is an invariant of construction, not a hope.

Comparisons are three-valued: a ball comparison is True only when the
intervals are disjoint in the right order, False only when disjoint the
other way (or touching, for the non-strict side), and Unknown otherwise.
Callers that need a definite answer escalate precision themselves, up to a
hard cap, and must surface Unknown rather than guess.

Transcendental constants (golden ratio, zeta(3), zeta(2), e, square roots)
and ln/exp are evaluated by scaled-integer series with explicit tail and
rounding-error bounds; nothing here relies on float semantics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Optional, Union

__all__ = [
    "TriBool",
    "BallReal",
    "RealConstant",
    "NumericsError",
    "PrecisionCapExceeded",
    "UncertifiedComparison",
    "parse_real",
    "refine",
    "tri_compare",
    "nth_root_floor",
    "floor_root_rational",
    "floor_scaled_power",
    "cmp_abs_vs_power",
    "cmp_abs_le",
    "escalate",
    "PREC_CAP",
    "MIN_PREC",
]

MIN_PREC = 16
PREC_CAP = 1 << 16  # hard ceiling for precision escalation, in bits
_RAD_BITS = 32      # radii are rounded up to this many significant bits

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NumericsError(Exception):
    """Base class for certified-arithmetic failures."""


class PrecisionCapExceeded(NumericsError):
    """Requested precision is above the escalation cap."""


class UncertifiedComparison(NumericsError):
    """A comparison that had to be certain came back Unknown."""


class TriBool(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self):
        # Unknown silently collapsing to truthy/falsy is exactly the bug
        # class this type exists to prevent.
        raise TypeError("TriBool has no truth value; compare against TriBool members")

    @property
    def certain(self) -> bool:
        return self is not TriBool.UNKNOWN


def _pow2(k: int) -> Fraction:
    """2**k as an exact Fraction, k of either sign."""
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << -k)


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _round_frac(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Round x to ``prec`` significant bits (nearest). Returns (value, |error| bound)."""
    if not x:
        return _ZERO, _ZERO
    n, d = x.numerator, x.denominator
    s = prec - (abs(n).bit_length() - d.bit_length())
    if s >= 0:
        q, r = divmod(n << s, d)
        den = d
    else:
        den = d << -s
        q, r = divmod(n, den)
    if 2 * r >= den:
        q += 1
    err = _ZERO if r == 0 else _pow2(-s - 1)
    val = Fraction(q, 1 << s) if s >= 0 else Fraction(q << -s)
    return val, err


def _round_up(x: Fraction, bits: int = _RAD_BITS) -> Fraction:
    """Smallest dyadic with <= bits significant bits that is >= x (x >= 0)."""
    if not x:
        return _ZERO
    n, d = x.numerator, x.denominator
    s = bits - (n.bit_length() - d.bit_length())
    if s >= 0:
        q = -((-n << s) // d)
        return Fraction(q, 1 << s)
    q = -(-n // (d << -s))
    return Fraction(q << -s)


def nth_root_floor(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x (x >= 0, n >= 1)."""
    if x < 0 or n < 1:
        raise ValueError("nth_root_floor needs x >= 0, n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // n)  # >= true root
    while True:
        r2 = ((n - 1) * r + x // r ** (n - 1)) // n
        if r2 >= r:
            break
        r = r2
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def floor_root_rational(num: int, den: int, n: int) -> int:
    """floor((num/den)**(1/n)) for num >= 0, den >= 1."""
    r = nth_root_floor(num // den, n)
    while (r + 1) ** n * den <= num:
        r += 1
    return r


def floor_scaled_power(c: Fraction, base: int, expo: Fraction) -> int:
    """floor(c * base**expo) exactly, for c >= 0, base >= 1, rational expo."""
    if c < 0 or base < 1:
        raise ValueError("floor_scaled_power needs c >= 0, base >= 1")
    u, v = expo.numerator, expo.denominator
    cn, cd = c.numerator, c.denominator
    if u >= 0:
        return floor_root_rational(cn ** v * base ** u, cd ** v, v)
    return floor_root_rational(cn ** v, cd ** v * base ** (-u), v)


def cmp_abs_vs_power(a: Fraction, base: int, expo: Fraction) -> int:
    """Exact sign of |a| - base**expo (-1, 0, +1); base >= 1, rational expo."""
    u, v = expo.numerator, expo.denominator
    lhs_n = abs(a.numerator) ** v
    lhs_d = a.denominator ** v
    if u >= 0:
        lhs, rhs = lhs_n, lhs_d * base ** u
    else:
        lhs, rhs = lhs_n * base ** (-u), lhs_d
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# scaled-integer series kernels: value * 2**wp bracketed by integer pairs
# ---------------------------------------------------------------------------

def _atanh_bracket(num: int, den: int, wp: int) -> tuple[int, int]:
    """Bracket of atanh(num/den) * 2**wp for 0 <= num/den <= 1/2."""
    if num == 0:
        return 0, 0
    t_lo = (num << wp) // den
    t_hi = t_lo + 1
    # t^2 bracket
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
            # geometric tail with ratio t^2 <= 1/4: total < p_hi * 4/3 < 2
            s_hi += 2
            return s_lo, s_hi


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def _ln2_bracket(wp: int) -> tuple[int, int]:
    """Bracket of ln(2) * 2**wp.  ln 2 = 2 atanh(1/3)."""
    br = _LN2_CACHE.get(wp)
    if br is None:
        lo, hi = _atanh_bracket(1, 3, wp + 4)
        br = (2 * lo) >> 4, ((2 * hi) >> 4) + 1
        _LN2_CACHE[wp] = br
    return br


def _ln_bracket(x: Fraction, wp: int) -> tuple[Fraction, Fraction]:
    """Rigorous dyadic bracket [lo, hi] of ln(x), x > 0 rational."""
    if x <= 0:
        raise NumericsError("log of a non-positive enclosure")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # pick e so that m = x/2^e lies in [3/4, 3/2): then |t| <= 1/5 below
    while _cmp_scaled(n, d, e) < 0:  # m < 3/4
        e -= 1
    while _cmp_scaled(n, d, e + 1) >= 0:  # m >= 3/2
        e += 1
    # now m = x/2^e in [3/4, 3/2), t = (m-1)/(m+1) in [-1/7, 1/5]
    if e >= 0:
        tn, td = n - (d << e), n + (d << e)
    else:
        tn, td = (n << -e) - d, (n << -e) + d
    neg = tn < 0
    lo_i, hi_i = _atanh_bracket(abs(tn), td, wp)
    if neg:
        lo_i, hi_i = -hi_i, -lo_i
    ln2_lo, ln2_hi = _ln2_bracket(wp)
    if e >= 0:
        lo_i, hi_i = 2 * lo_i + e * ln2_lo, 2 * hi_i + e * ln2_hi
    else:
        lo_i, hi_i = 2 * lo_i + e * ln2_hi, 2 * hi_i + e * ln2_lo
    return Fraction(lo_i, 1 << wp), Fraction(hi_i, 1 << wp)


def _cmp_scaled(n: int, d: int, e: int) -> int:
    """Exact sign of n/(d*2^e) - 3/4."""
    if e >= 0:
        lhs, rhs = 4 * n, 3 * (d << e)
    else:
        lhs, rhs = 4 * (n << -e), 3 * d
    return (lhs > rhs) - (lhs < rhs)


def _exp_pos_bracket(num: int, den: int, wp: int) -> tuple[int, int]:
    """Bracket of exp(num/den) * 2**wp for 0 <= num/den <= 3/4."""
    if num == 0:
        return 1 << wp, 1 << wp
    r_lo = (num << wp) // den
    r_hi = r_lo + 1
    term_lo, term_hi = 1 << wp, 1 << wp
    s_lo, s_hi = 1 << wp, 1 << wp
    j = 0
    while True:
        j += 1
        term_lo = (term_lo * r_lo >> wp) // j
        term_hi = ((term_hi * r_hi >> wp) + 1) // j + 1
        s_lo += term_lo
        s_hi += term_hi
        if term_hi <= 1:
            s_hi += 4  # tail: geometric ratio <= 3/4 per spare factor, coarse
            return s_lo, s_hi


def _exp_bracket(x: Fraction, wp: int) -> tuple[Fraction, Fraction]:
    """Rigorous dyadic bracket of exp(x), x rational."""
    ln2_lo, ln2_hi = _ln2_bracket(wp)
    # k = round(x / ln 2) using the bracket midpoint; any nearby k works
    k = int((x * (1 << wp) * 2 + Fraction(ln2_lo + ln2_hi, 2)) // Fraction(ln2_lo + ln2_hi))
    # r = x - k ln2 with ln2 in [lo,hi]/2^wp
    if k >= 0:
        r_lo = x - Fraction(k * ln2_hi, 1 << wp)
        r_hi = x - Fraction(k * ln2_lo, 1 << wp)
    else:
        r_lo = x - Fraction(k * ln2_lo, 1 << wp)
        r_hi = x - Fraction(k * ln2_hi, 1 << wp)
    out = []
    for r in (r_lo, r_hi):
        if r >= 0:
            lo_i, hi_i = _exp_pos_bracket(r.numerator, r.denominator, wp)
        else:
            plo, phi = _exp_pos_bracket(-r.numerator, r.denominator, wp)
            # exp(r) = 1 / exp(-r)
            lo_i = (1 << (2 * wp)) // phi
            hi_i = -((-1 << (2 * wp)) // plo)
        out.append((lo_i, hi_i))
    lo_i = out[0][0]
    hi_i = out[1][1]
    return Fraction(lo_i, 1 << wp) * _pow2(k), (Fraction(hi_i, 1 << wp)) * _pow2(k)


# ---------------------------------------------------------------------------
# BallReal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallReal:
    """Dyadic midpoint-radius enclosure of a real number."""

    mid: Fraction
    rad: Fraction
    prec: int

    def __post_init__(self):
        if self.rad < 0:
            raise NumericsError("negative radius")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(q: Union[int, Fraction], prec: int = 64) -> "BallReal":
        """Exact ball if q is dyadic; tight rounded enclosure otherwise."""
        q = Fraction(q)
        if _is_dyadic(q):
            return BallReal(q, _ZERO, prec)
        m, e = _round_frac(q, prec)
        return BallReal(m, _round_up(e), prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, prec: int) -> "BallReal":
        if lo > hi:
            raise NumericsError("inverted endpoints")
        if lo == hi and _is_dyadic(lo):
            return BallReal(lo, _ZERO, prec)
        mid = (lo + hi) / 2
        rad = (hi - lo) / 2
        m, e = _round_frac(mid, prec)
        return BallReal(m, _round_up(rad + e), prec)

    # -- basic accessors ---------------------------------------------------

    @property
    def lower(self) -> Fraction:
        return self.mid - self.rad

    @property
    def upper(self) -> Fraction:
        return self.mid + self.rad

    @property
    def is_exact(self) -> bool:
        return self.rad == 0

    def contains(self, q: Union[int, Fraction, "BallReal"]) -> bool:
        if isinstance(q, BallReal):
            return self.lower <= q.lower and q.upper <= self.upper
        return self.lower <= q <= self.upper

    def contains_zero(self) -> bool:
        return self.lower <= 0 <= self.upper

    def sign(self) -> Optional[int]:
        """Certified sign, or None if the enclosure straddles zero."""
        if self.lower > 0:
            return 1
        if self.upper < 0:
            return -1
        if self.is_exact and self.mid == 0:
            return 0
        return None

    def round_to(self, prec: int) -> "BallReal":
        if self.is_exact:
            return BallReal(self.mid, _ZERO, prec)
        return BallReal.from_endpoints(self.lower, self.upper, prec)

    # -- ring ops (exact endpoints, then round) ----------------------------

    def _wp(self, other: "BallReal") -> int:
        return max(self.prec, other.prec)

    def __add__(self, other) -> "BallReal":
        other = _coerce(other, self.prec)
        return BallReal.from_endpoints(self.lower + other.lower,
                                       self.upper + other.upper, self._wp(other))

    __radd__ = __add__

    def __neg__(self) -> "BallReal":
        return BallReal(-self.mid, self.rad, self.prec)

    def __sub__(self, other) -> "BallReal":
        return self + (-_coerce(other, self.prec))

    def __rsub__(self, other) -> "BallReal":
        return _coerce(other, self.prec) + (-self)

    def __mul__(self, other) -> "BallReal":
        other = _coerce(other, self.prec)
        cands = (self.lower * other.lower, self.lower * other.upper,
                 self.upper * other.lower, self.upper * other.upper)
        return BallReal.from_endpoints(min(cands), max(cands), self._wp(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BallReal":
        other = _coerce(other, self.prec)
        if other.lower <= 0 <= other.upper:
            raise NumericsError("division by an enclosure containing zero")
        cands = (self.lower / other.lower, self.lower / other.upper,
                 self.upper / other.lower, self.upper / other.upper)
        return BallReal.from_endpoints(min(cands), max(cands), self._wp(other))

    def __rtruediv__(self, other) -> "BallReal":
        return _coerce(other, self.prec) / self

    def __abs__(self) -> "BallReal":
        lo, hi = self.lower, self.upper
        if lo >= 0:
            return self
        if hi <= 0:
            return -self
        return BallReal.from_endpoints(_ZERO, max(-lo, hi), self.prec)

    # -- certified transcendental maps -------------------------------------

    def log(self) -> "BallReal":
        if self.lower <= 0:
            raise NumericsError("log needs a certified-positive enclosure")
        if self.is_exact and self.mid == 1:
            return BallReal(_ZERO, _ZERO, self.prec)
        wp = self.prec + 8
        lo_l, _ = _ln_bracket(_shrink(self.lower, wp, up=False), wp)
        _, hi_h = _ln_bracket(_shrink(self.upper, wp, up=True), wp)
        return BallReal.from_endpoints(lo_l, hi_h, self.prec)

    def exp(self) -> "BallReal":
        if self.is_exact and self.mid == 0:
            return BallReal(_ONE, _ZERO, self.prec)
        wp = self.prec + 8
        lo_l, _ = _exp_bracket(_shrink(self.lower, wp, up=False), wp)
        _, hi_h = _exp_bracket(_shrink(self.upper, wp, up=True), wp)
        return BallReal.from_endpoints(lo_l, hi_h, self.prec)

    def sqrt(self) -> "BallReal":
        if self.lower < 0:
            raise NumericsError("sqrt of an enclosure with negative part")
        wp = self.prec + 4
        lo, hi = self.lower, self.upper
        lo_r = Fraction(math.isqrt((lo.numerator << (2 * wp)) // lo.denominator), 1 << wp) if lo else _ZERO
        num = hi.numerator << (2 * wp)
        hi_r = Fraction(math.isqrt(-(-num // hi.denominator)) + 1, 1 << wp) if hi else _ZERO
        return BallReal.from_endpoints(lo_r, hi_r, self.prec)

    def pow(self, expo: Union[int, Fraction, "BallReal"]) -> "BallReal":
        """self**expo.  Integer/rational exponents get root-based brackets."""
        if isinstance(expo, BallReal):
            return (self.log() * expo).exp()
        expo = Fraction(expo)
        if expo.denominator == 1:
            return self._int_pow(expo.numerator)
        if self.lower < 0:
            raise NumericsError("rational power of an enclosure with negative part")
        u, v = expo.numerator, expo.denominator
        base = self._int_pow(abs(u))
        wp = self.prec + 4
        lo, hi = base.lower, base.upper
        lo_r = Fraction(floor_root_rational(lo.numerator << (v * wp), lo.denominator, v), 1 << wp) if lo > 0 else _ZERO
        hi_r = Fraction(floor_root_rational(hi.numerator << (v * wp), hi.denominator, v) + 1, 1 << wp)
        out = BallReal.from_endpoints(lo_r, hi_r, self.prec)
        if u < 0:
            out = BallReal.exact(1, self.prec) / out
        return out

    def _int_pow(self, k: int) -> "BallReal":
        if k == 0:
            return BallReal(_ONE, _ZERO, self.prec)
        if k < 0:
            return BallReal.exact(1, self.prec) / self._int_pow(-k)
        lo, hi = self.lower, self.upper
        if k % 2 == 1 or lo >= 0:
            return BallReal.from_endpoints(lo ** k, hi ** k, self.prec)
        if hi <= 0:
            return BallReal.from_endpoints(hi ** k, lo ** k, self.prec)
        return BallReal.from_endpoints(_ZERO, max(lo ** k, hi ** k), self.prec)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"mid": dyadic_to_decimal(self.mid),
                "rad": dyadic_to_decimal(self.rad),
                "prec": self.prec}

    @staticmethod
    def from_json(obj: dict) -> "BallReal":
        mid = decimal_to_fraction(obj["mid"])
        rad = decimal_to_fraction(obj["rad"])
        if not (_is_dyadic(mid) and _is_dyadic(rad)):
            # to_json writes only dyadic values, so anything else is corrupt
            raise NumericsError(f"ball mid {obj['mid']!r} and rad "
                                f"{obj['rad']!r} must be dyadic")
        return BallReal(mid, rad, int(obj["prec"]))

    def __repr__(self):
        if self.is_exact:
            return f"BallReal({self.mid!s} exact, prec={self.prec})"
        return f"BallReal({float(self.mid):.6g} ± {float(self.rad):.3g}, prec={self.prec})"


def _coerce(x, prec: int) -> BallReal:
    if isinstance(x, BallReal):
        return x
    if isinstance(x, (int, Fraction)):
        return BallReal.exact(x, prec)
    raise TypeError(f"cannot mix BallReal with {type(x).__name__}")


def _shrink(x: Fraction, wp: int, up: bool) -> Fraction:
    """Round a rational outward to ~wp bits so series cost ignores operand size."""
    m, e = _round_frac(x, wp)
    if e == 0:
        return m
    return m + e if up else m - e


def tri_compare(x: BallReal, y: Union[BallReal, int, Fraction]) -> TriBool:
    """Certified 'x > y': True iff inf x > sup y, False iff sup x <= inf y."""
    y = _coerce(y, x.prec)
    if x.lower > y.upper:
        return TriBool.TRUE
    if x.upper <= y.lower:
        return TriBool.FALSE
    return TriBool.UNKNOWN


def cmp_abs_le(val: BallReal, b_lo: Fraction, b_hi: Fraction,
               strict: bool = False) -> TriBool:
    """Certified |val| <= b (or < b when strict) for b in [b_lo, b_hi]."""
    lo, hi = val.lower, val.upper
    alo = _ZERO if lo <= 0 <= hi else min(abs(lo), abs(hi))
    ahi = max(abs(lo), abs(hi))
    if (ahi < b_lo) or (not strict and ahi <= b_lo):
        return TriBool.TRUE
    if (alo > b_hi) or (strict and alo >= b_hi):
        return TriBool.FALSE
    return TriBool.UNKNOWN


def escalate(decide: Callable[[int], Any], prec: int,
             cap: int = PREC_CAP) -> tuple[Any, int]:
    """The precision-escalation loop: decide(w) at w = prec, min(2w, cap),
    ... until it returns something other than TriBool.UNKNOWN or w has
    reached cap.  Returns the last answer and the precision that gave it."""
    w = prec
    while True:
        out = decide(w)
        if out is not TriBool.UNKNOWN or w >= cap:
            return out, w
        w = min(2 * w, cap)


# ---------------------------------------------------------------------------
# named constants and parsing
# ---------------------------------------------------------------------------

def _sqrt_const(k: int) -> Callable[[int], BallReal]:
    def compute(prec: int) -> BallReal:
        wp = prec + 4
        r = math.isqrt(k << (2 * wp))
        return BallReal.from_endpoints(Fraction(r, 1 << wp), Fraction(r + 1, 1 << wp), prec)
    return compute


def _golden(prec: int) -> BallReal:
    s5 = _sqrt_const(5)(prec + 4)
    return ((s5 + 1) * Fraction(1, 2)).round_to(prec)


def _zeta3(prec: int) -> BallReal:
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
    return BallReal.from_endpoints(Fraction(s_lo, 1 << wp), Fraction(s_hi, 1 << wp), prec)


def _zeta2(prec: int) -> BallReal:
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
    return BallReal.from_endpoints(Fraction(s_lo, 1 << wp), Fraction(s_hi, 1 << wp), prec)


def _euler_e(prec: int) -> BallReal:
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
    return BallReal.from_endpoints(Fraction(s_lo, 1 << wp), Fraction(s_hi, 1 << wp), prec)


class RealConstant:
    """Refinable handle for a real number.

    ``at(prec)`` returns a BallReal enclosure; repeated calls at increasing
    precision give nested enclosures (new results are intersected with the
    best known one).  Exact rationals short-circuit.
    """

    def __init__(self, expr: str, *, exact: Optional[Fraction] = None,
                 compute: Optional[Callable[[int], BallReal]] = None,
                 fixed: Optional[BallReal] = None, cap: int = PREC_CAP):
        self.expr = expr
        self.exact = exact
        self._compute = compute
        self._fixed = fixed
        self.cap = cap
        self._best: Optional[BallReal] = None

    def at(self, prec: int) -> BallReal:
        if prec < MIN_PREC:
            raise ValueError(f"precision {prec} below minimum {MIN_PREC}")
        if prec > self.cap:
            raise PrecisionCapExceeded(f"{prec} bits exceeds cap {self.cap}")
        if self.exact is not None:
            return BallReal.exact(self.exact, prec)
        if self._fixed is not None:
            return self._fixed.round_to(max(prec, self._fixed.prec))
        best = self._best
        if best is not None and best.prec >= prec and best.rad <= _pow2(-prec):
            return best.round_to(prec) if best.prec > prec else best
        ball = self._compute(prec)
        if best is not None:
            lo = max(ball.lower, best.lower)
            hi = min(ball.upper, best.upper)
            if lo <= hi:
                ball = BallReal.from_endpoints(lo, hi, prec)
        self._best = ball if best is None or ball.rad < best.rad or ball.prec > best.prec else best
        return ball

    def __repr__(self):
        return f"RealConstant({self.expr})"


_NAMED: dict[str, Callable[[int], BallReal]] = {
    "golden": _golden,
    "zeta3": _zeta3,
    "zeta2": _zeta2,
    "e": _euler_e,
}

_SQRT_RE = re.compile(r"^sqrt\((\d+)\)$")
_RAT_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_DEC_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def decimal_to_fraction(s: str) -> Fraction:
    from decimal import Decimal
    return Fraction(Decimal(s))


def dyadic_to_decimal(q: Fraction) -> str:
    """Exact finite decimal string for a dyadic rational."""
    if not _is_dyadic(q):
        raise NumericsError("not dyadic")
    k = q.denominator.bit_length() - 1
    if k == 0:
        return str(q.numerator)
    digits = q.numerator * 5 ** k  # q = digits / 10^k
    s = str(abs(digits)).rjust(k + 1, "0")
    sign = "-" if digits < 0 else ""
    return f"{sign}{s[:-k]}.{s[-k:]}"


def parse_real(expr: str, prec: int = 64) -> RealConstant:
    """Parse a real-number expression into a refinable handle.

    Accepted forms: named constants (golden, zeta3, zeta2, e), sqrt(k) for a
    positive integer k, rational literals p/q, decimal literals, and decimal
    literals with explicit uncertainty "mid±rad" (also "mid+-rad").
    """
    if prec < MIN_PREC:
        raise ValueError(f"precision {prec} below minimum {MIN_PREC}")
    expr = expr.strip()
    if expr in _NAMED:
        h = RealConstant(expr, compute=_NAMED[expr])
        h.at(prec)
        return h
    m = _SQRT_RE.match(expr)
    if m:
        k = int(m.group(1))
        if k <= 0:
            raise ValueError("sqrt argument must be positive")
        r = math.isqrt(k)
        if r * r == k:
            return RealConstant(expr, exact=Fraction(r))
        h = RealConstant(expr, compute=_sqrt_const(k))
        h.at(prec)
        return h
    m = _RAT_RE.match(expr)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError("zero denominator")
        return RealConstant(expr, exact=Fraction(num, den))
    for sep in ("±", "+-"):
        if sep in expr:
            mid_s, rad_s = expr.split(sep, 1)
            if not (_DEC_RE.match(mid_s.strip()) and _DEC_RE.match(rad_s.strip())):
                raise ValueError(f"malformed uncertain literal: {expr!r}")
            mid = decimal_to_fraction(mid_s.strip())
            rad = decimal_to_fraction(rad_s.strip())
            if rad < 0:
                raise ValueError("negative uncertainty")
            ball = BallReal.from_endpoints(mid - rad, mid + rad, prec)
            return RealConstant(expr, fixed=ball)
    if _DEC_RE.match(expr):
        return RealConstant(expr, exact=decimal_to_fraction(expr))
    raise ValueError(f"unknown real expression: {expr!r}")


def refine(handle: RealConstant, prec: int) -> BallReal:
    """Enclosure of the handle's value at the requested precision (capped)."""
    return handle.at(prec)
