"""Certified real arithmetic on dyadic balls.

Every real quantity in this package is either an exact rational (Fraction)
or a ball ``mid +/- rad`` whose midpoint and radius are dyadic rationals,
stored as integers at one power-of-two scale (mid = m 2^e, rad = r 2^e).
Ring operations compute the exact interval endpoints as integers at a common
scale, division, ln, exp, sqrt and powers as exact rationals, and only then
round, all through one routine: the midpoint to the working precision
(halves up), the radius plus that rounding error up to 32 bits.  So the
enclosure property "the true value lies inside the ball" is an invariant
of construction, not a hope.  Fractions appear only at the API edge.

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
from decimal import Decimal
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


def _round(n: int, d: int, prec: int, up: bool = False) -> tuple[int, int, bool]:
    """n/d (d >= 1) rounded to ``prec`` significant bits: (q, k, inexact),
    q * 2**k the nearest such value with halves rounded up, or with ``up``
    the least one >= n/d.  The bit count is taken from n/d in lowest terms,
    which a power-of-two d needs no reduction for."""
    if d & (d - 1):
        g = math.gcd(n, d)
        n, d = n // g, d // g
    k = abs(n).bit_length() - d.bit_length() - prec
    if not d & (d - 1):     # n / 2**t: shift by k + t
        sh = k + d.bit_length() - 1
        if sh <= 0:
            return n, k - sh, False
        q = -(-n >> sh) if up else ((n >> (sh - 1)) + 1) >> 1
        return q, k, n & ((1 << sh) - 1) != 0
    num, den = (n, d << k) if k >= 0 else (n << -k, d)
    q, rem = divmod(num, den)
    if (up and rem) or (not up and 2 * rem >= den):
        q += 1
    return q, k, rem != 0


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

class BallReal:
    """Dyadic midpoint-radius enclosure of a real number.

    Stored as integers at one power-of-two scale: mid = m * 2**e and
    rad = r * 2**e, r >= 0, with m and r not both even (e = 0 when both are
    0), so equal balls have equal fields.  ``mid``, ``rad``, ``lower`` and
    ``upper`` are exact Fractions, and balls compare and hash as the triple
    (mid, rad, prec).  Immutable.
    """

    __slots__ = ("_m", "_r", "_e", "prec")

    def __setattr__(self, name, value):
        raise AttributeError(f"BallReal is immutable: cannot set {name!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(q: Union[int, Fraction], prec: int = 64) -> "BallReal":
        """Exact ball if q is dyadic; tight rounded enclosure otherwise."""
        if q.__class__ is not int:
            q = Fraction(q)
        return _enclose(q.numerator, 0, q.denominator, prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, prec: int) -> "BallReal":
        nl, dl, nh, dh = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        r = nh * dl - nl * dh
        if r < 0:
            raise NumericsError("inverted endpoints")
        return _enclose(nh * dl + nl * dh, r, dl * dh, prec, -1)

    # -- basic accessors ---------------------------------------------------

    @property
    def mid(self) -> Fraction:
        return _frac(self._m, self._e)

    @property
    def rad(self) -> Fraction:
        return _frac(self._r, self._e)

    @property
    def lower(self) -> Fraction:
        return _frac(self._m - self._r, self._e)

    @property
    def upper(self) -> Fraction:
        return _frac(self._m + self._r, self._e)

    @property
    def is_exact(self) -> bool:
        return not self._r

    def contains(self, q: Union[int, Fraction, "BallReal"]) -> bool:
        m, r, e = self._m, self._r, self._e
        if isinstance(q, BallReal):
            return (_cmp(m - r, e, q._m - q._r, q._e) <= 0
                    and _cmp(q._m + q._r, q._e, m + r, e) <= 0)
        return _cmp_q(m - r, e, q) <= 0 <= _cmp_q(m + r, e, q)

    def contains_zero(self) -> bool:
        return self._r >= abs(self._m)

    def sign(self) -> Optional[int]:
        """Certified sign, or None if the enclosure straddles zero."""
        m, r = self._m, self._r
        if m - r > 0:
            return 1
        if m + r < 0:
            return -1
        if not m and not r:
            return 0
        return None

    def round_to(self, prec: int) -> "BallReal":
        return _enclose(self._m, self._r, 1, prec, self._e)

    # -- ring ops (exact integer endpoints, then round) --------------------

    def __add__(self, other) -> "BallReal":
        return _sum(self, _coerce(other, self.prec), 1)

    __radd__ = __add__

    def __neg__(self) -> "BallReal":
        return _ball(-self._m, self._r, self._e, self.prec)

    def __sub__(self, other) -> "BallReal":
        return _sum(self, _coerce(other, self.prec), -1)

    def __rsub__(self, other) -> "BallReal":
        return _sum(_coerce(other, self.prec), self, -1)

    def __mul__(self, other) -> "BallReal":
        other = _coerce(other, self.prec)
        m, r, m2, r2 = self._m, self._r, other._m, other._r
        a, b, c, d = m - r, m + r, m2 - r2, m2 + r2
        cands = (a * c, a * d, b * c, b * d)
        return _span(min(cands), max(cands), self._e + other._e,
                     max(self.prec, other.prec))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BallReal":
        other = _coerce(other, self.prec)
        if other.contains_zero():
            raise NumericsError("division by an enclosure containing zero")
        lo, hi, olo, ohi = self.lower, self.upper, other.lower, other.upper
        cands = (lo / olo, lo / ohi, hi / olo, hi / ohi)
        return BallReal.from_endpoints(min(cands), max(cands),
                                       max(self.prec, other.prec))

    def __rtruediv__(self, other) -> "BallReal":
        return _coerce(other, self.prec) / self

    def __abs__(self) -> "BallReal":
        m, r = self._m, self._r
        if m - r >= 0:
            return self
        if m + r <= 0:
            return -self
        return _span(0, abs(m) + r, self._e, self.prec)

    # -- certified transcendental maps -------------------------------------

    def log(self) -> "BallReal":
        if self._m - self._r <= 0:
            raise NumericsError("log needs a certified-positive enclosure")
        if self.is_exact and self._m == 1 and self._e == 0:
            return _ball(0, 0, 0, self.prec)
        wp = self.prec + 8
        lo, hi = _shrink(self.lower, wp, up=False), _shrink(self.upper, wp, up=True)
        lo_l, hi_l = _ln_bracket(lo, wp)
        if hi != lo:
            hi_l = _ln_bracket(hi, wp)[1]
        return BallReal.from_endpoints(lo_l, hi_l, self.prec)

    def exp(self) -> "BallReal":
        if self.is_exact and not self._m:
            return _ball(1, 0, 0, self.prec)
        wp = self.prec + 8
        lo, hi = _shrink(self.lower, wp, up=False), _shrink(self.upper, wp, up=True)
        lo_l, hi_l = _exp_bracket(lo, wp)
        if hi != lo:
            hi_l = _exp_bracket(hi, wp)[1]
        return BallReal.from_endpoints(lo_l, hi_l, self.prec)

    def sqrt(self) -> "BallReal":
        if self._m - self._r < 0:
            raise NumericsError("sqrt of an enclosure with negative part")
        wp = self.prec + 4
        lo, hi = self.lower, self.upper
        lo_r = math.isqrt((lo.numerator << (2 * wp)) // lo.denominator)
        hi_r = math.isqrt(-(-(hi.numerator << (2 * wp)) // hi.denominator)) + 1 if hi else 0
        return _span(lo_r, hi_r, -wp, self.prec)

    def pow(self, expo: Union[int, Fraction, "BallReal"]) -> "BallReal":
        """self**expo.  Integer/rational exponents get root-based brackets."""
        if isinstance(expo, BallReal):
            return (self.log() * expo).exp()
        expo = Fraction(expo)
        if expo.denominator == 1:
            return self._int_pow(expo.numerator)
        if self._m - self._r < 0:
            raise NumericsError("rational power of an enclosure with negative part")
        u, v = expo.numerator, expo.denominator
        base = self._int_pow(abs(u))
        wp = self.prec + 4
        lo, hi = base.lower, base.upper
        lo_r = floor_root_rational(lo.numerator << (v * wp), lo.denominator, v) if lo > 0 else 0
        hi_r = floor_root_rational(hi.numerator << (v * wp), hi.denominator, v) + 1
        out = _span(lo_r, hi_r, -wp, self.prec)
        if u < 0:
            out = BallReal.exact(1, self.prec) / out
        return out

    def _int_pow(self, k: int) -> "BallReal":
        if k == 0:
            return _ball(1, 0, 0, self.prec)
        if k < 0:
            return BallReal.exact(1, self.prec) / self._int_pow(-k)
        lo, hi, e = self._m - self._r, self._m + self._r, self._e * k
        if k % 2 == 1 or lo >= 0:
            return _span(lo ** k, hi ** k, e, self.prec)
        if hi <= 0:
            return _span(hi ** k, lo ** k, e, self.prec)
        return _span(0, max(lo ** k, hi ** k), e, self.prec)

    # -- equality and serialization ------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not BallReal:
            return NotImplemented
        return (self._m == other._m and self._r == other._r
                and self._e == other._e and self.prec == other.prec)

    def __hash__(self):
        return hash((self.mid, self.rad, self.prec))

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
        if rad < 0:
            raise NumericsError("negative radius")
        a = mid.denominator.bit_length() - 1
        b = rad.denominator.bit_length() - 1
        t = max(a, b)
        return _ball(mid.numerator << (t - a), rad.numerator << (t - b), -t,
                     int(obj["prec"]))

    def __repr__(self):
        if self.is_exact:
            return f"BallReal({self.mid!s} exact, prec={self.prec})"
        return f"BallReal({float(self.mid):.6g} ± {float(self.rad):.3g}, prec={self.prec})"


_new = object.__new__
_set_m, _set_r, _set_e, _set_prec = (BallReal.__dict__[a].__set__ for a in BallReal.__slots__)


def _ball(m: int, r: int, e: int, prec: int) -> BallReal:
    """The ball (m +/- r) * 2**e, with common factors of two moved into e."""
    x = m | r
    if x:
        t = (x & -x).bit_length() - 1
        if t:
            m, r, e = m >> t, r >> t, e + t
    else:
        e = 0
    b = _new(BallReal)
    _set_m(b, m)
    _set_r(b, r)
    _set_e(b, e)
    _set_prec(b, prec)
    return b


def _enclose(n: int, r: int, d: int, prec: int, e: int = 0) -> BallReal:
    """The ball of the exact interval (n +/- r)/d * 2**e, d >= 1, r >= 0:
    the midpoint rounded to ``prec`` bits, the radius plus the rounding
    error rounded up to _RAD_BITS bits.  A dyadic point stays exact."""
    if not r and not d & (d - 1):
        return _ball(n, 0, e + 1 - d.bit_length(), prec)
    q, k, inexact = _round(n, d, prec)
    if inexact:             # the rounding error is at most 2**(k-1)
        if k > 0:
            r += d << (k - 1)
        else:
            r, d = (r << (1 - k)) + d, d << (1 - k)
    rr, kr, _ = _round(r, d, _RAD_BITS, up=True)
    if k > kr:
        q, k = q << (k - kr), kr
    else:
        rr <<= kr - k
    return _ball(q, rr, k + e, prec)


def _span(lo: int, hi: int, e: int, prec: int) -> BallReal:
    """The ball of [lo, hi] * 2**e, lo <= hi."""
    return _enclose(lo + hi, hi - lo, 1, prec, e - 1)


def _sum(x: BallReal, y: BallReal, sign: int) -> BallReal:
    """x + y (sign 1) or x - y (sign -1)."""
    m, r, e, m2, r2, e2 = x._m, x._r, x._e, sign * y._m, y._r, y._e
    if e > e2:
        m, r, e = m << (e - e2), r << (e - e2), e2
    elif e2 > e:
        m2, r2 = m2 << (e2 - e), r2 << (e2 - e)
    return _enclose(m + m2, r + r2, 1, max(x.prec, y.prec), e)


def _frac(n: int, e: int) -> Fraction:
    """n * 2**e as a Fraction."""
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _cmp(a: int, ea: int, b: int, eb: int) -> int:
    """Sign of a * 2**ea - b * 2**eb."""
    if ea > eb:
        a <<= ea - eb
    else:
        b <<= eb - ea
    return (a > b) - (a < b)


def _cmp_q(a: int, e: int, q: Union[int, Fraction]) -> int:
    """Sign of a * 2**e - q."""
    return _cmp(a * q.denominator, e, q.numerator, 0)


def _coerce(x, prec: int) -> BallReal:
    if isinstance(x, BallReal):
        return x
    if isinstance(x, (int, Fraction)):
        return BallReal.exact(x, prec)
    raise TypeError(f"cannot mix BallReal with {type(x).__name__}")


def _shrink(x: Fraction, wp: int, up: bool) -> Fraction:
    """Round a rational outward to ~wp bits so series cost ignores operand size."""
    q, k, inexact = _round(x.numerator, x.denominator, wp)
    if inexact:
        q, k = 2 * q + (1 if up else -1), k - 1
    return _frac(q, k)


def tri_compare(x: BallReal, y: Union[BallReal, int, Fraction]) -> TriBool:
    """Certified 'x > y': True iff inf x > sup y, False iff sup x <= inf y."""
    y = _coerce(y, x.prec)
    if _cmp(x._m - x._r, x._e, y._m + y._r, y._e) > 0:
        return TriBool.TRUE
    if _cmp(x._m + x._r, x._e, y._m - y._r, y._e) <= 0:
        return TriBool.FALSE
    return TriBool.UNKNOWN


def cmp_abs_le(val: BallReal, b_lo: Fraction, b_hi: Fraction,
               strict: bool = False) -> TriBool:
    """Certified |val| <= b (or < b when strict) for b in [b_lo, b_hi]."""
    m, r, e = abs(val._m), val._r, val._e
    hi = _cmp_q(m + r, e, b_lo)           # sup |val| against b_lo
    if hi < 0 or (not strict and hi == 0):
        return TriBool.TRUE
    lo = _cmp_q(max(m - r, 0), e, b_hi)   # inf |val| against b_hi
    if lo > 0 or (strict and lo == 0):
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
        return _span(r, r + 1, -wp, prec)
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
    return _span(s_lo, s_hi, -wp, prec)


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
    return _span(s_lo, s_hi, -wp, prec)


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
    return _span(s_lo, s_hi, -wp, prec)


class RealConstant:
    """Refinable handle for a real number.

    ``at(prec)`` returns a BallReal enclosure; repeated calls at increasing
    precision give nested enclosures (new results are intersected with the
    best known one).  Exact rationals short-circuit.
    """

    def __init__(self, expr: str, *, exact: Optional[Fraction] = None,
                 compute: Optional[Callable[[int], BallReal]] = None,
                 fixed: Optional[BallReal] = None):
        self.expr = expr
        self.exact = exact
        self._compute = compute
        self._fixed = fixed
        self._best: Optional[BallReal] = None

    def at(self, prec: int) -> BallReal:
        if prec < MIN_PREC:
            raise ValueError(f"precision {prec} below minimum {MIN_PREC}")
        if prec > PREC_CAP:
            raise PrecisionCapExceeded(f"{prec} bits exceeds cap {PREC_CAP}")
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
_DIGITS_RE = re.compile(r"[+-]?[0-9]+")


def int_to_decimal(n: int) -> str:
    """str(n), through Decimal past Python's int->str digit cap (4300)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def decimal_to_int(s: str) -> int:
    """int(s, 10), and past the digit cap [+-]?[0-9]+ through Decimal."""
    try:
        return int(s, 10)
    except ValueError:
        if not _DIGITS_RE.fullmatch(s):
            raise
    return int(Decimal(s))


def fraction_to_str(q: Fraction) -> str:
    """str(q) for a rational of any size (see int_to_decimal)."""
    num = int_to_decimal(q.numerator)
    if q.denominator == 1:
        return num
    return f"{num}/{int_to_decimal(q.denominator)}"


def decimal_to_fraction(s: str) -> Fraction:
    return Fraction(Decimal(s))


def dyadic_to_decimal(q: Fraction) -> str:
    """Exact finite decimal string for a dyadic rational."""
    if not _is_dyadic(q):
        raise NumericsError("not dyadic")
    k = q.denominator.bit_length() - 1
    if k == 0:
        return int_to_decimal(q.numerator)
    digits = q.numerator * 5 ** k  # q = digits / 10^k
    s = int_to_decimal(abs(digits)).rjust(k + 1, "0")
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
