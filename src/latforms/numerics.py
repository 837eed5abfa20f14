"""Certified real arithmetic on dyadic balls.

Every real quantity in this package is either an exact rational (Fraction)
or a ball ``mid +/- rad`` whose midpoint and radius are dyadic rationals,
stored as integers at one power-of-two scale (mid = m 2^e, rad = r 2^e).
Every operation (ring ops, division, sqrt, rational powers, ln and exp)
computes exact interval endpoints as integers and only then rounds, all
through one routine, on a grid set by each value as MPFR sets it: the
midpoint to the working precision (halves to even, so negation is exact),
the radius plus that rounding error up to 32 bits.  That routine depends
only on the values of the endpoints (see _enclose), so unreduced integers
give the ball that reduced Fractions would, and the enclosure property
"the true value lies inside the ball" is an invariant of construction, not
a hope.
Fractions appear only where values enter or leave: exact, from_endpoints,
the mid/rad/lower/upper properties, contains, hashing, JSON and repr.

Comparisons are three-valued: a ball comparison is True only when the
intervals are disjoint in the right order, False only when disjoint the
other way (or touching, for the non-strict side), and Unknown otherwise.
Callers that need a definite answer escalate precision themselves, up to a
hard cap, and must surface Unknown rather than guess.

Transcendental constants (golden ratio, zeta(3), zeta(2), e, square roots)
and ln/exp are evaluated by scaled-integer series with explicit tail and
rounding-error bounds; nothing here relies on float semantics.  zeta(3)
(by the Amdeberhan-Zeilberger series, 1997), zeta(2) and e are summed by
one binary-splitting routine (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", 1998): the first N terms become
one exact fraction T/Q at O(M(wp) log wp) cost, floored once, and each
constant's docstring proves the tail bound that sets N.  ln and exp
reduce their argument first (Brent, "Fast multiple-precision evaluation of
elementary functions", JACM 1976).  ln by shift-and-add (Muller,
"Elementary Functions: Algorithms and Implementation"): factors 1 + 2^-j,
j <= J, chosen on the leading bits of m = x/2^E bring r = m prod(1 + 2^-j)
within 2^-(J-1) of 1, and
ln x = 2 atanh(t) - sum ln(1 + 2^-j) + E ln 2 for t = (r - 1)/(r + 1),
with ln 2 and each ln(1 + 2^-j) from one table per precision class.  exp,
with k about sqrt(wp)/4: exp x = exp(r/2^(2k))^(2^(2k)) 2^K for
r = x - K ln 2, by 2k squarings.  Each atanh term then gains about 2J bits
and each exp term at least 2k, where the unreduced series gained 4.6.
Each series keeps one chain of floors whose upper end adds an error bound
that counts its terms; the reduction, the table and the squarings add
theirs in units of the last place, as the kernels' docstrings prove.
Guard bits keep each bracket at most 2 units in its last place wide
(2^-wp for ln, 2^(K-wp) for exp).  The log of a narrow ball m +/- r takes
one ln bracket, at m - r, and a short atanh series for the rest:
ln(m + r) = ln(m - r) + 2 atanh(r/m).  An inexact ball holding h relative
bits has its log bracketed at h + 128 bits where that is below prec + 8,
the accuracy its radius allows (as Arb does: Johansson, "Arb: efficient
arbitrary-precision midpoint-radius interval arithmetic", 2017).  It is
redone at prec + 8 unless its radius is certified to be the one any finer
bracket would round to.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Union

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
    "tri_all",
    "nth_root_floor",
    "floor_root_rational",
    "floor_scaled_power",
    "cmp_abs_vs_power",
    "cmp_abs_le",
    "escalate",
    "jsonable",
    "PREC_CAP",
    "POWER_BITS",
    "check_literal",
    "MIN_PREC",
]

MIN_PREC = 16
PREC_CAP = 1 << 16  # hard ceiling for precision escalation, in bits
POWER_BITS = 1 << 24  # ceiling on the bit length of an exact power
_RAD_BITS = 32      # a radius r rounds up to the grid 2**(floor(log2 r) - 32)
_LOG_GUARD = 32     # guard bits of a ball log summed from ln and atanh
_HELD_GUARD = 128   # bits past those an inexact ball holds, for its log


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

    def __invert__(self) -> "TriBool":      # Kleene negation
        return _NOT[self._value_]


_NOT = dict(true=TriBool.FALSE, false=TriBool.TRUE, unknown=TriBool.UNKNOWN)


def _shift(n: int, s: int) -> int:
    """floor(n * 2**s), s of either sign."""
    return n << s if s >= 0 else n >> -s


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _round(n: int, d: int, prec: int, up: bool = False) -> tuple[int, int, bool]:
    """n/d (d >= 1) rounded to ``prec`` + 1 significant bits: (q, k, inexact),
    q * 2**k the nearest value on the grid 2**k with halves rounded to even
    q, or with ``up`` the least one >= n/d.  The grid is chosen by the value
    (as MPFR chooses it): k = floor(log2|n/d|) - prec, read off the bit
    lengths of n and d and, for a d that is not a power of two, one
    comparison; n/d is never reduced.  So (q, k) depends on n/d alone, the
    rounding is monotone in n/d, and rounding q * 2**k again gives it back.
    Ties to even round -n/d to minus the rounding of n/d, so negation is
    exact."""
    a = abs(n)
    k = a.bit_length() - d.bit_length() - prec
    if not d & (d - 1):     # n / 2**t: shift by k + t
        sh = k + d.bit_length() - 1
        if sh <= 0:
            return n << -sh, k, False
        low = n & ((1 << sh) - 1)
        if up:
            return -(-n >> sh), k, low != 0
        q = ((n >> (sh - 1)) + 1) >> 1      # halves up, then a tie to even
        if q & 1 and low == 1 << (sh - 1):
            q -= 1
        return q, k, low != 0
    s = k + prec            # floor(log2|n/d|) is s, or s - 1 if |n| < d 2**s
    if (a >> s if s >= 0 else a << -s) < d:
        k -= 1
    num, den = (n, d << k) if k >= 0 else (n << -k, d)
    q, rem = divmod(num, den)
    # 2 rem + (q & 1) > den: past the half, or on it with q odd
    if rem and (up or 2 * rem + (q & 1) > den):
        q += 1
    return q, k, rem != 0


def nth_root_floor(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x (x >= 0, n >= 1): Newton from above,
    from 46 bits of the root (the float log2 of the top 64 bits of x) raised
    until r**n > x.

    No correction upward is needed.  Let s = floor(x^(1/n)).  For r > 0,
    AM-GM gives ((n-1) r + x/r^(n-1))/n >= x^(1/n), and flooring x/r^(n-1)
    before the outer floor leaves floor(...) unchanged since (n-1) r is an
    integer, so every Newton step lands at s or above.  While r**n > x,
    x/r^(n-1) < r and the step strictly decreases r.  The loop starts with
    r**n > x and stops at the first r with r**n <= x, that is r <= s; that
    r came from a step, so r >= s: it is s."""
    if x < 0 or n < 1:
        raise ValueError("nth_root_floor needs x >= 0, n >= 1")
    if x == 0:
        return 0
    if n >= x.bit_length():             # 1 <= x < 2^n
        return 1
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    shift = max(x.bit_length() - 64, 0)
    e, c = divmod(shift, n)             # x ~ top 2^(e n + c)
    f = (c + math.log2(x >> shift)) / n  # log2 of the root, less e
    r = int(2.0 ** (f % 1) * (1 << 52))
    k = e + int(f) - 52
    r = (r << k if k >= 0 else r >> -k) + 1
    while True:                         # step up until r**n > x
        r += r >> 44
        p = r ** (n - 1)
        if p * r > x:
            break
        r += 1
    while p * r > x:                    # Newton from above, p = r**(n-1)
        r = ((n - 1) * r + x // p) // n
        p = r ** (n - 1)
    return r


def floor_root_rational(num: int, den: int, n: int) -> int:
    """floor((num/den)**(1/n)) for num >= 0, den >= 1: an integer r has
    r**n <= num/den iff r**n <= num // den."""
    return nth_root_floor(num // den, n)


def _power_check(c_bits: int, base_bits: int, u: int, v: int) -> None:
    """Refuse the exact power c^v base^|u| past POWER_BITS, given the bits
    of c and of base."""
    bits = v * c_bits + abs(u) * base_bits
    if bits > POWER_BITS:
        raise NumericsError(f"exact power of up to {bits} bits exceeds the "
                            f"{POWER_BITS}-bit bound")


def _scaled_power(n: int, d: int, base: int, u: int,
                  v: int) -> tuple[int, int]:
    """(N, D) with N/D = (n/d)^v base^u exactly, for n >= 0, d >= 1."""
    _power_check(n.bit_length() + d.bit_length(), base.bit_length(), u, v)
    if u >= 0:
        return n ** v * base ** u, d ** v
    return n ** v, d ** v * base ** -u


def floor_scaled_power(c: Fraction, base: int, expo: Fraction) -> int:
    """floor(c * base**expo) exactly, for c >= 0, base >= 1, rational expo."""
    if c < 0 or base < 1:
        raise ValueError("floor_scaled_power needs c >= 0, base >= 1")
    v = expo.denominator
    return floor_root_rational(*_scaled_power(
        c.numerator, c.denominator, base, expo.numerator, v), v)


def cmp_abs_vs_power(a: Fraction, base: int, expo: Fraction) -> int:
    """Exact sign of |a| - base**expo (-1, 0, +1); base >= 1, rational expo:
    the sign of |a|^v base^-u - 1 for expo = u/v."""
    N, D = _scaled_power(abs(a.numerator), a.denominator, base,
                         -expo.numerator, expo.denominator)
    return (N > D) - (N < D)


# ---------------------------------------------------------------------------
# scaled-integer series kernels: value * 2**wp bracketed by integer pairs
# ---------------------------------------------------------------------------

def _atanh_bracket(num: int, den: int, wp: int) -> tuple[int, int]:
    """Bracket [s, s + 2N + 3] of atanh(q) * 2**wp, q = num/den in [0, 1/2].

    One chain of floors from p_0 = floor(q 2^wp); s sums floor(p_i/(2i+1))
    over the N indices before the first i with p_i < 2i + 1.  For a den of
    at most 64 bits (the ln table's ln(1 + 2^-j) = 2 atanh(1/(2^(j+1) + 1))
    for j <= 62, ln 2 at j = 0) the chain is exact,
    p_(i+1) = floor(p_i num^2 / den^2), a multiply and a division by small
    integers, so linear in wp per term.  For a wider den (the ln kernel's
    Y + 2^W past 63 bits, or a wide ball midpoint) the chain is
    p_(i+1) = floor(p_i t2 / 2^wp) with t2 = floor(q^2 2^wp): one
    full-width multiply and a shift per term, where dividing by den^2
    would cost more.

    Proof.  Let P_i = q^(2i+1) 2^wp.  Then p_i <= P_i, and e_i = P_i - p_i
    has e_0 < 1.  The exact chain has e_(i+1) < q^2 e_i + 1 < 4/3; the t2
    chain e_(i+1) < q^2 e_i + p_i (q^2 - t2 2^-wp) + 1 < e_i/4 + 1/2 + 1
    <= 2, since q^2 <= 1/4 and p_i <= 2^(wp-1).  So each summed term falls
    short of P_i/(2i+1) by less than e_i/(2i+1) + 1 <= 2, which is 2N in
    all.  The rest of the series, from i = N on, has terms falling by the
    factor q^2 <= 1/4, so it is below
    (4/3)(p_N + 2)/(2N + 1) <= (4/3)(2N + 2)/(2N + 1) < 3.
    """
    if num == 0:
        return 0, 0
    p = (num << wp) // den
    s = n = 0
    if den.bit_length() <= 64:
        n2, d2 = num * num, den * den
        while p >= 2 * n + 1:
            s += p // (2 * n + 1)
            p = p * n2 // d2
            n += 1
    else:
        t2 = (num * num << wp) // (den * den)
        while p >= 2 * n + 1:
            s += p // (2 * n + 1)
            p = p * t2 >> wp
            n += 1
    return s, s + 2 * n + 3


def _guard(wp: int) -> int:
    """Guard bits of the ln and exp kernels: 2^guard > 16 wp, so their
    error bounds, a few wp units at most, stay below a quarter of a unit
    of 2^-wp."""
    return wp.bit_length() + 4


_LN_TABLE: dict[int, dict[int, tuple[int, int]]] = {}


def _table(wp: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """(top, memo) for wp bits: top is wp's precision class, the least
    2^a or 3 2^(a-1) >= wp, and memo maps j to the bracket of
    ln(1 + 2^-j) * 2**top, at most 2 wide, filled as each j is first
    asked for.  j = 0 is ln 2.  Each entry is 2 atanh(1/(2^(j+1) + 1))
    summed at top plus guard bits, so it depends on (top, j) alone."""
    a = (wp - 1).bit_length()
    top = 3 << a >> 2
    if top < wp:
        top = 1 << a
    return top, _LN_TABLE.setdefault(top, {})


def _ln1p(top: int, memo: dict[int, tuple[int, int]],
          j: int) -> tuple[int, int]:
    """Fill memo[j] of the class top, the bracket of ln(1 + 2^-j)."""
    g = top.bit_length() + 2
    lo, hi = _atanh_bracket(1, (2 << j) + 1, top + g)
    br = memo[j] = 2 * lo >> g, -(-2 * hi >> g)
    return br


def _ln2_bracket(wp: int) -> tuple[int, int]:
    """Bracket of ln(2) * 2**wp, at most 2 wide: the j = 0 entry of the
    table of wp's precision class, floored and ceiled down to wp."""
    top, memo = _table(wp)
    lo, hi = memo.get(0) or _ln1p(top, memo, 0)
    s = top - wp
    return lo >> s, -(-hi >> s)


def _ln_bracket(n: int, e: int, wp: int) -> tuple[int, int]:
    """Bracket [lo, hi] of ln(n 2^e) * 2**wp for n >= 1; hi - lo <= 2 in
    practice (the guard bits make the error below one ulp at wp).

    Write x = m 2^E: m = 1 when n is a power of two, so x gets exactly the
    bracket of E ln 2, and m = n/2^b in (1/2, 1) otherwise.  With
    W = wp + guard bits and g the bit length of |E|, the parts are summed
    at top bits, the precision class of W + g (see _table).  Shift-and-add
    reduction: with J = max(8, min(62, 3 top/64)), each factor 1 + 2^-j,
    j = 1..J in turn, is chosen when it keeps m times the factors chosen
    so far at most 1.  The choice reads the leading J + 24 bits of m only,
    and leaves r = m P/2^S, P = prod(2^j + 1) and S = sum(j) over the
    chosen j, within 2^-(J-1) of 1: as 1 + 2^-j <= prod(1 + 2^-i, i > j),
    after step j the reciprocal of m times the factors chosen so far is at
    most prod(1 + 2^-i, i > j) < exp(2^-j), and the floors of the J + 24
    bits let r pass 1 by less than 2^-(J+16).
    Then
    ln m = 2 atanh(t) - sum ln(1 + 2^-j) for t = (r - 1)/(r + 1), and as
    |t| < 2^-J the atanh series takes about W/2J terms.  J stops at 62 so
    that every table entry is summed by the exact chain of _atanh_bracket.

    Proof of the bracket, in units of 2^-W:
    * M = floor(m 2^W) has m 2^W in [M, M + 1], so Y = floor(M P/2^S) has
      r 2^W in [Y, Y + c], c = 2 + floor(P/2^S): M's unit becomes P/2^S
      units in the product, and its one rounding adds one more.
    * t is increasing in r with slope 2/(r + 1)^2 < 1 for r > 1/2, so
      t 2^W lies in [q 2^W, q 2^W + c] for q = (Y - 2^W)/(Y + 2^W).
    * atanh(|q|) 2^W is in the _atanh_bracket of |Y - 2^W| over
      Y + 2^W (negated for Y < 2^W), and atanh has slope
      1/(1 - t^2) < 2 for |t| <= 1/5, so atanh(t) 2^W exceeds it by at
      most 2c.
    Then in units of 2^-top: 2 atanh(t) is shifted up exactly, and each
    ln(1 + 2^-j) and ln 2 is the memo's bracket, at most 2 wide, so the
    summed table brackets add at most 2 units per chosen j, and E ln 2 at
    most 2|E|.  The sum is floored and ceiled to wp once; as
    top >= wp + guard + g, the table's share stays under the guard bits.
    """
    b = n.bit_length()
    exact = n == 1 << (b - 1)           # m = 1
    E = e + b - exact
    W = wp + _guard(wp)
    g = abs(E).bit_length()
    top, memo = _table(W + g)
    lo, hi = memo.get(0) or _ln1p(top, memo, 0)
    lo, hi = (E * lo, E * hi) if E >= 0 else (E * hi, E * lo)
    if not exact:                       # m = n / 2^b in (1/2, 1)
        J = max(8, min(62, 3 * top >> 6))
        L = J + 24
        v, lim = _shift(n, L - b), 1 << L
        P, S = 1, 0
        for j in range(1, J + 1):
            w = v + (v >> j)
            if w <= lim:
                v = w
                P += P << j
                S += j
                br = memo.get(j) or _ln1p(top, memo, j)
                lo -= br[1]
                hi -= br[0]
        one = 1 << W
        Y = _shift(n, W - b) * P >> S
        a_lo, a_hi = _atanh_bracket(abs(Y - one), Y + one, W)
        if Y < one:
            a_lo, a_hi = -a_hi, -a_lo
        a_hi += 2 * (2 + (P >> S))
        lo += a_lo << (top - W + 1)
        hi += a_hi << (top - W + 1)
    s = top - wp
    return lo >> s, -(-hi >> s)


def _exp_bracket(n: int, e: int, wp: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo 2^s <= exp(n 2^e) <= hi 2^s, lo of wp + 1 bits
    and hi - lo <= 2 in practice.

    Write x = K ln 2 + r with 0 <= r < ln 2 + 2^-W.  With
    k = 2 floor(isqrt(wp)/4) squarings (0 below 16 bits) and W = wp + k +
    guard bits, exp(r) = exp(u)^(2^k) for u = r/2^k.

    Proof of the bracket, all values in units of 2^-W (2^-S for X, L):
    * X = floor(x 2^S) and ln 2 in [L_lo, L_hi] at S = W + g bits, g
      covering the bits of K.  With L = L_hi for X >= 0 and L_lo else,
      K, R = divmod(X, L) gives 0 <= R < L and r 2^S in
      [R, R + 1 + |K|(L_hi - L_lo)]; at W bits r 2^W in [R', R' + c].
    * u = R'/2^(W+k) <= 1 is exact; the chain p_0 = 2^W,
      p_(j+1) = floor(floor(p_j R' / 2^(W+k)) / (j+1)) has
      u^j/j! 2^W - p_j = e_j with e_(j+1) < e_j/(j+1) + 1, so e_j <= 2,
      and stops at the first p_N = 0.  The N summed terms lose at most
      2N and the rest, falling by u/(j+1) <= 1/2, at most 2 e_N <= 4.
      The slack c in u moves exp(u) by at most 3c/2^k (exp(u) < 3).
    * Each squaring Z' = floor(Z^2 / 2^W) keeps a width c' =
      floor((2Z + c) c / 2^W) + 2: (Z + c)^2 - Z^2 = (2Z + c) c.
    * exp(x) = exp(r) 2^K, floored and ceiled to wp + 1 bits.
    """
    k = 2 * (math.isqrt(wp) // 4)
    W = wp + k + _guard(wp)
    S = W + max(n.bit_length() + e, 0) + 2
    X = _shift(n, e + S)
    l2_lo, l2_hi = _ln2_bracket(S)
    K, R = divmod(X, l2_hi if X >= 0 else l2_lo)
    sh = S - W
    R >>= sh
    c = (1 + abs(K) * (l2_hi - l2_lo) >> sh) + 2
    z = p = 1 << W
    j = 0
    while p:
        j += 1
        p = (p * R >> (W + k)) // j
        z += p
    c = 2 * j + 4 + 3 * c
    for _ in range(k):
        z, c = z * z >> W, ((2 * z + c) * c >> W) + 2
    s = W - wp
    return z >> s, -(-(z + c) >> s), K - wp


def _log_bracket(m: int, r: int, e: int, wp: int) -> tuple[int, int]:
    """Bracket [lo, hi] of ln of the ball (m +/- r) 2^e, 0 <= r < m, times
    2**wp; each end within 2 units of the true one.

    The lower end is ln(m - r).  For r/m <= 1/16 (r > 0) the upper end is
    ln(m - r) + 2 atanh(r/m), which is ln(m + r) exactly:
    (1 + q)/(1 - q) = (m + r)/(m - r) for q = r/m.  That series gains at
    least 8 bits a term, so it takes a few terms where a second ln bracket
    would take a whole reduction.  Both brackets are summed at _LOG_GUARD
    bits past wp, where their 2 + 2(2N + 3) units stay far below one unit
    of wp, and the sum is floored and ceiled to it.  A point takes one ln
    bracket, and a wider ball one at each end.
    """
    if r and r << 4 <= m:
        g = _LOG_GUARD
        lo, hi = _ln_bracket(m - r, e, wp + g)
        hi += 2 * _atanh_bracket(r, m, wp + g)[1]
        return lo >> g, -(-hi >> g)
    lo, hi = _ln_bracket(m - r, e, wp)
    if r:
        hi = _ln_bracket(m + r, e, wp)[1]
    return lo, hi


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
        m, r, m2, r2 = self._m, self._r, other._m, other._r
        if m2 < 0:              # negate both: divide by a positive [c, d]
            m, m2 = -m, -m2
        a, b, c, d = m - r, m + r, m2 - r2, m2 + r2
        x = d if a >= 0 else c  # the least quotient is a/x
        y = c if b >= 0 else d  # the greatest is b/y
        return _enclose(a * y + b * x, b * x - a * y, x * y,
                        max(self.prec, other.prec), self._e - other._e - 1)

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
        """ln of a certified-positive ball, bracketed by _log_bracket.

        An exact point is bracketed at prec + 8 bits.  An inexact ball
        m +/- r holds about h = bitlen(m) - bitlen(r) relative bits, and
        its log is about 2r/m, some 2^-h, wide, so it is bracketed at
        min(prec + 8, h + _HELD_GUARD) bits: past that, more bits would
        narrow a width of 2^-h by units far below its 32 significant bits.
        The result is never wider than at prec + 8.  Each end of a bracket
        [lo, hi] lies within 2 units of the true end, so any ball of the
        log has a radius of at least (hi - lo - 4)/2 units, rounded up as
        _enclose rounds radii, to the same 32-bit grid at every scale.  The
        reduced bracket's ball is kept only when its radius is at most
        that bound; otherwise the bracket is redone at prec + 8.
        """
        m, r, e = self._m, self._r, self._e
        if m - r <= 0:
            raise NumericsError("log needs a certified-positive enclosure")
        if not r and m == 1 and not e:
            return _ball(0, 0, 0, self.prec)
        wp = self.prec + 8
        held = m.bit_length() - r.bit_length() + _HELD_GUARD if r else wp
        if held < wp:
            lo, hi = _log_bracket(m, r, e, held)
            out = _span(lo, hi, -held, self.prec)
            q, k, _ = _round(hi - lo - 4, 2, _RAD_BITS, up=True)
            if _cmp(out._r, out._e, q, k - held) <= 0:
                return out
        lo, hi = _log_bracket(m, r, e, wp)
        return _span(lo, hi, -wp, self.prec)

    def exp(self) -> "BallReal":
        m, r, e = self._m, self._r, self._e
        if not r and not m:
            return _ball(1, 0, 0, self.prec)
        wp = self.prec + 8
        lo, hi, s = _exp_bracket(m - r, e, wp)
        if r:
            _, hi, s2 = _exp_bracket(m + r, e, wp)
            if s2 < s:          # the ends may reduce by different ln 2 brackets
                lo, s = lo << (s - s2), s2
            hi <<= s2 - s
        return _span(lo, hi, s, self.prec)

    def sqrt(self) -> "BallReal":
        if self._m - self._r < 0:
            raise NumericsError("sqrt of an enclosure with negative part")
        wp = self.prec + 4
        m, r, s = self._m, self._r, self._e + 2 * wp
        hi_r = math.isqrt(-_shift(-m - r, s)) + 1 if m + r else 0
        return _span(math.isqrt(_shift(m - r, s)), hi_r, -wp, self.prec)

    def pow(self, expo: Union[int, Fraction]) -> "BallReal":
        """self**expo for an integer or rational expo, by root brackets."""
        u, v = expo.numerator, expo.denominator
        if v == 1:
            return self._int_pow(u)
        if self._m - self._r < 0:
            raise NumericsError("rational power of an enclosure with negative part")
        wp = self.prec + 4
        top = (self._m + self._r).bit_length() + max(self._e, 0)
        _power_check(wp, top, u, v)     # top^|u| shifted left by v wp bits
        base = self._int_pow(abs(u))
        m, r, s = base._m, base._r, base._e + v * wp
        # rounding may leave the lower end of a power just below 0
        out = _span(nth_root_floor(_shift(max(m - r, 0), s), v),
                    nth_root_floor(_shift(m + r, s), v) + 1, -wp, self.prec)
        return out if u > 0 else 1 / out

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
            return f"BallReal({fraction_to_str(self.mid)} exact, prec={self.prec})"
        return (f"BallReal({_sci(self._m, self._e, 6)} ± "
                f"{_sci(self._r, self._e, 3)}, prec={self.prec})")


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
    the midpoint rounded by _round at ``prec``, the radius plus the
    rounding error rounded up by _round at _RAD_BITS.  A dyadic point stays
    exact.  Only the values n/d 2**e and r/d 2**e matter: a point is tested
    for being dyadic on its value, _round takes each grid from a value and
    never reduces n/d, the rounding error is added to r/d as a value, and
    _ball canonicalises.  So (k n, k r, k d) gives the ball of (n, r, d), as
    does (n, r, 2 d) at e + 1, and integer ends the ball of reduced
    Fractions."""
    if not r:
        t = (d & -d).bit_length() - 1
        if not n % (d >> t):    # a dyadic point stays exact
            return _ball(n // (d >> t), 0, e - t, prec)
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


def tri_compare(x: Union[BallReal, int, Fraction],
                y: Union[BallReal, int, Fraction]) -> TriBool:
    """Certified 'x > y': True iff inf x > sup y, False iff sup x <= inf y,
    for a ball, an int or a Fraction on each side, each taken as it is."""
    if x.__class__ is BallReal:
        if y.__class__ is BallReal:
            if _cmp(x._m - x._r, x._e, y._m + y._r, y._e) > 0:
                return TriBool.TRUE
            if _cmp(x._m + x._r, x._e, y._m - y._r, y._e) <= 0:
                return TriBool.FALSE
        elif _cmp_q(x._m - x._r, x._e, y) > 0:
            return TriBool.TRUE
        elif _cmp_q(x._m + x._r, x._e, y) <= 0:
            return TriBool.FALSE
        return TriBool.UNKNOWN
    if y.__class__ is BallReal:
        return tri_compare(-y, -x)
    return TriBool.TRUE if x > y else TriBool.FALSE


def tri_all(values: Iterable[TriBool]) -> TriBool:
    """Kleene conjunction: FALSE at the first FALSE, without drawing the
    values after it; otherwise UNKNOWN if any value is, else TRUE."""
    # bound once: each TriBool.X is a slow attribute lookup on the Enum
    out, false, unknown = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
    for v in values:
        if v is false:
            return v
        if v is unknown:
            out = v
    return out


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
    reached cap.  Returns the last answer and the precision that gave it;
    a decide that knows no precision can help returns None, which stops
    the loop at once; an exact interval (RealConstant) never enters it."""
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
    return lambda prec: BallReal.exact(k, prec).sqrt()


def _golden(prec: int) -> BallReal:
    s5 = _sqrt_const(5)(prec + 4)
    return ((s5 + 1) * Fraction(1, 2)).round_to(prec)


def _bsplit(a: Callable[[int], int], p: Callable[[int], int],
            q: Callable[[int], int], n1: int, n2: int) -> tuple[int, int, int]:
    """(P, Q, T) over n1 <= j < n2, n1 < n2: P and Q the products of p(j)
    and q(j), and T = Q sum_{k=n1}^{n2-1} a(k) prod_{j=n1}^{k} p(j)/q(j).
    Halves join by P = P_l P_r, Q = Q_l Q_r, T = T_l Q_r + P_l T_r."""
    if n2 - n1 == 1:
        pj = p(n1)
        return pj, q(n1), a(n1) * pj
    m = (n1 + n2) // 2
    P1, Q1, T1 = _bsplit(a, p, q, n1, m)
    P2, Q2, T2 = _bsplit(a, p, q, m, n2)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _series(a: Callable[[int], int], p: Callable[[int], int],
            q: Callable[[int], int], N: int, wp: int, den: int) -> int:
    """floor(2^wp / den * sum_{k<N} a(k) prod_{j=1}^{k} p(j)/q(j)) for
    N >= 2 and q > 0: the N terms summed into one exact fraction by binary
    splitting, then one division."""
    _, Q, T = _bsplit(a, p, q, 1, N)
    return ((a(0) * Q + T) << wp) // (den * Q)


def _zeta3_bracket(wp: int) -> tuple[int, int]:
    """Bracket [s - 1, s + 2] of zeta(3) 2^wp, s the floor of the first N
    terms of zeta(3) = 1/64 sum_{k>=0} (-1)^k a(k) (k!)^10 / ((2k+1)!)^5,
    a(k) = 205k^2 + 250k + 77 (Amdeberhan & Zeilberger 1997).

    Proof.  Term k is a(k) prod_{j<=k} -j^5/(32 (2j+1)^5) and
    (2k+1)!/(k!)^2 = (2k+1) C(2k, k) >= 4^k, so |t_k| <= a(k) 2^(-10k).
    The ratio |t_k/t_(k-1)| < a(k)/(1024 a(k-1)) <= 532/(1024 77) < 1, so
    the terms alternate and shrink and the tail is below |t_N|/64, which
    the least N with a(N) 2^wp < 2^(10N + 6) puts below 2^-wp.
    """
    def a(k):
        return 205 * k * k + 250 * k + 77

    N = 1
    while a(N).bit_length() + wp > 10 * N + 6:
        N += 1
    s = _series(a, lambda j: -j ** 5, lambda j: 32 * (2 * j + 1) ** 5,
                N, wp, 64)
    return s - 1, s + 2


def _zeta2_bracket(wp: int) -> tuple[int, int]:
    """Bracket [s, s + 2] of zeta(2) 2^wp, s the floor of the first
    N = wp//2 + 1 terms of zeta(2) = 3 sum_{k>=1} 1/(k^2 C(2k, k)) =
    sum_{m>=0} t_m, t_0 = 3/2 and t_m/t_(m-1) = m^2/(2 (m+1)(2m+1)).

    Proof.  The ratio is below 1/4 (2m^2 < (m+1)(2m+1)), so t_m < (3/2)
    4^-m and the positive tail is below (3/2) 4^-N 4/3 = 2^(1-2N) <= 2^-wp.
    """
    s = _series(lambda k: 3, lambda j: j * j,
                lambda j: 2 * (j + 1) * (2 * j + 1), wp // 2 + 1, wp, 2)
    return s, s + 2


def _e_bracket(wp: int) -> tuple[int, int]:
    """Bracket [s, s + 2] of e 2^wp, s the floor of the first N terms of
    e = sum_{k>=0} 1/k!.

    Proof.  The positive tail is below (1/N!) sum_i (N+1)^-i <= 2/N!, and
    j >= 2^(bit_length(j) - 1), so the least N with
    sum_{j=2}^{N} (bit_length(j) - 1) >= wp + 1 has N! >= 2^(wp+1) and a
    tail below 2^-wp.
    """
    N, bits = 1, 0
    while bits <= wp:
        N += 1
        bits += N.bit_length() - 1
    s = _series(lambda k: 1, lambda j: 1, lambda j: j, N, wp, 1)
    return s, s + 2


def _series_const(bracket: Callable[[int], tuple[int, int]]
                  ) -> Callable[[int], BallReal]:
    """The ball at prec bits of a constant bracketed at prec + 16 bits."""
    def compute(prec: int) -> BallReal:
        wp = prec + 16
        lo, hi = bracket(wp)
        return _span(lo, hi, -wp, prec)
    return compute


class RealConstant:
    """Refinable handle for a real number: an exact rational interval, or a
    computed constant.  interval is (q, q) for a rational, whose exact is q,
    and its fixed ball's ends for a mid±rad literal; it cannot narrow, so
    checks decide it on its ends.  ``at(prec)`` is a BallReal that depends on
    prec alone (one memo): the interval's ball at prec, at no fewer bits than
    the handle was built with, or a computed ball at 64 guard bits, rounded."""

    def __init__(self, expr: str, *, interval: Optional[tuple] = None,
                 compute: Optional[Callable[[int], BallReal]] = None,
                 prec: int = MIN_PREC):
        self.expr = expr
        self.interval = iv = interval
        self.exact = iv[0] if iv and iv[0] == iv[1] else None
        self._compute = compute
        self._prec = prec
        self._memo: dict[int, BallReal] = {}

    def at(self, prec: int) -> BallReal:
        ball = self._memo.get(prec)
        if ball is None:
            if prec < MIN_PREC:
                raise ValueError(f"precision {prec} below minimum {MIN_PREC}")
            if prec > PREC_CAP:
                raise PrecisionCapExceeded(f"{prec} bits exceeds cap {PREC_CAP}")
            if self.interval is not None:
                ball = BallReal.from_endpoints(*self.interval,
                                               max(prec, self._prec))
            else:
                # at 64 guard bits its radius is below one radius step
                ball = self._compute(prec + 2 * _RAD_BITS).round_to(prec)
            self._memo[prec] = ball
        return ball

    def __repr__(self):
        return f"RealConstant({self.expr})"


_NAMED: dict[str, Callable[[int], BallReal]] = {
    "golden": _golden,
    "zeta3": _series_const(_zeta3_bracket),
    "zeta2": _series_const(_zeta2_bracket),
    "e": _series_const(_e_bracket),
}

_SQRT_RE = re.compile(r"^sqrt\((\d+)\)$")
_RAT_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_DEC_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
# int(s, 10)'s grammar: blanks (but U+001C..U+001F) around a sign and
# digits of any script, with single underscores between digits
_INT_RE = re.compile(r"[^\S\x1c-\x1f]*([+-]?\d+(?:_\d+)*)[^\S\x1c-\x1f]*")
_EXP_RE = re.compile(r"[eE]([+-]?\d+)\s*$")


def int_to_decimal(n: int) -> str:
    """str(n), through Decimal past Python's int->str digit cap (4300)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _sci(n: int, e: int, digits: int) -> str:
    """n 2^e to the given significant digits, past the range of a float."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = digits + 6, MAX_EMAX, MIN_EMIN
        x = ctx.multiply(Decimal(n), ctx.power(2, e))
        ctx.prec = digits
        return f"{ctx.normalize(x):g}"   # rounded, trailing zeros dropped


def decimal_to_int(s: str) -> int:
    """int(s, 10) at any size: past the digit cap _INT_RE through Decimal."""
    try:
        return int(s, 10)
    except ValueError:
        if not (m := _INT_RE.fullmatch(s)):
            raise
    return int(Decimal(m[1].replace("_", "")))


def fraction_to_str(q: Fraction) -> str:
    """str(q) for a rational of any size (see int_to_decimal)."""
    num = int_to_decimal(q.numerator)
    if q.denominator == 1:
        return num
    return f"{num}/{int_to_decimal(q.denominator)}"


def check_literal(s: str) -> None:
    """Refuse a decimal literal whose exact value may need more than
    POWER_BITS bits, before anything builds it: Fraction("1e99999999")
    builds 10^99999999.  n characters with exponent e need at most
    (n + |e|) log2(10) bits."""
    m = _EXP_RE.search(s)
    e = m.group(1).lstrip("+-").lstrip("0") if m else ""
    if len(e) > 9 or (len(s) + int(e or 0)) * math.log2(10) > POWER_BITS:
        shown = s if len(s) <= 40 else f"{s[:20]}...{s[-12:]}"
        raise NumericsError(f"decimal literal {shown!r} exceeds the "
                            f"{POWER_BITS}-bit bound on an exact value")


def decimal_to_fraction(s: str) -> Fraction:
    """Fraction(s) in parse_real's grammar (_RAT_RE, _DEC_RE), at any size."""
    s = s.strip()
    check_literal(s)
    if m := _RAT_RE.match(s):
        return Fraction(decimal_to_int(m[1]), decimal_to_int(m[2]))
    if not _DEC_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
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


def jsonable(x):
    """x as JSON data, the one encoding every report uses: a ball as its
    64-bit {mid, rad, prec}, a TriBool by name, a rational as "p/q", an int
    past the int/str digit cap as a decimal string, containers element by
    element, and any other object by its to_json, JSON data as it is."""
    if isinstance(x, BallReal):
        return x.round_to(64).to_json()
    if isinstance(x, TriBool):
        return x.name
    if isinstance(x, Fraction):
        return fraction_to_str(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if x.__class__ is int:      # json.dumps cannot write past 4,300 digits
        try:
            str(x)
        except ValueError:
            return int_to_decimal(x)
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if hasattr(x, "to_json"):
        return x.to_json()
    return str(x)


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
        return RealConstant(expr, compute=_NAMED[expr])
    m = _SQRT_RE.match(expr)
    if m:
        k = decimal_to_int(m.group(1))
        if k <= 0:
            raise ValueError("sqrt argument must be positive")
        r = math.isqrt(k)
        if r * r == k:
            return RealConstant(expr, interval=(Fraction(r),) * 2)
        return RealConstant(expr, compute=_sqrt_const(k))
    for sep in ("±", "+-"):
        if sep in expr:
            mid_s, rad_s = (x.strip() for x in expr.split(sep, 1))
            if not (_DEC_RE.match(mid_s) and _DEC_RE.match(rad_s)):
                raise ValueError(f"malformed uncertain literal: {expr!r}")
            mid, rad = decimal_to_fraction(mid_s), decimal_to_fraction(rad_s)
            if rad < 0:
                raise ValueError("negative uncertainty")
            b = BallReal.from_endpoints(mid - rad, mid + rad, prec)
            return RealConstant(expr, interval=(b.lower, b.upper), prec=prec)
    if not (_RAT_RE.match(expr) or _DEC_RE.match(expr)):
        raise ValueError(f"unknown real expression: {expr!r}")
    try:
        return RealConstant(expr, interval=(decimal_to_fraction(expr),) * 2)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def refine(handle: RealConstant, prec: int) -> BallReal:
    """Enclosure of the handle's value at prec; past PREC_CAP it raises."""
    return handle.at(prec)
