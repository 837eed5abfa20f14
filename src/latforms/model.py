"""Core objects: bases, form sequences, diagonal lattices, convex bodies.

A *form sequence* is the data the criteria consume: for each index n a
scale Q_n, integer coefficients (l_1,...,l_p) of a linear form, and a
divisor vector (d_1,...,d_p) with d_i | l_i.  The basis vectors against
which forms are evaluated are e_i = (0,...,1,...,0, -xi_i) for i < p and
e_p = (xi_1,...,xi_{p-1}, 1), so

    L_n(e_i) = l_{i,n} - l_{p,n} xi_i        (i < p)
    L_n(e_p) = sum_j l_{j,n} xi_j + l_{p,n}

All divisibility and membership checks are exact integer arithmetic; only
the evaluations against irrational xi go through ball enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .numerics import (BallReal, MIN_PREC, PREC_CAP, RealConstant, TriBool,
                       cmp_abs_le, decimal_to_fraction, fraction_to_str,
                       int_to_decimal, tri_all)

__all__ = [
    "Basis",
    "FormRecord",
    "FormSequence",
    "DiagonalLattice",
    "DualPoint",
    "Bound",
    "ConvexBody",
    "ValidationError",
    "MissingRecord",
    "eval_at_basis",
    "lattice_membership",
    "dual_membership",
    "divisor_chain_check",
]


class ValidationError(ValueError):
    """A structural invariant of the model data is broken."""


class MissingRecord(KeyError):
    """No record with the requested index."""

    __str__ = LookupError.__str__   # the message, which KeyError quotes


@dataclass(frozen=True)
class Basis:
    """The p-1 real targets xi_i, held as refinable handles."""

    xi: tuple[RealConstant, ...]
    cap: int = PREC_CAP     # the precision, in bits, checks escalate up to

    def __post_init__(self):
        if len(self.xi) < 1:
            raise ValidationError("need at least one xi (p >= 2)")
        if not MIN_PREC <= self.cap <= PREC_CAP:   # RealConstant.at refuses
            raise ValidationError(f"cap {self.cap} is outside "
                                  f"{MIN_PREC}..{PREC_CAP} bits")

    @property
    def p(self) -> int:
        return len(self.xi) + 1

    @property
    def exact_xi(self) -> Optional[tuple[Fraction, ...]]:
        """The xi as exact fractions when every one is rational, else None."""
        vals = tuple(h.exact for h in self.xi)
        return vals if all(v is not None for v in vals) else None

    def xi_balls(self, prec: int) -> tuple[BallReal, ...]:
        return tuple(h.at(prec) for h in self.xi)


@dataclass(frozen=True)
class FormRecord:
    n: int
    Q: int
    ell: tuple[int, ...]
    delta: tuple[int, ...]

    def __post_init__(self):
        if self.Q < 1:
            raise ValidationError(f"{self._name()}: Q must be >= 1")
        if len(self.ell) != len(self.delta):
            raise ValidationError(f"{self._name()}: ell/delta length mismatch")
        if len(self.ell) < 2:
            raise ValidationError(f"{self._name()}: need p >= 2 coefficients")
        for i, d in enumerate(self.delta, start=1):
            if d < 1:
                raise ValidationError(f"{self._name()}: delta_{i} = "
                                      f"{int_to_decimal(d)} < 1")
            if self.ell[i - 1] % d != 0:
                raise ValidationError(
                    f"{self._name()}: delta_{i} = {int_to_decimal(d)} does "
                    f"not divide ell_{i} = {int_to_decimal(self.ell[i - 1])}")

    def _name(self) -> str:
        return f"record n={int_to_decimal(self.n)}"

    @property
    def p(self) -> int:
        return len(self.ell)

    def sup_norm(self) -> int:
        return max(abs(c) for c in self.ell)


class FormSequence:
    """Validated, index-ordered sequence of form records."""

    def __init__(self, records: Iterable[FormRecord],
                 provenance: Optional[dict] = None):
        recs = sorted(records, key=lambda r: r.n)
        if not recs:
            raise ValidationError("empty sequence")
        p = recs[0].p
        last_n = None
        last_q = 0
        for r in recs:
            if r.p != p:
                raise ValidationError(f"{r._name()}: p={r.p} differs from {p}")
            if r.n == last_n:
                raise ValidationError(f"duplicate record index n="
                                      f"{int_to_decimal(r.n)}")
            if r.Q <= last_q:
                raise ValidationError(
                    f"{r._name()}: Q={int_to_decimal(r.Q)} not strictly "
                    f"greater than previous Q={int_to_decimal(last_q)}")
            last_n, last_q = r.n, r.Q
        self.records: tuple[FormRecord, ...] = tuple(recs)
        self.p = p
        self.provenance = provenance
        self._by_n = {r.n: r for r in recs}
        # the certified logs read off this sequence (exponents._log_rows)
        self._logs: dict = {}
        self._printer = None    # its generator's printer of its record lines

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FormRecord]:
        return iter(self.records)

    def record(self, n: int) -> FormRecord:
        if n not in self._by_n:
            raise MissingRecord(f"no record with n={int_to_decimal(n)}")
        return self._by_n[n]

    def has(self, n: int) -> bool:
        return n in self._by_n

    @property
    def Qs(self) -> tuple[int, ...]:
        return tuple(r.Q for r in self.records)


@dataclass(frozen=True)
class DiagonalLattice:
    """The sublattice  (+) delta_i Z  of Z^p, and its dual  (+) (1/delta_i) Z."""

    delta: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.delta):
            raise ValidationError("lattice divisors must be >= 1")


@dataclass(frozen=True)
class DualPoint:
    """Rational vector a, intended to satisfy delta_i a_i in Z."""

    a: tuple[Fraction, ...]

    def to_json(self) -> list[str]:
        return [fraction_to_str(x) for x in self.a]

    @staticmethod
    def from_json(items: Sequence[str]) -> "DualPoint":
        """Inverse of to_json, past the int/str digit cap too."""
        return DualPoint(tuple(map(decimal_to_fraction, items)))


def lattice_membership(vec: Sequence[int], lattice: DiagonalLattice) -> bool:
    """Exact check that an integer vector lies in the diagonal sublattice."""
    if len(vec) != len(lattice.delta):
        raise ValidationError("dimension mismatch")
    return all(c % d == 0 for c, d in zip(vec, lattice.delta))


def dual_membership(point: Union[DualPoint, Sequence[Fraction]],
                    lattice: DiagonalLattice) -> bool:
    """Exact check that delta_i * a_i is an integer for every coordinate."""
    vec = point.a if isinstance(point, DualPoint) else tuple(point)
    if len(vec) != len(lattice.delta):
        raise ValidationError("dimension mismatch")
    return all((Fraction(a) * d).denominator == 1
               for a, d in zip(vec, lattice.delta))


def divisor_chain_check(seq: FormSequence) -> list[tuple[int, int]]:
    """Violations of the divisor chain d_{i,n} | d_{i,n+1}.

    Returns (i, n) pairs, i 1-based, n the index of the earlier record of the
    offending consecutive pair.  Empty list means the chain property holds.
    """
    out = []
    for prev, cur in zip(seq.records, seq.records[1:]):
        for i in range(seq.p):
            if cur.delta[i] % prev.delta[i] != 0:
                out.append((i + 1, prev.n))
    return out


def _form(basis: Basis, c: Sequence, i: int, prec: int) -> BallReal:
    """Enclosure of L(e_i) for the coefficients c of L: c_i - c_p xi_i for
    i < p, sum_j c_j xi_j + c_p for i = p; for all-rational xi the exact
    value enclosed at prec, of radius 0 only when the value is dyadic."""
    p = basis.p
    exact = basis.exact_xi
    if exact is not None:
        if i < p:
            val = Fraction(c[i - 1]) - c[p - 1] * exact[i - 1]
        else:
            val = sum((Fraction(c[j]) * exact[j] for j in range(p - 1)),
                      Fraction(c[p - 1]))
        return BallReal.exact(val, prec)
    balls = basis.xi_balls(prec)
    if i < p:
        return BallReal.exact(c[i - 1], prec) - balls[i - 1] * c[p - 1]
    acc = BallReal.exact(c[p - 1], prec)
    for j in range(p - 1):
        acc = acc + balls[j] * c[j]
    return acc


def _same_p(seq: FormSequence, basis: Basis) -> None:
    """Refuse a basis whose p is not the sequence's."""
    if basis.p != seq.p:
        raise ValidationError(f"basis p={basis.p} != sequence p={seq.p}")


def eval_at_basis(seq: FormSequence, basis: Basis, n: int, i: int,
                  prec: int = 64) -> BallReal:
    """Enclosure of L_n(e_i); for rational xi, exact iff it is dyadic.

    i is 1-based: i < p gives l_i - l_p xi_i, i = p gives sum l_j xi_j + l_p.
    """
    _same_p(seq, basis)
    if not 1 <= i <= seq.p:
        raise ValidationError(f"i={i} out of range 1..{seq.p}")
    return _form(basis, seq.record(n).ell, i, prec)


# ---------------------------------------------------------------------------
# convex bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    value: BallReal
    strict: bool  # True: |coordinate| < value; False: <=


@dataclass(frozen=True)
class ConvexBody:
    """Symmetric box in either the coordinate or the sheared frame.

    frame == "coordinate" (the K_Q / C shape): for each labelled coordinate
    j in coords[:-1] the constraint is |a_j| vs bounds[k]; the final bound
    constrains |sum_j a_j xi_j + a_p|.

    frame == "sheared" (the K_n shape): constraints |x_p xi_j - x_j| vs
    bounds[k] for j in coords[:-1], final bound constrains |x_p|.

    Both frames differ by a unimodular shear, so the volume is
    2^dim * prod(bounds) in either case.
    """

    frame: str
    coords: tuple[int, ...]  # 1-based labels; last entry must be p
    bounds: tuple[Bound, ...]

    def __post_init__(self):
        if self.frame not in ("coordinate", "sheared"):
            raise ValidationError(f"unknown frame {self.frame!r}")
        if len(self.coords) != len(self.bounds):
            raise ValidationError("coords/bounds length mismatch")
        if len(self.coords) < 1:
            raise ValidationError("empty body")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def volume(self) -> BallReal:
        out = BallReal.exact(1 << self.dim, 64)
        for b in self.bounds:
            out = out * b.value
        return out

    def constraint_value(self, k: int, point: Sequence[Fraction], basis: Basis,
                         prec: int = 64) -> BallReal:
        """Enclosure of the k-th constraint's left-hand side |...| at the point.

        A form L(e_label) in one frame is a plain coordinate in the other:
        |L(e_p)| and |a_j| in the coordinate frame, |L(e_j)| = |x_p xi_j -
        x_j| and |x_p| in the sheared one."""
        label = self.coords[k]
        if (self.frame == "coordinate") == (label == basis.p):
            return abs(_form(basis, point, label, prec))
        return BallReal.exact(abs(point[label - 1]), prec)

    def contains(self, point: Sequence[Fraction], basis: Basis,
                 prec: int = 64) -> TriBool:
        """Certified membership of a rational point (full p-vector)."""
        if len(point) != basis.p:
            raise ValidationError("point dimension mismatch")
        return tri_all(
            cmp_abs_le(self.constraint_value(k, point, basis, prec),
                       bound.value.lower, bound.value.upper, bound.strict)
            for k, bound in enumerate(self.bounds))
