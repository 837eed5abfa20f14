"""Criteria-module tests: Phi, eps1, iterate matrices, the factorial matrix
condition, recurrence fits, Siegel reports, and the finite-Q verifier."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction
from math import factorial, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from latforms.numerics import (BallReal, TriBool, cmp_abs_vs_power, parse_real,
                               tri_all, tri_compare)
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
    dual_membership,
)
import latforms.criteria as criteria
from latforms.criteria import (
    BudgetExceeded,
    _echelon,
    _odometer,
    RecordsExhausted,
    build_iterate_matrix,
    check_nesterenko,
    check_siegel,
    eps1_for,
    fit_recurrence,
    matrix_condition_check,
    phi_of_Q,
    reduce_scale,
    verify_conclusion,
)
from latforms.minkowski import enumerate_lattice_points

GOLDEN = Basis((parse_real("golden"),))


def _fib(n_max):
    f = [0, 1]
    while len(f) <= n_max + 2:
        f.append(f[-1] + f[-2])
    return f


def fib_seq(n_max):
    f = _fib(n_max)
    return FormSequence([FormRecord(n=n, Q=f[n], ell=(f[n + 1], f[n]), delta=(1, 1))
                         for n in range(2, n_max + 1)])


def flat_seq(qs, p=2):
    """Records with uninteresting unit forms at the given scales."""
    return FormSequence([
        FormRecord(n=i, Q=q, ell=(1,) * (p - 1) + (q,), delta=(1,) * p)
        for i, q in enumerate(qs)])


# -- Phi ---------------------------------------------------------------------

def test_phi_scan_and_boundaries():
    seq = flat_seq([2, 4, 16, 256])
    assert phi_of_Q(seq, 100) == 2
    assert phi_of_Q(seq, 2) == 0
    assert phi_of_Q(seq, 256) == 3          # <= is inclusive
    with pytest.raises(RecordsExhausted) as e:
        phi_of_Q(seq, 300)
    assert str(e.value) == "Q = 300 is past the last record, Q_3 = 256"
    with pytest.raises(ValidationError):
        phi_of_Q(seq, 1)
    # both messages write Q and Q_n past the int/str digit cap
    with pytest.raises(ValidationError) as e:
        phi_of_Q(flat_seq([10 ** 5000]), 10 ** 4400)
    assert str(e.value) == f"Q=1{'0' * 4400} below the first scale " \
        f"Q_0=1{'0' * 5000}"


def test_phi_monotone_property():
    rng = random.Random(7)
    qs = sorted(rng.sample(range(2, 10**6), 60))
    seq = flat_seq(qs)
    prev = 0
    for Q in range(qs[0], 10**6, 9973):
        if Q > qs[-1]:
            with pytest.raises(RecordsExhausted):
                phi_of_Q(seq, Q)
            continue
        k = phi_of_Q(seq, Q)
        assert qs[k] <= Q
        assert k >= prev
        prev = k


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12, unique=True),
       st.integers(1, 10 ** 6 + 1))
def test_phi_is_the_last_record_at_or_below_Q_and_raises_past_the_end(qs, Q):
    """Phi(Q) is the last k with Q_k <= Q; a Q above Q_N raises, in
    phi_of_Q and in verify_conclusion alike."""
    qs = sorted(qs)
    seq = flat_seq(qs)
    if Q < qs[0]:
        with pytest.raises(ValidationError):
            phi_of_Q(seq, Q)
    elif Q > qs[-1]:
        for call in (lambda: phi_of_Q(seq, Q),
                     lambda: verify_conclusion(seq, Basis((parse_real("1/3"),)),
                                               [1], Q, Fraction(1, 2))):
            with pytest.raises(RecordsExhausted) as e:
                call()
            assert str(e.value) == (f"Q = {Q} is past the last record, "
                                    f"Q_{len(qs) - 1} = {qs[-1]}")
    else:
        k = phi_of_Q(seq, Q)
        assert qs[k] <= Q and (k + 1 == len(qs) or qs[k + 1] > Q)


# -- eps1 --------------------------------------------------------------------

def test_eps1_frozen_values():
    assert eps1_for(Fraction(1, 2), [0, 0], 3) == Fraction(1, 16)
    assert eps1_for(2, [1], 2) == Fraction(1, 2)
    assert eps1_for(Fraction(1, 2), [Fraction(-1, 2)], 2) == Fraction(1, 8)


def test_eps1_constraint_really_satisfied():
    for eps, taus, p in [(Fraction(1, 2), [Fraction(-1, 2), Fraction(3, 4)], 3),
                         (Fraction(1, 100), [Fraction(-9, 10)], 2)]:
        e1 = eps1_for(eps, taus, p)
        g = (1 + e1) ** (p - 1) - 1
        assert g < eps / 2
        assert all(-t * g < eps / 2 for t in taus if t < 0)
        # maximality: the next larger dyadic must fail something
        g2 = (1 + 2 * e1) ** (p - 1) - 1
        assert not (g2 < eps / 2 and all(-t * g2 < eps / 2 for t in taus if t < 0))


def test_eps1_preconditions():
    with pytest.raises(ValidationError):
        eps1_for(0, [1], 2)
    with pytest.raises(ValidationError):
        eps1_for(1, [-1], 2)


# -- iterate matrix ----------------------------------------------------------

THIRD_FIFTH = Basis((parse_real("1/3"), parse_real("1/5")))


def test_iterate_indices_hand_scan():
    qs = [2, 4, 16, 256, 65536]
    seq = FormSequence([FormRecord(n=i, Q=q, ell=(1, 1, q), delta=(1, 1, 1))
                        for i, q in enumerate(qs)])
    M = build_iterate_matrix(seq, THIRD_FIFTH, 0, 1, prec=64)
    assert M.indices == (0, 2, 4)
    assert all(a < b for a, b in zip(M.indices, M.indices[1:]))
    # entries match direct evaluation: L(e_1) = ell_1 - ell_3/3 = 1/3
    v = M.entries[0][0]
    assert v.contains(Fraction(1, 3)) and v.rad < Fraction(1, 2**50)


def test_iterate_consecutive_fallback_p2():
    seq = flat_seq([2 ** k for k in range(1, 8)])
    M = build_iterate_matrix(seq, Basis((parse_real("1/3"),)), 2,
                             Fraction(1, 8), prec=64)
    assert M.indices == (2, 3)


def test_iterate_records_exhausted():
    seq = flat_seq([2, 4, 16, 256, 65536])
    with pytest.raises(RecordsExhausted):
        build_iterate_matrix(seq, Basis((parse_real("1/3"),)), 3, 1)


# -- matrix condition --------------------------------------------------------

def _exact_matrix(rows):
    return [[BallReal.exact(Fraction(x), 96) for x in row] for row in rows]


def test_matrix_condition_pinned():
    ok = _exact_matrix([[1, Fraction(1, 10)], [Fraction(1, 10), 1]])
    assert matrix_condition_check(ok) is TriBool.TRUE
    bad = _exact_matrix([[1, 1], [1, 1]])
    assert matrix_condition_check(bad) is TriBool.FALSE


def test_matrix_condition_entry_straddles_zero():
    M = _exact_matrix([[1, 1], [1, 1]])
    M[0][1] = BallReal.from_endpoints(Fraction(-1, 2), Fraction(1, 2), 96)
    with pytest.raises(ValidationError):
        matrix_condition_check(M)


def test_matrix_condition_unknown():
    b = BallReal.from_endpoints(Fraction(397, 1000), Fraction(419, 1000), 96)
    M = [[BallReal.exact(1, 96), b], [b, BallReal.exact(1, 96)]]
    assert matrix_condition_check(M) is TriBool.UNKNOWN


def _rounded_condition(M):
    """matrix_condition_check as it was before it read exact endpoints:
    every minor rounds three ball products and compares them."""
    p = len(M)
    fact = factorial(p + 1)
    pairs = list(itertools.combinations(range(p), 2))
    return tri_all(~tri_compare(abs(M[i2][j1] * M[i1][j2]) * fact,
                                abs(M[i1][j1] * M[i2][j2]))
                   for i1, i2 in pairs for j1, j2 in pairs)


_WIDTHS = (0, Fraction(1, 10 ** 9), Fraction(1, 10 ** 6), Fraction(1, 1000),
           Fraction(1, 100), Fraction(1, 10))


@st.composite
def _ball_matrix(draw, p, eighths=(4, 24)):
    """p x p balls around +/- u_ij G^((i+1)(j+1)), u_ij in [1, 2), so that
    each adjacent minor's diag/cross ratio is G times a ratio of the u; G
    is (p+1)! times eighths/8, so verdicts mix.  Each ball has a relative
    width from _WIDTHS and the matrix one precision of 24, 64 or 96 bits."""
    G = factorial(p + 1) * Fraction(draw(st.integers(*eighths)), 8)
    prec = draw(st.sampled_from([24, 64, 96]))
    rows = []
    for i in range(p):
        row = []
        for j in range(p):
            x = (draw(st.sampled_from([-1, 1]))
                 * (1 + Fraction(draw(st.integers(0, 999)), 1000))
                 * G ** ((i + 1) * (j + 1)))
            w = draw(st.sampled_from(_WIDTHS))
            lo, hi = sorted((x * (1 - w), x * (1 + w)))
            row.append(BallReal.from_endpoints(lo, hi, prec))
        rows.append(row)
    return rows


def _abs_ends(x):
    return sorted((abs(x.lower), abs(x.upper)))


def _fraction_condition(M):
    """Every minor decided on the Fraction ends of the entries'
    magnitudes: FALSE if some minor fails at every point of the balls,
    else TRUE if every minor holds at every point, else UNKNOWN."""
    p = len(M)
    fact = factorial(p + 1)
    ends = [[_abs_ends(x) for x in row] for row in M]
    pairs = list(itertools.combinations(range(p), 2))
    out = TriBool.TRUE
    for i1, i2 in pairs:
        for j1, j2 in pairs:
            (a, A), (b, B) = ends[i1][j1], ends[i2][j2]
            (c, C), (d, D) = ends[i2][j1], ends[i1][j2]
            if c * d * fact > A * B:
                return TriBool.FALSE
            if C * D * fact > a * b:
                out = TriBool.UNKNOWN
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(_ball_matrix))
def test_matrix_condition_agrees_with_the_oracles(M):
    """The check is the Fraction decision of every minor.  It decides
    wherever the rounded products did, the same way, and may also decide
    where the rounding left UNKNOWN."""
    got = matrix_condition_check(M)
    assert got is _fraction_condition(M)
    want = _rounded_condition(M)
    if want is not TriBool.UNKNOWN:
        assert got is want


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda p: _ball_matrix(p, (8, 64))),
       st.randoms(use_true_random=False))
def test_adjacent_minors_certify_every_minor(M, rnd):
    """Where every adjacent minor holds over the whole balls (decided here
    on Fractions), the check says TRUE, and exact points sampled in the
    balls satisfy every minor, adjacent or not."""
    p = len(M)
    fact = factorial(p + 1)
    ends = [[_abs_ends(x) for x in row] for row in M]
    if not all(ends[i + 1][j][1] * ends[i][j + 1][1] * fact
               <= ends[i][j][0] * ends[i + 1][j + 1][0]
               for i in range(p - 1) for j in range(p - 1)):
        return
    assert matrix_condition_check(M) is TriBool.TRUE
    pairs = list(itertools.combinations(range(p), 2))
    for _ in range(5):
        X = [[x.lower + (x.upper - x.lower)
              * Fraction(rnd.choice((0, 1024, rnd.randrange(1025))), 1024)
              for x in row] for row in M]
        for i1, i2 in pairs:
            for j1, j2 in pairs:
                assert (abs(X[i2][j1] * X[i1][j2]) * fact
                        <= abs(X[i1][j1] * X[i2][j2]))


def test_matrix_condition_false_past_undecided_adjacent_minors():
    """Ones, but for a wide centre: each adjacent minor holds m_11, so
    each is undecided, while the corner minor 1 * 1 < 24 * 1 * 1 fails
    for certain.  All minors are then decided, and FALSE dominates."""
    M = _exact_matrix([[1] * 3] * 3)
    M[1][1] = BallReal.from_endpoints(Fraction(1, 10 ** 6), Fraction(10 ** 6),
                                      96)
    assert _rounded_condition(M) is TriBool.FALSE
    assert matrix_condition_check(M) is TriBool.FALSE


def _det_exact(rows):
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((k for k in range(c, n) if m[k][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for k in range(c + 1, n):
            f = m[k][c] / m[c][c]
            m[k] = [x - f * y for x, y in zip(m[k], m[c])]
    return det


def test_matrix_condition_implies_invertible_sampled():
    rng = random.Random(314)
    for p in (2, 3):
        G = 4 * factorial(p + 1) + 1
        for _ in range(100):
            rows = [[Fraction(rng.choice([-1, 1])) * (1 + Fraction(rng.randrange(1000), 1001))
                     * Fraction(G) ** ((i + 1) * (j + 1))
                     for j in range(p)] for i in range(p)]
            # certified-true condition by construction
            assert matrix_condition_check(_exact_matrix(rows)) is TriBool.TRUE
            assert _det_exact(rows) != 0


# -- recurrence fits ---------------------------------------------------------

def test_fit_recurrence_fibonacci():
    fit = fit_recurrence(fib_seq(20), 7)
    assert fit.alpha == (Fraction(1), Fraction(1))
    assert fit.residual and not fit.alpha0_zero and not fit.non_unique


def test_fit_recurrence_constant_flags_alpha0():
    seq = FormSequence([FormRecord(n=n, Q=n + 2, ell=(3, 7), delta=(1, 1))
                        for n in range(5)])
    fit = fit_recurrence(seq, 0)
    assert fit.alpha == (Fraction(0), Fraction(1))
    assert fit.alpha0_zero and fit.non_unique and fit.residual


def test_fit_recurrence_inconsistent_none():
    seq = FormSequence([
        FormRecord(n=0, Q=2, ell=(1, 2), delta=(1, 1)),
        FormRecord(n=1, Q=3, ell=(2, 4), delta=(1, 1)),
        FormRecord(n=2, Q=4, ell=(5, 11), delta=(1, 1)),
    ])
    assert fit_recurrence(seq, 0) is None


def _leibniz_det(M):
    n = len(M)
    return sum((-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
               * prod(M[i][perm[i]] for i in range(n))
               for perm in itertools.permutations(range(n)))


def _minor_rank(M):
    """Largest k with a nonzero k x k minor."""
    rows, cols = range(len(M)), range(len(M[0]))
    return max([0] + [k for k in range(1, min(len(M), len(M[0])) + 1)
                      for R in itertools.combinations(rows, k)
                      for C in itertools.combinations(cols, k)
                      if _leibniz_det([[M[i][j] for j in C] for i in R])])


@st.composite
def _int_matrix(draw, rows, cols):
    """Small integer matrix; some rows are combinations of earlier ones, so
    rank-deficient and zero-column cases are common."""
    ints = st.integers(-6, 6)
    M = []
    for _ in range(rows):
        if M and draw(st.booleans()):
            c = draw(st.lists(st.integers(-2, 2), min_size=len(M),
                              max_size=len(M)))
            M.append([sum(ci * r[j] for ci, r in zip(c, M))
                      for j in range(cols)])
        else:
            M.append(draw(st.lists(ints, min_size=cols, max_size=cols)))
    return M


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda p: st.tuples(st.just(p),
                                                     _int_matrix(p, p))))
def test_echelon_det_and_rank_against_leibniz(pM):
    p, M = pM
    rows = [row[:] for row in M]
    pivots, det = _echelon(rows, p)
    assert det == _leibniz_det(M)
    assert len(pivots) == _minor_rank(M)
    assert pivots == sorted(set(pivots))
    # echelon form: below pivot r, at column c, every entry up to c is 0
    for r, c in enumerate(pivots):
        assert all(row[j] == 0 for row in rows[r + 1:] for j in range(c + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda p: st.tuples(st.just(p),
                                                     _int_matrix(p, p + 1))))
def test_fit_recurrence_solutions_substitute_back(pM):
    """Row i of M is ell_i at n = 0..p; the fit must solve the system
    ell_{i,p} = sum_j alpha_j ell_{i,j} exactly whenever it is consistent,
    and return None exactly when it is not."""
    p, M = pM
    seq = FormSequence([FormRecord(n=n, Q=n + 2,
                                   ell=tuple(M[i][n] for i in range(p)),
                                   delta=(1,) * p) for n in range(p + 1)])
    fit = fit_recurrence(seq, 0)
    A = [row[:p] for row in M]
    if _minor_rank(M) > _minor_rank(A):
        assert fit is None
        return
    assert fit is not None and fit.residual
    for row in M:
        assert sum(a * x for a, x in zip(fit.alpha, row[:p])) == row[p]
    assert fit.non_unique == (_minor_rank(A) < p)
    assert fit.alpha0_zero == (fit.alpha[0] == 0)


def test_fit_recurrence_missing_records():
    with pytest.raises(MissingRecord):
        fit_recurrence(fib_seq(10), 9)


# -- Siegel report -----------------------------------------------------------

def test_check_siegel_fibonacci():
    rep = check_siegel(fib_seq(20), GOLDEN, 2, 5, prec=96)
    assert rep.alpha0_ok and rep.bad_ns == []
    assert rep.det_n2 == -1            # Cassini: F_6^2 - F_5 F_7 = -1
    assert rep.det_nonzero
    assert all(r == 2 for _, r in rep.ranks)
    assert rep.rank_propagates
    assert rep.det_consistent is TriBool.TRUE
    doc = rep.to_json()
    assert doc["det_n2"] == "-1" and doc["alpha0_ok"] is True


def test_cassini_all_n():
    f = _fib(30)
    for n in range(2, 28):
        assert abs(f[n + 1] ** 2 - f[n] * f[n + 2]) == 1


def test_check_siegel_constant_failure():
    seq = FormSequence([FormRecord(n=n, Q=n + 2, ell=(3, 7), delta=(1, 1))
                        for n in range(6)])
    rep = check_siegel(seq, Basis((parse_real("1/3"),)), 0, 2)
    assert not rep.alpha0_ok
    assert rep.det_n2 == 0 and not rep.det_nonzero


def _delta_matrix(seq, n):
    """The p x p Delta window at n: row i holds ell_{i,n} .. ell_{i,n+p-1}."""
    p = seq.p
    return [[seq.record(n + j).ell[i] for j in range(p)] for i in range(p)]


def _siegel_by_windows(seq, basis, n1, n2, prec):
    """check_siegel's report with every Delta window eliminated on its own
    and every fit made by fit_recurrence: the oracle for the ranks that
    check_siegel takes from its fits."""
    rep = check_siegel(seq, basis, n1, n2, prec)
    p, last = seq.p, seq.records[-1].n
    fits = {n: fit_recurrence(seq, n) for n in range(n1, last - p + 1)}
    bad = [n for n, f in fits.items()
           if f is None or f.alpha0_zero or not f.residual]
    ranks = [(n, len(_echelon(_delta_matrix(seq, n), p)[0]))
             for n in range(n1, last - p + 2)]
    det = _echelon(_delta_matrix(seq, n2), p)[1]
    return rep, dataclasses.replace(
        rep, fits=fits, alpha0_ok=not bad, bad_ns=bad, det_n2=det,
        det_nonzero=det != 0, ranks=ranks,
        rank_propagates=len({r for _, r in ranks}) == 1)


def _inconsistent_seq():
    # the window at 0 has rank 1 and ell_2 = (1, 2) is not a multiple of
    # (1, 1): no fit at n = 0; the windows at 1 and 2 have rank 2 and the
    # last one, at 3, rank 1
    ells = [(1, 1), (1, 1), (1, 2), (2, 3), (4, 6)]
    return FormSequence([FormRecord(n=n, Q=n + 1, ell=e, delta=(1, 1))
                         for n, e in enumerate(ells)])


def _siegel_cases():
    from latforms.corpus import (GeneratorSpec, default_basis,
                                 gen_apery_zeta2, gen_apery_zeta3,
                                 gen_synthetic)
    syn = GeneratorSpec("synthetic-power", 12, {
        "B": 2, "xi": ["1/3", "2/5"], "t": ["-1/2", None],
        "g": ["0", "0", "1"]})
    constant = FormSequence([FormRecord(n=n, Q=n + 2, ell=(3, 7),
                                        delta=(1, 1)) for n in range(6)])
    return {
        "apery-zeta3": (gen_apery_zeta3(24), Basis((parse_real("zeta3"),)),
                        2, 5),
        "apery-zeta2": (gen_apery_zeta2(24), Basis((parse_real("zeta2"),)),
                        2, 5),
        "fibonacci": (fib_seq(20), GOLDEN, 2, 5),
        "synthetic p=3": (gen_synthetic(syn), default_basis(syn), 1, 4),
        "constant": (constant, Basis((parse_real("1/3"),)), 0, 2),
        "inconsistent": (_inconsistent_seq(), GOLDEN, 0, 1),
        "last window only": (fib_seq(20), GOLDEN, 19, 19),
    }


@pytest.mark.parametrize("case", sorted(_siegel_cases()))
def test_check_siegel_ranks_from_fits_match_every_window(case):
    seq, basis, n1, n2 = _siegel_cases()[case]
    rep, oracle = _siegel_by_windows(seq, basis, n1, n2, 96)
    assert rep.ranks == oracle.ranks
    assert json.dumps(rep.to_json()) == json.dumps(oracle.to_json())
    if case == "constant":
        assert all(f.alpha0_zero for f in rep.fits.values())
        assert all(r == 1 for _, r in rep.ranks)
    if case == "inconsistent":
        assert rep.fits[0] is None
        assert rep.ranks == [(0, 1), (1, 2), (2, 2), (3, 1)]
    if case == "last window only":
        assert rep.fits == {} and rep.ranks == [(19, 2)]
    if case == "synthetic p=3":
        assert seq.p == 3


def test_check_siegel_eliminates_each_window_once(monkeypatch):
    """Windows 2..19 of fib_seq(20): 18 eliminations wherever n2 lies, the
    n2 window's determinant taken from its fit."""
    calls = []
    echelon = criteria._echelon
    monkeypatch.setattr(criteria, "_echelon", lambda rows, ncols:
                        calls.append(len(rows)) or echelon(rows, ncols))
    for n2 in (2, 5, 18, 19):
        calls.clear()
        rep = check_siegel(fib_seq(20), GOLDEN, 2, n2)
        assert len(calls) == 18
        assert rep.det_n2 == (-1) ** n2           # Cassini


@st.composite
def _siegel_input(draw):
    """A sequence of p + 1 .. p + 4 integer records, p = 2..5, whose
    records are often combinations of the earlier ones (singular windows),
    with n1 and n2 anywhere, n2 at both ends included."""
    p = draw(st.integers(2, 5))
    ells = []
    for _ in range(draw(st.integers(p + 1, p + 4))):
        if len(ells) >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            ells.append([a * x + b * y for x, y in zip(ells[-1], ells[-2])])
        else:
            ells.append(draw(st.lists(st.integers(-3, 3), min_size=p,
                                      max_size=p)))
    seq = FormSequence([FormRecord(n=n, Q=n + 2, ell=tuple(e),
                                   delta=(1,) * p)
                        for n, e in enumerate(ells)])
    top = len(ells) - p
    n1 = draw(st.integers(0, top))
    n2 = draw(st.sampled_from([n1, top, draw(st.integers(n1, top))]))
    return seq, n1, n2


@settings(max_examples=150, deadline=None)
@given(_siegel_input())
def test_check_siegel_det_and_ranks_match_each_window(case):
    seq, n1, n2 = case
    p = seq.p
    basis = Basis(tuple(parse_real(f"1/{k + 2}") for k in range(p - 1)))
    rep = check_siegel(seq, basis, n1, n2)
    oracle = {n: _echelon(_delta_matrix(seq, n), p)
              for n in range(n1, len(seq) - p + 1)}
    assert rep.ranks == [(n, len(piv)) for n, (piv, _) in oracle.items()]
    assert rep.det_n2 == oracle[n2][1]
    assert rep.det_consistent is TriBool.TRUE


# -- the modular route of check_siegel -----------------------------------------

def _wide(rng, bits):
    """A random integer of exactly `bits` bits, of either sign."""
    return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))


def _wide_seq(ells):
    p = len(ells[0])
    return FormSequence([FormRecord(n=n, Q=n + 2, ell=tuple(e),
                                    delta=(1,) * p)
                         for n, e in enumerate(ells)])


def _combination(cs, ells):
    return [sum(c * e[i] for c, e in zip(cs, ells)) for i in range(len(ells[0]))]


def _multiple_of_P(rng, cols, bits):
    """A wide record v that makes the window of columns cols + [v] have
    a determinant divisible by criteria._P: the determinant is linear in
    v, so one coordinate of v is moved by the residue that cancels it."""
    p = len(cols) + 1
    P = criteria._P

    def det(v):
        return _leibniz_det([[c[i] for c in cols + [v]] for i in range(p)])
    v = [_wide(rng, bits) for _ in range(p)]
    for i in range(p):
        e = [int(k == i) for k in range(p)]
        if det(e) % P:
            v[i] -= det(v) * pow(det(e), -1, P) % P
            break
    return v


@st.composite
def _wide_input(draw):
    """p = 2..5 and records of 4,096 to 6,000 bits: p random ones, then
    each a combination of the p before it with small coefficients, or one
    that the modular route must hand back to elimination: coefficients
    above its rebuilding bound, a singular window (consistent or not), a
    window whose determinant is a multiple of P, or a fresh record."""
    p = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits = draw(st.integers(criteria._MOD_BITS, 6000))
    ells = [[_wide(rng, bits) for _ in range(p)] for _ in range(p)]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("small", "small", "tall", "singular",
                                     "multiple", "fresh")))
        if kind == "small":
            cs = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
        elif kind == "tall":
            cs = [_wide(rng, draw(st.integers(100, 250))) for _ in range(p)]
        elif kind == "singular":           # the window ending here
            cs = [0] + draw(st.lists(st.integers(-3, 3), min_size=p - 1,
                                     max_size=p - 1))
        if kind == "multiple":
            ells.append(_multiple_of_P(rng, ells[1 - p:], bits))
        elif kind == "fresh":
            ells.append([_wide(rng, bits) for _ in range(p)])
        else:
            ells.append(_combination(cs, ells[-p:]))
    top = len(ells) - p
    n1 = draw(st.integers(0, top))
    n2 = draw(st.sampled_from([n1, top, draw(st.integers(n1, top))]))
    return _wide_seq(ells), n1, n2


@settings(max_examples=60, deadline=None)
@given(_wide_input())
def test_modular_route_reports_what_elimination_reports(case):
    """Wide windows take the modular route: their fits, ranks, det_n2 and
    report bytes are those of eliminating every window on its own."""
    seq, n1, n2 = case
    basis = Basis(tuple(parse_real(f"1/{k + 2}") for k in range(seq.p - 1)))
    rep, oracle = _siegel_by_windows(seq, basis, n1, n2, 64)
    assert rep.fits == oracle.fits
    assert rep.ranks == oracle.ranks
    assert rep.det_n2 == oracle.det_n2
    assert json.dumps(rep.to_json()) == json.dumps(oracle.to_json())


def _route(seq, n):
    """criteria._mod_fit on the window at n, as check_siegel calls it."""
    p = seq.p
    recs = [seq.record(n + j) for j in range(p + seq.has(n + p))]
    return criteria._mod_fit(recs, [criteria._mod_p(r.ell) for r in recs])


def test_modular_route_hands_back_each_window_it_cannot_certify(monkeypatch):
    """Each fallback, forced on 5,000-bit windows at p = 2 and checked
    against elimination: a determinant 3 P, singular windows (consistent,
    inconsistent, and the last one), and integer coefficients of 200
    bits, which are rebuilt wrongly and fail the substitution, or are not
    rebuilt within the bound.  A full-rank last window is certified with
    no fit."""
    rng = random.Random(25)
    P, bits = criteria._P, 5000
    b, c = _wide(rng, bits), _wide(rng, bits)
    cases = {
        # columns (1, b), (c, bc + 3P): det 3P
        "multiple of P": [[1, b], [c, b * c + 3 * P], [1 + 2 * c,
                                                     b + 2 * (b * c + 3 * P)]],
        "singular, consistent": [[b, c], [3 * b, 3 * c], [5 * b, 5 * c]],
        "singular, inconsistent": [[b, c], [3 * b, 3 * c], [c, b]],
        "singular last window": [[c, b], [b, c], [3 * b, 3 * c]],
    }
    for name, ells in cases.items():
        # n2, eliminated in any case, is the other window
        n, n2 = (1, 0) if name == "singular last window" else (0, 1)
        seq = _wide_seq(ells)
        assert _route(seq, n) is None, name
        rep, oracle = _siegel_by_windows(seq, GOLDEN, 0, n2, 64)
        assert json.dumps(rep.to_json()) == json.dumps(oracle.to_json())
        assert rep.ranks == oracle.ranks, name
    assert _echelon([[1, c], [b, b * c + 3 * P]], 2)[1] == 3 * P
    # the full-rank last window: rank 2, no fit, no elimination
    assert _route(_wide_seq([[b, c], [c, b]]), 0) == (None, 2, None)
    # 200-bit integer coefficients: both ways of failing occur
    subs = []
    substitutes = criteria._substitutes
    monkeypatch.setattr(criteria, "_substitutes", lambda *a:
                        subs.append(substitutes(*a)) or subs[-1])
    outcomes = set()
    for _ in range(12):
        ells = [[_wide(rng, bits) for _ in range(2)] for _ in range(2)]
        cs = [_wide(rng, 200), _wide(rng, 200)]
        seq = _wide_seq(ells + [_combination(cs, ells)])
        subs.clear()
        assert _route(seq, 0) is None
        outcomes.add(tuple(subs))
        assert fit_recurrence(seq, 0).alpha == tuple(map(Fraction, cs))
    assert outcomes == {(), (False,)}


def test_check_siegel_wide_apery_eliminates_only_the_n2_window(monkeypatch):
    """gen_apery_zeta3(1400), entries up to 13,101 bits: one elimination,
    of the n2 window, each record reduced mod P once, and no fallback; the
    report is the one elimination of every window gives."""
    from latforms.corpus import gen_apery_zeta3
    seq = gen_apery_zeta3(1400)
    basis = Basis((parse_real("zeta3"),))
    calls, reduced = [], []
    echelon, mod_p = criteria._echelon, criteria._mod_p
    monkeypatch.setattr(criteria, "_echelon", lambda rows, ncols:
                        calls.append(len(rows)) or echelon(rows, ncols))
    monkeypatch.setattr(criteria, "_mod_p", lambda ell:
                        reduced.append(ell) or mod_p(ell))
    rep = check_siegel(seq, basis, 2, 5)
    assert len(calls) == 1
    assert sorted(map(id, reduced)) == sorted(id(r.ell) for r in seq.records
                                              if r.n >= 2)
    monkeypatch.setattr(criteria, "_MOD_BITS", float("inf"))
    calls.clear()
    exact = check_siegel(seq, basis, 2, 5)
    assert len(calls) == len(rep.ranks)
    assert rep == exact


def _cofactor_det(M):
    """_ball_det before its minors were memoised: the cofactor recursion
    along the first row, which recomputes each minor."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * m * _cofactor_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j, m in enumerate(M[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(_ball_matrix))
def test_ball_det_memoised_is_the_recursion_bit_for_bit(M):
    got, want = criteria._ball_det(M), _cofactor_det(M)
    assert (got.mid, got.rad, got.prec) == (want.mid, want.rad, want.prec)


def _permutation_det(M):
    """_ball_det before the cofactor expansion: the sum over all p!
    permutations, each signed by counting its inversions."""
    p, prec = len(M), M[0][0].prec
    total = BallReal.exact(0, prec)
    for perm in itertools.permutations(range(p)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        term = BallReal.exact(sign, prec)
        for i in range(p):
            term = term * M[i][perm[i]]
        total = total + term
    return total


_entries = st.one_of(
    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4),
    st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-10 ** 9, 10 ** 9),
              st.integers(0, 40)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda p: st.lists(
    st.lists(_entries, min_size=p, max_size=p), min_size=p, max_size=p)),
    st.sampled_from([24, 64, 96]))
def test_ball_det_contains_the_exact_determinant(M, prec):
    """The cofactor expansion and the permutation expansion it replaced
    both enclose the exact determinant of rational and dyadic matrices."""
    balls = [[BallReal.exact(q, prec) for q in row] for row in M]
    exact = _leibniz_det(M)
    assert criteria._ball_det(balls).contains(exact)
    assert _permutation_det(balls).contains(exact)
    assert criteria._ball_det(balls) == _cofactor_det(balls)


def test_det_consistent_across_sequences_and_bases():
    """det V = (1 + sum xi_i^2) det Delta_n2 holds for every basis, as V is
    A(xi) Delta_n2 with det A = 1 + sum xi_i^2: any enclosing determinant
    certifies it at every n2, for the basis of the data and for others."""
    cases = _siegel_cases()
    others = [Basis((parse_real(x),)) for x in ("sqrt(2)", "1/3", "zeta3")]
    for seq, basis, n1, _ in cases.values():
        bases = [basis] + (others if seq.p == 2 else [])
        for b in bases:
            for n2 in range(n1, seq.records[-1].n - seq.p + 2):
                rep = check_siegel(seq, b, n1, n2)
                assert rep.det_consistent is TriBool.TRUE, (b, n2)


def test_check_siegel_at_p10():
    """A p = 10 synthetic family: the Delta window at n2 = 1 has full rank,
    and the 10 x 10 ball determinant certifies it against the basis.  The
    memoised minors take a fraction of a second here; the cofactor
    recursion recomputed each minor, 10! products, for about a minute."""
    from latforms.corpus import GeneratorSpec, default_basis, gen_synthetic
    p = 10
    spec = GeneratorSpec("synthetic-power", 30, {
        "B": 2, "xi": [f"1/{k}" for k in range(2, p + 1)],
        "t": [f"-{i}/{p}" for i in range(1, p)], "g": [0] * p})
    rep = check_siegel(gen_synthetic(spec), default_basis(spec), 1, 1)
    assert rep.p == p and rep.ranks[0] == (1, p)
    assert rep.det_nonzero and rep.det_consistent is TriBool.TRUE


# -- hypothesis report -------------------------------------------------------

def test_check_nesterenko_fibonacci_consistent():
    rep = check_nesterenko(fib_seq(40), GOLDEN, prec=96)
    assert rep.divisor_violations == []
    assert rep.consistent is TriBool.TRUE
    assert rep.norm_consistent is TriBool.TRUE
    doc = rep.to_json()
    assert doc["consistent"] == "TRUE"


def test_check_nesterenko_divisor_violation():
    seq = FormSequence([
        FormRecord(n=0, Q=2, ell=(4, 2), delta=(4, 1)),
        FormRecord(n=1, Q=3, ell=(2, 3), delta=(2, 1)),
        FormRecord(n=2, Q=5, ell=(2, 5), delta=(2, 1)),
    ])
    rep = check_nesterenko(seq, Basis((parse_real("1/3"),)), prec=64)
    assert rep.divisor_violations
    assert rep.consistent is TriBool.FALSE


# -- verifier ----------------------------------------------------------------

def test_verify_golden_holds():
    v = verify_conclusion(fib_seq(40), GOLDEN, [1], 100, Fraction(3, 10),
                          prec=96)
    assert v.status == "holds" and v.witness is None
    assert v.diagnostics["budget_estimate"] == 51     # |a_1| <= 25
    doc = v.to_json()
    assert doc["status"] == "holds" and doc["witness"] is None


def test_verify_rational_violation_witness():
    half = Basis((parse_real("1/2"),))
    seq = flat_seq([2, 5, 10])
    v = verify_conclusion(seq, half, [2], 10, Fraction(1, 2))
    assert v.status == "violated"
    assert v.witness.a == (Fraction(2), Fraction(-1))
    # |2*(1/2) - 1| = 0 <= 10^(-3/2)
    assert cmp_abs_vs_power(Fraction(0), 10, Fraction(-3, 2)) < 0


def test_verify_empty_prefix_range_vacuous():
    v = verify_conclusion(fib_seq(20), GOLDEN, [Fraction(-1, 2)], 50,
                          Fraction(1, 4))
    assert v.status == "holds"
    assert v.diagnostics["candidates_checked"] == 0


def test_verify_budget_refusal():
    with pytest.raises(BudgetExceeded) as e:
        verify_conclusion(fib_seq(40), GOLDEN, [3], 100, Fraction(3, 10),
                          budget=1000)
    assert e.value.estimate > 1000


@pytest.mark.parametrize("basis, seq, message", [
    (Basis((parse_real("golden"), parse_real("sqrt(2)"))), fib_seq(20),
     "basis p=3 != sequence p=2"),
    (GOLDEN, flat_seq([2, 3, 5], p=3), "basis p=2 != sequence p=3"),
])
def test_verify_refuses_a_basis_of_another_p(basis, seq, message):
    """The scan reads delta_p and xi_j by the basis's p: a basis of
    another p is refused up front, as eval_at_basis refuses it."""
    with pytest.raises(ValidationError) as e:
        verify_conclusion(seq, basis, [1] * (seq.p - 1), 100, Fraction(1, 5))
    assert str(e.value) == message


def test_verify_witness_rechecks():
    third_fifth = Basis((parse_real("1/3"), parse_real("2/5")))
    recs = [FormRecord(n=i, Q=q, ell=(3, 5, 15 * q), delta=(3, 5, 15))
            for i, q in enumerate([2, 4, 8])]
    seq = FormSequence(recs)
    v = verify_conclusion(seq, third_fifth, [1, 1], 8, Fraction(1, 2))
    assert v.status == "violated"
    a = v.witness
    assert dual_membership(a, DiagonalLattice(seq.record(2).delta))
    val = a.a[0] * Fraction(1, 3) + a.a[1] * Fraction(2, 5) + a.a[2]
    assert cmp_abs_vs_power(val, 8, Fraction(-3, 2)) <= 0
    assert any(x != 0 for x in a.a)


def test_verify_irrational_ball_mode_agrees_with_scan():
    # tiny instance, exhaustive float-free oracle via exact convergent facts:
    # best approx of phi with q<=4 is 3/2 -> |2 phi - 3| ~ 0.236 > 5^(-1.2)
    seq = flat_seq([2, 3, 5])
    v = verify_conclusion(seq, GOLDEN, [1], 5, Fraction(1, 5), prec=96)
    assert v.status == "holds"


def test_verify_golden_large_Q_in_few_prefixes():
    """At Q = 10^30 the box has 2 * 10^24 + 1 prefixes; the convergent
    steps visit the Fibonacci numbers up to 10^24 and the zero prefix."""
    v = verify_conclusion(fib_seq(146), GOLDEN, [1], 10 ** 30, Fraction(1, 5),
                          budget=10 ** 40)
    assert v.status == "holds"
    assert v.diagnostics["budget_estimate"] == 2 * 10 ** 24 + 1
    assert v.diagnostics["prefixes"] <= 200
    assert v.diagnostics["unknown_candidates"] == 0


def _power_of_two_box(basis, taus, Q, eps):
    """The box verify_conclusion searches, as a coordinate-frame body:
    |a_j| <= Q^(tau_j-eps) and |sum a_j xi_j + a_p| <= Q^(-1-eps), each
    bound an exact power of two."""
    k = Q.bit_length() - 1
    sides = [k * (t - eps) for t in taus] + [-k * (1 + eps)]
    assert Q == 1 << k and all(e.denominator == 1 for e in sides)
    return ConvexBody(frame="coordinate",
                      coords=tuple(range(1, basis.p + 1)),
                      bounds=tuple(Bound(BallReal.exact(Fraction(2) ** e),
                                         strict=False) for e in sides))


def test_verify_agrees_with_enumeration_oracle():
    """verify_conclusion against enumerate_lattice_points over the same box.
    Dyadic xi and delta, with Q^(1+eps) and every Q^(tau_j-eps) a power of
    two, keep every comparison the oracle makes exact; golden adds
    irrational instances.  The verdict is violated exactly when the oracle
    finds a certified point, and the witness is that point (or, from the
    zero prefix, its negation)."""
    rng = random.Random(606)
    dyadic = [Fraction(n, 64) for n in range(-127, 128) if n % 2]
    instances = []
    for _ in range(48):
        p = rng.choice([2, 2, 3])
        xi = Basis(tuple(parse_real(str(rng.choice(dyadic))) for _ in
                         range(p - 1)))
        instances.append((xi, p))
    instances += [(GOLDEN, 2)] * 12
    outcomes = set()
    for k, (basis, p) in enumerate(instances):
        Q = rng.choice([16, 256] if p == 2 else [16])
        eps = Fraction(1, 4)
        tau_pool = [Fraction(i, 4) for i in range(1, 6 if p == 2 else 4)]
        taus = [rng.choice(tau_pool) for _ in range(p - 1)]
        delta = tuple(rng.choice([1, 2, 4, 8]) for _ in range(p))
        seq = FormSequence([FormRecord(n=1, Q=Q, ell=delta, delta=delta)])
        v = verify_conclusion(seq, basis, taus, Q, eps)
        body = _power_of_two_box(basis, taus, Q, eps)
        first, unknowns, _ = enumerate_lattice_points(body, delta, basis,
                                                      limit=10 ** 6)
        assert unknowns == 0, k
        assert v.status == ("holds" if first is None else "violated"), k
        outcomes.add(v.status)
        if first is not None:
            assert body.contains(v.witness.a, basis) is TriBool.TRUE, k
            assert v.witness.a in (first, tuple(-a for a in first)), k
    assert outcomes == {"holds", "violated"}
    # a fixed-width ball cannot narrow: the verdict is unknown exactly when
    # the oracle is left with undecided candidates and no certified one,
    # and both leave the same candidates undecided (the ball sits where
    # a_2 takes both signs)
    for k in range(16):
        xi = [parse_real(str(rng.choice(dyadic))),
              parse_real(f"{float(rng.choice(dyadic))}±0.0625")]
        basis = Basis(tuple(xi), 256)
        taus = [rng.choice([Fraction(1, 4), Fraction(1, 2)]) for _ in xi]
        delta = tuple(rng.choice([1, 2, 4]) for _ in range(3))
        seq = FormSequence([FormRecord(n=1, Q=16, ell=delta, delta=delta)])
        v = verify_conclusion(seq, basis, taus, 16, Fraction(1, 4))
        first, unknowns, _ = enumerate_lattice_points(
            _power_of_two_box(basis, taus, 16, Fraction(1, 4)), delta, basis)
        expect = ("violated" if first is not None
                  else "unknown" if unknowns else "holds")
        assert v.status == expect, k
        if first is None:       # the oracle also walks the negated points
            assert 2 * v.diagnostics["unknown_candidates"] == unknowns, k
        outcomes.add(v.status)
    assert outcomes == {"holds", "violated", "unknown"}


def test_threshold_decides_a_rational_exactly():
    """An exact interval is compared with Q^-(1+eps) exactly, on both
    signs: 2^(-3/2) = 0.35355...  A point is one rational; an interval
    straddling the threshold is UNKNOWN."""
    inside, _ = criteria._threshold(2, Fraction(1, 2), 96)
    T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
    for v, out in (((3536, 3536), F), ((-3536, -3536), F), ((3535, 3535), T),
                   ((-3535, 3535), T), ((3536, 3600), F), ((-3600, -3536), F),
                   ((3535, 3536), U), ((-3536, -3535), U), ((-3536, 0), U)):
        lo, hi = (Fraction(x, 10000) for x in v)
        assert inside((lo, hi), 96) is out, v


def _old_prefix_ball(basis, prefix, labels, delta, prec):
    """sum_k (m_k / delta_{j_k}) xi_{j_k} over the labels j_k, summed as the
    coordinate scan summed it before its candidates' values came from the
    one form evaluator; kept as the oracle."""
    xb = basis.xi_balls(prec)
    s = BallReal.exact(0, prec)
    for m, j in zip(prefix, labels):
        if m:
            s = s + xb[j - 1] * Fraction(m, delta[j - 1])
    return s


_MP_XI = {"golden": lambda: (1 + mpmath.sqrt(5)) / 2,
          "sqrt(2)": lambda: mpmath.sqrt(2), "zeta3": lambda: mpmath.zeta(3),
          "e": lambda: mpmath.e, "1/3": lambda: mpmath.mpf(1) / 3}


@pytest.mark.parametrize("xi", [("golden",), ("sqrt(2)", "1/3"),
                                ("1/3", "zeta3", "e")])
@pytest.mark.parametrize("prec", [16, 96, 200])
def test_scan_candidate_value_matches_the_prefix_sum(xi, prec):
    """A candidate's value is _form(basis, a, p, w) of its dual point a: the
    old prefix sum plus a_p bit for bit when at most one label is nonzero
    (the two terms are added exactly and rounded once, in either order),
    and otherwise, summed in another order, a ball of the same value: both
    hold the one mpmath gives at 4x the precision."""
    rng = random.Random(f"{xi}{prec}")
    basis = Basis(tuple(parse_real(x) for x in xi))
    p = basis.p
    with mpmath.workprec(4 * prec):
        x = [_MP_XI[e]() for e in xi]
    for _ in range(100):
        labels = sorted(rng.sample(range(1, p), rng.randint(1, p - 1)))
        delta = [rng.randint(1, 5) for _ in range(p)]
        prefix = [rng.choice([0, rng.randint(-10 ** 4, 10 ** 4)])
                  for _ in labels]
        kp = rng.randint(-10 ** 4, 10 ** 4)
        a = criteria._dual_point(p, labels, prefix, delta, kp).a
        got = criteria._form(basis, a, p, prec)
        want = (_old_prefix_ball(basis, prefix, labels, delta, prec)
                + Fraction(kp, delta[p - 1]))
        if sum(m != 0 for m in prefix) <= 1:
            assert (got._m, got._r, got._e, got.prec) == \
                (want._m, want._r, want._e, want.prec)
        with mpmath.workprec(4 * prec):
            ref = mpmath.mpf(a[p - 1].numerator) / a[p - 1].denominator
            for j in range(p - 1):
                ref += x[j] * a[j].numerator / a[j].denominator
            sign, man, exp, _ = ref._mpf_
        ref = Fraction(-man if sign else man) * Fraction(2) ** exp
        tol = (abs(ref) + 1) / 2 ** (4 * prec - 4)   # mpmath's own rounding
        for ball in (got, want):
            assert ball.lower - tol <= ref <= ball.upper + tol


# -- scale reduction ---------------------------------------------------------

def test_reduce_scale_golden_example():
    qp, eps2 = reduce_scale(100, Fraction(1, 5), GOLDEN, prec=96)
    assert eps2 == Fraction(1, 10)
    assert abs(qp.mid - 489) < 1
    assert qp.rad < Fraction(1, 2**40)


def test_reduce_scale_grows_for_eps2():
    for Q in (2, 10, 100):
        qp, eps2 = reduce_scale(Q, 2, GOLDEN, prec=96)
        assert eps2 == 1
        assert tri_compare(qp, Q) is TriBool.TRUE


def test_reduce_scale_preconditions():
    with pytest.raises(ValidationError):
        reduce_scale(1, Fraction(1, 5), GOLDEN)
    with pytest.raises(ValidationError):
        reduce_scale(10, 0, GOLDEN)


# ---------------------------------------------------------------------------
# the prefix odometer
# ---------------------------------------------------------------------------

def _eager_odometer(ranges):
    """The odometer as itertools.product over whole axes plus a filter."""
    def signed(R):
        return [] if R < 0 else [0] + [s * k for k in range(1, R + 1) for s in (1, -1)]
    every = itertools.product(*map(signed, ranges))
    return [pre for pre in every if next(filter(None, pre), 0) >= 0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 4), min_size=0, max_size=4))
def test_odometer_matches_product_and_filter(ranges):
    estimate, prefixes = _odometer(ranges, 10 ** 9)
    assert list(prefixes) == _eager_odometer(ranges)
    assert estimate == prod(2 * R + 1 for R in ranges)


def test_odometer_is_lazy(monkeypatch):
    """The first 10 prefixes of a 10^6 x 10^6 box draw a handful of axis
    values, not the 4 * 10^6 that materialising both axes would."""
    drawn = []
    signed = criteria._signed

    def counting(R, negative=True):
        for m in signed(R, negative):
            drawn.append(m)
            yield m

    monkeypatch.setattr(criteria, "_signed", counting)
    _, prefixes = _odometer([10 ** 6, 10 ** 6], 10 ** 13)
    first = list(itertools.islice(prefixes, 10))
    assert first == [(0, k) for k in range(10)]
    assert len(drawn) <= 12


def test_reports_past_the_int_str_digit_limit():
    """Reports of records with 5000-digit coefficients serialize: the
    recurrence fits, the window determinant and a dual witness carry
    integers past Python's 4300-digit int/str limit."""
    from latforms.numerics import decimal_to_int, int_to_decimal
    rng = random.Random(3)
    Q = 10 ** 5000
    recs = []
    for n in range(1, 7):
        Q += rng.getrandbits(16000)
        recs.append(FormRecord(n=n, Q=Q, ell=(rng.getrandbits(16000), Q),
                               delta=(1, 1)))
    rep = check_siegel(FormSequence(recs), Basis((parse_real("golden"),)),
                       1, 2)
    out = rep.to_json()
    assert decimal_to_int(out["det_n2"]) == rep.det_n2
    for n, fit in rep.fits.items():
        for text, a in zip(out["alpha"][str(n)], fit.alpha):
            num, _, den = text.partition("/")
            assert Fraction(decimal_to_int(num), decimal_to_int(den or "1")) == a
    assert max(len(t) for ts in out["alpha"].values() for t in ts) > 4300
    big = Fraction(7 ** 6000, 3)
    assert DualPoint((big, Fraction(1))).to_json() == \
        [int_to_decimal(big.numerator) + "/3", "1"]


# ---------------------------------------------------------------------------
# convergent denominators
# ---------------------------------------------------------------------------

def _expansion_denominators(x, R):
    """The distinct convergent denominators <= R of a rational x."""
    n, d = x.numerator, x.denominator
    out, q_prev, q = [1], 0, 1
    n, d = d, n - n // d * d
    while d and R >= 1:
        a = n // d
        q_prev, q = q, a * q + q_prev
        if q > R:
            break
        if q > out[-1]:
            out.append(q)
        n, d = d, n - a * d
    return out if R >= 1 else []


def test_cf_denominators_least_approximation_is_listed():
    """Rational x: the list is the plain expansion, and the least m in
    1..R with ||m x|| <= t is always on it (best approximations of the
    second kind are convergents)."""
    rng = random.Random(11)
    for _ in range(400):
        x = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 3000))
        R = rng.randrange(0, 400)
        qs, start = criteria._cf_denominators(x, x, R)
        assert (qs, start) == (_expansion_denominators(x, R), R + 1)
        t = Fraction(rng.randrange(0, 500), rng.randrange(1, 4000))
        least = next((m for m in range(1, R + 1)
                      if abs(m * x - round(m * x)) <= t), None)
        assert least is None or least in qs


def test_cf_denominators_hold_across_the_interval():
    """Below the returned start the list is the list of every probe in the
    interval (both ends and 96 rationals between them); a start of R + 1
    certifies the whole list."""
    rng = random.Random(12)
    certified = partial = 0
    for _ in range(400):
        lo = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        hi = lo + Fraction(rng.randrange(0, 50), 10 ** rng.randrange(2, 12))
        R = rng.randrange(0, 3000)
        qs, start = criteria._cf_denominators(lo, hi, R)
        assert 1 <= start <= R + 1 and all(q <= R for q in qs)
        probes = [lo, hi] + [lo + (hi - lo) * Fraction(k, 97)
                             for k in range(1, 97)]
        lists = {tuple(q for q in _expansion_denominators(y, R) if q < start)
                 for y in probes}
        assert lists == {tuple(q for q in qs if q < start)}
        if start == R + 1:
            certified += 1
        else:
            partial += 1
    assert certified > 100 and partial > 10


def test_convergents_escalate_and_refuse_a_fixed_width():
    """golden's convergents up to 10^20 need more than the 96 start bits
    and are certified at 192; a fixed-width handle is read from its exact
    interval, never asked for a ball, and gives the partial list of its
    ends."""
    golden = parse_real("golden")
    asked = []
    at = golden.at
    golden.at = lambda prec: asked.append(prec) or at(prec)
    qs, start, bits = criteria._convergents(Basis((golden,), 65536), 1,
                                            Fraction(1), 10 ** 20, 96)
    f = _fib(120)
    assert qs == [q for q in f[2:] if q <= 10 ** 20]
    assert (start, bits) == (10 ** 20 + 1, 192)
    assert asked == [96, 192]
    fixed = parse_real("0.5±0.01")
    asked.clear()
    at_fixed = fixed.at
    fixed.at = lambda prec: asked.append(prec) or at_fixed(prec)
    assert criteria._convergents(Basis((fixed,), 65536), 1, Fraction(1),
                                 10 ** 6, 96) == ([1], 1, 96)
    assert asked == []
