"""Endomorphism structure: oracle checks for minimal polynomials and the
companion-block normal form.  companion, krylov_span and poly_at are
reference code for these and the other test modules; the library needs
none of them (it evaluates polynomials on vectors, decomp.poly_column)."""

import random
import sys

import pytest
from test_kernels import TOWERS

from invofactor import decomp as dec
from invofactor import (
    factor,
    field_make,
    group_sample,
    hermitian_form,
    symmetric_conjugator,
    symplectic_form,
)
from invofactor.decomp import frobenius_form, minimal_polynomial, restrict
from invofactor.factor import _component
from invofactor.linalg import Mat, block_diag, hstack, vstack
from invofactor.poly import factorize, pdeg, pmod, pmul, pnormal, ppow


def companion(tower, f):
    """Companion matrix of the key polynomial f: sends basis vector i to
    i+1, the last to -coefficients."""
    d = pdeg(f)
    assert d >= 1 and f[-1] == 1, "companion needs a monic of positive degree"
    rows = []
    for i in range(d):
        row = [0] * d
        if i > 0:
            row[i - 1] = 1
        row[d - 1] = tower.neg(f[i])
        rows.append(tuple(row))
    return Mat(tower, tuple(rows))


def krylov_span(g, v):
    """(basis, annihilator): basis columns v, gv, ..., g^(d-1) v, and the
    monic least annihilator of v under g (a poly.py key list), from the
    library's incremental elimination."""
    assert not v.is_zero(), "Krylov span of the zero vector"
    F = g.tower
    return dec._krylov_span(F, F.matvec(g.rows), [r[0] for r in v.rows])


def poly_at(f, A):
    """The key polynomial f evaluated at the square matrix A, by Horner's
    rule on whole matrices."""
    F = A.tower
    n = A.nrows
    if not f:
        return Mat.zeros(F, n, n)
    # the leading coefficient is a key: Mat.diag would reduce it mod p
    acc = Mat(F, tuple(tuple(f[-1] if i == j else 0 for j in range(n)) for i in range(n)))
    for c in reversed(f[:-1]):
        rows = [list(r) for r in (acc @ A).rows]
        for i in range(n):
            rows[i][i] = F.add(rows[i][i], c)
        acc = Mat(F, tuple(tuple(r) for r in rows))
    return acc


def rand_mat(F, n, rng):
    return Mat.from_rows(F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(n)])


def oracle_minpoly(A):
    # first linear dependence among vec(I), vec(A), vec(A^2), ...
    F = A.tower
    n = A.nrows
    pows = [Mat.identity(F, n)]
    for d in range(1, n + 1):
        pows.append(pows[-1] @ A)
        cols = [Mat.column(F, [P[i, j] for i in range(n) for j in range(n)]) for P in pows]
        B = hstack(cols[:-1])
        x = B.solve_right(cols[-1])
        if x is not None:
            return [F.neg(r[0]) for r in x.rows] + [1]
    raise AssertionError("unreachable")


@pytest.mark.parametrize("params", [(2, 1), (3, 1), (5, 1), (3, 1, "quadratic")])
def test_minimal_polynomial_against_oracle(params):
    F = field_make(*params)
    rng = random.Random(31)
    for _ in range(30):
        A = rand_mat(F, rng.randrange(1, 5), rng)
        mp = minimal_polynomial(A)
        assert mp == oracle_minpoly(A)
        assert poly_at(mp, A).is_zero()


def _invertible(F, n, rng):
    while True:
        P = rand_mat(F, n, rng)
        if P.det():
            return P


def _structured(F, n, rng):
    """A scalar matrix, a block diagonal repeating one random block (with a
    smaller random block to fill n), and c I + N for N nilpotent with
    Jordan blocks of random sizes: minimal polynomials of degree well below
    n, where most columns add nothing to the polynomial found so far."""
    c = F.from_int(rng.randrange(1, F.order))
    yield Mat.identity(F, n) * c
    b = rng.randrange(1, 5)
    blocks = [rand_mat(F, b, rng)] * (n // b)
    if n % b:
        blocks.append(rand_mat(F, n % b, rng))
    yield block_diag(F, blocks)
    rows = [[c if i == j else F.zero for j in range(n)] for i in range(n)]
    start = 0
    while start < n:
        size = rng.randrange(1, n - start + 1)
        for i in range(start, start + size - 1):
            rows[i][i + 1] = F.one
        start += size
    yield Mat.from_rows(F, rows)


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_structured_minimal_polynomial_against_oracle(spec):
    # up to n = 12 on every tower class, each matrix plain and conjugated by
    # a random invertible matrix
    F = field_make(*spec)
    rng = random.Random(f"structured:{F.order}")
    for n in (12, rng.randrange(2, 12)):
        for A in _structured(F, n, rng):
            P = _invertible(F, n, rng)
            for B in (A, P @ A @ P.inv()):
                mp = minimal_polynomial(B)
                assert mp == oracle_minpoly(B)
                assert poly_at(mp, B).is_zero()


def test_companion_minpoly_roundtrip():
    F = field_make(3, 1)
    f = [2, 1, 0, 1]  # T^3 + T + 2
    C = companion(F, f)
    assert minimal_polynomial(C) == f
    # companion columns: e0 -> e1 -> e2 -> -coeffs
    assert C.col_entries(0) == (F.zero, F.one, F.zero)
    assert C.col_entries(2) == (F.scalar(-2), F.scalar(-1), F.zero)
    # a key above p is an element of GF(9), not a GF(3) scalar
    E9 = field_make(3, 2)
    g = [E9.elem([1, 1]).key, E9.elem([0, 2]).key, 1]
    assert companion(E9, g).col_entries(1) == (-E9.elem([1, 1]), -E9.elem([0, 2]))
    assert minimal_polynomial(companion(E9, g)) == g


def reference_krylov(A, v):
    # the solve-based span: re-solve the growing Krylov matrix at every step
    F = A.tower
    cols = [v]
    w = A @ v
    while True:
        B = hstack(cols)
        x = B.solve_right(w)
        if x is not None:
            return B, [F.neg(r[0]) for r in x.rows] + [1]
        cols.append(w)
        w = A @ w


def test_krylov_span_and_annihilator():
    for params in [(5, 1), (2, 1), (2, 12), (3, 11), (101, 1, "quadratic"), (65537, 1)]:
        _check_krylov_span(field_make(*params), random.Random(7))


def _check_krylov_span(F, rng):
    degs = {"full": 0, "short": 0}
    for trial in range(40):
        n = rng.randrange(1, 9)
        A = rand_mat(F, n, rng)
        v = Mat.column(F, [F.from_int(rng.randrange(F.order)) for _ in range(n)])
        if trial % 2:
            # v inside the invariant span of the first k basis vectors of a
            # block upper-triangular A: the annihilator has degree <= k < n
            k = rng.randrange(1, n) if n > 1 else 1
            A = Mat.from_rows(
                F, [[A[i, j] if i < k or j >= k else F.zero for j in range(n)] for i in range(n)]
            )
            v = Mat.column(F, [v[i, 0] if i < k else F.zero for i in range(n)])
        if v.is_zero():
            continue
        B, ann = krylov_span(A, v)
        assert (B, ann) == reference_krylov(A, v)
        degs["full" if pdeg(ann) == n else "short"] += 1
        assert B.rank() == B.ncols == pdeg(ann)
        assert (poly_at(ann, A) @ v).is_zero()
        # least: the length-minus-one prefix does not annihilate
        if pdeg(ann) > 1:
            shorter = ann[1:]
            assert not (poly_at(pnormal(shorter), A) @ v).is_zero() or not pnormal(shorter)
    assert degs["full"] and degs["short"], degs


def test_primary_components_structure():
    F = field_make(3, 1)
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randrange(2, 6)
        A = rand_mat(F, n, rng)
        mp = minimal_polynomial(A)
        fac = factorize(mp, F)
        apply = F.matvec(A.rows)
        comps = [(p_, e, *_component(A, apply, fac, p_, e)) for p_, e in fac]
        assert sum(b.ncols for _, _, b, _ in comps) == n
        for p_, e, basis, free in comps:
            X = restrict(A, basis, free)
            assert basis @ X == A @ basis
            assert minimal_polynomial(X) == ppow(p_, e, F)


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_poly_column_is_a_column_of_the_reference_evaluation(spec):
    # f(A) e_j through the tower's matvec against Horner's rule on whole
    # matrices, for non-monic f whose coefficient keys reach p and beyond
    # (keys, not GF(p) scalars), with zero coefficients among them
    F = field_make(*spec)
    rng = random.Random(f"poly_column:{spec}")
    for n in (1, 3, 5):
        A = rand_mat(F, n, rng)
        apply = F.matvec(A.rows)
        fs = [[F.order - 1], [F.order - 1, 0, F.order - 1]]
        fs += [[rng.randrange(F.order) for _ in range(d)] + [rng.randrange(1, F.order)] for d in (1, 2, 4)]
        for f in fs:
            got = [dec.poly_column(F, apply, f, j, n) for j in range(n)]
            assert Mat(F, tuple(zip(*got))) == poly_at(f, A)


def test_component_evaluates_its_polynomial_by_one_matvec(monkeypatch):
    # _component builds p^e(a) column by column through the caller's matvec
    # of a, preparing none and making no matrix product, and spans the
    # kernel of the reference p^e(a):
    # over GF(7), a = diag(C((T^2 + 1)^2), C(T - 3), C(T - 3)), whose
    # components are not the whole space
    F = field_make(7)
    a = block_diag(F, [companion(F, ppow([1, 0, 1], 2, F)), companion(F, [4, 1]), companion(F, [4, 1])])
    fac = factorize(minimal_polynomial(a), F)
    assert sorted(fac) == [([1, 0, 1], 2), ([4, 1], 1)]
    real_matvec = F.matvec
    for p_, e in fac:
        want = poly_at(ppow(p_, e, F), a).right_kernel_basis()[0]
        built = []

        def matvec(rows):
            built.append(rows)
            return real_matvec(rows)

        def matmul(self, other):
            raise AssertionError("_component made a matrix product")

        apply = real_matvec(a.rows)
        monkeypatch.setattr(F, "matvec", matvec)
        monkeypatch.setattr(Mat, "__matmul__", matmul)
        U, free = _component(a, apply, fac, p_, e)
        monkeypatch.undo()
        assert built == []
        assert U == want
        assert Mat(F, tuple(U.rows[i] for i in free)) == Mat.identity(F, U.ncols)


def test_frobenius_form_properties():
    # frobenius_form takes one primary component: every component of each
    # random matrix
    for params in [(2, 1), (3, 1), (5, 1), (2, 1, "quadratic")]:
        F = field_make(*params)
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randrange(1, 6)
            M = rand_mat(F, n, rng)
            fac = factorize(minimal_polynomial(M), F)
            apply = F.matvec(M.rows)
            for p_, e in fac:
                A = restrict(M, *_component(M, apply, fac, p_, e))
                B, factors = frobenius_form(A)
                assert B.det()
                assert sum(pdeg(f) for f in factors) == A.nrows
                assert factors[0] == minimal_polynomial(A) == ppow(p_, e, F)
                for i in range(len(factors) - 1):
                    assert not pmod(factors[i], factors[i + 1], F)
                want = block_diag(F, [companion(F, f) for f in factors])
                assert B.inv() @ A @ B == want


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_restrict_equals_the_solved_restriction(monkeypatch, spec):
    # restrict reads g on an invariant subspace off the unit rows of its
    # kernel basis; on every basis the library restricts to, it equals the
    # X that solves basis X = g basis: primary components (through
    # symmetric_conjugator), complements of factor's blocks (conj of a kernel
    # basis) and the complements frobenius_form peels.  a = P^(-1) diag(C(T),
    # C(T), C(T^2 + T + 1)) P has two proper components, and ker a has two
    # invariant factors T, so frobenius_form peels one
    F = field_make(*spec)
    rng = random.Random(f"restrict:{spec}")
    fac_mod = sys.modules["invofactor.factor"]
    real, real_ortho = dec.restrict, fac_mod._orthocomplement
    complements, seen = [], []

    def checked(where):
        def restrict(g, basis, free):
            X = real(g, basis, free)
            assert X == basis.solve_right(g @ basis)
            kind = "complement" if any(basis is c for c in complements) else where
            seen.append((kind, len(free) < g.nrows))
            return X

        return restrict

    def orthocomplement(G, basis):
        out = real_ortho(G, basis)
        complements.append(out[0])
        return out

    monkeypatch.setattr(dec, "restrict", checked("frobenius"))
    monkeypatch.setattr(fac_mod, "restrict", checked("component"))
    monkeypatch.setattr(fac_mod, "_orthocomplement", orthocomplement)
    D = block_diag(F, [companion(F, [0, 1]), companion(F, [0, 1]), companion(F, [1, 1, 1])])
    while True:
        P = rand_mat(F, 4, rng)
        if P.det():
            break
    symmetric_conjugator(P.inv() @ D @ P)
    form = hermitian_form(F, 3) if F.has_conj else symplectic_form(F, 4)
    for g in group_sample(form, seed=f"restrict:{spec}", count=8):
        factor(form, g)
        if ("complement", True) in seen:
            break
    proper = {kind for kind, part in seen if part}
    assert proper == {"component", "complement", "frobenius"}, seen


def test_frobenius_form_known_shapes():
    F = field_make(3, 1)
    # identity: n one-dimensional blocks T - 1
    I3 = Mat.identity(F, 3)
    lin = [2, 1]  # T - 1, the minimal polynomial
    _, factors = frobenius_form(I3)
    assert factors == [lin, lin, lin]
    # a single Jordan-like nilpotent of full rank deficiency: one block T^2, one T
    N = Mat.from_rows(F, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    _, factors = frobenius_form(N)  # mp = T^2
    assert factors == [[0, 0, 1], [0, 1]]


def test_minimal_polynomial_packs_its_matrix_once(monkeypatch):
    # all column spans and residuals apply the one matvec of g, and over a
    # prime field (g with at least fields._PACK_ROWS rows) a Krylov step is
    # one packed product, not a dot product per row.  mp(diag(5 I_2, J_4(7)))
    # over GF(101) has degree 5 < 6, so every column is reached; e_1's
    # residual (g - 5) e_1 is zero and spans nothing, and each other column
    # spans only its residual, so the annihilators spanned multiply to mp.
    # Spanning every column in full made 6 spans of total degree 12
    F = field_make(101)
    n = 6
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[1][1] = 5
    for i in range(2, n):
        rows[i][i] = 7
        if i + 1 < n:
            rows[i][i + 1] = 1
    g = Mat.from_rows(F, rows)
    real_matvec, real_span = F.matvec, dec._krylov_span
    built, spans = [], []

    def matvec(rs):
        built.append(rs)
        return real_matvec(rs)

    def span(F_, apply, w):
        K, ann = real_span(F_, apply, w)
        spans.append(pdeg(ann))
        return K, ann

    def dot(xs, ys):
        raise AssertionError("a Krylov step made a per-row dot product")

    monkeypatch.setattr(F, "matvec", matvec)
    monkeypatch.setattr(F, "dot", dot)
    monkeypatch.setattr(dec, "_krylov_span", span)
    mp = minimal_polynomial(g)
    monkeypatch.undo()
    assert mp == pmul([F.neg(5), 1], ppow([F.neg(7), 1], 4, F), F)
    assert len(built) == 1
    assert len(spans) == 5 and sum(spans) == pdeg(mp) == 5
