"""The self-paired candidate scan against a per-candidate reference scan:
the same blocks, and far fewer Krylov spans."""

import importlib
import random

import pytest

from invofactor import (
    factor,
    field_make,
    group_sample,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
    verify_certificate,
)
from invofactor.forms import SesquiForm
from invofactor.linalg import Mat, poly_at
from invofactor.poly import pdeg, ppow

fac = importlib.import_module("invofactor.factor")
dec = importlib.import_module("invofactor.decomp")


def _reference_block(form, beta, a, G, p_, e):
    """The reference scan: every candidate vector gets its own krylov_span
    and Gram determinant.  Returns the block and the accepted candidate
    (None when the scan fell through to the cyclic-pair construction)."""
    F = form.tower
    pe = ppow(p_, e, F)
    U = fac._kernel_matrix(pe, a)
    probe = poly_at(ppow(p_, e - 1, F), a)
    cols = [U.col(j) for j in range(U.ncols)]
    x = None
    for i, j, c in fac._candidate_vectors(F, len(cols)):
        v = cols[i] if j is None else cols[i] + cols[j] * F.from_int(c)
        if (probe @ v).is_zero():
            continue
        if x is None:
            x = v
        K, ann = dec.krylov_span(a, v)
        assert ann == pe
        if (K.T @ G @ K.conj()).det():
            return fac._cyclic_block(F, beta, K, ann), (i, j, c)
    Kx, _ = dec.krylov_span(a, x)
    w = probe @ x
    y = next(u for u in cols if fac._val(G, w, u))
    Ky, anny = dec.krylov_span(a, y)
    if (Ky.T @ G @ Ky.conj()).det():
        return fac._cyclic_block(F, beta, Ky, anny), None
    return fac._cyclic_pair_block(form, beta, a, G, Kx, Ky, p_, e), None


def _int_rows(rows, p):
    return [[x % p for x in r] for r in rows]


def _shapes(F, n):
    """I, -I, 5*I, a transvection and the unipotent diag(J_m, J_m^-T) of the
    standard symplectic space (J = [[0, -I], [I, 0]], m = n/2)."""
    m, p = n // 2, F.p
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    tv = [list(r) for r in eye]
    tv[0][m] = 1
    jordan = [[0] * n for _ in range(n)]
    for i in range(m):
        jordan[i][i] = 1
        if i + 1 < m:
            jordan[i][i + 1] = 1
        for j in range(i + 1):
            jordan[m + i][m + j] = (-1) ** (i - j)
    out = [
        Mat.from_rows(F, eye),
        Mat.from_rows(F, _int_rows([[-x for x in r] for r in eye], p)),
        Mat.identity(F, n) * F.from_int(5 % F.order),
        Mat.from_rows(F, tv),
        Mat.from_rows(F, _int_rows(jordan, p)),
    ]
    return out


def _hyperbolic_hermitian(E, n):
    m = n // 2
    J = [[int(j == (i + m) % n) for j in range(n)] for i in range(n)]
    return SesquiForm(E, "hermitian", Mat.from_rows(E, J))


def _cases():
    for p, k in ((1009, 1), (65537, 1), (2, 12)):
        F = field_make(p, k)
        for n in (4, 6) if k == 1 else (4,):
            form = symplectic_form(F, n)
            for g in _shapes(F, n):
                yield form, g
            h = group_sample(form, seed=f"scan:{p}:{n}", count=1)[0]
            for g in _shapes(F, n)[3:]:
                yield form, h @ g @ h.inv()
    go = orthogonal_plus_form(field_make(1009), 4)
    yield go, -Mat.identity(go.tower, 4)
    for E in (field_make(2, 1, "quadratic"), field_make(5, 1, "quadratic")):
        for n in (2, 4):
            form = _hyperbolic_hermitian(E, n)
            yield form, Mat.identity(E, n)
            for g in group_sample(form, seed=f"scan:u{E.order}:{n}", count=6):
                yield form, g
    # [[I, S], [0, I]] with S = [[0, 1], [1, 0]] skew-hermitian over GF(4):
    # minimal polynomial (T - 1)^2, no column and no pair with a conj-fixed
    # scalar spans a nondegenerate plane, so a non-fixed c is accepted
    E4 = field_make(2, 1, "quadratic")
    yield _hyperbolic_hermitian(E4, 4), Mat.from_rows(
        E4, [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    F9 = field_make(3, 2)
    for make in (orthogonal_plus_form, orthogonal_minus_form):
        form = make(F9, 4)
        yield form, -Mat.identity(F9, 4)
        for g in group_sample(form, seed="scan:go9", count=6):
            yield form, g


def test_scan_matches_the_per_candidate_algorithm(monkeypatch):
    real = fac._self_paired_block
    seen = {"column": 0, "pair": 0, "conj_pair": 0, "fallback": 0, "exhausted": 0, "D=3": 0}

    def both(form, beta, a, G, p_, e):
        got = real(form, beta, a, G, p_, e)
        want, hit = _reference_block(form, beta, a, G, p_, e)
        assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
        F = form.tower
        seen["D=3"] += pdeg(ppow(p_, e, F)) == 3
        if hit is None:
            seen["fallback"] += 1
            ncols = fac._kernel_matrix(ppow(p_, e, F), a).ncols
            seen["exhausted"] += ncols * (ncols - 1) // 2 * (F.order - 1) > 512
        elif hit[1] is None:
            seen["column"] += 1
        else:
            seen["pair"] += 1
            seen["conj_pair"] += F.conj(hit[2]) != hit[2] and pdeg(ppow(p_, e, F)) >= 2
        return got

    monkeypatch.setattr(fac, "_self_paired_block", both)
    for form, g in _cases():
        cert = factor(form, g)
        assert verify_certificate(form, g, cert).passed
    # every branch of the scan was compared, including a pair candidate of
    # D = 2 whose scalar is not conj-fixed, a pair that used up the 512 limit
    # and cyclic spaces of dimension 3
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "params",
    [(1009, 1), (2, 12), (3, 11), (2, 1, "quadratic"), (5, 1, "quadratic"), (101, 1, "quadratic")],
    ids=["GF1009", "GF2^12", "GF3^11", "GF2^2", "GF5^2", "GF101^2"],
)
def test_pair_gram_is_the_gram_of_the_combined_krylov_matrix(params):
    # K(col_i + c col_j)^T G conj(K(col_i + c col_j)) from the cross-Grams,
    # for any G and any scalar, conj-fixed or not
    F = field_make(*params)
    rng = random.Random(str(params))

    def rand(m, k):
        rows = [[F.from_int(rng.randrange(F.order)) for _ in range(k)] for _ in range(m)]
        return Mat.from_rows(F, rows)

    def flat(M):
        return [x for r in M.rows for x in r]

    for _ in range(6):
        n, D = rng.randrange(1, 7), rng.randrange(1, 4)
        G, Ki, Kj = rand(n, n), rand(n, D), rand(n, D)
        terms = fac._pair_gram_terms(
            F, *(flat(A.T @ G @ B.conj()) for A, B in ((Ki, Ki), (Ki, Kj), (Kj, Ki), (Kj, Kj)))
        )
        scalars = list(range(1, min(F.order, 30))) + [rng.randrange(1, F.order) for _ in range(20)]
        for c in scalars:
            Kv = Ki + Kj * F.from_int(c)
            assert fac._pair_gram(F, terms, c) == flat(Kv.T @ G @ Kv.conj())


@pytest.mark.parametrize("n", [4, 6])
def test_self_paired_blocks_span_few_krylov_spaces(monkeypatch, n):
    calls = []
    real = dec.krylov_span

    def counted(g, v):
        calls.append(g.nrows)
        return real(g, v)

    monkeypatch.setattr(dec, "krylov_span", counted)
    form = symplectic_form(field_make(1009), n)
    g = -Mat.identity(form.tower, n)
    cert = factor(form, g)
    assert verify_certificate(form, g, cert).passed
    # minimal_polynomial spans every basis vector of each complement (6 + 4
    # + 2 for n = 6); the blocks take their Krylov matrices from the scan's
    # per-column cache and span nothing.  The per-candidate scan spanned
    # over a thousand
    assert len(calls) <= 20
    assert len(calls) == sum(range(n, 0, -2))
