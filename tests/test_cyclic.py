"""Cyclic-space arithmetic in companion coordinates against the matrix
constructions it replaced.

On a cyclic space Z(v) with Krylov basis K(v), g acts by the companion
matrix C of v's annihilator, so C^(-1), g^m y and gamma(C) are coordinate
shifts.  The references below are the replaced constructions: C.inv() for
the cyclic involution, a.inv() and matrix products for the powers g^m y of
the pairing correction, and Horner's rule on C for the multiplication by
gamma.  The last test pins the design: the self-paired blocks invert no
matrix."""

import importlib
import random

import pytest
from test_decomp import companion, poly_at
from test_kernels import TOWERS
from test_self_paired import _shapes

from invofactor import (
    factor,
    field_make,
    group_sample,
    hermitian_form,
    symplectic_form,
    verify_certificate,
)
from invofactor.forms import SesquiForm
from invofactor.linalg import Mat, block_diag, gram, hstack
from invofactor.poly import pdeg, pmod, pnormal

fac = importlib.import_module("invofactor.factor")


def reference_cyclic_t(F, beta, C):
    # columns beta^i C^(-i) e_0 through the inverse of the companion C
    cinv = C.inv()
    col = Mat.column(F, [F.one] + [F.zero] * (C.nrows - 1))
    cols = [col]
    for _ in range(C.nrows - 1):
        col = (cinv @ col) * beta
        cols.append(col)
    return hstack(cols)


def reference_gamma(F, beta, a, G, x, y, pe):
    # g^m y for m in [-(D-1), 2D-2] by products with a and its inverse, and
    # one pairing per power
    D = pdeg(pe)
    ymats = {0: y}
    ainv = a.inv()
    for m in range(1, 2 * D - 1):
        ymats[m] = a @ ymats[m - 1]
    for m in range(1, D):
        ymats[-m] = ainv @ ymats[-(m - 1)]

    def val(u, v):
        return gram(u, G, v)[0, 0]

    xg = {m: val(x, ymats[m]) for m in range(-(D - 1), 2 * D - 1)}
    rows = []
    rhs = []
    for i in range(-(D - 1), D):
        rows.append([xg[i + k] for k in range(D)])
        rhs.append((beta**i) * val(ymats[-i], x))
    sol = Mat.from_rows(F, rows).solve_right(Mat.column(F, rhs))
    assert sol is not None
    return pmod(pnormal([F.conj(r[0]) for r in sol.rows]), pe, F)


def _monic(F, D, rng, unit=False):
    f = [rng.randrange(F.order) for _ in range(D)] + [1]
    if unit:
        f[0] = rng.randrange(1, F.order)
    return f


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_cyclic_t_equals_the_inverse_construction(spec):
    F = field_make(*spec)
    rng = random.Random(f"cyclic_t:{spec}")
    for D in (1, 2, 3, 4, 6):
        ann = _monic(F, D, rng, unit=True)
        beta = F.from_int(rng.randrange(1, F.order))
        assert fac._cyclic_t(F, beta, ann) == reference_cyclic_t(F, beta, companion(F, ann))


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_gamma_multiplication_equals_horner_on_the_companion(spec):
    F = field_make(*spec)
    rng = random.Random(f"times:{spec}")
    for D in (1, 2, 3, 4, 6):
        pe = _monic(F, D, rng)
        for f in ([], [1], pnormal([rng.randrange(F.order) for _ in range(D)])):
            assert fac._times_matrix(F, f, pe) == poly_at(f, companion(F, pe))


def _hyperbolic_hermitian(E, n):
    m = n // 2
    J = [[int(j == (i + m) % n) for j in range(n)] for i in range(n)]
    return SesquiForm(E, "hermitian", Mat.from_rows(E, J))


def _unitary_jordan_pair(E):
    # diag(A, conj(A)^-T) on the hyperbolic U4, A = [[lam, 1], [0, lam]]
    # with lam conj(lam) = 1 and lam != conj(lam): one self-paired component
    # with minimal polynomial (T - lam)^2, whose Krylov planes of e_1 and
    # e_2 are the two totally isotropic halves
    lam = next(e for e in E.elements() if e * e.conj() == E.one and e != e.conj())
    A = Mat.from_rows(E, [[lam, E.one], [E.zero, lam]])
    return block_diag(E, [A, A.conj().inv().T])


def test_gamma_equals_the_inverse_construction(monkeypatch):
    # every _gamma call of the cyclic pairs of Sp4 and Sp6(F1009) -I, of a
    # characteristic-2 sample with a 4-dimensional cyclic pair, of 3 times
    # a unipotent Sp8(F1009) element whose scan uses up its limit (beta = 9
    # and D = 4, so powers beta^i with i != 0 enter), and of a U4(F49)
    # element.  A hermitian space this small always has a nondegenerate
    # cyclic candidate, so for U4 the scan is made to find none and the
    # block falls through to a cyclic pair of its isotropic Krylov planes;
    # the final verification shows that pair is sound
    real_block, real_gamma = fac._self_paired_block, fac._gamma
    current, calls = [], []

    def block(form, beta, a, G, p_, e, factors):
        current.append(a)
        try:
            return real_block(form, beta, a, G, p_, e, factors)
        finally:
            current.pop()

    def gamma(F, beta, eps, G, x, Ky, pe):
        got = real_gamma(F, beta, eps, G, x, Ky, pe)
        assert got == reference_gamma(F, beta, current[-1], G, x, Ky.col(0), pe)
        calls.append(pdeg(pe))
        return got

    monkeypatch.setattr(fac, "_self_paired_block", block)
    monkeypatch.setattr(fac, "_gamma", gamma)
    F = field_make(1009)
    F2 = field_make(2)
    sp2 = symplectic_form(F2, 4)
    cases = [(symplectic_form(F, n), -Mat.identity(F, n)) for n in (4, 6)]
    cases.append((sp2, group_sample(sp2, seed=12)[0]))
    h = Mat.from_rows(F, [[int(i in (j, j + 4)) for j in range(8)] for i in range(8)])
    cases.append((symplectic_form(F, 8), h @ _shapes(F, 8)[4] @ h.inv() * F.from_int(3)))
    for form, g in cases:
        assert verify_certificate(form, g, factor(form, g)).passed
    assert {1, 2, 4} <= set(calls), calls
    E = field_make(7, 1, "quadratic")
    form, g = _hyperbolic_hermitian(E, 4), _unitary_jordan_pair(E)
    monkeypatch.setattr(fac, "_nondegenerate", lambda F, D, ent: 0)
    calls.clear()
    cert = factor(form, g)
    assert verify_certificate(form, g, cert).passed
    assert calls == [2] and [b["case"] for b in cert.blocks] == ["cyclic_pair"]


def test_self_paired_blocks_invert_no_matrix(monkeypatch):
    # _split on elements whose blocks are all cyclic or cyclic pairs: Sp4
    # and Sp6(F1009) -I (cyclic pairs) and a U4(F49) sample whose blocks are
    # four cyclic lines.  Inverting C for each cyclic involution and a for
    # each pairing correction made inverses of sizes [6, 1, 4, 1, 2, 1] on
    # Sp6
    real_inv, real_split = Mat.inv, fac._split
    depth, sizes = [0], []

    def inv(M):
        if depth[0]:
            sizes.append(M.nrows)
        return real_inv(M)

    def split(*args):
        depth[0] += 1
        try:
            return real_split(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Mat, "inv", inv)
    monkeypatch.setattr(fac, "_split", split)
    F = field_make(1009)
    cases = [(symplectic_form(F, n), -Mat.identity(F, n)) for n in (4, 6)]
    u4 = hermitian_form(field_make(7, 1, "quadratic"), 4)
    cases.append((u4, group_sample(u4, seed=65)[0]))
    shapes = []
    for form, g in cases:
        cert = factor(form, g)
        assert verify_certificate(form, g, cert).passed
        shapes.append([(b["case"], b["dim"]) for b in cert.blocks])
    assert shapes[2] == [("cyclic", 1)] * 4
    assert all(case in ("cyclic", "cyclic_pair") for s in shapes for case, _ in s)
    assert sizes == []
