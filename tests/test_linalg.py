"""Matrix layer: hand cases plus seeded algebraic property checks."""

import random

import pytest

from test_decomp import poly_at
from test_kernels import TOWERS

from invofactor import InputError, SingularMatrixError, field_make
from invofactor.forms import (
    hermitian_form,
    least_nonsquare,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
)
from invofactor.linalg import (
    Mat,
    block_diag,
    conj_product,
    gram,
    hstack,
    left_factors,
    mat_from_serialized,
    monomial_rows,
    vstack,
)


def rand_mat(F, m, n, rng):
    return Mat.from_rows(F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(m)])


def test_constructors_and_access():
    F = field_make(5, 1)
    A = Mat.from_rows(F, [[1, 2], [3, 4]])
    assert A[0, 1] == F.scalar(2)
    assert A.shape == (2, 2)
    assert Mat.identity(F, 2) == Mat.from_rows(F, [[1, 0], [0, 1]])
    assert Mat.diag(F, [2, 3]) == Mat.from_rows(F, [[2, 0], [0, 3]])
    assert Mat.column(F, [F.one, F.zero]).shape == (2, 1)
    assert A.col_entries(1) == (F.scalar(2), F.scalar(4))
    with pytest.raises(InputError):
        Mat.from_rows(F, [[1, 2], [3]])


def test_matmul_hand_case():
    F = field_make(5, 1)
    A = Mat.from_rows(F, [[1, 2], [3, 4]])
    B = Mat.from_rows(F, [[0, 1], [1, 1]])
    assert A @ B == Mat.from_rows(F, [[2, 3], [4, 2]])


def test_det_and_inv_hand_case():
    F = field_make(5, 1)
    A = Mat.from_rows(F, [[1, 2], [3, 4]])
    assert A.det() == F.scalar(3)  # 4 - 6 = -2
    assert A @ A.inv() == Mat.identity(F, 2)
    with pytest.raises(SingularMatrixError):
        Mat.from_rows(F, [[1, 2], [2, 4]]).inv()
    assert Mat.from_rows(F, [[1, 2], [2, 4]]).det() == F.zero


@pytest.mark.parametrize("params", [(5, 1), (2, 1), (3, 1, "quadratic"), (2, 1, "quadratic")])
def test_ring_properties_seeded(params):
    F = field_make(*params)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 5)
        A, B, C = (rand_mat(F, n, n, rng) for _ in range(3))
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ (B + C) == A @ B + A @ C
        assert (A @ B).T == B.T @ A.T
        assert (A @ B).conj() == A.conj() @ B.conj()
        assert (A @ B).det() == A.det() * B.det()
        assert A @ Mat.identity(F, n) == A
        if A.det():
            assert A @ A.inv() == Mat.identity(F, n) == A.inv() @ A


def test_rref_rank_kernel():
    F = field_make(3, 1)
    A = Mat.from_rows(F, [[1, 2, 0], [0, 1, 0], [0, 0, 0]])
    R, piv = A.rref()
    assert piv == [0, 1]
    assert A.rank() == 2
    K, free = A.right_kernel_basis()
    assert free == [2] and K.shape == (3, 1)
    assert (A @ K).is_zero()
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        M = rand_mat(F, m, n, rng)
        K, free = M.right_kernel_basis()
        assert K.nrows == n and len(free) == n - M.rank()
        if free:
            # the rows at free form the identity, so the columns are independent
            assert (M @ K).is_zero()
            assert Mat(F, tuple(K.rows[i] for i in free)) == Mat.identity(F, len(free))


def test_solve_right():
    F = field_make(5, 1)
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 5)
        A = rand_mat(F, n, n, rng)
        x = rand_mat(F, n, 1, rng)
        b = A @ x
        got = A.solve_right(b)
        assert got is not None and A @ got == b
    # inconsistent system
    A = Mat.from_rows(F, [[1, 0], [1, 0]])
    b = Mat.column(F, [F.one, F.zero])
    assert A.solve_right(b) is None


def test_stack_and_block_diag():
    F = field_make(3, 1)
    A = Mat.from_rows(F, [[1, 2]])
    B = Mat.from_rows(F, [[0, 1]])
    assert vstack([A, B]) == Mat.from_rows(F, [[1, 2], [0, 1]])
    assert hstack([A.T, B.T]) == Mat.from_rows(F, [[1, 0], [2, 1]])
    D = block_diag(F, [Mat.from_rows(F, [[2]]), Mat.from_rows(F, [[1, 1], [0, 1]])])
    assert D == Mat.from_rows(F, [[2, 0, 0], [0, 1, 1], [0, 0, 1]])


def test_poly_at():
    F = field_make(3, 1)
    A = Mat.from_rows(F, [[0, 2], [1, 0]])  # squares to -I
    f = [1, 0, 1]  # T^2 + 1
    assert poly_at(f, A).is_zero()
    assert poly_at([1], A) == Mat.identity(F, 2)
    assert poly_at([], A) == Mat.zeros(F, 2, 2)
    # coefficients are element keys, not GF(p) scalars: a non-monic f whose
    # every coefficient key is >= p, against the sum built from Mat operations
    rng = random.Random(29)
    for E in (field_make(3, 2), field_make(2, 2), field_make(3, 1, "quadratic")):
        B = rand_mat(E, 3, 3, rng)
        c0, c1, c2 = (E.from_int(k) for k in (E.order - 1, E.p, E.p + 1))
        want = Mat.identity(E, 3) * c0 + B * c1 + (B @ B) * c2
        assert poly_at([c0.key, c1.key, c2.key], B) == want


def test_conj_trivial_tower_is_noop():
    F = field_make(5, 1)
    A = Mat.from_rows(F, [[1, 2], [3, 4]])
    assert A.conj() is A


def test_serialize_roundtrip():
    F = field_make(3, 1, "quadratic")
    rng = random.Random(23)
    A = rand_mat(F, 3, 2, rng)
    assert mat_from_serialized(F, A.serialize()) == A
    with pytest.raises(InputError):
        mat_from_serialized(F, [[[0, 0]], [[0, 0], [1, 1]]])


def _standard_grams(F, n):
    # the Gram of every standard space the tower carries, in dimension n
    if F.has_conj:
        return [hermitian_form(F, n).J]
    out = [symplectic_form(F, n).J]
    if F.p != 2:
        out += [orthogonal_plus_form(F, n).J, orthogonal_minus_form(F, n).J]
    return out


def _monomial_gram(F, n, rng):
    # one nonzero per row, non-unit entries where the field has them, and
    # column 1 hit twice (so column 0 is never hit)
    cols = [1, 1] + list(range(2, n))
    rng.shuffle(cols)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(cols):
        rows[i][j] = rng.randrange(2, F.order) if F.order > 2 else 1
    return Mat(F, tuple(map(tuple, rows)))


def _dense_gram(F, J, rng):
    # J in a random basis: P^T J conj(P), redrawn until no row is monomial
    while True:
        P = rand_mat(F, J.nrows, J.ncols, rng)
        G = P.T @ J @ P.conj()
        if P.det() and all(r.count(0) < len(r) - 1 for r in G.rows):
            return G


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_gram_primitive_matches_two_products(spec):
    # on every tower class: each standard Gram and a row-monomial one take
    # the gather, a changed-basis Gram the two products, and all equal
    # A^T @ G @ conj(B) made by two products, for square and rectangular
    # A and B; left_factors, whose G is nonsingular (the row-monomial one
    # here is not), equals A^T @ G for each of three A
    F = field_make(*spec)
    rng = random.Random(f"gram:{F!r}")
    n = 4
    standard = _standard_grams(F, n)
    dense = _dense_gram(F, standard[0], rng)
    for G in standard + [dense]:
        mats = [rand_mat(F, n, n, rng) for _ in range(3)]
        assert left_factors(G, mats) == [(A.T @ G).rows for A in mats]
    for G in standard + [_monomial_gram(F, n, rng), dense]:
        pattern = monomial_rows(G)
        assert (pattern is None) == (G is dense)
        if pattern is not None:
            assert pattern == [
                next((j, x) for j, x in enumerate(r) if x) for r in G.rows
            ]
        for k, m in ((n, n), (1, 3), (3, 2)):
            A, B = rand_mat(F, n, k, rng), rand_mat(F, n, m, rng)
            assert conj_product(G, B) == G @ B.conj()
            assert gram(A, G, B) == A.T @ G @ B.conj()
            assert gram(A, G, B).shape == (k, m)


def test_monomial_rows_rejects_zero_and_dense_rows():
    F = field_make(7)
    assert monomial_rows(Mat.from_rows(F, [[0, 3], [5, 0]])) == [(1, 3), (0, 5)]
    assert monomial_rows(Mat.from_rows(F, [[0, 3], [0, 0]])) is None
    assert monomial_rows(Mat.from_rows(F, [[1, 3], [5, 0]])) is None
    assert monomial_rows(Mat.from_rows(F, [[0]])) is None
    assert monomial_rows(Mat.from_rows(F, [[2]])) == [(0, 2)]
    # the anisotropic plane diag(1, -delta) of the minus-type space
    delta = least_nonsquare(F)
    J = orthogonal_minus_form(F, 4).J
    assert monomial_rows(J) == [(1, 1), (0, 1), (2, 1), (3, (-delta).key)]


def test_gram_primitive_rejects_mismatched_operands():
    F, E = field_make(5), field_make(3)
    G = Mat.identity(F, 2)
    with pytest.raises(InputError):
        conj_product(G, Mat.identity(F, 3))
    with pytest.raises(InputError):
        conj_product(G, Mat.identity(E, 2))
    with pytest.raises(InputError):
        gram(Mat.identity(F, 3), G, Mat.identity(F, 2))
