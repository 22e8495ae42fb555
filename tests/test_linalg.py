"""Matrix layer: hand cases plus seeded algebraic property checks."""

import random

import pytest

from invofactor import InputError, SingularMatrixError, field_make
from invofactor.linalg import (
    Mat,
    block_diag,
    hstack,
    mat_from_serialized,
    poly_at,
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
            assert A ** -2 == (A @ A).inv()
        assert A**3 == A @ A @ A


def test_rref_rank_kernel():
    F = field_make(3, 1)
    A = Mat.from_rows(F, [[1, 2, 0], [0, 1, 0], [0, 0, 0]])
    R, piv = A.rref()
    assert piv == [0, 1]
    assert A.rank() == 2
    ker = A.right_kernel_basis()
    assert len(ker) == 1
    assert (A @ ker[0]).is_zero()
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        M = rand_mat(F, m, n, rng)
        ker = M.right_kernel_basis()
        assert len(ker) == n - M.rank()
        for v in ker:
            assert (M @ v).is_zero()
        if ker:
            assert hstack(ker).rank() == len(ker)


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
