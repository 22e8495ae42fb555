"""Factorization engine: frozen anchors, exhaustive small groups, conjugators."""

import importlib
import json
import random
import time

import pytest
from test_decomp import companion, poly_at
from test_kernels import TOWERS
from test_verify import SURVEY_GROUPS

from invofactor import (
    DetRefinementError,
    InputError,
    InternalInvariantError,
    NotInGroupError,
    cert_from_serialized,
    check_cert,
    dualizing_conjugator,
    factor,
    factor_det_refined,
    field_make,
    group_enumerate,
    group_sample,
    hermitian_form,
    oracle_involution_set,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    standard_reverser,
    survey,
    symmetric_conjugator,
    symmetric_factor,
    symmetric_unitary_conjugator,
    symplectic_form,
    verify_certificate,
)
from invofactor.decomp import restrict
from invofactor.construct import _symmetric_conjugator, _symmetrizer
from invofactor.fields import _least_irreducible
from invofactor.linalg import Mat, block_diag
from invofactor.poly import ppow

fac = importlib.import_module("invofactor.construct")
F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
E9 = field_make(3, 1, "quadratic")


def _ok(form, g, cert):
    report = verify_certificate(form, g, cert)
    assert report.passed, report.failures()
    return cert


def test_transvection_anchor():
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = _ok(sp, g, factor(sp, g))
    assert cert.h1 == Mat.from_rows(F3, [[-1, 0], [0, 1]])
    assert cert.h2 == Mat.from_rows(F3, [[-1, -1], [0, 1]])
    assert [b["case"] for b in cert.blocks] == ["cyclic"]


def test_identity_gives_equal_factors():
    sp = symplectic_form(F5, 2)
    g = Mat.identity(F5, 2)
    cert = _ok(sp, g, factor(sp, g))
    # beta = 1 and h2 = h1 * g, so the factors coincide
    assert cert.h1 == cert.h2 == Mat.from_rows(F5, [[1, 0], [0, -1]])
    # every vector of the symplectic plane is isotropic, so the identity has
    # no nondegenerate invariant line and lands in the paired-cyclic case
    assert [b["case"] for b in cert.blocks] == ["cyclic_pair"]


def test_diagonal_similitude_pairs_off():
    sp = symplectic_form(F5, 2)
    g = Mat.from_rows(F5, [[2, 0], [0, 3]])
    cert = _ok(sp, g, factor(sp, g))
    # eigenvalues 2 and 3 = 1/2 swap under lambda -> beta/lambda
    assert [b["case"] for b in cert.blocks] == ["paired"]
    assert cert.h1 == Mat.from_rows(F5, [[0, -1], [-1, 0]])
    assert cert.h2 == Mat.from_rows(F5, [[0, 2], [3, 0]])


def test_norm_one_scalar_on_hermitian_space():
    hm = hermitian_form(E9, 2)
    w = next(e for e in E9.elements() if e * e.conj() == E9.one and e.conj() != e)
    g = Mat.diag(E9, [w, w])
    cert = _ok(hm, g, factor(hm, g))
    assert [b["case"] for b in cert.blocks] == ["cyclic", "cyclic"]
    assert cert.h2 @ cert.h2.conj() == Mat.identity(E9, 2)


def test_exhaustive_symplectic_f3():
    sp = symplectic_form(F3, 2)
    count = 0
    for g in group_enumerate(sp):
        cert = _ok(sp, g, factor(sp, g))
        assert cert.h1 @ cert.h1.conj() == Mat.identity(F3, 2)
        count += 1
    assert count == 24


def test_exhaustive_symplectic_f2():
    sp = symplectic_form(F2, 2)
    count = 0
    for g in group_enumerate(sp):
        _ok(sp, g, factor(sp, g))
        count += 1
    assert count == 6


def test_exhaustive_similitudes_beta_two():
    sp = symplectic_form(F3, 2)
    two = F3.scalar(2)
    count = 0
    for g in group_enumerate(sp, 2):
        cert = _ok(sp, g, factor(sp, g))
        assert cert.beta == two
        assert cert.h2 @ cert.h2.conj() == Mat.identity(F3, 2) * two
        count += 1
    assert count == 24


def test_exhaustive_unitary_f9():
    hm = hermitian_form(E9, 2)
    count = 0
    for g in group_enumerate(hm):
        _ok(hm, g, factor(hm, g))
        count += 1
    assert count == 96


def test_exhaustive_orthogonal_f3():
    for make, order in ((orthogonal_plus_form, 4), (orthogonal_minus_form, 8)):
        form = make(F3, 2)
        count = 0
        for g in group_enumerate(form):
            _ok(form, g, factor(form, g))
            count += 1
        assert count == order


def test_sampled_larger_spaces():
    runs = (
        (symplectic_form(F3, 4), 1, 30),
        (symplectic_form(F2, 4), 1, 20),
        (symplectic_form(F5, 4), 2, 20),
        (hermitian_form(E9, 3), 1, 20),
        (orthogonal_plus_form(F3, 4), 2, 15),
        (orthogonal_minus_form(F5, 4), 3, 15),
    )
    for form, beta, count in runs:
        for g in group_sample(form, beta=beta, seed=42, count=count):
            cert = _ok(form, g, factor(form, g))
            assert cert.beta == form.tower.scalar(beta)


def test_blocks_prepare_one_matvec_of_their_matrix(monkeypatch):
    # a paired block prepares the tower's matvec of its a once for both its
    # components, and a self-paired block once for its component and its
    # Krylov matrices
    runs = (
        (symplectic_form(F3, 4), 1),
        (symplectic_form(F5, 4), 2),
        (hermitian_form(E9, 3), 1),
        (orthogonal_plus_form(F3, 4), 2),
        (orthogonal_minus_form(F5, 4), 3),
        (symplectic_form(field_make(3, 5), 4), 1),
    )
    current, counts = [], []

    def watch(name):
        real = getattr(fac, name)

        def block(form, beta, a, *rest):
            current.append(a.rows)
            counts.append([name, 0])
            try:
                return real(form, beta, a, *rest)
            finally:
                current.pop()

        monkeypatch.setattr(fac, name, block)

    watch("_paired_block")
    watch("_self_paired_block")
    for F in {form.tower for form, _ in runs}:

        def matvec(rows, real_matvec=F.matvec):
            if current and rows == current[-1]:
                counts[-1][1] += 1
            return real_matvec(rows)

        monkeypatch.setattr(F, "matvec", matvec)
    for form, beta in runs:
        for g in group_sample(form, beta=beta, seed=7, count=12):
            _ok(form, g, factor(form, g))
    assert {name for name, _ in counts} == {"_paired_block", "_self_paired_block"}
    assert all(n == 1 for _, n in counts), [c for c in counts if c[1] != 1]


def test_transvection_over_a_large_prime_field_is_fast():
    # a degenerate cyclic space sends the construction to the scaled-pair
    # candidate scan; it must stop after its limit instead of listing all
    # 2^31 - 2 nonzero scalars first
    F = field_make(2**31 - 1)
    form = symplectic_form(F, 4)
    g = Mat.from_rows(F, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])
    t0 = time.perf_counter()
    cert = factor(form, g)
    assert verify_certificate(form, g, cert).passed
    assert time.perf_counter() - t0 < 10.0


def test_factor_rejects_foreign_input():
    sp = symplectic_form(F3, 2)
    with pytest.raises(NotInGroupError):
        factor(sp, Mat.from_rows(F3, [[1, 1], [1, 1]]))  # singular
    with pytest.raises(NotInGroupError):
        factor(sp, Mat.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(InputError):
        factor(sp, "not a matrix")


# ---------------------------------------------------------------------------
# determinant refinement


def test_det_refined_plane_isometries():
    for q in (3, 5):
        Fq = field_make(q)
        for make in (orthogonal_plus_form, orthogonal_minus_form):
            form = make(Fq, 2)
            for g in group_enumerate(form):
                cert = factor_det_refined(form, g)
                assert cert.h1.det() == -Fq.one
                assert verify_certificate(form, g, cert).passed


def test_det_refined_dimension_four_samples():
    for make in (orthogonal_plus_form, orthogonal_minus_form):
        form = make(F3, 4)
        for g in group_sample(form, beta=1, seed=9, count=25):
            cert = factor_det_refined(form, g)
            assert cert.h1.det() == F3.one
            report = verify_certificate(form, g, cert)
            assert report.passed and report.checks[-1][0] == "h1_det_sign"
            # the (-1)-eigenspace dimension has the parity of n/2
            minus_dim = len((cert.h1 + Mat.identity(F3, 4)).right_kernel_basis()[1])
            assert minus_dim % 2 == (4 // 2) % 2


def test_det_refinement_obstruction_is_genuine():
    # ratio 2 is not a square mod 3, and this element's minimal polynomial is
    # T^2 - 2: brute force shows every admissible first factor for it has
    # determinant +1, so no certificate can reach the required -1
    op = orthogonal_plus_form(F3, 2)
    g = Mat.from_rows(F3, [[0, 1], [2, 0]])
    beta = op.similitude_ratio(g)
    assert beta == F3.scalar(2)
    with pytest.raises(DetRefinementError) as info:
        factor_det_refined(op, g)
    assert info.value.context["blocks"]
    eye = Mat.identity(F3, 2)
    dets = set()
    for A in oracle_involution_set(op):
        h2 = A @ g.conj()
        if op.anti_ratio(h2) == beta and h2 @ h2.conj() == eye * beta:
            dets.add(A.det())
    assert dets == {F3.one}


def test_det_refinement_rejects_wrong_spaces():
    with pytest.raises(InputError):
        factor_det_refined(symplectic_form(F3, 2), Mat.identity(F3, 2))
    J = Mat.diag(F3, [F3.one, F3.one, F3.one])
    odd = orthogonal_form(F3, J)
    with pytest.raises(InputError):
        factor_det_refined(odd, Mat.identity(F3, 3))


def test_det_refinement_scope_is_tested_before_any_block(monkeypatch):
    # the space is rejected before the construction starts, not after it
    splits = []
    monkeypatch.setattr(fac, "_split", lambda *args: splits.append(args))
    for form in (symplectic_form(F5, 2), orthogonal_form(F5, Mat.identity(F5, 3))):
        with pytest.raises(InputError, match=f"{form.kind} of dimension {form.n}"):
            factor(form, Mat.identity(F5, form.n), det_refined=True)
    assert splits == []


# ---------------------------------------------------------------------------
# symmetric conjugators and the two-symmetric-factor split


def test_symmetric_conjugator_seeded():
    rng = random.Random(5)
    for F in (F5, F4):
        for _ in range(40):
            n = 1 + rng.randrange(6)
            while True:
                a = Mat.from_rows(
                    F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(n)]
                )
                if a.det():
                    break
            X = symmetric_conjugator(a)
            assert X.T == X and X.det()
            assert a @ X == X @ a.T


def reference_hankel(F, f):
    # Hankel matrix H[i][j] = h_{i+j} of the impulse-seeded linear recurrence
    # of f: h_k is the top coefficient of T^k reduced mod f, so H is the Gram
    # matrix of the pairing (x, y) -> top-coeff(x * y mod f) in the monomial
    # basis, with C^T H = H C; its inverse conjugates C onto C^T
    m = len(f) - 1
    c = [F.neg(x) for x in f[:m]]
    h = [0] * (2 * m - 1)
    h[m - 1] = 1
    for k in range(m, 2 * m - 1):
        h[k] = F.dot(c, h[k - m : k])
    return Mat(F, tuple(tuple(h[i : i + m]) for i in range(m)))


def test_symmetric_conjugator_hankel_inverse():
    # companion of (T - 2)(T + 1) over GF(5): the recurrence Hankel matrix is
    # not an intertwiner here, but its inverse is, and that inverse is the
    # symmetrizer read off f
    f = [3, 4, 1]
    C = companion(F5, f)
    H = reference_hankel(F5, f)
    assert C @ H != H @ C.T
    X = H.inv()
    assert X.T == X and C @ X == X @ C.T
    assert _symmetrizer(F5, f) == X == Mat.from_rows(F5, [[4, 1], [1, 0]])
    assert symmetric_conjugator(C).T == symmetric_conjugator(C)
    # the symmetrizer is the only construction: it must intertwine for any
    # companion, characteristic 2 and repeated roots included
    for F, f in ((F4, [1, 1, 1]), (F3, [2, 0, 1, 1]), (F3, [1, 2, 1])):
        C = companion(F, f)
        X = _symmetrizer(F, f)
        assert X == reference_hankel(F, f).inv()
        assert X.T == X and C @ X == X @ C.T and X.det()


@pytest.mark.parametrize("spec", [t[1] for t in TOWERS], ids=[t[0] for t in TOWERS])
def test_symmetrizer_is_the_hankel_inverse_on_every_tower(spec):
    F = field_make(*spec)
    rng = random.Random(f"symmetrizer:{spec}")
    for m in range(1, 7):
        for _ in range(4):
            f = [rng.randrange(F.order) for _ in range(m)] + [1]
            S = _symmetrizer(F, f)
            C = companion(F, f)
            assert S.T == S
            assert S == reference_hankel(F, f).inv()
            assert C @ S == S @ C.T


def test_symmetric_conjugator_inverts_no_matrix(monkeypatch):
    # a primary a with three invariant factors, (T - 2)^3, (T - 2)^2 and
    # T - 2 over GF(101): each block's conjugator is read off its factor
    F = field_make(101)
    a = block_diag(F, [companion(F, ppow([99, 1], e, F)) for e in (3, 2, 1)])
    rng = random.Random(8)
    while True:
        h = Mat.from_rows(F, [[F.from_int(rng.randrange(101)) for _ in range(6)] for _ in range(6)])
        if h.det():
            break
    a = h @ a @ h.inv()
    calls = []
    real = Mat.inv

    def counted(self):
        calls.append(self.nrows)
        return real(self)

    monkeypatch.setattr(Mat, "inv", counted)
    X = _symmetric_conjugator(a)
    assert calls == []
    assert X.T == X and a @ X == X @ a.T and X.det()


def test_symmetric_conjugator_of_a_primary_matrix_evaluates_no_polynomial(monkeypatch):
    # mp(a) = p^3, so p^3(a) = 0 and the one primary component is the whole
    # space: its basis is the identity, with no Horner evaluation of p^3(a)
    F = field_make(101)
    p = _least_irreducible(F, 4)
    a = companion(F, ppow(p, 3, F))
    # the construction through ker p^3(a), which the identity replaces
    U, free = poly_at(ppow(p, 3, F), a).right_kernel_basis()
    want = U @ block_diag(F, [_symmetric_conjugator(restrict(a, U, free))]) @ U.T
    calls = []
    real = fac.poly_column

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fac, "poly_column", counted)
    assert symmetric_conjugator(a) == want
    assert calls == []


def test_symmetric_factor_contract():
    rng = random.Random(6)
    for _ in range(25):
        n = 1 + rng.randrange(5)
        while True:
            a = Mat.from_rows(
                F5, [[F5.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(n)]
            )
            if a.det():
                break
        d1, d2 = symmetric_factor(a)
        assert d1 == symmetric_conjugator(a)
        assert d1.T == d1 and d2.T == d2
        assert d1 @ d2 == a


# ---------------------------------------------------------------------------
# companion conjugators


def test_symmetric_unitary_conjugator_samples():
    hm = hermitian_form(E9, 2)
    eye = Mat.identity(E9, 2)
    seen = [eye] + group_sample(hm, seed=3, count=20)
    for g in seen:
        s = symmetric_unitary_conjugator(hm, g)
        assert s.T == s
        assert s.T @ s.conj() == eye
        assert s @ g @ s.inv() == g.T


def test_symmetric_unitary_conjugator_guards():
    with pytest.raises(InputError):
        symmetric_unitary_conjugator(symplectic_form(F3, 2), Mat.identity(F3, 2))
    hm = hermitian_form(E9, 2)
    scaled = group_sample(hm, beta=2, seed=4, count=1)[0]
    with pytest.raises(NotInGroupError):
        symmetric_unitary_conjugator(hm, scaled)


def test_dualizing_conjugator_symplectic():
    sp = symplectic_form(F3, 2)
    for beta in (1, 2):
        for g in group_enumerate(sp, beta):
            u, iota = dualizing_conjugator(sp, g)
            assert sp.similitude_ratio(u) == F3.one
            assert u @ iota @ u.inv() == g.inv()


def test_dualizing_conjugator_custom_involution():
    sp = symplectic_form(F5, 2)
    h = next(A for A in oracle_involution_set(sp) if A != standard_reverser(sp))
    for g in group_sample(sp, seed=8, count=10):
        u, iota = dualizing_conjugator(sp, g, h_mat=h)
        assert u @ iota @ u.inv() == g.inv()


@pytest.mark.parametrize(
    "form, beta, count", [g[1:] for g in SURVEY_GROUPS], ids=[g[0] for g in SURVEY_GROUPS]
)
def test_dualizing_conjugator_identities_on_whole_groups(form, beta, count):
    # dualizing_conjugator runs no check of its own: on every element of a
    # survey-small group, u iota u^(-1) = g^(-1), read as g u iota = u with
    # no inverse, and u's ratio is H's, as factor's checked certificate gives
    lam = form.anti_ratio(standard_reverser(form))
    n = 0
    for g in group_enumerate(form, beta):
        u, iota = dualizing_conjugator(form, g)
        assert g @ u @ iota == u
        assert form.similitude_ratio(u) == lam
        n += 1
    assert n == count


@pytest.mark.parametrize(
    "params, n, count",
    [((2, 1), 2, 18), ((2, 1), 3, 648), ((3, 1), 2, 96), ((5, 1), 2, 720)],
    ids=["U2(F4)", "U3(F4)", "U2(F9)", "U2(F25)"],
)
def test_symmetric_unitary_conjugator_identities_on_whole_groups(params, n, count):
    # symmetric_unitary_conjugator runs no check of its own: on every
    # isometry s is symmetric and unitary, and s g = g^T s
    form = hermitian_form(field_make(*params, "quadratic"), n)
    seen = 0
    for g in group_enumerate(form):
        s = symmetric_unitary_conjugator(form, g)
        assert s.T == s
        assert form.gram(s) == form.J
        assert s @ g == g.T @ s
        seen += 1
    assert seen == count


def test_standard_reverser_shapes():
    sp = symplectic_form(F5, 4)
    H = standard_reverser(sp)
    assert H == Mat.diag(F5, [F5.one, F5.one, -F5.one, -F5.one])
    assert sp.anti_ratio(H) == F5.one and H @ H.conj() == Mat.identity(F5, 4)
    hm = hermitian_form(E9, 2)
    assert standard_reverser(hm) == Mat.identity(E9, 2)
    om = orthogonal_minus_form(F3, 2)
    assert standard_reverser(om) == Mat.identity(F3, 2)


# ---------------------------------------------------------------------------
# certificates as data


def test_certificate_roundtrip():
    sp = symplectic_form(F3, 2)
    g = group_sample(sp, beta=2, seed=12, count=1)[0]
    cert = factor(sp, g)
    wire = json.loads(json.dumps(cert.serialize()))
    back = cert_from_serialized(wire)
    assert back.h1 == cert.h1 and back.h2 == cert.h2 and back.beta == cert.beta
    assert check_cert(back) is back
    with pytest.raises(InputError):
        cert_from_serialized({"format": "something-else"})
    broken = json.loads(json.dumps(cert.serialize()))
    del broken["h2"]
    with pytest.raises(InputError):
        cert_from_serialized(broken)


def test_factoring_is_deterministic():
    sp = symplectic_form(F5, 4)
    for g in group_sample(sp, beta=2, seed=13, count=5):
        once = json.dumps(factor(sp, g).serialize(), sort_keys=True)
        again = json.dumps(factor(sp, g).serialize(), sort_keys=True)
        assert once == again


# ---------------------------------------------------------------------------
# one memo per factor call, and the transcript rendered on demand


def _count_calls(monkeypatch, name, key):
    # the arguments of every call factor makes to fac.<name>, as keys
    real = getattr(fac, name)
    seen = []

    def counted(*args):
        seen.append(key(*args))
        return real(*args)

    monkeypatch.setattr(fac, name, counted)
    return seen


@pytest.mark.parametrize(
    "form, g",
    [
        (symplectic_form(field_make(1009), 6), -Mat.identity(field_make(1009), 6)),
        (orthogonal_plus_form(field_make(7), 8), None),
    ],
    ids=["Sp6(F1009)*-I", "GO8+(F7)"],
)
def test_one_factor_call_makes_each_shared_result_once(monkeypatch, form, g):
    # the recursion meets the same p^e, reciprocal and cyclic involution at
    # every level and in every use; factor's own memo makes each once, and
    # ends with the call, so a second call makes them afresh
    g = group_sample(form, seed=6)[0] if g is None else g
    seen = {
        "ppow": _count_calls(monkeypatch, "ppow", lambda f, e, F: (tuple(f), e)),
        "twisted_reciprocal": _count_calls(
            monkeypatch, "twisted_reciprocal", lambda f, beta, F: (tuple(f), beta)
        ),
        "_cyclic_t": _count_calls(monkeypatch, "_cyclic_t", lambda F, beta, ann: (beta, tuple(ann))),
    }
    cert = factor(form, g)
    assert len(cert.cases) > 1
    once = {name: list(args) for name, args in seen.items()}
    for name, args in once.items():
        assert args and len(set(args)) == len(args), name
    factor(form, g)
    assert {name: args[len(once[name]) :] for name, args in seen.items()} == once


def test_factor_leaves_no_memo_behind(monkeypatch):
    sp = symplectic_form(F5, 4)
    g = group_sample(sp, beta=2, seed=3)[0]
    factor(sp, g)
    assert fac._memo.get() is None
    # a refinement obstruction raises inside the construction
    op = orthogonal_plus_form(F3, 2)
    with pytest.raises(DetRefinementError):
        factor_det_refined(op, Mat.from_rows(F3, [[0, 1], [2, 0]]))
    assert fac._memo.get() is None
    # a wrong cyclic involution fails factor's check, after the memo ended
    real = fac._cyclic_t
    monkeypatch.setattr(fac, "_cyclic_t", lambda F, beta, ann: real(F, beta, ann) * F.scalar(2))
    with pytest.raises(InternalInvariantError):
        factor(sp, Mat.identity(F5, 4))
    assert fac._memo.get() is None


def test_blocks_render_once_and_match_the_serialized_certificate(monkeypatch):
    renders = []
    real = fac._Block.render
    monkeypatch.setattr(fac._Block, "render", lambda b: renders.append(b) or real(b))
    go = orthogonal_plus_form(field_make(7), 8)
    cert = factor(go, group_sample(go, seed=6)[0])
    # the block cases are read without rendering
    assert cert.cases == ["paired", "paired", "cyclic", "cyclic"] and renders == []
    blocks = cert.blocks
    assert len(renders) == 4 and cert.blocks is blocks
    assert blocks == cert.serialize()["blocks"] == json.loads(json.dumps(blocks))
    assert [b["case"] for b in blocks] == cert.cases
    assert len(renders) == 4
    # a survey reads cases only
    renders.clear()
    assert survey(symplectic_form(F5, 2))["total"] == 120 and renders == []
