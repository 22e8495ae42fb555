"""Forms layer against classical group orders and hand-checked members."""

import hashlib
import itertools
import json
import random
import time

import pytest

from invofactor import (
    BudgetExceededError,
    InputError,
    NotInGroupError,
    field_make,
    forms,
    survey,
    verify_certificate,
)
from invofactor.forms import (
    SesquiForm,
    anti_unitary_enumerate,
    form_from_descriptor,
    group_enumerate,
    group_sample,
    hermitian_form,
    least_nonsquare,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
)
from invofactor.factor import factor
from invofactor.linalg import Mat, block_diag, conj_product, gram, monomial_rows


def test_standard_gram_matrices():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 2)
    assert sp.J == Mat.from_rows(F3, [[0, -1], [1, 0]])
    assert sp.eps == -1
    op = orthogonal_plus_form(F3, 2)
    assert op.J == Mat.from_rows(F3, [[0, 1], [1, 0]])
    om = orthogonal_minus_form(F3, 2)
    # least non-square mod 3 is 2, and -2 = 1, so the anisotropic plane is x^2 + y^2
    assert om.J == Mat.identity(F3, 2)
    E9 = field_make(3, 1, "quadratic")
    hm = hermitian_form(E9, 2)
    assert hm.J == Mat.identity(E9, 2)
    assert hm.eps == 1


def test_form_validation_errors():
    F3 = field_make(3, 1)
    F2 = field_make(2, 1)
    E9 = field_make(3, 1, "quadratic")
    with pytest.raises(InputError, match="symplectic spaces have positive even dimension"):
        symplectic_form(F3, 3)
    with pytest.raises(InputError, match="orthogonal forms in characteristic 2 are unsupported"):
        orthogonal_minus_form(F2, 2)
    with pytest.raises(InputError, match="orthogonal forms in characteristic 2 are unsupported"):
        SesquiForm(F2, "orthogonal", Mat.identity(F2, 2))  # SesquiForm's own guard
    with pytest.raises(InputError, match="hermitian forms need a quadratic tower"):
        hermitian_form(F3, 2)
    with pytest.raises(InputError, match="orthogonal form matrix must be symmetric"):
        SesquiForm(F3, "orthogonal", Mat.from_rows(F3, [[0, 1], [2, 0]]))
    with pytest.raises(InputError, match="symplectic form matrix must be alternating"):
        SesquiForm(F3, "symplectic", Mat.from_rows(F3, [[1, 1], [2, 0]]))  # diag not zero
    with pytest.raises(InputError, match="symplectic forms use a trivial tower"):
        SesquiForm(E9, "symplectic", Mat.from_rows(E9, [[0, 1], [-1, 0]]))
    from invofactor import DegenerateFormError

    with pytest.raises(DegenerateFormError, match="form matrix is singular"):
        orthogonal_form(F3, Mat.from_rows(F3, [[1, 1], [1, 1]]))


def test_value_reversal_law():
    # <y, x> = eps * conj(<x, y>) on every kind
    rng = random.Random(2)
    F5 = field_make(5, 1)
    E9 = field_make(3, 1, "quadratic")
    for form in [
        symplectic_form(F5, 4),
        orthogonal_plus_form(F5, 4),
        orthogonal_minus_form(F5, 2),
        hermitian_form(E9, 3),
    ]:
        F = form.tower
        for _ in range(30):
            x = Mat.column(F, [F.from_int(rng.randrange(F.order)) for _ in range(form.n)])
            y = Mat.column(F, [F.from_int(rng.randrange(F.order)) for _ in range(form.n)])
            J = form.J
            assert gram(y, J, x)[0, 0] == form.eps_elem * gram(x, J, y)[0, 0].conj()


# classical orders: |Sp_2(q)| = q(q^2-1), |U_2(q)| = q(q+1)(q^2-1),
# |O^+_2(q)| = 2(q-1), |O^-_2(q)| = 2(q+1)
@pytest.mark.parametrize(
    "makeform,args,order",
    [
        (symplectic_form, (field_make(2, 1), 2), 2 * 3),
        (symplectic_form, (field_make(3, 1), 2), 3 * 8),
        (symplectic_form, (field_make(5, 1), 2), 5 * 24),
        (hermitian_form, (field_make(2, 1, "quadratic"), 2), 2 * 3 * 3),
        (hermitian_form, (field_make(3, 1, "quadratic"), 2), 3 * 4 * 8),
        (orthogonal_plus_form, (field_make(3, 1), 2), 2 * 2),
        (orthogonal_plus_form, (field_make(5, 1), 2), 2 * 4),
        (orthogonal_minus_form, (field_make(3, 1), 2), 2 * 4),
        (orthogonal_minus_form, (field_make(5, 1), 2), 2 * 6),
    ],
)
def test_isometry_group_orders(makeform, args, order):
    form = makeform(*args)
    got = list(group_enumerate(form))
    assert len(got) == order
    assert len(set(got)) == order
    for M in got[:10]:
        assert form.similitude_ratio(M) == form.tower.one


def test_similitude_coset_orders():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 2)
    beta2 = F3.scalar(2)
    coset = list(group_enumerate(sp, beta2))
    assert len(coset) == 24  # same size as the isometry group
    for M in coset[:8]:
        assert sp.similitude_ratio(M) == beta2
    om = orthogonal_minus_form(F3, 2)
    assert len(list(group_enumerate(om, beta2))) == 8


def test_enumeration_is_deterministic():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 2)
    a = [M.serialize() for M in group_enumerate(sp)]
    b = [M.serialize() for M in group_enumerate(sp)]
    assert a == b


def test_enumeration_budget():
    F5 = field_make(5, 1)
    sp = symplectic_form(F5, 2)
    with pytest.raises(BudgetExceededError):
        list(group_enumerate(sp, budget=3))


def _changed_basis_sp4_f2():
    # Sp4(F2) in the basis of a fixed P; its Gram P^T J P has a dense row
    F2 = field_make(2)
    P = Mat.from_rows(F2, [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    J = P.T @ symplectic_form(F2, 4).J @ P
    assert monomial_rows(J) is None
    return SesquiForm(F2, "symplectic", J)


# each sequence's SHA-256 (of the JSON list of serialized matrices, compact
# separators) and the least budget that completes it, recorded from the
# Mat-per-candidate enumerator the key-vector search replaced: a change to
# the order or to the one charge per candidate fails here
ENUMERATIONS = {
    "sp2-F5": (
        lambda b: group_enumerate(symplectic_form(field_make(5), 2), budget=b),
        120, 145, "0eedd2ea12f1f7fbc1a753d52a354565fa2868e1cb7a889eda11fa00e3429e46",
    ),
    "go4plus-F3-ratio2": (
        lambda b: group_enumerate(orthogonal_plus_form(field_make(3), 4), 2, budget=b),
        1152, 7857, "50d91575609c77f6883274fe10ac458ae4d720b7ebfde0cd4ea1fe2edd351289",
    ),
    "go4minus-F3-ratio2": (
        lambda b: group_enumerate(orthogonal_minus_form(field_make(3), 4), 2, budget=b),
        1440, 4401, "f969d76ca9e9735a4a442685bf61eef1c235c6fa895d1b001d790de23da76fb9",
    ),
    "u2-F9": (
        lambda b: group_enumerate(hermitian_form(field_make(3, 1, "quadratic"), 2), budget=b),
        96, 297, "c4e5d78ee1d035ab3f62374ad764c3c5121b47e97b9a8ea21e971c01acd2d057",
    ),
    "changed-basis-sp4-F2": (
        lambda b: group_enumerate(_changed_basis_sp4_f2(), budget=b),
        720, 1336, "87da8a944838ca49d5fc8f916a5faddb036d87c41d1ca3cad1202e8094b70f2b",
    ),
    "anti-u2-F4": (
        lambda b: anti_unitary_enumerate(hermitian_form(field_make(2, 1, "quadratic"), 2), budget=b),
        18, 40, "3f0d809b702c8ecb50a973d81eaa9b5d25a0e947984e4bb7d2808f7a57646ba0",
    ),
    "anti-sp2-F3": (
        lambda b: anti_unitary_enumerate(symplectic_form(field_make(3), 2), budget=b),
        24, 33, "3c5ed4c331c02473cd148494e95205183068511d84d21771bec3ae02a04987ef",
    ),
}


@pytest.mark.parametrize("name", list(ENUMERATIONS))
def test_enumeration_order_and_budget_are_pinned(name):
    run, count, budget, digest = ENUMERATIONS[name]
    got = list(run(budget))
    assert len(got) == count
    blob = json.dumps([M.serialize() for M in got], separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    with pytest.raises(BudgetExceededError):
        list(run(budget - 1))


@pytest.mark.parametrize(
    "form, beta, order",
    [
        (symplectic_form(field_make(5), 2), 1, 120),
        (orthogonal_minus_form(field_make(5), 2), 2, 12),
        (hermitian_form(field_make(2, 1, "quadratic"), 2), 1, 18),
    ],
    ids=["sp2-F5", "go2minus-F5-ratio2", "u2-F4"],
)
def test_enumeration_equals_the_brute_force_filter(form, beta, order):
    # every one of the q^(n^2) matrices, kept when its similitude ratio is beta
    F, n = form.tower, form.n
    want = set()
    for keys in itertools.product(range(F.order), repeat=n * n):
        g = Mat(F, tuple(keys[i * n : (i + 1) * n] for i in range(n)))
        try:
            ratio = form.similitude_ratio(g)
        except NotInGroupError:
            continue
        if ratio == F.scalar(beta):
            want.add(g)
    assert len(want) == order
    assert set(group_enumerate(form, beta)) == want


def test_enumeration_makes_no_matrix_per_candidate(monkeypatch):
    # candidates are key vectors: no Mat arithmetic, no per-node solve and
    # kernel, no Mat-valued Gram of the form; each non-root node runs one rref
    sp2 = symplectic_form(field_make(5), 2)
    go4 = orthogonal_plus_form(field_make(3), 4)

    def forbid(name):
        def hook(*args, **kwargs):
            raise AssertionError(f"{name} ran during enumeration")

        return hook

    for cls, name in [
        (Mat, "__matmul__"),
        (Mat, "__add__"),
        (Mat, "__mul__"),
        (Mat, "solve_right"),
        (Mat, "right_kernel_basis"),
        (SesquiForm, "gram"),
    ]:
        monkeypatch.setattr(cls, name, forbid(f"{cls.__name__}.{name}"))
    rref, rrefs = Mat.rref, []

    def counted(self):
        rrefs.append(self)
        return rref(self)

    monkeypatch.setattr(Mat, "rref", counted)
    assert len(list(group_enumerate(sp2))) == 120
    # the root keeps the 24 nonzero vectors, each a node of one rref
    assert len(rrefs) == 24
    assert len(list(group_enumerate(go4, 2))) == 1152


def test_hand_members():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 2)
    t = Mat.from_rows(F3, [[1, 1], [0, 1]])
    assert sp.similitude_ratio(t) == F3.one
    h = Mat.from_rows(F3, [[1, 0], [0, -1]])
    assert sp.anti_ratio(h) == F3.one  # h^T J h = -J
    # with trivial conj, an isometry is also a twist-1 similitude of ratio -1
    assert sp.anti_ratio(t) == F3.scalar(2)
    assert sp.anti_ratio(Mat.from_rows(F3, [[1, 1], [1, 1]])) is None
    with pytest.raises(NotInGroupError):
        hermitian_form(field_make(3, 1, "quadratic"), 2).similitude_ratio(
            Mat.from_rows(field_make(3, 1, "quadratic"), [[1, 1], [0, 1]])
        )


def test_anti_unitary_enumeration_hermitian_identity():
    # x -> conj(x) on the identity Gram is a ratio-1 twist-1 similitude
    E9 = field_make(3, 1, "quadratic")
    hm = hermitian_form(E9, 2)
    got = list(anti_unitary_enumerate(hm))
    I = Mat.identity(E9, 2)
    assert I in got
    for A in got[:12]:
        assert A.T @ hm.J @ A.conj() == hm.J.conj() * hm.eps_elem
    # twist-1 similitudes form a coset of the isometry group
    assert len(got) == 96


def test_group_sample_ratio_and_determinism():
    F5 = field_make(5, 1)
    E9 = field_make(3, 1, "quadratic")
    beta = F5.scalar(2)
    for form, b in [
        (symplectic_form(F5, 4), beta),
        (symplectic_form(F5, 4), None),
        (orthogonal_minus_form(F5, 4), beta),
        (orthogonal_plus_form(F5, 4), beta),
        (hermitian_form(E9, 3), E9.scalar(2)),
    ]:
        xs = group_sample(form, beta=b, seed=11, count=6)
        want = form.tower.one if b is None else b
        assert all(form.similitude_ratio(g) == want for g in xs)
        assert xs == group_sample(form, beta=b, seed=11, count=6)
        assert xs != group_sample(form, beta=b, seed=12, count=6)


def test_group_sample_rejects_a_negative_count():
    sp = symplectic_form(field_make(3), 2)
    assert group_sample(sp, count=0) == []
    for count in (-1, -5):
        with pytest.raises(InputError, match="count"):
            group_sample(sp, count=count)
    # survey draws its sample through group_sample
    with pytest.raises(InputError, match="count"):
        survey(sp, sample=-1, seed=1)


def test_sampled_elements_lie_in_enumerated_group():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 2)
    all_elems = set(group_enumerate(sp))
    for g in group_sample(sp, seed=4, count=12):
        assert g in all_elems


@pytest.mark.parametrize(
    "params", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (5, 2), (101, 1)],
    ids=["GF2", "GF3", "GF4", "GF7", "GF8", "GF25", "GF101"],
)
def test_norm_preimage_is_the_least_key_of_that_norm(params):
    # the hermitian dilation's w solves a quadratic over the fixed field for
    # b = 0, 1, ...; the reference is the scan it replaced: the least key w
    # with w conj(w) = beta, for every beta of the fixed field (one pass
    # over the tower records the first key of each norm)
    E = field_make(*params, "quadratic")
    first = {}
    for w in E.elements():
        first.setdefault(w * w.conj(), w)
    assert len(first) == E.q
    for k in range(E.q):
        beta = E.from_int(k)
        assert forms._norm_preimage(E, beta) == first[beta]
    # no norm lies outside the fixed field
    assert forms._norm_preimage(E, E.from_int(E.q)) is None
    form = hermitian_form(E, 2)
    for k in range(2, E.q):
        beta = E.from_int(k)
        assert forms._dilation(form, beta) == Mat.diag(E, [first[beta]] * 2)


@pytest.mark.parametrize(
    "make, params, beta",
    [(hermitian_form, (1000003, 1, "quadratic"), 2), (orthogonal_minus_form, (1000003,), 3)],
    ids=["U4-GF1000003^2", "GO4minus-GF1000003"],
)
def test_sampling_and_factoring_at_large_q_is_fast(make, params, beta):
    # the hermitian dilation used to walk about q keys before its first
    # product; sampling, factoring and verifying now take well under a second
    t0 = time.perf_counter()
    form = make(field_make(*params), 4)
    for g in group_sample(form, beta=beta, seed="large-q", count=3):
        assert form.similitude_ratio(g) == form.tower.scalar(beta)
        assert verify_certificate(form, g, factor(form, g)).passed
    assert time.perf_counter() - t0 < 10.0


def _minus_dilation_reference(F, n, beta):
    # the loop the squareness test replaced: a root search for every x
    delta = least_nonsquare(F)
    for x in F.elements():
        y = F.sqrt((x * x - beta) / delta)
        if y is not None:
            W = Mat.from_rows(F, [[x, delta * y], [y, x]])
            m = (n - 2) // 2
            return block_diag(F, [Mat.diag(F, [beta] * m + [F.one] * m), W])


@pytest.mark.parametrize("p", [7, 1009, 1000003])
def test_minus_dilation_searches_one_root(monkeypatch, p):
    # the orthogonal-minus dilation tests squareness (one power) for each x
    # and searches a root only at the first square: the same matrix as the
    # root search for every x, with one F.sqrt per dilation
    F = field_make(p)
    met = set()
    for beta in (F.scalar(4), F.scalar(4) * least_nonsquare(F)):
        met.add(F.is_square(beta))
        for n in (4, 6):
            form = orthogonal_minus_form(F, n)
            want = _minus_dilation_reference(F, n, beta)
            calls = []
            real = type(F).sqrt

            def counted(self, a):
                calls.append(a)
                return real(self, a)

            with monkeypatch.context() as m:
                m.setattr(type(F), "sqrt", counted)
                got = forms._dilation(form, beta)
            assert got == want and len(calls) == 1
            assert form.similitude_ratio(got) == beta
    assert met == {True, False}


def test_anti_ratio_rejects_a_wrong_shape_or_tower():
    F5 = field_make(5)
    form = symplectic_form(F5, 4)
    assert form.anti_ratio(Mat.identity(F5, 4)) is not None
    assert form.anti_ratio(Mat.identity(F5, 2)) is None
    assert form.anti_ratio(Mat.zeros(F5, 4, 2)) is None
    assert form.anti_ratio(Mat.identity(field_make(7), 4)) is None


def test_least_nonsquare_and_norm_one():
    F5 = field_make(5, 1)
    assert least_nonsquare(F5) == F5.scalar(2)


def test_descriptor_roundtrip():
    for form in [
        symplectic_form(field_make(3, 1), 4),
        orthogonal_minus_form(field_make(5, 1), 2),
        hermitian_form(field_make(2, 1, "quadratic"), 3),
    ]:
        back = form_from_descriptor(form.descriptor())
        assert back.kind == form.kind and back.J == form.J


def test_gram_of_restricted_basis():
    F3 = field_make(3, 1)
    sp = symplectic_form(F3, 4)
    B = Mat.from_rows(F3, [[1, 0], [0, 0], [0, 1], [0, 0]])
    G = sp.gram(B)
    assert G.shape == (2, 2)
    assert G[0, 1] == (B.col(0).T @ sp.J @ B.col(1))[0, 0]


def _rand(F, m, n, rng):
    return Mat(F, tuple(tuple(rng.randrange(F.order) for _ in range(n)) for _ in range(m)))


def _changed_basis(form, rng):
    # the same space in a random basis: Gram P^T J conj(P), with no row monomial
    F = form.tower
    while True:
        P = _rand(F, form.n, form.n, rng)
        J = P.T @ form.J @ P.conj()
        if P.det() and monomial_rows(J) is None:
            return SesquiForm(F, form.kind, J)


def _ratio_spaces():
    rng = random.Random("ratio-spaces")
    F5, F7, E9 = field_make(5), field_make(7), field_make(3, 1, "quadratic")
    standard = [
        symplectic_form(F5, 4),
        orthogonal_plus_form(F7, 4),
        orthogonal_minus_form(F5, 4),
        hermitian_form(E9, 3),
    ]
    dense = [orthogonal_form(F5, Mat.from_rows(F5, [[1, 1], [1, 2]]))]
    dense += [_changed_basis(form, rng) for form in standard]
    return standard + dense


RATIO_SPACES = _ratio_spaces()
RATIO_IDS = ["sp4-F5", "o4+-F7", "o4--F5", "u3-F9", "dense-o2-F5"] + [
    f"changed-basis-{name}" for name in ("sp4-F5", "o4+-F7", "o4--F5", "u3-F9")
]


def _ref_ratio(S, P):
    # the whole-matrix reference: beta read at P's first nonzero entry in
    # row-major order, then S compared with beta * P
    anchor = next((i, j) for i in range(P.nrows) for j in range(P.ncols) if P.rows[i][j])
    beta = S[anchor] / P[anchor]
    return beta if beta and S == P * beta else None


def _same(got, want):
    return got == want if want is not None else got is None


def _with_entry(S, i, j, key):
    rows = [list(r) for r in S.rows]
    rows[i][j] = key
    return Mat(S.tower, tuple(map(tuple, rows)))


@pytest.mark.parametrize("form", RATIO_SPACES, ids=RATIO_IDS)
def test_ratio_match_equals_the_whole_matrix_reference(form):
    # S = beta * P, the same with one extra nonzero off P's pattern, with
    # its anchor entry zeroed, S = 0 and a random S, for P = J (linear
    # similitudes) and P = eps * conj(J) (twist-1 maps)
    F = form.tower
    rng = random.Random(f"ratio:{form!r}")
    for P in (form.J, form.J.conj() * form.eps_elem):
        beta = F.from_int(rng.randrange(1, F.order))
        S = P * beta
        anchor = next((i, j) for i, r in enumerate(P.rows) for j, x in enumerate(r) if x)
        off = [(i, j) for i, r in enumerate(P.rows) for j, x in enumerate(r) if not x]
        cases = [S, _with_entry(S, *anchor, 0), Mat.zeros(F, form.n, form.n)]
        cases += [_with_entry(S, i, j, rng.randrange(1, F.order)) for i, j in off[:4]]
        cases += [_rand(F, form.n, form.n, rng) for _ in range(3)]
        for T in cases:
            assert _same(form._match_ratio(T, P), _ref_ratio(T, P))
        assert form._match_ratio(S, P) == beta


@pytest.mark.parametrize("form", RATIO_SPACES, ids=RATIO_IDS)
def test_similitude_and_anti_ratio_equal_the_two_product_reference(form):
    # similitudes, twist-1 maps of ratio 1 and beta (a factorization's h1
    # and h2), and matrices that are neither, against the ratios read from
    # Grams made by two products
    F, J = form.tower, form.J
    rng = random.Random(f"maps:{form!r}")
    maps = group_sample(form, seed=3, count=3)
    for g in maps[:2]:
        cert = factor(form, g)
        maps += [cert.h1, cert.h2]
    maps += [_rand(F, form.n, form.n, rng) for _ in range(3)]
    maps += [g + Mat.identity(F, form.n) for g in maps[:2]]
    anti = J.conj() * form.eps_elem
    seen = set()
    for A in maps:
        want = _ref_ratio(A.T @ J @ A.conj(), J)
        try:
            got = form.similitude_ratio(A)
        except NotInGroupError:
            got = None
        assert _same(got, want)
        want_anti = _ref_ratio(A.T @ J @ A.conj(), anti)
        assert _same(form.anti_ratio(A), want_anti)
        seen.add((want is not None, want_anti is not None))
    # maps with a ratio and maps with neither ratio were both met (on
    # orthogonal spaces a similitude is a twist-1 map of the same ratio,
    # on symplectic ones of the opposite ratio)
    assert (False, False) in seen and len(seen) > 1


def _reference_walk(form, beta, seed, count):
    # the walk as Mat products: each generator I + c v (J conj(v))^T made
    # whole, with FieldElem scalars, and multiplied into g
    F = form.tower
    rng = random.Random(seed)

    def rand_elem():
        return F.from_int(rng.randrange(F.order))

    def rand_vector():
        while True:
            v = Mat.column(F, [rand_elem() for _ in range(form.n)])
            if not v.is_zero():
                return v

    def rank_one_update(v, coeff):
        w = conj_product(form.J, v).T
        return Mat.identity(F, form.n) + (v @ w) * coeff

    def generator():
        if form.kind == "symplectic":
            v = rand_vector()
            return rank_one_update(v, rand_elem())
        while True:
            v = rand_vector()
            norm = gram(v, form.J, v)[0, 0]
            if not norm:
                continue
            if form.kind == "orthogonal":
                return rank_one_update(v, -2 / norm)
            u = rand_elem()
            if u and u.conj() != u:
                return rank_one_update(v, (u.conj() / u - F.one) / norm)

    base = forms._dilation(form, F.one if beta is None else form._as_elem(beta))
    out = []
    for _ in range(count):
        g = base
        for _ in range(8 + rng.randrange(8)):
            g = g @ generator()
        out.append(g)
    return out


def _walk_spaces():
    # (form, ratios): every kind; beta != 1, which reaches GO-'s anisotropic
    # 2 x 2 dilation and the hermitian norm preimage; characteristic 2,
    # tabled odd fields and towers above TABLE_ORDER; and changed bases
    F5, F7, E9 = field_make(5), field_make(7), field_make(3, 1, "quadratic")
    F16, E64, F243 = field_make(2, 4), field_make(2, 3, "quadratic"), field_make(3, 5)
    E49, F3_11, E101 = field_make(7, 1, "quadratic"), field_make(3, 11), field_make(101, 1, "quadratic")
    F8192, F1009 = field_make(2, 13), field_make(1009)
    out = [
        ("sp4-F5", symplectic_form(F5, 4), (None, 2)),
        ("o4+-F7", orthogonal_plus_form(F7, 4), (1, 3)),
        ("o4--F5", orthogonal_minus_form(F5, 4), (1, 2)),
        ("o2--F7", orthogonal_minus_form(F7, 2), (3,)),
        ("o6--F1009", orthogonal_minus_form(F1009, 6), (11,)),
        ("u3-F9", hermitian_form(E9, 3), (1, 2)),
        ("sp8-F16", symplectic_form(F16, 8), (1, F16.from_int(7))),
        ("u4-F64", hermitian_form(E64, 4), (1, E64.from_int(5))),
        ("sp6-F243", symplectic_form(F243, 6), (F243.from_int(100),)),
        ("u3-F49", hermitian_form(E49, 3), (3,)),
        ("sp4-F3^11", symplectic_form(F3_11, 4), (1, F3_11.from_int(12345))),
        ("u2-F101^2", hermitian_form(E101, 2), (2,)),
        ("sp4-F2^13", symplectic_form(F8192, 4), (F8192.from_int(4097),)),
    ]
    dense = [(name, form, (1,)) for name, form in zip(RATIO_IDS, RATIO_SPACES)
             if form.standard is None]
    return out + dense


WALK_SPACES = _walk_spaces()


@pytest.mark.parametrize("name, form, ratios", WALK_SPACES, ids=[w[0] for w in WALK_SPACES])
def test_group_sample_equals_the_dense_generator_walk(name, form, ratios):
    # the rank-one row update gives the very matrices of the dense walk, for
    # int and str seeds and counts 0 to 3
    for beta in ratios:
        for seed in (5, "walk"):
            for count in range(4):
                got = group_sample(form, beta, seed=seed, count=count)
                assert got == _reference_walk(form, beta, seed, count)


def test_group_sample_makes_no_product_per_generator(monkeypatch):
    # the only matrix products are the ratio checks, one per sample on a
    # standard space; the dense walk made two per generator (v w^T, then
    # g times the generator), 116 on top of the checks here
    F = field_make(101)
    form = symplectic_form(F, 8)
    real, calls = F.matmul, []

    def counted(ar, br):
        calls.append((len(ar), len(br[0])))
        return real(ar, br)

    monkeypatch.setattr(F, "matmul", counted)
    samples = group_sample(form, count=4)
    assert len(samples) == 4 and calls == [(8, 8)] * 4
