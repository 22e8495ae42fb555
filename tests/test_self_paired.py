"""The self-paired candidate scan against a per-candidate reference scan:
the same blocks, far fewer Krylov spans, and pairs that cannot hit charged
without testing their candidates; and Wall's parity rule against brute
force: a component the form forces onto cyclic pairs is never scanned."""

import importlib
import itertools
import random
import time

import pytest
from test_decomp import krylov_span, poly_at

from invofactor import (
    factor,
    field_make,
    group_sample,
    hermitian_form,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
    verify_certificate,
)
from invofactor.forms import SesquiForm
from invofactor.groups import group_enumerate
from invofactor.linalg import Mat, block_diag, gram, hstack
from invofactor.poly import pdeg, pdivmod, ppow, twisted_reciprocal

fac = importlib.import_module("invofactor.construct")
dec = importlib.import_module("invofactor.decomp")


def _candidate_vectors(F, ncols, limit=512):
    # deterministic scan order as (i, j, c), meaning col_i + c * col_j: the
    # basis columns alone (j None), then pairs i < j with the scalar key c
    # running 1 .. q-1; by polarization this reaches a non-isotropic vector
    # whenever the restricted form has one on a plain-column span (odd
    # characteristic).  The scan stops after `limit` pair candidates, whatever q is
    for i in range(ncols):
        yield i, None, 0
    count = 0
    for i in range(ncols):
        for j in range(i + 1, ncols):
            for c in range(1, F.order):
                yield i, j, c
                count += 1
                if count >= limit:
                    return


def _used_exponent(p_, block):
    # the exponent a self-paired block used: its annihilator is p^e.  The
    # block is called with p's exponent as an upper bound
    return (len(block[2]["annihilator"]) - 1) // pdeg(p_)


def _reference_component(a, pe):
    # ker pe(a) by evaluating pe at a, with no whole-space shortcut
    return poly_at(pe, a).right_kernel_basis()[0]


def _reference_block(form, beta, a, G, p_, e):
    """The reference scan: every candidate vector gets its own krylov_span
    and Gram determinant.  Returns the block, the accepted candidate (None
    when the scan fell through to the cyclic-pair construction) and the
    pairs met before it with a nonzero but singular Gram."""
    F = form.tower
    pe = ppow(p_, e, F)
    U = _reference_component(a, pe)
    probe = poly_at(ppow(p_, e - 1, F), a)
    cols = [U.col(j) for j in range(U.ncols)]
    x = None
    singular = set()
    for i, j, c in _candidate_vectors(F, len(cols)):
        v = cols[i] if j is None else cols[i] + cols[j] * F.from_int(c)
        if (probe @ v).is_zero():
            continue
        if x is None:
            x = v
        K, ann = krylov_span(a, v)
        assert ann == pe
        kg = K.T @ G @ K.conj()
        if kg.det():
            return fac._cyclic_block(F, beta, K, tuple(ann)), (i, j, c), singular
        if j is not None and not kg.is_zero():
            singular.add((i, j))
    Kx, _ = krylov_span(a, x)
    w = probe @ x
    y = next(u for u in cols if gram(w, G, u)[0, 0])
    Ky, anny = krylov_span(a, y)
    if (Ky.T @ G @ Ky.conj()).det():
        return fac._cyclic_block(F, beta, Ky, tuple(anny)), None, singular
    return fac._cyclic_pair_block(form, beta, G, Kx, Ky, p_, e), None, singular


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
    # unipotent Sp8 (D = 4) over small fields: a pair whose Gram determinant
    # vanishes at 2D + 1 scalars is charged, and a later pair is accepted
    for p in (11, 17):
        F = field_make(p)
        yield symplectic_form(F, 8), _shapes(F, 8)[4]
    # conjugated by [[I, 0], [I, I]] over GF(1009): the first live pair is
    # degenerate and its q - 1 candidates use up the limit, although a later
    # pair would hit, so the block is a cyclic pair
    F = field_make(1009)
    h = Mat.from_rows(F, [[int(i in (j, j + 4)) for j in range(8)] for i in range(8)])
    yield symplectic_form(F, 8), h @ _shapes(F, 8)[4] @ h.inv()
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
    seen = {
        "column": 0,
        "pair": 0,
        "conj_pair": 0,
        "charged_then_pair": 0,
        "fallback": 0,
        "exhausted": 0,
        "D=3": 0,
    }

    def both(form, beta, a, G, p_, e, factors):
        got = real(form, beta, a, G, p_, e, factors)
        e = _used_exponent(p_, got)
        want, hit, singular = _reference_block(form, beta, a, G, p_, e)
        assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
        F = form.tower
        D = pdeg(ppow(p_, e, F))
        seen["D=3"] += D == 3
        if hit is None:
            seen["fallback"] += 1
            ncols = _reference_component(a, ppow(p_, e, F)).ncols
            seen["exhausted"] += ncols * (ncols - 1) // 2 * (F.order - 1) > 512
        elif hit[1] is None:
            seen["column"] += 1
        else:
            seen["pair"] += 1
            seen["conj_pair"] += F.conj(hit[2]) != hit[2] and D >= 2
            # an earlier live pair was charged after 2D + 1 singular scalars
            # with candidates of its own still left
            seen["charged_then_pair"] += (
                not F.has_conj and F.order - 1 > 2 * D + 1 and any(s < hit[:2] for s in singular)
            )
        return got

    monkeypatch.setattr(fac, "_self_paired_block", both)
    for form, g in _cases():
        cert = factor(form, g)
        assert verify_certificate(form, g, cert).passed
    # every branch of the scan was compared, including a pair candidate of
    # D = 2 whose scalar is not conj-fixed, a pair accepted after a degenerate
    # pair was charged, a pair that used up the 512 limit and cyclic spaces
    # of dimension 3
    assert all(seen.values()), seen


def test_scan_charges_pairs_that_cannot_hit(monkeypatch):
    # per self-paired block: a dead pair evaluates no pair Gram, and without
    # conj a live pair evaluates at most 2D + 1, since its Gram determinant
    # is a polynomial of degree <= 2D in the scalar.  The shapes come plain
    # and conjugated by an isometry; the per-candidate walk evaluated up to
    # 512 Grams in one live pair of a conjugated unipotent Sp6
    real_block, real_terms, real_gram = fac._self_paired_block, fac._pair_gram_terms, fac._pair_gram
    pairs, evaluated, met = [], [], {"dead": 0, "live": 0}

    def terms(F, *grams):
        t = real_terms(F, *grams)
        pairs.append(t)
        return t

    def gram(F, t, c):
        evaluated.append(t)
        return real_gram(F, t, c)

    def block(form, beta, a, G, p_, e, factors):
        pairs.clear()
        evaluated.clear()
        got = real_block(form, beta, a, G, p_, e, factors)
        F = form.tower
        D = pdeg(ppow(p_, _used_exponent(p_, got), F))
        for t in pairs:
            n = sum(u is t for u in evaluated)
            if not any(x for part in t for x in part):
                met["dead"] += 1
                assert n == 0
            else:
                met["live"] += 1
                assert F.has_conj or n <= 2 * D + 1, (D, n)
        return got

    monkeypatch.setattr(fac, "_pair_gram_terms", terms)
    monkeypatch.setattr(fac, "_pair_gram", gram)
    monkeypatch.setattr(fac, "_self_paired_block", block)
    for p in (1009, 65537):
        F = field_make(p)
        for n in (4, 6):
            form = symplectic_form(F, n)
            h = group_sample(form, seed=f"count:{p}:{n}", count=1)[0]
            shapes = _shapes(F, n)
            for g in shapes + [h @ x @ h.inv() for x in shapes]:
                assert verify_certificate(form, g, factor(form, g)).passed
    go = orthogonal_plus_form(field_make(1009), 4)
    g = -Mat.identity(go.tower, 4)
    assert verify_certificate(go, g, factor(go, g)).passed
    assert met["dead"] and met["live"], met


@pytest.mark.parametrize("p", [11, 1009])
def test_pair_scan_charges_pairs_to_the_limit_in_order(p):
    # _scan_pairs on made-up cross-Grams (D x D, flat keys; unset ones zero):
    # without conj a pair's Gram is G_ii + c (G_ij + G_ji) + c^2 G_jj
    F = field_make(p)

    def scan(D, grams):
        return fac._scan_pairs(F, D, 3, lambda i, j: grams.get((i, j), [0] * (D * D)))

    # D = 1: (c - 1)(c - 2) vanishes at the first 2D scalars; c = 2D + 1 hits
    assert scan(1, {(0, 0): [2], (0, 1): [F.neg(3)], (1, 1): [1]}) == (0, 1, 3)
    # D = 2: pair (0, 1) has Gram c E_11, live and singular for every c, and
    # is charged its q - 1 candidates; pair (0, 2), Gram c^2 I, hits at c = 1
    # when the limit has room left for it
    grams = {(0, 1): [1, 0, 0, 0], (2, 2): [1, 0, 0, 1]}
    assert scan(2, grams) == ((0, 2, 1) if p - 1 < fac._PAIR_LIMIT else None)


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
    real = dec._krylov_span  # every span, minimal_polynomial's and _column_spans'

    def counted(F, apply, w):
        calls.append(len(w))
        return real(F, apply, w)

    monkeypatch.setattr(dec, "_krylov_span", counted)
    form = symplectic_form(field_make(1009), n)
    g = -Mat.identity(form.tower, n)
    cert = factor(form, g)
    assert verify_certificate(form, g, cert).passed
    # the minimal polynomial T + 1 of the space comes from e_0's span, and
    # every other residual (g + 1) e_j is zero; each complement inherits the
    # factor T + 1, as (g + 1) g|comp = 0 with T + 1 irreducible, so only
    # factor spans.  The blocks take their Krylov matrices from the scan's
    # per-column cache, made by matvec, and span nothing.  A minimal
    # polynomial per complement made n/2 spans, spanning every column of
    # each complement 6 + 4 + 2 for n = 6, and the per-candidate scan over
    # a thousand
    assert len(calls) == 1


def test_pair_scan_makes_one_product_with_the_gram_per_column(monkeypatch):
    # G_ij = K_i^T (G conj(K_j)) reuses G conj(K_j) for every Gram with
    # column j, so a scan that accepts a candidate has multiplied by G at
    # most once per column of its component; one product with G per G_ij
    # made one per pair term, more than the columns once a pair is scanned.
    # A product with G is a conj_product call (a gather on a standard
    # space's G) or a matrix product with G outside one
    real_block, real_cyclic, real_matmul = fac._self_paired_block, fac._cyclic_block, Mat.__matmul__
    real_conj_product = fac.conj_product
    current, met = [], {"pair_hits": 0}

    def matmul(A, B):
        scan = current[-1] if current else None
        if scan and not scan["inside"] and (A is scan["G"] or B is scan["G"]):
            scan["products"] += 1
        return real_matmul(A, B)

    def conj_product(G, B):
        scan = current[-1] if current else None
        if scan is None or G is not scan["G"]:
            return real_conj_product(G, B)
        scan["products"] += 1
        scan["inside"] = True
        try:
            return real_conj_product(G, B)
        finally:
            scan["inside"] = False

    def cyclic(F, beta, K, ann):
        scan = current[-1]
        assert scan["products"] <= len(scan["cols"]), (scan["products"], len(scan["cols"]))
        met["pair_hits"] += K.col(0) not in scan["cols"]
        return real_cyclic(F, beta, K, ann)

    def block(form, beta, a, G, p_, e, factors):
        U, _ = fac._component(a, a.tower.matvec(a.rows), factors, p_, e)
        current.append({"G": G, "products": 0, "inside": False, "cols": [U.col(j) for j in range(U.ncols)]})
        try:
            return real_block(form, beta, a, G, p_, e, factors)
        finally:
            current.pop()

    monkeypatch.setattr(Mat, "__matmul__", matmul)
    monkeypatch.setattr(fac, "conj_product", conj_product)
    monkeypatch.setattr(fac, "_cyclic_block", cyclic)
    monkeypatch.setattr(fac, "_self_paired_block", block)
    for form, g in _cases():
        assert verify_certificate(form, g, factor(form, g)).passed
    assert met["pair_hits"], met


def _krylov(a, v, D):
    cols = [v]
    for _ in range(D - 1):
        cols.append(a @ cols[-1])
    return hstack(cols)


def _brute_force_hits(form, a, G, p_, e):
    """Every full-height vector of ker p^e(a), and whether each spans a
    nondegenerate cyclic space, by running over all its vectors."""
    F = form.tower
    pe = ppow(p_, e, F)
    D = pdeg(pe)
    U = _reference_component(a, pe)
    probe = poly_at(ppow(p_, e - 1, F), a)
    for coeffs in itertools.product(range(F.order), repeat=U.ncols):
        v = U @ Mat(F, tuple((c,) for c in coeffs))
        if not (probe @ v).is_zero():
            K = _krylov(a, v, D)
            yield bool((K.T @ G @ K.conj()).det())


def _column_and_pair_search_hits(form, a, G, p_, e):
    # the search a forced component no longer runs: every full-height
    # column, then the pair candidates of _scan_pairs
    F = form.tower
    pe = ppow(p_, e, F)
    D = pdeg(pe)
    U = _reference_component(a, pe)
    probe = poly_at(ppow(p_, e - 1, F), a)
    cols = [U.col(j) for j in range(U.ncols)]
    Ks = [_krylov(a, c, D) for c in cols]

    def cross(i, j):
        return [x for r in (Ks[i].T @ G @ Ks[j].conj()).rows for x in r]

    for i, c in enumerate(cols):
        if not (probe @ c).is_zero() and fac._nondegenerate(F, D, cross(i, i)):
            return True
    return fac._scan_pairs(F, D, len(cols), cross) is not None


# (label, form, beta, elements): the first elements of each group in
# canonical order, all of Sp4(F2); GSp4(F5) meets its first forced
# component, for the eigenvalues +-2 of ratio 4, at element 625
PARITY_GROUPS = [
    ("Sp4(F3)", symplectic_form(field_make(3), 4), 1, 150),
    ("Sp4(F2)", symplectic_form(field_make(2), 4), 1, 720),
    ("GSp4(F5),b=4", symplectic_form(field_make(5), 4), 4, 640),
    ("GO4+(F3)", orthogonal_plus_form(field_make(3), 4), 1, 150),
    ("GO4-(F3)", orthogonal_minus_form(field_make(3), 4), 1, 150),
    ("GO4+(F5)", orthogonal_plus_form(field_make(5), 4), 1, 150),
]


@pytest.mark.parametrize("label, form, beta, count", PARITY_GROUPS, ids=[g[0] for g in PARITY_GROUPS])
def test_parity_rule_matches_brute_force(monkeypatch, label, form, beta, count):
    # every component the rule forces has no full-height vector with a
    # nondegenerate cyclic space, so the column and pair search it skips
    # finds nothing either.  In odd characteristic over a trivial conj the
    # rule is sharp for linear p: an unforced component has such a vector
    real = fac._self_paired_block
    met = {"forced": 0, "sharp": 0}

    def block(form, beta, a, G, p_, e, factors):
        got = real(form, beta, a, G, p_, e, factors)
        e = _used_exponent(p_, got)
        F = form.tower
        if fac._forced_pair(form, p_, e):
            hits = list(_brute_force_hits(form, a, G, p_, e))
            assert hits and not any(hits), (label, p_, e)
            assert not _column_and_pair_search_hits(form, a, G, p_, e)
            met["forced"] += 1
        elif F.p != 2 and pdeg(p_) == 1:
            assert any(_brute_force_hits(form, a, G, p_, e)), (label, p_, e)
            met["sharp"] += 1
        return got

    monkeypatch.setattr(fac, "_self_paired_block", block)
    for g in itertools.islice(group_enumerate(form, beta), count):
        factor(form, g)
    # GO4-(F3) has Witt index 1, so no unipotent of Jordan type (2, 2) and
    # nothing the rule forces
    assert met["forced"] or label == "GO4-(F3)", met
    assert met["sharp"] or label == "Sp4(F2)", met


def _siegel(F):
    # [[I, S], [0, I]] with S = [[0, 1], [-1, 0]] alternating: an isometry of
    # the split orthogonal GO4+ with Jordan type (2, 2)
    return Mat.from_rows(F, [[1, 0, 0, 1], [0, 1, F.p - 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _structured_cases():
    # the repeated-eigenvalue shapes over GF(1009): -I on Sp6 and GO4+, the
    # unipotent diag(J_m, J_m^-T) on Sp4, Sp6 and GO4+ (an isometry of both
    # standard forms) and the Siegel unipotent of GO4+, plain and
    # conjugated by a sampled isometry
    F = field_make(1009)
    go = orthogonal_plus_form(F, 4)
    yield symplectic_form(F, 6), -Mat.identity(F, 6)
    yield go, -Mat.identity(F, 4)
    shapes = [(symplectic_form(F, n), _shapes(F, n)[4]) for n in (4, 6)]
    shapes += [(go, _shapes(F, 4)[4]), (go, _siegel(F))]
    for form, g in shapes:
        h = group_sample(form, seed="parity", count=1)[0]
        yield form, g
        yield form, h @ g @ h.inv()


def test_forced_components_are_not_scanned(monkeypatch):
    # a component the form forces onto cyclic pairs goes from its first
    # full-height column to the cyclic-pair path: no Gram determinant and no
    # pair scan runs inside it, while unforced components still scan
    # (whether a component is forced depends on the exponent the block
    # used, known once it returns)
    real_block, real_scan, real_nondeg = fac._self_paired_block, fac._scan_pairs, fac._nondegenerate
    inside = []
    met = {"forced": 0, "unforced_scans": 0}

    def block(form, beta, a, G, p_, e, factors):
        inside.append({"scans": 0, "nondegenerate": 0})
        try:
            got = real_block(form, beta, a, G, p_, e, factors)
        finally:
            calls = inside.pop()
        forced = fac._forced_pair(form, p_, _used_exponent(p_, got))
        met["forced"] += forced
        met["unforced_scans"] += calls["scans"]
        assert not forced or calls == {"scans": 0, "nondegenerate": 0}, calls
        return got

    def scan(*args):
        inside[-1]["scans"] += 1
        return real_scan(*args)

    def nondegenerate(*args):
        inside[-1]["nondegenerate"] += 1
        return real_nondeg(*args)

    monkeypatch.setattr(fac, "_self_paired_block", block)
    monkeypatch.setattr(fac, "_scan_pairs", scan)
    monkeypatch.setattr(fac, "_nondegenerate", nondegenerate)
    for form, g in _structured_cases():
        assert verify_certificate(form, g, factor(form, g)).passed
    assert met["forced"] and met["unforced_scans"], met


def test_scalar_elements_span_one_minimal_polynomial(monkeypatch):
    # on +-I and c*I every complement inherits the factor T - c: p(a) = 0
    # with p irreducible fixes the complement's minimal polynomial
    calls = []
    real = fac.minimal_polynomial

    def counted(g):
        calls.append(1)
        return real(g)

    monkeypatch.setattr(fac, "minimal_polynomial", counted)
    for p, k in ((1009, 1), (65537, 1), (2, 12)):
        F = field_make(p, k)
        forms = [symplectic_form(F, n) for n in (4, 6)]
        if p != 2:
            forms += [orthogonal_plus_form(F, 4), orthogonal_minus_form(F, 4)]
        for form in forms:
            eye = Mat.identity(F, form.n)
            for g in (eye, -eye, eye * F.from_int(5)):
                calls.clear()
                cert = factor(form, g)
                assert len(cert.blocks) > 1 and len(calls) == 1


def test_simple_factor_complements_keep_their_factors(monkeypatch):
    # diag(A, A^-T) with A = diag(1, 1, -1, -1) on Sp8(F1009): each
    # eigenspace is 4-dimensional and each self-paired block of T - 1 or
    # T + 1 is a cyclic pair of dimension 2.  The first block leaves half of
    # its eigenspace, so its complement keeps both factors; the second fills
    # it, so the next complement keeps the other factor alone.  Only g's own
    # minimal polynomial is computed, where spanning each complement with
    # two factors took three
    F = field_make(1009)
    calls, fac_seen = [], []
    real, real_block = fac.minimal_polynomial, fac._self_paired_block

    def counted(g):
        calls.append(1)
        return real(g)

    def block(form, beta, a, G, p_, e, factors):
        fac_seen.append([(pdeg(q), m) for q, m in factors])
        return real_block(form, beta, a, G, p_, e, factors)

    monkeypatch.setattr(fac, "minimal_polynomial", counted)
    monkeypatch.setattr(fac, "_self_paired_block", block)
    A = Mat.diag(F, [F.scalar(c) for c in (1, 1, -1, -1)])
    form = symplectic_form(F, 8)
    g = block_diag(F, [A, A.inv().T])
    h = group_sample(form, seed="simple", count=1)[0]
    for g in (g, h @ g @ h.inv()):
        calls.clear()
        fac_seen.clear()
        cert = factor(form, g)
        assert verify_certificate(form, g, cert).passed
        assert [b["case"] for b in cert.blocks] == ["cyclic_pair"] * 4
        assert fac_seen == [[(1, 1), (1, 1)]] * 2 + [[(1, 1)]] * 2
        assert len(calls) == 1


def multiplicities(f, irreducibles, F):
    """factorize's [(g, mult)] for a monic f whose irreducible factors are
    among the given ones, found by division and kept in their order: the
    reference for the exponents a complement's factors carry."""
    out = []
    for g in irreducibles:
        q, r = pdivmod(f, g, F)
        m = 0
        while not r:
            f, m = q, m + 1
            q, r = pdivmod(f, g, F)
        if m:
            out.append((g, m))
    assert len(f) == 1, "factor outside the irreducibles"
    return out


def _jordan_3_1(F):
    # g = (I + N)(I - N)^-1 on the identity Gram of GF(5)^4, with N skew and
    # nilpotent (1^2 + 2^2 = 0 mod 5): an isometry of Jordan type (3, 1)
    # for the eigenvalue 1
    N = Mat.from_rows(F, _int_rows([[0, 1, 2, 0], [-1, 0, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0]], F.p))
    eye = Mat.identity(F, 4)
    return orthogonal_form(F, eye), (eye + N) @ (eye - N).inv()


def test_self_paired_blocks_use_the_true_exponent(monkeypatch):
    # a self-paired block gets p's exponent as an upper bound and uses p's
    # multiplicity in the minimal polynomial of the restricted matrix; the
    # factors it is given are those of that minimal polynomial, in order,
    # each exponent at or above the true one and exact for paired factors
    real = fac._self_paired_block
    met = {"exact": 0, "bound": 0}

    def block(form, beta, a, G, p_, e, factors):
        got = real(form, beta, a, G, p_, e, factors)
        F = form.tower
        want = multiplicities(dec.minimal_polynomial(a), [q for q, _ in factors], F)
        assert [q for q, _ in want] == [q for q, _ in factors]
        for (q, m), (_, bound) in zip(want, factors):
            assert m <= bound and (m == bound or tuple(twisted_reciprocal(q, beta.key, F)) == q)
        assert _used_exponent(p_, got) == want[0][1]
        met["exact" if want[0][1] == e else "bound"] += 1
        return got

    monkeypatch.setattr(fac, "_self_paired_block", block)
    cases = list(_cases()) + list(_structured_cases()) + [_jordan_3_1(field_make(5))]
    for form, g in cases:
        assert verify_certificate(form, g, factor(form, g)).passed
    assert all(met.values()), met


def test_search_steps_down_to_the_true_exponent(monkeypatch):
    # the Jordan (3, 1) isometry: a cyclic block of (T - 1)^3, then its
    # complement, a line, inherits (T - 1, 3) and its search steps from 3
    # through 2 to 1 (one _forced_pair test per exponent searched).  Only
    # g's own minimal polynomial is computed, where spanning the complement
    # took a second
    F = field_make(5)
    form, g = _jordan_3_1(F)
    searched, calls = [], []
    real_forced, real_mp = fac._forced_pair, fac.minimal_polynomial

    def forced(form, p_, e):
        searched.append(e)
        return real_forced(form, p_, e)

    def counted(g):
        calls.append(1)
        return real_mp(g)

    monkeypatch.setattr(fac, "_forced_pair", forced)
    monkeypatch.setattr(fac, "minimal_polynomial", counted)
    cert = factor(form, g)
    assert verify_certificate(form, g, cert).passed
    assert [(b["case"], b["dim"]) for b in cert.blocks] == [("cyclic", 3), ("cyclic", 1)]
    assert searched == [3, 3, 2, 1]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make, blocks",
    [
        (lambda: symplectic_form(field_make(101), 64), 25),
        (lambda: hermitian_form(field_make(7, 1, "quadratic"), 32), 13),
        (lambda: symplectic_form(field_make(101), 96), 40),
        (lambda: hermitian_form(field_make(7, 1, "quadratic"), 48), 26),
    ],
    ids=["Sp64(F101)", "U32(F49)", "Sp96(F101)", "U48(F49)"],
)
def test_large_products_compute_one_minimal_polynomial(monkeypatch, make, blocks):
    # the product of two group_sample elements (seed 1) and one minimal
    # polynomial for all of its blocks; factor stays under 10 s (1.2 to 1.5 s
    # for Sp96 and U48 on a 2-core VM with CPython 3.11)
    calls = []
    real = fac.minimal_polynomial

    def counted(g):
        calls.append(1)
        return real(g)

    monkeypatch.setattr(fac, "minimal_polynomial", counted)
    form = make()
    a, b = group_sample(form, seed=1, count=2)
    g = a @ b
    start = time.perf_counter()
    cert = factor(form, g)
    assert time.perf_counter() - start < 10
    assert verify_certificate(form, g, cert).passed
    assert len(cert.blocks) == blocks
    assert len(calls) == 1
