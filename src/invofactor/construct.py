"""The construction behind factor: a similitude g of a finite classical
group as h1 * h2, where h1 is a twist-1 involution of ratio 1 and h2 is a
twist-1 map squaring to the similitude ratio beta.

factor (factor.py) checks its arguments; this module builds the
certificate and checks it (certificate), and factor loads it on its first
call, so that a caller that only checks certificates (verify.py, the
`invofactor verify` command) never compiles it.

The space splits into mutually orthogonal invariant blocks of three shapes,
driven by how each irreducible factor p of the minimal polynomial sits
under the ratio-twisted reciprocal p -> p~ (roots move to beta/conj(root)):

- paired:       p~ != p.  The p- and p~-primary components pair off; in a
                dual-normalized basis the involution is
                [[0, X], [conj(X)^(-1), 0]] for any symmetric X intertwining
                the one-sided action a with its transpose (a X = X a^T).
- cyclic:       p~ = p and a full-height vector v spans a nondegenerate
                invariant subspace Z; g^i v -> beta^i g^(-i) v defines the
                involution on Z.  v comes from a fixed scan over the
                component's basis columns and their scaled pairwise sums.
                Krylov matrices are linear in v and cyclic Grams
                sesquilinear, so each candidate is tested by combining
                per-column data on keys, not by spanning it afresh.  At
                most 512 pair candidates count; a pair that cannot hit is
                charged its q - 1 of them in one step: a dead pair (Gram
                zero for every scalar c) and, without conj, a pair with
                2D + 1 singular scalars, since there the Gram determinant
                is a polynomial of degree <= 2D in c (D = deg p^e).  Over
                conj fields the Gram depends on c and conj(c), and each
                candidate of a live pair is tested.
- cyclic pair:  p~ = p but the cyclic spaces met are degenerate; two of them
                pair through a unit gamma with gamma * gamma~ = 1 and the
                involution is the v-side cyclic map plus a gamma-corrected
                cyclic map on the partner side.

Which of the last two a component can carry is often fixed by the form
(Wall 1963): under an alternating form an odd D is degenerate, and over a
trivial conj in odd characteristic a linear p = T - mu with
(-1)^(e-1) eps = -1 (orthogonal with e even, symplectic with e odd) has a
socle vector orthogonal to its whole cyclic space.  Such a forced
component skips the scan and takes a cyclic pair from its first
full-height column (_forced_pair).

Cyclic spaces are worked in companion coordinates.  In the Krylov basis
K(v) = [v, gv, ..., g^(D-1) v], g acts by the companion matrix C of v's
annihilator p^e, so C^(-1), the powers g^m y = K(y) C^m e_0 that gamma's
equations pair, and gamma(C) are shifts of coefficient lists mod p^e: no
matrix is inverted and no polynomial is evaluated at a matrix to build a
cyclic or cyclic-pair block.  The Krylov matrices themselves come from one
matvec of a per block.

This module is the one place that splits a space into primary components
(_component: ker p^e(a), p^e(a) made by columns through one matvec of a,
or the standard basis when p^e is all of mp(a)).  factor factors mp(g)
once per element, and makes each power p^e, twisted reciprocal and cyclic
involution once per call, through the memo that _shared reads (inside a
survey, once per distinct argument).  Every complement inherits those
factors less the ones whose components its block filled: the other
primary components lie whole in the complement (Wall), so a paired block
drops p and p~, and a self-paired block drops p when it fills
U = ker p^e(a).  Otherwise the
complement keeps what is left of U with p at the exponent the block used,
which is then an upper bound: ker p^e(a) is the same U for every e at or
above the true exponent, and the next self-paired search steps e down to
its first full-height column.
A paired block's conjugator gets a restricted to one component, which is
primary and needs no factors (decomp.frobenius_form); each companion block
of f is conjugated onto its transpose by the Hankel matrix of f's
coefficients, with no inverse.

The split is a loop over levels (_level): a level takes a, its space's
Gram G and its factors, and gives the block and the complement, with a
restricted to it, the complement's Gram and the factors it inherits.
Every level below the top comes through the memo under the key (a, G,
factors), and so do a paired block's intertwiner X with conj(X)^(-1),
under the restricted matrix, and the inverse pairing conj(M)^(-1), under
M: by Wall's classification the complements left after the first blocks
fall into few (a, G) shapes across a group, so a survey builds each
once, while a bare call's keys cannot repeat and each is computed.  The
top level, whose key would be g itself, is never memoized.  So the
levels take one path: a bare call and a survey element differ only in
certificate, in where beta comes from and who checks the certificate.
The memo holds immutable values only, in its keys and its results: Mats,
FieldElems and tuples, each polynomial a tuple of keys and each factor
list a tuple of (polynomial, e).  factorize's, ppow's and
twisted_reciprocal's lists become tuples where the memo stores them, so a
stored value is handed out as it is, and each block of a certificate gets
its own dict of its level's data.

The blocks assemble into h1 = B M conj(B)^(-1), B the block bases side by
side and M the local involutions on its diagonal, by one elimination:
h1 conj(B) = B M, so the rref of [conj(B)^T | (B M)^T] is [I | h1^T].
Its rows are made block by block: block i gives [conj(B_i)^T | M_i^T B_i^T]
from the columns of its lifted basis B_i and its local involution M_i,
with no block-diagonal M and no n x n product.

Blocks are not re-checked one by one.  The one check is the verifier's
core_checks on the assembled certificate, made by certificate before
factor returns it outside a survey; inside one, the survey's
verify_certificate is the check.  Outside a survey, a block that breaks
its identities fails there and raises InternalInvariantError; inside one,
the survey raises VerificationError.  Outside a survey beta is read off g
by similitude_ratio, so the check takes g_is_similitude_of_beta as shown
and makes no second Gram of g: 2 matrix products on a standard space, 3
on a dense one.  Inside one beta is the survey's, which group_enumerate
and group_sample make g's ratio, and verify_certificate's check of
g_is_similitude_of_beta makes the one Gram of g.  The
guards left inside the construction only stop an impossible intermediate
(a missing reciprocal factor, an empty kernel, a degenerate pairing) from
turning into a crash or an input error.  A complement's Gram is not
tested: each block builder has shown its block nondegenerate (the cyclic
hit, the invertible pairing, the cyclic pair's Gram), and a complement is
nondegenerate exactly when its block is.  The block transcripts are
descriptive and are not verified.  A block keeps its lifted basis, local
involution and intertwiner as matrices and its polynomials as key tuples,
and they are serialized only when the transcript is read: by FactorCert.blocks or serialize, or into the
context of a DetRefinementError or an InternalInvariantError.  All
searches are deterministic, so factoring the same element twice yields
byte-identical certificates.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, combinations

from .decomp import frobenius_form, minimal_polynomial, poly_column, restrict
from .errors import DetRefinementError, InternalInvariantError, SingularMatrixError
from .linalg import Mat, block_diag, conj_product, gram, hstack, vstack
from .poly import factorize, pdeg, pmod, pnormal, ppow, pserialize, twisted_reciprocal
from .verify import FactorCert, _Block, core_checks, det_target

# results shared within one factor call, or among the elements of one
# survey, by function and arguments (polynomials as key tuples), and the
# survey's beta under "beta"; None outside both
_memo = ContextVar("factor_memo", default=None)


@contextmanager
def _shared_within_survey(beta):
    """Inside this context, factor computes each factorization of a minimal
    polynomial, each per-factor polynomial and cyclic involution, each split
    level below an element's top level and each paired block's intertwiner
    and inverse pairing once for all its calls, takes beta as g's ratio,
    and returns its certificate unchecked.

    survey holds it for its loop, where many elements share a minimal
    polynomial, every element has the ratio beta (group_enumerate and
    group_sample give no other) and every certificate goes to
    verify_certificate, which is then the one check and the one Gram of g.
    The levels and memoized values are those of a bare call, which keeps
    the same memo for itself: only certificate tells the two apart.  The
    memo ends with the context, so a later call, or a later survey,
    computes afresh, reads its own beta and checks its own result."""
    token = _memo.set({"beta": beta})
    try:
        yield
    finally:
        _memo.reset(token)


def _shared(fn, *args):
    # fn(*args), made once per memo for each distinct args: factor opens a
    # memo for its call when no survey holds one, so each power p^e,
    # reciprocal and cyclic involution is made once per call, not once per
    # recursion level and use.  Outside both (the public helpers below
    # factor), fn(*args) itself.  Keys and results alike are immutable
    # (polynomials and factor lists as key tuples, Mats, FieldElems), so a
    # stored result is handed out as it is, to every caller
    memo = _memo.get()
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = fn(*args)
    return out


def _keys(fn, *args):
    # the polynomial fn(*args) as a key tuple, the form the memo holds
    return tuple(fn(*args))


def _factors(f, F):
    # factorize's factor list of the key tuple f, as ((p, e), ...) with
    # each p a key tuple
    return tuple((tuple(p_), e) for p_, e in factorize(f, F))


def _component(a, apply, fac, p_, e):
    # (basis, free): a basis of ker p^e(a), as columns, and the rows of it
    # that form the identity (decomp.restrict), for fac the factors of
    # mp(a) and apply the tower's matvec of a: the standard basis when p^e
    # is all of mp(a), so that p^e(a) = 0
    F, n = a.tower, a.nrows
    if len(fac) == 1:
        return Mat.identity(F, n), range(n)
    pe = _shared(_keys, ppow, p_, e, F)
    cols = [poly_column(F, apply, pe, j, n) for j in range(n)]
    U, free = _columns(F, cols).right_kernel_basis()
    if not free:
        raise InternalInvariantError("expected a nonzero kernel", {"factor": pserialize(p_, F)})
    return U, free


def _paired_block(form, beta, a, G, p_, e, ps, fac):
    # the block, and its complement's factors: fac without p and p~
    F = form.tower
    if (ps, e) not in fac:
        raise InternalInvariantError(
            "reciprocal factor missing or with mismatched multiplicity",
            {"factor": pserialize(p_, F), "reciprocal": pserialize(ps, F)},
        )
    apply = F.matvec(a.rows)
    U, free = _component(a, apply, fac, p_, e)
    Us, _ = _component(a, apply, fac, ps, e)
    r = U.ncols
    if Us.ncols != r:
        raise InternalInvariantError("paired components differ in dimension", {})
    # a restricted to its p-primary component has minimal polynomial p^e
    M = gram(U, G, Us)  # M[i, k] = <u_i, u'_k>
    try:
        X, Xinv = _shared(_intertwiner, restrict(a, U, free))
        coeffs = _shared(_conj_inv, M) * form.eps_elem
    except SingularMatrixError:
        raise InternalInvariantError("pairing or its intertwiner is degenerate", {})
    # both components are totally isotropic, so the basis [U, Us coeffs] has
    # Gram [[0, eps], [1, 0]] and a acts on its second half by
    # beta * conj(a|U)^(-T); t swaps the halves through X
    B1 = hstack([U, Us @ coeffs])
    z = Mat.zeros(F, r, r)
    t = vstack([hstack([z, X]), hstack([Xinv, z])])
    data = {
        "case": "paired",
        "dim": 2 * r,
        "factor": p_,
        "reciprocal": ps,
        "multiplicity": e,
        "intertwiner": X,
    }
    return B1, t, data, tuple((q, m) for q, m in fac if q != p_ and q != ps)


def _intertwiner(r):
    # X and conj(X)^(-1) for the symmetric conjugator X of a primary r
    X = _symmetric_conjugator(r)
    return X, _conj_inv(X)


def _conj_inv(M):
    return M.conj().inv()


def _t_times(F, pe, v):
    # T * v mod pe on coefficient lists of length deg pe: the companion
    # matrix of pe applied to v, a shift up with the top entry folded back
    return F.sub_scaled([0] + v[:-1], v[-1], pe[:-1])


def _t_over(F, back, v):
    # T^(-1) * v mod pe, with back = pe[1:] / pe[0]: since
    # T (pe[1] + pe[2] T + ...) = -pe[0], T^(-1) is -back, so C^(-1) v is v
    # shifted down minus v[0] * back
    return F.sub_scaled(v[1:] + [0], v[0], back)


def _powers(step, v, count):
    # v, step(v), ..., count steps
    out = [v]
    for _ in range(count):
        out.append(step(out[-1]))
    return out


def _columns(F, cols):
    return Mat(F, tuple(zip(*cols)))


def _cyclic_t(F, beta, ann):
    # columns beta^i C^(-i) e_0 for the companion C of ann, in the Krylov
    # basis where a acts by C
    D = pdeg(ann)
    back = F.scale(ann[1:], F.inv(ann[0]))
    e0 = [1] + [0] * (D - 1)
    return _columns(F, _powers(lambda v: F.scale(_t_over(F, back, v), beta.key), e0, D - 1))


def _cyclic_block(F, beta, K, ann):
    # K is the Krylov basis of a vector with annihilator ann, so a acts on it
    # by the companion matrix of ann
    t = _shared(_cyclic_t, F, beta, ann)
    return K, t, {"case": "cyclic", "dim": K.ncols, "annihilator": ann}


def _times_matrix(F, f, pe):
    # the matrix of h -> f * h mod pe in the monomial basis (f reduced mod
    # pe): column j is T^j f, that is f(C) for the companion C of pe
    D = pdeg(pe)
    return _columns(F, _powers(lambda v: _t_times(F, pe, v), f + [0] * (D - len(f)), D - 1))


def _gamma(F, beta, eps, G, x, Ky, pe):
    """The pairing correction gamma in E[T]/(pe), as a key polynomial: a unit
    with gamma * gamma~ = 1 (gamma~ conjugates the coefficients and sends T
    to beta / T).  That is not re-checked; a wrong gamma makes the partner
    side's involution wrong, and factor's final check rejects it.

    Ky is the Krylov basis of y, on which g acts by the companion C of pe,
    so g^m y = Ky C^m e_0: its coordinates are T^m mod pe.  G is
    eps-hermitian (eps a key), so <g^m y, x> = eps conj(<x, g^m y>) and one
    Gram gives both sides of gamma's equations."""
    D = pdeg(pe)
    e0 = [1] + [0] * (D - 1)
    back = F.scale(pe[1:], F.inv(pe[0]))
    down = _powers(lambda v: _t_over(F, back, v), e0, D - 1)
    up = _powers(lambda v: _t_times(F, pe, v), e0, 2 * D - 2)
    # columns g^m y for m in [-(D-1), 2D-2], column m + D - 1
    Y = Ky @ _columns(F, down[:0:-1] + up)
    xg = gram(x, G, Y).rows[0]  # <x, g^m y>
    # gamma = sum_k c_k T^k must satisfy, for every shift i,
    #   sum_k conj(c_k) <x, g^(i+k) y> = beta^i <g^(-i) y, x>
    # (the cross-pairing conditions of the corrected involution)
    rows = []
    rhs = []
    for i in range(-(D - 1), D):
        rows.append(xg[i + D - 1 : i + 2 * D - 1])
        rhs.append(F.mul(F.mul(F.pow(beta.key, i), eps), F.conj(xg[D - 1 - i])))
    sol = Mat(F, tuple(rows)).solve_right(Mat(F, tuple((r,) for r in rhs)))
    if sol is None:
        raise InternalInvariantError("pairing correction system is unsolvable", {})
    return pmod(pnormal([F.conj(r[0]) for r in sol.rows]), pe, F)


def _cyclic_pair_block(form, beta, G, Kx, Ky, p_, e):
    F = form.tower
    pe = _shared(_keys, ppow, p_, e, F)
    gamma = _gamma(F, beta, form.eps_elem.key, G, Kx.col(0), Ky, pe)
    Tx = _shared(_cyclic_t, F, beta, pe)
    t = block_diag(F, [Tx, _times_matrix(F, gamma, pe) @ Tx])
    B1 = hstack([Kx, Ky])
    if not gram(B1, G, B1).det():
        raise InternalInvariantError("paired cyclic Gram is degenerate", {})
    data = {
        "case": "cyclic_pair",
        "dim": 2 * pdeg(pe),
        "annihilator": pe,
        "gamma": tuple(gamma),
    }
    return B1, t, data


def _pair_gram_terms(F, gii, gij, gji, gjj):
    # the cyclic Gram of col_i + c * col_j is
    # G_ii + conj(c) G_ij + c G_ji + c conj(c) G_jj (G_ab flat key lists);
    # with a trivial conj, G_ii + c (G_ij + G_ji) + c^2 G_jj
    if F.has_conj:
        return gii, gij, gji, gjj
    return gii, list(map(F.add, gij, gji)), gjj


def _pair_gram(F, terms, c):
    # the Gram of _pair_gram_terms at the scalar key c, as flat keys
    add, mul = F.add, F.mul
    if not F.has_conj:
        return [add(s, mul(c, add(t, mul(c, w)))) for s, t, w in zip(*terms)]
    cc = F.conj(c)
    ccc = mul(c, cc)
    return [
        add(add(s, mul(cc, t)), add(mul(c, u), mul(ccc, w))) for s, t, u, w in zip(*terms)
    ]


# the scan tests at most this many pair candidates, whatever q is
_PAIR_LIMIT = 512


def _nondegenerate(F, D, ent):
    # ent is a D x D Gram as flat keys
    return ent[0] if D == 1 else Mat(F, tuple(zip(*[iter(ent)] * D))).det()


def _scan_pairs(F, D, ncols, cross):
    """The first pair candidate (i, j, c), meaning col_i + c * col_j, whose
    cyclic Gram is nondegenerate, or None.  The order is pairs i < j, each
    with the scalar key c running 1 .. q-1; only the first _PAIR_LIMIT
    candidates count, the one that reaches the limit included.  By
    polarization this order reaches a non-isotropic vector whenever the
    restricted form has one on a plain-column span (odd characteristic).

    A pair is charged its q - 1 candidates at once, and the scan moves on,
    when none of the rest can hit: a dead pair (every Gram term zero), and,
    over a field with trivial conj, a pair with 2D + 1 singular scalars.
    There the Gram G_ii + c (G_ij + G_ji) + c^2 G_jj has entries of degree
    <= 2 in c, so its determinant is a polynomial of degree <= 2D in c, and
    2D + 1 distinct roots make it zero.  With a nontrivial conj the Gram
    depends on c and conj(c) = c^r (q = r^2), no such degree bound holds,
    and every candidate up to the limit is tested."""
    left = _PAIR_LIMIT
    for i, j in combinations(range(ncols), 2):
        if left <= 0:
            return None
        share = min(F.order - 1, left)  # the pair's candidates inside the limit
        left -= F.order - 1
        terms = _pair_gram_terms(F, cross(i, i), cross(i, j), cross(j, i), cross(j, j))
        if not any(chain(*terms)):
            continue
        if not F.has_conj:
            share = min(share, 2 * D + 1)
        for c in range(1, share + 1):
            if _nondegenerate(F, D, _pair_gram(F, terms, c)):
                return i, j, c
    return None


def _forced_pair(form, p_, e):
    """True when no full-height vector of a self-paired p-primary component
    spans a nondegenerate cyclic space (Wall 1963), so that the component
    can only carry cyclic pairs.  D = deg p^e is the cyclic space's
    dimension.  Under an alternating form an odd D is degenerate in every
    characteristic.  Over a trivial conj in odd characteristic, with
    p = T - mu, the socle vector w = (a - mu)^(e-1) v of Z = K(v) satisfies
    <w, v> = (-1)^(e-1) eps <w, v> (as (a - mu)* = -mu a^(-1) (a - mu) and
    a w = mu w) and is orthogonal to (a - mu) Z, so Z is degenerate when
    (-1)^(e-1) eps = -1: orthogonal with e even, symplectic with e odd."""
    if form.kind == "symplectic" and pdeg(p_) * e % 2:
        return True
    F = form.tower
    return not F.has_conj and F.p != 2 and pdeg(p_) == 1 and (-1) ** (e - 1) * form.eps == -1


def _self_paired_block(form, beta, a, G, p_, e, fac):
    """A cyclic or cyclic-pair block inside the component U = ker p^e(a),
    for fac the factors of mp(a) with p's exponent e an upper bound, and the
    factors its complement inherits: fac without p when the block fills U,
    else fac with p at the exponent the block used.

    U is ker p^e(a) for every e at or above p's true exponent, and has a
    full-height column only there, so the search steps e down until one is.
    It looks for a full-height v = col_i + c * col_j whose cyclic space has
    a nondegenerate Gram: the columns alone first, then the pair candidates
    of _scan_pairs.  The map v -> K(v) = [v, av, ..., a^(D-1) v]
    (D = deg p^e) is linear, so the tests combine per-column data, made
    once when a candidate first needs it: K_i, P_i = p^(e-1)(a) col_i (a
    combination of the columns of K_i, as deg p^(e-1) < D) and
    G_ab = K_a^T (G conj(K_b)), with G conj(K_b) made once per column b.
    A column is full height when P_i != 0, which gives ann = p^e since
    p^e(a) U = 0 and p is irreducible.  A pair's cyclic Gram is
    G_ii + conj(c) G_ij + c G_ji + c conj(c) G_jj, computed on keys; a
    nondegenerate one makes K(v) of rank D, so v is full height too.  A
    pair whose Gram is zero for every c (each 1-dimensional cyclic space of
    a symplectic form, a totally isotropic plane) is charged to the limit
    in one step, and so, without conj, is a pair whose Gram determinant is
    shown to vanish for every c (see _scan_pairs).
    When no candidate is nondegenerate, the first full-height column x and a
    column y pairing with p^(e-1)(a) x (so y is full height, as p is
    self-paired) give a cyclic pair from the cached K_x and K_y.  A
    component that _forced_pair marks has no nondegenerate candidate, so it
    stops at the first full-height column and takes that cyclic pair with
    no Gram determinant and no pair scan: the same block the full search
    ends in."""
    F = form.tower
    apply = F.matvec(a.rows)
    U, _ = _component(a, apply, fac, p_, e)
    cols = [list(c) for c in zip(*U.rows)]
    for e in range(e, 0, -1):
        pe = _shared(_keys, ppow, p_, e, F)
        D = pdeg(pe)
        p_low = _shared(_keys, ppow, p_, e - 1, F)
        # keys enter as they are: Mat.column would read them as GF(p) scalars
        probe = Mat(F, tuple((c,) for c in p_low + (0,) * (D - len(p_low))))

        ks, gs, xs = {}, {}, {}

        def krylov(i):
            if i not in ks:
                ks[i] = _columns(F, _powers(apply, cols[i], D - 1))
            return ks[i]

        def cross(i, j):
            # G_ij as a flat list of keys, G conj(K_j) made once per column j
            if (i, j) not in xs:
                if j not in gs:
                    gs[j] = conj_product(G, krylov(j))
                xs[i, j] = [x for r in (krylov(i).T @ gs[j]).rows for x in r]
            return xs[i, j]

        forced = _forced_pair(form, p_, e)
        x = hit = None
        for i in range(len(cols)):
            top = krylov(i) @ probe
            if top.is_zero():
                continue
            if x is None:
                x, w = i, top
            if forced:
                break
            if _nondegenerate(F, D, cross(i, i)):
                hit = i, None, 0
                break
        if x is not None:
            break
    else:
        raise InternalInvariantError("component has no full-height vector", {})
    if hit is None and not forced:
        hit = _scan_pairs(F, D, len(cols), cross)
    if hit is not None:
        i, j, c = hit
        K = krylov(i) if j is None else krylov(i) + krylov(j) * F.from_int(c)
        block = _cyclic_block(F, beta, K, pe)
    else:
        y = next((j for j, c in enumerate(gram(w, G, U).rows[0]) if c), None)
        if y is None:
            raise InternalInvariantError("no partner pairs with the degenerate cyclic space", {})
        block = _cyclic_pair_block(form, beta, G, krylov(x), krylov(y), p_, e)
    rest = tuple((q, m) for q, m in fac if q != p_)
    return (*block, rest if block[0].ncols == U.ncols else ((p_, e), *rest))


def _orthocomplement(G, basis):
    # (comp, free) as Mat.right_kernel_basis gives them, for the complement
    # conj(ker basis^T G); conj keeps 0 and 1, so comp's rows at free are
    # still the identity.  Called for a block smaller than the space only,
    # where basis^T G has fewer rows than columns, so the kernel is nonzero
    K, free = (basis.T @ G).right_kernel_basis()
    return K.conj(), free


def _level(form, beta, a, G, fac):
    # one level of the split of a's space (Gram G), for fac the factors of
    # mp(a) with self-paired exponents as upper bounds: the block
    # (basis, t, data items) and its complement (comp, a restricted to it,
    # its Gram, the factors it inherits), or None when the block fills the
    # space.  Mats and tuples only, so a survey's memo can hold it
    F = form.tower
    if not fac:
        raise InternalInvariantError("minimal polynomial is constant", {})
    for p_, e in fac:
        ps = _shared(_keys, twisted_reciprocal, p_, beta.key, F)
        if ps != p_:
            basis, t, data, fac_c = _paired_block(form, beta, a, G, p_, e, ps, fac)
            break
    else:
        basis, t, data, fac_c = _self_paired_block(form, beta, a, G, *fac[0], fac)
    block = basis, t, tuple(data.items())
    if basis.ncols == a.nrows:
        return block, None
    comp, free = _orthocomplement(G, basis)
    return block, (comp, restrict(a, comp, free), gram(comp, G, comp), fac_c)


def _split(form, beta, g, fac):
    # g's blocks, top level first.  The levels below the top come through
    # the memo, a survey's or the call's own; the top level, whose key
    # would be g itself, is not stored
    blocks = []
    lift = None
    level = _level(form, beta, g, form.J, fac)
    while True:
        (basis, t, data), rest = level
        blocks.append(_Block(basis if lift is None else lift @ basis, t, dict(data)))
        if rest is None:
            return blocks
        comp, a, G, fac = rest
        lift = comp if lift is None else lift @ comp
        level = _shared(_level, form, beta, a, G, fac)


def _refine_dets(target, blocks):
    total = target.tower.one
    for b in blocks:
        d = b.t.det()
        b.data["t_det"] = d.serialize()
        total = total * d
    if total == target:
        return
    flip = next((b for b in blocks if b.t.nrows % 2 == 1), None)
    if flip is None:
        raise DetRefinementError(
            "no reachable first factor has the required determinant: all blocks have "
            "even dimension, so per-block determinants are fixed under sign flips",
            {
                "target": target.serialize(),
                "achieved": total.serialize(),
                "blocks": [b.render() for b in blocks],
            },
        )
    flip.t = -flip.t
    flip.data["sign_flipped"] = True
    flip.data["t_det"] = flip.t.det().serialize()


def certificate(form, g, det_refined):
    """factor's certificate for g.  Inside a survey's memo g's ratio is the
    survey's beta and the survey checks the certificate; otherwise beta is
    read off g, the call gets a memo of its own, and the certificate passes
    core_checks here or raises InternalInvariantError."""
    memo = _memo.get()
    if memo is not None:
        return _factor(form, g, det_refined, memo["beta"])
    beta = form.similitude_ratio(g)
    token = _memo.set({})
    try:
        cert = _factor(form, g, det_refined, beta)
    finally:
        _memo.reset(token)
    # beta is g's ratio, so the check makes no second Gram of g
    checks = core_checks(form, g, beta, cert.h1, cert.h2, det_refined, beta_from_g=True)
    bad = [name for name, ok in checks if not ok]
    if bad:
        raise InternalInvariantError(
            "assembled factorization fails its defining identities",
            {"failed": bad, "cert": cert.serialize()},
        )
    return cert


def _factor(form, g, det_refined, beta):
    # factor's construction for g of ratio beta, unchecked, inside a memo
    F, n = form.tower, form.n
    blocks = _split(form, beta, g, _shared(_factors, tuple(minimal_polynomial(g)), F))
    if det_refined:
        _refine_dets(det_target(form), blocks)
    # h1 conj(B) = B M for B the lifts side by side and M the local
    # involutions on its diagonal, so conj(B)^T h1^T = (B M)^T: one rref of
    # [conj(B)^T | (B M)^T] gives h1^T, with no inverse and no product with
    # it.  Block i's rows are [conj(B_i)^T | M_i^T B_i^T], B_i^T its lift's
    # columns
    conj = F.conj if F.has_conj else None
    rows = []
    for b in blocks:
        cols = tuple(zip(*b.lift.rows))
        images = F.matmul(tuple(zip(*b.t.rows)), cols)
        if conj is not None:
            cols = [tuple(map(conj, c)) for c in cols]
        rows += map(tuple.__add__, cols, images)
    R, piv = Mat(F, tuple(rows)).rref()
    if piv != list(range(n)):
        # the last block is not orthocomplemented, so its independence is
        # first met here
        raise InternalInvariantError("block bases do not span the space", {})
    h1 = Mat(F, tuple(zip(*(r[n:] for r in R.rows))))
    return FactorCert(form, g, beta, h1, h1 @ g.conj(), det_refined, blocks)


# ---------------------------------------------------------------------------
# symmetric conjugators (a X = X a^T with X symmetric invertible)


def _symmetrizer(F, f):
    # the Hankel matrix S[i][j] = f[i + j + 1] of f's own coefficients (zero
    # past deg f): symmetric, anti-triangular with unit anti-diagonal (hence
    # invertible), and C S = S C^T for the companion C of f (Taussky and
    # Zassenhaus, Pacific J. Math. 9, 1959)
    m = pdeg(f)
    h = f[1:] + [0] * m
    return Mat(F, tuple(tuple(h[i : i + m]) for i in range(m)))


def _symmetric_conjugator(a):
    # unchecked, for a primary a: P^(-1) a P is the block diagonal of the
    # companions C_f and each S_f conjugates C_f onto C_f^T, so
    # P diag(S_f) P^T conjugates a onto a^T
    F = a.tower
    P, invariants = frobenius_form(a)
    return P @ block_diag(F, [_symmetrizer(F, f) for f in invariants]) @ P.T
