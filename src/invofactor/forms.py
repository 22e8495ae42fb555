"""Sesquilinear forms, similitude ratios, group sampling and enumeration.

A SesquiForm is <x, y> = x^T J conj(y) with J nonsingular and
J^T = eps * conj(J), eps in {+1, -1}: symplectic (eps -1, alternating,
trivial tower), orthogonal (eps +1, symmetric, trivial tower, odd
characteristic) or hermitian (eps +1, quadratic tower).

Linear similitudes:  g^T J conj(g) = beta * J.
Twist-1 similitudes: A^T J conj(A) = beta * eps * conj(J), which is the
matrix form of "phi(x) = A conj(x) reverses arguments":
<phi(x), phi(y)> = beta * <y, x>.  Involutions h with h^2 = mu satisfy
A * conj(A) = mu * I.

Sampling walks are seeded and deterministic, and apply each generator as
a rank-one update of the sample's key rows.  Enumeration searches column
by column on key vectors, with one elimination per search node and a Mat
made only for each matrix it yields; it visits matrices in a fixed
canonical order (the first column ascending by integer key, each later one
by the key of its kernel coefficients), so runs reproduce exactly.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import (
    BudgetExceededError,
    DegenerateFormError,
    InputError,
    InternalInvariantError,
    NotInGroupError,
)
from .fields import FieldElem, field_from_descriptor
from .linalg import (
    Mat,
    block_diag,
    gram,
    hstack,
    mat_from_serialized,
    monomial_rows,
    vstack,
)
from .poly import least_root

_KINDS = ("symplectic", "orthogonal", "hermitian")


class SesquiForm:
    """A nondegenerate eps-sesquilinear space over a field tower."""

    __slots__ = ("tower", "kind", "J", "eps", "standard", "_anti")

    def __init__(self, tower, kind, J, standard=None):
        if kind not in _KINDS:
            raise InputError(f"unknown form kind {kind!r}")
        if not isinstance(J, Mat) or J.tower is not tower or J.nrows != J.ncols:
            raise InputError("form matrix must be square over the form's tower")
        self.tower = tower
        self.kind = kind
        self.J = J
        self.eps = -1 if kind == "symplectic" else 1
        self.standard = standard
        if not J.det():
            raise DegenerateFormError("form matrix is singular")
        if kind == "hermitian":
            if not tower.has_conj:
                raise InputError("hermitian forms need a quadratic tower")
            if J.T != J.conj():
                raise InputError("hermitian form matrix must equal its conj-transpose")
        else:
            if tower.has_conj:
                raise InputError(f"{kind} forms use a trivial tower")
            if kind == "symplectic":
                if J.T != -J or any(J[i, i] for i in range(J.nrows)):
                    raise InputError("symplectic form matrix must be alternating")
            else:
                if tower.p == 2:
                    raise InputError("orthogonal forms in characteristic 2 are unsupported")
                if J.T != J:
                    raise InputError("orthogonal form matrix must be symmetric")
        # the twist-1 Gram of ratio 1, eps * conj(J), which anti_ratio matches
        self._anti = J.conj() * self.eps_elem

    @property
    def n(self):
        return self.J.nrows

    @property
    def eps_elem(self):
        return self.tower.scalar(self.eps)

    def gram(self, basis):
        """Gram matrix of the columns of `basis`."""
        return gram(basis, self.J, basis)

    def _match_ratio(self, S, P):
        """The beta with S = beta * P, or None; P is nonsingular.

        beta is read at P's first nonzero entry in row-major order.  When
        every row of P has one nonzero entry (monomial_rows), S matches row
        by row along that pattern: each row of S has its one nonzero entry
        beta * P[i, j] at P's column j.  Otherwise each row of S is compared
        with beta times P's row, on keys."""
        F = self.tower
        pattern = monomial_rows(P)
        if pattern is None:
            r = P.rows[0]  # nonzero, as P is nonsingular
            j = r.index(next(filter(None, r)))
            b = F.mul(S.rows[0][j], F.inv(r[j]))
            if not b:
                return None
            scale = F.scale
            if any(scale(pr, b) != list(sr) for pr, sr in zip(P.rows, S.rows)):
                return None
            return FieldElem(F, b)
        j0, c0 = pattern[0]
        b = F.mul(S.rows[0][j0], F.inv(c0))
        if not b:
            return None
        mul, zeros = F.mul, self.n - 1
        for r, (j, c) in zip(S.rows, pattern):
            if r.count(0) != zeros or r[j] != mul(b, c):
                return None
        return FieldElem(F, b)

    def similitude_ratio(self, g):
        """The beta with g^T J conj(g) = beta J, else NotInGroupError."""
        if g.shape != (self.n, self.n) or g.tower is not self.tower:
            raise NotInGroupError("matrix shape or field does not match the form")
        beta = self._match_ratio(gram(g, self.J, g), self.J)
        if beta is None:
            raise NotInGroupError("matrix is not a similitude of the form")
        if beta.conj() != beta:
            raise InternalInvariantError(
                "similitude ratio not fixed by conj", {"beta": beta.serialize()}
            )
        return beta

    def anti_ratio(self, A):
        """beta with A^T J conj(A) = beta * eps * conj(J), or None."""
        if A.shape != (self.n, self.n) or A.tower is not self.tower:
            return None
        return self._match_ratio(gram(A, self.J, A), self._anti)

    def _as_elem(self, beta):
        if isinstance(beta, int):
            beta = self.tower.scalar(beta)
        if not isinstance(beta, FieldElem) or beta.tower is not self.tower:
            raise InputError("ratio must be an element of the form's working field")
        if not beta:
            raise InputError("similitude ratio must be nonzero")
        if beta.conj() != beta:
            raise InputError("similitude ratio must lie in the conj-fixed field")
        return beta

    def descriptor(self):
        return {
            "kind": self.kind,
            "tower": self.tower.descriptor(),
            "gram": self.J.serialize(),
        }

    def __repr__(self):
        return f"SesquiForm({self.kind}, n={self.n}, {self.tower!r})"


def form_from_descriptor(d):
    try:
        tower = field_from_descriptor(d["tower"])
        J = mat_from_serialized(tower, d["gram"])
        return SesquiForm(tower, d["kind"], J)
    except KeyError as e:
        raise InputError(f"form descriptor missing field: {e}") from e


# ---------------------------------------------------------------------------
# standard spaces


def symplectic_form(tower, n):
    """Alternating form [[0, -I], [I, 0]] on n = 2m coordinates."""
    if tower.has_conj:
        raise InputError("symplectic forms use a trivial tower")
    if n < 2 or n % 2:
        raise InputError("symplectic spaces have positive even dimension")
    m = n // 2
    z = Mat.zeros(tower, m, m)
    i = Mat.identity(tower, m)
    J = vstack([hstack([z, -i]), hstack([i, z])])
    return SesquiForm(tower, "symplectic", J, standard="symplectic")


def orthogonal_plus_form(tower, n):
    """Split symmetric form [[0, I], [I, 0]] (odd characteristic)."""
    if n < 2 or n % 2:
        raise InputError("plus-type spaces here have positive even dimension")
    m = n // 2
    z = Mat.zeros(tower, m, m)
    i = Mat.identity(tower, m)
    J = vstack([hstack([z, i]), hstack([i, z])])
    return SesquiForm(tower, "orthogonal", J, standard="orthogonal_plus")


def orthogonal_minus_form(tower, n):
    """Split part plus an anisotropic plane diag(1, -delta), delta the least non-square."""
    if n < 2 or n % 2:
        raise InputError("minus-type spaces here have positive even dimension")
    if tower.p == 2:
        raise InputError("orthogonal forms in characteristic 2 are unsupported")
    delta = least_nonsquare(tower)
    aniso = Mat.diag(tower, [tower.one, -delta])
    if n == 2:
        J = aniso
    else:
        J = block_diag(tower, [orthogonal_plus_form(tower, n - 2).J, aniso])
    return SesquiForm(tower, "orthogonal", J, standard="orthogonal_minus")


def hermitian_form(tower, n):
    """The identity Gram matrix over a quadratic tower."""
    if n < 1:
        raise InputError("dimension must be positive")
    return SesquiForm(tower, "hermitian", Mat.identity(tower, n), standard="hermitian")


def orthogonal_form(tower, J):
    """A user-supplied symmetric nonsingular Gram matrix (odd characteristic)."""
    return SesquiForm(tower, "orthogonal", J)


def least_nonsquare(tower):
    for e in tower.elements():
        if e and not tower.is_square(e):
            return e
    raise InputError(f"every element of {tower!r} is a square")


# ---------------------------------------------------------------------------
# seeded sampling


def _generator(form, pair, draw):
    """The key data (v, w, c) of one generator I + c v w^T of the walk, with
    w = J conj(v) = pair(conj(v)) and <v, v> = v . w: a transvection, c =
    lambda, on a symplectic space; a reflection, c = -2 / <v, v>, on an
    orthogonal one; a pseudo-reflection, c = (zeta - 1) / <v, v> with
    zeta = conj(u) / u of norm one, on a hermitian one.  Keys are drawn by
    draw(order); a zero v is redrawn, and so is an isotropic v, or a
    conj-fixed u, with the vector."""
    F = form.tower
    n, order, conj, mul, inv = form.n, F.order, F.conj, F.mul, F.inv
    while True:
        v = [draw(order) for _ in range(n)]
        if not any(v):
            continue
        w = pair(list(map(conj, v)))
        if form.kind == "symplectic":
            return v, w, draw(order)
        norm = F.dot(v, w)
        if not norm:
            continue
        if form.kind == "orthogonal":
            return v, w, mul(-2 % F.p, inv(norm))
        u = draw(order)
        if u and conj(u) != u:
            return v, w, mul(F.sub(mul(conj(u), inv(u)), 1), inv(norm))


def _norm_preimage(F, beta):
    """The least w, by key, with w * conj(w) = beta, or None.

    Over the fixed field B, w = a + b W with W^2 + g1 W + g0 = 0 has norm
    a^2 - g1 a b + g0 b^2 and key key(a) + q key(b).  So the least w is the
    least root a of a^2 - g1 b a + (g0 b^2 - beta) at the least b for which
    one exists; about half of all b have one, so few factorizations run."""
    B, q = F._base, F.q
    if beta.key >= q:  # beta is not in B, and no norm is beta
        return None
    g0, g1 = B.elem(F._qg0).key, B.elem(F._qg1).key
    mul = B.mul
    for b in range(q):
        c0 = B.sub(mul(g0, mul(b, b)), beta.key)
        a = least_root([c0, B.neg(mul(g1, b)), 1], B)
        if a is not None:
            return FieldElem(F, a + q * b)
    return None


def _dilation(form, beta):
    """One similitude of ratio beta on a standard space."""
    F = form.tower
    n = form.n
    if beta == F.one:
        return Mat.identity(F, n)
    if form.standard == "hermitian":
        w = _norm_preimage(F, beta)
        if w is None:
            raise InternalInvariantError("norm is not surjective", {"beta": beta.serialize()})
        return Mat.diag(F, [w] * n)
    if form.standard in ("symplectic", "orthogonal_plus"):
        m = n // 2
        return Mat.diag(F, [beta] * m + [F.one] * m)
    if form.standard == "orthogonal_minus":
        delta = least_nonsquare(F)
        W = None
        # the first x with (x^2 - beta) / delta a square; the squareness test
        # is one power, so the root search runs once
        for x in F.elements():
            y2 = (x * x - beta) / delta
            if F.is_square(y2):
                y = F.sqrt(y2)
                W = Mat.from_rows(F, [[x, delta * y], [y, x]])
                break
        if W is None:
            raise InternalInvariantError(
                "anisotropic norm form is not surjective", {"beta": beta.serialize()}
            )
        if n == 2:
            return W
        m = (n - 2) // 2
        split = Mat.diag(F, [beta] * m + [F.one] * m)
        return block_diag(F, [split, W])
    raise InputError(
        "sampling with ratio != 1 needs one of the standard space constructors"
    )


def group_sample(form, beta=None, seed=0, count=1):
    """`count` similitudes of ratio beta (default 1) by a seeded generator
    walk.  The seed is an int or a str, taken as given: 3 and "3" seed
    different walks.

    Each sample is _dilation(form, beta) times 8 to 15 generators
    I + c v w^T (_generator), each applied to g's key rows as g + c (g v) w^T:
    n dot products for g v and one scaled-row step per row i with
    (g v)_i != 0, O(n^2) with no n x n generator.  w is gathered along a
    row-monomial J (monomial_rows), else made by one matvec of J."""
    if type(count) is not int or count < 0:
        raise InputError(f"count must be a non-negative integer, got {count!r}")
    if type(seed) not in (int, str):
        raise InputError(f"seed must be an int or a str, got {seed!r}")
    F = form.tower
    beta = F.one if beta is None else form._as_elem(beta)
    rng = random.Random(seed)
    base = _dilation(form, beta).rows
    dot, mul, neg, sub_scaled = F.dot, F.mul, F.neg, F.sub_scaled
    pattern = monomial_rows(form.J)
    pair = (F.matvec(form.J.rows) if pattern is None
            else lambda x: [mul(c, x[j]) for j, c in pattern])
    out = []
    for _ in range(count):
        g = base
        for _ in range(8 + rng.randrange(8)):
            v, w, c = _generator(form, pair, rng.randrange)
            if c:
                nc = neg(c)
                g = [sub_scaled(r, mul(nc, x), w) if x else r
                     for r, x in zip(g, [dot(r, v) for r in g])]
        g = Mat(F, tuple(map(tuple, g)))
        # similitude_ratio's match, with no similitude at all read as a
        # wrong ratio: either way the walk is at fault, not the caller
        if form._match_ratio(gram(g, form.J, g), form.J) != beta:
            raise InternalInvariantError("sampled element has wrong ratio", {})
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration by column DFS against a target Gram matrix


def _gram_column_solver(form, P, beta, budget):
    """All matrices M whose columns pair as <m_i, m_j> = beta * P[i, j], in
    canonical order.  Such M are automatically invertible when P is.

    The search runs on key vectors and makes a Mat only of what it yields.
    Column 0's candidates are the little-endian digits of 0 .. q^n - 1.
    Below the root, column i solves A x = b, where A's rows are the pairing
    rows (J conj(m_j))^T of the columns chosen so far and b_j is the
    target <m_i, m_j>: one rref of [A | b] gives x0 (free coordinates zero)
    and the kernel basis K, one vector per free column, and the candidates
    are x0 + K t for t the little-endian digits of 0 .. q^d - 1, each made
    by one matvec of [K | x0] prepared per node.  A pairing row is one
    matvec of J prepared per solver, and <x, x> its dot product with x.
    Every candidate, zero included, charges the budget once."""
    F = form.tower
    beta = F.one if beta is None else form._as_elem(beta)
    target = [F.scale(r, beta.key) for r in P.rows]
    n, q = form.n, F.order
    pairing, dot, neg = F.matvec(form.J.rows), F.dot, F.neg
    conj = F.conj if F.has_conj else None
    digits = range(q)
    spent = 0

    def solutions(rows):
        # x0 + K t for every t in key order, or none when A x = b is
        # inconsistent; K's columns stand reversed before x0, as product()
        # runs its last digit fastest
        i = len(rows)
        R, piv = Mat(F, tuple((*w, target[i][j]) for j, w in enumerate(rows))).rref()
        if n in piv:
            return ()
        free = [c for c in range(n) if c not in piv][::-1]
        d = len(free)
        kx = [None] * n
        for k, c in enumerate(free):
            kx[c] = (0,) * k + (1,) + (0,) * (d - k)
        for r, c in zip(R.rows, piv):
            kx[c] = (*(neg(r[f]) for f in free), r[n])
        apply = F.matvec(kx)
        return (apply((*t, 1)) for t in product(digits, repeat=d))

    def extend(cols, rows, candidates):
        nonlocal spent
        i = len(cols)
        want = target[i][i]
        for x in candidates:
            spent += 1
            if spent > budget:
                raise BudgetExceededError(f"enumeration exceeded budget {budget}")
            if not any(x):
                continue
            w = pairing(list(map(conj, x)) if conj else x)
            if dot(x, w) != want:
                continue
            if i + 1 == n:
                yield Mat(F, tuple(zip(*cols, x)))
            else:
                below = rows + [w]
                yield from extend(cols + [x], below, solutions(below))

    yield from extend([], [], (t[::-1] for t in product(digits, repeat=n)))


def group_enumerate(form, beta=None, budget=10**7):
    """Every similitude of the given ratio, canonically ordered."""
    yield from _gram_column_solver(form, form.J, beta, budget)


def anti_unitary_enumerate(form, beta=None, budget=10**7):
    """Every matrix A with A^T J conj(A) = beta * eps * conj(J), canonically ordered.

    These are the twist-1 similitudes of ratio beta.
    """
    # form._anti is eps * conj(J)
    yield from _gram_column_solver(form, form._anti, beta, budget)
