"""Structure of one endomorphism: Krylov spans, minimal polynomial,
primary components, maximal vectors and the rational (companion-block)
normal form.  frobenius_form takes the factors of the minimal polynomial
from its caller and hands them down its peels (poly.multiplicities).

Everything here is deterministic: vector searches run over kernel bases in
construction order, never over random probes.  Results hold by construction
and are not re-checked here; the guards that remain turn an impossible
intermediate (an empty kernel, an unsolvable system, a complement of the
wrong size) into InternalInvariantError instead of a crash.  krylov_span,
which the others build on, eliminates incrementally: each new power g^d v
is reduced once against the echelon rows of the vectors before it, so a
span of dimension d costs d products with g and O(n * d^2) key operations,
with no re-solving.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .linalg import Mat, hstack, poly_at, vstack
from .poly import multiplicities, pdeg, plcm, ppow, pserialize


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


def restrict(g, basis):
    """The matrix of g on the invariant subspace spanned by basis columns."""
    X = basis.solve_right(g @ basis)
    if X is None:
        raise InternalInvariantError(
            "claimed invariant subspace is not invariant",
            {"basis": basis.serialize()},
        )
    return X


def krylov_span(g, v):
    """(basis, annihilator): basis columns v, gv, ..., g^(d-1) v, and the
    monic least annihilator of v under g (a poly.py key list).

    Elimination is incremental: echelon rows, each scaled to 1 at its pivot,
    are kept with their combinations of the Krylov vectors, and each new
    g^d v is reduced once against them (one product with g and O(n * d) key
    operations per step).  The first g^d v that reduces to zero gives the
    annihilator: its combination is monic of degree d."""
    F = g.tower
    assert not v.is_zero(), "Krylov span of the zero vector"
    dot, inv, scale, sub_scaled = F.dot, F.inv, F.scale, F.sub_scaled
    cols = []
    echelon = []  # (pivot, row with 1 at the pivot, its combination)
    w = [r[0] for r in v.rows]
    while True:
        red, comb = w, [0] * len(cols) + [1]
        for piv, row, c in echelon:
            f = red[piv]
            if f:
                red = sub_scaled(red, f, row)
                comb[: len(c)] = sub_scaled(comb[: len(c)], f, c)
        piv = next((i for i, x in enumerate(red) if x), None)
        if piv is None:
            return Mat(F, tuple(zip(*cols))), comb
        s = inv(red[piv])
        echelon.append((piv, scale(red, s), scale(comb, s)))
        cols.append(w)
        w = [dot(r, w) for r in g.rows]


def minimal_polynomial(g):
    """Least monic polynomial annihilating g (lcm of basis-vector annihilators)."""
    F = g.tower
    n = g.nrows
    mp = [1]
    for j in range(n):
        if pdeg(mp) == n:
            break
        _, ann = krylov_span(g, Mat.identity(F, n).col(j))
        mp = plcm(mp, ann, F)
    return mp


def _kernel_matrix(f, g):
    # a basis of ker f(g), as columns
    cols = poly_at(f, g).right_kernel_basis()
    if not cols:
        raise InternalInvariantError(
            "expected a nonzero kernel", {"poly": pserialize(f, g.tower)}
        )
    return hstack(cols)


def krylov_matrix(g, v, d):
    """The d columns v, gv, ..., g^(d-1) v."""
    ws = [v]
    for _ in range(d - 1):
        ws.append(g @ ws[-1])
    return hstack(ws)


def maximal_vector(g, factors):
    """A vector whose annihilator is the full minimal polynomial, factored as [(p, e)]."""
    F = g.tower
    v = None
    for p_, e in factors:
        # with one factor, p^e(g) = 0 and the component is the whole space
        whole = len(factors) == 1
        basis = Mat.identity(F, g.nrows) if whole else _kernel_matrix(ppow(p_, e, F), g)
        # some basis column u of the component ker p(g)^e has p(g)^(e-1) u,
        # a combination of its Krylov vectors, nonzero, or the exponent drops
        low = ppow(p_, e - 1, F)
        probe = Mat(F, tuple((c,) for c in low))  # keys, not GF(p) scalars
        for u in map(basis.col, range(basis.ncols)):
            if not (krylov_matrix(g, u, len(low)) @ probe).is_zero():
                break
        else:
            raise InternalInvariantError(
                "no component vector of full height", {"p": pserialize(p_, F)}
            )
        v = u if v is None else v + u
    if v is None:
        raise InternalInvariantError("minimal polynomial is constant", {})
    return v


def frobenius_form(g, factors):
    """(B, invariants): B^(-1) g B is the block diagonal of companion matrices
    of the invariant factors, each dividing the previous.  factors is the
    factorization [(p, e)] of the minimal polynomial of g."""
    F = g.tower
    blocks = []

    def peel(h, lift, factors):
        v = maximal_vector(h, factors)
        K, ann = krylov_span(h, v)
        blocks.append((lift @ K, ann))
        d, m = pdeg(ann), h.nrows
        if d == m:
            return
        # a functional vanishing on v, hv, ... except the top power
        z, o = F.zero, F.one
        rhs = Mat.column(F, [z] * (d - 1) + [o])
        phi_t = K.T.solve_right(rhs)
        if phi_t is None:
            raise InternalInvariantError("dual functional system is inconsistent", {})
        rows = [phi_t.T]
        for _ in range(d - 1):
            rows.append(rows[-1] @ h)
        comp = vstack(rows).right_kernel_basis()
        if len(comp) != m - d:
            raise InternalInvariantError(
                "invariant complement has wrong dimension", {"got": len(comp)}
            )
        C = hstack(comp)
        hc = restrict(h, C)
        peel(hc, lift @ C, multiplicities(minimal_polynomial(hc), [p_ for p_, _ in factors], F))

    peel(g, Mat.identity(F, g.nrows), factors)
    return hstack([b for b, _ in blocks]), [f for _, f in blocks]
