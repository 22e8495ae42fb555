"""Structure of one endomorphism: Krylov spans, minimal polynomial and the
rational (companion-block) normal form of a primary endomorphism.  Splitting
a space into primary components is construct.py's job; frobenius_form gets one
component, where every annihilator is a power of the same irreducible.

Everything here is deterministic: vector searches run over the standard
columns in order, never over random probes.  Results hold by construction
and are not re-checked here; the guards that remain turn an impossible
intermediate (an unsolvable system, a complement of the wrong size) into
InternalInvariantError instead of a crash.  restrict solves nothing: every
invariant subspace it gets has a kernel basis (Mat.right_kernel_basis)
whose rows at the free columns form the identity, so the matrix of g on it
is those rows of g times the basis.  frobenius_form peels its complements
that way, and lifts nothing through the identity at the top.  _krylov_span,
which the others build on, eliminates incrementally: each new power g^d v
is reduced once against the echelon rows of the vectors before it, so a
span of dimension d costs d products with g and O(n * d^2) key operations,
with no re-solving.
The products with g go through the tower's matvec of g, made once for all
the column spans of minimal_polynomial and of each frobenius_form peel.
poly_column evaluates a polynomial at g one column at a time, by Horner's
rule through that matvec.  minimal_polynomial spans only what each column
adds: the residual m(g) e_j under the polynomial m found so far, so a
column whose annihilator divides m costs deg m products and no
elimination, and the spanned annihilators multiply to the result with no
gcd.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .linalg import Mat, hstack
from .poly import pdeg, pmul


def restrict(g, basis, free):
    """The matrix X of g on the invariant subspace spanned by the columns of
    basis, whose rows at free form the identity (Mat.right_kernel_basis).

    g basis = basis X, and the rows of basis X at free are X itself, so X is
    g[free] basis: one k x n by n x k product, no solve.  Invariance is not
    checked here; a wrong X fails the final check of factor (or of
    symmetric_conjugator).  A basis with every row free is the identity,
    and X is g."""
    if len(free) == g.nrows:
        return g
    rows = g.rows
    return Mat(g.tower, tuple(rows[i] for i in free)) @ basis


def _krylov_span(F, apply, w):
    # (basis, annihilator) of the key vector w, apply(w) = g w: columns w,
    # gw, ..., g^(d-1) w, and the monic least annihilator of w
    inv, scale, sub_scaled = F.inv, F.scale, F.sub_scaled
    cols = []
    echelon = []  # (pivot, row with 1 at the pivot, its combination)
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
        w = apply(w)


def _column_spans(g):
    # _krylov_span of the standard columns e_j, in order, all from
    # one matvec of g
    F, n = g.tower, g.nrows
    apply = F.matvec(g.rows)
    for j in range(n):
        yield _krylov_span(F, apply, [int(i == j) for i in range(n)])


def poly_column(F, apply, f, j, n):
    """f(g) e_j for a nonzero key polynomial f, by Horner's rule on key
    vectors of length n through apply(w) = g w."""
    r = [0] * n
    r[j] = f[-1]
    for c in reversed(f[:-1]):
        r = apply(r)
        if c:
            r[j] = F.add(r[j], c)
    return r


def minimal_polynomial(g):
    """Least monic polynomial annihilating g.

    lcm(m, ann v) = m * ann(m(g) v), so each standard column e_j spans only
    its residual m(g) e_j under the product m of the annihilators so far,
    made by poly_column through the one matvec of g.  A zero residual spans
    nothing."""
    F, n = g.tower, g.nrows
    apply = F.matvec(g.rows)
    mp = [1]
    for j in range(n):
        r = poly_column(F, apply, mp, j, n)
        if any(r):
            mp = pmul(mp, _krylov_span(F, apply, r)[1], F)
            if pdeg(mp) == n:
                break
    return mp


def frobenius_form(g):
    """(B, invariants): B^(-1) g B is the block diagonal of companion matrices
    of the invariant factors, each dividing the previous.  g is primary: its
    minimal polynomial is a power of one irreducible p.

    Annihilators are then powers of p, so a standard column whose
    annihilator has the largest degree is of full height, and its cyclic
    space splits off with an invariant complement.  Each peel keeps the first
    such column, and stops scanning at the first that reaches the previous
    invariant factor's degree (which the next one divides) or the dimension."""
    F = g.tower
    blocks = []
    # lift maps h's coordinates to g's; None while h is g itself
    h, lift, top = g, None, g.nrows
    while True:
        m = h.nrows
        K, ann = None, [1]
        for Kj, annj in _column_spans(h):
            if pdeg(annj) > pdeg(ann):
                K, ann = Kj, annj
                if pdeg(ann) == min(top, m):
                    break
        blocks.append((K if lift is None else lift @ K, ann))
        d = pdeg(ann)
        if d == m:
            break
        # a functional vanishing on v, hv, ... except the top power
        z, o = F.zero, F.one
        rhs = Mat.column(F, [z] * (d - 1) + [o])
        phi_t = K.T.solve_right(rhs)
        if phi_t is None:
            raise InternalInvariantError("dual functional system is inconsistent", {})
        apply_t = F.matvec(tuple(zip(*h.rows)))
        rows = [[r[0] for r in phi_t.rows]]
        for _ in range(d - 1):
            rows.append(apply_t(rows[-1]))
        C, free = Mat(F, tuple(map(tuple, rows))).right_kernel_basis()
        if len(free) != m - d:
            raise InternalInvariantError(
                "invariant complement has wrong dimension", {"got": len(free)}
            )
        h, lift, top = restrict(h, C, free), C if lift is None else lift @ C, d
    return hstack([b for b, _ in blocks]), [f for _, f in blocks]
