"""Constructions that follow from the factorization: symmetric conjugators
and two-factor splits of an invertible matrix, the symmetric unitary
conjugator of a hermitian isometry, the canonical twist-1 reverser of a
standard space and the dualizing conjugator.

The symmetric conjugator and the two-factor split check their own result
and raise InternalInvariantError when it fails.  The symmetric conjugator
splits a into primary components with construct's _component and
conjugates each by construct's _symmetric_conjugator, the one a paired
block's intertwiner uses.

The symmetric unitary conjugator and the dualizing conjugator run no check
of their own: each is read off factor's certificate, which factor has
checked, and its identities follow from the certificate's.  With
g = h1 conj(h2), h1 conj(h1) = I and h2 conj(h2) = beta I, the inverses
are h1^(-1) = conj(h1) and conj(h2)^(-1) = beta^(-1) h2, so
g^(-1) = beta^(-1) h2 conj(h1).
"""

from __future__ import annotations

from .construct import _component, _symmetric_conjugator
from .decomp import minimal_polynomial, restrict
from .errors import InputError, InternalInvariantError, NotInGroupError
from .factor import factor
from .linalg import Mat, block_diag, hstack
from .poly import factorize


def symmetric_conjugator(a):
    """Symmetric invertible X with a @ X = X @ a.T, over any field.

    The primary components U_i of a give B = [U_1 ... U_k] with
    a B = B diag(a_i), so X = B diag(X_i) B^T for the conjugators X_i of
    the a_i."""
    F = a.tower
    fac = factorize(minimal_polynomial(a), F)
    apply = F.matvec(a.rows)
    Us = [_component(a, apply, fac, p_, e) for p_, e in fac]
    B = hstack([U for U, _ in Us])
    X = B @ block_diag(F, [_symmetric_conjugator(restrict(a, U, free)) for U, free in Us]) @ B.T
    if X.T != X or a @ X != X @ a.T or not X.det():
        raise InternalInvariantError("symmetric conjugator construction failed", {})
    return X


def symmetric_factor(a):
    """Split an invertible a as d1 @ d2 with both factors symmetric.

    d1 is symmetric_conjugator(a) and d2 = d1^(-1) @ a; d2 is symmetric
    because transposing it gives a^T d1^(-1), which the intertwining
    relation a d1 = d1 a^T turns back into d1^(-1) a."""
    d1 = symmetric_conjugator(a)
    d2 = d1.inv() @ a
    if d1.T != d1 or d2.T != d2 or d1 @ d2 != a:
        raise InternalInvariantError("symmetric two-factor split failed", {})
    return d1, d2


def symmetric_unitary_conjugator(form, g):
    """For an isometry of the identity-Gram hermitian space: a symmetric
    unitary s with s @ g @ s^(-1) = g.T.

    With J = I and beta = 1 the twist-1 identities h^T conj(h) = I and
    h conj(h) = I give h1^T = h1 and h2^T = h2.  So s = conj(h1) = h1^(-1)
    is symmetric and unitary, and s @ g @ s^(-1) = conj(h2) @ h1 = g.T."""
    F = form.tower
    if form.kind != "hermitian" or form.J != Mat.identity(F, form.n):
        raise InputError("needs the identity-Gram hermitian space")
    if form.similitude_ratio(g) != F.one:
        raise NotInGroupError("needs an isometry (similitude ratio 1)")
    return factor(form, g).h1.conj()


def standard_reverser(form):
    """A canonical twist-1 ratio-1 similitude for the standard spaces."""
    F = form.tower
    n = form.n
    if form.kind == "symplectic" and form.standard == "symplectic":
        m = n // 2
        H = Mat.diag(F, [F.one] * m + [-F.one] * m)
    else:
        H = Mat.identity(F, n)
    if form.anti_ratio(H) != F.one:
        raise InputError("no canonical ratio-1 twist-1 map for this Gram; pass one explicitly")
    return H


def dualizing_conjugator(form, g, h_mat=None):
    """(u, iota_g): u conjugates the twisted dual of g back to g^(-1).

    Here iota_g = ratio(g)^(-1) * conj(H^(-1) @ g @ H) for a fixed twist-1
    similitude H (the canonical one when h_mat is None), and u = h1 @ conj(H)
    for the factorization's involution h1.  u is a linear similitude whose
    ratio equals H's, as h1's ratio is 1, and since conj(g) = conj(h1) @ h2,
    u @ iota_g @ u^(-1) = beta^(-1) h1 conj(g) conj(h1)
    = beta^(-1) h2 conj(h1) = g^(-1)."""
    H = standard_reverser(form) if h_mat is None else h_mat
    if form.anti_ratio(H) is None:
        raise InputError("h must be a twist-1 similitude of the form")
    beta = form.similitude_ratio(g)
    iota = (H.inv() @ g @ H).conj() * beta.inv()
    return factor(form, g).h1 @ H.conj(), iota
