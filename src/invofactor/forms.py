"""Sesquilinear forms, similitude ratios and the standard spaces.

A SesquiForm is <x, y> = x^T J conj(y) with J nonsingular and
J^T = eps * conj(J), eps in {+1, -1}: symplectic (eps -1, alternating,
trivial tower), orthogonal (eps +1, symmetric, trivial tower, odd
characteristic) or hermitian (eps +1, quadratic tower).

Linear similitudes:  g^T J conj(g) = beta * J.
Twist-1 similitudes: A^T J conj(A) = beta * eps * conj(J), which is the
matrix form of "phi(x) = A conj(x) reverses arguments":
<phi(x), phi(y)> = beta * <y, x>.  Involutions h with h^2 = mu satisfy
A * conj(A) = mu * I.

Sampling and enumerating a space's group are groups.py's.
"""

from __future__ import annotations

from .errors import DegenerateFormError, InputError, NotInGroupError
from .fields import FieldElem, field_from_descriptor
from .linalg import Mat, block_diag, gram, hstack, mat_from_serialized, monomial_rows, vstack

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
        """The beta with g^T J conj(g) = beta J, else NotInGroupError.

        beta is conj-fixed: on a hermitian space J^T = conj(J), so the
        conj-transpose of g^T J conj(g) is itself and that of beta J is
        conj(beta) J; the other forms have a trivial conj."""
        if g.shape != (self.n, self.n) or g.tower is not self.tower:
            raise NotInGroupError("matrix shape or field does not match the form")
        beta = self._match_ratio(gram(g, self.J, g), self.J)
        if beta is None:
            raise NotInGroupError("matrix is not a similitude of the form")
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
