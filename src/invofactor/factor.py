"""The entry points of the factorization: factor and factor_det_refined.

They check their arguments and hand the rest to construct.certificate,
which builds the certificate and, on a bare call, checks it with the
verifier's core_checks.  factor loads construct on its first call, so
that importing this module (as the package and the command line do)
compiles no construction code.
"""

from __future__ import annotations

from .errors import InputError
from .linalg import Mat
from .verify import det_target

construct = None  # the construction module, bound by factor's first call


def factor(form, g, det_refined=False):
    """Factor a similitude g as h1 * h2 (h1 a twist-1 ratio-1 involution,
    h2 a twist-1 map with h2 * conj(h2) = beta).  Returns a FactorCert.

    With det_refined=True (orthogonal spaces of even dimension n; other
    spaces raise InputError before any block is built), also arrange
    det(h1) = (-1)^(n/2) by negating the local involution of one
    odd-dimensional block.  DetRefinementError is raised when every block
    has even dimension (so negation cannot change its determinant) and the
    block determinants multiply to the wrong sign; see factor_det_refined.
    The certificate is checked before it is returned, and one that fails
    raises InternalInvariantError; inside a survey, g's ratio is the
    survey's beta, and the survey checks the certificate."""
    global construct
    if not isinstance(g, Mat) or g.tower is not form.tower:
        raise InputError("g must be a matrix over the form's field tower")
    if det_refined and det_target(form) is None:
        raise InputError(
            "determinant refinement applies to orthogonal spaces of even dimension, "
            f"not to {form.kind} of dimension {form.n}"
        )
    if construct is None:
        from . import construct
    return construct.certificate(form, g, det_refined)


def factor_det_refined(form, g):
    """factor(form, g) with the extra guarantee det(h1) = (-1)^(n/2).

    Only orthogonal spaces of even dimension n qualify.  When every
    invariant block of the construction has even dimension and the locked
    per-block determinants multiply to the wrong sign, this raises
    DetRefinementError carrying the block transcript.  That this condition
    means no admissible involution of the required sign exists at all has
    been checked against brute force only on the scope of acceptance
    criterion 6 (orthogonal planes over GF(3) and GF(5) exhaustively, and
    seeded samples of GO4+-(GF(3)), every multiplier); it is not proved in
    general."""
    return factor(form, g, det_refined=True)
