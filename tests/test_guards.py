"""Named input guards that no other test reaches, one table row each."""

import re

import pytest

from invofactor import (
    InputError,
    Mat,
    SesquiForm,
    dualizing_conjugator,
    field_make,
    form_from_descriptor,
    group_sample,
    hermitian_form,
    hstack,
    least_nonsquare,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    standard_reverser,
    survey,
    symplectic_form,
    vstack,
)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
E9 = field_make(3, 1, "quadratic")


def _m(F, rows):
    return Mat.from_rows(F, rows)


# (id, call, message): each call raises InputError with exactly that message
GUARDS = [
    # linalg shape and tower mismatches
    (
        "entry-of-another-tower",
        lambda: _m(F5, [[F3.one]]),
        "element from a different field tower",
    ),
    ("empty-matrix", lambda: _m(F5, []), "empty matrix"),
    (
        "add-shape-mismatch",
        lambda: Mat.identity(F5, 2) + Mat.identity(F5, 3),
        "matrix shape or tower mismatch",
    ),
    ("det-not-square", lambda: _m(F5, [[1, 2]]).det(), "determinant needs a square matrix"),
    ("inv-not-square", lambda: _m(F5, [[1, 2]]).inv(), "inverse needs a square matrix"),
    (
        "solve-shape-mismatch",
        lambda: Mat.identity(F5, 2).solve_right(_m(F5, [[1], [2], [3]])),
        "solve shape or tower mismatch",
    ),
    (
        "hstack-mismatch",
        lambda: hstack([Mat.identity(F5, 2), Mat.identity(F3, 2)]),
        "hstack mismatch",
    ),
    ("vstack-mismatch", lambda: vstack([Mat.identity(F5, 2), _m(F5, [[1]])]), "vstack mismatch"),
    # forms
    (
        "unknown-kind",
        lambda: SesquiForm(F5, "skew", Mat.identity(F5, 2)),
        "unknown form kind 'skew'",
    ),
    (
        "descriptor-missing-field",
        lambda: form_from_descriptor({"kind": "symplectic"}),
        "form descriptor missing field: 'tower'",
    ),
    (
        "symplectic-over-conj",
        lambda: symplectic_form(E9, 2),
        "symplectic forms use a trivial tower",
    ),
    (
        "plus-type-odd-n",
        lambda: orthogonal_plus_form(F5, 3),
        "plus-type spaces here have positive even dimension",
    ),
    (
        "minus-type-odd-n",
        lambda: orthogonal_minus_form(F5, 3),
        "minus-type spaces here have positive even dimension",
    ),
    ("hermitian-n-0", lambda: hermitian_form(E9, 0), "dimension must be positive"),
    ("no-nonsquare", lambda: least_nonsquare(F2), "every element of GF(2) is a square"),
    (
        "ratio-not-an-element",
        lambda: survey(symplectic_form(F5, 2), beta="2"),
        "ratio must be an element of the form's working field",
    ),
    (
        "ratio-of-another-tower",
        lambda: group_sample(symplectic_form(F5, 2), beta=F3.one),
        "ratio must be an element of the form's working field",
    ),
    (
        "sample-ratio-on-a-user-gram",
        lambda: group_sample(orthogonal_form(F5, _m(F5, [[1, 0], [0, 2]])), beta=2),
        "sampling with ratio != 1 needs one of the standard space constructors",
    ),
    # standard_reverser and dualizing_conjugator inputs: on a symplectic
    # Gram other than the standard one, the identity has twist-1 ratio -1
    (
        "no-canonical-reverser",
        lambda: standard_reverser(SesquiForm(F5, "symplectic", _m(F5, [[0, 1], [4, 0]]))),
        "no canonical ratio-1 twist-1 map for this Gram; pass one explicitly",
    ),
    (
        "reverser-not-a-similitude",
        lambda: dualizing_conjugator(
            symplectic_form(F5, 4), Mat.identity(F5, 4), Mat.diag(F5, [1, 1, 1, 2])
        ),
        "h must be a twist-1 similitude of the form",
    ),
]


@pytest.mark.parametrize("call, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_each_named_input_guard_raises_its_message(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
