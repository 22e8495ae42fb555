"""invofactor: factor classical-group similitudes into two anti-unitary pieces.

Public surface re-exported here; see README.md for the command line.  The
names of groups.py (sampling, enumeration, surveys) and companions.py load
their module on first use, so that importing the package, as the command
line does, compiles neither them nor the construction they call.
"""

from .errors import (
    BudgetExceededError,
    DegenerateFormError,
    DetRefinementError,
    FieldConstructionError,
    InputError,
    InternalInvariantError,
    InvofactorError,
    NotInGroupError,
    SingularMatrixError,
    VerificationError,
)
from .factor import factor, factor_det_refined
from .fields import FieldElem, FieldTower, field_from_descriptor, field_make
from .forms import (
    SesquiForm,
    form_from_descriptor,
    hermitian_form,
    least_nonsquare,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
)
from .linalg import Mat, block_diag, hstack, mat_from_serialized, vstack
from .verify import (
    CERT_FORMAT,
    CHECK_NAMES,
    FactorCert,
    VerifyReport,
    cert_from_serialized,
    check_cert,
    core_checks,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CERT_FORMAT",
    "CHECK_NAMES",
    "DegenerateFormError",
    "DetRefinementError",
    "FactorCert",
    "FieldConstructionError",
    "FieldElem",
    "FieldTower",
    "InputError",
    "InternalInvariantError",
    "InvofactorError",
    "Mat",
    "NotInGroupError",
    "SesquiForm",
    "SingularMatrixError",
    "VerificationError",
    "VerifyReport",
    "anti_unitary_enumerate",
    "block_diag",
    "cert_from_serialized",
    "check_cert",
    "core_checks",
    "dualizing_conjugator",
    "factor",
    "factor_det_refined",
    "field_from_descriptor",
    "field_make",
    "form_from_descriptor",
    "group_enumerate",
    "group_sample",
    "hermitian_form",
    "hstack",
    "least_nonsquare",
    "mat_from_serialized",
    "oracle_involution_set",
    "orthogonal_form",
    "orthogonal_minus_form",
    "orthogonal_plus_form",
    "standard_reverser",
    "survey",
    "symmetric_conjugator",
    "symmetric_factor",
    "symmetric_unitary_conjugator",
    "symplectic_form",
    "verify_certificate",
    "vstack",
    "__version__",
]

# name -> the submodule that defines it, imported on the name's first use
_LAZY = {
    "anti_unitary_enumerate": "groups",
    "group_enumerate": "groups",
    "group_sample": "groups",
    "oracle_involution_set": "groups",
    "survey": "groups",
    "dualizing_conjugator": "companions",
    "standard_reverser": "companions",
    "symmetric_conjugator": "companions",
    "symmetric_factor": "companions",
    "symmetric_unitary_conjugator": "companions",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
