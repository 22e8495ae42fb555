"""Certificates: their format, their independent checks and check reports.

Every check recomputes its identity directly from the supplied space, the
element, and the certificate's (beta, h1, h2); nothing is trusted from the
construction transcript.  Failures become named report entries with a
serialized witness, never exceptions, so a tampered certificate yields a
readable diagnosis.  The checks run on key rows, in stacked products.  The
left factors A^T J of the Grams A^T J conj(A), A = g, h1, h2, are a
gather on a row-monomial J and one stacked product [g^T; h1^T; h2^T] J on
a dense one; then (g^T J) conj(g) gives g's Gram, [h1; h1^T J] conj(h1)
gives h1 conj(h1) and h1's Gram, and [h2; h1; h2^T J] conj(h2) gives
h2 conj(h2), h1 conj(h2) and h2's Gram: 3 products on a standard space,
4 on a dense one.  Each ratio is matched by form._match_ratio, and the
other rows are compared with I, beta I and g entry by entry; a Mat and a
witness are made only for a failing check.  factor's own check reuses
the beta it read off g and makes no Gram of g (2 products, or 3).
The certificate format is this module's: FactorCert, which factor
returns, and cert_from_serialized, which reads one back, need no
construction code, so checking a certificate loads none.
"""

from __future__ import annotations

import time

from .errors import InputError, VerificationError
from .forms import form_from_descriptor
from .linalg import Mat, left_factors, mat_from_serialized
from .poly import pserialize

CERT_FORMAT = "invofactor-cert-v1"

CHECK_NAMES = (
    "shapes_match_the_space",
    "g_is_similitude_of_beta",
    "h1_twist1_ratio_one",
    "h1_involution",
    "h2_twist1_ratio_beta",
    "h2_square_is_beta",
    "h1_h2_product_is_g",
    "h1_det_sign",
)


def det_target(form):
    """The determinant (-1)^(n/2) that a det-refined h1 must have, or None
    where determinant refinement does not apply: it applies to orthogonal
    spaces of even dimension n only."""
    if form.kind != "orthogonal" or form.n % 2:
        return None
    return form.tower.one if (form.n // 2) % 2 == 0 else -form.tower.one


def _is_scalar(rows, b):
    # whether the square key rows are b * I: b on the diagonal, 0 elsewhere
    zeros = len(rows) - (b != 0)
    return all(r[i] == b and r.count(0) == zeros for i, r in enumerate(rows))


def _checks(form, g, beta, h1, h2, det_refined=False, beta_from_g=False):
    """[(name, passed, witness-or-None)] for the defining identities.

    beta_from_g is factor's own: its beta was read off g by
    form.similitude_ratio, so g_is_similitude_of_beta holds by construction
    and g's Gram is not made again.  Every other caller checks it."""
    F = form.tower
    n = form.n
    shaped = (
        g.tower is F
        and h1.tower is F
        and h2.tower is F
        and beta.tower is F
        and g.shape == (n, n)
        and h1.shape == (n, n)
        and h2.shape == (n, n)
    )
    if not shaped:
        wit = {
            "space": f"dimension {n} over {F!r}",
            "g": f"{g.nrows}x{g.ncols} over {g.tower!r}",
            "h1": f"{h1.nrows}x{h1.ncols} over {h1.tower!r}",
            "h2": f"{h2.nrows}x{h2.ncols} over {h2.tower!r}",
        }
        return [("shapes_match_the_space", False, wit)]
    out = [("shapes_match_the_space", True, None)]

    def add(name, ok, witness):
        # witness() serializes the offending matrices; a passing check skips it
        out.append((name, bool(ok), None if ok else witness()))

    def ratio(rows, P):
        return form._match_ratio(Mat(F, rows), P)

    # the Grams A^T J conj(A) start from the left factors A^T J; each
    # product below stacks what else multiplies the same conj(A)
    J, matmul = form.J, F.matmul
    if beta_from_g:
        h1t, h2t = left_factors(J, (h1, h2))
        add("g_is_similitude_of_beta", True, None)
    else:
        gt, h1t, h2t = left_factors(J, (g, h1, h2))
        # the matched ratio is nonzero and conj-fixed, so equality with beta
        # also rejects a zero beta and one outside the conj-fixed field
        add(
            "g_is_similitude_of_beta",
            ratio(matmul(gt, g.conj().rows), J) == beta,
            lambda: {"g": g.serialize(), "beta": beta.serialize()},
        )
    # [h1; h1^T J] conj(h1) gives h1 conj(h1) over h1's Gram
    rows = matmul(h1.rows + h1t, h1.conj().rows)
    sq1, gram1 = rows[:n], rows[n:]
    add("h1_twist1_ratio_one", ratio(gram1, form._anti) == F.one, lambda: {"h1": h1.serialize()})
    add(
        "h1_involution",
        _is_scalar(sq1, 1),
        lambda: {"h1_times_conj_h1": Mat(F, sq1).serialize()},
    )
    # [h2; h1; h2^T J] conj(h2) gives h2 conj(h2), h1 conj(h2) and h2's Gram
    rows = matmul(h2.rows + h1.rows + h2t, h2.conj().rows)
    sq2, prod, gram2 = rows[:n], rows[n : 2 * n], rows[2 * n :]
    add(
        "h2_twist1_ratio_beta",
        ratio(gram2, form._anti) == beta,
        lambda: {"h2": h2.serialize(), "beta": beta.serialize()},
    )
    add(
        "h2_square_is_beta",
        _is_scalar(sq2, beta.key),
        lambda: {"h2_times_conj_h2": Mat(F, sq2).serialize(), "beta": beta.serialize()},
    )
    add(
        "h1_h2_product_is_g",
        prod == g.rows,
        lambda: {"h1_times_conj_h2": Mat(F, prod).serialize(), "g": g.serialize()},
    )
    if det_refined:
        target = det_target(form)
        d = h1.det()
        if target is None:  # out of scope
            wit = {"kind": form.kind, "n": n, "scope": "orthogonal, even n"}
            add("h1_det_sign", False, lambda: wit)
        else:
            add(
                "h1_det_sign",
                d == target,
                lambda: {"det_h1": d.serialize(), "target": target.serialize()},
            )
    return out


def core_checks(form, g, beta, h1, h2, det_refined=False, beta_from_g=False):
    """[(check name, bool)] for the defining identities of g = h1 * h2;
    beta_from_g as in _checks, set by factor only."""
    checks = _checks(form, g, beta, h1, h2, det_refined, beta_from_g)
    return [(name, ok) for name, ok, _ in checks]


class _Block:
    # one invariant block: its basis lifted to the space, its local
    # involution t, and its transcript data, whose Mats (a paired block's
    # intertwiner) and key tuples (polynomials) stay so until render; each
    # block owns its data, which construct._refine_dets writes
    __slots__ = ("lift", "t", "data")

    def __init__(self, lift, t, data):
        self.lift = lift
        self.t = t
        self.data = data

    def render(self):
        """The JSON-ready transcript of the block."""
        F = self.t.tower
        out = {
            k: v.serialize() if type(v) is Mat else pserialize(v, F) if type(v) is tuple else v
            for k, v in self.data.items()
        }
        out["basis"] = self.lift.serialize()
        out["local_involution"] = self.t.serialize()
        return out


class FactorCert:
    """A factorization g = h1 * h2 with its per-block construction transcript.

    blocks is the transcript as serialize writes it, a list of JSON-ready
    dicts.  factor hands in its blocks unrendered, and their matrices are
    serialized on the first read of blocks, once; cases reads each block's
    case without that."""

    __slots__ = ("form", "g", "beta", "h1", "h2", "det_refined", "_blocks")

    def __init__(self, form, g, beta, h1, h2, det_refined, blocks):
        self.form = form
        self.g = g
        self.beta = beta
        self.h1 = h1
        self.h2 = h2
        self.det_refined = det_refined
        self._blocks = blocks

    @property
    def blocks(self):
        blocks = self._blocks
        if blocks and type(blocks[0]) is _Block:
            blocks = self._blocks = [b.render() for b in blocks]
        return blocks

    @property
    def cases(self):
        """The case of each block, in order."""
        return [b.data["case"] if type(b) is _Block else b["case"] for b in self._blocks]

    def checks(self):
        return core_checks(self.form, self.g, self.beta, self.h1, self.h2, self.det_refined)

    def serialize(self):
        return {
            "format": CERT_FORMAT,
            "form": self.form.descriptor(),
            "g": self.g.serialize(),
            "beta": self.beta.serialize(),
            "h1": self.h1.serialize(),
            "h2": self.h2.serialize(),
            "det_refined": self.det_refined,
            "blocks": self.blocks,
        }


def cert_from_serialized(d):
    if not isinstance(d, dict) or d.get("format") != CERT_FORMAT:
        raise InputError(f"not a certificate (expected format {CERT_FORMAT!r})")
    det_refined, blocks = d.get("det_refined", False), d.get("blocks", [])
    if not isinstance(det_refined, bool) or not isinstance(blocks, list):
        raise InputError("certificate: det_refined must be a boolean and blocks a list")
    if not isinstance(d.get("form", {}), dict):
        raise InputError("certificate: form must be an object")
    try:
        form = form_from_descriptor(d["form"])
        tower = form.tower
        g = mat_from_serialized(tower, d["g"])
        h1 = mat_from_serialized(tower, d["h1"])
        h2 = mat_from_serialized(tower, d["h2"])
        beta = tower.elem(d["beta"])
    except KeyError as e:
        raise InputError(f"certificate missing field: {e}") from e
    return FactorCert(form, g, beta, h1, h2, det_refined, blocks)


class VerifyReport:
    """Outcome of re-checking one certificate.

    `checks` is a list of (name, passed, witness) with witness None on
    success; `passed` is the conjunction.  `seconds` records the wall clock
    spent but is deliberately left out of serialize() so identical runs
    produce byte-identical serialized reports."""

    __slots__ = ("passed", "checks", "seconds")

    def __init__(self, checks, seconds):
        self.checks = list(checks)
        self.passed = all(ok for _, ok, _ in self.checks)
        self.seconds = seconds

    def failures(self):
        return [(name, wit) for name, ok, wit in self.checks if not ok]

    def serialize(self):
        out = {"passed": self.passed, "checks": []}
        for name, ok, wit in self.checks:
            entry = {"name": name, "passed": ok}
            if wit is not None:
                entry["witness"] = wit
            out["checks"].append(entry)
        return out


def verify_certificate(form, g, cert, det_refined=None):
    """Re-check a certificate against an independently supplied space and
    element.  Only (beta, h1, h2) are taken from the certificate; failures
    (including shape or field mismatches) become report entries.  A g that
    is not a Mat, a cert that is not a FactorCert and a det_refined other
    than None, True or False raise InputError."""
    t0 = time.perf_counter()
    if not isinstance(g, Mat):
        raise InputError("g must be a matrix")
    if not isinstance(cert, FactorCert):
        raise InputError(f"not a certificate: {type(cert).__name__}")
    if det_refined is not None and not isinstance(det_refined, bool):
        raise InputError(f"det_refined must be None or a bool, got {det_refined!r}")
    refined = cert.det_refined if det_refined is None else det_refined
    checks = _checks(form, g, cert.beta, cert.h1, cert.h2, refined)
    return VerifyReport(checks, time.perf_counter() - t0)


def check_cert(cert):
    """Raise VerificationError on the first failing check; return the cert."""
    for name, ok in cert.checks():
        if not ok:
            raise VerificationError(name, {"cert": cert.serialize()})
    return cert


def det_label(F, d):
    """"+1", "-1", or the serialized element, for a determinant d."""
    if d == F.one:
        return "+1"
    if d == -F.one:
        return "-1"
    return str(d.serialize())


def case_histogram(cases, counts=None):
    """Counts of block cases (a certificate's cases), added into `counts`."""
    counts = {} if counts is None else counts
    for case in cases:
        counts[case] = counts.get(case, 0) + 1
    return counts
