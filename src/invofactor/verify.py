"""Certificate checking, brute-force involution oracles, and group surveys.

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
`survey` drives factor-and-verify over a whole group (or a seeded sample)
and aborts loudly on the first failing certificate.
A survey checks each element once: inside its loop factor returns the
certificate unchecked, and the survey's verify_certificate, which re-reads
beta from g and checks every identity, is the check.  factor takes the
survey's beta as g's ratio, so that check makes the one Gram of g per
element.  Before factor runs, the survey reads g's ratio at J's anchor
entry (row 0's first nonzero, where form._match_ratio reads it):
(g^T J conj(g))[0, j0] / J[0, j0], one matvec and one dot product, exact
for a similitude; an element of another ratio is rejected there.
A survey factors each distinct minimal polynomial once: factor keeps its
factorizations, the polynomials and cyclic involutions of each factor,
each split level below an element's top level, and each paired block's
intertwiner and inverse pairing, in a memo that lives for the survey's
loop only (a bare factor call keeps one for the call, with no level in
it), so the certificates are those of bare factor calls.
The survey's case histogram reads each certificate's block cases, and no
block transcript is serialized.  Its determinant histogram reads det(h1)
off the blocks over a trivial conj, as the product of the determinants
of their local involutions, and takes h1's own over a quadratic tower.
"""

from __future__ import annotations

import time

from .errors import InputError, VerificationError
from .forms import anti_unitary_enumerate, group_enumerate, group_sample
from .linalg import Mat, left_factors

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
    from .factor import FactorCert

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


def oracle_involution_set(form, budget=10**7):
    """All twist-1 maps of ratio 1 squaring to the identity, in canonical
    order: the brute-force ground truth that any constructed h1 must hit."""
    eye = Mat.identity(form.tower, form.n)
    return [
        A
        for A in anti_unitary_enumerate(form, budget=budget)
        if A @ A.conj() == eye
    ]


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


def survey(form, beta=None, sample=None, seed=0, refined=False, budget=10**7):
    """Factor and fully verify every similitude of ratio beta.

    Exhaustive enumeration when sample is None, else `sample` elements from
    the seeded generator walk; the seed, an int or a str, is recorded as
    given.  Each element's ratio is read at J's anchor entry and matched
    with beta before it is factored (VerificationError
    "beta_matches_the_survey" otherwise); factor then takes beta as its
    ratio, and each certificate is checked once, by verify_certificate,
    which makes the one Gram of g.  The first failing certificate aborts
    with a VerificationError carrying the offending element and its
    transcript.
    Returns a JSON-ready summary: totals, failure count (always 0 on a
    normal return), block-case histogram, and det(h1) histogram."""
    from .factor import factor, _shared_within_survey

    F = form.tower
    beta_elem = F.one if beta is None else form._as_elem(beta)
    if sample is None:
        elements = group_enumerate(form, beta_elem, budget=budget)
        mode = "exhaustive"
    else:
        # group_sample rejects a count that is not an int and a seed that is
        # neither an int nor a str, so the seed recorded is the one sampled
        elements = group_sample(form, beta_elem, seed=seed, count=sample)
        mode = {"sample": sample, "seed": seed}
    # g's ratio at J's anchor entry [0, j0]: the entry of g^T (J conj(g))
    # over J's, from one matvec of J and one dot product
    J = form.J.rows
    j0 = next(j for j, x in enumerate(J[0]) if x)
    anchor, apply, conj, dot = F.inv(J[0][j0]), F.matvec(J), F.conj, F.dot
    total = 0
    cases = {}
    dets = {}
    with _shared_within_survey(beta_elem):
        for g in elements:
            rows = g.rows
            ratio = F.mul(dot([r[0] for r in rows], apply([conj(r[j0]) for r in rows])), anchor)
            if ratio != beta_elem.key:
                # factor takes beta as g's ratio, and verify_certificate
                # matches g's ratio with the cert's own beta only
                raise VerificationError(
                    "beta_matches_the_survey",
                    {"g": g.serialize(), "beta": beta_elem.serialize()},
                )
            cert = factor(form, g, det_refined=refined)
            report = verify_certificate(form, g, cert)
            if not report.passed:
                raise VerificationError(
                    report.failures()[0][0],
                    {
                        "g": g.serialize(),
                        "cert": cert.serialize(),
                        "report": report.serialize(),
                    },
                )
            total += 1
            case_histogram(cert.cases, cases)
            label = det_label(F, cert._h1_det())
            dets[label] = dets.get(label, 0) + 1
    return {
        "beta": beta_elem.serialize(),
        "cases": dict(sorted(cases.items())),
        "dets": dict(sorted(dets.items())),
        "failures": 0,
        "mode": mode,
        "refined": bool(refined),
        "total": total,
    }
