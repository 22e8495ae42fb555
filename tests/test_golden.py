"""Golden corpus: the certificates of a fixed-seed corpus, byte for byte.

The corpus covers every space kind (symplectic, orthogonal plus and minus,
hermitian), characteristic 2 (prime, extension and quadratic towers),
multipliers beta != 1, extension fields and quadratic towers, plus
determinant-refined orthogonal factorizations (whose obstructions are
recorded through the error's witness).  Every certificate is serialized as
canonical JSON (sorted keys, two-space indent, trailing newline) and fed
into one SHA-256.  Any change to the construction, the field moduli, the
element keys or the serialization changes the digest; a deliberate format
change must re-record it and say so.
"""

import hashlib
import json
import time

from invofactor import (
    DetRefinementError,
    factor,
    field_make,
    group_enumerate,
    group_sample,
    hermitian_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
    verify_certificate,
)

# label, space constructor, n, (p, k, ext), beta (a scalar, or "key:n"),
# sample count (None: exhaustive), refined
CORPUS = (
    ("Sp2(F3) all", symplectic_form, 2, (3, 1, "trivial"), 1, None, False),
    ("Sp2(F2) all", symplectic_form, 2, (2, 1, "trivial"), 1, None, False),
    ("Sp4(F3)", symplectic_form, 4, (3, 1, "trivial"), 1, 40, False),
    ("GSp4(F3) b=2", symplectic_form, 4, (3, 1, "trivial"), 2, 30, False),
    ("Sp4(F2)", symplectic_form, 4, (2, 1, "trivial"), 1, 30, False),
    ("Sp6(F2)", symplectic_form, 6, (2, 1, "trivial"), 1, 15, False),
    ("Sp4(F4)", symplectic_form, 4, (2, 2, "trivial"), 1, 25, False),
    ("Sp4(F8)", symplectic_form, 4, (2, 3, "trivial"), 1, 10, False),
    ("Sp4(F243)", symplectic_form, 4, (3, 5, "trivial"), 1, 5, False),
    ("GSp4(F9) b=w", symplectic_form, 4, (3, 2, "trivial"), "key:3", 15, False),
    ("Sp4(F101) b=2", symplectic_form, 4, (101, 1, "trivial"), 2, 10, False),
    ("GO4+(F5)", orthogonal_plus_form, 4, (5, 1, "trivial"), 1, 25, False),
    ("GO4+(F5) b=2", orthogonal_plus_form, 4, (5, 1, "trivial"), 2, 20, False),
    ("GO4-(F3) b=2", orthogonal_minus_form, 4, (3, 1, "trivial"), 2, 25, False),
    ("GO2-(F5) b=3 all", orthogonal_minus_form, 2, (5, 1, "trivial"), 3, None, False),
    ("GO4+(F9)", orthogonal_plus_form, 4, (3, 2, "trivial"), 1, 10, False),
    ("GO4+(F3) refined", orthogonal_plus_form, 4, (3, 1, "trivial"), 1, 20, True),
    ("GO4-(F3) b=2 refined", orthogonal_minus_form, 4, (3, 1, "trivial"), 2, 20, True),
    ("U2(F4/F2) all", hermitian_form, 2, (2, 1, "quadratic"), 1, None, False),
    ("U3(F4/F2)", hermitian_form, 3, (2, 1, "quadratic"), 1, 15, False),
    ("U3(F9/F3)", hermitian_form, 3, (3, 1, "quadratic"), 1, 25, False),
    ("GU2(F25/F5) b=2", hermitian_form, 2, (5, 1, "quadratic"), 2, 20, False),
    ("U2(F16/F4)", hermitian_form, 2, (2, 2, "quadratic"), 1, 10, False),
)
CORPUS_SEED = "golden"
# recorded before the integer-key field kernel replaced the coordinate one
GOLDEN_SHA256 = "525e7b815d1b68897376adc27e6371bb39dc7f2c108c7f49faa80d6c674e28db"
GOLDEN_COUNT = 430
TIME_LIMIT_S = 30.0


def _elements(form, beta, count, label):
    if isinstance(beta, str):  # "key:n": the element of integer key n
        beta = form.tower.from_int(int(beta.split(":")[1]))
    if count is None:
        return list(group_enumerate(form, beta))
    return group_sample(form, beta, seed=f"{CORPUS_SEED}:{label}", count=count)


def _canon(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def corpus_digest():
    """(sha256 hex, number of elements) over the whole corpus."""
    h = hashlib.sha256()
    total = 0
    for label, make, n, (p, k, ext), beta, count, refined in CORPUS:
        form = make(field_make(p, k, ext), n)
        for g in _elements(form, beta, count, label):
            try:
                cert = factor(form, g, det_refined=refined)
            except DetRefinementError as e:
                h.update(_canon({"label": label, "g": g.serialize(), "obstructed": e.context}).encode())
            else:
                assert verify_certificate(form, g, cert).passed, label
                h.update(_canon(cert.serialize()).encode())
            total += 1
    return h.hexdigest(), total


def test_golden_corpus_certificates_are_byte_identical():
    t0 = time.perf_counter()
    digest, total = corpus_digest()
    dt = time.perf_counter() - t0
    print(f"golden corpus: {total} elements, sha256 {digest}, {dt:.2f}s")
    assert total == GOLDEN_COUNT
    assert digest == GOLDEN_SHA256
    assert dt < TIME_LIMIT_S
