"""Groups of a space: seeded sampling, exhaustive enumeration, the
brute-force involution oracle, and surveys.

Sampling walks are seeded and deterministic, and apply each generator as
a rank-one update of the sample's key rows.  Enumeration searches column
by column on key vectors, with one elimination per search node and a Mat
made only for each matrix it yields; it visits matrices in a fixed
canonical order (the first column ascending by integer key, each later one
by the key of its kernel coefficients), so runs reproduce exactly.

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
block transcript is serialized.  Its determinant histogram reads each
certificate's det(h1), as `invofactor factor` does.
survey calls factor and verify_certificate through this module's names
for them, which a caller can rebind to watch each element.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import BudgetExceededError, InputError, InternalInvariantError, VerificationError
from .factor import factor
from .fields import FieldElem
from .forms import least_nonsquare
from .linalg import Mat, block_diag, gram, monomial_rows
from .poly import least_root
from .verify import case_histogram, det_label, verify_certificate


def _generator(form, pair, draw):
    """The key data (v, w, c) of one generator I + c v w^T of the walk, with
    w = J conj(v) = pair(conj(v)) and <v, v> = v . w: a transvection, c =
    lambda, on a symplectic space; a reflection, c = -2 / <v, v>, on an
    orthogonal one; a pseudo-reflection, c = (zeta - 1) / <v, v> with
    zeta = conj(u) / u of norm one, on a hermitian one.  Keys are drawn by
    draw(order); a zero v is redrawn, and so is an isotropic v, or a
    conj-fixed u, with the vector."""
    F = form.tower
    n, order, conj, mul, inv = form.n, F.order, F.conj, F.mul, F.inv
    while True:
        v = [draw(order) for _ in range(n)]
        if not any(v):
            continue
        w = pair(list(map(conj, v)))
        if form.kind == "symplectic":
            return v, w, draw(order)
        norm = F.dot(v, w)
        if not norm:
            continue
        if form.kind == "orthogonal":
            return v, w, mul(-2 % F.p, inv(norm))
        u = draw(order)
        if u and conj(u) != u:
            return v, w, mul(F.sub(mul(conj(u), inv(u)), 1), inv(norm))


def _norm_preimage(F, beta):
    """The least w, by key, with w * conj(w) = beta, or None.

    Over the fixed field B, w = a + b W with W^2 + g1 W + g0 = 0 has norm
    a^2 - g1 a b + g0 b^2 and key key(a) + q key(b).  So the least w is the
    least root a of a^2 - g1 b a + (g0 b^2 - beta) at the least b for which
    one exists; about half of all b have one, so few factorizations run."""
    B, q = F._base, F.q
    if beta.key >= q:  # beta is not in B, and no norm is beta
        return None
    g0, g1 = B.elem(F._qg0).key, B.elem(F._qg1).key
    mul = B.mul
    for b in range(q):
        c0 = B.sub(mul(g0, mul(b, b)), beta.key)
        a = least_root([c0, B.neg(mul(g1, b)), 1], B)
        if a is not None:
            return FieldElem(F, a + q * b)
    return None


def _dilation(form, beta):
    """One similitude of ratio beta on a standard space."""
    F = form.tower
    n = form.n
    if beta == F.one:
        return Mat.identity(F, n)
    if form.standard == "hermitian":
        w = _norm_preimage(F, beta)
        if w is None:
            raise InternalInvariantError("norm is not surjective", {"beta": beta.serialize()})
        return Mat.diag(F, [w] * n)
    if form.standard in ("symplectic", "orthogonal_plus"):
        m = n // 2
        return Mat.diag(F, [beta] * m + [F.one] * m)
    if form.standard == "orthogonal_minus":
        delta = least_nonsquare(F)
        W = None
        # the first x with (x^2 - beta) / delta a square; the squareness test
        # is one power, so the root search runs once
        for x in F.elements():
            y2 = (x * x - beta) / delta
            if F.is_square(y2):
                y = F.sqrt(y2)
                W = Mat.from_rows(F, [[x, delta * y], [y, x]])
                break
        if W is None:
            raise InternalInvariantError(
                "anisotropic norm form is not surjective", {"beta": beta.serialize()}
            )
        if n == 2:
            return W
        m = (n - 2) // 2
        split = Mat.diag(F, [beta] * m + [F.one] * m)
        return block_diag(F, [split, W])
    raise InputError(
        "sampling with ratio != 1 needs one of the standard space constructors"
    )


def group_sample(form, beta=None, seed=0, count=1):
    """`count` similitudes of ratio beta (default 1) by a seeded generator
    walk.  The seed is an int or a str, taken as given: 3 and "3" seed
    different walks.

    Each sample is _dilation(form, beta) times 8 to 15 generators
    I + c v w^T (_generator), each applied to g's key rows as g + c (g v) w^T:
    n dot products for g v and one scaled-row step per row i with
    (g v)_i != 0, O(n^2) with no n x n generator.  w is gathered along a
    row-monomial J (monomial_rows), else made by one matvec of J."""
    if type(count) is not int or count < 0:
        raise InputError(f"count must be a non-negative integer, got {count!r}")
    if type(seed) not in (int, str):
        raise InputError(f"seed must be an int or a str, got {seed!r}")
    F = form.tower
    beta = F.one if beta is None else form._as_elem(beta)
    rng = random.Random(seed)
    base = _dilation(form, beta).rows
    dot, mul, neg, sub_scaled = F.dot, F.mul, F.neg, F.sub_scaled
    pattern = monomial_rows(form.J)
    pair = (F.matvec(form.J.rows) if pattern is None
            else lambda x: [mul(c, x[j]) for j, c in pattern])
    out = []
    for _ in range(count):
        g = base
        for _ in range(8 + rng.randrange(8)):
            v, w, c = _generator(form, pair, rng.randrange)
            if c:
                nc = neg(c)
                g = [sub_scaled(r, mul(nc, x), w) if x else r
                     for r, x in zip(g, [dot(r, v) for r in g])]
        g = Mat(F, tuple(map(tuple, g)))
        # similitude_ratio's match, with no similitude at all read as a
        # wrong ratio: either way the walk is at fault, not the caller
        if form._match_ratio(gram(g, form.J, g), form.J) != beta:
            raise InternalInvariantError("sampled element has wrong ratio", {})
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration by column DFS against a target Gram matrix


def _gram_column_solver(form, P, beta, budget):
    """All matrices M whose columns pair as <m_i, m_j> = beta * P[i, j], in
    canonical order.  Such M are automatically invertible when P is.

    The search runs on key vectors and makes a Mat only of what it yields.
    Column 0's candidates are the little-endian digits of 0 .. q^n - 1.
    Below the root, column i solves A x = b, where A's rows are the pairing
    rows (J conj(m_j))^T of the columns chosen so far and b_j is the
    target <m_i, m_j>: one rref of [A | b] gives x0 (free coordinates zero)
    and the kernel basis K, one vector per free column, and the candidates
    are x0 + K t for t the little-endian digits of 0 .. q^d - 1, each made
    by one matvec of [K | x0] prepared per node.  A pairing row is one
    matvec of J prepared per solver, and <x, x> its dot product with x.
    Every candidate, zero included, charges the budget once."""
    F = form.tower
    beta = F.one if beta is None else form._as_elem(beta)
    target = [F.scale(r, beta.key) for r in P.rows]
    n, q = form.n, F.order
    pairing, dot, neg = F.matvec(form.J.rows), F.dot, F.neg
    conj = F.conj if F.has_conj else None
    digits = range(q)
    spent = 0

    def solutions(rows):
        # x0 + K t for every t in key order, or none when A x = b is
        # inconsistent; K's columns stand reversed before x0, as product()
        # runs its last digit fastest
        i = len(rows)
        R, piv = Mat(F, tuple((*w, target[i][j]) for j, w in enumerate(rows))).rref()
        if n in piv:
            return ()
        free = [c for c in range(n) if c not in piv][::-1]
        d = len(free)
        kx = [None] * n
        for k, c in enumerate(free):
            kx[c] = (0,) * k + (1,) + (0,) * (d - k)
        for r, c in zip(R.rows, piv):
            kx[c] = (*(neg(r[f]) for f in free), r[n])
        apply = F.matvec(kx)
        return (apply((*t, 1)) for t in product(digits, repeat=d))

    def extend(cols, rows, candidates):
        nonlocal spent
        i = len(cols)
        want = target[i][i]
        for x in candidates:
            spent += 1
            if spent > budget:
                raise BudgetExceededError(f"enumeration exceeded budget {budget}")
            if not any(x):
                continue
            w = pairing(list(map(conj, x)) if conj else x)
            if dot(x, w) != want:
                continue
            if i + 1 == n:
                yield Mat(F, tuple(zip(*cols, x)))
            else:
                below = rows + [w]
                yield from extend(cols + [x], below, solutions(below))

    yield from extend([], [], (t[::-1] for t in product(digits, repeat=n)))


def group_enumerate(form, beta=None, budget=10**7):
    """Every similitude of the given ratio, canonically ordered."""
    yield from _gram_column_solver(form, form.J, beta, budget)


def anti_unitary_enumerate(form, beta=None, budget=10**7):
    """Every matrix A with A^T J conj(A) = beta * eps * conj(J), canonically ordered.

    These are the twist-1 similitudes of ratio beta.
    """
    # form._anti is eps * conj(J)
    yield from _gram_column_solver(form, form._anti, beta, budget)


def oracle_involution_set(form, budget=10**7):
    """All twist-1 maps of ratio 1 squaring to the identity, in canonical
    order: the brute-force ground truth that any constructed h1 must hit."""
    eye = Mat.identity(form.tower, form.n)
    return [
        A
        for A in anti_unitary_enumerate(form, budget=budget)
        if A @ A.conj() == eye
    ]


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
    # imported here, so that enumerating a group loads no construction code
    from .construct import _shared_within_survey

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
            label = det_label(F, cert.h1.det())
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
