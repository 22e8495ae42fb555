"""Fault injection: a wrong intermediate inside the construction must end in
InternalInvariantError or in a certificate that still verifies, never in
another exception or a wrong certificate.

Each case below replaces one construction step with a faulty one, at the
point where an interior re-check used to guard it, and factors elements that
reach that step, in bare calls and under a survey, where the survey's
verify_certificate is the check.  The last tests pin the single verification point: one
`core_checks` per `factor`, no irreducibility re-test, and no witness
serialization on a passing verification; and the single factorization:
one `factorize` and one `minimal_polynomial` per `factor`, whose factors
every complement inherits less those its block filled (a self-paired
exponent passing on as an upper bound), while `frobenius_form` works on
one primary component and evaluates no polynomial.  The sampler's guards
are reached the same way: a wrong generator coefficient, and dilations
whose norm searches find nothing; and so is similitude_ratio's, a ratio
not fixed by conj (test_a_ratio_not_fixed_by_conj_is_named).  The last
nine reach the self-checks no fault of the cases reaches, one fault each:
factorize's product check, frobenius_form's dual system and complement
checks, the paired block's dimension check, the cyclic pair's gamma solve
and Gram, the self-paired search's full-height column, and the output
checks of symmetric_conjugator and symmetric_factor."""

import importlib
import sys

import pytest
from test_decomp import companion
from test_self_paired import _used_exponent

from invofactor import (
    InternalInvariantError,
    InvofactorError,
    VerificationError,
    factor,
    field_make,
    group_sample,
    hermitian_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    survey,
    symplectic_form,
    verify_certificate,
)
from invofactor.linalg import Mat, block_diag
from invofactor.poly import padd, pdivmod, pmul

fac = importlib.import_module("invofactor.construct")
ver = importlib.import_module("invofactor.verify")
forms = importlib.import_module("invofactor.forms")
grp = importlib.import_module("invofactor.groups")
dec = importlib.import_module("invofactor.decomp")
poly = importlib.import_module("invofactor.poly")
fields = importlib.import_module("invofactor.fields")
companions = importlib.import_module("invofactor.companions")


def _elements():
    """Elements whose factorizations build paired, cyclic and cyclic-pair
    blocks, with and without repeated eigenvalues."""
    F7 = field_make(7)
    sp = symplectic_form(F7, 4)
    out = [
        (sp, -Mat.identity(F7, 4)),  # cyclic pairs
        (sp, Mat.from_rows(F7, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
        (sp, Mat.diag(F7, [F7.from_int(c) for c in (2, 3, 4, 5)])),  # paired lines
    ]
    # diag(A, A^-T) with A a Jordan block of 2, and A the companion of the
    # irreducible T^2 + T + 3: paired planes on which A is not symmetric
    for A in ([[2, 1], [0, 2]], [[0, 4], [1, 6]]):
        A = Mat.from_rows(F7, A)
        out.append((sp, block_diag(F7, [A, A.inv().T])))
    for beta in (1, 3):
        out += [(sp, g) for g in group_sample(sp, beta, seed="faults", count=3)]
    go = orthogonal_plus_form(field_make(5), 4)
    out += [(go, g) for g in group_sample(go, seed="faults", count=3)]
    hu = hermitian_form(field_make(5, 1, "quadratic"), 3)
    out += [(hu, g) for g in group_sample(hu, seed="faults", count=3)]
    return out


ELEMENTS = _elements()


def _plus_one_at(M, i, j):
    rows = [list(r) for r in M.rows]
    rows[i][j] = M.tower.add(rows[i][j], 1)
    return Mat(M.tower, tuple(map(tuple, rows)))


def _corrupt_cyclic_t(monkeypatch, hits):
    real = fac._cyclic_t

    def faulty(F, beta, ann):
        hits.append(1)
        return _plus_one_at(real(F, beta, ann), 0, 0)

    monkeypatch.setattr(fac, "_cyclic_t", faulty)


def _non_symmetric_conjugator(monkeypatch, hits):
    real = fac._symmetric_conjugator

    def faulty(a):
        hits.append(1)
        X = real(a)
        return _plus_one_at(X, 0, X.ncols - 1)

    monkeypatch.setattr(fac, "_symmetric_conjugator", faulty)


def _non_intertwining_conjugator(monkeypatch, hits):
    real = fac._symmetric_conjugator

    def faulty(a):
        hits.append(1)
        X = real(a)
        return X + Mat.identity(a.tower, a.nrows)

    monkeypatch.setattr(fac, "_symmetric_conjugator", faulty)


def _singular_conjugator(monkeypatch, hits):
    real = fac._symmetric_conjugator

    def faulty(a):
        # X with its first column zeroed
        hits.append(1)
        X = real(a)
        return X - X.col(0) @ Mat.identity(a.tower, a.nrows).col(0).T

    monkeypatch.setattr(fac, "_symmetric_conjugator", faulty)


def _non_conjugating_frobenius_form(monkeypatch, hits):
    # a normal-form basis that does not conjugate a onto its companion blocks
    real = fac.frobenius_form

    def faulty(a):
        hits.append(1)
        B, invariants = real(a)
        return _plus_one_at(B, B.nrows - 1, 0), invariants

    monkeypatch.setattr(fac, "frobenius_form", faulty)


def _perturbed_gamma(monkeypatch, hits):
    real = fac._gamma

    def faulty(F, beta, eps, G, x, Ky, pe):
        hits.append(1)
        return padd(real(F, beta, eps, G, x, Ky, pe), [1], F)

    monkeypatch.setattr(fac, "_gamma", faulty)


def _merged_factorize(monkeypatch, hits):
    # the first two factors of equal multiplicity come back as one
    real = poly.factorize

    def faulty(f, F, seed=0):
        out = real(f, F, seed)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if out[i][1] == out[j][1]:
                    hits.append(1)
                    merged = (pmul(out[i][0], out[j][0], F), out[i][1])
                    return [merged] + [fm for k, fm in enumerate(out) if k not in (i, j)]
        return out

    monkeypatch.setattr(fac, "factorize", faulty)


def _minpoly_with_extra_factor(c):
    def install(monkeypatch, hits):
        # (T - c) times the true minimal polynomial
        real = dec.minimal_polynomial

        def faulty(g):
            hits.append(1)
            F = g.tower
            return pmul(real(g), [F.neg(F.from_int(c).key), 1], F)

        monkeypatch.setattr(fac, "minimal_polynomial", faulty)

    return install


def _minpoly_missing_a_factor(monkeypatch, hits):
    # the true minimal polynomial with one power of its first factor removed
    real = dec.minimal_polynomial

    def faulty(g):
        hits.append(1)
        F = g.tower
        mp = real(g)
        return pdivmod(mp, poly.factorize(mp, F)[0][0], F)[0]

    monkeypatch.setattr(fac, "minimal_polynomial", faulty)


def _wrong_hankel(monkeypatch, hits):
    # the companion symmetrizer, a Hankel matrix, made non-symmetric
    real = fac._symmetrizer

    def faulty(F, f):
        hits.append(1)
        S = real(F, f)
        return _plus_one_at(S, S.nrows - 1, 0)

    monkeypatch.setattr(fac, "_symmetrizer", faulty)


def _wrong_component_basis(monkeypatch, hits):
    # a component basis with a vector outside ker p^e(a); a lone component
    # is the whole space, where every vector lies, and is left alone
    real = fac._component

    def faulty(a, apply, factors, p_, e):
        U, free = real(a, apply, factors, p_, e)
        if len(factors) == 1:
            return U, free
        hits.append(1)
        return _plus_one_at(U, 0, 0), free

    monkeypatch.setattr(fac, "_component", faulty)


def _wrong_cyclic_space(monkeypatch, hits):
    # the accepted candidate's cyclic space is not the one the scan combined
    real = fac._cyclic_block

    def faulty(F, beta, K, ann):
        hits.append(1)
        return real(F, beta, _plus_one_at(K, K.nrows - 1, 0), ann)

    monkeypatch.setattr(fac, "_cyclic_block", faulty)


def _wrong_dual_basis(monkeypatch, hits):
    # the reciprocal component's basis gets a vector outside the component,
    # so the dual-normalized basis of a paired block has the wrong Gram
    real_block, real_component = fac._paired_block, fac._component
    seen = {"in_paired": None}  # components taken inside the current paired block

    def block(*args):
        seen["in_paired"] = 0
        try:
            return real_block(*args)
        finally:
            seen["in_paired"] = None

    def component(a, apply, factors, p_, e):
        K, free = real_component(a, apply, factors, p_, e)
        if seen["in_paired"] is None:
            return K, free
        seen["in_paired"] += 1
        if seen["in_paired"] == 2:  # U, then Us
            hits.append(1)
            return _plus_one_at(K, 0, 0), free
        return K, free

    monkeypatch.setattr(fac, "_paired_block", block)
    monkeypatch.setattr(fac, "_component", component)


def _wrong_restriction(monkeypatch, hits):
    # restrict reads its rows off the basis's unit rows and checks no
    # invariance: one row of the restricted matrix comes back changed, in
    # factor's blocks and complements and in frobenius_form's peels
    real = dec.restrict

    def faulty(g, basis, free):
        hits.append(1)
        X = real(g, basis, free)
        return _plus_one_at(X, X.nrows - 1, 0)

    monkeypatch.setattr(fac, "restrict", faulty)
    monkeypatch.setattr(dec, "restrict", faulty)


FAULTS = {
    "cyclic_t": _corrupt_cyclic_t,
    "conjugator_not_symmetric": _non_symmetric_conjugator,
    "conjugator_not_intertwining": _non_intertwining_conjugator,
    "conjugator_singular": _singular_conjugator,
    "frobenius_basis": _non_conjugating_frobenius_form,
    "gamma": _perturbed_gamma,
    "factorize_merges": _merged_factorize,
    "minpoly_times_t_minus_1": _minpoly_with_extra_factor(1),
    "minpoly_times_t_minus_3": _minpoly_with_extra_factor(3),
    "minpoly_missing_a_factor": _minpoly_missing_a_factor,
    "hankel": _wrong_hankel,
    "component_basis": _wrong_component_basis,
    "cyclic_space": _wrong_cyclic_space,
    "dual_basis": _wrong_dual_basis,
    "restriction_row": _wrong_restriction,
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_fault_ends_in_a_named_error_or_a_verified_certificate(monkeypatch, name):
    hits = []
    FAULTS[name](monkeypatch, hits)
    outcomes = []
    for form, g in ELEMENTS:
        try:
            cert = factor(form, g)
        except InvofactorError as e:  # any other exception fails the test
            outcomes.append(type(e))
            continue
        assert verify_certificate(form, g, cert).passed
        outcomes.append(None)
    # the fault was reached, at least once it mattered, and every time it
    # mattered it was caught as an internal error, never as bad input
    assert hits, name
    assert InternalInvariantError in outcomes, outcomes
    assert set(outcomes) <= {InternalInvariantError, None}, outcomes


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_fault_under_a_survey_ends_in_a_named_error(monkeypatch, name):
    # inside a survey factor returns its certificate unchecked: a fault the
    # construction meets raises InternalInvariantError, and one that reaches
    # the certificate fails the survey's verify_certificate
    groups = {}
    for form, g in ELEMENTS:
        groups.setdefault((form, form.similitude_ratio(g)), []).append(g)
    monkeypatch.setattr(grp, "group_enumerate", lambda form, beta, budget: groups[form, beta])
    hits = []
    FAULTS[name](monkeypatch, hits)
    outcomes = []
    for form, beta in groups:
        try:
            survey(form, beta=beta)
        except InvofactorError as e:  # any other exception fails the test
            outcomes.append(type(e))
            continue
        outcomes.append(None)
    assert hits, name
    assert set(outcomes) - {None}, outcomes
    assert set(outcomes) <= {InternalInvariantError, VerificationError, None}, outcomes


def test_factor_checks_its_result_exactly_once(monkeypatch):
    calls = {"core_checks": 0, "is_irreducible_poly": 0}

    def counted(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    # one counter for every check: the construction's own and the
    # verifier's (FactorCert.checks, check_cert, verify_certificate)
    counted(fac, "core_checks")
    counted(ver, "core_checks")
    for mod in (poly, fields):
        counted(mod, "is_irreducible_poly")
    for form, g in ELEMENTS:
        calls["core_checks"] = 0
        factor(form, g)
        assert calls == {"core_checks": 1, "is_irreducible_poly": 0}


def test_factor_factors_the_minimal_polynomial_once(monkeypatch):
    # factor factors mp(g) once and hands the factors to every builder, and
    # no other module factors
    calls = {}
    real = poly.factorize
    for name, mod in list(sys.modules.items()):
        if name.startswith("invofactor.") and getattr(mod, "factorize", None) is real:

            def counted(f, F, seed=0, name=mod.__name__):
                calls[name] = calls.get(name, 0) + 1
                return real(f, F, seed)

            monkeypatch.setattr(mod, "factorize", counted)
    shapes = set()
    for form, g in ELEMENTS:
        calls.clear()
        cert = factor(form, g)
        assert calls == {fac.__name__: 1}
        paired = sum(b["case"] == "paired" for b in cert.blocks)
        shapes.add((len(cert.blocks) > 1, paired > 0))
    # elements that recurse into complements, with and without paired blocks
    assert {(True, True), (True, False)} <= shapes, shapes
    assert not hasattr(dec, "factorize")


def test_paired_complements_inherit_their_factors(monkeypatch):
    # every complement inherits fac less the factors whose components its
    # block filled: the complement of a paired block is the sum of the other
    # primary components, so its factors are fac without p and p~; a
    # self-paired block leaves the other primary components whole and what
    # it leaves of ker p^e(a), where p^e(a) = 0, so its complement keeps fac
    # (less p when the block fills ker p^e(a)) with e read as a bound.
    # minimal_polynomial runs on g alone, below self-paired blocks of every
    # exponent
    calls, exponents = [], []
    real, real_block = fac.minimal_polynomial, fac._self_paired_block

    def counted(g):
        calls.append(1)
        return real(g)

    def block(form, beta, a, G, p_, e, factors):
        got = real_block(form, beta, a, G, p_, e, factors)
        exponents.append(_used_exponent(p_, got))
        return got

    monkeypatch.setattr(fac, "minimal_polynomial", counted)
    monkeypatch.setattr(fac, "_self_paired_block", block)
    met = {"paired": 0, "self_paired_e1": 0, "self_paired_higher": 0}
    for form, g in ELEMENTS:
        calls.clear()
        exponents.clear()
        cert = factor(form, g)
        used = iter(exponents)
        shapes = [None if b["case"] == "paired" else next(used) for b in cert.blocks]
        for e in shapes[:-1]:  # the blocks with a complement
            met["paired" if e is None else "self_paired_e1" if e == 1 else "self_paired_higher"] += 1
        assert len(calls) == 1
    assert all(met.values()), met


def test_frobenius_form_evaluates_no_polynomial(monkeypatch):
    # decomp gets one primary component: frobenius_form spans the standard
    # columns with _krylov_span, and needs neither the minimal polynomial nor
    # a polynomial evaluated at the matrix, even on non-cyclic inputs that
    # take several peels.  Splitting a space into primary components
    # (poly_column of p^e, _component) is factor's alone
    calls = []
    for real in (dec.minimal_polynomial, dec.poly_column):
        for name, mod in list(sys.modules.items()):
            if name.startswith("invofactor.") and getattr(mod, real.__name__, None) is real:

                def counted(*args, real=real):
                    calls.append(real.__name__)
                    return real(*args)

                monkeypatch.setattr(mod, real.__name__, counted)
    F3 = field_make(3)
    shapes = {
        "I3": (Mat.identity(F3, 3), [[2, 1]] * 3),
        "nilpotent": (Mat.from_rows(F3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]), [[0, 0, 1], [0, 1]]),
    }
    for g, want in shapes.values():
        B, invariants = dec.frobenius_form(g)
        assert invariants == want
        assert B.inv() @ g @ B == block_diag(F3, [companion(F3, f) for f in invariants])
    assert calls == []
    for name in ("maximal_vector", "multiplicities", "poly_at", "_component"):
        assert not hasattr(dec, name), name


def test_a_passing_verification_serializes_nothing(monkeypatch):
    certs = [(form, g, factor(form, g)) for form, g in ELEMENTS]
    calls = []
    real = Mat.serialize

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Mat, "serialize", counted)
    for form, g, cert in certs:
        assert verify_certificate(form, g, cert).passed
    assert not calls
    # a failing check still gets its witness
    form, g, cert = certs[0]
    cert.h2 = cert.h2 * form.tower.from_int(2)
    report = verify_certificate(form, g, cert)
    assert not report.passed and calls
    assert all(wit is not None for _, wit in report.failures())


@pytest.mark.parametrize("space", ["go4+-F5", "u3-F25", "u1-F25"])
def test_a_wrong_generator_coefficient_fails_the_sample_check(monkeypatch, space):
    # a reflection or pseudo-reflection with twice its coefficient is no
    # isometry; the product is then no similitude, or one of another ratio
    # (on U1 every invertible scalar is a similitude), and both are the
    # walk's fault, named as such bare and under a survey
    form = {
        "go4+-F5": lambda: orthogonal_plus_form(field_make(5), 4),
        "u3-F25": lambda: hermitian_form(field_make(5, 1, "quadratic"), 3),
        "u1-F25": lambda: hermitian_form(field_make(5, 1, "quadratic"), 1),
    }[space]()
    F, real, hits = form.tower, grp._generator, []

    def doubled(form, pair, draw):
        v, w, c = real(form, pair, draw)
        hits.append(c)
        return v, w, F.add(c, c)

    monkeypatch.setattr(grp, "_generator", doubled)
    with pytest.raises(InternalInvariantError, match="sampled element has wrong ratio"):
        group_sample(form, seed="faults", count=3)
    with pytest.raises(InternalInvariantError, match="sampled element has wrong ratio"):
        survey(form, sample=3, seed="faults")
    assert hits


def test_an_anisotropic_plane_that_misses_beta_is_named(monkeypatch):
    # the orthogonal-minus dilation finds x with (x^2 - beta) / delta a
    # square; with no square at all it stops by name
    F = field_make(7)
    form = orthogonal_minus_form(F, 4)
    monkeypatch.setattr(type(F), "is_square", lambda self, a: False)
    with pytest.raises(InternalInvariantError, match="anisotropic norm form is not surjective"):
        group_sample(form, beta=3, seed="faults")


def test_a_ratio_not_fixed_by_conj_is_named(monkeypatch):
    # the ratio of a hermitian similitude lies in the conj-fixed field; had
    # _match_ratio read one outside it, similitude_ratio stops by name, in
    # a bare factor call too, which reads beta off g
    form = hermitian_form(field_make(3, 1, "quadratic"), 2)
    F = form.tower
    w = F.elem([0, 1])
    assert w.conj() != w
    monkeypatch.setattr(forms.SesquiForm, "_match_ratio", lambda self, S, P: w)
    g = Mat.identity(F, 2)
    with pytest.raises(InternalInvariantError, match="similitude ratio not fixed by conj"):
        form.similitude_ratio(g)
    with pytest.raises(InternalInvariantError, match="similitude ratio not fixed by conj"):
        factor(form, g)


# Three self-checks that no construction fault above reaches: factorize's
# product check, and frobenius_form's two checks on a peel.  Each is reached
# by one injected fault and ends in its named InternalInvariantError.


def test_a_factorization_that_misses_its_input_is_named(monkeypatch):
    # a squarefree part handed on with one more than its multiplicity: the
    # factors multiply to f times that part, bare and inside factor
    real = poly.squarefree_parts

    def faulty(f, F):
        return [(g, m + 1) for g, m in real(f, F)]

    monkeypatch.setattr(poly, "squarefree_parts", faulty)
    F7 = field_make(7)
    f = pmul([5, 1], [4, 1], F7)  # (T - 2)(T - 3)
    with pytest.raises(InternalInvariantError, match="factor product differs from input"):
        poly.factorize(f, F7)
    g = Mat.diag(F7, [F7.from_int(c) for c in (2, 3, 4, 5)])
    with pytest.raises(InternalInvariantError, match="factor product differs from input"):
        factor(symplectic_form(F7, 4), g)


# T^2 on e_1 and T on e_0, e_2: frobenius_form takes e_1's cyclic plane
# (e_1, e_0) and peels it off the 3-space, solving for its dual functional
NILPOTENT = ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 1]])


def test_frobenius_form_names_an_inconsistent_dual_system(monkeypatch):
    # a cyclic basis whose last vector repeats its first: no functional
    # vanishes on that vector and is 1 on it too
    real = dec._column_spans

    def faulty(g):
        for K, ann in real(g):
            if K.ncols > 1:
                K = Mat(K.tower, tuple(r[:-1] + r[:1] for r in K.rows))
            yield K, ann

    F3 = field_make(3)
    rows, want = NILPOTENT
    g = Mat.from_rows(F3, rows)
    assert dec.frobenius_form(g)[1] == want
    monkeypatch.setattr(dec, "_column_spans", faulty)
    with pytest.raises(InternalInvariantError, match="dual functional system is inconsistent"):
        dec.frobenius_form(g)


def test_frobenius_form_names_a_complement_of_the_wrong_dimension(monkeypatch):
    # the dual system solved as the zero functional: its translates cut out
    # no complement, and the kernel is the whole space
    real = Mat.solve_right
    F3 = field_make(3)
    rows, want = NILPOTENT
    g = Mat.from_rows(F3, rows)
    assert dec.frobenius_form(g)[1] == want
    monkeypatch.setattr(Mat, "solve_right", lambda self, b: real(self, b) * 0)
    with pytest.raises(InternalInvariantError, match="invariant complement has wrong dimension"):
        dec.frobenius_form(g)


# Six construction self-checks that no fault of FAULTS reaches, each reached
# by one injected fault and ending in its named InternalInvariantError: the
# paired block's dimension check, the cyclic pair's gamma solve and Gram,
# the self-paired search's full-height column, and the output checks of
# the symmetric conjugator and the symmetric two-factor split.
F7 = field_make(7)
SP4 = symplectic_form(F7, 4)
# diag(A, A^-T) with A a Jordan block of 2: one paired block of two planes
JORDAN = Mat.from_rows(F7, [[2, 1], [0, 2]])
PAIRED_PLANES = block_diag(F7, [JORDAN, JORDAN.inv().T])


def test_paired_components_of_different_dimension_are_named(monkeypatch):
    # the reciprocal side's component comes back with a column dropped
    real_block, real_component = fac._paired_block, fac._component
    reciprocal = []

    def block(form, beta, a, G, p_, e, ps, factors):
        reciprocal.append(ps)
        return real_block(form, beta, a, G, p_, e, ps, factors)

    def component(a, apply, factors, p_, e):
        U, free = real_component(a, apply, factors, p_, e)
        if p_ == reciprocal[-1]:
            U = Mat(U.tower, tuple(r[:-1] for r in U.rows))
        return U, free

    monkeypatch.setattr(fac, "_paired_block", block)
    monkeypatch.setattr(fac, "_component", component)
    with pytest.raises(InternalInvariantError, match="paired components differ in dimension"):
        factor(SP4, PAIRED_PLANES)


def test_an_unsolvable_pairing_correction_is_named(monkeypatch):
    # -I on Sp4(F7) takes cyclic pairs; gamma's system reads as unsolvable
    real = fac._gamma

    def gamma(*args):
        with monkeypatch.context() as m:
            m.setattr(Mat, "solve_right", lambda self, b: None)
            return real(*args)

    monkeypatch.setattr(fac, "_gamma", gamma)
    with pytest.raises(InternalInvariantError, match="pairing correction system is unsolvable"):
        factor(SP4, -Mat.identity(F7, 4))


def test_a_degenerate_cyclic_pair_is_named(monkeypatch):
    # the Gram of the cyclic pair's basis [Kx | Ky] reads as zero
    real_pair, real_gram = fac._cyclic_pair_block, fac.gram

    def zero_gram(A, G, B):
        return real_gram(A, G, B) * (0 if A is B else 1)

    def pair(*args):
        with monkeypatch.context() as m:
            m.setattr(fac, "gram", zero_gram)
            return real_pair(*args)

    monkeypatch.setattr(fac, "_cyclic_pair_block", pair)
    with pytest.raises(InternalInvariantError, match="paired cyclic Gram is degenerate"):
        factor(SP4, -Mat.identity(F7, 4))


def test_a_component_with_no_full_height_vector_is_named(monkeypatch):
    # a zero component basis: no column and no exponent has a full-height
    # vector
    real = fac._component

    def component(*args):
        U, free = real(*args)
        return U * 0, free

    monkeypatch.setattr(fac, "_component", component)
    with pytest.raises(InternalInvariantError, match="component has no full-height vector"):
        factor(SP4, -Mat.identity(F7, 4))


def test_a_failed_symmetric_conjugator_is_named(monkeypatch):
    real = companions._symmetric_conjugator

    def faulty(a):
        X = real(a)
        return _plus_one_at(X, 0, X.ncols - 1)

    monkeypatch.setattr(companions, "_symmetric_conjugator", faulty)
    with pytest.raises(InternalInvariantError, match="symmetric conjugator construction failed"):
        companions.symmetric_conjugator(JORDAN)


def test_a_failed_symmetric_split_is_named(monkeypatch):
    # a symmetric first factor that does not intertwine a with a^T leaves
    # a non-symmetric second factor
    monkeypatch.setattr(companions, "symmetric_conjugator", lambda a: Mat.identity(a.tower, a.nrows))
    with pytest.raises(InternalInvariantError, match="symmetric two-factor split failed"):
        companions.symmetric_factor(JORDAN)
