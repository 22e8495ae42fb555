"""Certificate re-checking, tamper detection, involution oracles, surveys."""

import importlib
import json
import random

import pytest
from test_faults import _plus_one_at
from test_kernels import TOWERS

from invofactor import (
    BudgetExceededError,
    CHECK_NAMES,
    FactorCert,
    InputError,
    InternalInvariantError,
    VerificationError,
    check_cert,
    core_checks,
    factor,
    field_make,
    group_enumerate,
    group_sample,
    hermitian_form,
    oracle_involution_set,
    orthogonal_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    standard_reverser,
    survey,
    symplectic_form,
    verify_certificate,
)
from invofactor.cli import main
from invofactor.decomp import minimal_polynomial
from invofactor.forms import SesquiForm
from invofactor.linalg import Mat, monomial_rows

F3 = field_make(3)
F5 = field_make(5)
E9 = field_make(3, 1, "quadratic")
ver = importlib.import_module("invofactor.verify")
fields = importlib.import_module("invofactor.fields")


def _tamper(cert, attr, new):
    return FactorCert(
        cert.form,
        cert.g,
        new if attr == "beta" else cert.beta,
        new if attr == "h1" else cert.h1,
        new if attr == "h2" else cert.h2,
        cert.det_refined,
        cert.blocks,
    )


def test_fresh_certificate_reports_all_pass():
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = factor(sp, g)
    report = verify_certificate(sp, g, cert)
    assert report.passed
    assert [name for name, _, _ in report.checks] == list(CHECK_NAMES[:-1])
    assert all(wit is None for _, _, wit in report.checks)
    assert report.seconds >= 0
    doc = report.serialize()
    assert doc["passed"] is True and "seconds" not in doc
    assert all(set(c) == {"name", "passed"} for c in doc["checks"])
    assert [(n, ok) for n, ok, _ in report.checks] == core_checks(
        sp, g, cert.beta, cert.h1, cert.h2
    )


def test_tampered_h2_fails_by_name():
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = factor(sp, g)
    bad = cert.h2 + Mat.from_rows(F3, [[0, 1], [0, 0]])
    report = verify_certificate(sp, g, _tamper(cert, "h2", bad))
    assert not report.passed
    failed = {name for name, wit in report.failures()}
    assert failed <= {"h2_twist1_ratio_beta", "h2_square_is_beta", "h1_h2_product_is_g"}
    assert failed
    # witnesses carry the recomputed offending objects
    name, wit = report.failures()[0]
    assert isinstance(wit, dict) and wit
    json.dumps(report.serialize())  # JSON-ready

    with pytest.raises(VerificationError) as info:
        check_cert(_tamper(cert, "h2", bad))
    assert info.value.check in failed


def test_tampered_h1_and_beta_fail():
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = factor(sp, g)
    report = verify_certificate(sp, g, _tamper(cert, "h1", cert.h1 * F3.scalar(2)))
    assert not report.passed
    report = verify_certificate(sp, g, _tamper(cert, "beta", F3.scalar(2)))
    assert {n for n, _ in report.failures()} >= {"g_is_similitude_of_beta"}
    # a zero beta must be reported, not raised
    report = verify_certificate(sp, g, _tamper(cert, "beta", F3.zero))
    assert not report.passed


def test_mismatched_instance_reports_shape_check():
    sp3 = symplectic_form(F3, 2)
    sp5 = symplectic_form(F5, 2)
    cert = factor(sp3, Mat.from_rows(F3, [[1, 1], [0, 1]]))
    report = verify_certificate(sp5, Mat.identity(F5, 2), cert)
    assert not report.passed
    assert report.checks[0][0] == "shapes_match_the_space"
    assert "GF(5)" in report.checks[0][2]["space"]
    assert "GF(3)" in report.checks[0][2]["h1"]
    # a valid certificate checked against a singular g of the right shape:
    # g is no similitude, and the report says so with a witness, not raised
    cert = factor(sp5, Mat.from_rows(F5, [[1, 1], [0, 1]]))
    report = verify_certificate(sp5, Mat.from_rows(F5, [[1, 0], [0, 0]]), cert)
    failures = dict(report.failures())
    assert set(failures) == {"g_is_similitude_of_beta", "h1_h2_product_is_g"}
    assert set(failures["g_is_similitude_of_beta"]) == {"g", "beta"}
    assert [n for n, _, _ in report.checks] == list(CHECK_NAMES[:-1])


def test_verify_certificate_rejects_what_is_no_matrix_certificate_or_flag():
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = factor(sp, g)
    for args, flag in (
        ((sp, g.rows, cert), None),
        ((sp, None, cert), None),
        ((sp, g, None), None),
        ((sp, g, cert.serialize()), None),
        ((sp, g, cert), "no"),
        ((sp, g, cert), 1),
    ):
        with pytest.raises(InputError):
            verify_certificate(*args, det_refined=flag)
    assert verify_certificate(sp, g, cert, det_refined=False).passed


def test_refined_flag_adds_det_check():
    op = orthogonal_plus_form(F3, 2)
    g = Mat.identity(F3, 2)
    plain = factor(op, g)
    report = verify_certificate(op, g, plain, det_refined=True)
    names = [n for n, _, _ in report.checks]
    assert names[-1] == "h1_det_sign"
    refined = factor(op, g, det_refined=True)
    assert verify_certificate(op, g, refined).passed


def test_det_sign_check_outside_its_scope_fails_naming_the_space():
    # determinant refinement applies to orthogonal spaces of even dimension:
    # on Sp2(F5) and GO3(F5) a certificate checked as refined (by the flag
    # or by its own det_refined) fails h1_det_sign whatever det(h1) is, and
    # the witness names the kind and n
    for form in (symplectic_form(F5, 2), orthogonal_form(F5, Mat.identity(F5, 3))):
        g = Mat.identity(F5, form.n)
        cert = factor(form, g)
        edited = FactorCert(form, g, cert.beta, cert.h1, cert.h2, True, cert.blocks)
        reports = [verify_certificate(form, g, cert, det_refined=True), verify_certificate(form, g, edited)]
        for report in reports:
            failures = dict(report.failures())
            assert list(failures) == ["h1_det_sign"]
            assert failures["h1_det_sign"]["kind"] == form.kind
            assert failures["h1_det_sign"]["n"] == form.n


def test_oracle_involution_set_contents():
    sp = symplectic_form(F3, 2)
    sset = oracle_involution_set(sp)
    assert len(sset) == 12
    eye = Mat.identity(F3, 2)
    for A in sset:
        assert sp.anti_ratio(A) == F3.one
        assert A @ A.conj() == eye
    assert any(A == standard_reverser(sp) for A in sset)

    op = orthogonal_plus_form(F3, 2)
    assert any(A == Mat.from_rows(F3, [[0, 1], [1, 0]]) for A in oracle_involution_set(op))

    hm = hermitian_form(E9, 2)
    assert any(A == Mat.identity(E9, 2) for A in oracle_involution_set(hm))

    with pytest.raises(BudgetExceededError):
        oracle_involution_set(sp, budget=5)


def test_constructed_h1_is_in_the_oracle_set():
    for form in (symplectic_form(F3, 2), orthogonal_minus_form(F3, 2)):
        members = {repr(A.serialize()) for A in oracle_involution_set(form)}
        for g in group_enumerate(form):
            assert repr(factor(form, g).h1.serialize()) in members


def test_survey_exhaustive_summary():
    sp = symplectic_form(F3, 2)
    summary = survey(sp)
    assert summary == {
        "beta": [1],
        "cases": {"cyclic": 22, "cyclic_pair": 2},
        "dets": {"-1": 24},
        "failures": 0,
        "mode": "exhaustive",
        "refined": False,
        "total": 24,
    }


def test_survey_aborts_on_the_first_failing_certificate(monkeypatch, capsys):
    # survey's factor returns certificates with a tampered h2: the first one
    # aborts the survey, and the error names the first failed identity and
    # carries the element, the certificate and the report
    grp = importlib.import_module("invofactor.groups")
    real = grp.factor
    bad = []

    def tampered(form, g, det_refined=False):
        cert = real(form, g, det_refined=det_refined)
        cert = _tamper(cert, "h2", cert.h2 + Mat.from_rows(form.tower, [[0, 1], [0, 0]]))
        bad.append((g, cert))
        return cert

    monkeypatch.setattr(grp, "factor", tampered)
    sp = symplectic_form(F3, 2)
    with pytest.raises(VerificationError) as info:
        survey(sp)
    assert len(bad) == 1
    g, cert = bad[0]
    report = verify_certificate(sp, g, cert)
    assert info.value.check == report.failures()[0][0]
    assert info.value.context == {
        "g": g.serialize(),
        "cert": cert.serialize(),
        "report": report.serialize(),
    }
    # the command line exits 1 and writes that context to stderr as JSON
    bad.clear()
    assert main(["survey", "--kind", "sp", "--n", "2", "--q", "3", "--exhaustive"]) == 1
    out, err = capsys.readouterr()
    first, rest = err.split("\n", 1)
    assert first.startswith("error: ") and "total:" not in out
    assert json.loads(rest) == info.value.context


def _counted_factorize(monkeypatch):
    # the minimal polynomials factor sends to factorize, as key tuples
    con = importlib.import_module("invofactor.construct")
    real = con.factorize
    seen = []

    def counted(f, F, *args, **kwargs):
        seen.append(tuple(f))
        return real(f, F, *args, **kwargs)

    monkeypatch.setattr(con, "factorize", counted)
    return seen


def test_a_survey_factorizes_each_minimal_polynomial_once(monkeypatch):
    seen = _counted_factorize(monkeypatch)
    go = orthogonal_plus_form(F3, 4)
    summary = survey(go, beta=2)
    distinct = {tuple(minimal_polynomial(g)) for g in group_enumerate(go, beta=2)}
    assert summary["total"] > 10 * len(distinct)
    assert sorted(seen) == sorted(distinct)


def test_bare_factor_calls_each_factorize(monkeypatch):
    seen = _counted_factorize(monkeypatch)
    sp = symplectic_form(F5, 2)
    g = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert factor(sp, g).serialize() == factor(sp, g).serialize()
    assert seen == [tuple(minimal_polynomial(g))] * 2


def test_an_aborted_survey_leaves_no_memo_behind(monkeypatch):
    # a survey whose first certificate fails raises; the memo it held ends
    # with it, so the next bare factor call factorizes again
    seen = _counted_factorize(monkeypatch)
    grp = importlib.import_module("invofactor.groups")
    real = grp.factor
    met = []

    def tampered(form, g, det_refined=False):
        cert = real(form, g, det_refined=det_refined)
        met.append(g)
        return _tamper(cert, "h2", cert.h2 + Mat.from_rows(form.tower, [[0, 1], [0, 0]]))

    monkeypatch.setattr(grp, "factor", tampered)
    sp = symplectic_form(F3, 2)
    with pytest.raises(VerificationError):
        survey(sp)
    assert len(met) == len(seen) == 1
    real(sp, met[0])
    real(sp, met[0])
    assert seen == seen[:1] * 3


def test_the_memo_holds_immutable_values_and_hands_out_the_stored_ones(monkeypatch):
    # every value a GO4+(F3) beta = 2 survey stores, and one bare call of
    # that group with a level below its top, is, recursively, a tuple, Mat,
    # FieldElem, int or str (or None, the complement of a level whose block
    # fills its space), and a second _shared call with a stored key returns
    # the stored object itself
    con = importlib.import_module("invofactor.construct")
    real, memos = con._split, []

    def split(*args):
        memos.append(con._memo.get())
        return real(*args)

    def immutable(v):
        if type(v) is tuple:
            return all(map(immutable, v))
        return v is None or type(v) in (Mat, fields.FieldElem, int, str)

    def check(memo, fns):
        assert all(map(immutable, memo.values()))
        keys = [k for k in memo if k != "beta"]
        assert {k[0] for k in keys} >= fns
        token = con._memo.set(memo)
        try:
            assert all(con._shared(*k) is memo[k] for k in keys)
        finally:
            con._memo.reset(token)
        assert len(memo) == len(keys) + ("beta" in memo)

    monkeypatch.setattr(con, "_split", split)
    form = orthogonal_plus_form(F3, 4)
    assert survey(form, beta=2)["total"] == 1152
    memo = memos[0]
    assert all(m is memo for m in memos) and "beta" in memo
    check(memo, {con._factors, con._keys, con._level, con._intertwiner})
    for g in group_enumerate(form, beta=2):
        factor(form, g)
        if any(k[0] is con._level for k in memos[-1]):
            break
    assert memos[-1] is not memo and "beta" not in memos[-1]
    check(memos[-1], {con._factors, con._keys, con._level})


def _watched_builds(monkeypatch):
    # every block build as (top, a, G, factors) (top: G is the form's J),
    # every symmetric conjugator's argument, and the memo each _split ran in
    con = importlib.import_module("invofactor.construct")
    builds, conjugated, memos = [], [], []
    for name in ("_paired_block", "_self_paired_block"):

        def build(form, beta, a, G, *rest, real=getattr(con, name)):
            key = tuple((tuple(p), e) for p, e in rest[-1])
            builds.append((G is form.J, a, G, key))
            return real(form, beta, a, G, *rest)

        monkeypatch.setattr(con, name, build)
    real_conjugator, real_split = con._symmetric_conjugator, con._split

    def conjugator(a):
        conjugated.append(a)
        return real_conjugator(a)

    def split(*args):
        out = real_split(*args)
        memos.append(con._memo.get())
        return out

    monkeypatch.setattr(con, "_symmetric_conjugator", conjugator)
    monkeypatch.setattr(con, "_split", split)
    return builds, conjugated, memos


@pytest.mark.parametrize(
    "form, beta",
    [(orthogonal_plus_form(F3, 4), 2), (symplectic_form(field_make(2), 4), 1)],
    ids=["GO4+(F3),b=2", "Sp4(F2)"],
)
def test_a_survey_builds_each_sub_level_and_intertwiner_once(monkeypatch, form, beta):
    # bare factor calls build every level of every element; a survey builds
    # each element's top level, and each distinct level below it (a, its
    # Gram and its factors) once, and makes each paired block's symmetric
    # conjugator once per distinct restricted matrix.  Its memo keeps those
    # levels only, with no top-level key, and so does a bare call's: one key
    # per level below its top, none whose Gram is the form's J
    con = importlib.import_module("invofactor.construct")
    builds, conjugated, memos = _watched_builds(monkeypatch)
    elements = list(group_enumerate(form, beta=beta))
    for g in elements:
        before = len(builds)
        factor(form, g)
        levels = [k for k in memos[-1] if k[0] is con._level]
        assert len(levels) == len(builds) - before - 1
        assert not any(k[4] is form.J for k in levels)
    assert sum(top for top, *_ in builds) == len(elements)
    sub_levels = {tuple(key) for top, *key in builds if not top}
    bare_sub_levels = len(builds) - len(elements)
    restricted = set(conjugated)
    builds.clear()
    conjugated.clear()
    memos.clear()
    assert survey(form, beta=beta)["total"] == len(elements)
    assert sum(top for top, *_ in builds) == len(elements)
    assert len(builds) == len(elements) + len(sub_levels) < len(elements) + bare_sub_levels
    assert {tuple(key) for top, *key in builds if not top} == sub_levels
    assert set(conjugated) == restricted and len(conjugated) == len(restricted)
    memo = memos[0]
    assert all(m is memo for m in memos)
    levels = [k for k in memo if k[0] is con._level]
    assert len(levels) == len(sub_levels)
    assert not any(k[4] is form.J for k in levels)


def test_certificates_from_one_memoized_level_share_no_transcript(monkeypatch):
    # two survey certificates whose lower blocks come from one memoized
    # level: changing one's block data, and then its rendered transcript,
    # leaves the other's serialization that of a bare factor call
    grp = importlib.import_module("invofactor.groups")
    real = grp.factor
    made = []

    def kept(form, g, det_refined=False):
        made.append(real(form, g, det_refined=det_refined))
        return made[-1]

    monkeypatch.setattr(grp, "factor", kept)
    form = orthogonal_plus_form(F3, 4)
    survey(form, beta=2)
    pairs = (
        (a, b)
        for a, b in zip(made, made[1:])
        if len(a._blocks) > 1 and len(b._blocks) > 1 and a._blocks[1].t is b._blocks[1].t
    )
    a, b = next(pairs)
    want = json.dumps(real(form, b.g).serialize())
    for block in a._blocks:
        block.data["case"] = "changed"
        block.data["dim"] = -1
    for block in a.blocks:
        assert block["case"] == "changed"
        for v in block.values():
            if isinstance(v, list):
                v.append("changed")
                for x in v:
                    if isinstance(x, list):
                        x.append("changed")
    assert json.dumps(b.serialize()) == want


def test_a_refined_survey_gives_the_certificates_of_bare_refined_calls(monkeypatch):
    # _refine_dets writes t_det into every block's data, and negates the
    # local involution of one block and marks it sign_flipped where the
    # product misses the target; a survey's blocks below the top level
    # come from its memo, and each certificate still gets its own
    grp = importlib.import_module("invofactor.groups")
    con = importlib.import_module("invofactor.construct")
    real = grp.factor
    made = []

    def kept(form, g, det_refined=False):
        made.append(real(form, g, det_refined=det_refined))
        return made[-1]

    real_level, levels = con._level, []
    monkeypatch.setattr(grp, "factor", kept)
    monkeypatch.setattr(con, "_level", lambda *args: levels.append(1) or real_level(*args))
    form = orthogonal_plus_form(F3, 4)
    summary = survey(form, refined=True)
    assert summary["total"] == len(made) == 1152 and summary["dets"] == {"+1": 1152}
    assert len(levels) < sum(len(cert._blocks) for cert in made)
    flipped = 0
    for cert in made:
        # factor_det_refined calls the module's factor, which kept replaces
        bare = real(form, cert.g, det_refined=True)
        assert json.dumps(cert.serialize()) == json.dumps(bare.serialize())
        flipped += any(b.get("sign_flipped") for b in cert.blocks)
    assert flipped > 0


@pytest.mark.parametrize(
    "form",
    [symplectic_form(field_make(7), 2), hermitian_form(field_make(2, 1, "quadratic"), 3)],
    ids=["Sp2(F7)", "U3(F4)"],
)
def test_a_survey_checks_each_element_once(monkeypatch, form):
    # inside a survey factor leaves the check to verify_certificate, which
    # re-reads beta from g; after the survey a bare factor checks its own
    real = ver._checks
    from_g = []

    def counted(form, g, beta, h1, h2, det_refined=False, beta_from_g=False):
        from_g.append(beta_from_g)
        return real(form, g, beta, h1, h2, det_refined, beta_from_g)

    monkeypatch.setattr(ver, "_checks", counted)
    summary = survey(form)
    assert len(from_g) == summary["total"] > 0 and not any(from_g)
    from_g.clear()
    factor(form, Mat.identity(form.tower, form.n))
    assert from_g == [True]


def test_survey_rejects_an_element_of_another_ratio(monkeypatch):
    # factor takes the survey's beta as g's ratio, and verify_certificate
    # matches g's ratio with the certificate's beta, the survey's, so an
    # element of another ratio never passes a survey: it ends in that
    # VerificationError or in the construction's InternalInvariantError
    grp = importlib.import_module("invofactor.groups")
    sp = symplectic_form(F5, 2)
    g = group_sample(sp, beta=2, seed=1)[0]
    assert verify_certificate(sp, g, factor(sp, g)).passed
    real, met = grp.factor, []

    def kept(form, g, det_refined=False):
        met.append(g)
        return real(form, g, det_refined=det_refined)

    monkeypatch.setattr(grp, "factor", kept)
    monkeypatch.setattr(grp, "group_enumerate", lambda form, beta, budget: iter([g]))
    with pytest.raises((VerificationError, InternalInvariantError)) as info:
        survey(sp)
    if info.type is VerificationError:
        assert info.value.check == "g_is_similitude_of_beta"
        assert info.value.context["g"] == g.serialize()
    assert met == [g]


@pytest.mark.parametrize(
    "form, beta, other",
    [
        pytest.param(symplectic_form(F5, 2), 1, 2, id="Sp2(F5)"),
        pytest.param(symplectic_form(F5, 4), 2, 3, id="GSp4(F5)"),
        pytest.param(orthogonal_plus_form(F3, 4), 1, 2, id="GO4+(F3)"),
        pytest.param(
            hermitian_form(field_make(3, 2, "quadratic"), 3), 1, [2, 0, 0, 0], id="U3(F81)"
        ),
    ],
)
def test_the_survey_reads_g_s_ratio_at_j_s_anchor_entry(monkeypatch, form, beta, other):
    # factor takes the survey's beta as g's ratio, and the survey's
    # verify_certificate reads g's ratio at J's anchor entry (form._match_ratio)
    # and matches it with the certificate's beta, the survey's: each element
    # of another ratio, in the standard basis and in seeded dense ones
    # (g -> P^(-1) g P with Gram P^T J conj(P)), ends in that
    # VerificationError or in the construction's InternalInvariantError, and
    # no survey returns
    grp = importlib.import_module("invofactor.groups")
    F, n = form.tower, form.n
    b = form._as_elem(beta)
    o = form._as_elem(other) if isinstance(other, int) else F.elem(other)
    assert o != b
    rng = random.Random(repr(form))
    for k, g in enumerate(group_sample(form, beta=o, seed=repr(form), count=8)):
        space = form
        if k % 2:
            while True:
                P = Mat(F, tuple(tuple(rng.randrange(F.order) for _ in range(n)) for _ in range(n)))
                if P.det():
                    break
            space = SesquiForm(F, form.kind, P.T @ form.J @ P.conj())
            g = P.inv() @ g @ P
            assert space.similitude_ratio(g) == o
        monkeypatch.setattr(grp, "group_enumerate", lambda form, beta, budget, g=g: iter([g]))
        with pytest.raises((VerificationError, InternalInvariantError)) as info:
            survey(space, beta=b)
        if info.type is VerificationError:
            assert info.value.check == "g_is_similitude_of_beta"


@pytest.mark.parametrize("seed", [3, "3", "survey"], ids=repr)
def test_survey_samples_and_records_its_seed_as_given(monkeypatch, seed):
    # 3 and "3" seed different walks, and each survey records its own seed
    grp = importlib.import_module("invofactor.groups")
    real = grp.factor
    met = []

    def kept(form, g, det_refined=False):
        met.append(g)
        return real(form, g, det_refined=det_refined)

    monkeypatch.setattr(grp, "factor", kept)
    sp = symplectic_form(F5, 4)
    summary = survey(sp, beta=2, sample=4, seed=seed)
    assert summary["mode"] == {"sample": 4, "seed": seed}
    assert met == group_sample(sp, beta=2, seed=seed, count=4)
    assert group_sample(sp, beta=2, seed=3, count=4) != group_sample(sp, beta=2, seed="3", count=4)


@pytest.mark.parametrize("seed", [True, 2.5, None, b"3", (3,)], ids=repr)
def test_a_seed_is_an_int_or_a_str(seed):
    sp = symplectic_form(F5, 2)
    with pytest.raises(InputError):
        group_sample(sp, seed=seed)
    with pytest.raises(InputError):
        survey(sp, sample=1, seed=seed)


def test_survey_sampled_is_reproducible():
    sp = symplectic_form(F5, 4)
    one = survey(sp, beta=2, sample=15, seed=21)
    two = survey(sp, beta=2, sample=15, seed=21)
    assert one == two
    assert one["total"] == 15 and one["mode"] == {"sample": 15, "seed": 21}
    other = survey(sp, beta=2, sample=15, seed=22)
    assert other["total"] == 15  # different seed may or may not change the histogram


@pytest.mark.parametrize("sample", [True, 2.5, "3", -1], ids=repr)
def test_survey_takes_its_sample_count_as_an_int_only(sample):
    # group_sample judges the count as given: survey converts nothing
    with pytest.raises(InputError):
        survey(symplectic_form(F5, 2), sample=sample, seed=1)


def test_the_gram_of_g_is_made_once_per_factor_and_once_per_survey_element(monkeypatch):
    # a bare factor reads beta off g by similitude_ratio, and its own check
    # takes that beta as g's ratio; verify_certificate matches g's Gram once
    # more.  Inside a survey factor takes the survey's beta, so
    # verify_certificate's is the one Gram of g.  A match against J is a
    # Gram of g; the others are h1's and h2's
    real = SesquiForm._match_ratio
    real_ratio = SesquiForm.similitude_ratio
    on_j = []
    ratios = []

    def counted(self, S, P):
        on_j.append(P is self.J)
        return real(self, S, P)

    def counted_ratio(self, g):
        ratios.append(g)
        return real_ratio(self, g)

    samples = [(SP4, SP4_G), (DENSE_SP4, DENSE_SP4_G)]
    monkeypatch.setattr(SesquiForm, "_match_ratio", counted)
    monkeypatch.setattr(SesquiForm, "similitude_ratio", counted_ratio)
    for form, g in samples:
        on_j.clear()
        cert = factor(form, g)
        assert on_j == [True, False, False], on_j
        on_j.clear()
        assert verify_certificate(form, g, cert).passed
        assert on_j == [True, False, False], on_j
    assert len(ratios) == len(samples)
    on_j.clear()
    ratios.clear()
    summary = survey(symplectic_form(F5, 2), beta=2)
    assert summary["total"] == 120 and on_j.count(True) == 120
    assert on_j == [True, False, False] * 120 and ratios == []


def test_survey_refined_orthogonal():
    om = orthogonal_minus_form(F3, 2)
    summary = survey(om, refined=True)
    assert summary["total"] == 8 and summary["dets"] == {"-1": 8}
    assert summary["refined"] is True


def _changed_basis(form, g, P):
    # the same space and element in the basis P: Gram P^T J conj(P), and
    # P^(-1) g P (a trivial conj here)
    return SesquiForm(form.tower, form.kind, P.T @ form.J @ P), P.inv() @ g @ P


SP4 = symplectic_form(F5, 4)
SP4_G = group_sample(SP4, beta=2, seed=5)[0]
SP4_BASIS = Mat.from_rows(F5, [[1, 2, 0, 1], [3, 1, 1, 0], [0, 4, 1, 2], [1, 0, 3, 1]])
DENSE_SP4, DENSE_SP4_G = _changed_basis(SP4, SP4_G, SP4_BASIS)


def test_verify_makes_one_product_per_gram_on_standard_spaces(monkeypatch):
    # the left factors A^T J (A = g, h1, h2) gather rows along J's pattern,
    # or take one stacked product [g^T; h1^T; h2^T] J on a dense J; then
    # (g^T J) conj(g), [h1; h1^T J] conj(h1) and [h2; h1; h2^T J] conj(h2)
    # give the three Grams, h1 conj(h1), h2 conj(h2) and h1 conj(h2).
    # factor's own check makes no Gram of g: its beta was read off g
    assert monomial_rows(SP4.J) is not None and monomial_rows(DENSE_SP4.J) is None
    calls, inside = [], []

    def counted(ar, br):
        if inside:
            calls.append((len(ar), len(br[0])))
        return real(ar, br)

    def checked(*args, **kwargs):
        inside.append(True)
        try:
            return real_checks(*args, **kwargs)
        finally:
            inside.pop()

    con = importlib.import_module("invofactor.construct")
    real_checks = ver.core_checks
    for form, g in ((SP4, SP4_G), (DENSE_SP4, DENSE_SP4_G), (hermitian_form(E9, 3), None)):
        F, n = form.tower, form.n
        if g is None:
            g = group_sample(form, seed=2)[0]
        real = F.matmul
        monkeypatch.setattr(F, "matmul", counted)
        # the construction's check and every check through the verifier
        for mod in (con, ver):
            monkeypatch.setattr(mod, "core_checks", checked)
        calls.clear()
        cert = factor(form, g)
        own = list(calls)
        calls.clear()
        inside.append(True)
        assert verify_certificate(form, g, cert).passed
        inside.pop()
        monkeypatch.undo()
        stacked = [(2 * n, n), (3 * n, n)]
        if form is DENSE_SP4:
            assert own == [(2 * n, n)] + stacked, own
            assert calls == [(3 * n, n), (n, n)] + stacked, calls
        else:
            assert own == stacked, own
            assert calls == [(n, n)] + stacked, calls


def _off_pattern_tamper(form, h):
    # h @ (I + e_a e_b^T), a != b, changes h's Gram by the entries
    # (b, pi(a)) and (pi^(-1)(a), b) of J's pattern pi: both off it, since
    # pi(b) != pi(a) and pi(pi^(-1)(a)) = a != b.  The pair is chosen so the
    # two do not coincide (that needs pi(a) = b and pi(b) = a)
    F, n = form.tower, form.n
    pattern = monomial_rows(form.J)
    a, b = next(
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and not (pattern[a][0] == b and pattern[b][0] == a)
    )
    X = Mat(F, tuple(tuple(int(i == j or (i, j) == (a, b)) for j in range(n)) for i in range(n)))
    return h @ X, X


def test_off_pattern_gram_changes_fail_the_twist1_checks_by_name():
    # the tampered Grams agree with beta * eps * conj(J) at every entry of
    # J's pattern, so the ratio read at the anchor is right and only the
    # off-pattern zeros tell; carried to a changed basis (P^(-1) X P) the
    # same tamper meets the whole-matrix comparison of a dense Gram
    cert = factor(SP4, SP4_G)
    anti = SP4.J.conj() * SP4.eps_elem
    pattern = monomial_rows(SP4.J)
    for attr, ratio, check in (
        ("h1", F5.one, "h1_twist1_ratio_one"),
        ("h2", cert.beta, "h2_twist1_ratio_beta"),
    ):
        bad, X = _off_pattern_tamper(SP4, getattr(cert, attr))
        diff = SP4.gram(bad) - anti * ratio
        assert not diff.is_zero()
        assert all(not diff.rows[i][j] for i, (j, _) in enumerate(pattern))
        failed = {name for name, _ in verify_certificate(SP4, SP4_G, _tamper(cert, attr, bad)).failures()}
        assert check in failed, failed

        dense_cert = factor(DENSE_SP4, DENSE_SP4_G)
        Y = SP4_BASIS.inv() @ X @ SP4_BASIS
        bad = getattr(dense_cert, attr) @ Y
        report = verify_certificate(DENSE_SP4, DENSE_SP4_G, _tamper(dense_cert, attr, bad))
        assert check in {name for name, _ in report.failures()}


def _whole_ratio(S, P):
    # the beta with S = beta * P, read at P's first nonzero entry and
    # compared as whole matrices of FieldElems, or None
    n = P.nrows
    i, j = next((i, j) for i in range(n) for j in range(n) if P[i, j])
    beta = S[i, j] / P[i, j]
    return beta if beta and S == P * beta else None


def _reference_report(form, g, cert, refined=None):
    # the serialized report as whole Mats give it: every product made in
    # full, each ratio by _whole_ratio, I and beta * I built and compared
    F, n = form.tower, form.n
    beta, h1, h2 = cert.beta, cert.h1, cert.h2
    refined = cert.det_refined if refined is None else refined
    live = verify_certificate(form, g, cert, det_refined=refined).serialize()
    if not live["checks"][0]["passed"]:  # shapes: the one check that ran
        return live
    checks = [("shapes_match_the_space", True, None)]
    ratio = _whole_ratio(form.gram(g), form.J)
    try:
        sim = ratio is not None and ratio == form._as_elem(beta)
    except InputError:
        sim = False
    checks.append(("g_is_similitude_of_beta", sim, {"g": g.serialize(), "beta": beta.serialize()}))
    anti = form.J.conj() * form.eps_elem
    checks.append(("h1_twist1_ratio_one", _whole_ratio(form.gram(h1), anti) == F.one, {"h1": h1.serialize()}))
    eye = Mat.identity(F, n)
    sq1 = h1 @ h1.conj()
    checks.append(("h1_involution", sq1 == eye, {"h1_times_conj_h1": sq1.serialize()}))
    wit = {"h2": h2.serialize(), "beta": beta.serialize()}
    checks.append(("h2_twist1_ratio_beta", _whole_ratio(form.gram(h2), anti) == beta, wit))
    sq2 = h2 @ h2.conj()
    wit = {"h2_times_conj_h2": sq2.serialize(), "beta": beta.serialize()}
    checks.append(("h2_square_is_beta", sq2 == eye * beta, wit))
    prod = h1 @ h2.conj()
    checks.append(("h1_h2_product_is_g", prod == g, {"h1_times_conj_h2": prod.serialize(), "g": g.serialize()}))
    out = {"passed": None, "checks": []}
    for name, ok, wit in checks:
        out["checks"].append({"name": name, "passed": ok} if ok else {"name": name, "passed": ok, "witness": wit})
    if refined:
        out["checks"].append(live["checks"][-1])  # h1_det_sign is unchanged
    out["passed"] = all(c["passed"] for c in out["checks"])
    return out


def _random_basis(F, n, rng):
    # a seeded nonsingular n x n matrix over F
    while True:
        P = Mat(F, tuple(tuple(rng.randrange(F.order) for _ in range(n)) for _ in range(n)))
        if P.det():
            return P


def _tower_certificates(F):
    # (form, g, cert) on F: Sp6 over a trivial tower and U3 over a quadratic
    # one, at a ratio other than 1 where the conj-fixed field has one; on
    # the standard space and in a seeded dense basis P, where the space has
    # Gram P^T J conj(P) and the element is P^(-1) g P
    rng = random.Random(f"tower-certificates:{F!r}")
    std = hermitian_form(F, 3) if F.has_conj else symplectic_form(F, 6)
    beta = F.from_int(2) if F.q > 2 else F.one
    g = group_sample(std, beta, seed=rng.randrange(1000))[0]
    while True:
        P = _random_basis(F, std.n, rng)
        J = P.T @ std.J @ P.conj()
        if monomial_rows(J) is None:
            break
    dense = SesquiForm(F, std.kind, J)
    return [(form, h, factor(form, h)) for form, h in ((std, g), (dense, P.inv() @ g @ P))]


def _tower_tampers(form, g, cert):
    # (g, cert) tampered in h1, h2, g and beta: beta zero, another ratio
    # and, on a quadratic tower, one outside the conj-fixed field
    F = form.tower
    beta = cert.beta
    out = [
        (g, _tamper(cert, "h1", _plus_one_at(cert.h1, 0, 1))),
        (g, _tamper(cert, "h2", _plus_one_at(cert.h2, 1, 0))),
        (_plus_one_at(g, 0, 1), cert),
        (g, _tamper(cert, "beta", F.zero)),
        (g, _tamper(cert, "beta", beta + F.one)),
    ]
    if F.q > 2:
        out.append((g, _tamper(cert, "h1", cert.h1 * F.from_int(2))))
    if F.has_conj:
        out.append((g, _tamper(cert, "beta", F.from_int(F.q))))
    return out


def _tampered_certificates():
    # (form, g, cert, refined) for every tamper of this file, and two more:
    # the dense instance's h1 times 2 (its ratio read at the anchor is 4) and
    # the standard one's h2 with one off-diagonal entry changed
    out = []
    sp = symplectic_form(F3, 2)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    cert = factor(sp, g)
    out += [
        (sp, g, _tamper(cert, "h2", cert.h2 + Mat.from_rows(F3, [[0, 1], [0, 0]])), None),
        (sp, g, _tamper(cert, "h1", cert.h1 * F3.scalar(2)), None),
        (sp, g, _tamper(cert, "beta", F3.scalar(2)), None),
        (sp, g, _tamper(cert, "beta", F3.zero), None),
    ]
    sp5 = symplectic_form(F5, 2)
    out.append((sp5, Mat.identity(F5, 2), cert, None))
    out.append((sp5, Mat.from_rows(F5, [[1, 0], [0, 0]]), factor(sp5, Mat.from_rows(F5, [[1, 1], [0, 1]])), None))
    op = orthogonal_plus_form(F3, 2)
    out.append((op, Mat.identity(F3, 2), factor(op, Mat.identity(F3, 2)), True))
    for form in (symplectic_form(F5, 2), orthogonal_form(F5, Mat.identity(F5, 3))):
        out.append((form, Mat.identity(F5, form.n), factor(form, Mat.identity(F5, form.n)), True))
    sp4_cert, dense_cert = factor(SP4, SP4_G), factor(DENSE_SP4, DENSE_SP4_G)
    for attr in ("h1", "h2"):
        bad, X = _off_pattern_tamper(SP4, getattr(sp4_cert, attr))
        out.append((SP4, SP4_G, _tamper(sp4_cert, attr, bad), None))
        bad = getattr(dense_cert, attr) @ (SP4_BASIS.inv() @ X @ SP4_BASIS)
        out.append((DENSE_SP4, DENSE_SP4_G, _tamper(dense_cert, attr, bad), None))
    out.append((DENSE_SP4, DENSE_SP4_G, _tamper(dense_cert, "h1", dense_cert.h1 * F5.scalar(2)), None))
    out.append((SP4, SP4_G, _tamper(sp4_cert, "h2", _plus_one_at(sp4_cert.h2, 0, 1)), None))
    hu = hermitian_form(E9, 3)
    g = group_sample(hu, seed=2)[0]
    cert = factor(hu, g)
    out.append((hu, g, _tamper(cert, "h2", cert.h2 * E9.from_int(4)), None))
    return out


def _tower_tampered_certificates():
    # (form, g, cert, refined) for every tamper of _tower_tampers, on every
    # tower of test_kernels.TOWERS
    out = []
    for _, spec in TOWERS:
        for form, g, cert in _tower_certificates(field_make(*spec)):
            out += [(form, h, c, None) for h, c in _tower_tampers(form, g, cert)]
    return out


def test_tower_tampers_reach_every_product_lane(monkeypatch):
    # g's Gram is a wide product (n x n) and the stacked ones tall (2n x n,
    # 3n x n), so verifying the tower tampers runs the prime kernel's byte
    # slots, 64-bit slots and dot products each wide and tall, and both
    # sides of the characteristic-2 byte lane.  Each kernel takes its
    # packers when its tower is built, so the factory is wrapped and every
    # tower is built afresh
    packed, seen = [], set()

    def slots(p, w, real=fields.key_slots):
        pack, read = real(p, w)

        def counted(xs):
            packed.append({8: "byte", 64: "word"}.get(w, w))
            return pack(xs)

        return counted, read

    monkeypatch.setattr(fields, "key_slots", slots)
    monkeypatch.setattr(fields, "_TOWER_CACHE", {})
    for _, spec in TOWERS:
        F = field_make(*spec)
        kernel = F.matmul.__qualname__.split(".")[0]
        if kernel not in ("_prime_kernel", "_byte_lane_kernel"):
            continue

        def counted(ar, br, real=F.matmul, kernel=kernel):
            packed.clear()
            out = real(ar, br)
            lane = packed[0] if packed else "translate" if kernel == "_byte_lane_kernel" else "dots"
            seen.add((kernel, lane, "wide" if len(br[0]) >= len(ar) else "tall"))
            return out

        certs = _tower_certificates(F)
        monkeypatch.setattr(F, "matmul", counted)
        for form, g, cert in certs:
            for h, c in _tower_tampers(form, g, cert):
                assert not verify_certificate(form, h, c).passed
    sides = ("wide", "tall")
    want = {("_prime_kernel", lane, side) for lane in ("byte", "word", "dots") for side in sides}
    want |= {("_byte_lane_kernel", "translate", side) for side in sides}
    assert seen == want


def test_tampered_certificates_fail_by_the_same_names_and_witnesses():
    # the key-row checks report exactly what whole-Mat checks report
    cases = _tampered_certificates()
    for form, g, cert, refined in cases + _tower_tampered_certificates():
        report = verify_certificate(form, g, cert, det_refined=refined)
        assert not report.passed
        assert report.serialize() == _reference_report(form, g, cert, refined)
    dense_names = {n for n, _ in verify_certificate(*cases[-3][:3]).failures()}
    assert "h1_twist1_ratio_one" in dense_names, dense_names
    off_names = {n for n, _ in verify_certificate(*cases[-2][:3]).failures()}
    assert "h2_square_is_beta" in off_names, off_names


# the survey-small groups: label, form, ratio, number of elements
SURVEY_GROUPS = (
    ("Sp2(F7)", symplectic_form(field_make(7), 2), 1, 336),
    ("GSp2(F5)", symplectic_form(F5, 2), 2, 120),
    ("Sp2(F9)", symplectic_form(field_make(3, 2), 2), 1, 720),
    ("Sp4(F2)", symplectic_form(field_make(2), 4), 1, 720),
    ("U3(F4)", hermitian_form(field_make(2, 1, "quadratic"), 3), 1, 648),
    ("GO4+(F3)", orthogonal_plus_form(F3, 4), 2, 1152),
)


def _in_random_basis(form, rng):
    # the space in a seeded basis P: Gram P^T J conj(P), dense when n > 2
    F, n = form.tower, form.n
    while True:
        P = Mat(F, tuple(tuple(rng.randrange(F.order) for _ in range(n)) for _ in range(n)))
        J = P.T @ form.J @ P.conj()
        if P.det() and (n == 2 or monomial_rows(J) is None):
            return SesquiForm(F, form.kind, J)


@pytest.mark.parametrize(
    "form, args",
    # two standard spaces, the six survey-small groups in seeded dense
    # bases, and one sampled survey
    [
        pytest.param(symplectic_form(field_make(7), 2), {}, id="Sp2(F7)"),
        pytest.param(hermitian_form(field_make(2, 1, "quadratic"), 3), {}, id="U3(F4)"),
    ]
    + [
        pytest.param(
            _in_random_basis(std, random.Random(f"bare-factor:{label}")),
            {"beta": beta},
            id=f"dense-{label}",
        )
        for label, std, beta, _ in SURVEY_GROUPS
    ]
    + [
        pytest.param(
            symplectic_form(F5, 4), {"beta": 2, "sample": 40, "seed": 7}, id="sampled-GSp4(F5)"
        )
    ],
)
def test_survey_certificates_are_those_of_bare_factor_calls(monkeypatch, form, args):
    # a survey's factor takes the survey's beta as g's ratio; its
    # certificates and summary are those of bare factor calls, which read
    # beta off g
    grp = importlib.import_module("invofactor.groups")
    real = grp.factor
    made = []

    def kept(form, g, det_refined=False):
        made.append(real(form, g, det_refined=det_refined))
        return made[-1]

    monkeypatch.setattr(grp, "factor", kept)
    summary = survey(form, **args)
    assert summary["total"] == len(made) > 0
    cases, dets = {}, {}
    for cert in made:
        bare = real(form, cert.g)
        assert json.dumps(cert.serialize()) == json.dumps(bare.serialize())
        ver.case_histogram(bare.cases, cases)
        label = ver.det_label(form.tower, bare.h1.det())
        dets[label] = dets.get(label, 0) + 1
    assert summary["beta"] == form._as_elem(args.get("beta", 1)).serialize()
    assert summary["cases"] == dict(sorted(cases.items()))
    assert summary["dets"] == dict(sorted(dets.items()))


@pytest.mark.parametrize("label", [t[0] for t in SURVEY_GROUPS])
def test_match_ratio_agrees_with_the_whole_matrix_comparison(label):
    # on every element's Gram of each survey-small group, in a seeded dense
    # basis, against J and against the twist-1 Gram eps * conj(J); then on
    # Grams tampered at P's anchor and off it.  An alternating 2x2 Gram is
    # row-monomial in every basis, so the Sp2 groups take the pattern path
    _, std, beta, order = next(t for t in SURVEY_GROUPS if t[0] == label)
    form = _in_random_basis(std, random.Random(f"match-ratio:{label}"))
    n = form.n
    assert (monomial_rows(form.J) is None) == (n > 2)
    anti = form.J.conj() * form.eps_elem
    count = 0
    for g in group_enumerate(form, form._as_elem(beta)):
        S = form.gram(g)
        for P in (form.J, form._anti):
            tampered = [S]
            if count < 20:
                i, j = next((i, j) for i in range(n) for j in range(n) if P.rows[i][j])
                tampered += [_plus_one_at(S, i, j), _plus_one_at(S, n - 1 - i, n - 1 - j)]
            for T in tampered:
                got, want = form._match_ratio(T, P), _whole_ratio(T, P)
                assert (got is None) == (want is None) and (got is None or got == want)
        count += 1
    assert form._anti == anti and count == order
