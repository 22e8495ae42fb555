"""Command line: interchange format, exit codes, byte-stable output."""

import io
import json
import time

import pytest

from invofactor import InputError
from invofactor.cli import _prime_power, main

SP3_INSTANCE = {
    "field": {"p": 3},
    "epsilon": -1,
    "gram": [[0, -1], [1, 0]],
    "g": [[1, 1], [0, 1]],
    "beta": 1,
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_demo_prints_a_passing_walkthrough(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "PASS h1_h2_product_is_g" in out
    assert "invofactor-cert-v1" in out
    assert "FAIL" not in out


def test_factor_verify_roundtrip(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    cert_path = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert_path]) == 0
    out = capsys.readouterr().out
    assert "beta: [1]" in out and "cases: cyclic=1" in out and "det(h1): -1" in out
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["format"] == "invofactor-cert-v1"

    report_path = str(tmp_path / "report.json")
    assert main(["verify", inst, cert_path, "--json-out", report_path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 7 and "FAIL" not in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_factor_to_stdout_is_byte_stable(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    assert main(["factor", inst]) == 0
    first = capsys.readouterr().out
    assert main(["factor", inst]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["format"] == "invofactor-cert-v1"


def test_verify_flags_tampering(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    cert_path = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert_path]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "cert.json").read_text())
    doc["h2"][0][1] = [0]
    bad_path = _write(tmp_path, "bad.json", doc)
    assert main(["verify", inst, bad_path]) == 1
    out = capsys.readouterr().out
    assert "FAIL h1_h2_product_is_g" in out and "witness" in out


def test_verify_mismatched_instance(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    cert_path = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert_path]) == 0
    capsys.readouterr()
    other = dict(SP3_INSTANCE, field={"p": 5}, g=[[1, 0], [0, 1]])
    mism = _write(tmp_path, "mism.json", other)
    assert main(["verify", mism, cert_path]) == 1
    assert "FAIL shapes_match_the_space" in capsys.readouterr().out


def test_invalid_inputs_exit_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    assert main(["factor", str(broken)]) == 2

    not_group = dict(SP3_INSTANCE, g=[[1, 1], [1, 1]])
    assert main(["factor", _write(tmp_path, "ng.json", not_group)]) == 2

    wrong_beta = dict(SP3_INSTANCE, beta=2)
    assert main(["factor", _write(tmp_path, "wb.json", wrong_beta)]) == 2

    missing = dict(SP3_INSTANCE)
    del missing["gram"]
    assert main(["factor", _write(tmp_path, "miss.json", missing)]) == 2

    assert main(["factor", str(tmp_path / "absent.json")]) == 2

    # malformed values get a named InputError, not a ValueError or TypeError
    # and not a silent reading with another meaning
    malformed = [
        dict(SP3_INSTANCE, g=[[["x"], [1]], [[0], [1]]]),
        dict(SP3_INSTANCE, beta=["x"]),
        dict(SP3_INSTANCE, field={"p": "x"}),
        dict(SP3_INSTANCE, field={"p": [3]}),
        dict(SP3_INSTANCE, field={"p": 3, "k": 1.5}),
        dict(SP3_INSTANCE, field={"p": 3, "k": 1, "ext": "trivial", "base_modulus": [0, "x"]}),
        dict(SP3_INSTANCE, field={"p": 318665857834031151167461}),
        dict(SP3_INSTANCE, g=[[True, 1], [0, 1]]),
        dict(SP3_INSTANCE, field=3),
        dict(SP3_INSTANCE, g=[]),
        dict(SP3_INSTANCE, g=[[], []]),
    ]
    capsys.readouterr()
    for i, doc in enumerate(malformed):
        assert main(["factor", _write(tmp_path, f"bad{i}.json", doc)]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, doc

    # a document that is valid JSON but not an object
    assert main(["factor", _write(tmp_path, "list.json", [1, 2])]) == 2
    assert "expected a JSON object" in capsys.readouterr().err

    # epsilon is a JSON integer: true and 1.0 on a symmetric Gram, and -1.0
    # on an alternating one, are rejected rather than read as +1 or -1
    plane = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]], "g": [[1, 0], [0, 1]]}
    bad_eps = [
        dict(plane, epsilon=True),
        dict(plane, epsilon=1.0),
        dict(SP3_INSTANCE, epsilon=-1.0),
    ]
    capsys.readouterr()
    for i, doc in enumerate(bad_eps):
        assert main(["factor", _write(tmp_path, f"eps{i}.json", doc)]) == 2, doc
        err = capsys.readouterr().err
        assert "instance: epsilon must be -1 or +1" in err and "Traceback" not in err

    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    cert_path = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert_path]) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    h1 = [list(r) for r in cert["h1"]]
    h1[0][0] = ["x"]
    bad_certs = [
        dict(cert, h1=h1),
        dict(cert, beta=["x"]),
        dict(cert, beta=5),
        dict(cert, form=3),
        dict(cert, blocks=3),
        dict(cert, det_refined="no"),
    ]
    for i, doc in enumerate(bad_certs):
        assert main(["verify", inst, _write(tmp_path, f"badcert{i}.json", doc)]) == 2, doc
    capsys.readouterr()


def test_refined_obstruction_exits_one(tmp_path, capsys):
    doc = {
        "field": {"p": 3},
        "epsilon": 1,
        "gram": [[0, 1], [1, 0]],
        "g": [[0, 1], [2, 0]],
    }
    inst = _write(tmp_path, "obst.json", doc)
    assert main(["factor", inst, "--refined", "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "determinant" in err


def test_verify_refined_checks_the_determinant_sign(tmp_path, capsys):
    # the identity on the hyperbolic plane over GF(3): the plain certificate
    # has det(h1) = +1, the refined one the required (-1)^(2/2) = -1
    doc = {
        "field": {"p": 3},
        "epsilon": 1,
        "gram": [[0, 1], [1, 0]],
        "g": [[1, 0], [0, 1]],
    }
    inst = _write(tmp_path, "id.json", doc)
    plain = str(tmp_path / "plain.json")
    refined = str(tmp_path / "refined.json")
    assert main(["factor", inst, "--out", plain]) == 0
    assert "det(h1): +1" in capsys.readouterr().out
    assert main(["verify", inst, plain]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "h1_det_sign" not in out
    assert main(["verify", inst, plain, "--refined"]) == 1
    out = capsys.readouterr().out
    assert "FAIL h1_det_sign" in out
    assert main(["factor", inst, "--refined", "--out", refined]) == 0
    capsys.readouterr()
    assert main(["verify", inst, refined, "--refined"]) == 0
    assert "PASS h1_det_sign" in capsys.readouterr().out


def test_refinement_outside_its_scope(tmp_path, capsys):
    # Sp4(F5): verify --refined fails h1_det_sign naming the space, and
    # factor --refined is rejected as bad input
    doc = {
        "field": {"p": 5},
        "epsilon": -1,
        "gram": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
        "g": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 4, 1]],
    }
    inst = _write(tmp_path, "sp4.json", doc)
    cert = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert]) == 0
    capsys.readouterr()
    assert main(["verify", inst, cert, "--refined"]) == 1
    out = capsys.readouterr().out
    assert "FAIL h1_det_sign" in out and '"kind": "symplectic", "n": 4' in out
    assert main(["factor", inst, "--refined", "--out", cert]) == 2
    assert "symplectic of dimension 4" in capsys.readouterr().err


def test_survey_cli_reports_and_is_byte_stable(tmp_path, capsys):
    out_path = tmp_path / "summary.json"
    argv = [
        "survey", "--kind", "sp", "--n", "2", "--q", "3",
        "--exhaustive", "--json-out", str(out_path),
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "total: 24" in text and "failures: 0" in text
    first = out_path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first
    assert json.loads(first)["total"] == 24
    # the unitary and split orthogonal kinds, with their group orders
    for kind, n, total in (("u", 1, 4), ("u", 2, 96), ("go-plus", 2, 4)):
        assert main(["survey", "--kind", kind, "--n", str(n), "--q", "3", "--exhaustive"]) == 0
        text = capsys.readouterr().out
        assert f"total: {total}" in text and "failures: 0" in text, (kind, n)


def test_survey_sampled_and_guards(tmp_path, capsys):
    argv = [
        "survey", "--kind", "go-minus", "--n", "2", "--q", "5",
        "--beta", "2", "--sample", "10", "--seed", "4",
    ]
    assert main(argv) == 0
    assert "total: 10" in capsys.readouterr().out

    assert main(["survey", "--kind", "sp", "--n", "2", "--q", "3", "--sample", "5"]) == 2
    assert main(["survey", "--kind", "sp", "--n", "2", "--q", "3",
                 "--exhaustive", "--budget", "10"]) == 2
    assert main(["survey", "--kind", "sp", "--n", "2", "--q", "6", "--exhaustive"]) == 2
    assert main(["survey", "--kind", "sp", "--n", "3", "--q", "3", "--exhaustive"]) == 2
    capsys.readouterr()
    # a strong pseudoprime to every prime base up to 37
    assert main(["survey", "--kind", "sp", "--n", "2", "--q", "318665857834031151167461",
                 "--sample", "1", "--seed", "0"]) == 2
    assert "prime power" in capsys.readouterr().err


def test_survey_prints_the_beta_it_surveyed(tmp_path, capsys):
    # --beta is read as a GF(p) scalar: 5 and -1 survey beta = 2 over GF(9)
    # and GF(3), and the group line says so, as the JSON summary does
    for kind, beta in (("u", "5"), ("u", "-1"), ("go-plus", "5")):
        out_path = tmp_path / f"{kind}{beta}.json"
        argv = ["survey", "--kind", kind, "--n", "2", "--q", "3", "--beta", beta,
                "--exhaustive", "--json-out", str(out_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"group: {kind} n=2 q=3 beta=2"
        assert json.loads(out_path.read_bytes())["beta"][0] == 2


def test_survey_with_a_negative_sample_count_exits_two(capsys):
    argv = ["survey", "--kind", "sp", "--n", "2", "--q", "3", "--sample", "-1", "--seed", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "count" in err
    assert "total:" not in out and "Traceback" not in err


def test_survey_over_a_large_prime_field_parses_q_quickly(capsys):
    # q = 2^31 - 1 is prime: reading it as a prime power must stop trial
    # division at sqrt(q) instead of trying every divisor up to q
    t0 = time.perf_counter()
    assert main(["survey", "--kind", "sp", "--n", "4", "--q", str(2**31 - 1),
                 "--sample", "3", "--seed", "0"]) == 0
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr().out
    assert "total: 3" in out and "failures: 0" in out


def test_prime_power_parsing():
    assert _prime_power(3**5) == (3, 5)
    assert _prime_power(65537**2) == (65537, 2)
    assert _prime_power(2**31 - 1) == (2**31 - 1, 1)
    # large p^k: one exact k-th root per k, no trial division up to p
    t0 = time.perf_counter()
    assert _prime_power(10000019**2) == (10000019, 2)
    assert _prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert _prime_power(2**40) == (2, 40)
    assert time.perf_counter() - t0 < 0.5
    for q in (1, 12, 36, 3 * 65537, 3 * 2**40):
        with pytest.raises(InputError):
            _prime_power(q)


def test_enumerate_counts_the_group(tmp_path, capsys):
    out_path = tmp_path / "els.json"
    assert main(["enumerate", "--kind", "sp", "--n", "2", "--q", "2",
                 "--json-out", str(out_path)]) == 0
    assert "count: 6" in capsys.readouterr().out
    assert len(json.loads(out_path.read_text())) == 6


def test_enumerate_without_json_out_prints_the_list(capsys):
    # the element list goes to stdout and the count to stderr
    assert main(["enumerate", "--kind", "sp", "--n", "2", "--q", "2"]) == 0
    out, err = capsys.readouterr()
    assert len(json.loads(out)) == 6
    assert err == "count: 6\n"


def test_json_sent_to_stdout_is_alone_there(tmp_path, capsys):
    # with - as the JSON path, stdout is exactly one JSON document and the
    # human lines go to stderr; before, factor and enumerate appended their
    # summary to it and verify and survey printed theirs in front
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    cert = str(tmp_path / "cert.json")
    assert main(["factor", inst, "--out", cert]) == 0
    capsys.readouterr()
    survey = ["survey", "--kind", "sp", "--n", "2", "--q", "3", "--exhaustive"]
    enum = ["enumerate", "--kind", "sp", "--n", "2", "--q", "2"]
    cases = [
        (["factor", inst, "--out", "-"], "det(h1): -1", lambda d: d["format"]),
        (["verify", inst, cert, "--json-out", "-"], "PASS h1_involution", lambda d: d["passed"]),
        (survey + ["--json-out", "-"], "total: 24", lambda d: d["total"] == 24),
        (enum + ["--json-out", "-"], "count: 6", lambda d: len(d) == 6),
    ]
    for argv, human, check in cases:
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert check(json.loads(out)), argv
        assert human in err and human not in out, argv
    # the file targets keep the human lines on stdout
    assert main(survey + ["--json-out", str(tmp_path / "s.json")]) == 0
    assert "total: 24" in capsys.readouterr().out


def test_factor_reads_the_instance_from_stdin(tmp_path, monkeypatch, capsys):
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    assert main(["factor", inst]) == 0
    want = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SP3_INSTANCE)))
    assert main(["factor", "-"]) == 0
    assert capsys.readouterr() == want


def test_unwritable_output_exits_two(tmp_path, capsys):
    # the certificate's directory does not exist: open() raises OSError
    inst = _write(tmp_path, "inst.json", SP3_INSTANCE)
    missing = tmp_path / "missing" / "c.json"
    assert main(["factor", inst, "--out", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err and not out
    assert not missing.parent.exists()


def test_unknown_kind_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["survey", "--kind", "nope", "--n", "2", "--q", "3", "--exhaustive"])
    assert info.value.code == 2
    capsys.readouterr()
    # no subcommand: the usage goes to stderr
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage: invofactor") and not out


def test_instance_with_coordinate_arrays(tmp_path, capsys):
    # hermitian instance over GF(9)/GF(3): entries as coordinate arrays
    doc = {
        "field": {"p": 3, "k": 1, "ext": "quadratic"},
        "epsilon": 1,
        "gram": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "g": [[[0, 1], [0, 0]], [[0, 0], [0, 2]]],
    }
    inst = _write(tmp_path, "herm.json", doc)
    assert main(["factor", inst, "--out", str(tmp_path / "c.json")]) == 0
    assert "det(h1): +1" in capsys.readouterr().out
    cert = json.loads((tmp_path / "c.json").read_text())
    assert cert["form"]["kind"] == "hermitian"
