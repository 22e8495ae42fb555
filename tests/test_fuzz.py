"""Seeded fuzz of `invofactor verify`: instance and certificate JSON with one
or two values mutated ends in an exit code, or in one of the package's
named errors, never in another exception."""

import json
import random

import pytest

from invofactor import (
    InvofactorError,
    factor,
    field_make,
    group_sample,
    hermitian_form,
    orthogonal_minus_form,
    symplectic_form,
)
from invofactor.cli import _instance_doc, main

SPACES = {
    "Sp4(F5)": lambda: symplectic_form(field_make(5), 4),
    "U2(F9)": lambda: hermitian_form(field_make(3, 1, "quadratic"), 2),
    "GO4-(F3)": lambda: orthogonal_minus_form(field_make(3), 4),
    "Sp2(F4)": lambda: symplectic_form(field_make(2, 2), 2),
}
# what a mutation puts in place of a value: other JSON types, huge and
# negative numbers, NaN and infinity
ODD_VALUES = (
    "x", None, True, 1.5, [], {}, 0, -1, -7,
    10**30, -(10**30), 2**64 + 1, float("nan"), float("inf"),
)
MUTANTS_PER_SPACE = 100


def _paths(doc, path=()):
    # the path of every value in doc, containers included, the root excluded
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, rng):
    """One mutation in place: a value replaced by an odd one, a value
    deleted (a key, or a list entry, which makes a matrix ragged), or a
    non-empty list grown by a copy of its last entry (a longer matrix row
    or coordinate array, one more row)."""
    path = rng.choice(list(_paths(doc)))
    parent, key = _at(doc, path[:-1]), path[-1]
    how = rng.randrange(3)
    if how == 0:
        parent[key] = rng.choice(ODD_VALUES)
    elif how == 1:
        del parent[key]
    else:
        rows = [p for p in _paths(doc) if isinstance(_at(doc, p), list) and _at(doc, p)]
        row = _at(doc, rng.choice(rows))
        row.append(row[-1])


@pytest.mark.parametrize("label", sorted(SPACES))
def test_mutated_documents_get_an_exit_code_or_a_named_error(tmp_path, capsys, label):
    form = SPACES[label]()
    g = group_sample(form, seed=5)[0]
    inst_doc = _instance_doc(form, g)
    cert_doc = factor(form, g).serialize()
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    rng = random.Random(f"fuzz:{label}")
    codes = set()
    for _ in range(MUTANTS_PER_SPACE):
        docs = {"inst": json.loads(json.dumps(inst_doc)), "cert": json.loads(json.dumps(cert_doc))}
        for _ in range(rng.randint(1, 2)):
            _mutate(docs[rng.choice(sorted(docs))], rng)
        inst.write_text(json.dumps(docs["inst"]), encoding="utf-8")
        cert.write_text(json.dumps(docs["cert"]), encoding="utf-8")
        try:
            codes.add(main(["verify", str(inst), str(cert)]))
        except InvofactorError:
            codes.add("named error")
        capsys.readouterr()
    # some mutants still verify (a deleted optional key, an entry changed
    # to an equal one mod p) and most are rejected
    assert codes <= {0, 1, 2, "named error"} and {0, 2} <= codes, codes
