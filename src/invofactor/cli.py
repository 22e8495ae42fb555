"""Command-line front end: factor / verify / survey / enumerate / demo.

Instances and certificates travel as JSON documents.  An instance is

    {"field":   {"p": 3, "k": 1, "ext": "trivial"},   # or a full descriptor
     "epsilon": -1,                                   # -1 alternating, +1 symmetric/hermitian
     "gram":    [[0, -1], [1, 0]],                    # entries: ints or coordinate arrays
     "g":       [[1, 1], [0, 1]],
     "beta":    1}                                    # optional; checked against g

The form kind is inferred: epsilon -1 is symplectic, epsilon +1 is hermitian
over a quadratic tower and orthogonal otherwise.  All JSON output is
canonical (sorted keys, two-space indent, trailing newline) so identical
runs produce byte-identical files.

Exit codes: 0 success, 1 verification or internal-invariant failure,
2 invalid input or exceeded budget.

Each handler imports what it alone runs: `verify` loads no construction
code, and only `survey` and `enumerate` load the group enumerators.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceededError,
    DetRefinementError,
    InputError,
    InternalInvariantError,
    VerificationError,
)
from .factor import factor
from .fields import _is_prime, field_from_descriptor, field_make
from .forms import (
    SesquiForm,
    hermitian_form,
    orthogonal_minus_form,
    orthogonal_plus_form,
    symplectic_form,
)
from .linalg import Mat
from .verify import case_histogram, cert_from_serialized, det_label, verify_certificate


def _canon_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_doc(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _human(path):
    # the stream for human-readable lines: stderr when the JSON goes to
    # stdout, so that stdout holds one JSON document
    return sys.stderr if path == "-" else sys.stdout


def _elem(tower, v, what):
    if isinstance(v, bool) or not isinstance(v, (int, list)):
        raise InputError(f"{what}: entries must be integers or coordinate arrays")
    if isinstance(v, int):
        return tower.scalar(v)
    return tower.elem(v)


def _matrix(tower, data, what):
    if (
        not isinstance(data, list)
        or not data
        or not all(isinstance(r, list) and r for r in data)
    ):
        raise InputError(f"{what}: expected a non-empty array of non-empty rows")
    return Mat.from_rows(
        tower, [[_elem(tower, v, what) for v in row] for row in data]
    )


def _field_from_doc(d):
    if not isinstance(d, dict) or "p" not in d:
        raise InputError("field: expected an object with at least a prime 'p'")
    if "base_modulus" in d:
        return field_from_descriptor(d)
    return field_make(d["p"], d.get("k", 1), d.get("ext", "trivial"))


def _parse_instance(doc):
    for key in ("field", "epsilon", "gram", "g"):
        if key not in doc:
            raise InputError(f"instance: missing field {key!r}")
    tower = _field_from_doc(doc["field"])
    eps = doc["epsilon"]
    # a JSON integer: true and 1.0 compare equal to 1 but are not one
    if type(eps) is not int or eps not in (-1, 1):
        raise InputError("instance: epsilon must be -1 or +1")
    if eps == -1:
        kind = "symplectic"
    elif tower.has_conj:
        kind = "hermitian"
    else:
        kind = "orthogonal"
    J = _matrix(tower, doc["gram"], "gram")
    form = SesquiForm(tower, kind, J)
    g = _matrix(tower, doc["g"], "g")
    beta = form.similitude_ratio(g)
    if "beta" in doc:
        declared = _elem(tower, doc["beta"], "beta")
        if declared != beta:
            raise InputError(
                f"instance: declared beta {doc['beta']!r} does not match the "
                f"element's multiplier {beta.serialize()!r}"
            )
    return form, g, beta


def _histogram_line(h):
    return ", ".join(f"{k}={v}" for k, v in sorted(h.items())) or "(none)"


# ---------------------------------------------------------------------------
# standard spaces by shorthand

_KINDS = ("sp", "u", "go-plus", "go-minus")


def _iroot(q, k):
    # the integer k-th root floor(q^(1/k)), by Newton's method from above
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(q):
    if q < 2:
        raise InputError(f"q must be a prime power >= 2, got {q}")
    # q = r^k with r prime has k <= log2 q; each k needs one exact k-th root
    for k in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r**k == q and _is_prime(r):
            return r, k
    raise InputError("q must be a prime power")


def _standard_form(kind, n, q):
    p, k = _prime_power(q)
    if kind == "sp":
        return symplectic_form(field_make(p, k), n)
    if kind == "u":
        return hermitian_form(field_make(p, k, "quadratic"), n)
    if kind == "go-plus":
        return orthogonal_plus_form(field_make(p, k), n)
    return orthogonal_minus_form(field_make(p, k), n)


def _instance_doc(form, g):
    return {
        "field": form.tower.descriptor(),
        "epsilon": form.eps,
        "gram": form.J.serialize(),
        "g": g.serialize(),
        "beta": form.similitude_ratio(g).serialize(),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_factor(args):
    form, g, beta = _parse_instance(_read_doc(args.instance))
    cert = factor(form, g, det_refined=args.refined)
    text = _canon_json(cert.serialize())
    summary = [
        f"beta: {beta.serialize()}",
        f"cases: {_histogram_line(case_histogram(cert.cases))}",
        f"det(h1): {det_label(form.tower, cert.h1.det())}",
    ]
    out = args.out or "-"
    _write_text(out, text)
    print("\n".join(summary), file=_human(out))
    return 0


def _cmd_verify(args):
    form, g, _ = _parse_instance(_read_doc(args.instance))
    cert = cert_from_serialized(_read_doc(args.cert))
    report = verify_certificate(form, g, cert, det_refined=True if args.refined else None)
    human = _human(args.json_out)
    for name, ok, wit in report.checks:
        print(("PASS " if ok else "FAIL ") + name, file=human)
        if not ok:
            print(f"  witness: {json.dumps(wit, sort_keys=True)}", file=human)
    if args.json_out:
        _write_text(args.json_out, _canon_json(report.serialize()))
    return 0 if report.passed else 1


def _cmd_survey(args):
    from .groups import survey

    if args.sample is not None and args.seed is None:
        raise InputError("--sample requires --seed")
    form = _standard_form(args.kind, args.n, args.q)
    summary = survey(
        form,
        beta=args.beta,
        sample=args.sample,
        seed=0 if args.seed is None else args.seed,
        refined=args.refined,
        budget=args.budget,
    )
    mode = summary["mode"]
    if not isinstance(mode, str):
        mode = f"sample={mode['sample']} seed={mode['seed']}"
    lines = [
        f"group: {args.kind} n={args.n} q={args.q} beta={args.beta % form.tower.p}",
        f"mode: {mode}",
        f"total: {summary['total']}",
        f"cases: {_histogram_line(summary['cases'])}",
        f"dets: {_histogram_line(summary['dets'])}",
        f"failures: {summary['failures']}",
    ]
    print("\n".join(lines), file=_human(args.json_out))
    if args.json_out:
        _write_text(args.json_out, _canon_json(summary))
    return 0


def _cmd_enumerate(args):
    from .groups import group_enumerate

    form = _standard_form(args.kind, args.n, args.q)
    mats = [g.serialize() for g in group_enumerate(form, args.beta, budget=args.budget)]
    out = args.json_out or "-"
    _write_text(out, _canon_json(mats))
    print(f"count: {len(mats)}", file=_human(out))
    return 0


def _cmd_demo(args):
    F3 = field_make(3)
    form = symplectic_form(F3, 2)
    g = _matrix(F3, [[1, 1], [0, 1]], "demo g")
    print("# instance: the transvection [[1,1],[0,1]] on the symplectic plane over GF(3)")
    sys.stdout.write(_canon_json(_instance_doc(form, g)))
    cert = factor(form, g)
    print("# certificate: g = h1 * h2 with h1 a twist-1 involution and h2^2 = beta")
    sys.stdout.write(_canon_json(cert.serialize()))
    print("# checks")
    report = verify_certificate(form, g, cert)
    for name, ok, _ in report.checks:
        print(("PASS " if ok else "FAIL ") + name)
    return 0 if report.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="invofactor",
        description="Factor classical-group similitudes into two anti-unitary pieces.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("factor", help="factor one instance into a certificate")
    p.add_argument("instance", help="instance JSON path, or - for stdin")
    p.add_argument("--refined", action="store_true", help="force det(h1) = (-1)^(n/2)")
    p.add_argument("--out", help="write the certificate here (- or none: stdout)")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="re-check a certificate against an instance")
    p.add_argument("instance", help="instance JSON path, or - for stdin")
    p.add_argument("cert", help="certificate JSON path")
    p.add_argument(
        "--refined", action="store_true", help="also require det(h1) = (-1)^(n/2)"
    )
    p.add_argument("--json-out", help="also write the check report as JSON (- for stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="factor + verify a whole group or a sample")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--beta", type=int, default=1)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--sample", type=int, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--refined", action="store_true")
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--json-out", help="write the summary as JSON (- for stdout)")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("enumerate", help="dump every similitude of the given ratio")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--json-out", help="write the element list here (- or none: stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("demo", help="emit a worked 2x2 symplectic example")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DetRefinementError, InternalInvariantError, VerificationError) as e:
        print(f"error: {e}", file=sys.stderr)
        if e.context:
            sys.stderr.write(_canon_json(e.context))
        return 1
    except (BudgetExceededError, InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
