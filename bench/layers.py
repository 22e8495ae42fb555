"""Per-layer numbers: fixed microbenchmarks of the fields, linalg, forms and
cli layers, the FieldElem operation count, and the metrics derived from the
spans of a traced loop."""

from __future__ import annotations

import functools
import random
import statistics
import subprocess
import sys
import time

from common import ROOT, child_env
from tracing import SpanTable

# tower classes: tabled fields (order <= 64) use lookup tables for + - * and
# negation; the others run the generic kernels
FIELD_CLASSES = (
    # class, p, k, ext
    ("prime-tab", 7, 1, "trivial"),
    ("prime", 101, 1, "trivial"),
    ("ext-tab", 2, 4, "trivial"),
    ("ext", 3, 5, "trivial"),
    ("quad-tab", 7, 1, "quadratic"),
    ("quad", 101, 1, "quadratic"),
)
MICRO_SEED = "layers"


def _median_time(fn, repeats):
    """Median seconds of `repeats` timed calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rand_nonzero(F, rng):
    return F.from_int(rng.randrange(1, F.order))


def _rand_invertible(inv, F, n, rng):
    while True:
        M = inv.Mat.from_rows(F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(n)])
        if M.det():
            return M


def field_metrics(inv):
    out = {}
    fields_mod = sys.modules["invofactor.fields"]
    rng = random.Random(MICRO_SEED)
    for cls, p, k, ext in FIELD_CLASSES:
        F = inv.field_make(p, k, ext)
        xs = [_rand_nonzero(F, rng) for _ in range(500)]
        ys = [_rand_nonzero(F, rng) for _ in range(500)]
        pairs = list(zip(xs, ys))

        def mul():
            for a, b in pairs:
                a * b

        def invert():
            for a in xs:
                a.inv()

        invert()  # the tower memoises inverses; time the warm path users see
        out[f"fields.mul_ns.{cls}"] = _median_time(mul, 7) / len(pairs) * 1e9
        out[f"fields.inv_ns.{cls}"] = _median_time(invert, 7) / len(xs) * 1e9
        build = functools.partial(fields_mod.FieldTower, p, k, ext)
        out[f"fields.tower_build_ms.{cls}"] = _median_time(build, 5) * 1e3
    return out


def linalg_metrics(inv):
    out = {}
    rng = random.Random(MICRO_SEED)
    for cls, p, k, ext in FIELD_CLASSES:
        F = inv.field_make(p, k, ext)
        A = _rand_invertible(inv, F, 8, rng)
        B = _rand_invertible(inv, F, 8, rng)
        out[f"linalg.matmul8_us.{cls}"] = _median_time(lambda: A @ B, 9) * 1e6
        out[f"linalg.inv8_us.{cls}"] = _median_time(A.inv, 9) * 1e6
        out[f"linalg.det8_us.{cls}"] = _median_time(A.det, 9) * 1e6
    return out


def forms_metrics(inv):
    F = inv.field_make(5)
    form = inv.symplectic_form(F, 2)
    count = [0]

    def enumerate_all():
        count[0] = sum(1 for _ in inv.group_enumerate(form))

    t_enum = _median_time(enumerate_all, 3)
    sform = inv.symplectic_form(inv.field_make(101), 8)
    t_sample = _median_time(lambda: inv.group_sample(sform, seed=MICRO_SEED, count=4), 3)
    return {
        "forms.enumerate_us_per_elem": t_enum / count[0] * 1e6,
        "forms.sample_ms_per_elem": t_sample / 4 * 1e3,
    }


def cli_start_metrics():
    def run(code):
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=60)

    interp = _median_time(lambda: run("pass"), 5)
    imported = _median_time(lambda: run("import invofactor.cli"), 5)
    return {"cli.interp_ms": interp * 1e3, "cli.import_ms": (imported - interp) * 1e3}


# ---------------------------------------------------------------------------
# FieldElem operation count (its own pass: the counters are not free)

_ELEM_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inv", "conj",
)


def elem_ops_per_factor(inv, inputs):
    cls = getattr(sys.modules["invofactor.fields"], "FieldElem", None)
    if cls is None or not inputs:
        return 0.0
    count = [0]
    saved = []

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    try:
        for name in _ELEM_OPS:
            fn = vars(cls).get(name)
            if fn is not None:
                saved.append((name, fn))
                setattr(cls, name, counting(fn))
        for form, g in inputs:
            inv.factor(form, g)
    finally:
        for name, fn in saved:
            setattr(cls, name, fn)
    return count[0] / len(inputs)


# ---------------------------------------------------------------------------
# metrics from the spans of a traced loop

MAT = ("Mat.inv", "Mat.solve_right", "Mat.right_kernel_basis", "Mat.det", "Mat.__matmul__")


def span_metrics(tracer):
    t = SpanTable(tracer)
    roots = t.roots("factor")
    n_fac = len(roots)
    fac_time = sum(t.dur[i] for i in roots)
    by_name = {}
    for i in t.under("factor"):
        by_name.setdefault(t.rows[i][0], []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name, col):
        return sum(col[i] for i in by_name.get(name, ()))

    verifies = [i for i, row in enumerate(t.rows) if row[0] == "verify_certificate"]
    checks = sum(1 for row in t.rows if row[0] == "core_checks") + len(verifies)
    factorize_s = total("factorize", t.dur)
    n = max(n_fac, 1)
    return {
        "linalg.self_share": sum(total(m, t.self_time) for m in MAT) / fac_time if fac_time else 0.0,
        "linalg.inv.calls_per_factor": count("Mat.inv") / n,
        "linalg.solve.calls_per_factor": count("Mat.solve_right") / n,
        "poly.factorize.calls_per_factor": count("factorize") / n,
        "poly.factorize.ms_per_factor": factorize_s / n * 1e3,
        "poly.irreducible_check.share": total("is_irreducible_poly", t.dur) / factorize_s if factorize_s else 0.0,
        "decomp.minpoly.calls_per_factor": count("minimal_polynomial") / n,
        "decomp.minpoly.ms_per_factor": total("minimal_polynomial", t.dur) / n * 1e3,
        "decomp.krylov.calls_per_factor": count("krylov_span") / n,
        "decomp.frobenius.ms_per_factor": total("frobenius_form", t.dur) / n * 1e3,
        "factor.self_ms_per_factor": sum(t.self_time[i] for i in roots) / n * 1e3,
        "factor.selfcheck_ms_per_factor": total("core_checks", t.dur) / n * 1e3,
        "factor.symconj_ms_per_factor": total("symmetric_conjugator", t.dur) / n * 1e3,
        "verify.ms_per_cert": sum(t.dur[i] for i in verifies) / max(len(verifies), 1) * 1e3,
        "verify.checks_per_cert": checks / n,
        "forms.similitude_ratio.calls_per_factor": count("SesquiForm.similitude_ratio") / n,
    }
