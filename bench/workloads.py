"""The four workloads: seeded inputs and the closed loops that time them.

Every workload is one client in one thread, sending its next request only
after the previous one returned (a closed loop).  Inputs are made from the
workload seed alone; the library only ever receives the generated matrices,
forms and instance files.  See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from calibration import SpeedProbe
from common import BENCH_DIR, ROOT, Digest, canon_json, child_env
from tracing import SpanTable, Tracer, patched

# per-call wall-clock limit for one CLI child; far above any instance here
CLI_TIMEOUT_S = 120
# per-call deadline for the known-hang probe (ROADMAP item 4); the same shape
# over GF(65537) factors in about 0.15 s
PROBE_DEADLINE_S = 2.0
PROBE_SCRIPT = os.path.join(BENCH_DIR, "hang_probe.py")


class Case:
    """One factor input: a label, a space and an element of its group."""

    __slots__ = ("key", "form", "g")

    def __init__(self, key, form, g):
        self.key = key
        self.form = form
        self.g = g


class LoopStats:
    """What one closed loop measured and checked."""

    MAX_ERRORS = 5

    def __init__(self):
        self.speed = SpeedProbe()
        self.samples = []  # (element key, start, factor seconds, verify seconds)
        self.busy = []  # (start, end, seconds of measured work in between)
        self.certs = 0  # certificates produced and verified
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = 0
        self.cert_digest = Digest()  # over the first pass, in input order
        self.blocks = 0
        self.cyclic_pair_blocks = 0
        self.first_pass_certs = 0

    def fail(self, what, exc=None, key=None):
        """Count a failed operation; `key` names the input whose first-pass
        certificate is then missing, which the certificate digest records."""
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            msg = what
            if exc is not None:
                msg += ": " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.errors.append(msg)
        if key is not None and self.passes == 0:
            self.cert_digest.add({"missing": str(key)})

    def sample(self, key, t0, factor_s, verify_s, busy=True):
        self.samples.append((key, t0, factor_s, verify_s))
        if busy:
            self.busy.append((t0, t0 + factor_s + verify_s, factor_s + verify_s))
            self.certs += 1

    @property
    def elements(self):
        return len({key for key, *_ in self.samples})

    def medians(self, which, scaled=True):
        """Per-element medians in ms of the factor or verify times, scaled
        to the reference speed unless `scaled` is false.  Repeats are folded
        first, so percentiles across elements reflect the inputs rather than
        the scheduler."""
        per = {}
        for key, t0, f, v in self.samples:
            t, x = (t0, f) if which == "factor" else (t0 + f, v)
            per.setdefault(key, []).append(x * 1e3 * (self.speed.scale(t, t + x) if scaled else 1.0))
        return [statistics.median(v) for v in per.values()]

    def busy_s(self, scaled=True):
        return sum(s * (self.speed.scale(a, b) if scaled else 1.0) for a, b, s in self.busy)

    def record_cert(self, doc):
        """Digest one first-pass certificate and count its block shapes."""
        self.record_cert_text(canon_json(doc), doc)

    def record_cert_text(self, text, doc=None):
        self.cert_digest.add_text(text)
        if doc is None:
            doc = json.loads(text)
        self.first_pass_certs += 1
        for blk in doc.get("blocks", []):
            self.blocks += 1
            if blk.get("case") == "cyclic_pair":
                self.cyclic_pair_blocks += 1


# ---------------------------------------------------------------------------
# shared input construction


def make_form(inv, kind, n, p, k=1):
    if kind == "sp":
        return inv.symplectic_form(inv.field_make(p, k), n)
    if kind == "u":
        return inv.hermitian_form(inv.field_make(p, k, "quadratic"), n)
    if kind == "go+":
        return inv.orthogonal_plus_form(inv.field_make(p, k), n)
    if kind == "go-":
        return inv.orthogonal_minus_form(inv.field_make(p, k), n)
    raise ValueError(kind)


def clear_tower_cache():
    """Forget cached field towers so that each set-up builds them afresh."""
    fields = sys.modules.get("invofactor.fields")
    cache = getattr(fields, "_TOWER_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def cases_digest(cases):
    d = Digest()
    for c in cases:
        d.add([str(c.key), c.form.descriptor(), c.g.serialize()])
    return d.hexdigest()


def run_cases(inv, cases, deadline, st):
    """factor + verify_certificate on each case, pass after pass, until the
    deadline; the first pass always completes."""
    while True:
        for c in cases:
            if st.passes and time.perf_counter() >= deadline:
                return
            st.attempted += 1
            st.speed.maybe_tick()
            t0 = time.perf_counter()
            try:
                cert = inv.factor(c.form, c.g)
                t1 = time.perf_counter()
                report = inv.verify_certificate(c.form, c.g, cert)
                t2 = time.perf_counter()
            except Exception as e:  # a failed operation; keep measuring the rest
                st.fail(f"{c.key}: exception", e, key=c.key)
                continue
            if not report.passed:
                st.fail(f"{c.key}: certificate fails {report.failures()[0][0]}", key=c.key)
                continue
            st.sample(c.key, t0, t1 - t0, t2 - t1)
            if st.passes == 0:
                st.record_cert(cert.serialize())
        st.passes += 1


class Workload:
    name = ""

    def setup(self, inv, seed, workdir):
        """Build the inputs and warm up; returns a state with `.digest`."""
        raise NotImplementedError

    def loop(self, inv, state, deadline, st):
        """Untraced closed loop (end-to-end numbers)."""
        run_cases(inv, state.cases, deadline, st)

    def traced_loop(self, inv, state, deadline, st, tracer):
        """The same requests, in process, with every layer traced."""
        with patched(tracer):
            run_cases(inv, state.cases, deadline, st)

    def count_inputs(self, inv, state):
        """A few (form, g) inputs for the element-operation counting pass."""
        cases = state.cases
        step = max(1, len(cases) // 8)
        return [(c.form, c.g) for c in cases[::step]][:8]


class State:
    def __init__(self, cases, digest, **extra):
        self.cases = cases
        self.digest = digest
        self.__dict__.update(extra)


# ---------------------------------------------------------------------------
# grid-sampled: seeded group_sample elements on the ROADMAP grid

GRID = (
    # label, kind, n, p, k, beta
    ("Sp4(F3)", "sp", 4, 3, 1, 1),
    ("Sp8(F3)", "sp", 8, 3, 1, 1),
    ("Sp8(F101)", "sp", 8, 101, 1, 1),
    ("GSp8(F101),b=2", "sp", 8, 101, 1, 2),  # 2 is a non-square mod 101
    ("Sp12(F3)", "sp", 12, 3, 1, 1),
    ("U6(F49)", "u", 6, 7, 1, 1),
    ("GO8+(F7)", "go+", 8, 7, 1, 1),
    ("GO8-(F7),b=3", "go-", 8, 7, 1, 3),
    ("Sp8(F16)", "sp", 8, 2, 4, 1),
    ("U4(F64/F8)", "u", 4, 2, 3, 1),
    ("Sp6(F243)", "sp", 6, 3, 5, 1),
)
GRID_PER_GROUP = 12
GRID_BASE_SEED = "grid-base"


class GridSampled(Workload):
    """Sampled elements from a fixed base seed, conjugated by one isometry
    per space sampled from the workload seed.  Every seed gives other
    matrices in the same conjugacy classes, so the block shapes and the cost
    mix stay put: drawn afresh per seed, the p90 of 132 elements moved by
    about a quarter between seeds from the inputs alone."""

    name = "grid-sampled"

    def setup(self, inv, seed, workdir):
        cases = []
        for label, kind, n, p, k, beta in GRID:
            form = make_form(inv, kind, n, p, k)
            base = inv.group_sample(form, beta, seed=f"{GRID_BASE_SEED}:{label}", count=GRID_PER_GROUP)
            h = inv.group_sample(form, seed=f"{seed}:{label}", count=1)[0]
            h_inv = h.inv()
            cases += [Case(f"{label}#{i}", form, h @ g @ h_inv) for i, g in enumerate(base)]
        for c in cases[::GRID_PER_GROUP]:  # warm-up: one element per group
            inv.verify_certificate(c.form, c.g, inv.factor(c.form, c.g))
        return State(cases, cases_digest(cases))


# ---------------------------------------------------------------------------
# structured-largeq: repeated eigenvalues over large fields


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _blocks(a, b, c, d):
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def _matmul_int(a, b, p):
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a
    ]


def structured_shapes(kind, n, p):
    """{shape: integer rows over the prime field} for one standard space.

    J = [[0, -I], [I, 0]] (symplectic) or [[0, I], [I, 0]] (orthogonal):
    [[I, S], [0, I]] is an isometry for S symmetric, resp. alternating, and
    diag(A, A^-T) is one for any invertible A."""
    m = n // 2
    eye, zero = _identity_rows(m), [[0] * m for _ in range(m)]
    jordan = [[1 if j in (i, i + 1) else 0 for j in range(m)] for i in range(m)]
    # inverse transpose of the unipotent Jordan block: (-1)^(i-j) below the diagonal
    jordan_it = [[(-1) ** (i - j) % p if i >= j else 0 for j in range(m)] for i in range(m)]
    shapes = {
        "I": _identity_rows(n),
        "-I": [[(-x) % p for x in row] for row in _identity_rows(n)],
        "jordan": _blocks(jordan, zero, zero, jordan_it),
    }
    if kind == "sp":
        s = [[0] * m for _ in range(m)]
        s[0][0] = 1
        shapes["transvection"] = _blocks(eye, s, zero, eye)
        shapes["regular"] = _matmul_int(shapes["jordan"], _blocks(eye, eye, zero, eye), p)
    else:
        s = [[0] * m for _ in range(m)]
        s[0][m - 1], s[m - 1][0] = 1, p - 1
        shapes["siegel"] = _blocks(eye, s, zero, eye)
    return shapes


STRUCTURED = (
    # label, kind, n, p, k
    ("Sp4(F1009)", "sp", 4, 1009, 1),
    ("Sp6(F1009)", "sp", 6, 1009, 1),
    ("Sp4(F10007)", "sp", 4, 10007, 1),
    ("Sp6(F10007)", "sp", 6, 10007, 1),
    ("Sp4(F65537)", "sp", 4, 65537, 1),
    ("Sp6(F65537)", "sp", 6, 65537, 1),
    ("GO4+(F1009)", "go+", 4, 1009, 1),
    ("Sp4(F4096)", "sp", 4, 2, 12),
)
# shapes conjugated by a seeded isometry; I and -I are central, and the
# scalar shape c*I takes a seeded c (a similitude of ratio c^2)
CONJUGATED = ("transvection", "jordan", "regular", "siegel")


class StructuredLargeQ(Workload):
    name = "structured-largeq"

    def setup(self, inv, seed, workdir):
        cases = []
        warm = []
        for label, kind, n, p, k in STRUCTURED:
            form = make_form(inv, kind, n, p, k)
            F = form.tower
            rng = random.Random(f"{seed}:{label}")
            for shape, rows in structured_shapes(kind, n, p).items():
                g = inv.Mat.from_rows(F, rows)
                if shape in CONJUGATED:
                    h = inv.group_sample(form, seed=f"{seed}:{label}:{shape}", count=1)[0]
                    g = h @ g @ h.inv()
                cases.append(Case(f"{label}:{shape}", form, g))
                if shape in ("regular", "siegel"):
                    warm.append(cases[-1])
            c = F.from_int(rng.randrange(2, F.order))
            cases.append(Case(f"{label}:scalar", form, inv.Mat.identity(F, n) * c))
        for c in warm:  # warm-up: the cheapest shape of each space
            inv.verify_certificate(c.form, c.g, inv.factor(c.form, c.g))
        return State(cases, cases_digest(cases))

    def probe(self):
        """The known hang, in a child under a per-call deadline: returns the
        child's outcome record ({"outcome": "deadline" | "ok" | ...})."""
        cmd = [sys.executable, PROBE_SCRIPT, "--deadline", str(PROBE_DEADLINE_S)]
        try:
            r = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=PROBE_DEADLINE_S + 60,
            )
        except subprocess.TimeoutExpired:
            return {"outcome": "killed"}
        lines = r.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {"outcome": "error", "detail": r.stderr.strip()[-300:]}
        rec["exit_code"] = r.returncode
        return rec


# ---------------------------------------------------------------------------
# survey-small: exhaustive survey() of tiny groups over tabled fields

SURVEY = (
    # label, kind, n, p, k, beta
    ("Sp2(F7)", "sp", 2, 7, 1, 1),
    ("GSp2(F5),b=2", "sp", 2, 5, 1, 2),
    ("Sp2(F9)", "sp", 2, 3, 2, 1),
    ("Sp4(F2)", "sp", 4, 2, 1, 1),
    ("U3(F4)", "u", 3, 2, 1, 1),
    ("GO4+(F3),b=2", "go+", 4, 3, 1, 2),
)
SURVEY_WARM_UP = 1  # GSp2(F5), 120 elements


class SurveySmall(Workload):
    """Each survey() enumerates, factors and verifies a whole group.  The
    spaces carry a seeded change of basis J -> P^T J conj(P), so every seed
    gives other matrices for groups of the same shape."""

    name = "survey-small"

    def setup(self, inv, seed, workdir):
        groups = []
        d = Digest()
        for label, kind, n, p, k, beta in SURVEY:
            std = make_form(inv, kind, n, p, k)
            F = std.tower
            rng = random.Random(f"{seed}:{label}")
            while True:
                P = inv.Mat.from_rows(
                    F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(n)]
                )
                if P.det():
                    break
            form = inv.SesquiForm(F, std.kind, P.T @ std.J @ P.conj())
            groups.append((label, form, beta))
            d.add([label, form.descriptor(), beta])
        _, form, beta = groups[SURVEY_WARM_UP]
        inv.survey(form, beta=beta)  # warm-up: the smallest group
        return State([], d.hexdigest(), groups=groups)

    def loop(self, inv, state, deadline, st, tracer=None):
        # two timing taps (factor, verify_certificate) give per-element times
        # inside survey(); the traced run passes a tracer that sees every layer
        names = ("factor", "verify_certificate")
        own = tracer is None
        tracer = Tracer() if own else tracer
        captured = []

        def after_factor(cert):
            # runs between the factor and verify spans, outside both
            if st.passes == 0:
                captured.append(cert)
            st.speed.maybe_tick()

        with patched(tracer, names) if own else nullcontext():
            while True:
                for gi, (label, form, beta) in enumerate(state.groups):
                    if st.passes and time.perf_counter() >= deadline:
                        tracer.hooks.pop("factor", None)
                        return
                    first = st.passes == 0
                    tracer.hooks["factor"] = after_factor
                    mark = len(tracer)
                    st.speed.tick()
                    ticks = st.speed.spent
                    t0 = time.perf_counter()
                    try:
                        summary = inv.survey(form, beta=beta)
                    except Exception as e:
                        done = len(SpanTable(tracer, mark).roots("factor"))
                        st.attempted += max(done, 1)
                        st.fail(f"{label}: survey raised", e, key=label)
                        captured.clear()
                        continue
                    t1 = time.perf_counter()
                    st.busy.append((t0, t1, t1 - t0 - (st.speed.spent - ticks)))
                    table = SpanTable(tracer, mark)
                    fac = table.roots("factor")
                    ver = table.roots("verify_certificate")
                    st.attempted += len(fac)
                    if summary["total"] != len(fac) or len(ver) != len(fac):
                        st.fail(f"{label}: survey total {summary['total']} != {len(fac)} factor calls")
                    for j, (i, v) in enumerate(zip(fac, ver)):
                        st.sample((gi, j), table.rows[i][1], table.dur[i], table.dur[v], busy=False)
                    st.certs += summary["total"]
                    if first:
                        for cert in captured:
                            st.record_cert(cert.serialize())
                        captured.clear()
                st.passes += 1

    def traced_loop(self, inv, state, deadline, st, tracer):
        with patched(tracer):
            self.loop(inv, state, deadline, st, tracer=tracer)

    def count_inputs(self, inv, state):
        out = []
        for _, form, beta in state.groups:
            for j, g in enumerate(inv.group_enumerate(form, beta)):
                if j == 40:
                    out.append((form, g))
                    break
        return out


# ---------------------------------------------------------------------------
# cli-roundtrip: `python -m invofactor factor` then `verify`, as children

CLI = (
    # label, kind, n, p, k, beta; eight small spaces, then eight mid-size ones
    ("Sp2(F7)", "sp", 2, 7, 1, 1),
    ("Sp4(F3)", "sp", 4, 3, 1, 1),
    ("GSp4(F5),b=2", "sp", 4, 5, 1, 2),
    ("U3(F4)", "u", 3, 2, 1, 1),
    ("GO4+(F5)", "go+", 4, 5, 1, 1),
    ("GO4-(F3),b=2", "go-", 4, 3, 1, 2),
    ("Sp4(F4)", "sp", 4, 2, 2, 1),
    ("U2(F9)", "u", 2, 3, 1, 1),
    ("Sp8(F3)", "sp", 8, 3, 1, 1),
    ("Sp6(F7)", "sp", 6, 7, 1, 1),
    ("U4(F9)", "u", 4, 3, 1, 1),
    ("GO6+(F7)", "go+", 6, 7, 1, 1),
    ("GSp6(F11),b=2", "sp", 6, 11, 1, 2),
    ("Sp6(F8)", "sp", 6, 2, 3, 1),
    ("GO6-(F5),b=2", "go-", 6, 5, 1, 2),
    ("Sp8(F5)", "sp", 8, 5, 1, 1),
)


def write_cli_instances(inv, seed, workdir):
    """Seeded instance files; returns [(Case, instance path, cert path)]."""
    out = []
    for i, (label, kind, n, p, k, beta) in enumerate(CLI):
        form = make_form(inv, kind, n, p, k)
        g = inv.group_sample(form, beta, seed=f"{seed}:{label}", count=1)[0]
        doc = {
            "field": form.tower.descriptor(),
            "epsilon": form.eps,
            "gram": form.J.serialize(),
            "g": g.serialize(),
            "beta": form.similitude_ratio(g).serialize(),
        }
        path = os.path.join(workdir, f"instance-{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canon_json(doc))
        out.append((Case(label, form, g), path, os.path.join(workdir, f"cert-{i:02d}.json")))
    return out


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "invofactor", *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def cli_main_loop(inv, instances, deadline, st, suffix):
    """The same factor/verify pair through in-process cli.main."""
    cli = sys.modules["invofactor.cli"]
    sink = io.StringIO()
    while True:
        for case, path, cert in instances:
            if st.passes and time.perf_counter() >= deadline:
                return
            cert = cert + suffix
            st.attempted += 1
            sink.seek(0)
            sink.truncate()
            st.speed.maybe_tick()
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = time.perf_counter()
                rc1 = cli.main(["factor", path, "--out", cert])
                t1 = time.perf_counter()
                rc2 = cli.main(["verify", path, cert]) if rc1 == 0 else None
                t2 = time.perf_counter()
            if rc1 != 0 or rc2 != 0 or "FAIL" in sink.getvalue():
                st.fail(f"{case.key}: cli.main exit codes {rc1}, {rc2}", key=case.key)
                continue
            st.sample(case.key, t0, t1 - t0, t2 - t1)
            if st.passes == 0:
                with open(cert, encoding="utf-8") as fh:
                    st.record_cert_text(fh.read())
        st.passes += 1


class CliRoundtrip(Workload):
    name = "cli-roundtrip"

    def setup(self, inv, seed, workdir):
        instances = write_cli_instances(inv, seed, workdir)
        d = Digest()
        for _, path, _ in instances:
            with open(path, encoding="utf-8") as fh:
                d.add_text(fh.read())
        # one discarded invocation compiles the bytecode cache
        _, path, cert = instances[0]
        r = _cli(["factor", path, "--out", cert + ".warm"])
        if r.returncode != 0:
            raise RuntimeError(f"warm-up CLI call exited {r.returncode}: {r.stderr.strip()}")
        return State([c for c, _, _ in instances], d.hexdigest(), instances=instances)

    def loop(self, inv, state, deadline, st):
        while True:
            for case, path, cert in state.instances:
                if st.passes and time.perf_counter() >= deadline:
                    return
                st.attempted += 1
                st.speed.maybe_tick()
                t0 = time.perf_counter()
                try:
                    r1 = _cli(["factor", path, "--out", cert])
                    t1 = time.perf_counter()
                    r2 = _cli(["verify", path, cert]) if r1.returncode == 0 else None
                    t2 = time.perf_counter()
                except subprocess.TimeoutExpired as e:
                    st.fail(f"{case.key}: CLI child timed out", e, key=case.key)
                    continue
                if r1.returncode != 0:
                    st.fail(f"{case.key}: factor exited {r1.returncode}: {r1.stderr.strip()[-200:]}", key=case.key)
                elif r2.returncode != 0 or "FAIL" in r2.stdout:
                    st.fail(f"{case.key}: verify exited {r2.returncode}", key=case.key)
                else:
                    st.sample(case.key, t0, t1 - t0, t2 - t1)
                    if st.passes == 0:
                        with open(cert, encoding="utf-8") as fh:
                            st.record_cert_text(fh.read())
            st.passes += 1

    def traced_loop(self, inv, state, deadline, st, tracer):
        with patched(tracer):
            cli_main_loop(inv, state.instances, deadline, st, ".traced")


WORKLOADS = {w.name: w for w in (GridSampled(), SurveySmall(), StructuredLargeQ(), CliRoundtrip())}
