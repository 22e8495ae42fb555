"""Fixed-seed benchmark of invofactor: one workload per run.

    python3 bench/run.py --workload grid-sampled --seed 1 --seconds 20 --trace 0

Run from any directory; the library is imported from this checkout's src/.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it also
runs the workload once more with every layer traced and prints the per-layer
metrics instead.  Human-readable lines come first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Spans and a full result record go to .bench_out/ in the checkout.  See
bench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import layers
from calibration import SpeedProbe
from common import BENCH_DIR, OUT_DIR, ROOT, BenchSetupError, environment, import_library, p50, p90
from tracing import Tracer
from workloads import WORKLOADS, LoopStats, StructuredLargeQ, clear_tower_cache, cli_main_loop, write_cli_instances

SETUP_REPEATS = 3
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

END_TO_END = {
    "factor_ms.p50": "ms",
    "factor_ms.p90": "ms",
    "verify_ms.p50": "ms",
    "certs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CLASSES = [c for c, *_ in layers.FIELD_CLASSES]
PER_LAYER = {
    **{f"fields.mul_ns.{c}": "ns" for c in _CLASSES},
    **{f"fields.inv_ns.{c}": "ns" for c in _CLASSES},
    **{f"fields.tower_build_ms.{c}": "ms" for c in _CLASSES},
    "fields.elem_ops_per_factor": "count",
    **{f"linalg.matmul8_us.{c}": "us" for c in _CLASSES},
    **{f"linalg.inv8_us.{c}": "us" for c in _CLASSES},
    **{f"linalg.det8_us.{c}": "us" for c in _CLASSES},
    "linalg.self_share": "ratio",
    "linalg.inv.calls_per_factor": "count",
    "linalg.solve.calls_per_factor": "count",
    "poly.factorize.calls_per_factor": "count",
    "poly.factorize.ms_per_factor": "ms",
    "poly.irreducible_check.share": "ratio",
    "decomp.minpoly.calls_per_factor": "count",
    "decomp.minpoly.ms_per_factor": "ms",
    "decomp.krylov.calls_per_factor": "count",
    "decomp.frobenius.ms_per_factor": "ms",
    "factor.self_ms_per_factor": "ms",
    "factor.selfcheck_ms_per_factor": "ms",
    "factor.symconj_ms_per_factor": "ms",
    "factor.blocks_per_cert": "count",
    "factor.cyclic_pair_share": "ratio",
    "factor.probe_deadline_misses": "count",
    "verify.ms_per_cert": "ms",
    "verify.checks_per_cert": "count",
    "forms.enumerate_us_per_elem": "us",
    "forms.sample_ms_per_elem": "ms",
    "forms.similitude_ratio.calls_per_factor": "count",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_factor_ms.p50": "ms",
    "cli.main_verify_ms.p50": "ms",
    "trace.overhead_ms": "ms",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _recorded_digests(workload, seed):
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def setup_repeated(inv, wl, seed, workdir):
    """SETUP_REPEATS cold set-ups (towers rebuilt each time); returns the
    last state, the raw and the speed-scaled set-up times, and whether the
    inputs were identical."""
    raw, scaled, digests = [], [], set()
    speed = SpeedProbe()
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous inputs before building new ones
        clear_tower_cache()
        gc.collect()
        for _ in range(3):
            speed.tick()
        t0 = time.perf_counter()
        state = wl.setup(inv, seed, workdir)
        t1 = time.perf_counter()
        for _ in range(3):
            speed.tick()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale(t0, t1))
        digests.add(state.digest)
    return state, raw, scaled, len(digests) == 1


def _fold_failures(into, st, what):
    if st.failed:
        into.fail(f"{what}: {st.failed} failed, first: {st.errors[0]}")


def traced_metrics(inv, wl, state, seed, seconds, workdir, untraced, probe_missed, spans_path):
    """Per-layer metrics: microbenchmarks, the element-operation count, and
    a traced rerun of the workload's requests."""
    m = {}
    m.update(layers.field_metrics(inv))
    m.update(layers.linalg_metrics(inv))
    m.update(layers.forms_metrics(inv))
    m.update(layers.cli_start_metrics())
    instances = getattr(state, "instances", None) or write_cli_instances(inv, seed, workdir)
    cli_st = LoopStats()
    cli_main_loop(inv, instances, time.perf_counter() + 1.0, cli_st, ".inproc")
    _fold_failures(untraced, cli_st, "in-process cli.main")
    m["cli.main_factor_ms.p50"] = p50(cli_st.medians("factor"))
    m["cli.main_verify_ms.p50"] = p50(cli_st.medians("verify"))
    m["fields.elem_ops_per_factor"] = layers.elem_ops_per_factor(inv, wl.count_inputs(inv, state))

    tracer = Tracer()
    st = LoopStats()
    wl.traced_loop(inv, state, time.perf_counter() + seconds, st, tracer)
    _fold_failures(untraced, st, "traced loop")
    if st.cert_digest.hexdigest() != untraced.cert_digest.hexdigest():
        untraced.fail("certificates from the traced loop differ from the untraced ones")
    m.update(layers.span_metrics(tracer))
    base = cli_st if wl.name == "cli-roundtrip" else untraced
    m["trace.overhead_ms"] = p50(st.medians("factor")) - p50(base.medians("factor"))
    m["factor.blocks_per_cert"] = untraced.blocks / max(untraced.first_pass_certs, 1)
    m["factor.cyclic_pair_share"] = untraced.cyclic_pair_blocks / max(untraced.blocks, 1)
    m["factor.probe_deadline_misses"] = float(probe_missed)
    tracer.dump(spans_path)
    return m, len(tracer)


def main(argv=None):
    args = _parse_args(argv)
    try:
        inv = import_library()
    except (BenchSetupError, ImportError) as e:
        print(f"error: cannot import the library: {e}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        return _run(inv, wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(inv, wl, args, workdir):
    env = environment()
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")

    state, setup_raw, setup_times, inputs_stable = setup_repeated(inv, wl, args.seed, workdir)
    st = LoopStats()
    t0 = time.perf_counter()
    wl.loop(inv, state, t0 + args.seconds, st)
    loop_wall = time.perf_counter() - t0
    if not inputs_stable:
        st.fail("set-up is not deterministic: input digests differ between repeats")

    # correctness gate: recorded digests of this seed's inputs and certificates
    recorded = _recorded_digests(wl.name, args.seed)
    cert_digest = st.cert_digest.hexdigest()
    if recorded is None:
        digest_note = "not recorded for this seed"
    else:
        bad = [k for k, v in (("inputs", state.digest), ("certs", cert_digest)) if recorded.get(k) != v]
        for k in bad:
            st.fail(f"{k} digest differs from bench/digests.json for seed {args.seed}")
        digest_note = "match" if not bad else "MISMATCH: " + ", ".join(bad)

    probe = None
    probe_missed = 0
    if isinstance(wl, StructuredLargeQ):
        probe = wl.probe()
        if probe["outcome"] in ("deadline", "memory"):
            probe_missed = 1  # the known hang (ROADMAP item 4): reported, not hidden
        elif probe["outcome"] == "ok":
            st.attempted += 1
        else:
            st.attempted += 1
            st.fail(f"known-hang probe: {probe}")

    def end_to_end(scaled):
        fac, ver, busy = st.medians("factor", scaled), st.medians("verify", scaled), st.busy_s(scaled)
        return {
            "factor_ms.p50": p50(fac),
            "factor_ms.p90": p90(fac),
            "verify_ms.p50": p50(ver),
            "certs_per_s": st.certs / busy if busy else 0.0,
            "setup_s": p50(setup_times if scaled else setup_raw),
            "peak_rss_mb": _peak_rss_mb(children=wl.name == "cli-roundtrip"),
        }

    raw = end_to_end(scaled=False)
    if args.trace == 0:
        metrics = end_to_end(scaled=True)
        units = END_TO_END
        n_spans = 0
    else:
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json.gz")
        metrics, n_spans = traced_metrics(
            inv, wl, state, args.seed, args.seconds, workdir, st, probe_missed, spans_path
        )
        units = PER_LAYER
        print(f"# spans: {n_spans} written to {os.path.relpath(spans_path, ROOT)}")

    # failed_ratio counts the known-hang probe; the result line's "failed" does not
    failed_ops = st.failed + probe_missed
    failed_ratio = failed_ops / (st.attempted + probe_missed)
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    print("# unscaled wall clock: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(
        f"# elements={st.elements} calls={st.attempted} passes={st.passes} "
        f"loop_s={loop_wall:.3f} busy_s={st.busy_s(False):.3f} setup_s={[round(t, 3) for t in setup_raw]} "
        f"speed_ticks={len(st.speed.took)}"
    )
    print(f"# failed_ratio={failed_ratio:.6g} ({failed_ops} of {st.attempted + probe_missed} operations)")
    if probe is not None:
        print(f"# known-hang probe Sp4(GF(2^31-1)) transvection: {json.dumps(probe, sort_keys=True)}")
    print(f"# digests: inputs={state.digest[:16]} certs={cert_digest[:16]} recorded: {digest_note}")
    for err in st.errors:
        print(f"# FAILED: {err}")

    correct = st.failed == 0
    result = {
        "correct": correct,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "result": result,
        "failed_ratio": failed_ratio,
        "known_hang_probe": probe,
        "digests": {"inputs": state.digest, "certs": cert_digest, "recorded": digest_note},
        "setup_s": {"raw": setup_raw, "scaled": setup_times},
        "unscaled": raw,
        "errors": st.errors,
    }
    out = os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
