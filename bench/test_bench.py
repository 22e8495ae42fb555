"""Tests of the benchmark itself (not collected by the library's test suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, import_library  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import ALL_NAMES, SpanTable, Tracer, _library_modules, patched  # noqa: E402
from workloads import WORKLOADS, LoopStats, clear_tower_cache, run_cases  # noqa: E402

inv = import_library()


def _setup(name, seed, workdir):
    clear_tower_cache()
    workdir.mkdir(exist_ok=True)
    return WORKLOADS[name].setup(inv, seed, str(workdir))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    first = _setup(name, 3, tmp_path / "first").digest
    again = _setup(name, 3, tmp_path / "again").digest
    other = _setup(name, 4, tmp_path / "other").digest
    assert first == again
    assert first != other


def _snapshot():
    snap = {}
    for m in _library_modules():
        for attr, val in vars(m).items():
            snap[(m.__name__, attr)] = val
    for cls in (inv.Mat, inv.SesquiForm):
        for attr, val in vars(cls).items():
            snap[(cls.__qualname__, attr)] = val
    return snap


def test_traced_and_untraced_certificates_identical(tmp_path):
    state = _setup("grid-sampled", 0, tmp_path / "grid")
    cases = state.cases[:: len(state.cases) // 6][:6]
    plain = LoopStats()
    run_cases(inv, cases, time.perf_counter(), plain)
    before = _snapshot()
    tracer = Tracer()
    traced = LoopStats()
    with patched(tracer):
        run_cases(inv, cases, time.perf_counter(), traced)
    assert _snapshot() == before  # every patched attribute restored
    assert plain.failed == traced.failed == 0
    assert plain.cert_digest.hexdigest() == traced.cert_digest.hexdigest()
    table = SpanTable(tracer)
    assert len(table.roots("factor")) == len(cases)
    seen = {row[0] for row in table.rows}
    assert {"minimal_polynomial", "factorize", "core_checks", "verify_certificate", "Mat.__matmul__",
            "SesquiForm.similitude_ratio"} <= seen
    assert seen <= set(ALL_NAMES)
    assert all(s >= -1e-9 for s in table.self_time)


def test_name_clash_is_patched_in_every_namespace():
    # the package attribute `factor` is the function, shadowing the submodule
    assert callable(inv.factor)
    mod = sys.modules["invofactor.factor"]
    cli = sys.modules["invofactor.cli"]
    tracer = Tracer()
    with patched(tracer, ("factor",)):
        assert inv.factor is mod.factor is cli.factor
        assert inv.factor.__wrapped__ is not None
    assert not hasattr(inv.factor, "__wrapped__")
    assert inv.factor is mod.factor is cli.factor


def test_survey_taps_see_every_element(tmp_path):
    state = _setup("survey-small", 0, tmp_path / "survey")
    state.groups = state.groups[1:2]  # GSp2(F5), 120 elements
    st = LoopStats()
    WORKLOADS["survey-small"].loop(inv, state, time.perf_counter(), st)
    assert st.failed == 0
    assert st.certs == st.first_pass_certs == st.elements == 120


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-sampled", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
