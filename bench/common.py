"""Shared helpers for the benchmark: locating and importing the library from
the checkout's own `src/`, canonical JSON and digests, and percentiles."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (for example, no library source)."""


def import_library():
    """Import invofactor from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "invofactor", "__init__.py")):
        raise BenchSetupError(f"no library source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import invofactor
    import invofactor.cli  # loaded up front so that tracing can patch its namespace

    if not os.path.abspath(invofactor.__file__).startswith(SRC + os.sep):
        raise BenchSetupError(f"imported invofactor from {invofactor.__file__}, not {SRC}")
    return invofactor


def child_env():
    """Environment for `python -m invofactor` children: the checkout's src first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not old else SRC + os.pathsep + old
    return env


def canon_json(obj):
    """The CLI's canonical JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class Digest:
    """Running SHA-256 over a sequence of canonical JSON documents."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add_text(self, text):
        self._h.update(text.encode("utf-8"))

    def add(self, obj):
        self.add_text(canon_json(obj))

    def hexdigest(self):
        return self._h.hexdigest()


def p50(values):
    """Median; 0.0 when nothing was measured (every operation failed)."""
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def read_git_commit():
    """HEAD commit of the checkout when it is a git work tree, else None.
    Reads .git directly so that nothing outside the checkout is consulted."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as fh:
            return fh.read().strip() or None
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the library's .py files, identifying the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "invofactor")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def environment():
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": read_git_commit(),
        "source_sha256": source_digest(),
    }
