"""Regenerate bench/digests.json: for each workload and seed, the digest of
the generated inputs and of the canonical certificate JSON of one pass.

    python3 bench/record_digests.py --seeds 0-39 [--workload NAME ...]

bench/run.py counts any difference from these digests as a failed
operation, which pins byte-identical certificates across refactors.  Record
again only for a change that alters inputs or certificates on purpose, and
say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from common import ROOT, import_library
from run import DIGESTS_PATH
from workloads import WORKLOADS, LoopStats, clear_tower_cache


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description="record input and certificate digests")
    ap.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-39")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    inv = import_library()
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for seed in args.seeds:
        for name in args.workload or sorted(WORKLOADS):
            wl = WORKLOADS[name]
            workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
            try:
                clear_tower_cache()
                state = wl.setup(inv, seed, workdir)
                st = LoopStats()
                wl.loop(inv, state, time.perf_counter(), st)  # a deadline already past: one pass
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if st.failed:
                print(f"error: {name} seed {seed}: {st.errors}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {
                "inputs": state.digest,
                "certs": st.cert_digest.hexdigest(),
            }
            tmp = DIGESTS_PATH + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(table, fh, sort_keys=True, indent=1)
                fh.write("\n")
            os.replace(tmp, DIGESTS_PATH)
            print(f"{name} seed {seed}: {st.certs} certificates", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
