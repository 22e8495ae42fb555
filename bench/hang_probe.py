"""Known-hang probe: factor the transvection-like isometry
[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,-1,1]] of Sp4(GF(2^31-1)) under a
per-call deadline (ROADMAP item 4: the candidate scan materialises every
nonzero scalar of the field).

Run as a child of bench/run.py; prints one JSON line with "outcome" set to
"ok" (verified certificate), "wrong" (certificate fails a check),
"deadline" (the call did not return in time) or "memory" (address-space
cap hit first, the same defect).  The cap keeps the child's memory bounded
whatever the outcome.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

ADDRESS_SPACE_CAP = 1 << 30


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--deadline", type=float, required=True)
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    import invofactor as inv  # the parent puts the checkout's src/ first

    F = inv.field_make(2**31 - 1)
    form = inv.symplectic_form(F, 4)
    g = inv.Mat.from_rows(F, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    try:
        cert = inv.factor(form, g)
        outcome = "ok" if inv.verify_certificate(form, g, cert).passed else "wrong"
    except Deadline:
        outcome = "deadline"
    except MemoryError:
        outcome = "memory"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"outcome": outcome, "deadline_s": args.deadline,
                      "elapsed_s": round(time.perf_counter() - t0, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
