"""Record the golden SHA-256 digests of every verify report's canonical JSON.

    python3 bench/make_golden.py

Rewrites bench/golden.json from one pass of verify_exhaustive, whose
families have no seed. Run it only when a change to the reports is
intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    wl = workloads.WORKLOADS["verify_exhaustive"]()
    lx = run.fresh_import()
    golden = {"verify_exhaustive": wl.digests(wl.run_pass(lx, wl.setup(lx, 1, run.OUT_DIR)))}
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
