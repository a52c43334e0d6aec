"""Report bytes pinned to the benchmark's golden digests.

Recomputes the eleven verify reports over the exhaustive families
InstanceFamily(4, 3) and InstanceFamily(5, 2) and compares the SHA-256 of
each report's canonical JSON with bench/golden.json, which is only read
here (bench/make_golden.py writes it). Keys are "{family}:{theorem}:{reading}".
"""

import hashlib
import json
from pathlib import Path

from lexiconn import InstanceFamily, verify_theorem

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"

FAMILIES = (InstanceFamily(4, 3), InstanceFamily(5, 2))
RUNS = [
    ("thm21", "min_cuts_only"),
    ("thm21_complete", "min_cuts_only"),
    ("super_part1", "min_cuts_only"),
    ("super_part2", "min_cuts_only"),
    ("super_part3", "min_cuts_only"),
] + [(theorem, reading) for theorem in ("thm22", "thm23", "cor24") for reading in ("min_cuts_only", "all_cuts")]


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["verify_exhaustive"]
    got = {}
    for i, family in enumerate(FAMILIES):
        for theorem, reading in RUNS:
            report = verify_theorem(theorem, family, reading)
            got[f"{i}:{theorem}:{reading}"] = hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest()
    assert len(got) == len(golden) == 22
    assert got == golden
