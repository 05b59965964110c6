"""Replay every pinned cm-report output.

`bench/cm_report_pins.txt` pins a digest of every output of the `bcm cmsum`
request for the 9216 forms of the cm-report universe (72 lattices, 128
forms each).  A benchmark run checks only the instances it reaches; this
test recomputes all of them through the benchmark's own request and digest
(`bench/workloads.py`, imported read-only), reusing each lattice object
for all of its forms.
"""

import os
import sys

import borcherds_cm

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from workloads import (  # noqa: E402
    INSTANCES,
    build_pool,
    cm_request,
    instance_coeffs,
    load_pins,
    report_digest,
)


def test_every_pinned_cm_report_replays():
    pool = build_pool(borcherds_cm)
    pins = load_pins()
    assert len(pool) * INSTANCES == len(pins) == 9216
    mismatches = []
    for li, (fld, sl) in enumerate(pool):
        for k in range(INSTANCES):
            coeffs = instance_coeffs(pool, li, k)
            digest = report_digest(cm_request(borcherds_cm, fld, sl, coeffs))
            if digest != pins[(li, k)]:
                mismatches.append((li, k, digest, pins[(li, k)]))
    assert not mismatches, mismatches[:10]
