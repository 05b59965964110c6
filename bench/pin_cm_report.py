"""Write cm_report_pins.txt: the digest of every cm-report output in the
instance universe, as computed by the package in this checkout.

    python3 bench/pin_cm_report.py

The pins were made at the commit that introduced the benchmark.  The
package's outputs are invariants, so later commits must reproduce them and
never re-pin.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import harness
    from workloads import INSTANCES, PINS_PATH, build_pool, cm_request, instance_coeffs, report_digest

    pkg = harness.load_package(SRC)
    pool = build_pool(pkg)
    lines = [
        "# lattice index: digests of instances 0..%d (see workloads.report_digest)"
        % (INSTANCES - 1)
    ]
    for li, (fld, sl) in enumerate(pool):
        digests = [
            report_digest(cm_request(pkg, fld, sl, instance_coeffs(pool, li, k)))
            for k in range(INSTANCES)
        ]
        lines.append(f"{li}: " + " ".join(digests))
    with open(PINS_PATH, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
