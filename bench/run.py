"""Benchmark of the borcherds_cm package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its `src/`
directory.  Prints key=value detail lines, then one JSON object as the last
line.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "borcherds_cm", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness

    details, result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), SRC
    )
    for key, value in details:
        print(f"{key}={value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
