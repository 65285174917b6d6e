"""Record the result digest of each fleet workload into ``digests.json``.

Run it only when a change to the program is *meant* to change simulated
results; the benchmark fails any run whose digest differs from the one
recorded here.

    python3 perfbench/record_digests.py [--size tiny|full]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, require_program  # noqa: E402

sys.path.insert(0, str(SRC))

import fleet  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    args = parser.parse_args()
    require_program()
    table = {}
    if fleet.DIGESTS_PATH.exists():
        table = json.loads(fleet.DIGESTS_PATH.read_text())
    for workload in sorted(fleet.SIZES):
        for size in args.size or ("full", "tiny"):
            rep = fleet.run_rep(workload, fleet.fleet_params(workload, size))
            table.setdefault(workload, {})[size] = rep["digest"]
            print(f"{workload} {size} {rep['digest']}", flush=True)
    fleet.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
