"""Pin the discovery and bandit outputs the benchmark checks against.

    python3 bench/record_digests.py

Runs every replicate seed the workloads can draw (0..63) at full size and
writes one digest per seed to bench/digests.json. Re-run it only in a change
that is meant to alter those outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    size = workloads.FULL
    out = {"discovery": {}, "bandits": {}}
    for rseed in range(workloads.DIGEST_SEEDS):
        result = workloads.discovery_replicate(size.discovery_rows, rseed)
        out["discovery"][str(rseed)] = workloads.discovery_digest(result)
        results = workloads.bandit_replicate(size.horizons, rseed)
        out["bandits"][str(rseed)] = workloads.bandit_digest(results)
    workloads.DIGEST_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
