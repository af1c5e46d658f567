"""
Regenerate reference.json, the stored outputs the benchmark checks against.

    python3 bench/make_reference.py

The reference belongs to the commit that introduced the benchmark; a later
change that alters any normal form, sphere size, scan row or ratio beyond
the tolerance is wrong, not a new reference.  Nothing here is timed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, digest  # noqa: E402

NF_CYCLES = {"full": 128, "tiny": 8}


def summaries(wl, c: int) -> list[tuple[str, object]]:
    return [(item.label, item.summarise(item.call())) for item in wl.cycle(c)]


def reference(size: str) -> dict:
    nf = WORKLOADS["nf-long"](size, DEFAULT_SEED)
    digests = [
        [digest(list(out)) for _label, out in summaries(nf, c)] for c in range(NF_CYCLES[size])
    ]
    ball = dict(summaries(WORKLOADS["ball-d1"](size, DEFAULT_SEED), 0))
    d2 = dict(summaries(WORKLOADS["d2-merge"](size, DEFAULT_SEED), 0))
    rd = dict(summaries(WORKLOADS["rd-harmonic"](size, DEFAULT_SEED), 0))
    return {
        "nf-long": {"seed": DEFAULT_SEED, "digests": digests},
        "ball-d1": {"sphere_sizes": ball["ball:engine"], "d1": ball["d1-scan"]},
        "d2-merge": {"d2": d2},
        "rd-harmonic": {
            "seed": DEFAULT_SEED,
            "rd": {k: v for k, v in rd.items() if k.startswith("rd-check")},
            "opnorm": {k: v for k, v in rd.items() if k.startswith("opnorm")},
        },
    }


def main() -> int:
    ref = {size: reference(size) for size in ("tiny", "full")}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
