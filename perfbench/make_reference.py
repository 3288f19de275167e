"""Regenerate ``perfbench/reference.json``.

    python3 perfbench/make_reference.py

Records the exact batched-engine values of the 120 s volume-flood
prefix (what the fluid engine is checked against), then one output
digest per workload at the reference seed, each from a fresh run made
exactly as the benchmark makes it.  Run it only when a change is meant
to alter the simulator's outputs, and say why in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__" and not __package__:
    sys.path[0] = str(ROOT)

from perfbench import checks  # noqa: E402  (needs the path fix above)
from perfbench.run import launch  # noqa: E402
from perfbench.spec import REFERENCE_SEED, WORKLOAD_NAMES  # noqa: E402


def _write(reference: dict) -> None:
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def main() -> int:
    # The batched prefix runs in this process.
    sys.path.insert(0, str(ROOT / "src"))
    reference = {
        "seed": REFERENCE_SEED,
        "fluid_prefix": {
            "seed": REFERENCE_SEED,
            "duration_s": checks.FIDELITY_DURATION_S,
            "batched": checks.prefix_quantities(fluid=False),
        },
        "digests": {},
    }
    # The volume-flood run reads the batched values just computed.
    _write(reference)
    for name in WORKLOAD_NAMES:
        record = launch(name, REFERENCE_SEED, "timed")
        if not record["ok"]:
            print(f"{name}: run failed:\n" + "\n".join(record["errors"]), file=sys.stderr)
            return 1
        reference["digests"][name] = record["digest"]
        print(f"{name}: {record['digest']}")
    _write(reference)
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
