#!/usr/bin/env python3
"""Pin the stdout digest of every command any seed can produce.

Runs each workload's whole catalogue (every partial-cube variant and
branch fold), at full size and at the self-test size, through the CLI and
writes the sha256 of each command's stdout to `digests.json`.  A command
whose exit code or cell count contradicts the theorems is not pinned.

Usage: python3 perfbench/pin.py
Re-pin only when a change is meant to alter CLI output.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness
from workloads import WORKLOADS


def main() -> int:
    digests: dict[str, str] = {}
    bad = 0
    for name, build in WORKLOADS.items():
        for top in (None, 3):
            plan = build(0, every=True) if top is None else build(0, top=top, every=True)
            workdir = harness.HERE.parent / ".bench_build" / "perfbench" / "pin" / name
            harness.setup(plan, workdir)
            for cmd in plan.commands:
                rc, out, _ = harness.run_subprocess(cmd, workdir, pythonhashseed=0)
                why = harness.problem(cmd, rc, out, None)
                if why:
                    print(f"not pinned: {cmd.key}: {why}", file=sys.stderr)
                    bad += 1
                    continue
                digests[cmd.key] = harness.digest(out)
            print(f"{name} top={top or 'full'}: {len(plan.commands)} commands", file=sys.stderr)
    harness.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"{len(digests)} digests written to {harness.DIGESTS}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
