#!/usr/bin/env python3
"""Check every benchmark catalogue command against its pinned stdout digest.

Runs each workload's whole catalogue, at full size and at the self-test
size, through the CLI in a temporary directory, exactly as
`perfbench/pin.py` does, but only compares: each command must exit with
the code the theorems predict, print the predicted cell count where one is
fixed, and print the stdout whose sha256 is pinned in
`perfbench/digests.json`.  Nothing under `perfbench/` is written.

Usage: python3 scripts/check_digests.py [--hash-seed N]
Each command runs with PYTHONHASHSEED=N (default 0): its bytes must not
depend on the seed.  The script imports only the standard library and
`src/phda`, so running it under another interpreter, as in
`python3.13 scripts/check_digests.py`, checks the bytes under that Python
without pytest.  Prints each mismatch and a total; exits 1 when any
command mismatches.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hash-seed", type=int, default=0, metavar="N", help="PYTHONHASHSEED of every command (default 0)")
    args = ap.parse_args()
    digests = harness.load_digests()
    runs, keys, bad = 0, set(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in WORKLOADS.items():
            for top in (None, 3):
                plan = build(0, every=True) if top is None else build(0, top=top, every=True)
                workdir = Path(tmp) / name
                harness.setup(plan, workdir)
                for cmd in plan.commands:
                    rc, out, _ = harness.run_subprocess(cmd, workdir, pythonhashseed=args.hash_seed)
                    why = harness.problem(cmd, rc, out, digests)
                    if why:
                        print(f"mismatch: {name} top={top or 'full'}: {cmd.key}: {why}")
                        bad += 1
                    runs += 1
                    keys.add(cmd.key)
    print(f"{runs} catalogue commands ({len(keys)} distinct) checked against {len(digests)} pinned digests"
          f" with PYTHONHASHSEED={args.hash_seed} under {sys.executable}: {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
