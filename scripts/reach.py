#!/usr/bin/env python3
"""List the `phda` functions that no benchmark catalogue command enters.

Writes each workload's input files, at full size and at the self-test size,
then drops `phda` from `sys.modules` and, under a `sys.settrace` hook that
records every function call, imports `phda.cli` afresh and runs the whole
catalogues in process through `phda.cli.main`.  So what a CLI process runs
while it imports the library (class hooks such as `__init_subclass__`, the
modules a command imports on first use) is traced, and the writing of the
inputs is not.  Each command is checked as `scripts/check_digests.py`
checks it, so a failing command cannot hide code.  Prints every named
function and method of `src/phda` that was never entered (lambdas and
comprehensions are left out), one `module:line name` a line.

Usage: python3 scripts/reach.py [--self-test]
With --self-test only the self-test size runs.  Exits 1 when a command
fails its check.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness
from workloads import WORKLOADS

PACKAGE = ROOT / "src" / "phda"


def functions() -> dict[tuple[str, int, str], str]:
    """Every named function of the package, keyed as `trace` keys the calls: path, first line, name."""
    found, todo = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        todo.append(compile(path.read_text(), str(path), "exec"))
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):  # a function, not a module or class body
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in 3.11
            found[code.co_filename, code.co_firstlineno, code.co_name] = name
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true", help="run only the self-test size of each catalogue")
    args = ap.parse_args()
    digests, entered, runs, bad = harness.load_digests(), set(), 0, 0

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    with tempfile.TemporaryDirectory() as tmp:
        runs_of = []
        for name, build in WORKLOADS.items():
            for top in (3,) if args.self_test else (None, 3):
                plan = build(0, every=True) if top is None else build(0, top=top, every=True)
                workdir = Path(tmp) / f"{name}-{top or 'full'}"
                harness.setup(plan, workdir)
                runs_of.append((name, top, plan.commands, workdir))
        for module in [m for m in sys.modules if m.partition(".")[0] == "phda"]:
            del sys.modules[module]
        sys.settrace(trace)
        try:
            import phda.cli  # as a CLI process does, now under the trace

            harness.phda = phda  # the package whose `cli.main` `run_inprocess` calls
            for name, top, commands, workdir in runs_of:
                for cmd in commands:
                    rc, out, _ = harness.run_inprocess(cmd, workdir)
                    if why := harness.problem(cmd, rc, out, digests):
                        print(f"failed: {name} top={top or 'full'}: {cmd.key}: {why}")
                        bad += 1
                    runs += 1
        finally:
            sys.settrace(None)
    everything = functions()
    unreached = sorted(key for key in everything if key not in entered)
    for key in unreached:
        print(f"{Path(key[0]).stem}:{key[1]} {everything[key]}")
    print(f"{len(unreached)} of {len(everything)} functions never entered by {runs} catalogue commands")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
