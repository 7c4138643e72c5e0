#!/usr/bin/env python3
"""Run the benchmark catalogues and check every command against its pinned stdout digest.

Writes each workload's inputs, at full and at self-test size, into a
temporary directory, as `perfbench/pin.py` does.  Each command must exit
with the code the theorems predict, print the cell count they fix, if
any, and print the stdout pinned in `perfbench/digests.json`; a failure
prints `mismatch: <workload> top=<size>[ seed=<s>]: <command>: <why>`.

Usage: python3 scripts/catalogue.py digests | reach [--self-test]
`digests` runs each command in its own `python -m phda` process under
PYTHONHASHSEED=0 and then 1.  `reach` runs them in process under a
`sys.settrace` hook, after dropping `phda` from `sys.modules`, so what a
CLI process runs while it imports the library counts and the writing of
the inputs does not; it prints each named `src/phda` function (lambdas
and comprehensions left out) that no command enters, as `module:line
name`.  Imports only the standard library, `src/phda` and `perfbench/`,
so `python3.13 scripts/catalogue.py digests` checks the bytes under that
Python without pytest.  Exits 1 when a command fails its check.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from collections.abc import Iterator
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness
from workloads import WORKLOADS, Command

Run = tuple[str, Command, Path]  # (workload and size, command, its input directory)


def catalogues(tmp: Path, tops: tuple[int | None, ...]) -> Iterator[Run]:
    """Write each workload's inputs under `tmp` at each size of `tops` (None: full size); yields their commands."""
    for name, build in WORKLOADS.items():
        for top in tops:
            plan = build(0, every=True) if top is None else build(0, top=top, every=True)
            workdir = tmp / f"{name}-{top or 'full'}"
            harness.setup(plan, workdir)
            for cmd in plan.commands:
                yield f"{name} top={top or 'full'}", cmd, workdir


def mismatch(run: Run, result: tuple[int, bytes, float], digests: dict[str, str], seed: int | None = None) -> bool:
    """Whether the command's (exit code, stdout, seconds) fails its check; prints why when it does."""
    where, cmd, _ = run
    if why := harness.problem(cmd, result[0], result[1], digests):
        print(f"mismatch: {where}{'' if seed is None else f' seed={seed}'}: {cmd.key}: {why}")
    return why is not None


def digests(runs: list[Run], pinned: dict[str, str]) -> int:
    """Run every command in its own process under hash seeds 0 and 1; returns the number of mismatches."""
    bad = sum(mismatch(run, harness.run_subprocess(*run[1:], seed), pinned, seed) for seed in (0, 1) for run in runs)
    print(f"{2 * len(runs)} runs of {len(runs)} catalogue commands ({len({cmd.key for _, cmd, _ in runs})} distinct)"
          f" checked against {len(pinned)} pinned digests with PYTHONHASHSEED=0 and 1 under {sys.executable}:"
          f" {bad} mismatches")
    return bad


def functions() -> dict[tuple[str, int, str], str]:
    """Every named function of the package, keyed as `reach` keys the calls: path, first line, name."""
    found, todo = {}, [compile(path.read_text(), str(path), "exec") for path in sorted(ROOT.glob("src/phda/*.py"))]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):  # a function, not a module or class body
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in 3.11
            found[code.co_filename, code.co_firstlineno, code.co_name] = name
    return found


def reach(runs: list[Run], pinned: dict[str, str]) -> int:
    """Run every command in process under the trace and list the functions none enters; returns the mismatches."""
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    for module in [m for m in sys.modules if m.partition(".")[0] == "phda"]:
        del sys.modules[module]
    sys.settrace(trace)
    try:
        import phda.cli  # as a CLI process does, now under the trace

        harness.phda = phda  # the package whose `cli.main` `run_inprocess` calls
        bad = sum(mismatch(run, harness.run_inprocess(*run[1:]), pinned) for run in runs)
    finally:
        sys.settrace(None)
    everything = functions()
    unreached = sorted(key for key in everything if key not in entered)
    for key in unreached:
        print(f"{Path(key[0]).stem}:{key[1]} {everything[key]}")
    print(f"{len(unreached)} of {len(everything)} functions never entered by {len(runs)} catalogue commands")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("digests", help="run every command under PYTHONHASHSEED 0 and 1").set_defaults(self_test=False)
    sub.add_parser("reach", help="list the library functions that no command enters").add_argument(
        "--self-test", action="store_true", help="run only the self-test size of each catalogue")
    args = ap.parse_args()
    pinned = harness.load_digests()
    with tempfile.TemporaryDirectory() as tmp:
        runs = list(catalogues(Path(tmp), (3,) if args.self_test else (None, 3)))  # inputs written before any trace
        bad = (digests if args.mode == "digests" else reach)(runs, pinned)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
