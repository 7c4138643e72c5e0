#!/usr/bin/env python3
"""Time unfolding a cube and writing its tree in process: `explore`, `unfold`, `model_to_dict` and `write_json`.

Prints the median of each phase over the repeats, with the number of
execution classes `explore` yields, of face entries of the tree and of
bytes written.  The cube is `phda.fixtures.cube(n)`; `explore` runs on it
alone, `unfold` includes its own `explore`, and `write_json` writes the
`model_to_dict` document to memory, as `phda unfold` writes its model,
without the disk.  The cyclic garbage collector is off, as
`phda.cli.main` runs every command.

Usage: python3 scripts/time_unfold.py [--repeat N] [--dim n] [--depth d]
"""
import argparse
import gc
import io
import statistics
import sys
import time

from phda.fixtures import cube
from phda.homotopy import explore
from phda.jsonio import model_to_dict, write_json
from phda.unfolding import unfold


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="runs of each phase; medians are printed (default 7)")
    ap.add_argument("--dim", type=int, default=4, help="dimension of the cube (default 4)")
    ap.add_argument("--depth", type=int, default=8, help="unfolding depth (default 8)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.dim < 0 or args.depth < 0:
        ap.error("--dim and --depth must be at least 0")
    gc.disable()
    x = cube(args.dim)
    times: dict[str, list[float]] = {"explore": [], "unfold": [], "model_to_dict": [], "write_json": []}
    for _ in range(args.repeat):
        doc = tree = None  # a command holds one tree and one document, so drop the last ones first
        classes, t = timed(lambda: sum(1 for _ in explore(x, args.depth)))
        times["explore"].append(t)
        (tree, _, _), t = timed(unfold, x, args.depth)
        times["unfold"].append(t)
        doc, t = timed(model_to_dict, tree)
        times["model_to_dict"].append(t)
        out = io.StringIO()
        times["write_json"].append(timed(write_json, out, doc)[1])
    phases = ", ".join(f"{k} {statistics.median(v) * 1e3:.1f} ms" for k, v in times.items())
    print(f"cube-{args.dim} depth {args.depth}: {classes} classes, {len(tree.faces)} entries, "
          f"{len(out.getvalue())} bytes; {phases} (median of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
