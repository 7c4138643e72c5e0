#!/usr/bin/env python3
"""Time loading model files in process: `json.load`, `model_from_dict` and `is_tree`.

For each file, prints the median of each phase over the repeats, with the
number of face entries the file lists and of distinct face words among them.
`model_from_dict` includes validation, and with it the peeling pass that
`is_tree` reads, so `is_tree` is timed as a command runs it: on a model
just loaded, and with the cyclic garbage collector off, as `phda.cli.main`
runs every command.

Usage: python3 scripts/time_load.py [--repeat N] FILE...
"""
import argparse
import gc
import json
import statistics
import sys
import time

from phda.jsonio import model_from_dict
from phda.unfolding import is_tree


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--repeat", type=int, default=7, help="runs per file; medians are printed (default 7)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    gc.disable()
    for path in args.files:
        times: dict[str, list[float]] = {"json.load": [], "model_from_dict": [], "is_tree": []}
        for _ in range(args.repeat):
            doc = x = None  # a command holds one document and one model, so drop the last ones first
            with open(path, encoding="utf-8") as fh:
                doc, t = timed(json.load, fh)
            times["json.load"].append(t)
            x, t = timed(model_from_dict, doc)
            times["model_from_dict"].append(t)
            times["is_tree"].append(timed(is_tree, x)[1])
        words = {json.dumps(e["word"]) for e in doc["faces"]}
        phases = ", ".join(f"{k} {statistics.median(v) * 1e3:.1f} ms" for k, v in times.items())
        print(f"{path}: {len(doc['faces'])} entries, {len(words)} distinct words; {phases} (median of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
