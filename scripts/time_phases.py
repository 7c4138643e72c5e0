#!/usr/bin/env python3
"""Time the phases of `phda` work: per input, the median of each phase over the repeats.

startup [--repeat N] -- CMD...: fresh interpreters import `phda.cli` and end
  through `cli.console_main`, as `python -m phda` does, with `cli.main` and
  the `cli._run` it calls once the command line is parsed wrapped to stamp
  the time.  Phases: interpreter (spawn to first statement, `site` included),
  imports (`import phda.cli`), parser (building it and parsing the command
  line), run (the rest of `main`: the command and its output) and exit (from
  `main`'s return until the process is reaped), on the `time.perf_counter`
  clock that parent and child share; cpu is the child's user and system time
  from `os.wait4`.  The command's stdout and stderr are discarded.
load [--repeat N] FILE...: `json.load`, `model_from_dict` (validation and the
  peeling pass that `is_tree` reads included) and `is_tree` on the model just
  loaded, with the file's numbers of face entries and of distinct face words.
unfold [--repeat N] [--dim n] [--depth d]: on `phda.fixtures.cube(n)`,
  `explore`, `unfold` (its own `explore` included), `model_to_dict` and
  `write_json` to memory, as `phda unfold` writes, without the disk; with the
  numbers of classes `explore` yields, of face entries and of bytes written.
load and unfold run in process with the cyclic garbage collector off, as
`phda.cli.main` runs every command.
   eg: python3 scripts/time_phases.py startup --repeat 9 -- is-tree fixtures/full_square.json
"""
import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time

from phda.fixtures import cube
from phda.homotopy import explore
from phda.jsonio import model_from_dict, model_to_dict, write_json
from phda.unfolding import is_tree, unfold

# argv: the stamps' file descriptor, then the command line
CHILD = """
import os, sys, time
stamps = [time.perf_counter()]
fd = int(sys.argv.pop(1))
import phda.cli as cli
stamps.append(time.perf_counter())
run, main = cli._run, cli.main
def timed_run(args):
    stamps.append(time.perf_counter())
    return run(args)
def timed_main(argv=None):
    try:
        return main(argv)
    finally:
        stamps.append(time.perf_counter())
        os.write(fd, " ".join(map(repr, stamps)).encode())
cli._run, cli.main = timed_run, timed_main
cli.console_main()
"""


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def medians(times: dict[str, list[float]]) -> str:
    return ", ".join(f"{k} {statistics.median(v) * 1e3:.1f} ms" for k, v in times.items())


def run_once(argv: list[str]) -> tuple[list[float], float, int]:
    """(the five phases in seconds, CPU seconds, exit code) of one fresh run."""
    read, write = os.pipe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(write), *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, pass_fds=(write,))
    os.close(write)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(read) as fh:
        stamps = [float(s) for s in fh.read().split()]
    if len(stamps) != 4:
        raise SystemExit(f"error: the command line did not parse or the command crashed (exit {proc.returncode})")
    marks = [start, *stamps, end]
    return [b - a for a, b in zip(marks, marks[1:])], usage.ru_utime + usage.ru_stime, proc.returncode


def startup(args):
    runs = [run_once(args.command) for _ in range(args.repeat)]
    phases = medians({name: [r[0][k] for r in runs] for k, name in enumerate(
        ("interpreter", "imports", "parser", "run", "exit"))})
    codes = ",".join(map(str, sorted({r[2] for r in runs})))
    yield f"{' '.join(args.command)}: {phases}; {medians({'cpu': [r[1] for r in runs]})}; exit {codes}"


def load(args):
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
        yield f"{path}: {len(doc['faces'])} entries, {len(words)} distinct words; {medians(times)}"


def unfold_cube(args):
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
    yield (f"cube-{args.dim} depth {args.depth}: {classes} classes, {len(tree.faces)} entries, "
            f"{len(out.getvalue())} bytes; {medians(times)}")


def at_least(low: int):
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return int(text)
    return count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    modes = {
        "startup": (startup, "a phda command's start-up, in fresh interpreters",
                    [("command", {"nargs": "+", "metavar": "CMD", "help": "a phda command line, after --"})]),
        "load": (load, "loading model files, in process", [("files", {"nargs": "+", "metavar": "FILE"})]),
        "unfold": (unfold_cube, "unfolding a cube and writing its tree, in process", [
            ("--dim", {"type": at_least(0), "default": 4, "help": "dimension of the cube (default 4)"}),
            ("--depth", {"type": at_least(0), "default": 8, "help": "unfolding depth (default 8)"}),
        ]),
    }
    for name, (run, text, arguments) in modes.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--repeat", type=at_least(1), default=7, help="runs; medians are printed (default 7)")
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(run=run)
    args = ap.parse_args()
    gc.disable()
    for line in args.run(args):
        print(f"{line} (median of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
