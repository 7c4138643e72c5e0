#!/usr/bin/env python3
"""Time the start-up of one `phda` command, phase by phase, in fresh interpreters.

Each run starts a new interpreter that imports `phda.cli` and ends through
`cli.console_main`, as `python -m phda` does, with `cli.main` and the
`cli._run` that it calls once the command line is parsed wrapped to stamp
the time.  The phases are:
- interpreter: from the spawn to the first statement, `site` included;
- imports: `import phda.cli`;
- parser: building the parser and parsing the command line;
- run: the rest of `main`, the command and its output;
- exit: from `main`'s return until the process is reaped.
The clock is the monotonic `time.perf_counter`, which parent and child share.
CPU time is the child's user and system time from `os.wait4`.  Prints the
median of each over the repeats; the command's stdout and stderr are
discarded.

Usage: python3 scripts/time_startup.py [--repeat N] -- CMD...
   eg: python3 scripts/time_startup.py --repeat 9 -- is-tree fixtures/full_square.json
"""
import argparse
import os
import statistics
import subprocess
import sys
import time

PHASES = ("interpreter", "imports", "parser", "run", "exit")

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=9, help="fresh runs; medians are printed (default 9)")
    ap.add_argument("command", nargs="+", metavar="CMD", help="a phda command line, after --")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    runs = [run_once(args.command) for _ in range(args.repeat)]
    phases = ", ".join(f"{name} {statistics.median(r[0][k] for r in runs) * 1e3:.1f} ms"
                       for k, name in enumerate(PHASES))
    cpu = statistics.median(r[1] for r in runs) * 1e3
    codes = ",".join(map(str, sorted({r[2] for r in runs})))
    print(f"{' '.join(args.command)}: {phases}; cpu {cpu:.1f} ms; exit {codes} (median of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
