#!/usr/bin/env python3
"""Time-to-verdict benchmark of the `phda` CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up writes the workload's input files,
generated from the seed, under .bench_build/perfbench/.  With --trace 0 the
command list is run serially, one CLI subprocess per command, one client
(a closed loop), pass after pass until S seconds and at least MIN_SAMPLES
commands are done; every command's exit code and stdout digest is checked
before its time counts.  Times are scaled to a host of fixed speed (see
`measure`).  With --trace 1 the same commands are run once as
subprocesses and then in-process through `phda.cli.main`, once untraced
and twice traced, to report self time and work counts per library layer.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Lines before it show the run's context and every metric with its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import generators
    import harness
    from tracer import Tracer
    from workloads import WORKLOADS
except ImportError as e:  # not a full checkout: the library sources are missing
    MISSING: ImportError | None = e
else:
    MISSING = None

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_s.p50": "s", "cmd_s.p90": "s", "peak_rss_mb": "MB"}
SELF_TIMED = (
    "words.star", "homotopy.partition_paths", "homotopy.elementary_neighbors", "homotopy.classes_to",
    "homotopy.find_shortcuts", "unfolding.is_tree", "unfolding._bounded_paths", "paths.enumerate_paths",
    "unfolding.unfold", "lifting.is_covering", "lifting.is_open", "lifting.construct_lift",
    "completion.completion_of", "model.saturate", "model.validate_phda", "colimits.colimit",
    "jsonio.load_model", "jsonio.model_to_dict", "cli.main",
)
COUNTED = (
    "words.star.calls", "words.FaceWord.made", "homotopy.elementary_neighbors.calls",
    "homotopy.partition_paths.paths_in", "homotopy.partition_paths.classes_out", "paths.step_moves.calls",
    "paths.enumerate_paths.paths", "unfolding._bounded_paths.paths", "unfolding.unfold.states",
    "completion.completion_of.abstract_faces", "completion.completion_of.cells_out",
    "uf.UnionFind.union.calls", "uf.UnionFind.groups.calls", "model.saturate.entries",
    "colimits.colimit.cells_out", "cli.stdout_bytes",
)
RATIOS = {  # useful outcomes over attempts
    "homotopy.partition_paths.classes_per_path": ("homotopy.partition_paths.classes_out", "homotopy.partition_paths.paths_in"),
    "uf.UnionFind.union.merge_ratio": ("uf.UnionFind.union.merges", "uf.UnionFind.union.calls"),
}
PER_LAYER = (
    {f"{name}.self_s": "s" for name in SELF_TIMED}
    | {name: "bytes" if name.endswith("bytes") else "count" for name in COUNTED}
    | {name: "ratio" for name in RATIOS}
    | {"cli.start_s": "s", "trace.overhead_s": "s"}
)
MIN_SAMPLES = 100  # so that at least 10 command times lie beyond the p90
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 2.0, 20  # cheap set-ups repeat more, for a steadier median
BUDGET_S = 150  # no pass starts that is expected to end later than this


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def context(seed: int) -> dict:
    lines = {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "phda").glob("*.py"))}
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def run_pass(plan, workdir, digests, runner) -> tuple[list[tuple], float]:
    """One serial pass over the plan; returns ([(command, wall, stdout bytes, problem)], pass wall)."""
    results = []
    t0 = time.perf_counter()
    for cmd in plan.commands:
        rc, out, wall = runner(cmd)
        why = harness.problem(cmd, rc, out, digests)
        if why:
            print(f"FAILED {cmd.key}: {why}", file=sys.stderr)
        results.append((cmd, wall, len(out), why))
    return results, time.perf_counter() - t0


def failures(results: list[tuple]) -> int:
    return sum(why is not None for *_, why in results)


def measure(plan, workdir, digests, seconds, started, refs) -> tuple[dict, int, int]:
    """Closed-loop CLI passes; returns (values, attempted, failed).

    The shared host's speed drifts by a quarter or more from one run to the
    next, as other work on it comes and goes.  So the reference loop is
    timed before every command, into `refs`, and all times of the run are
    scaled by `harness.speed_factor(refs)`: they are seconds on a host of
    fixed speed.  `wall_s` is the sum over the command list of each
    command's median time; the percentiles are over all samples.  The
    unscaled figures are printed alongside.
    """
    per_command: dict[str, list[float]] = {}
    pass_walls, failed = [], 0

    def run(cmd, hs):
        refs.append(harness.reference_loop())
        return harness.run_subprocess(cmd, workdir, hs)

    t0 = time.perf_counter()
    while True:
        samples = sum(len(ts) for ts in per_command.values())
        if time.perf_counter() - t0 >= seconds and samples >= MIN_SAMPLES:
            break
        if pass_walls and time.perf_counter() - started + pass_walls[-1] > BUDGET_S:
            print(f"time budget reached after {len(pass_walls)} passes", file=sys.stderr)
            break
        hs = harness.hash_seed(len(pass_walls))
        results, wall = run_pass(plan, workdir, digests, lambda c: run(c, hs))
        for cmd, t, _, why in results:
            if why is None:  # the time of a wrong result is discarded
                per_command.setdefault(cmd.key, []).append(t)
        failed += failures(results)
        pass_walls.append(wall)
    times = [t for ts in per_command.values() for t in ts]
    wall = sum(statistics.median(ts) for ts in per_command.values())
    p50, p90 = (percentile(times, 50), percentile(times, 90)) if times else (0.0, 0.0)
    factor = harness.speed_factor(refs)
    values = {
        "wall_s": wall * factor,
        "cmd_s.p50": p50 * factor,
        "cmd_s.p90": p90 * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    attempted = len(pass_walls) * len(plan.commands)
    for key, ts in sorted(per_command.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"# command {statistics.median(ts):9.4f} s  (min {min(ts):.4f})  {key}")
    print(f"# unscaled: wall {wall:.4f} s, p50 {p50:.4f} s, p90 {p90:.4f} s over {len(times)} timed commands; "
          f"passes of {', '.join(f'{w:.3f}' for w in pass_walls)} s; speed factor {factor:.4f} "
          f"(reference loop median {statistics.median(refs) * 1e3:.2f} ms); failed_share {failed / attempted:.4f}")
    return values, attempted, failed


def traced(plan, workdir, digests) -> tuple[dict, int, int, bool]:
    """Per-layer self times and work counts; returns (values, attempted, failed, counts repeat)."""
    tracer = Tracer()
    hs = harness.hash_seed(0)
    sub, _ = run_pass(plan, workdir, digests, lambda c: harness.run_subprocess(c, workdir, hs))
    plain, plain_wall = run_pass(plan, workdir, digests, lambda c: harness.run_inprocess(c, workdir))
    failed = failures(sub) + failures(plain)
    passes = []
    for _ in range(2):
        with tracer.patch():
            results, wall = run_pass(plan, workdir, digests, lambda c: harness.run_inprocess(c, workdir))
        self_s, calls = tracer.collect()
        counts = tracer.counts + Counter({f"{name}.calls": n for name, n in calls.items()})
        counts["cli.stdout_bytes"] = sum(size for _, _, size, _ in results)
        failed += failures(results)
        passes.append((self_s, counts, wall))
    (self_a, counts, wall_a), (self_b, counts_b, wall_b) = passes
    repeat = counts == counts_b
    if not repeat:
        diff = {k: (counts[k], counts_b[k]) for k in counts.keys() | counts_b.keys() if counts[k] != counts_b[k]}
        print(f"work counts differ between traced passes: {diff}", file=sys.stderr)
    values = {f"{name}.self_s": (self_a[name] + self_b[name]) / 2 for name in SELF_TIMED}
    values |= {name: counts[name] for name in COUNTED}
    values |= {name: counts[num] / counts[den] if counts[den] else 0.0 for name, (num, den) in RATIOS.items()}
    values["cli.start_s"] = statistics.median(s[1] - p[1] for s, p in zip(sub, plain))
    values["trace.overhead_s"] = (wall_a + wall_b) / 2 - plain_wall
    return values, 4 * len(plan.commands), failed, repeat


def main() -> int:
    started = time.perf_counter()
    args = parse_args()
    if MISSING is not None or not (SRC / "phda" / "cli.py").is_file():
        print(f"error: the phda sources under {SRC} are missing or broken: {MISSING or 'no cli.py'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    mismatches = generators.crosscheck_fixtures()
    for line in mismatches:
        print(f"generator cross-check: {line}", file=sys.stderr)
    plan = WORKLOADS[args.workload](args.seed)
    digests = harness.load_digests()
    workdir = ROOT / ".bench_build" / "perfbench" / args.workload
    setups, refs = [], []  # set-up times are scaled like the command times; see measure()
    while not setups or not args.trace and len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S
    ):
        refs.append(harness.reference_loop())
        setups.append(harness.setup(plan, workdir))
    print("# context " + json.dumps(context(args.seed), sort_keys=True))
    if args.trace:
        values, attempted, failed, repeat = traced(plan, workdir, digests)
        units = PER_LAYER
    else:
        values, attempted, failed = measure(plan, workdir, digests, args.seconds, started, refs)
        values["setup_s"] = statistics.median(setups) * harness.speed_factor(refs)
        repeat, units = True, END_TO_END
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"# {name:45s} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0 and not mismatches and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
