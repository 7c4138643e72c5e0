"""Running one benchmark command, as a subprocess or in-process, and checking it.

`reference_loop` probes the shared host's current speed with a fixed
pure-Python loop; run.py scales the times of a run by it (see there).

A command passes only when its exit code is the one the theorems predict,
the sha256 of its stdout equals the digest pinned in `digests.json`, and,
where a theorem fixes it, its output model has the predicted cell count.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

import phda.cli
from phda.jsonio import save_json

from workloads import Command, Plan

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
COMMAND_TIMEOUT_S = 60  # the slowest command takes about 3 s
REFERENCE_S = 0.008  # nominal time of `reference_loop`; see `speed_factor`


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def hash_seed(pass_no: int) -> int:
    """The PYTHONHASHSEED of the children of one pass.

    It does not depend on the workload seed, so that runs differ in their
    inputs but not in the hash orders they sample: a command's cost may
    depend on hash order.
    """
    return zlib.crc32(f"pass/{pass_no}".encode())


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes in this process."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_factor(refs: list[float]) -> float:
    """REFERENCE_S over the median of `refs`, reference-loop times taken during a run.

    A time of the run multiplied by it is the time on a host that runs the
    loop in REFERENCE_S seconds.
    """
    return REFERENCE_S / statistics.median(refs)


def setup(plan: Plan, workdir: Path) -> float:
    """Write the plan's input files into a fresh `workdir`; returns the wall time."""
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, doc in plan.files():
        save_json(str(workdir / name), doc)
    return time.perf_counter() - t0


def run_subprocess(cmd: Command, workdir: Path, pythonhashseed: int) -> tuple[int, bytes, float]:
    """Run `python -m phda ...` in `workdir`; returns (exit code, stdout, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(pythonhashseed))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "phda", *cmd.argv],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # counted as a failed command; the child has been killed
        return -1, b"", time.perf_counter() - t0
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def run_inprocess(cmd: Command, workdir: Path) -> tuple[int, bytes, float]:
    """Call `phda.cli.main` with the same arguments; returns (exit code, stdout, wall seconds)."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = phda.cli.main(list(cmd.argv))
    except SystemExit as e:  # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash: report it and count the command as failed
        traceback.print_exc()
        rc = -1
    finally:
        wall = time.perf_counter() - t0
        os.chdir(cwd)
    return rc, out.getvalue().encode(), wall


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def problem(cmd: Command, rc: int, stdout: bytes, digests: dict[str, str] | None) -> str | None:
    """None when the command's result is correct, otherwise what is wrong with it.

    With `digests=None` only the theorem-derived checks run (used when pinning).
    """
    if rc != cmd.expect:
        return f"exit code {rc}, expected {cmd.expect}"
    if cmd.cells is not None:
        try:
            cells = len(json.loads(stdout)["model"]["cells"])
        except (ValueError, KeyError, TypeError):
            return "output is not a model document"
        if cells != cmd.cells:
            return f"{cells} cells, expected {cmd.cells}"
    if digests is not None:
        pinned = digests.get(cmd.key)
        if pinned is None:
            return "no pinned digest"
        if digest(stdout) != pinned:
            return "stdout digest differs from the pinned one"
    return None
