"""Command-line surface: one subcommand per decision procedure.

Exit codes: 0 for success or a positive decision, 1 for a negative
decision, 2 for any error, a failure to write stdout included.
Structured results go to stdout as JSON, human-readable summaries to
stderr.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NoReturn

from . import jsonio
from .errors import PhdaError, UnknownCell

# Each command imports its decision module itself: without cached bytecode,
# every module imported is compiled anew at each start.  A handler returns
# (stdout document, stderr summary, exit code), and `_run` writes them.


def _max_len(args, x) -> int:
    """The given --max-len, or else the number of cells of x (exact for `check-open` and `check-covering`)."""
    return args.max_len if args.max_len is not None else len(x.cells)


def cmd_validate(args):
    x = jsonio.load_model(args.model)  # raises on violation
    return {"ok": True, "violations": []}, f"{args.model}: valid ({len(x.cells)} cells)", 0


def cmd_complete(args):
    from .completion import complete
    x = jsonio.load_model(args.model)
    model, unit = complete(x)
    doc = {"model": jsonio.model_to_dict(model), "unit": jsonio.map_to_dict(unit)}
    return doc, f"completed: {len(x.cells)} -> {len(model.cells)} cells", 0


def cmd_paths(args):
    from .paths import enumerate_paths
    x = jsonio.load_model(args.model)
    if args.to is not None and args.to not in x.cells:
        raise UnknownCell(args.to)
    max_len = _max_len(args, x)
    found = enumerate_paths(x, max_len)
    if args.to is not None:
        found = [p for p in found if p.end == args.to]
    return {"paths": [jsonio.path_to_dict(p) for p in found]}, f"{len(found)} paths (max length {max_len})", 0


def cmd_homotopy(args):
    from .homotopy import classes_to
    x = jsonio.load_model(args.model)
    classes = classes_to(x, args.to, _max_len(args, x))
    doc = {"cell": args.to, "count": len(classes), "classes": [jsonio.class_to_dict(c) for c in classes]}
    return doc, f"{len(classes)} classes of executions to {args.to}", 0


def cmd_is_tree(args):
    from .unfolding import is_tree
    report = is_tree(jsonio.load_model(args.model))
    return {"is_tree": report.is_tree, "reason": report.reason}, report.reason or "tree", 0 if report.is_tree else 1


def cmd_unfold(args):
    from .unfolding import unfold
    tree, cover, truncated = unfold(jsonio.load_model(args.model), args.depth)
    doc = {"model": jsonio.model_to_dict(tree), "cover": jsonio.map_to_dict(cover), "truncated": truncated}
    return doc, f"{len(tree.cells)} states at depth {args.depth}" + (" (truncated)" if truncated else ""), 0


def cmd_colimit(args):
    from .colimits import colimit
    result = colimit(jsonio.load_diagram(args.diagram))
    injections = {u: jsonio.map_to_dict(m) for u, m in sorted(result.injections.items())}
    doc = {"model": jsonio.model_to_dict(result.model), "injections": injections}
    return doc, f"colimit has {len(result.model.cells)} cells", 0


def cmd_check_open(args):
    from .lifting import is_open
    f = jsonio.load_morphism(args.morphism)
    report = is_open(f, _max_len(args, f.source))
    doc = {"open": report.ok, "mode": "prefix", "counterexample": str(report.square) if report.square else None}
    return doc, "open" if report.ok else f"not open: {report.square}", 0 if report.ok else 1


def cmd_check_covering(args):
    from .lifting import is_covering
    f = jsonio.load_morphism(args.morphism)
    report = is_covering(f, _max_len(args, f.source))
    square = str(report.square) if report.square else None
    doc = {"covering": report.ok, "counterexample": square, "lifts": report.lifts}
    summary = "covering" if report.ok else f"not a covering ({report.lifts} lifts): {report.square}"
    return doc, summary, 0 if report.ok else 1


def cmd_lift(args):
    from .lifting import construct_lift
    models = {}  # a model file that both maps name is loaded once, and their codomains are then one object
    h = construct_lift(jsonio.load_morphism(args.g_morphism, models), jsonio.load_morphism(args.f_morphism, models))
    return {"map": jsonio.map_to_dict(h)}, f"lift found on {len(h.mapping)} cells", 0


def cmd_dot(args):
    x = jsonio.load_model(args.model)
    return jsonio.export_dot(x), f"dot export of {len(x.cells)} cells", 0


_MODEL = ("model", {})
_MAX_LEN = ("--max-len", {"type": int, "default": None})

# name -> (handler, help, arguments as (name or flag, `add_argument` options)), in `--help` order
COMMANDS = {
    "validate": (cmd_validate, "check a model file against all structural laws", [_MODEL]),
    "complete": (cmd_complete, "adjoin every missing face", [_MODEL]),
    "paths": (cmd_paths, "enumerate executions",
              [_MODEL, ("--to", {"default": None, "help": "only executions ending at this cell"}), _MAX_LEN]),
    "homotopy": (cmd_homotopy, "group executions to a cell by confluent homotopy",
                 [_MODEL, ("--to", {"required": True}), _MAX_LEN]),
    "is-tree": (cmd_is_tree, "decide the unique-execution property", [_MODEL]),
    "unfold": (cmd_unfold, "depth-bounded tree of execution classes",
               [_MODEL, ("--depth", {"type": int, "required": True})]),
    "colimit": (cmd_colimit, "glue a diagram of execution shapes", [("diagram", {})]),
    "check-open": (cmd_check_open, "right lifting property against execution extensions", [("morphism", {}), _MAX_LEN]),
    "check-covering": (cmd_check_covering, "open with unique lifts", [("morphism", {}), _MAX_LEN]),
    "lift": (cmd_lift, "lift a tree-domain map through an open map", [
        ("g_morphism", {"help": "map out of the tree"}),
        ("f_morphism", {"help": "open map with the same codomain"}),
    ]),
    "dot": (cmd_dot, "deterministic DOT export", [_MODEL]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one: the one a command line runs."""
    ap = argparse.ArgumentParser(prog="phda", description=__doc__)
    alone = command in COMMANDS
    # alone, the metavar keeps every command in the usage that an unrecognised argument prints
    sub = ap.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(COMMANDS) if alone else None)
    for name in [command] if alone else COMMANDS:
        run, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(run=run)
    return ap


def _run(args) -> int:
    """Run the command; write its document (a string as is, else as JSON) and summary, or those of its error."""
    try:
        doc, summary, code = args.run(args)
    except PhdaError as e:
        doc = {"error": {"type": type(e).__name__, "detail": str(e)}}
        if hasattr(e, "violations"):
            doc["error"]["violations"] = [str(v) for v in e.violations]
        summary, code = f"error: {type(e).__name__}: {e}", 2
    if isinstance(doc, str):
        sys.stdout.write(doc)
    else:
        jsonio.write_json(sys.stdout, doc)
        sys.stdout.write("\n")
    sys.stdout.flush()  # a reader that closed stdout early shows here at the latest, before any summary
    print(summary, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    collecting = gc.isenabled()  # the caller's policy, restored on every exit below
    gc.disable()  # what a command builds lives until it returns: a collection would rescan it and free nothing
    try:
        code = _run(args)
    except OSError as e:
        # exit 2 with no traceback; stdout now discards, so the flush at exit stays quiet
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write stdout: {e}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    finally:
        if collecting:
            gc.enable()
    return code


def console_main() -> NoReturn:
    """`python -m phda` and the `phda` script: run `main`, flush stdout and stderr, and end the process with
    `os._exit`, which skips the interpreter's teardown of modules and its last collection, as mypy's entry point
    does.  `main` returns, for callers that run it in process.  A failed flush takes the interpreter's own exit."""
    try:
        code = main()
    except SystemExit as e:  # argparse: --help (0), or a command line it rejects (2)
        code = e.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
