"""Command-line surface: one subcommand per decision procedure.

Exit codes: 0 for success or a positive decision, 1 for a negative
decision, 2 for any error, a failure to write stdout included.
Structured results go to stdout as JSON, human-readable summaries to
stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import jsonio
from .errors import PhdaError, UnknownCell

# Each command imports its decision module itself: without cached bytecode,
# every module imported is compiled anew at each start.


def _emit(doc: dict, summary: str) -> None:
    jsonio.write_json(sys.stdout, doc)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _max_len(args, x) -> int:
    """The given --max-len, or else the number of cells of x (exact for `check-open` and `check-covering`)."""
    return args.max_len if args.max_len is not None else len(x.cells)


def cmd_validate(args) -> int:
    x = jsonio.load_model(args.model)  # raises on violation
    _emit({"ok": True, "violations": []}, f"{args.model}: valid ({len(x.cells)} cells)")
    return 0


def cmd_complete(args) -> int:
    from .completion import complete
    x = jsonio.load_model(args.model)
    model, unit = complete(x)
    _emit(
        {"model": jsonio.model_to_dict(model), "unit": {k: unit.mapping[k] for k in sorted(unit.mapping)}},
        f"completed: {len(x.cells)} -> {len(model.cells)} cells",
    )
    return 0


def cmd_paths(args) -> int:
    from .paths import enumerate_paths
    x = jsonio.load_model(args.model)
    if args.to is not None and args.to not in x.cells:
        raise UnknownCell(args.to)
    max_len = _max_len(args, x)
    found = enumerate_paths(x, max_len)
    if args.to is not None:
        found = [p for p in found if p.end == args.to]
    _emit({"paths": [jsonio.path_to_dict(p) for p in found]}, f"{len(found)} paths (max length {max_len})")
    return 0


def cmd_homotopy(args) -> int:
    from .homotopy import classes_to
    x = jsonio.load_model(args.model)
    classes = classes_to(x, args.to, _max_len(args, x))
    _emit(
        {"cell": args.to, "count": len(classes), "classes": [jsonio.class_to_dict(c) for c in classes]},
        f"{len(classes)} classes of executions to {args.to}",
    )
    return 0


def cmd_is_tree(args) -> int:
    from .unfolding import is_tree
    x = jsonio.load_model(args.model)
    report = is_tree(x)
    _emit({"is_tree": report.is_tree, "reason": report.reason}, report.reason or "tree")
    return 0 if report.is_tree else 1


def cmd_unfold(args) -> int:
    from .unfolding import unfold
    x = jsonio.load_model(args.model)
    tree, cover, truncated = unfold(x, args.depth)
    _emit(
        {
            "model": jsonio.model_to_dict(tree),
            "cover": {k: cover.mapping[k] for k in sorted(cover.mapping)},
            "truncated": truncated,
        },
        f"{len(tree.cells)} states at depth {args.depth}" + (" (truncated)" if truncated else ""),
    )
    return 0


def cmd_colimit(args) -> int:
    from .colimits import colimit
    d = jsonio.load_diagram(args.diagram)
    result = colimit(d)
    _emit(
        {
            "model": jsonio.model_to_dict(result.model),
            "injections": {u: dict(sorted(m.mapping.items())) for u, m in sorted(result.injections.items())},
        },
        f"colimit has {len(result.model.cells)} cells",
    )
    return 0


def cmd_check_open(args) -> int:
    from .lifting import is_open
    f = jsonio.load_morphism(args.morphism)
    report = is_open(f, _max_len(args, f.source))
    doc = {
        "open": report.ok,
        "mode": "prefix",
        "counterexample": str(report.square) if report.square else None,
    }
    _emit(doc, "open" if report.ok else f"not open: {report.square}")
    return 0 if report.ok else 1


def cmd_check_covering(args) -> int:
    from .lifting import is_covering
    f = jsonio.load_morphism(args.morphism)
    report = is_covering(f, _max_len(args, f.source))
    doc = {
        "covering": report.ok,
        "counterexample": str(report.square) if report.square else None,
        "lifts": report.lifts,
    }
    _emit(doc, "covering" if report.ok else f"not a covering ({report.lifts} lifts): {report.square}")
    return 0 if report.ok else 1


def cmd_lift(args) -> int:
    from .lifting import construct_lift
    g = jsonio.load_morphism(args.g_morphism)
    f = jsonio.load_morphism(args.f_morphism)
    h = construct_lift(g, f)
    _emit({"map": {k: h.mapping[k] for k in sorted(h.mapping)}}, f"lift found on {len(h.mapping)} cells")
    return 0


def cmd_dot(args) -> int:
    x = jsonio.load_model(args.model)
    sys.stdout.write(jsonio.export_dot(x))
    print(f"dot export of {len(x.cells)} cells", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phda", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against all structural laws")
    p.add_argument("model")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("complete", help="adjoin every missing face")
    p.add_argument("model")
    p.set_defaults(run=cmd_complete)

    p = sub.add_parser("paths", help="enumerate executions")
    p.add_argument("model")
    p.add_argument("--to", default=None, help="only executions ending at this cell")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(run=cmd_paths)

    p = sub.add_parser("homotopy", help="group executions to a cell by confluent homotopy")
    p.add_argument("model")
    p.add_argument("--to", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(run=cmd_homotopy)

    p = sub.add_parser("is-tree", help="decide the unique-execution property")
    p.add_argument("model")
    p.set_defaults(run=cmd_is_tree)

    p = sub.add_parser("unfold", help="depth-bounded tree of execution classes")
    p.add_argument("model")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(run=cmd_unfold)

    p = sub.add_parser("colimit", help="glue a diagram of execution shapes")
    p.add_argument("diagram")
    p.set_defaults(run=cmd_colimit)

    p = sub.add_parser("check-open", help="right lifting property against execution extensions")
    p.add_argument("morphism")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(run=cmd_check_open)

    p = sub.add_parser("check-covering", help="open with unique lifts")
    p.add_argument("morphism")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(run=cmd_check_covering)

    p = sub.add_parser("lift", help="lift a tree-domain map through an open map")
    p.add_argument("g_morphism", help="map out of the tree")
    p.add_argument("f_morphism", help="open map with the same codomain")
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("dot", help="deterministic DOT export")
    p.add_argument("model")
    p.set_defaults(run=cmd_dot)
    return ap


def _run(args) -> int:
    try:
        return args.run(args)
    except PhdaError as e:
        doc = {"error": {"type": type(e).__name__, "detail": str(e)}}
        if hasattr(e, "violations"):
            doc["error"]["violations"] = [str(v) for v in e.violations]
        _emit(doc, f"error: {type(e).__name__}: {e}")
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that closed stdout early shows here at the latest
    except OSError as e:
        # exit 2 with no traceback; stdout now discards, so the flush at exit stays quiet
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write stdout: {e}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
