"""JSON interchange for models, morphisms, and diagrams, plus DOT export.

Model files carry an optional "saturate" flag: when true the loader
closes the face table under composition before validating, which makes
hand-written fixtures practical.  Morphism files may reference their
endpoint models inline or by a path relative to the file.
"""
from __future__ import annotations

import json
import os
from typing import Any

from .colimits import Arrow, Diagram
from .errors import ModelInvalid, ParseError
from .model import PHDA, Cell, Morphism, Violation, check_phda, saturate, validate_morphism
from .paths import Spine
from .words import FUTURE, PAST, FaceWord, single


def _label(raw: Any) -> tuple[str, ...]:
    if isinstance(raw, str):
        return tuple(raw)
    if isinstance(raw, list) and all(isinstance(l, str) for l in raw):
        return tuple(raw)
    raise ParseError(f"label must be a list of letters: {raw!r}")


def _str(raw: Any, what: str = "cell id") -> str:
    if isinstance(raw, str):
        return raw
    raise ParseError(f"{what} must be a string: {raw!r}")


def _int(raw: Any, what: str) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ParseError(f"{what} must be an integer: {raw!r}")


def _position(raw: str) -> int:
    if str(int(raw)) != raw:
        raise ParseError(f"arrow map key must be a canonical decimal: {raw!r}")
    return int(raw)


def _word(raw: Any) -> FaceWord:
    try:
        return FaceWord(tuple((_int(i, "face index"), _int(a, "face direction")) for i, a in raw))
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad face word {raw!r}: {e}") from None


def model_from_dict(doc: dict) -> PHDA:
    try:
        alphabet = frozenset(_str(l, "letter") for l in doc["alphabet"])
        cells: dict[str, Cell] = {}
        for c in doc["cells"]:
            cell = Cell(_str(c["id"]), _int(c["dim"], "dim"), _label(c["label"]))
            if cells.setdefault(cell.id, cell) is not cell:
                raise ParseError(f"repeated cell id: {cell.id!r}")
        initial = _str(doc["initial"])
        raw_entries = [(_str(e["from"]), _word(e["word"]), _str(e["to"])) for e in doc.get("faces", [])]
        close = doc.get("saturate", False)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed model document: {e!r}") from None
    if not isinstance(close, bool):
        raise ParseError(f"saturate must be true or false: {close!r}")
    if close:
        faces = saturate(raw_entries)
    else:
        faces = {}
        dups = []
        for x, w, y in raw_entries:
            if len(w) == 0:
                if y != x:
                    dups.append(Violation("NotFunctional", (x, w.text(), y)))
                continue
            if faces.setdefault((x, w), y) != y:
                dups.append(Violation("NotFunctional", (x, w.text()), f"targets {faces[(x, w)]} and {y}"))
        if dups:
            raise ModelInvalid(dups)
    return check_phda(PHDA(alphabet=alphabet, cells=cells, initial=initial, faces=faces))


def model_to_dict(x: PHDA) -> dict:
    return {
        "alphabet": sorted(x.alphabet),
        "cells": [
            {"id": c.id, "dim": c.dim, "label": list(c.label)}
            for c in sorted(x.cells.values(), key=lambda c: (c.dim, c.id))
        ],
        "initial": x.initial,
        "faces": [
            {"from": a, "word": [list(p) for p in w.pairs], "to": b}
            for a, w, b in x.entries()
        ],
        "saturate": False,
    }


def load_model(path: str) -> PHDA:
    return model_from_dict(_read_json(path))


def morphism_from_dict(doc: dict, base_dir: str = ".") -> Morphism:
    def resolve(ref: Any) -> PHDA:
        if isinstance(ref, str):
            return load_model(os.path.join(base_dir, ref))
        if isinstance(ref, dict):
            return model_from_dict(ref)
        raise ParseError(f"model reference must be a path or an inline object: {ref!r}")

    try:
        mapping = {_str(k): _str(v) for k, v in dict(doc["map"]).items()}
        f = Morphism(resolve(doc["source"]), resolve(doc["target"]), mapping)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed morphism document: {e!r}") from None
    bad = validate_morphism(f)
    if bad:
        raise ModelInvalid(bad)
    return f


def morphism_to_dict(f: Morphism) -> dict:
    return {
        "source": model_to_dict(f.source),
        "target": model_to_dict(f.target),
        "map": {k: f.mapping[k] for k in sorted(f.mapping)},
    }


def load_morphism(path: str) -> Morphism:
    return morphism_from_dict(_read_json(path), os.path.dirname(os.path.abspath(path)))


def spine_from_dict(doc: dict) -> Spine:
    try:
        labels = [_label(w) for w in doc["labels"]]
        steps = tuple((_int(j, "step index"), _int(a, "step direction")) for j, a in doc["steps"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed spine: {e!r}") from None
    return Spine(tuple((len(w), w) for w in labels), steps)


def spine_to_dict(s: Spine) -> dict:
    return {"labels": [list(w) for _, w in s.entries], "steps": [list(st) for st in s.steps]}


def diagram_from_dict(doc: dict) -> Diagram:
    try:
        objects = {u: spine_from_dict(s) for u, s in doc["objects"].items()}
        arrows = tuple(
            Arrow(_str(a["name"], "arrow name"), _str(a["src"], "arrow source"), _str(a["dst"], "arrow target"),
                  {_position(k): _int(v, "arrow map value") for k, v in a["map"].items()})
            for a in doc.get("arrows", [])
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed diagram document: {e!r}") from None
    return Diagram(objects=objects, arrows=arrows)


def diagram_to_dict(d: Diagram) -> dict:
    return {
        "objects": {u: spine_to_dict(s) for u, s in sorted(d.objects.items())},
        "arrows": [
            {"name": a.name, "src": a.src, "dst": a.dst, "map": {str(k): v for k, v in sorted(a.cell_map.items())}}
            for a in d.arrows
        ],
    }


def load_diagram(path: str) -> Diagram:
    return diagram_from_dict(_read_json(path))


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def save_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_dot(x: PHDA) -> str:
    """Vertices as nodes, edges as arrows, higher cells as a comment block.

    An edge missing an endpoint gets a dashed anonymous marker node.
    Output is byte-identical across runs for equal models.
    """
    lines = ["digraph model {", "  rankdir=LR;"]
    for cid in sorted(c.id for c in x.cells.values() if c.dim >= 2):
        cell = x.cells[cid]
        bounds = " ".join(
            f"{w.text()}->{y}" for (src, w), y in sorted(x.faces.items(), key=lambda kv: (kv[0][0], kv[0][1].pairs))
            if src == cid and len(w) == 1
        )
        lines.append(f"  // cell {cid} dim={cell.dim} label={''.join(cell.label)} faces: {bounds}")
    for cid in x.cells_of_dim(0):
        shape = "doublecircle" if cid == x.initial else "circle"
        lines.append(f'  "{cid}" [shape={shape}];')
    markers: list[str] = []
    arcs: list[str] = []
    for eid in x.cells_of_dim(1):
        src = x.faces.get((eid, single(1, PAST)))
        tgt = x.faces.get((eid, single(1, FUTURE)))
        if src is None:
            src = f"{eid}.src"
            markers.append(f'  "{src}" [shape=point, style=dashed, label=""];')
        if tgt is None:
            tgt = f"{eid}.tgt"
            markers.append(f'  "{tgt}" [shape=point, style=dashed, label=""];')
        arcs.append(f'  "{src}" -> "{tgt}" [label="{"".join(x.cells[eid].label)} ({eid})"];')
    lines.extend(markers)
    lines.extend(arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"
