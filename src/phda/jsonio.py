"""JSON interchange for models, morphisms, and diagrams, plus DOT export.

Model files carry an optional "saturate" flag: when true the loader
closes the face table under composition before validating, which makes
hand-written fixtures practical.  Morphism files may reference their
endpoint models inline or by a path relative to the file.
"""
from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, TextIO

from .errors import ModelInvalid, ParseError
from .model import PHDA, Cell, Morphism, Violation, face_table, saturate, validate_morphism, validate_phda
from .words import FUTURE, PAST, FaceWord, single

if TYPE_CHECKING:  # the decision modules load only with the commands that run them
    from .colimits import Diagram
    from .homotopy import HomotopyClass
    from .paths import Path, Spine


def _label(raw: Any) -> tuple[str, ...]:
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


def _word(raw: Any, words: dict[tuple, FaceWord]) -> FaceWord:
    """The word of a list of [index, direction] pairs, memoised in `words` by its pairs."""
    try:
        pairs = tuple([(i, a) for i, a in raw if type(i) is int and type(a) is int])
        if len(pairs) != len(raw):  # `true` and `1.0` equal 1, so types are checked before the memo
            pairs = tuple((_int(i, "face index"), _int(a, "face direction")) for i, a in raw)
        w = words.get(pairs)
        return w if w is not None else words.setdefault(pairs, FaceWord(pairs))
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad face word {raw!r}: {e}") from None


def model_from_dict(doc: dict) -> PHDA:
    try:
        if type(doc["alphabet"]) is not list:
            raise ParseError(f"alphabet must be a list of letters: {doc['alphabet']!r}")
        alphabet = frozenset(_str(l, "letter") for l in doc["alphabet"])
        cells: dict[str, Cell] = {}
        for c in doc["cells"]:
            cell = Cell(_str(c["id"]), _int(c["dim"], "dim"), _label(c["label"]))
            if cells.setdefault(cell.id, cell) is not cell:
                raise ParseError(f"repeated cell id: {cell.id!r}")
        initial = _str(doc["initial"])
        words: dict[tuple, FaceWord] = {}
        raw_entries = [(_str(e["from"]), _word(e["word"], words), _str(e["to"])) for e in doc.get("faces", [])]
        close = doc.get("saturate", False)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed model document: {e!r}") from None
    if not isinstance(close, bool):
        raise ParseError(f"saturate must be true or false: {close!r}")
    if close:
        # an entry must name known cells and lower the dimension by its length, so the closure is finite
        bad = []
        for x, w, y in raw_entries:
            if x not in cells or y not in cells:
                bad.append(Violation("UnknownCell", (x, w.text(), y)))
            elif w and (w.max_index > cells[x].dim or cells[y].dim != cells[x].dim - len(w)):
                bad.append(Violation("DimensionMismatch", (x, w.text(), y)))
        if bad:
            raise ModelInvalid(bad)
    x = PHDA(alphabet, cells, initial, saturate(raw_entries) if close else face_table(raw_entries))
    bad = validate_phda(x)
    if bad:
        raise ModelInvalid(bad)
    return x


def model_to_dict(x: PHDA) -> dict:
    return {
        "alphabet": sorted(x.alphabet),
        "cells": [
            {"id": c.id, "dim": c.dim, "label": list(c.label)}
            for c in sorted(x.cells.values(), key=lambda c: (c.dim, c.id))
        ],
        "initial": x.initial,
        "faces": [
            {"from": a, "word": [list(p) for p in w], "to": b}
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
        mapping = {_str(k): _str(v) for k, v in doc["map"].items()}
        f = Morphism(resolve(doc["source"]), resolve(doc["target"]), mapping)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed morphism document: {e!r}") from None
    bad = validate_morphism(f)
    if bad:
        raise ModelInvalid(bad)
    return f


def morphism_to_dict(f: Morphism) -> dict:
    return {
        "source": model_to_dict(f.source),
        "target": model_to_dict(f.target),
        "map": map_to_dict(f),
    }


def map_to_dict(f: Morphism) -> dict[str, str]:
    """The cell map of f, in key order."""
    return dict(sorted(f.mapping.items()))


def load_morphism(path: str) -> Morphism:
    return morphism_from_dict(_read_json(path), os.path.dirname(os.path.abspath(path)))


def spine_from_dict(doc: dict) -> Spine:
    from .paths import Spine
    try:
        labels = [_label(w) for w in doc["labels"]]
        steps = tuple((_int(j, "step index"), _int(a, "step direction")) for j, a in doc["steps"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed spine: {e!r}") from None
    return Spine(tuple((len(w), w) for w in labels), steps)


def spine_to_dict(s: Spine) -> dict:
    return {"labels": [list(w) for _, w in s.entries], "steps": [list(st) for st in s.steps]}


def path_to_dict(p: Path) -> dict:
    return {"cells": list(p.cells), "steps": [list(s) for s in p.steps], "text": p.text()}


def class_to_dict(c: HomotopyClass) -> dict:
    """A record of the `homotopy` command; `_class_text` writes exactly this layout."""
    return {"representative": path_to_dict(c.representative), "size": c.size}


def diagram_from_dict(doc: dict) -> Diagram:
    from .colimits import Arrow, Diagram
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"{path}: {e}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


_MODEL_KEYS = {"alphabet", "cells", "faces", "initial", "saturate"}
_ENTRY_KEYS = {"cells": ("dim", "id", "label"), "faces": ("from", "to", "word")}
_CLASS_KEYS = {"representative", "size"}  # the keys of `class_to_dict`
_CHUNK = 100  # list items per write: a few tens of kB, so writing adds little to peak memory


def _dumps(value: Any, ind: str) -> str:
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def _is_model(value: Any) -> bool:
    return type(value) is dict and value.keys() == _MODEL_KEYS


def _is_classes(value: Any) -> bool:
    return type(value) is list and bool(value) and type(value[0]) is dict and value[0].keys() == _CLASS_KEYS


def write_json(fh: TextIO, doc: Any, ind: str = "") -> None:
    """Write the text of `json.dump(doc, fh, indent=2, sort_keys=True)`; `ind` indents a nested value.

    A model document (a dict with the keys of `model_to_dict`), at the top
    level or as a top-level value, is written key by key, and its cells
    and faces `_CHUNK` at a time from one template each; so is a top-level
    list of homotopy class records.  In a template, strings come from the
    C encoder, other values from `json.dumps` once per distinct repr.  An
    item without exactly the template's keys, and every other value, is
    `json.dumps`, re-indented.  The keys of a document that holds a model
    or class records must be strings.
    """
    model = _is_model(doc)
    holds = not ind and type(doc) is dict and any(_is_model(v) or _is_classes(v) for v in doc.values())
    if not (model or holds):
        fh.write(_dumps(doc, ind))
        return
    sep = "{"
    for k in sorted(doc):
        fh.write(f"{sep}\n{ind}  {encode_basestring_ascii(k)}: ")
        if model and k in _ENTRY_KEYS and type(doc[k]) is list and doc[k]:
            _write_items(fh, doc[k], ind + "  ", _entry_text(ind + "    ", _ENTRY_KEYS[k]))
        elif not model and _is_classes(doc[k]):
            _write_items(fh, doc[k], ind + "  ", _class_text(ind + "    "))
        else:
            write_json(fh, doc[k], ind + "  ")
        sep = ","
    fh.write(f"\n{ind}}}")


def _value_text(ind: str) -> Callable[[Any], str]:
    """The JSON text of a value at indent `ind`, memoised by repr (equal reprs, equal text)."""
    memo: dict[str, str] = {}

    def text(v: Any) -> str:
        if type(v) is str:
            return encode_basestring_ascii(v)
        r = repr(v)
        if r not in memo:
            memo[r] = _dumps(v, ind)
        return memo[r]

    return text


def _entry_text(i: str, keys: tuple[str, str, str]) -> Callable[[Any], str]:
    """A model entry at indent `i`: a dict of exactly three keys."""
    template = "\n{0}{{\n{0}  \"{1}\": %s,\n{0}  \"{2}\": %s,\n{0}  \"{3}\": %s\n{0}}}".format(i, *keys)
    text = _value_text(i + "  ")

    def entry(e: Any) -> str:
        if len(e) != 3:
            raise TypeError
        return template % (text(e[keys[0]]), text(e[keys[1]]), text(e[keys[2]]))

    return entry


def _class_text(i: str) -> Callable[[Any], str]:
    """A class record at indent `i`: {"representative": {"cells", "steps", "text"}, "size"}."""
    template = (
        '\n{0}{{\n{0}  "representative": {{\n{0}    "cells": %s,\n{0}    "steps": %s,\n'
        '{0}    "text": %s\n{0}  }},\n{0}  "size": %s\n{0}}}'
    ).format(i)
    size, field, item = (_value_text(i + "  " * k) for k in (1, 2, 3))  # values by their key's indent
    sep, close = ",\n" + i + "      ", "\n" + i + "    ]"

    def items(v: Any) -> str:  # a list of the path document, one item a line
        return "[" + sep[1:] + sep.join(map(item, v)) + close if type(v) is list and v else field(v)

    def record(c: Any) -> str:
        rep = c["representative"]
        if len(c) != 2 or len(rep) != 3:
            raise TypeError
        return template % (items(rep["cells"]), items(rep["steps"]), field(rep["text"]), size(c["size"]))

    return record


def _write_items(fh: TextIO, items: list, ind: str, item_text: Callable[[Any], str]) -> None:
    """Write a non-empty list at indent `ind`, `_CHUNK` items at a time."""
    i = ind + "  "
    out, sep = [], "["
    for e in items:
        try:
            out.append(sep + item_text(e))
        except (KeyError, TypeError):
            out.append(f"{sep}\n{i}{_dumps(e, i)}")
        sep = ","
        if len(out) == _CHUNK:
            fh.write("".join(out))
            out.clear()
    out.append(f"\n{ind}]")
    fh.write("".join(out))


def save_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, doc)
        fh.write("\n")


def _dot_escape(text: str) -> str:
    """`text` with backslashes, double quotes and newlines escaped for a DOT string or comment."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(x: PHDA) -> str:
    """Vertices as nodes, edges as arrows, higher cells as a comment block.

    An edge missing an endpoint gets a dashed anonymous marker node.
    Output is byte-identical across runs for equal models.  Ids and labels
    are escaped, so any id gives a valid document.
    """
    lines = ["digraph model {", "  rankdir=LR;"]
    singles: dict[str, list[str]] = {}
    for (src, w), y in sorted(x.faces.items(), key=lambda kv: kv[0][1]):
        if len(w) == 1:
            singles.setdefault(src, []).append(f"{w.text()}->{y}")
    for cid in sorted(c.id for c in x.cells.values() if c.dim >= 2):
        cell = x.cells[cid]
        bounds = " ".join(singles.get(cid, ()))
        lines.append(_dot_escape(f"  // cell {cid} dim={cell.dim} label={''.join(cell.label)} faces: {bounds}"))
    for cid in x.cells_of_dim(0):
        shape = "doublecircle" if cid == x.initial else "circle"
        lines.append(f'  "{_dot_escape(cid)}" [shape={shape}];')
    markers: list[str] = []
    arcs: list[str] = []
    for eid in x.cells_of_dim(1):
        src = x.faces.get((eid, single(1, PAST)))
        tgt = x.faces.get((eid, single(1, FUTURE)))
        if src is None:
            src = f"{eid}.src"
            markers.append(f'  "{_dot_escape(src)}" [shape=point, style=dashed, label=""];')
        if tgt is None:
            tgt = f"{eid}.tgt"
            markers.append(f'  "{_dot_escape(tgt)}" [shape=point, style=dashed, label=""];')
        label = _dot_escape(f"{''.join(x.cells[eid].label)} ({eid})")
        arcs.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(tgt)}" [label="{label}"];')
    lines.extend(markers)
    lines.extend(arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"
