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
from .model import PHDA, Cell, Morphism, entry_violation, face_table, saturate, validate_morphism, validate_phda
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
    # closing needs known cells and words that lower dimensions, or it may not end; the closed table reports the rest
    found = [entry_violation(cells, *e) for e in raw_entries] if close else []
    bad = [v for v in found if v and v.kind in ("UnknownCell", "DimensionMismatch")]
    if not bad:
        x = PHDA(alphabet, cells, initial, saturate(raw_entries) if close else face_table(raw_entries))
        bad = validate_phda(x)
    if bad:
        raise ModelInvalid(bad)
    return x


def model_to_dict(x: PHDA) -> dict:
    """The document of x.  Records share lists, one per distinct label and one per distinct face word, so a
    caller who edits one of them in place changes every record that holds it."""
    labels = {l: list(l) for l in {c.label for c in x.cells.values()}}
    words = {w: [list(p) for p in w] for w in {w for _, w in x.faces}}
    return {
        "alphabet": sorted(x.alphabet),
        "cells": [
            {"id": c.id, "dim": c.dim, "label": labels[c.label]}
            for c in sorted(x.cells.values(), key=lambda c: (c.dim, c.id))
        ],
        "initial": x.initial,
        "faces": [{"from": a, "word": words[w], "to": b} for a, w, b in x.entries()],
        "saturate": False,
    }


def load_model(path: str) -> PHDA:
    return model_from_dict(_read_json(path))


def morphism_from_dict(doc: dict, base_dir: str = ".", models: dict[str, PHDA] | None = None) -> Morphism:
    """The morphism of `doc`, its models inline or by paths relative to `base_dir`.  `models` holds the models
    loaded so far by path: a file named twice, in one document or in the maps read with one `models`, loads once."""
    models = {} if models is None else models

    def resolve(ref: Any) -> PHDA:
        if isinstance(ref, str):
            path = os.path.join(base_dir, ref)
            if path not in models:
                models[path] = load_model(path)
            return models[path]
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


def load_morphism(path: str, models: dict[str, PHDA] | None = None) -> Morphism:
    return morphism_from_dict(_read_json(path), os.path.dirname(os.path.abspath(path)), models)


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
    """A record of the `homotopy` command."""
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


_CHUNK = 100  # list items per write: a few tens of kB, so writing adds little to peak memory


def _dumps(value: Any, ind: str) -> str:
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def _is_record(value: Any) -> bool:
    return type(value) is dict and bool(value) and all(type(k) is str for k in value)


def write_json(fh: TextIO, doc: Any) -> None:
    """Write the text of `json.dump(doc, fh, indent=2, sort_keys=True)`.

    A record, a non-empty dict whose keys are all strings, is written a key (and scalar value) a write; a list
    whose first item is a record, `_CHUNK` items a write from one template of that record's layout, and an item
    the template does not fit is `json.dumps`, re-indented.  Other values, by one `_value_text` per indent.
    """
    texts: dict[str, Callable[[Any], str]] = {}

    def write(doc: Any, ind: str) -> None:
        i = ind + "  "
        if _is_record(doc):
            text, sep = texts.get(i) or texts.setdefault(i, _value_text(i)), "{"
            for k in sorted(doc):
                head, v = f"{sep}\n{i}{encode_basestring_ascii(k)}: ", doc[k]
                if type(v) in (dict, list):
                    fh.write(head)
                    write(v, i)
                else:
                    fh.write(head + text(v))
                sep = ","
            fh.write(f"\n{ind}}}")
        elif type(doc) is list and doc and _is_record(doc[0]):
            record, sep, lead = _record_text(doc[0], i), ",\n" + i, "[\n" + i

            def fit(e: Any) -> str:
                try:
                    return record(e)
                except (KeyError, TypeError):
                    return _dumps(e, i)

            for k in range(0, len(doc), _CHUNK):
                try:
                    fh.write(lead + sep.join(map(record, doc[k : k + _CHUNK])))
                except (KeyError, TypeError):  # an item the template does not fit: the chunk again, item by item
                    fh.write(lead + sep.join(map(fit, doc[k : k + _CHUNK])))
                lead = sep
            fh.write(f"\n{ind}]")
        else:
            fh.write((texts.get(ind) or texts.setdefault(ind, _value_text(ind)))(doc))

    write(doc, "")


def _value_text(ind: str) -> Callable[[Any], str]:
    """The JSON text of a value at indent `ind`.  A non-empty list is written an item a line, its items by
    a `_value_text` of their own.  Lists are memoised by identity (the memo holds each list, so no other
    list takes its id); once `_CHUNK` lists have gone in and none came back, by repr, and after `_CHUNK`
    more such misses not at all.  Other values are memoised by repr (equal reprs, equal text)."""
    memo, lists = {}, {}  # text by repr; (list, text) by `key`
    key, items, sep, hit = id, None, ",\n" + ind + "  ", False

    def text(v: Any) -> str:
        nonlocal items, lists, key, hit
        if type(v) is str:
            return encode_basestring_ascii(v)
        if type(v) is not list or not v:
            t = memo.get(r := repr(v))
            return t if t is not None else memo.setdefault(r, _dumps(v, ind))
        if seen := key and lists.get(k := key(v)):
            hit = True
            return seen[1]
        items = items or _value_text(ind + "  ")
        t = "[" + sep[1:] + sep.join(map(items, v)) + "\n" + ind + "]"
        if key:
            lists[k] = v, t
            if len(lists) == _CHUNK and not hit:  # each record has lists of its own
                lists, key = {}, repr if key is id else None
        return t

    return text


def _record_text(first: dict, i: str) -> Callable[[Any], str]:
    """The text at indent `i` of a dict with the keys of `first`, nested records by templates of their own;
    an item of another layout raises KeyError or TypeError, and so does a value that is not a string where
    `first` has one."""
    keys = sorted(first)
    fields = [_record_text(first[k], i + "  ") if _is_record(first[k]) else encode_basestring_ascii
              if type(first[k]) is str else _value_text(i + "  ") for k in keys]
    template = "{" + ",".join(f"\n{i}  {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys) + f"\n{i}}}"

    def record(e: Any) -> str:
        if type(e) is not dict or len(e) != len(keys):
            raise TypeError
        return template % tuple([f(e[k]) for k, f in zip(keys, fields)])

    if len(keys) != 3:
        return record
    (k0, k1, k2), (f0, f1, f2) = keys, fields

    def record3(e: Any) -> str:  # cells, faces, paths and class representatives, in a quarter less time
        if type(e) is not dict or len(e) != 3:
            raise TypeError
        return template % (f0(e[k0]), f1(e[k1]), f2(e[k2]))

    return record3


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
