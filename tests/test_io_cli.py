import contextlib
import copy
import errno
import functools
import gc
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import phda
from phda import fixtures as F
from phda import jsonio
from phda.cli import main
from phda.colimits import colimit
from phda.errors import ModelInvalid, ParseError, PhdaError
from phda.model import Morphism, build
from phda.paths import enumerate_paths
from phda.unfolding import unfold
from phda.words import FUTURE, PAST, single

from oracles import finish_order_diagram


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        jsonio.save_json(str(p), doc)
        return str(p)

    return tmp_path, write


def test_model_roundtrip_all_fixtures(tmp_path):
    for name, mk in F.MODELS.items():
        x = mk()
        path = tmp_path / f"{name}.json"
        jsonio.save_json(str(path), jsonio.model_to_dict(x))
        assert jsonio.load_model(str(path)) == x, name


def test_operation_outputs_roundtrip(tmp_path):
    outputs = [
        colimit(F.glued_square_diagram()).model,
        unfold(F.full_square(), 3).tree,
    ]
    from phda.completion import complete

    outputs.append(complete(F.punctured_cube())[0])
    for k, x in enumerate(outputs):
        path = tmp_path / f"out{k}.json"
        jsonio.save_json(str(path), jsonio.model_to_dict(x))
        assert jsonio.load_model(str(path)) == x


def test_morphism_and_diagram_roundtrip(tmp_path):
    fold = F.branch_fold(2, 1)
    p = tmp_path / "fold.json"
    jsonio.save_json(str(p), jsonio.morphism_to_dict(fold))
    assert jsonio.load_morphism(str(p)) == fold
    d = F.glued_square_diagram()
    q = tmp_path / "diagram.json"
    jsonio.save_json(str(q), jsonio.diagram_to_dict(d))
    assert jsonio.load_diagram(str(q)) == d


def test_morphism_with_file_references(tmp_path):
    fold = F.branch_fold(2, 1)
    jsonio.save_json(str(tmp_path / "src.json"), jsonio.model_to_dict(fold.source))
    jsonio.save_json(str(tmp_path / "tgt.json"), jsonio.model_to_dict(fold.target))
    doc = {"source": "src.json", "target": "tgt.json", "map": fold.mapping}
    jsonio.save_json(str(tmp_path / "fold.json"), doc)
    assert jsonio.load_morphism(str(tmp_path / "fold.json")) == fold


def test_saturate_flag_closes_table(files):
    _, write = files
    doc = {
        "alphabet": ["a", "b"],
        "cells": [
            {"id": "q", "dim": 2, "label": ["a", "b"]},
            {"id": "e", "dim": 1, "label": ["b"]},
            {"id": "v", "dim": 0, "label": []},
            {"id": "i", "dim": 0, "label": []},
        ],
        "initial": "i",
        "faces": [
            {"from": "q", "word": [[1, 0]], "to": "e"},
            {"from": "e", "word": [[1, 0]], "to": "v"},
        ],
    }
    with pytest.raises(ModelInvalid) as err:
        jsonio.load_model(write("plain.json", doc))
    assert any(v.kind == "LaxLawViolation" for v in err.value.violations)
    x = jsonio.load_model(write("closed.json", dict(doc, saturate=True)))
    from phda.words import word

    assert x.faces[("q", word((1, 0), (2, 0)))] == "v"


def test_saturate_flag_on_generator_only_cube(files):
    # the punctured cube rebuilt from single faces alone: saturation must
    # re-derive every composite, including the far-vertex word
    _, write = files
    x = F.punctured_cube()
    doc = jsonio.model_to_dict(x)
    doc["faces"] = [e for e in doc["faces"] if len(e["word"]) == 1]
    doc["saturate"] = True
    loaded = jsonio.load_model(write("cube_gen.json", doc))
    assert loaded == x
    from phda.words import word

    assert loaded.faces[("***", word((1, 1), (2, 1), (3, 0)))] == "110"


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        jsonio.load_model(str(bad))
    empty = tmp_path / "missing_fields.json"
    empty.write_text("{}")
    with pytest.raises(ParseError):
        jsonio.load_model(str(empty))
    array = tmp_path / "array.json"
    array.write_text("[]")
    with pytest.raises(ParseError, match=r"array\.json: top level must be an object$"):
        jsonio.load_model(str(array))


def test_dot_export_contracts():
    point_dot = jsonio.export_dot(F.point())
    assert point_dot.count(" -> ") == 0 and point_dot.count("doublecircle") == 1
    sq_dot = jsonio.export_dot(F.full_square())
    assert sq_dot.count(" -> ") == 4
    assert sum(l.strip().startswith('"') and "circle" in l for l in sq_dot.splitlines()) == 4
    assert sum(l.strip().startswith("//") for l in sq_dot.splitlines()) == 1
    split_dot = jsonio.export_dot(F.split_segment())
    assert split_dot.count(" -> ") == 1
    assert split_dot.count("style=dashed") == 2


def old_export_dot(x):
    """`export_dot` as it was when it sorted the face table once per cell of dimension >= 2."""
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
    markers, arcs = [], []
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
    return "\n".join(lines + markers + arcs + ["}"]) + "\n"


# split_segment, notched_square, glued_square and double_square_tree have edges without an endpoint
DOT_MODELS = {**F.MODELS, "cube-4": lambda: F.cube(4), "cube-5": lambda: F.cube(5)}


@pytest.mark.parametrize("name", sorted(DOT_MODELS))
def test_dot_export_matches_the_per_cell_sort(name):
    x = DOT_MODELS[name]()
    assert jsonio.export_dot(x) == old_export_dot(x)


def test_dot_export_deterministic():
    a = jsonio.export_dot(F.glued_square())
    b = jsonio.export_dot(F.glued_square())
    assert a == b


DOT_STRING = r'"((?:[^"\\\n]|\\.)*)"'


def dot_unescape(text):
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def test_dot_export_escapes_quotes_backslashes_and_newlines(tmp_path):
    # every cell of the full square renamed with a quote and a backslash, higher cells with a newline too
    sq = F.full_square()
    odd = {cid: f'"{cid}\\' + ("\n" if "*" in cid else "") for cid in sq.cells}
    x = build(sq.alphabet, [(odd[c.id], c.dim, c.label) for c in sq.cells.values()], odd[sq.initial],
              [(odd[src], w, odd[tgt]) for (src, w), tgt in sq.faces.items()])
    dot = jsonio.export_dot(x)
    lines = dot.splitlines()
    assert len(lines) == len(jsonio.export_dot(sq).splitlines())
    nodes, arcs = {}, set()
    for line in lines[2:-1]:
        if line.startswith("  //"):
            continue
        node = re.fullmatch(rf"  {DOT_STRING} \[shape=(\w+)\];", line)
        arc = re.fullmatch(rf"  {DOT_STRING} -> {DOT_STRING} \[label={DOT_STRING}\];", line)
        assert node or arc, line
        if node:
            nodes[dot_unescape(node[1])] = node[2]
        else:
            arcs.add(tuple(dot_unescape(s) for s in arc.groups()))
    assert nodes == {odd[c]: "doublecircle" if c == "00" else "circle" for c in sq.cells_of_dim(0)}
    assert arcs == {
        (odd[sq.faces[(e, single(1, PAST))]], odd[sq.faces[(e, single(1, FUTURE))]], f"{''.join(sq.cells[e].label)} ({odd[e]})")
        for e in sq.cells_of_dim(1)
    }
    path = tmp_path / "odd.json"
    jsonio.save_json(str(path), jsonio.model_to_dict(x))
    assert cli(["dot", str(path)])[:2] == (0, dot)


def cli(args):
    from io import StringIO
    import contextlib

    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def model_files(tmp_path):
    paths = {}
    for name in ("full_square", "glued_square", "split_segment", "self_loop", "punctured_cube"):
        p = tmp_path / f"{name}.json"
        jsonio.save_json(str(p), jsonio.model_to_dict(F.MODELS[name]()))
        paths[name] = str(p)
    d = tmp_path / "diagram.json"
    jsonio.save_json(str(d), jsonio.diagram_to_dict(F.glued_square_diagram()))
    paths["diagram"] = str(d)
    orders = tmp_path / "finish_order_4.json"
    jsonio.save_json(str(orders), jsonio.diagram_to_dict(finish_order_diagram(4)))
    paths["finish_order_4"] = str(orders)
    fold = tmp_path / "fold.json"
    jsonio.save_json(str(fold), jsonio.morphism_to_dict(F.branch_fold(2, 1)))
    paths["fold"] = str(fold)
    cover = tmp_path / "cover.json"
    jsonio.save_json(str(cover), jsonio.morphism_to_dict(unfold(F.full_square(), 4).cover))
    paths["cover"] = str(cover)
    # the punctured cube's single faces, one vertex moved: closing the table meets a conflict
    doc = jsonio.model_to_dict(F.punctured_cube())
    doc["faces"] = [e for e in doc["faces"] if len(e["word"]) == 1]
    doc["faces"][-1]["to"] = "000"
    doc["saturate"] = True
    conflict = tmp_path / "saturate_conflict.json"
    jsonio.save_json(str(conflict), doc)
    paths["saturate_conflict"] = str(conflict)
    return paths


def test_cli_validate_and_decisions(model_files):
    code, out, _ = cli(["validate", model_files["full_square"]])
    assert code == 0 and json.loads(out)["ok"] is True
    assert cli(["is-tree", model_files["glued_square"]])[0] == 0
    assert cli(["is-tree", model_files["full_square"]])[0] == 1
    assert cli(["check-open", model_files["fold"]])[0] == 0
    assert cli(["check-covering", model_files["fold"]])[0] == 1
    assert cli(["check-covering", model_files["cover"], "--max-len", "3"])[0] == 0


def chain(n):
    """n a-edges in a row from v0."""
    cells, entries = [("v0", 0, ())], []
    for i in range(n):
        cells += [(f"e{i}", 1, ("a",)), (f"v{i + 1}", 0, ())]
        entries += [(f"e{i}", single(1, PAST), f"v{i}"), (f"e{i}", single(1, FUTURE), f"v{i + 1}")]
    return build("a", cells, "v0", entries)


def test_check_open_and_covering_default_to_the_exact_bound(files):
    """A chain of 8 a-edges into the chain with one more edge out of its end: no lift 16 steps in."""
    src = chain(8)
    _, write = files
    path = write("chain.json", jsonio.morphism_to_dict(Morphism(src, chain(9), {c: c for c in src.cells})))
    for command, key in (("check-open", "open"), ("check-covering", "covering")):
        code, out, err = cli([command, path])
        square = json.loads(out)["counterexample"]
        assert code == 1 and json.loads(out)[key] is False
        assert square.endswith("v8 | image extends by -(1,0)-> e8") and square in err
        assert cli([command, path, "--max-len", "15"])[0] == 0  # short of the 16 steps to v8


def test_paths_to_prints_the_executions_ending_at_the_cell(model_files):
    code, out, _ = cli(["paths", model_files["glued_square"], "--to", "B:4", "--max-len", "4"])
    expect = [p for p in enumerate_paths(F.glued_square(), 4) if p.end == "B:4"]
    assert code == 0 and json.loads(out)["paths"] == [jsonio.path_to_dict(p) for p in expect] and 0 < len(expect) < 7


def test_cli_structural_commands(model_files):
    code, out, _ = cli(["complete", model_files["split_segment"]])
    assert code == 0 and len(json.loads(out)["model"]["cells"]) == 5
    code, out, _ = cli(["paths", model_files["glued_square"], "--max-len", "4"])
    assert code == 0 and len(json.loads(out)["paths"]) == 7
    code, out, _ = cli(["homotopy", model_files["glued_square"], "--to", "B:4"])
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = cli(["unfold", model_files["self_loop"], "--depth", "3"])
    doc = json.loads(out)
    assert code == 0 and doc["truncated"] is True and len(doc["model"]["cells"]) == 4
    code, out, _ = cli(["colimit", model_files["diagram"]])
    assert code == 0 and len(json.loads(out)["model"]["cells"]) == 6
    code, out, _ = cli(["dot", model_files["glued_square"]])
    assert code == 0 and out.startswith("digraph")


def test_cli_lift(model_files, tmp_path):
    phi_path = tmp_path / "phi.json"
    d = F.glued_square_diagram()
    res = colimit(d)
    sq = F.full_square()
    from phda.colimits import mediate

    legs = {
        "A": Morphism(d.shape("A", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**"}),
        "B": Morphism(d.shape("B", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "1*", "4": "11"}),
        "C": Morphism(d.shape("C", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "*1", "4": "11"}),
    }
    jsonio.save_json(str(phi_path), jsonio.morphism_to_dict(mediate(d, res, legs)))
    code, out, _ = cli(["lift", str(phi_path), model_files["cover"]])
    assert code == 0 and len(json.loads(out)["map"]) == 6


def test_cli_error_exit_code(files):
    tmp_path, write = files
    doc = {
        "alphabet": ["a", "b"],
        "cells": [
            {"id": "q", "dim": 2, "label": ["a", "b"]},
            {"id": "e", "dim": 1, "label": ["b"]},
            {"id": "v", "dim": 0, "label": []},
            {"id": "i", "dim": 0, "label": []},
        ],
        "initial": "i",
        "faces": [
            {"from": "q", "word": [[1, 0]], "to": "e"},
            {"from": "e", "word": [[1, 0]], "to": "v"},
        ],
    }
    path = write("badlax.json", doc)
    code, out, err = cli(["validate", path])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ModelInvalid"
    missing = str(tmp_path / "nope.json")
    assert cli(["validate", missing])[0] == 2


def test_cli_reports_a_face_past_a_short_label(files):
    _, write = files
    doc = {
        "alphabet": ["a"],
        "cells": [{"id": "p", "dim": 0, "label": []}, {"id": "q", "dim": 1, "label": ["a"]},
                  {"id": "e", "dim": 2, "label": ["a"]}],
        "initial": "p",
        "faces": [{"from": "e", "word": [[2, 0]], "to": "q"}],
    }
    code, out, err = cli(["validate", write("short_label.json", doc)])
    assert code == 2 and err.startswith("error: ModelInvalid")
    error = json.loads(out)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == [
        "LabelViolation(e): label length differs from dimension", "LabelViolation(e,[(2,0)],q)"
    ]


def test_cli_reports_a_letter_outside_the_alphabet(files):
    _, write = files
    doc = {
        "alphabet": ["a"],
        "cells": [{"id": "p", "dim": 0, "label": []}, {"id": "e", "dim": 1, "label": ["b"]}],
        "initial": "p",
        "faces": [],
    }
    code, out, err = cli(["validate", write("stray_letter.json", doc)])
    assert code == 2 and err.startswith("error: ModelInvalid")
    error = json.loads(out)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == ["LabelViolation(e): letter 'b' not in alphabet"]


def test_cli_colimit_rejects_a_spine_step_direction_other_than_0_or_1(files):
    _, write = files
    doc = {"objects": {"A": {"labels": [[], ["a"]], "steps": [[1, 2]]}}, "arrows": []}
    code, out, _ = cli(["colimit", write("direction.json", doc)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidSpine"


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


MALFORMED_MODELS = {
    "dim is not a number": _set(("cells", 0, "dim"), "x"),
    "initial is a list": _set(("initial",), ["p"]),
    "cell id is a number": _set(("cells", 0, "id"), 5),
    "face source is a list": _set(("faces", 0, "from"), ["q"]),
    "face target is an object": _set(("faces", 0, "to"), {"a": 1}),
    "saturate is a string": _set(("saturate",), "false"),
    "dim is a fraction": _set(("cells", 0, "dim"), 0.5),
    "face index is a fraction": _set(("faces", 0, "word", 0, 0), 1.7),
    "face direction is a boolean": _set(("faces", 0, "word", 0, 1), True),
    "alphabet letter is a number": _set(("alphabet", 1), 3),
    "alphabet is a string": _set(("alphabet",), "ab"),
    "alphabet is an object": _set(("alphabet",), {"a": 1}),
    "cell id is listed twice": lambda doc: doc["cells"].append(dict(doc["cells"][0])),
    "cell label is a string": lambda doc: next(c for c in doc["cells"] if c["dim"] == 2).update(label="ab"),
}


@pytest.mark.parametrize("case", list(MALFORMED_MODELS))
def test_cli_malformed_model_is_parse_error(files, case):
    _, write = files
    doc = jsonio.model_to_dict(F.full_square())
    MALFORMED_MODELS[case](doc)
    code, out, _ = cli(["validate", write("malformed.json", doc)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def _retype(faces, pair, k):
    """Write the k-th entry whose word is [[1, 0]] with `pair` in place of the integers."""
    [e for e in faces if e["word"] == [[1, 0]]][k]["word"] = [pair]


@pytest.mark.parametrize("pair", [[True, 0], [1.0, 0], [1, False]])
def test_a_word_seen_with_integers_is_type_checked_again(files, pair):
    # (True, 0) == (1, 0) and they hash alike, so a word memo must check types before it looks up
    _, write = files
    doc = jsonio.model_to_dict(F.full_square())
    _retype(doc["faces"], pair, -1)
    code, out, _ = cli(["validate", write("late.json", doc)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    # the second file's first [[1, 0]] follows those of the first file
    fold = jsonio.morphism_to_dict(F.branch_fold(2, 1))
    first = write("fold.json", fold)
    _retype(fold["source"]["faces"], pair, 0)
    code, out, _ = cli(["lift", first, write("second.json", fold)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def _rekey(old, new):
    """Rename one key of the first arrow's map, in place of the old one."""
    def mutate(doc):
        arrow = doc["arrows"][0]
        arrow["map"] = {new if k == old else k: v for k, v in arrow["map"].items()}

    return mutate


MALFORMED_DIAGRAMS = {
    "arrow name is a number": _set(("arrows", 0, "name"), 7),
    "arrow source is a list": _set(("arrows", 0, "src"), ["A"]),
    "arrow target is null": _set(("arrows", 0, "dst"), None),
    "arrow map value is a fraction": _set(("arrows", 0, "map", "1"), 1.7),
    "arrow map value is a boolean": _set(("arrows", 0, "map", "1"), True),
    "arrow map key has a leading zero": _rekey("1", "01"),
    "arrow map key has a leading space": _rekey("2", " 2"),
    "arrow map key has a plus sign": _rekey("1", "+1"),
    "arrow map key has an underscore": _rekey("2", "0_2"),
    "arrow map key repeats a position": _set(("arrows", 0, "map", "01"), 1),
    "spine label is a string": _set(("objects", "A", "labels", 2), "ab"),
}


@pytest.mark.parametrize("case", list(MALFORMED_DIAGRAMS))
def test_cli_malformed_diagram_is_parse_error(files, case):
    _, write = files
    doc = jsonio.diagram_to_dict(F.glued_square_diagram())
    MALFORMED_DIAGRAMS[case](doc)
    code, out, _ = cli(["colimit", write("malformed.json", doc)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_cli_undecodable_file_is_parse_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    code, out, _ = cli(["validate", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_cli_deeply_nested_file_is_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, _ = cli(["validate", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="this interpreter parses 5,000-digit integers")
def test_cli_huge_integer_is_parse_error(tmp_path):
    doc = jsonio.model_to_dict(F.segment())
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"dim": 0', '"dim": ' + "1" * 5000, 1))
    code, out, _ = cli(["validate", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("command", ["check-open", "check-covering", "lift"])
def test_cli_morphism_map_key_outside_the_source_is_invalid(files, command):
    _, write = files
    doc = jsonio.morphism_to_dict(F.branch_fold(2, 1))
    doc["map"]["zz"] = doc["map"][doc["source"]["initial"]]
    path = write("stray.json", doc)
    code, out, _ = cli([command, path] + ([path] if command == "lift" else []))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == ["UnknownCell(zz): not a cell of the source"]


def test_malformed_morphism_and_diagram_are_parse_errors():
    doc = jsonio.morphism_to_dict(F.branch_fold(2, 1))
    for bad_map in ([1, 2], {"0": ["x"]}, [["p0", "p0"], ["p1", "p1"], ["e", "e"]], ["ab"]):
        with pytest.raises(ParseError):
            jsonio.morphism_from_dict(dict(doc, map=bad_map))
    doc = jsonio.diagram_to_dict(F.glued_square_diagram())
    with pytest.raises(ParseError):
        jsonio.diagram_from_dict(dict(doc, objects=[]))
    arrows = [dict(a, map=[1]) for a in doc["arrows"]]
    with pytest.raises(ParseError):
        jsonio.diagram_from_dict(dict(doc, arrows=arrows))
    fractional = dict(doc["objects"]["A"], steps=[[1.5, 0]] + doc["objects"]["A"]["steps"][1:])
    with pytest.raises(ParseError):
        jsonio.diagram_from_dict(dict(doc, objects=dict(doc["objects"], A=fractional)))


JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text("ab01*:AB", max_size=3)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab01*:", max_size=3), inner, max_size=3),
    max_leaves=6,
)
# relative model references in fuzzed morphisms resolve against a directory that does not exist
NOWHERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no-such-directory")


def _glue(doc):
    d = jsonio.diagram_from_dict(doc)
    return d, colimit(d)


# letter c labels no cell, so a wrongly typed letter in its place passes every model law
GENERATOR_ONLY_SQUARE = {
    "alphabet": ["a", "b", "c"],
    "cells": [{"id": c, "dim": c.count("*"), "label": [l for l, d in zip("ab", c) if d == "*"]}
              for c in ("00", "*0", "0*", "**")],
    "initial": "00",
    "faces": [{"from": "*0", "word": [[1, 0]], "to": "00"}, {"from": "**", "word": [[2, 0]], "to": "*0"},
              {"from": "**", "word": [[1, 0]], "to": "0*"}],
    "saturate": True,
}
# name: (loader, serialiser of its result, fixture document)
FUZZ_DOCS = {
    "model": (jsonio.model_from_dict, jsonio.model_to_dict, jsonio.model_to_dict(F.notched_square())),
    "saturated model": (jsonio.model_from_dict, jsonio.model_to_dict, GENERATOR_ONLY_SQUARE),
    "morphism": (
        functools.partial(jsonio.morphism_from_dict, base_dir=NOWHERE),
        jsonio.morphism_to_dict,
        jsonio.morphism_to_dict(F.branch_fold(2, 1)),
    ),
    "diagram and its colimit": (
        _glue,
        lambda glued: (jsonio.diagram_to_dict(glued[0]), jsonio.model_to_dict(glued[1].model)),
        jsonio.diagram_to_dict(F.glued_square_diagram()),
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_documents_load_or_fail_cleanly(data):
    """Replace one node of a fixture document: loading raises a PhdaError or gives a serialisable result."""
    load, dump, doc = FUZZ_DOCS[data.draw(st.sampled_from(sorted(FUZZ_DOCS)))]
    # a random walk down from the root, stopping at each node below it with probability 1/3,
    # so that every field of the format is hit about as often however long its lists are
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.integers(0, 2)) > 0):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    doc = copy.deepcopy(doc)
    _set(path, data.draw(JSON_VALUES))(doc)
    try:
        result = load(doc)
    except PhdaError:
        return
    json.dumps(dump(result))


def test_cli_paths_and_homotopy_reject_an_unknown_cell(model_files):
    docs = []
    for command in ("paths", "homotopy"):
        code, out, _ = cli([command, model_files["full_square"], "--to", "zz"])
        assert code == 2, command
        docs.append(json.loads(out))
    assert docs[0] == docs[1] == {"error": {"type": "UnknownCell", "detail": "'zz'"}}


@pytest.mark.parametrize(
    "args",
    [
        ["unfold", "full_square", "--depth", "-3"],
        ["paths", "full_square", "--max-len", "-2"],
        ["homotopy", "full_square", "--to", "11", "--max-len", "-1"],
        ["check-open", "fold", "--max-len", "-1"],
        ["check-covering", "fold", "--max-len", "-1"],
    ],
)
def test_cli_negative_bound_is_an_error(model_files, args):
    code, out, _ = cli([args[0], model_files[args[1]], *args[2:]])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidBound"


def child_env(**env):
    # the child imports the same package as this process, also when only pytest's pythonpath finds it
    src = os.path.dirname(os.path.dirname(phda.__file__))
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_module(args, **env):
    return subprocess.run([sys.executable, "-m", "phda", *args], capture_output=True, text=True, env=child_env(**env))


def test_cli_subprocess_entry():
    proc = run_module(["validate", "/nonexistent.json"])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"


_LOADED = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.removeprefix("phda.") for m in sys.modules if m.startswith("phda."))
import phda
package = loaded()
import phda.cli
cli = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = phda.cli.main(sys.argv[1:])
print(json.dumps([package, cli, code, loaded(), out.getvalue()]))
"""
BASE_MODULES = ["cli", "errors", "jsonio", "model", "words"]


def run_loaded(argv):
    """(modules after `import phda`, after `import phda.cli`, exit code, modules after the command, stdout)
    of one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, env=child_env(),
                          timeout=60)
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "args, extra",
    [
        (["complete", "split_segment"], ["completion", "uf"]),
        # a positive verdict builds no execution
        (["is-tree", "glued_square"], ["homotopy", "uf", "unfolding"]),
        (["check-open", "fold"], ["lifting"]),
        (["check-covering", "cover", "--max-len", "3"], ["lifting"]),
    ],
    ids=["complete", "is-tree", "check-open", "check-covering"],
)
def test_each_command_imports_only_the_modules_it_runs(model_files, args, extra):
    # a fresh interpreter per command: what it imports, it compiles at every start when bytecode is not cached
    package, cli, code, command, _ = run_loaded([args[0], model_files[args[1]], *args[2:]])
    assert (package, cli, code) == ([], BASE_MODULES, 0)
    assert command == sorted(BASE_MODULES + extra)


FAILED_SQUARES = {
    ("check-covering", "fold"):
        '{\n  "counterexample": "r | image extends by -(1,0)-> e0",\n  "covering": false,\n  "lifts": 2\n}\n',
    ("check-open", "chain"):
        '{\n  "counterexample": "v0 -(1,0)-> e0 -(1,1)-> v1 -(1,0)-> e1 -(1,1)-> v2 -(1,0)-> e2 -(1,1)-> v3'
        ' | image extends by -(1,0)-> e3",\n  "mode": "prefix",\n  "open": false\n}\n',
    ("check-covering", "chain"):
        '{\n  "counterexample": "v0 -(1,0)-> e0 -(1,1)-> v1 -(1,0)-> e1 -(1,1)-> v2 -(1,0)-> e2 -(1,1)-> v3'
        ' | image extends by -(1,0)-> e3",\n  "covering": false,\n  "lifts": 0\n}\n',
}


@pytest.mark.parametrize("command, name", FAILED_SQUARES, ids=[" ".join(k) for k in FAILED_SQUARES])
def test_a_failed_square_prints_its_execution(model_files, tmp_path, command, name):
    # chain: the chain of 3 edges into the chain of 4, where the square over the whole source chain has no lift
    src = chain(3)
    path = tmp_path / "chain.json"
    jsonio.save_json(str(path), jsonio.morphism_to_dict(Morphism(src, chain(4), {c: c for c in src.cells})))
    files = dict(model_files, chain=str(path))
    *_, code, command_modules, out = run_loaded([command, files[name]])
    assert (code, out) == (1, FAILED_SQUARES[command, name])
    assert "paths" in command_modules


@pytest.mark.parametrize(
    "args",
    [
        ["unfold", "glued_square", "--depth", "4"],
        ["is-tree", "full_square"],
        ["homotopy", "full_square", "--to", "11"],
        ["check-open", "fold"],
        ["check-covering", "fold"],
        ["is-tree", "punctured_cube"],
        # the cells that reach 110 are 8 of the punctured cube's 25
        ["homotopy", "punctured_cube", "--to", "110"],
        # commands whose output comes from face tables keyed by words
        ["complete", "punctured_cube"],
        ["colimit", "diagram"],
        ["validate", "saturate_conflict"],
        # 24 finishing orders: the runs into each class are a set of (class, word) pairs
        ["colimit", "finish_order_4"],
    ],
)
def test_cli_output_independent_of_hash_seed(model_files, args):
    argv = [args[0], model_files[args[1]], *args[2:]]
    first, second = (run_module(argv, PYTHONHASHSEED=seed) for seed in ("0", "1"))
    assert (first.returncode, first.stdout) == (second.returncode, second.stdout)


def test_cli_output_deterministic(model_files):
    a = cli(["colimit", model_files["diagram"]])
    b = cli(["colimit", model_files["diagram"]])
    assert a == b


class UnwritableStdout(io.StringIO):
    """A stdout whose every write raises OSError; its file descriptor is a spare one on the null device."""

    def __init__(self):
        super().__init__()
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def write(self, text):
        raise OSError(errno.EIO, "stdout is gone")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
def test_cli_runs_without_the_collector_and_restores_the_callers_state(model_files, monkeypatch, collecting):
    seen = []
    load = jsonio.load_model

    def load_and_look(path):
        seen.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(jsonio, "load_model", load_and_look)
    square = model_files["full_square"]
    broken = UnwritableStdout()
    runs = [
        (["validate", square], None, 0),
        (["is-tree", square], None, 1),
        (["validate", "/nonexistent.json"], None, 2),  # a PhdaError
        (["is-tree", square], broken, 2),  # the OSError branch
        (["no-such-command"], None, SystemExit),  # argparse
    ]
    was = gc.isenabled()
    try:
        for argv, stdout, expected in runs:
            (gc.enable if collecting else gc.disable)()
            with contextlib.redirect_stdout(stdout or io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if expected is SystemExit:
                    with pytest.raises(SystemExit):
                        main(argv)
                else:
                    assert main(argv) == expected, argv
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was else gc.disable)()
        os.close(broken.fd)
    assert seen == [False] * 4


def test_an_unwritable_stdout_leaves_no_descriptor_open(model_files):
    broken = UnwritableStdout()
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with contextlib.redirect_stdout(broken), contextlib.redirect_stderr(io.StringIO()):
                assert main(["is-tree", model_files["full_square"]]) == 2
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(broken.fd)


def test_cli_closed_stdout_exits_2_without_traceback(tmp_path):
    path = tmp_path / "loop.json"
    jsonio.save_json(str(path), jsonio.model_to_dict(F.self_loop()))
    # about 200 kB of output, more than a pipe holds, so the reader closes it mid-write
    proc = subprocess.Popen([sys.executable, "-m", "phda", "unfold", str(path), "--depth", "1000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.read(10) == b'{\n  "cover'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_full_stdout_exits_2_without_traceback(tmp_path):
    path = tmp_path / "cube.json"
    jsonio.save_json(str(path), jsonio.model_to_dict(F.full_cube()))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "phda", "is-tree", str(path)], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_saturate_rejects_a_face_that_keeps_the_dimension(tmp_path):
    # edge e lists itself as its past face: closing that table would never end
    doc = {
        "alphabet": ["a"],
        "cells": [{"id": "v", "dim": 0, "label": []}, {"id": "e", "dim": 1, "label": ["a"]}],
        "initial": "v",
        "faces": [{"from": "e", "word": [[1, 0]], "to": "e"}, {"from": "e", "word": [[1, 1]], "to": "v"}],
        "saturate": True,
    }
    path = tmp_path / "loop.json"
    jsonio.save_json(str(path), doc)
    proc = subprocess.run([sys.executable, "-m", "phda", "validate", str(path)], capture_output=True, text=True,
                          env=child_env(), timeout=60, preexec_fn=_cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == ["DimensionMismatch(e,[(1,0)],e)"]


def test_saturate_rejects_unknown_cells_before_closing(files):
    _, write = files
    doc = jsonio.model_to_dict(F.full_square())
    doc["faces"] = [e for e in doc["faces"] if len(e["word"]) == 1]
    doc["faces"][0]["to"] = "zz"
    doc["saturate"] = True
    code, out, _ = cli(["validate", write("unknown.json", doc)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == ["UnknownCell(**,[(1,0)],zz)"]


def test_loader_reports_repeated_keys_and_non_identity_empty_words_in_entry_order(files):
    _, write = files
    doc = jsonio.model_to_dict(F.full_square())
    doc["faces"] += [{"from": "**", "word": [[1, 0]], "to": "*0"}, {"from": "0*", "word": [], "to": "00"}]
    code, out, _ = cli(["validate", write("duplicates.json", doc)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ModelInvalid"
    assert error["violations"] == [
        "NotFunctional(**,[(1,0)]): targets 0* and *0",
        "NotFunctional(0*,[],00): empty word must be the identity",
    ]
