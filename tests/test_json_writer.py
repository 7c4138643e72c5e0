"""`jsonio.write_json` writes exactly the bytes of `json.dump(doc, fh, indent=2, sort_keys=True)`."""
import copy
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from phda import fixtures as F
from phda import jsonio
from phda.cli import main
from phda.homotopy import classes_to
from phda.paths import enumerate_paths
from phda.unfolding import unfold

from oracles import finish_order_diagram


def written(doc):
    out = io.StringIO()
    jsonio.write_json(out, doc)
    return out.getvalue()


def assert_same(doc):
    assert written(doc) == json.dumps(doc, indent=2, sort_keys=True)


MORPHISMS = {
    "branch_fold": F.branch_fold(2, 1),
    "loop_unrolling": F.loop_unrolling(2),
    "square_cover": unfold(F.full_square(), 4).cover,
    "double_square_fold": F.double_square_fold(),
}


@pytest.mark.parametrize("name", sorted(F.MODELS))
def test_fixture_model_documents(name):
    assert_same(jsonio.model_to_dict(F.MODELS[name]()))


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_fixture_morphism_documents(name):
    assert_same(jsonio.morphism_to_dict(MORPHISMS[name]))


def test_fixture_diagram_document():
    assert_same(jsonio.diagram_to_dict(F.glued_square_diagram()))


@pytest.mark.parametrize("n", [3, 4])
def test_finish_order_diagram_documents(n):
    assert_same(jsonio.diagram_to_dict(finish_order_diagram(n)))


def unshared_model_dict(x):
    """`model_to_dict` as it was before records shared lists: fresh lists for every record."""
    return {
        "alphabet": sorted(x.alphabet),
        "cells": [{"id": c.id, "dim": c.dim, "label": list(c.label)} for c in sorted(x.cells.values(),
                                                                                  key=lambda c: (c.dim, c.id))],
        "initial": x.initial,
        "faces": [{"from": a, "word": [list(p) for p in w], "to": b} for a, w, b in x.entries()],
        "saturate": False,
    }


@pytest.mark.parametrize("name", sorted(F.MODELS))
def test_model_documents_share_one_list_per_word_and_label(name):
    x = F.MODELS[name]()
    doc = jsonio.model_to_dict(x)
    assert doc == copy.deepcopy(doc) == unshared_model_dict(x)
    assert written(doc) == written(unshared_model_dict(x))
    words, labels = {}, {}
    for e in doc["faces"]:
        assert words.setdefault(json.dumps(e["word"]), e["word"]) is e["word"]
    for c in doc["cells"]:
        assert labels.setdefault(json.dumps(c["label"]), c["label"]) is c["label"]
    if name == "full_cube":  # each single face word is listed once per cell that has it
        assert len(words) < len(doc["faces"]) and len(labels) < len(doc["cells"])


def test_documents_with_keys_that_are_not_strings():
    model = jsonio.model_to_dict(F.segment())
    assert_same({1: model})  # json.dumps writes the key as "1"
    assert_same({"model": model, "map": {2: "p0", 10: "e"}, "none": {None: [model]}})


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("writer")
    paths = {}
    for name, mk in F.MODELS.items():
        paths[name] = str(root / f"{name}.json")
        jsonio.save_json(paths[name], jsonio.model_to_dict(mk()))
    for name, f in MORPHISMS.items():
        paths[name] = str(root / f"{name}.json")
        jsonio.save_json(paths[name], jsonio.morphism_to_dict(f))
    paths["diagram"] = str(root / "diagram.json")
    jsonio.save_json(paths["diagram"], jsonio.diagram_to_dict(F.glued_square_diagram()))
    return paths


def stdout_of(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def assert_canonical(out):
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(F.MODELS))
def test_cli_model_documents_of_fixtures(fixture_files, capsys, name):
    for argv in (["unfold", fixture_files[name], "--depth", "4"], ["complete", fixture_files[name]]):
        code, out = stdout_of(argv, capsys)
        assert code == 0
        assert_canonical(out)


CLI_LINES = [
    ["validate", "full_square"],
    ["validate", "split_segment"],  # an error document
    ["complete", "punctured_cube"],
    ["paths", "glued_square", "--max-len", "4"],
    ["homotopy", "full_cube", "--to", "111"],
    ["is-tree", "full_square"],
    ["unfold", "glued_square", "--depth", "4"],
    ["colimit", "diagram"],
    ["check-open", "branch_fold"],
    ["check-covering", "branch_fold"],
    ["lift", "square_cover", "square_cover"],
]


@pytest.mark.parametrize("args", CLI_LINES, ids=[" ".join(a) for a in CLI_LINES])
def test_cli_stdout_is_json_dumps(fixture_files, capsys, args):
    argv = [args[0], *(fixture_files.get(a, a) for a in args[1:])]
    _, out = stdout_of(argv, capsys)
    assert_canonical(out)


def test_entries_across_chunks(monkeypatch):
    monkeypatch.setattr(jsonio, "_CHUNK", 7)  # a chunk boundary falls inside both entry lists and the paths
    tree, cover, truncated = unfold(F.full_cube(), 6)
    model = jsonio.model_to_dict(tree)
    assert_same(model)
    assert_same({"model": model, "cover": dict(sorted(cover.mapping.items())), "truncated": truncated})
    paths = [jsonio.path_to_dict(p) for p in enumerate_paths(F.full_square(), 4)]
    assert len(paths) > 7
    assert_same({"paths": paths})


def homotopy_doc(x, to, max_len):
    classes = classes_to(x, to, max_len)
    return {
        "cell": to,
        "count": len(classes),
        "classes": [jsonio.class_to_dict(c) for c in classes],
    }


def test_class_records_across_chunks(monkeypatch):
    monkeypatch.setattr(jsonio, "_CHUNK", 7)  # a chunk boundary falls inside the class list
    doc = homotopy_doc(F.full_cube(), "111", 6)
    assert len(doc["classes"]) > 7
    assert_same(doc)
    assert_same(homotopy_doc(F.full_cube(), "000", 3))  # one class, of the empty path


# quotes, backslashes, percent signs, control and non-ASCII characters, as letters, ids and keys
TEXT = st.text(st.sampled_from('ab*0"%\\\n\x00ε'), max_size=4)
SCALARS = st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | TEXT
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3), max_leaves=3
)
PAIR = st.lists(st.integers(0, 4), min_size=2, max_size=2)
CELLS = st.fixed_dictionaries({"id": TEXT, "dim": st.integers(0, 4), "label": st.lists(TEXT, max_size=3)})
FACES = st.fixed_dictionaries({"from": TEXT, "to": TEXT, "word": st.lists(PAIR, max_size=3)})
# entries with missing, extra or wrongly typed values, and entries that are not dicts at all
ODD_CELLS = st.fixed_dictionaries({}, optional={"id": VALUES, "dim": VALUES, "label": VALUES, "ids": VALUES}) | VALUES
ODD_FACES = st.fixed_dictionaries({}, optional={"from": VALUES, "to": VALUES, "word": VALUES, "w": VALUES}) | VALUES
MODEL_DOCS = st.fixed_dictionaries({
    "alphabet": st.lists(TEXT, max_size=3),
    "cells": st.lists(CELLS | ODD_CELLS, max_size=4),
    "faces": st.lists(FACES | ODD_FACES, max_size=4),
    "initial": TEXT | VALUES,
    "saturate": st.booleans() | VALUES,
})
RECORD = st.dictionaries(TEXT, VALUES | st.dictionaries(TEXT, VALUES, min_size=1, max_size=2), min_size=1, max_size=3)


def like(value):
    """Values with the keys of `value` where it is a dict, nested dicts included, perhaps with a key more
    ("~" is not a TEXT), and any values elsewhere."""
    if type(value) is dict and value:
        return st.fixed_dictionaries({k: like(v) for k, v in value.items()}, optional={"~": VALUES})
    return VALUES


# a first record, then records of its layout, records of other layouts and items that are not dicts
RECORDS = RECORD.flatmap(
    lambda first: st.lists(like(first) | RECORD | VALUES, max_size=4).map(lambda more: [first, *more]))
DOCS = MODEL_DOCS | RECORDS | st.dictionaries(TEXT, MODEL_DOCS | RECORDS | VALUES, max_size=3)


@settings(max_examples=60, deadline=None)
@given(DOCS)
def test_random_documents(doc):
    assert_same(doc)


PATHS = st.fixed_dictionaries({"cells": st.lists(TEXT, max_size=3), "steps": st.lists(PAIR, max_size=3), "text": TEXT})
ODD_PATHS = st.fixed_dictionaries({}, optional={"cells": VALUES, "steps": VALUES, "text": VALUES, "x": VALUES}) | VALUES
CLASSES = st.fixed_dictionaries({"representative": PATHS, "size": st.integers(1, 9)})
# records with missing, extra or wrongly typed values, and records that are not dicts at all
ODD_CLASSES = st.fixed_dictionaries({}, optional={"representative": PATHS | ODD_PATHS, "size": VALUES, "y": VALUES})
CLASS_DOCS = st.dictionaries(TEXT, st.lists(CLASSES | ODD_CLASSES | VALUES, min_size=1, max_size=4) | VALUES, max_size=3)


@settings(max_examples=60, deadline=None)
@given(CLASS_DOCS)
def test_random_class_documents(doc):
    assert_same(doc)


SHARED = st.lists(VALUES, min_size=1, max_size=3)


@st.composite
def shared_documents(draw):
    """One list object in several records, as a top-level record value and inside a nested record and list,
    so that it is written at several depths; and records with lists of their own among them."""
    shared, records = draw(SHARED), []
    for k in range(draw(st.integers(1, 5))):
        own = draw(SHARED)
        records.append({"shared": shared, "own": own, "k": k} if draw(st.booleans())
                       else {"shared": own, "own": shared, "k": k})
    deep = [{"at": {"shared": shared, "list": [shared, own]}}]
    return {"records": records, "deep": deep, "top": shared, "lists": [shared, [shared]], "at": {"shared": shared}}


@settings(max_examples=60, deadline=None)
@given(shared_documents(), st.sampled_from([1, 2, 100]))
def test_documents_that_share_lists(doc, chunk):
    # a chunk of 1 or 2 drops a field's memo of lists by identity, then by repr, within a few records
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        assert_same(doc)


NOT_STR = VALUES.filter(lambda v: type(v) is not str)


@settings(max_examples=60, deadline=None)
@given(TEXT, st.lists(NOT_STR, min_size=1, max_size=4), st.integers(1, 3))
def test_string_fields_that_turn_into_other_values(first, later, width):
    # a field whose first value is a string is escaped directly; a later value of another type fits no template
    keys = ["id", "dim", "label"][:width]
    records = [{k: (first if k == "id" else 0) for k in keys}]
    records += [{k: (v if k == "id" else k) for k in keys} for v in later]
    assert_same({"cells": records})
    assert_same({"cells": [{"nested": r} for r in records]})
