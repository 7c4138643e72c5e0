import pytest

from phda import fixtures as F
from phda.errors import DomainMismatch, ModelInvalid
from phda.homotopy import find_shortcuts
from phda.model import (
    PHDA,
    Cell,
    Morphism,
    build,
    compose,
    entry_violation,
    identity,
    is_hda,
    run_faces,
    saturate,
    validate_morphism,
    validate_phda,
)
from phda.words import EPSILON, single, star, word

from oracles import (
    broken_tables,
    pairwise_entry_violations,
    pairwise_validate_phda,
    saturation_shortcuts,
    section_retraction_pairs,
)


def kinds(violations):
    return {v.kind for v in violations}


def test_fixture_models_validate():
    for name, mk in F.MODELS.items():
        assert validate_phda(mk()) == [], name


def test_cube_leaves_out_the_removed_cells_and_every_face_into_them():
    for n in range(5):
        x = F.cube(n)
        assert len(x.cells) == 3**n and x.alphabet == set("abcd"[:n]) and validate_phda(x) == []
    removed = {"***1", "0001"}
    x = F.cube(4, removed)
    assert sorted(F.cube(4).cells.keys() - x.cells.keys()) == sorted(removed) and validate_phda(x) == []
    assert not removed & set(x.faces.values()) and ("000*", single(1, 0)) in x.faces


def test_lax_closure_violation_detected():
    y = build(
        "ab",
        [("q", 2, "ab"), ("e", 1, "b"), ("v", 0, ""), ("i", 0, "")],
        "i",
        [("q", single(1, 0), "e"), ("e", single(1, 0), "v")],
    )
    # the same generators without their composite
    x = PHDA(y.alphabet, y.cells, y.initial, {("q", single(1, 0)): "e", ("e", single(1, 0)): "v"})
    assert kinds(validate_phda(x)) == {"LaxLawViolation"}
    # saturating them repairs it
    assert validate_phda(y) == []
    assert y.faces[("q", word((1, 0), (2, 0)))] == "v"


def test_models_compare_by_structure_and_are_not_hashable():
    # two loads of one file are two equal objects
    assert F.full_square() == F.full_square() and F.full_square() is not F.full_square()
    with pytest.raises(TypeError):
        hash(F.full_square())


def test_saturate_conflict_is_not_functional():
    entries = [
        ("q", single(1, 0), "e"),
        ("e", single(1, 0), "v"),
        ("q", word((1, 0), (2, 0)), "w"),
    ]
    with pytest.raises(ModelInvalid) as err:
        saturate(entries)
    assert kinds(err.value.violations) == {"NotFunctional"}


def test_run_faces_walks_back_then_forward():
    # i starts a, then b; a may finish on its own, ab finishes a, then b
    names = {0: "i", 1: "a", 2: "ab", 3: "b", 4: "v", 5: "j"}
    past = {1: (single(1, 0), 0), 2: (single(2, 0), 1)}
    future = {1: [(single(1, 1), 5)], 2: [(single(1, 1), 3), (word((1, 1), (2, 1)), 4)], 3: [(single(1, 1), 4)]}
    singles = [("a", single(1, 0), "i"), ("a", single(1, 1), "j"), ("ab", single(2, 0), "a")]
    singles += [("ab", single(1, 1), "b"), ("b", single(1, 1), "v")]
    table = run_faces(names, past, future)
    assert table == saturate(singles) and table[("ab", word((1, 1), (2, 0)))] == "j" and len(table) == 8
    with pytest.raises(ModelInvalid) as err:
        run_faces(names, past, {**future, 2: [(single(1, 1), 3), (single(1, 1), 4)]})
    assert [str(v) for v in err.value.violations] == ["NotFunctional(ab,[(1,1)]): targets b and v"]


@pytest.mark.parametrize("name", list(F.MODELS))
def test_validation_matches_the_pairwise_loop_on_fixtures(name):
    x = F.MODELS[name]()
    assert validate_phda(x) == pairwise_validate_phda(x) == []
    for kind, y in broken_tables(x).items():
        got = validate_phda(y)
        assert [str(v) for v in got] == [str(v) for v in pairwise_validate_phda(y)], kind
        assert kind in kinds(got), kind


def entry_violations(x):
    return [str(v) for xc, w, y in x.entries() if (v := entry_violation(x.cells, xc, w, y))]


@pytest.mark.parametrize("name", list(F.MODELS))
def test_entry_violation_is_the_per_entry_part_of_the_pairwise_loop(name):
    x = F.MODELS[name]()
    for kind, y in {"valid": x, **broken_tables(x)}.items():
        assert entry_violations(y) == [str(v) for v in pairwise_entry_violations(y)], kind


def test_entry_violation_reports_each_entry_by_its_first_broken_law():
    # one entry per law, in the rule's order; the 2-cell e has one letter, so a face of it breaks the label law
    x = PHDA(
        alphabet=frozenset("ab"),
        cells={"p": Cell("p", 0, ()), "q": Cell("q", 1, ("a",)), "r": Cell("r", 1, ("b",)), "e": Cell("e", 2, ("a",)),
               "s": Cell("s", 2, ("a", "b"))},
        initial="p",
        faces={("ghost", EPSILON): "p", ("p", EPSILON): "q", ("q", EPSILON): "q", ("s", single(3, 0)): "q",
               ("s", single(1, 0)): "q", ("s", single(2, 0)): "q", ("e", single(1, 0)): "q"},
    )
    expect = [
        "LabelViolation(e,[(1,0)],q)",
        "UnknownCell(ghost,[],p)",
        "NotFunctional(p,[],q): empty word must be the identity",
        "LabelViolation(s,[(1,0)],q)",
        "DimensionMismatch(s,[(3,0)],q)",
    ]
    assert entry_violations(x) == [str(v) for v in pairwise_entry_violations(x)] == expect


def test_generators_do_not_depend_on_entry_order():
    # without the 2-cells' single faces, the cube's length-3 words are shortcuts only because
    # the length-2 words below them are: peeling must decide the shorter words first
    x = F.full_cube()
    faces = {k: y for k, y in x.faces.items() if not (len(k[1]) == 1 and x.cells[k[0]].dim == 2)}
    for longest_first in (False, True):
        table = dict(sorted(faces.items(), key=lambda e: len(e[0][1]), reverse=longest_first))
        y = PHDA(x.alphabet, x.cells, x.initial, table)
        assert validate_phda(y) == []
        assert find_shortcuts(y) == saturation_shortcuts(y) and len(find_shortcuts(y)) == 44


def test_dimension_and_label_violations():
    x = PHDA(
        alphabet=frozenset("ab"),
        cells={"e": Cell("e", 1, ("a",)), "p": Cell("p", 0, ()), "i": Cell("i", 0, ())},
        initial="i",
        faces={("e", single(2, 0)): "p"},
    )
    assert "DimensionMismatch" in kinds(validate_phda(x))
    y = PHDA(
        alphabet=frozenset("ab"),
        cells={"e": Cell("e", 1, ("a",)), "p": Cell("p", 0, ("a",)), "i": Cell("i", 0, ())},
        initial="i",
        faces={("e", single(1, 0)): "p"},
    )
    assert "LabelViolation" in kinds(validate_phda(y))


def test_a_face_past_a_short_label_is_a_label_violation():
    # e has dimension 2 but one letter: deleting letter 2 of its label is undefined, and is reported
    x = PHDA(
        alphabet=frozenset("a"),
        cells={"p": Cell("p", 0, ()), "q": Cell("q", 1, ("a",)), "e": Cell("e", 2, ("a",))},
        initial="p",
        faces={("e", single(2, 0)): "q"},
    )
    expect = ["LabelViolation(e): label length differs from dimension", "LabelViolation(e,[(2,0)],q)"]
    assert [str(v) for v in validate_phda(x)] == [str(v) for v in pairwise_validate_phda(x)] == expect


def test_a_letter_outside_the_alphabet_is_a_label_violation():
    x = build("a", [("p", 0, ()), ("e", 1, ("b",))], "p")
    expect = ["LabelViolation(e): letter 'b' not in alphabet"]
    assert [str(v) for v in validate_phda(x)] == [str(v) for v in pairwise_validate_phda(x)] == expect


def test_bad_initial():
    x = PHDA(frozenset(), {"p": Cell("p", 0, ())}, "missing", {})
    assert kinds(validate_phda(x)) == {"BadInitial"}
    seg = F.segment()
    bad = PHDA(seg.alphabet, seg.cells, "e", seg.faces)
    assert "BadInitial" in kinds(validate_phda(bad))


def test_empty_word_to_another_cell_is_not_functional():
    # the loader rejects this entry before validation, so only a directly built model reaches the check
    seg = F.segment()
    x = PHDA(seg.alphabet, seg.cells, seg.initial, {**seg.faces, ("p0", EPSILON): "p1"})
    assert [str(v) for v in validate_phda(x)] == ["NotFunctional(p0,[],p1): empty word must be the identity"]


def test_composite_decompositions_agree():
    # every two single-step chains with the same composite word reach the same cell
    for name in ("full_cube", "punctured_cube", "full_square", "notched_square"):
        x = F.MODELS[name]()
        singles = [(s, w, t) for (s, w), t in x.faces.items() if len(w) == 1]
        for s1, w1, t1 in singles:
            for s2, w2, t2 in singles:
                if s2 != t1:
                    continue
                comp = star(w1, w2)
                assert x.faces[(s1, comp)] == t2, (name, s1, w1, w2)


def test_identity_and_compose():
    sq = F.full_square()
    i = identity(sq)
    assert validate_morphism(i) == []
    fold = F.branch_fold(2, 1)
    assert compose(fold, identity(fold.source)).mapping == fold.mapping
    assert compose(identity(fold.target), fold).mapping == fold.mapping
    with pytest.raises(DomainMismatch):
        compose(fold, fold)


def test_a_morphism_applies_its_map():
    fold = F.branch_fold(2, 1)
    assert [fold(c) for c in fold.mapping] == list(fold.mapping.values())
    with pytest.raises(KeyError):
        fold("not a cell")


def test_compose_of_valid_is_valid():
    s, r = section_retraction_pairs()[0]
    assert validate_morphism(s) == [] and validate_morphism(r) == []
    assert validate_morphism(compose(r, s)) == []
    assert compose(r, s).mapping == identity(s.source).mapping


def test_is_hda_examples():
    assert is_hda(F.full_square())
    assert not is_hda(F.split_segment())
    assert not is_hda(F.punctured_cube())


def test_split_segment_inclusion_is_rejected():
    seg, split = F.segment(), F.split_segment()
    f = Morphism(seg, split, {"p0": "p0", "p1": "p1", "e": "e"})
    report = validate_morphism(f)
    assert report and kinds(report) == {"FaceNotPreserved"}


def test_morphism_violation_kinds():
    seg = F.segment()
    assert "NotTotal" in kinds(validate_morphism(Morphism(seg, seg, {"p0": "p0"})))
    swapped = {"p0": "p1", "p1": "p0", "e": "e"}
    assert "InitialViolation" in kinds(validate_morphism(Morphism(seg, seg, swapped)))
    two = F.branch_tree(2)
    relabel = Morphism(two, two, {"r": "v0", "v0": "r", "v1": "v1", "e0": "e0", "e1": "e1"})
    assert "FaceNotPreserved" in kinds(validate_morphism(relabel))
    collapse = validate_morphism(Morphism(seg, seg, {"p0": "p0", "p1": "p1", "e": "p0"}))
    assert "DimensionMismatch(e,p0)" in [str(v) for v in collapse]
