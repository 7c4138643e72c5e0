import time

import pytest
from hypothesis import given, strategies as st

from phda import fixtures as F
from phda.errors import InvalidBound, InvalidSpine, NotAPathShape, UnknownCell
from phda.homotopy import classes_to
from phda.lifting import is_covering, is_open
from phda.model import PHDA, Cell, is_hda, saturate, validate_morphism, validate_phda
from phda.paths import (
    Path,
    Spine,
    empty_path,
    enumerate_paths,
    map_path,
    morphism_to_path,
    path_shape,
    path_to_morphism,
    spine_of,
    validate_path,
)
from phda.unfolding import is_tree, unfold
from phda.words import FUTURE, PAST, single

from oracles import late_clash, notched_square_path, oracle_bounded_paths, partition_paths, split_moves


# Independent oracles for the explorers: the three breadth-first frontier
# loops that enumeration, unfolding and tree recognition each ran on their
# own (the last, `oracle_bounded_paths`, shared in `oracles`), over split
# step tables built from the face table rather than from `PHDA.moves`.
# Unfolding works in classes and tree recognition in cells and classes;
# their results are compared with the ones these paths give, grouped by
# the path-level `partition_paths`.


def oracle_enumerate_paths(x, max_len):
    up, future = split_moves(x)
    out = [empty_path(x)]
    frontier = [out[0]]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            e = p.end
            for i, z in up.get(e, []):
                nxt.append(p.extend((i, PAST), z))
            for i, z in future.get(e, []):
                nxt.append(p.extend((i, FUTURE), z))
        if not nxt:
            break
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_unfold_paths(x, depth):
    """The executions an unfolding to `depth` is built from, and whether any longer one exists."""
    up, futures = split_moves(x)
    paths = [empty_path(x)]
    frontier = list(paths)
    truncated = False
    for step in range(depth + 1):
        nxt = []
        for p in frontier:
            e = p.end
            for i, z in up.get(e, []):
                nxt.append(p.extend((i, PAST), z))
            for i, z in futures.get(e, []):
                nxt.append(p.extend((i, FUTURE), z))
        if step == depth:
            truncated = bool(nxt)
            break
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return paths, truncated


def explorer_models():
    models = {name: mk() for name, mk in F.MODELS.items()}
    for name, f in (
        ("loop_unrolling(2)", F.loop_unrolling(2)),
        ("branch_fold(2, 1)", F.branch_fold(2, 1)),
        ("double_square_fold", F.double_square_fold()),
    ):
        models[f"{name}.source"] = f.source
        models[f"{name}.target"] = f.target
    models["unfold(full_cube, 4)"] = unfold(F.full_cube(), 4).tree
    models["late_clash"] = late_clash()
    return models


EXPLORER_MODELS = list(explorer_models())
BOUNDS = (0, 1, 2, 5, 8)


def keys(paths):
    return [p.key() for p in paths]


@pytest.mark.parametrize("name", EXPLORER_MODELS)
def test_enumerate_paths_matches_oracle(name):
    x = explorer_models()[name]
    for bound in BOUNDS:
        assert keys(enumerate_paths(x, bound)) == keys(oracle_enumerate_paths(x, bound)), bound


def oracle_unfold(x, depth):
    """The unfolding as it was built from enumerated paths: (cells, initial, faces, cover, truncated)."""
    paths, truncated = oracle_unfold_paths(x, depth)
    _, future = split_moves(x)
    state_of, reps = {}, []
    for ordinal, group in enumerate(partition_paths(paths)):
        reps.append(min(group, key=Path.key))
        for p in group:
            state_of[p.key()] = f"u{ordinal}"
    cells, entries, cover = {}, [], {}
    for ordinal, rep in enumerate(reps):
        sid = f"u{ordinal}"
        cells[sid] = Cell(sid, x.cells[rep.end].dim, x.cells[rep.end].label)
        cover[sid] = rep.end
        if rep.steps and rep.steps[-1][1] == PAST:
            entries.append((sid, single(rep.steps[-1][0], PAST), state_of[(rep.cells[:-1], rep.steps[:-1])]))
        if len(rep) < depth:
            for i, z in future.get(rep.end, []):
                entries.append((sid, single(i, FUTURE), state_of[rep.extend((i, FUTURE), z).key()]))
    faces = saturate(entries)
    return list(cells.items()), state_of[empty_path(x).key()], faces, list(cover.items()), truncated


@pytest.mark.parametrize("name", EXPLORER_MODELS)
def test_unfold_paths_match_oracle(name):
    x = explorer_models()[name]
    for bound in BOUNDS:
        tree, cover, truncated = unfold(x, bound)
        got = list(tree.cells.items()), tree.initial, tree.faces, list(cover.mapping.items()), truncated
        assert got == oracle_unfold(x, bound), bound


@pytest.mark.parametrize("name", EXPLORER_MODELS)
def test_bounded_paths_match_oracle(name):
    x = explorer_models()[name]
    expect, clash = oracle_bounded_paths(x)
    if clash is None:
        assert [(c, n) for c, (n, _, _) in x.walk.items()] == list({p.end: len(p) for p in expect}.items())
    else:
        assert is_tree(x).reason == clash
    clashing = ("self_loop", "loop_unrolling(2).source", "loop_unrolling(2).target", "late_clash")
    assert (clash is not None) == (name in clashing)


def test_unbounded_exploration_stops_on_acyclic_models():
    for x in (F.full_cube(), F.glued_square(), F.branch_tree(3)):
        start = time.perf_counter()
        assert keys(enumerate_paths(x, 10**9)) == keys(enumerate_paths(x, len(x.cells)))
        far, near = unfold(x, 10**9), unfold(x, len(x.cells))
        assert (far.tree, far.cover.mapping, far.truncated) == (near.tree, near.cover.mapping, False)
        assert time.perf_counter() - start < 5


def test_canonical_path_validates():
    p = notched_square_path()
    assert validate_path(p) is None


def test_empty_path_validates():
    for mk in F.MODELS.values():
        assert validate_path(empty_path(mk())) is None


def test_bad_final_step_reported():
    x = F.notched_square()
    bad = Path(x, ("00", "*0", "**", "*1"), ((1, PAST), (2, PAST), (2, FUTURE)))
    issue = validate_path(bad)
    assert (issue.kind, issue.step) == ("BadStep", 3)
    wrong_start = Path(x, ("10",), ())
    assert validate_path(wrong_start).kind == "BadStart"
    too_few_steps = Path(x, ("00", "*0"), ())
    assert str(validate_path(too_few_steps)) == "BadStart"


def test_spine_of_canonical_path():
    s = spine_of(notched_square_path())
    assert s.entries == ((0, ()), (1, ("a",)), (2, ("a", "b")), (1, ("b",)))
    assert s.steps == ((1, PAST), (2, PAST), (1, FUTURE))


def test_spine_of_empty_path():
    s = spine_of(empty_path(F.point()))
    assert s.entries == ((0, ()),) and s.steps == ()


def test_spine_of_rejects_a_cell_its_host_lacks():
    p = notched_square_path()
    with pytest.raises(UnknownCell, match="01"):
        spine_of(Path(p.host, p.cells[:1] + ("01",), p.steps[:1]))


def test_invalid_spine_rejected():
    cases = [
        (((0, ()), (2, ("a", "b"))), ((1, PAST),), r"bad transition at step 1"),
        (((1, ("a",)),), (), r"must start at \(0, ε\)"),
        (((0, ()),), ((1, PAST),), r"entry/step count mismatch"),
        (((0, ()), (1, ())), ((1, PAST),), r"label length differs from dimension at 1"),
        (((0, ()), (1, ("a",))), ((1, 2),), r"bad transition at step 1: \(0, \(\)\) -\(1,2\)-> \(1, \('a',\)\)"),
        # read as a future step, step 2 would be valid: only its direction is wrong
        (((0, ()), (1, ("a",)), (0, ())), ((1, PAST), (1, 2)), r"bad transition at step 2"),
    ]
    for entries, steps, message in cases:
        with pytest.raises(InvalidSpine, match=message):
            Spine(entries, steps)


def test_spine_text_names_each_step_and_the_cell_it_reaches():
    assert {u: s.text() for u, s in F.glued_square_diagram().objects.items()} == {
        "A": "(0,ε) -(1,0)-> (1,b) -(1,0)-> (2,ab)",
        "B": "(0,ε) -(1,0)-> (1,b) -(1,0)-> (2,ab) -(1,1)-> (1,b) -(1,1)-> (0,ε)",
        "C": "(0,ε) -(1,0)-> (1,b) -(1,0)-> (2,ab) -(2,1)-> (1,a) -(1,1)-> (0,ε)",
    }


def test_path_shape_of_canonical_spine():
    shape = path_shape(spine_of(notched_square_path()))
    assert validate_phda(shape) == []
    assert not is_hda(shape)
    assert shape.initial == "0"
    entries = {(a, w.text(), b) for a, w, b in shape.entries()}
    assert entries == {
        ("1", "[(1,0)]", "0"),
        ("2", "[(2,0)]", "1"),
        ("2", "[(1,1)]", "3"),
        ("2", "[(1,0),(2,0)]", "0"),
    }


def test_trivial_path_shape():
    shape = path_shape(Spine(((0, ()),), ()))
    assert len(shape.cells) == 1 and validate_phda(shape) == []
    assert is_hda(shape)


def test_bijection_roundtrip_on_enumerated_paths():
    for name in ("full_square", "notched_square", "glued_square", "self_loop", "segment"):
        x = F.MODELS[name]()
        for p in enumerate_paths(x, 5):
            m = path_to_morphism(p)
            assert validate_morphism(m) == [], (name, p.text())
            assert morphism_to_path(m).key() == p.key(), (name, p.text())


def test_empty_path_corresponds_to_point_inclusion():
    x = F.glued_square()
    m = path_to_morphism(empty_path(x))
    assert len(m.source.cells) == 1
    assert m.mapping == {"0": x.initial}
    assert morphism_to_path(m).key() == empty_path(x).key()


def test_morphism_to_path_rejects_non_shapes():
    sq = F.full_square()
    from phda.model import identity

    with pytest.raises(NotAPathShape, match="branching at cell"):
        morphism_to_path(identity(sq))
    with pytest.raises(NotAPathShape, match="cycle through cell p"):
        morphism_to_path(identity(F.self_loop()))
    seg = F.segment()
    stray = PHDA(seg.alphabet, seg.cells | {"q": Cell("q", 0, ())}, seg.initial, seg.faces)
    with pytest.raises(NotAPathShape, match=r"unreachable cells \['q'\]"):
        morphism_to_path(identity(stray))
    shape = path_shape(spine_of(notched_square_path()))
    unclosed = PHDA(shape.alphabet, shape.cells, shape.initial, {k: v for k, v in shape.faces.items() if len(k[1]) == 1})
    with pytest.raises(NotAPathShape, match="face table is not freely generated by the spine"):
        morphism_to_path(identity(unclosed))


def test_map_path_preserves_validity_and_spine():
    fold = F.branch_fold(3, 2)
    for p in enumerate_paths(fold.source, 4):
        q = map_path(fold, p)
        assert validate_path(q) is None
        assert spine_of(q) == spine_of(p)


def test_map_path_under_identity():
    x = F.glued_square()
    from phda.model import identity

    for p in enumerate_paths(x, 4):
        assert map_path(identity(x), p).key() == p.key()


def test_enumerate_paths_square_interleavings():
    sq = F.full_square()
    found = {p.key() for p in enumerate_paths(sq, 4)}
    a_then_b = Path(sq, ("00", "*0", "10", "1*", "11"), ((1, PAST), (1, FUTURE), (1, PAST), (1, FUTURE)))
    b_then_a = Path(sq, ("00", "0*", "01", "*1", "11"), ((1, PAST), (1, FUTURE), (1, PAST), (1, FUTURE)))
    through_lo = Path(sq, ("00", "*0", "**", "1*", "11"), ((1, PAST), (2, PAST), (1, FUTURE), (1, FUTURE)))
    through_hi = Path(sq, ("00", "*0", "**", "*1", "11"), ((1, PAST), (2, PAST), (2, FUTURE), (1, FUTURE)))
    for p in (a_then_b, b_then_a, through_lo, through_hi):
        assert validate_path(p) is None
        assert p.key() in found


def test_enumerate_paths_zero_length():
    x = F.full_square()
    assert [p.key() for p in enumerate_paths(x, 0)] == [empty_path(x).key()]


def test_negative_bounds_rejected():
    sq, fold = F.full_square(), F.branch_fold(2, 1)
    calls = [
        lambda: enumerate_paths(sq, -1),
        lambda: unfold(sq, -3),
        lambda: classes_to(sq, "11", -1),
        lambda: is_open(fold, -1),
        lambda: is_covering(fold, -2),
    ]
    for call in calls:
        with pytest.raises(InvalidBound):
            call()


def test_enumerate_contains_canonical_path():
    p = notched_square_path()
    assert p.key() in {q.key() for q in enumerate_paths(p.host, 3)}


@given(st.data())
def test_path_shape_morphism_bijection_property(data):
    x = F.MODELS[data.draw(st.sampled_from(["full_square", "glued_square", "punctured_cube"]))]()
    paths = enumerate_paths(x, 4)
    p = data.draw(st.sampled_from(paths))
    m = path_to_morphism(p)
    assert morphism_to_path(m).key() == p.key()
    assert validate_phda(m.source) == []
