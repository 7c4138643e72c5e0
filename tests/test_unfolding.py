import sys

import pytest

from phda import fixtures as F
from phda.errors import NotATree
from phda.homotopy import classes_to
from phda.jsonio import load_model, model_to_dict, save_json
from phda.model import _generators, compose, identity, validate_morphism, validate_phda
from phda.paths import first_path, path_shape, spine_of, enumerate_paths
from phda.unfolding import is_tree, tree_unit, unfold

from oracles import notched_square_path, oracle_bounded_paths, partition_paths, patch_everywhere


def test_unfold_point():
    tree, cover, truncated = unfold(F.point(), 5)
    assert len(tree.cells) == 1 and not truncated
    assert cover.mapping == {tree.initial: "p"}


def test_unfold_fixes_path_shapes():
    shape = path_shape(spine_of(notched_square_path()))
    tree, cover, truncated = unfold(shape, len(shape.cells))
    assert not truncated
    assert len(tree.cells) == len(shape.cells)
    assert validate_morphism(cover) == []
    # the cover is an isomorphism: bijective on cells and reflects all faces
    assert sorted(cover.mapping.values()) == sorted(shape.cells)
    eta = tree_unit(shape)
    assert compose(cover, eta).mapping == identity(shape).mapping
    assert compose(eta, cover).mapping == identity(tree).mapping


def test_unfold_square_counts():
    tree, cover, truncated = unfold(F.full_square(), 4)
    assert not truncated
    assert validate_phda(tree) == []
    assert validate_morphism(cover) == []
    assert bool(is_tree(tree))
    assert len(tree.cells) == 17
    # the two routes into the square stay distinct, the two ways of
    # finishing out of it merge
    assert len([c for c in tree.cells.values() if c.dim == 2]) == 2
    far = [s for s, c in cover.mapping.items() if c == "11"]
    assert len(far) == 4


def test_unfold_truncation_flag():
    loop = F.self_loop()
    tree, cover, truncated = unfold(loop, 4)
    assert truncated
    assert len(tree.cells) == 5  # alternating point/edge chain
    assert bool(is_tree(tree))
    full, _, t2 = unfold(F.full_square(), 10)
    assert not t2


def test_unfold_depth_zero():
    tree, cover, truncated = unfold(F.full_square(), 0)
    assert len(tree.cells) == 1 and truncated


def test_is_tree_examples():
    assert bool(is_tree(F.glued_square()))
    assert bool(is_tree(F.point()))
    assert bool(is_tree(F.segment()))
    assert bool(is_tree(F.branch_tree(3)))
    report = is_tree(F.full_square())
    assert not report and "execution classes" in report.reason
    assert not is_tree(F.split_segment())
    assert not is_tree(F.self_loop())
    assert not is_tree(F.punctured_cube())


def test_is_tree_shortcut_certificate():
    from phda.model import build
    from phda.words import word

    x = build("ab", [("q", 2, "ab"), ("v", 0, ()), ("i", 0, ())], "i", [("q", word((1, 0), (2, 0)), "v")])
    report = is_tree(x)
    assert not report and "shortcut" in report.reason


def test_unfold_of_every_fixture_is_a_tree():
    for name, mk in F.MODELS.items():
        x = mk()
        for depth in (1, 3, 5):
            res = unfold(x, depth)
            assert validate_phda(res.tree) == [], (name, depth)
            assert bool(is_tree(res.tree)), (name, depth)
            assert validate_morphism(res.cover) == [], (name, depth)


def test_unfold_idempotent_up_to_tree_unit():
    for name in ("glued_square", "full_square", "self_loop"):
        x = F.MODELS[name]()
        once = unfold(x, 4)
        eta = tree_unit(once.tree)
        again = unfold(once.tree, len(once.tree.cells))
        assert validate_morphism(eta) == []
        assert compose(again.cover, eta).mapping == identity(once.tree).mapping
        assert compose(eta, again.cover).mapping == identity(again.tree).mapping


def test_tree_unit_two_sided_inverse():
    for x in (F.glued_square(), F.branch_tree(2), F.segment(), F.point(), F.double_square_tree()):
        eta = tree_unit(x)
        assert validate_morphism(eta) == []
        res = unfold(x, len(x.cells))
        assert compose(res.cover, eta).mapping == identity(x).mapping
        assert compose(eta, res.cover).mapping == identity(res.tree).mapping


def test_tree_unit_rejects_non_trees():
    with pytest.raises(NotATree):
        tree_unit(F.full_square())


def test_tree_depths_well_defined():
    for x in (F.glued_square(), F.branch_tree(3), F.double_square_tree()):
        expect, clash = oracle_bounded_paths(x)
        depths = {c: n for c, (n, _, _) in x.walk.items()}
        assert clash is None and depths == {p.end: len(p) for p in expect} and set(depths) == set(x.cells)
        for p in enumerate_paths(x, len(x.cells)):
            assert depths[p.end] == len(p)


def test_tree_has_one_class_per_cell():
    for x in (F.glued_square(), F.branch_tree(2), F.double_square_tree()):
        for cid in x.cells:
            assert len(classes_to(x, cid, len(x.cells))) == 1, cid


def test_classes_are_built_without_enumerating_paths(monkeypatch):
    """Unfolding, tree recognition, `classes_to` and lifting work in classes and cells: no path stream."""
    from phda import paths
    from phda.lifting import construct_lift, is_covering, is_open

    x = F.full_cube()
    tree = unfold(x, 6).tree
    fold = F.branch_fold(2, 1)

    def results():
        result = unfold(x, 6)
        classes = classes_to(x, "111", 6)
        return (
            is_tree(x).reason,
            is_tree(tree).is_tree,
            (result.tree, result.cover.mapping, result.truncated),
            [(c.representative.key(), len(c)) for c in classes],
            [check(f, n) for check in (is_open, is_covering) for f in (result.cover, fold) for n in (0, 3, 9)],
            construct_lift(result.cover, identity(x)).mapping,
            [first_path(tree, c) for c in tree.walk],
        )

    expect = results()
    groups = [g for g in partition_paths(enumerate_paths(x, 6)) if g[0].end == "111"]
    assert expect[3] == [(min(p.key() for p in g), len(g)) for g in groups]

    def refuse(*args, **kwargs):
        raise AssertionError("executions were enumerated")

    patch_everywhere(monkeypatch, paths.enumerate_paths, refuse)
    assert results() == expect
    assert expect[0] is not None and expect[1] and len(expect[3]) > 1
    assert [r.ok for r in expect[4]] == [True] * 9 + [False] * 3 and expect[4][-1].lifts == 2


def test_a_loaded_model_is_peeled_once(tmp_path):
    # validation on load and the shortcut search of `is_tree` share one peeling pass
    path = tmp_path / "cube.json"
    save_json(str(path), model_to_dict(F.full_cube()))
    peelings = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is _generators.__code__:
            peelings.append(event)

    sys.setprofile(count)
    try:
        report = is_tree(load_model(str(path)))
    finally:
        sys.setprofile(None)
    assert not report and len(peelings) == 1


def test_unfold_writes_its_table_without_saturate(monkeypatch):
    """The unfolding's table comes from the class records' runs, never from closing single faces."""
    from phda import model

    cases = [(mk(), depth) for mk in F.MODELS.values() for depth in (0, 3, 6)] + [(F.loop_unrolling(2).source, 5)]
    expect = [unfold(x, depth) for x, depth in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a face table was saturated")

    patch_everywhere(monkeypatch, model.saturate, refuse)
    got = [unfold(x, depth) for x, depth in cases]
    assert [(r.tree, r.cover.mapping, r.truncated) for r in got] == [(r.tree, r.cover.mapping, r.truncated) for r in expect]
    assert [bool(is_tree(r.tree)) for r in got] == [True] * len(cases)
