import pytest

from phda import fixtures as F
from phda.errors import DomainMismatch, UnknownCell
from phda.homotopy import are_confluently_homotopic, classes_to, explore, find_shortcuts
from phda.model import PHDA, build
from phda.paths import Path, empty_path, enumerate_paths
from phda.unfolding import unfold
from phda.words import EPSILON, FUTURE, PAST, single, star, word

from oracles import (
    ChainIndex,
    class_key,
    elementary_neighbors,
    notched_square_path,
    partition_paths,
    saturation_shortcuts,
    star_fold,
)


# Independent oracles for the chain index and the peeling shortcut test:
# a depth-first chain search per window and per composite face, with
# no table shared between searches, over future steps read from the face
# table rather than from `PHDA.moves`.


def oracle_futures(x):
    """(index, target) of every single future face, by source cell, sorted."""
    futures = {}
    for (src, w), tgt in x.faces.items():
        if len(w) == 1 and w.pairs[0][1] == FUTURE:
            futures.setdefault(src, []).append((w.pairs[0][0], tgt))
    return {src: sorted(moves) for src, moves in futures.items()}


def oracle_future_chains(start, length, target, futures):
    """All chains of `length` future steps from `start` whose composite is `target`."""
    out = []
    stack = [(start, EPSILON, (), ())]
    while stack:
        cell, acc, cells, steps = stack.pop()
        if len(steps) == length:
            if acc == target:
                out.append((cells, steps))
            continue
        for i, z in futures.get(cell, []):
            stack.append((z, star(acc, single(i, FUTURE)), cells + (z,), steps + ((i, FUTURE),)))
    return out


def oracle_neighbors(p, futures):
    found = {}
    n = len(p.steps)
    for s in range(1, n):
        if p.steps[s - 1][1] != FUTURE:
            continue
        for t in range(s + 1, n + 1):
            if p.steps[t - 1][1] != FUTURE:
                break
            target = star_fold(list(p.steps[s - 1 : t]))
            for cells, steps in oracle_future_chains(p.cells[s - 1], t - s + 1, target, futures):
                if cells[-1] != p.cells[t]:
                    continue
                q = Path(p.host, p.cells[:s] + cells[:-1] + p.cells[t:], p.steps[: s - 1] + steps + p.steps[t:])
                if q.key() != p.key():
                    found[q.key()] = q
    return [found[k] for k in sorted(found)]


def oracle_partition(paths):
    futures = oracle_futures(paths[0].host)
    index = {p.key(): i for i, p in enumerate(paths)}
    parent = list(range(len(paths)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, p in enumerate(paths):
        for nb in oracle_neighbors(p, futures):
            ri, rj = find(i), find(index[nb.key()])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, p in enumerate(paths):
        groups.setdefault(find(i), []).append(p)
    return [groups[r] for r in sorted(groups)]


def oracle_shortcuts(x):
    """Composites of length >= 2 reached by no chain of single faces with the same composite and end."""
    singles = {}
    for (src, w), tgt in x.faces.items():
        if len(w) == 1:
            singles.setdefault(src, []).append((w.pairs[0], tgt))

    def chain_exists(cid, w, expect):
        stack = [(cid, EPSILON, 0)]
        while stack:
            cell, acc, depth = stack.pop()
            if depth == len(w):
                if acc == w and cell == expect:
                    return True
                continue
            for (i, a), z in singles.get(cell, []):
                stack.append((z, star(acc, single(i, a)), depth + 1))
        return False

    return {(cid, w) for (cid, w), tgt in x.faces.items() if len(w) >= 2 and not chain_exists(cid, w, tgt)}


def oracle_models():
    models = {name: F.MODELS[name]() for name in ("full_cube", "punctured_cube", "notched_square", "glued_square", "self_loop")}
    models["unfold(full_cube, 6)"] = unfold(F.full_cube(), 6).tree
    return models


def glued_square_paths_to_corner():
    D = F.glued_square()
    corner = [c.id for c in D.cells.values() if c.dim == 0 and c.id != D.initial][0]
    red = Path(D, ("A:0", "A:1", "A:2", "B:3", "B:4"), ((1, PAST), (1, PAST), (1, FUTURE), (1, FUTURE)))
    blue = Path(D, ("A:0", "A:1", "A:2", "C:3", "B:4"), ((1, PAST), (1, PAST), (2, FUTURE), (1, FUTURE)))
    return D, corner, red, blue


def test_elementary_neighbors_swap_future_block():
    D, _, red, blue = glued_square_paths_to_corner()
    assert {p.key() for p in elementary_neighbors(red)} == {blue.key()}
    assert {p.key() for p in elementary_neighbors(blue)} == {red.key()}


def test_no_neighbors_without_future_runs():
    seg = F.segment()
    for p in enumerate_paths(seg, 3):
        assert elementary_neighbors(p) == []


def test_square_window_factorisations():
    sq = F.full_square()
    lo = Path(sq, ("00", "*0", "**", "1*", "11"), ((1, PAST), (2, PAST), (1, FUTURE), (1, FUTURE)))
    hi = Path(sq, ("00", "*0", "**", "*1", "11"), ((1, PAST), (2, PAST), (2, FUTURE), (1, FUTURE)))
    assert {p.key() for p in elementary_neighbors(lo)} == {hi.key()}
    assert are_confluently_homotopic(lo, hi)


def test_homotopy_is_reflexive_and_symmetric():
    D, _, red, blue = glued_square_paths_to_corner()
    assert are_confluently_homotopic(red, red)
    assert are_confluently_homotopic(red, blue) and are_confluently_homotopic(blue, red)


def test_interleavings_are_not_homotopic():
    sq = F.full_square()
    a_then_b = Path(sq, ("00", "*0", "10", "1*", "11"), ((1, PAST), (1, FUTURE), (1, PAST), (1, FUTURE)))
    b_then_a = Path(sq, ("00", "0*", "01", "*1", "11"), ((1, PAST), (1, FUTURE), (1, PAST), (1, FUTURE)))
    assert not are_confluently_homotopic(a_then_b, b_then_a)


def test_elementary_rewrites_are_symmetric():
    for name in ("full_square", "glued_square", "punctured_cube"):
        x = F.MODELS[name]()
        for p in enumerate_paths(x, 4):
            for q in elementary_neighbors(p):
                assert p.key() in {r.key() for r in elementary_neighbors(q)}, name


def test_paths_outside_the_model_are_not_homotopic():
    sq = F.full_square()
    valid = Path(sq, ("00", "*0", "10"), ((1, PAST), (1, FUTURE)))
    strays = [Path(sq, ("00", cell, "10"), ((1, PAST), (1, FUTURE))) for cell in ("xx", "yy")]
    assert class_key(strays[0]) == class_key(strays[1]) == class_key(valid)
    assert not are_confluently_homotopic(*strays)
    assert not are_confluently_homotopic(valid, strays[0]) and not are_confluently_homotopic(strays[0], valid)


def test_different_hosts_rejected():
    with pytest.raises(DomainMismatch):
        are_confluently_homotopic(empty_path(F.point()), empty_path(F.segment()))


def test_classes_to_merged_corner():
    D, corner, red, blue = glued_square_paths_to_corner()
    groups = [g for g in partition_paths(enumerate_paths(D, 4)) if g[0].end == corner]
    assert [{p.key() for p in g} for g in groups] == [{red.key(), blue.key()}]
    assert [(c.representative.key(), len(c)) for c in classes_to(D, corner, 4)] == [(min(red.key(), blue.key()), 2)]


def test_classes_to_extends_once_per_class_and_step(monkeypatch):
    x = F.full_cube()
    pairs = sum(len(c.successors) for c in list(explore(x, 6, to="111")))
    calls, extend = [], Path.extend

    def counted(p, step, cell):
        calls.append(step)
        return extend(p, step, cell)

    monkeypatch.setattr(Path, "extend", counted)
    classes_to(x, "111", 6)
    assert len(calls) == pairs == 240


def test_classes_to_initial_cell():
    x = F.glued_square()
    classes = classes_to(x, x.initial, 4)
    assert len(classes) == 1 and len(classes[0]) == 1
    assert classes[0].representative.key() == empty_path(x).key()


def test_classes_to_square_far_vertex():
    # two interleavings plus two routes into the square, none mergeable:
    # past steps differ, and only future blocks may be rewritten
    classes = classes_to(F.full_square(), "11", 4)
    assert len(classes) == 4
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 2, 2]


def test_classes_to_unknown_cell():
    with pytest.raises(UnknownCell):
        classes_to(F.full_square(), "nope", 2)


def test_class_key_consistent_with_closure():
    for name in ("full_square", "glued_square", "punctured_cube", "notched_square"):
        x = F.MODELS[name]()
        for group in partition_paths(enumerate_paths(x, 5)):
            keys = {class_key(p) for p in group}
            assert len(keys) == 1, name


def test_path_shapes_have_no_shortcuts():
    from phda.paths import path_shape, spine_of

    shape = path_shape(spine_of(notched_square_path()))
    assert find_shortcuts(shape) == set()


def isolated_composite() -> PHDA:
    return build(
        "ab",
        [("q", 2, "ab"), ("v", 0, ()), ("i", 0, ())],
        "i",
        [("q", word((1, 0), (2, 0)), "v")],
    )


def test_isolated_composite_is_a_shortcut():
    assert find_shortcuts(isolated_composite()) == {("q", word((1, 0), (2, 0)))}


def test_completions_have_no_shortcuts():
    from phda.completion import complete

    for name in ("split_segment", "notched_square", "glued_square", "punctured_cube"):
        chi, _ = complete(F.MODELS[name]())
        assert find_shortcuts(chi) == set(), name


def test_fixture_models_have_no_shortcuts():
    for name, mk in F.MODELS.items():
        assert find_shortcuts(mk()) == set(), name


@pytest.mark.parametrize("name", list(oracle_models()))
def test_chain_index_matches_dfs_oracle(name):
    x = oracle_models()[name]
    futures = oracle_futures(x)
    chains = ChainIndex(x)
    for p in enumerate_paths(x, 6):
        expect = [q.key() for q in oracle_neighbors(p, futures)]
        assert [q.key() for q in elementary_neighbors(p, chains)] == expect, p.text()
        assert [q.key() for q in elementary_neighbors(p)] == expect, p.text()


@pytest.mark.parametrize("name", list(oracle_models()))
def test_partition_paths_matches_oracle(name):
    paths = enumerate_paths(oracle_models()[name], 6)
    got = [[p.key() for p in group] for group in partition_paths(paths)]
    assert got == [[p.key() for p in group] for group in oracle_partition(paths)]


def _without_singles_of(x: PHDA, cells: set[str]) -> PHDA:
    """x with the single faces of `cells` dropped; every composite stays, so closure still holds."""
    return _without(x, {(c, w) for c, w in x.faces if len(w) == 1 and c in cells})


def _without(x: PHDA, dropped: set) -> PHDA:
    """x with the `dropped` single faces removed; every composite stays, so closure still holds."""
    return PHDA(x.alphabet, x.cells, x.initial, {key: y for key, y in x.faces.items() if key not in dropped})


def shortcut_models():
    models = {}
    for name, mk in F.MODELS.items():
        models[name] = mk()
        models[f"unfold({name}, 5)"] = unfold(mk(), 5).tree
    models["isolated_composite"] = isolated_composite()
    models["cube without the singles of ***"] = _without_singles_of(F.full_cube(), {"***"})
    models["cube without the singles of 0**, *1*"] = _without_singles_of(F.full_cube(), {"0**", "*1*"})
    models["punctured cube without the singles of ***"] = _without_singles_of(F.punctured_cube(), {"***"})
    # 0** keeps its future singles but not the chain to [(1,0),(2,0)], so that composite is a
    # shortcut; *** keeps [(1,0),(2,1)] only through 0** and its single (1,1)
    dropped = {("0**", single(1, PAST)), ("0**", single(2, PAST)), ("***", single(2, FUTURE))}
    models["cube with a shortcut below a produced composite"] = _without(F.full_cube(), dropped)
    return models


@pytest.mark.parametrize("name", list(shortcut_models()))
def test_find_shortcuts_matches_chain_oracle(name):
    x = shortcut_models()[name]
    assert find_shortcuts(x) == oracle_shortcuts(x) == saturation_shortcuts(x)
    backwards = PHDA(x.alphabet, x.cells, x.initial, dict(reversed(x.faces.items())))
    assert find_shortcuts(backwards) == oracle_shortcuts(x)


def test_dropped_singles_make_shortcuts():
    x = _without_singles_of(F.full_cube(), {"***"})
    assert ("***", word((1, 0), (2, 0))) in find_shortcuts(x)
    assert all(cid == "***" for cid, _ in find_shortcuts(x))
