"""Properties of the step table, the class explorer and their readers over random valid models.

A random model is a face-closed set of cells of the n-cube (n <= 3)
containing 0...0, with a random subset of its single faces, closed under
composition.  The oracles are the loops the library ran before every
reader shared `PHDA.moves` and before homotopy classes were built level by
level: split past/future step tables built from the face table, lifting
squares solved by face lookups, path steps checked by face lookups,
completion by rescanning every class until nothing merges, and classes
as enumerated paths grouped by rewriting each path.  Lifting squares are
also checked against the path stream: every enumerated execution, not
only the first to each cell.  The face closure is checked against the
two-sided saturation, shortcuts against saturating the single faces, and
validation against the loop that composes every pair of entries, on
valid models, on models with a shortcut and on broken tables.  At scope
2 every model is checked, each face-closed cell set of the square with
each subset of its single faces: tree recognition against the unfolding,
unfoldings as trees covering the model, and total completions.  Colimits
of executions glued along shared prefixes are checked against the
glueing that rescans the future-run rule until nothing merges.  The
class explorer's record stream is checked against the explorer that
walked every group of equal future chains through the successor maps.
Both explorer checks also run on 3-cubes without some of their finishing
orders, where only a window of three future steps may glue two classes.
The face tables that `unfold` and `colimit` write from their runs are
checked against the saturation of their single faces, read off the
class records and the spines; accepted colimits of executions are trees;
and each unfolding is isomorphic, through `mediate`, to the colimit of
its class-pair diagram, one object per (class, step) pair.  An unfolding
is a fixed tree: `tree_unit` is an isomorphism on it, and it is again
the colimit of its own class-pair diagram.  The colimit of all
executions, in contrast, is pinned as a known difference, and on a
desk-size instance it is checked to be initial among all cocones into
three small apexes.
"""
import itertools

from hypothesis import event, given, settings, strategies as st

import pytest

from phda import fixtures as F
from phda.colimits import Arrow, Diagram, check_cocone, colimit, mediate
from phda.completion import AbstractFace, complete, completion_of, counit
from phda.errors import InvalidDiagram, ModelInvalid, NotTotalHDA
from phda.homotopy import are_confluently_homotopic, classes_to, explore, find_shortcuts
from phda.jsonio import model_from_dict, model_to_dict
from phda.lifting import ExtensionSquare, enumerate_morphisms, is_covering, is_open
from phda.model import PHDA, Cell, Morphism, build, compose, identity, is_hda, saturate
from phda.model import validate_morphism, validate_phda
from phda.paths import Path, Spine, empty_path, enumerate_paths, first_path, spine_of, validate_path
from phda.unfolding import TreeReport, is_tree, tree_unit, unfold
from phda.words import EPSILON, FUTURE, PAST, enumerate_words, single

from oracles import (
    ChainIndex,
    UnionFind,
    breadth_first_paths,
    broken_tables,
    chain_walk_explore,
    face_child,
    finish_order_diagram,
    first_path_lifting,
    fixpoint_colimit,
    glueing_outcome,
    homotopy_closure,
    late_clash,
    pairwise_validate_phda,
    partition_paths,
    path_stream_lifting,
    saturation_shortcuts,
    section_retraction_pairs,
    split_moves,
    two_sided_saturate,
    union_find_completion,
)

LETTERS = "abc"


def cube_face(cid, w):
    """The face of a cube cell named by a word: the i-th star of each pair set to its direction."""
    stars, out = [pos for pos, c in enumerate(cid) if c == "*"], list(cid)
    for i, a in w.pairs:
        out[stars[i - 1]] = "01"[a]
    return "".join(out)


def cube_faces(cid):
    """The single faces of one cube cell: the i-th star set to 0 (past) or 1 (future)."""
    return [(cid, single(i, a), cube_face(cid, single(i, a))) for i in range(1, cid.count("*") + 1) for a in (PAST, FUTURE)]


@st.composite
def models(draw, dense=False, shortcut=False):
    """A random valid model; a `dense` one is the whole n-cube with at most three single faces dropped.

    With `shortcut`, one cell of dimension >= 2 loses its single faces and
    keeps one composite face instead, which no chain of single faces
    produces, as in `isolated_composite` of test_homotopy.
    """
    n = draw(st.integers(2 if shortcut else 1, 3))
    cells = ["".join(c) for c in itertools.product("01*", repeat=n)]
    todo = ["*" * n] if dense else [*draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)), "0" * n]
    if shortcut:
        top = draw(st.sampled_from([c for c in cells if c.count("*") >= 2]))
        todo.append(top)
    closed = set()
    while todo:
        cid = todo.pop()
        if cid not in closed:
            closed.add(cid)
            todo.extend(tgt for _, _, tgt in cube_faces(cid))
    singles = [e for cid in sorted(closed) for e in cube_faces(cid)]
    if dense:
        dropped = draw(st.sets(st.integers(0, len(singles) - 1), max_size=3))
        keep = [i not in dropped for i in range(len(singles))]
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(singles), max_size=len(singles)))
    entries = [e for e, k in zip(singles, keep) if k]
    if shortcut:
        w = draw(st.sampled_from([w for w in enumerate_words(top.count("*")) if len(w) >= 2]))
        entries = [e for e in entries if e[0] != top] + [(top, w, cube_face(top, w))]
    x = build(
        LETTERS[:n],
        [(cid, cid.count("*"), tuple(LETTERS[p] for p, c in enumerate(cid) if c == "*")) for cid in sorted(closed)],
        "0" * n,
        entries,
    )
    assert validate_phda(x) == []
    return x


def square_models():
    """Every model at scope 2: each face-closed set of the square's cells that holds 00, with each subset of its
    single faces, closed by `build`."""
    cells = sorted("".join(c) for c in itertools.product("01*", repeat=2))
    for keep in itertools.product((False, True), repeat=len(cells)):
        chosen = [c for c, k in zip(cells, keep) if k]
        if "00" not in chosen or any(tgt not in chosen for c in chosen for _, _, tgt in cube_faces(c)):
            continue
        labelled = [(cid, cid.count("*"), tuple(LETTERS[p] for p, c in enumerate(cid) if c == "*")) for cid in chosen]
        singles = [e for cid in chosen for e in cube_faces(cid)]
        for mask in itertools.product((False, True), repeat=len(singles)):
            yield build(LETTERS[:2], labelled, "00", itertools.compress(singles, mask))


RANDOM_MODELS = st.one_of(models(), models(dense=True))
SHORTCUT_MODELS = st.one_of(models(shortcut=True), models(dense=True, shortcut=True))


def doubled(x):
    """Two copies of x glued at the initial cell, folded back onto x: open, with two lifts of every first step."""
    def twin(cid):
        return cid if cid == x.initial else cid + "'"

    cells = [(cid, c.dim, c.label) for cid, c in x.cells.items()]
    cells += [(twin(cid), c.dim, c.label) for cid, c in x.cells.items() if cid != x.initial]
    entries = [(src, w, tgt) for (src, w), tgt in x.faces.items()]
    entries += [(twin(src), w, twin(tgt)) for src, w, tgt in entries]
    y = build(x.alphabet, cells, x.initial, entries)
    fold = Morphism(y, x, {c: c for c in x.cells} | {twin(c): c for c in x.cells})
    assert validate_phda(fold.source) == [] and validate_morphism(fold) == []
    return fold


def lifting_maps(x, depth):
    return {
        "identity": identity(x),
        "unfold cover": unfold(x, depth).cover,
        "completion unit": complete(x)[1],
        "fold of two copies": doubled(x),
    }


def oracle_lifting(f, max_len, unique):
    """(ok, square, lifts) of the first failed extension square, by face-table lookups."""
    dom_up, _ = split_moves(f.source)
    cod_up, cod_future = split_moves(f.target)
    for p in enumerate_paths(f.source, max_len):
        e_img = f.mapping[p.end]
        squares = [((i, PAST), z) for i, z in cod_up.get(e_img, [])]
        squares += [((i, FUTURE), z) for i, z in cod_future.get(e_img, [])]
        for (i, a), target in squares:
            if a == FUTURE:
                z = f.source.faces.get((p.end, single(i, FUTURE)))
                lifts = [z] if z is not None and f.mapping[z] == target else []
            else:
                lifts = sorted(z for ii, z in dom_up.get(p.end, []) if ii == i and f.mapping[z] == target)
            if len(lifts) != 1 if unique else not lifts:
                return False, str(ExtensionSquare(p, (i, a), target)), len(lifts)
    return True, None, None


def oracle_validate_path(p):
    x = p.host
    if len(p.cells) != len(p.steps) + 1 or p.cells[0] != x.initial or p.cells[0] not in x.cells:
        return "BadStart"
    for k, (j, a) in enumerate(p.steps, start=1):
        prev, cur = p.cells[k - 1], p.cells[k]
        if cur not in x.cells or j < 1:
            return f"BadStep({k})"
        if a == PAST:
            ok = x.faces.get((cur, single(j, PAST))) == prev
        elif a == FUTURE:
            ok = x.faces.get((prev, single(j, FUTURE))) == cur
        else:
            ok = False
        if not ok:
            return f"BadStep({k})"
    return None


def oracle_completion_classes(x):
    """The classes of abstract faces, merged by rescanning every class until nothing changes."""
    universe = [AbstractFace(w, cid) for cid in sorted(x.cells) for w in enumerate_words(x.cells[cid].dim)]
    uf = UnionFind(universe)
    for (cid, w), tgt in x.faces.items():
        uf.union(AbstractFace(w, cid), AbstractFace(EPSILON, tgt))
    changed = True
    while changed:
        changed = False
        for members in uf.groups().values():
            if len(members) < 2:
                continue
            n = x.cells[members[0].cell].dim - len(members[0].word)
            for i in range(1, n + 1):
                for a in (0, 1):
                    children = {uf.find(face_child(m, i, a)) for m in members}
                    if len(children) > 1:
                        first, *rest = sorted(children, key=AbstractFace.sort_key)
                        for other in rest:
                            changed |= uf.union(first, other)
    return sorted(sorted(m.sort_key() for m in members) for members in uf.groups().values())


@settings(max_examples=60, deadline=None)
@given(RANDOM_MODELS)
def test_moves_merge_the_split_tables(x):
    up, future = split_moves(x)
    merged = {
        c: tuple(((i, PAST), z) for i, z in up.get(c, [])) + tuple(((i, FUTURE), z) for i, z in future.get(c, []))
        for c in up.keys() | future.keys()
    }
    assert x.moves == merged
    assert x.moves is x.moves


@settings(max_examples=25, deadline=None)
@given(RANDOM_MODELS, st.integers(1, 4))
def test_lifting_matches_face_lookups(x, depth):
    for name, f in lifting_maps(x, depth).items():
        for check, unique in ((is_open, False), (is_covering, True)):
            r = check(f, 3)
            assert (r.ok, str(r.square) if r.square else None, r.lifts) == oracle_lifting(f, 3, unique), name
        check_lifting(f, (0, 1, 3))
    result = unfold(x, depth)
    assert is_tree(result.tree) and is_covering(result.cover, depth - 1)


@settings(max_examples=40, deadline=None)
@given(RANDOM_MODELS, st.data())
def test_validate_path_matches_face_lookups_on_mutated_paths(x, data):
    p = data.draw(st.sampled_from(enumerate_paths(x, 4)))
    assert validate_path(p) is None and oracle_validate_path(p) is None
    if not p.steps:
        return
    k = data.draw(st.integers(0, len(p.steps) - 1))
    (j, a), cells, steps = p.steps[k], list(p.cells), list(p.steps)
    mutation = data.draw(st.sampled_from(["index", "direction", "cell"]))
    if mutation == "index":
        steps[k] = (j + data.draw(st.sampled_from([-1, 1, 2])), a)
    elif mutation == "direction":
        steps[k] = (j, 1 - a)
    else:
        cells[k + 1] = data.draw(st.sampled_from(sorted(x.cells)))
    q = Path(x, tuple(cells), tuple(steps))
    issue = validate_path(q)
    assert (str(issue) if issue else None) == oracle_validate_path(q)


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS))
def test_completion_classes_match_the_rescan(x):
    groups = {}
    for face, rep in completion_of(x).reps.items():
        groups.setdefault(rep, []).append(face.sort_key())
    assert sorted(sorted(g) for g in groups.values()) == oracle_completion_classes(x)


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS))
def test_completion_matches_the_union_find_oracle(x):
    c = completion_of(x)
    model, unit, reps = union_find_completion(x)
    assert (c.model, c.unit.mapping, c.reps) == (model, unit.mapping, reps)


@settings(max_examples=40, deadline=None)
@given(RANDOM_MODELS)
def test_completion_is_total_with_unit_and_counit_inverse_on_total_models(x):
    chi, unit = complete(x)
    assert is_hda(chi)
    event("total input" if is_hda(x) else "partial input")
    # the completion is total, so the inverse pair is checked on it even when x is partial
    for y, eta in [(chi, complete(chi)[1])] + ([(x, unit)] if is_hda(x) else []):
        mu = counit(y)
        assert compose(mu, eta) == identity(y)
        assert compose(eta, mu) == identity(eta.target)


def path_level_is_tree(x):
    """Tree recognition as it ran on enumerated paths: every path up to |cells| steps, grouped per cell."""
    shortcuts = find_shortcuts(x)
    if shortcuts:
        cid, w = min(shortcuts, key=lambda s: (s[0], s[1].pairs))
        return TreeReport(False, f"shortcut {w.text()} on cell {cid}")
    first_len, by_end = {}, {}
    for p in enumerate_paths(x, len(x.cells)):
        seen = first_len.setdefault(p.end, len(p))
        if seen != len(p):
            return TreeReport(False, f"cell {p.end} is reached at lengths {seen} and {len(p)}")
        by_end.setdefault(p.end, []).append(p)
    for cid in sorted(x.cells):
        if cid not in by_end:
            return TreeReport(False, f"cell {cid} is not the endpoint of any execution")
    chains = ChainIndex(x)
    for cid in sorted(by_end):
        found = partition_paths(by_end[cid], chains)
        if len(found) != 1:
            return TreeReport(False, f"cell {cid} has {len(found)} execution classes")
    return TreeReport(True)


def unreachable_cells():
    """An edge and its end that no execution reaches: the edge has no past face."""
    return build("a", [("i", 0, ()), ("v", 0, ()), ("e", 1, ("a",))], "i", [("e", single(1, FUTURE), "v")])


def two_loops():
    """Edge x loops on i; edges a and b go round through w: i is met again at lengths 2 and 4.

    The walk meets x before b, and sorted order puts b first.
    """
    return build(
        "a",
        [("i", 0, ()), ("w", 0, ()), ("a", 1, ("a",)), ("b", 1, ("a",)), ("x", 1, ("a",))],
        "i",
        [
            ("a", single(1, PAST), "i"), ("a", single(1, FUTURE), "w"),
            ("b", single(1, PAST), "w"), ("b", single(1, FUTURE), "i"),
            ("x", single(1, PAST), "i"), ("x", single(1, FUTURE), "i"),
        ],
    )


FINISHING_ORDERS = list(itertools.permutations((1, 2, 3)))


def cube_without_orders(orders):
    """The 3-cube without the middle faces of the given finishing orders.

    The finishing order (i, j, k) runs from *** through the square where i
    has finished and the edge where i and j have finished to 111.  Its
    middle face finishes j on that square and lies on no other order, so
    the order is gone.  Two orders left are glued by a 2-step swap when
    they share their first or last step; all of them are glued by the
    3-step window from ***, the only gluing of orders whose 2-step swaps
    are gone.
    """
    dropped = set()
    for i, j, _ in orders:
        square = "".join("1" if k == i else "*" for k in (1, 2, 3))
        dropped.add((square, single(j - (j > i), FUTURE)))  # j's position among the square's stars
    cells = F.cube(3).cells.values()
    entries = [e for c in cells for e in cube_faces(c.id) if e[:2] not in dropped]
    return build(LETTERS, [(c.id, c.dim, c.label) for c in cells], "000", entries)


def split_hexagon():
    """The 3-cube without the finishing orders 1-2-3 and 3-2-1.

    The four orders left form two pairs joined by 2-step swaps, 2-1-3 with
    2-3-1 and 1-3-2 with 3-1-2, so only the 3-step window from *** glues
    the pairs.
    """
    return cube_without_orders([(1, 2, 3), (3, 2, 1)])


WINDOW_MODELS = st.sets(st.sampled_from(FINISHING_ORDERS)).map(cube_without_orders)


# clashes, unreachable cells, and fixtures whose executions merge
FIXED_MODELS = {
    "self_loop": F.self_loop(),
    "two_loops": two_loops(),
    "loop_unrolling(2).source": F.loop_unrolling(2).source,
    "loop_unrolling(2).target": F.loop_unrolling(2).target,
    "late_clash": late_clash(),
    "unreachable_cells": unreachable_cells(),
    "full_cube": F.full_cube(),
    "punctured_cube": F.punctured_cube(),
    "glued_square": F.glued_square(),
    "split_hexagon": split_hexagon(),
}


def check_explorer(x, max_len):
    """`explore` and `classes_to` against enumerated paths grouped by rewriting, at every bound <= max_len."""
    groups = partition_paths(enumerate_paths(x, max_len))
    group_of = {p.key(): k for k, group in enumerate(groups) for p in group}
    for bound in range(max_len + 1):
        classes = list(explore(x, bound))
        expect = [g for g in groups if len(g[0]) <= bound]
        assert [(c.ordinal, c.end, c.level, c.size) for c in classes] == [
            (k, g[0].end, len(g[0]), len(g)) for k, g in enumerate(expect)
        ], bound
        for c, g in zip(classes, expect):
            first = g[0]  # the class's first member in breadth-first order
            assert (c.prefix, c.step) == (
                (group_of[(first.cells[:-1], first.steps[:-1])], first.steps[-1]) if len(first) else (None, None)
            )
            after = x.moves.get(c.end, ()) if c.level < bound else ()
            for p in g:
                assert c.successors == {(step, z): group_of[p.extend(step, z).key()] for step, z in after}, p.text()
    for cid in sorted(x.cells):
        got = [(c.representative.key(), len(c)) for c in classes_to(x, cid, max_len)]
        assert got == [(min(p.key() for p in g), len(g)) for g in groups if g[0].end == cid], cid


def records(stream):
    """Every field of every class record, read once the stream is exhausted and all successors are in."""
    return [(c.ordinal, c.end, c.level, c.size, c.step, c.prefix, c.successors) for c in list(stream)]


def check_record_stream(x, bound, to):
    """`explore` against the chain-walking explorer, record by record."""
    assert records(explore(x, bound, to)) == records(chain_walk_explore(x, bound, to)), (bound, to)


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS), st.integers(0, 9), st.data())
def test_explore_matches_the_chain_walk_record_stream(x, bound, data):
    check_record_stream(x, bound, data.draw(st.sampled_from([None, *sorted(x.cells)])))


@pytest.mark.parametrize("name", list(FIXED_MODELS))
def test_explore_matches_the_chain_walk_record_stream_on_fixed_models(name):
    x = FIXED_MODELS[name]
    for bound in range(12):
        for to in [None, *sorted(x.cells)]:
            check_record_stream(x, bound, to)


def test_explore_keeps_runs_with_one_composite_and_two_ends_apart():
    # the table lacks the square's composite, so its two finishing orders end at different vertices
    cells = {"**": Cell("**", 2, ("a", "b")), "1*": Cell("1*", 1, ("b",)), "*1": Cell("*1", 1, ("a",))}
    cells |= {v: Cell(v, 0, ()) for v in ("11", "11'")}
    faces = {("**", single(1, FUTURE)): "1*", ("**", single(2, FUTURE)): "*1"}
    faces |= {("1*", single(1, FUTURE)): "11", ("*1", single(1, FUTURE)): "11'"}
    x = PHDA(frozenset("ab"), cells, "**", faces)
    check_record_stream(x, 2, None)
    assert [(c.end, c.size) for c in explore(x, 2) if c.level == 2] == [("11", 1), ("11'", 1)]


def check_homotopy(x):
    """`are_confluently_homotopic` against breadth-first closure, on all pairs of paths of length <= 4."""
    paths = enumerate_paths(x, 4)
    chains = ChainIndex(x)
    for p in paths:
        closure = homotopy_closure(p, chains)
        assert [are_confluently_homotopic(p, q) for q in paths] == [q.key() in closure for q in paths], p.text()


@settings(max_examples=40, deadline=None)
@given(RANDOM_MODELS)
def test_explorer_matches_path_partition(x):
    check_explorer(x, 2 * len(x.initial))


@settings(max_examples=40, deadline=None)
@given(WINDOW_MODELS, st.integers(0, 9), st.sampled_from([None, "111"]))
def test_explorer_matches_both_oracles_on_cubes_without_finishing_orders(x, bound, to):
    # half of these models glue some finishing orders only through the 3-step window, which ends at 111
    check_explorer(x, 6)
    check_record_stream(x, bound, to)


@settings(max_examples=40, deadline=None)
@given(RANDOM_MODELS)
def test_is_tree_matches_path_level_oracle(x):
    assert is_tree(x) == path_level_is_tree(x)
    for depth in (2, 4):
        tree = unfold(x, depth).tree
        assert is_tree(tree) == path_level_is_tree(tree) == TreeReport(True)


def test_every_model_of_the_square_unfolds_to_a_tree_and_completes():
    verdicts, totals = [], 0
    for x in square_models():
        tree, cover, _ = unfold(x, len(x.cells))
        # a tree is its own unfolding: the cover is a bijection on cells and keeps the number of faces
        unique = sorted(cover.mapping.values()) == sorted(x.cells) and len(tree.faces) == len(x.faces)
        assert bool(is_tree(x)) == unique, model_to_dict(x)
        assert is_tree(tree) and is_covering(cover, len(tree.cells)), model_to_dict(x)
        completed = completion_of(x)
        assert is_hda(completed.model), model_to_dict(x)
        if is_hda(x):  # the unit and the counit are inverse maps
            back = counit(x)
            assert compose(back, completed.unit).mapping == identity(x).mapping, model_to_dict(x)
            assert compose(completed.unit, back).mapping == identity(completed.model).mapping, model_to_dict(x)
            totals += 1
        else:
            with pytest.raises(NotTotalHDA):
                counit(x)
        verdicts.append(unique)
    assert (len(verdicts), sum(verdicts), totals) == (4808, 28, 35)


@pytest.mark.parametrize("k", range(1, 9))
def test_loop_unrollings_cover_the_loop_and_unfold_to_trees_at_every_depth(k):
    f = F.loop_unrolling(k)
    x = f.source
    assert is_covering(f, 2 * k) and not is_tree(x)
    for d in range(11):
        tree, cover, truncated = unfold(x, d)
        assert is_tree(tree) and len(tree.cells) == d + 1 and truncated, d
        assert d == 0 or is_covering(cover, d - 1), d
        unit = tree_unit(tree)
        assert unit.source == tree and validate_morphism(unit) == [], d
        assert sorted(unit.mapping) == sorted(tree.cells), d
        assert sorted(unit.mapping.values()) == sorted(unit.target.cells), d  # onto, each cell once


@settings(max_examples=20, deadline=None)
@given(RANDOM_MODELS)
def test_homotopy_matches_bfs_closure(x):
    check_homotopy(x)


@pytest.mark.parametrize("name", list(FIXED_MODELS))
def test_explorer_tree_and_homotopy_match_oracles_on_fixed_models(name):
    x = FIXED_MODELS[name]
    check_explorer(x, 6)
    assert is_tree(x) == path_level_is_tree(x)
    check_homotopy(x)


def check_lifting(f, bounds=None):
    """`is_open` and `is_covering` against the path-stream and first-path oracles, and `first_path` of
    each walked cell against the breadth-first walk over paths, at the given bounds, by default every
    bound 0..|cells| + 2."""
    x = f.source
    for bound in range(len(x.cells) + 3) if bounds is None else bounds:
        walked = [(c, first_path(x, c)) for c, (n, _, _) in x.walk.items() if n <= bound]
        assert walked == list(breadth_first_paths(x, bound).items())
        for check, unique in ((is_open, False), (is_covering, True)):
            r = check(f, bound)
            for oracle in (path_stream_lifting, first_path_lifting):
                expect = oracle(f, bound, unique)
                assert (r.ok, str(r.square), r.lifts) == (expect.ok, str(expect.square), expect.lifts), (oracle, bound)


def fixture_lifting_maps():
    maps = {}
    for name, mk in F.MODELS.items():
        maps |= {f"{kind} of {name}": f for kind, f in lifting_maps(mk(), 4).items()}
    maps |= {
        **{f"branch_fold({n}, {m})": F.branch_fold(n, m) for n in range(1, 5) for m in range(1, n + 1)},
        "double_square_fold": F.double_square_fold(),
        "loop_unrolling(2)": F.loop_unrolling(2),
        "loop_unrolling(3)": F.loop_unrolling(3),
    }
    for k, (section, retraction) in enumerate(section_retraction_pairs()):
        maps |= {f"section {k}": section, f"retraction {k}": retraction}
    return maps


FIXTURE_LIFTING_MAPS = fixture_lifting_maps()


@pytest.mark.parametrize("name", list(FIXTURE_LIFTING_MAPS))
def test_lifting_matches_path_stream_on_fixtures(name):
    check_lifting(FIXTURE_LIFTING_MAPS[name])


@settings(max_examples=10, deadline=None)
@given(models(dense=True), st.integers(1, 4))
def test_lifting_matches_path_stream_on_dense_models(x, depth):
    for f in lifting_maps(x, depth).values():
        check_lifting(f)


@pytest.mark.parametrize("n, depth", [(n, depth) for n in (3, 4) for depth in range(3, 9)])
def test_lifting_matches_the_oracles_on_cube_covers(n, depth):
    cover = unfold(F.cube(n), depth).cover
    check_lifting(cover, (0, 1, depth - 1, depth, len(cover.source.cells)))


@pytest.mark.parametrize("f", [identity(F.self_loop()), unfold(F.self_loop(), 4).cover, F.loop_unrolling(2), F.loop_unrolling(3)])
def test_lifting_bound_beyond_the_walk_changes_nothing(f):
    n = len(f.source.cells)
    for check in (is_open, is_covering):
        assert check(f, n) == check(f, 2 * n)


@st.composite
def generator_entries(draw):
    """Single faces of a random n-cube (n <= 3) and up to two composites, with up to three targets changed at random.

    A new target has the dimension of the old one, so every chain lowers the
    dimension and the closure is finite.
    """
    n = draw(st.integers(1, 3))
    cells = ["".join(c) for c in itertools.product("01*", repeat=n)]
    singles = [e for cid in cells for e in cube_faces(cid)]
    entries = draw(st.lists(st.sampled_from(singles), max_size=len(singles), unique=True))
    tops = [c for c in cells if c.count("*") >= 2]
    for _ in range(draw(st.integers(0, 2 if tops else 0))):
        top = draw(st.sampled_from(tops))
        w = draw(st.sampled_from([w for w in enumerate_words(top.count("*")) if len(w) >= 2]))
        entries.append((top, w, cube_face(top, w)))
    for _ in range(draw(st.integers(0, min(3, len(entries))))):
        k = draw(st.integers(0, len(entries) - 1))
        dim = entries[k][2].count("*")
        entries[k] = entries[k][:2] + (draw(st.sampled_from([c for c in cells if c.count("*") == dim])),)
    return entries


def closure_outcome(close, entries):
    """The closed table, or the violation kinds the closure raised."""
    try:
        return close(entries)
    except ModelInvalid as err:
        return {v.kind for v in err.violations}


@settings(max_examples=200, deadline=None)
@given(generator_entries())
def test_saturate_matches_the_two_sided_closure(entries):
    got = closure_outcome(saturate, entries)
    assert got == closure_outcome(two_sided_saturate, entries)
    assert isinstance(got, dict) or got == {"NotFunctional"}


@settings(max_examples=40, deadline=None)
@given(SHORTCUT_MODELS)
def test_shortcuts_match_the_saturation_oracle(x):
    shortcuts = find_shortcuts(x)
    assert shortcuts and shortcuts == saturation_shortcuts(x)
    cid, w = min(shortcuts, key=lambda s: (s[0], s[1].pairs))
    assert is_tree(x) == TreeReport(False, f"shortcut {w.text()} on cell {cid}")


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS), st.integers(0, 1000))
def test_validation_matches_the_pairwise_loop(x, pick):
    assert find_shortcuts(x) == saturation_shortcuts(x)
    for kind, y in {"valid": x, **broken_tables(x, pick)}.items():
        assert [str(v) for v in validate_phda(y)] == [str(v) for v in pairwise_validate_phda(y)], kind


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS), st.integers(0, 1000), st.randoms(use_true_random=False))
def test_loading_does_not_depend_on_entry_order(x, pick, rnd):
    """A file's face entries in any order give the same violation list, or the same model and generators."""
    for kind, y in {"valid": x, **broken_tables(x, pick)}.items():
        doc = model_to_dict(y)
        rnd.shuffle(doc["faces"])
        expect = [str(v) for v in pairwise_validate_phda(y)]
        try:
            got = model_from_dict(doc)
        except ModelInvalid as err:
            assert [str(v) for v in err.violations] == expect, kind
        else:
            assert not expect and got == y and got.generators == y.generators, kind
    source = PHDA(x.alphabet, x.cells, x.initial, dict(rnd.sample(list(x.faces.items()), len(x.faces))))
    no_faces = Morphism(source, PHDA(x.alphabet, x.cells, x.initial, {}), {c: c for c in x.cells})
    assert [str(v) for v in validate_morphism(no_faces)] == [
        f"FaceNotPreserved({a},{w.text()},{b})" for a, w, b in x.entries()
    ]


def prefix(s, m):
    return Spine(s.entries[: m + 1], s.steps[:m])


def shared_prefix(s, t):
    """The length of the longest common prefix of two spines."""
    m = 0
    while m < min(len(s), len(t)) and (s.steps[m], s.entries[m + 1]) == (t.steps[m], t.entries[m + 1]):
        m += 1
    return m


@st.composite
def executions(draw):
    """Executions that start k actions and finish them in drawn orders, or executions of a random or fixture model.

    Finishing orders share their start and finish the same actions in
    other orders, so the future-run rule has runs to glue; two draws in
    three take them, as prefixes of model executions seldom glue runs.
    """
    if draw(st.integers(0, 2)) > 0:
        k = draw(st.integers(2, 3))
        orders = [s for u, s in finish_order_diagram(k).objects.items() if u != "A"]
        return draw(st.lists(st.sampled_from(orders), min_size=2, max_size=4, unique=True))
    x = draw(st.one_of(RANDOM_MODELS, st.sampled_from(sorted(F.MODELS)).map(lambda name: F.MODELS[name]())))
    longest_first = sorted(enumerate_paths(x, 4), key=len, reverse=True)
    return [spine_of(p) for p in draw(st.lists(st.sampled_from(longest_first), min_size=2, max_size=4))]


@st.composite
def prefix_glued_diagrams(draw):
    """Executions glued pairwise along shared prefixes through prefix objects, sometimes with one random total arrow."""
    spines = draw(executions())
    objects = {f"E{i}": s for i, s in enumerate(spines)}
    arrows = []
    pairs = st.sampled_from(list(itertools.combinations(range(len(spines)), 2)))
    for n, (i, j) in enumerate(draw(st.lists(pairs, min_size=1, max_size=4, unique=True))):
        common = shared_prefix(spines[i], spines[j])
        m = common if draw(st.booleans()) else draw(st.integers(0, common))
        objects[f"P{n}"] = prefix(spines[i], m)
        arrows += [Arrow(f"P{n}-E{e}", f"P{n}", f"E{e}", {k: k for k in range(m + 1)}) for e in (i, j)]
    if draw(st.integers(0, 9)) == 5:  # seldom, as a random map is nearly never a morphism
        src, dst = (draw(st.sampled_from(sorted(objects))) for _ in range(2))
        cell_map = {k: draw(st.integers(0, len(objects[dst]))) for k in range(len(objects[src]) + 1)}
        arrows.append(Arrow("random", src, dst, cell_map))
    return Diagram(objects=objects, arrows=tuple(arrows))


def arrow_classes(d):
    """The number of classes of nodes that the initial nodes and the arrows alone identify."""
    uf = UnionFind((u, k) for u, s in d.objects.items() for k in range(len(s) + 1))
    for u in d.objects:
        uf.union(("E0", 0), (u, 0))
    for a in d.arrows:
        for k, v in a.cell_map.items():
            uf.union((a.src, k), (a.dst, v))
    return len(uf.groups())


@settings(max_examples=150, deadline=None)
@given(prefix_glued_diagrams())
def test_colimit_matches_the_fixpoint_on_prefix_glued_executions(d):
    got = glueing_outcome(colimit, d)
    assert got == glueing_outcome(fixpoint_colimit, d)
    if isinstance(got[0], str):
        event("rejected")
        return
    r = colimit(d)
    assert check_cocone(d, r.model, r.injections)
    assert mediate(d, r, r.injections).mapping == identity(r.model).mapping
    event("runs glued classes" if len(r.model.cells) < arrow_classes(d) else "arrows alone glued")


def unfold_single_faces(x, depth):
    """The single faces of `unfold(x, depth)`, read off the class records as unfold listed them before `run_faces`."""
    out = []
    for c in list(explore(x, depth)):  # successors are filled in once the next level is built
        if c.step is not None and c.step[1] == PAST:
            out.append((f"u{c.ordinal}", single(*c.step), f"u{c.prefix}"))
        out += [(f"u{c.ordinal}", single(*step), f"u{o}") for (step, _), o in c.successors.items() if step[1] == FUTURE]
    return out


def spine_faces(d, r):
    """The single faces of a colimit, read off the objects' steps through the injections."""
    out = []
    for u, s in d.objects.items():
        at = r.injections[u].mapping
        for k, (j, a) in enumerate(s.steps, start=1):
            lo, hi = at[str(k - 1)], at[str(k)]
            out.append((hi, single(j, a), lo) if a == PAST else (lo, single(j, a), hi))
    return out


def check_unfold_table(x, depth):
    """The written table of the unfolding against the saturation of its single faces."""
    assert unfold(x, depth).tree.faces == saturate(unfold_single_faces(x, depth)), depth


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, SHORTCUT_MODELS, WINDOW_MODELS), st.integers(0, 5))
def test_unfold_table_is_the_saturation_of_its_single_faces(x, depth):
    check_unfold_table(x, depth)


@pytest.mark.parametrize("name", list(FIXED_MODELS) + sorted(F.MODELS.keys() - FIXED_MODELS.keys()))
def test_unfold_table_is_the_saturation_of_its_single_faces_on_fixed_models(name):
    x = FIXED_MODELS[name] if name in FIXED_MODELS else F.MODELS[name]()
    for depth in range(6):
        check_unfold_table(x, depth)


@settings(max_examples=100, deadline=None)
@given(prefix_glued_diagrams())
def test_accepted_prefix_glued_colimits_are_trees_with_saturated_tables(d):
    try:
        r = colimit(d)
    except InvalidDiagram:
        event("rejected")
        return
    assert r.model.faces == saturate(spine_faces(d, r))
    assert is_tree(r.model) == TreeReport(True)


def class_pair_diagram(x, depth):
    """The empty execution and one object per (class, step) pair of `explore(x, depth)`, with prefix arrows.

    A pair's object is its class's first member extended by the step; the
    first member is the object of the pair that enters the class.  Returns
    the diagram and, per object, the unfolding's states of its prefixes.
    """
    classes = list(explore(x, depth))
    first, obj = {0: empty_path(x)}, {0: "e"}
    objects, arrows, states = {"e": spine_of(first[0])}, [], {"e": ["u0"]}
    for c in classes:
        for (step, z), o in c.successors.items():
            u = f"{c.ordinal}-{step[0]}{step[1]}-{z}"
            p = first[c.ordinal].extend(step, z)
            objects[u], states[u] = spine_of(p), states[obj[c.ordinal]] + [f"u{o}"]
            arrows.append(Arrow(f"{obj[c.ordinal]}<{u}", obj[c.ordinal], u, {k: k for k in range(len(p))}))
            if o not in first:  # the first pair into class o
                first[o], obj[o] = p, u
    return Diagram(objects, tuple(arrows)), states


def check_builders_agree(x, depth):
    """`unfold(x, depth).tree` is isomorphic to the colimit of the class-pair diagram, through `mediate`."""
    tree = unfold(x, depth).tree
    d, states = class_pair_diagram(x, depth)
    r = colimit(d)
    assert r.model.faces == saturate(spine_faces(d, r)), depth
    legs = {u: Morphism(d.shape(u), tree, {str(k): s for k, s in enumerate(states[u])}) for u in d.objects}
    h = mediate(d, r, legs)
    assert sorted(h.mapping.values()) == sorted(tree.cells) and len(h.mapping) == len(r.model.cells), depth
    inverse = Morphism(tree, r.model, {y: c for c, y in h.mapping.items()})
    assert validate_morphism(h) == [] and validate_morphism(inverse) == [], depth


@pytest.mark.parametrize("name", sorted(F.MODELS))
def test_unfolding_is_the_colimit_of_its_class_pair_diagram(name):
    for depth in (3, 5):
        check_builders_agree(F.MODELS[name](), depth)


@settings(max_examples=10, deadline=None)
@given(st.one_of(RANDOM_MODELS, WINDOW_MODELS), st.sampled_from([3, 5]))
def test_unfolding_is_the_colimit_of_its_class_pair_diagram_on_random_models(x, depth):
    check_builders_agree(x, depth)


def check_tree_is_fixed(x, depth):
    """`T = unfold(x, depth).tree` is fixed: `tree_unit(T)` is an isomorphism, and T is the colimit of its class-pair diagram."""
    tree = unfold(x, depth).tree
    eta = tree_unit(tree)
    inverse = Morphism(eta.target, tree, {y: c for c, y in eta.mapping.items()})
    assert len(eta.target.cells) == len(tree.cells), depth
    assert validate_morphism(eta) == [] and validate_morphism(inverse) == [], depth
    check_builders_agree(tree, depth)


@settings(max_examples=40, deadline=None)
@given(st.one_of(RANDOM_MODELS, WINDOW_MODELS), st.sampled_from([3, 5]))
def test_unfoldings_are_fixed_trees_on_random_models(x, depth):
    check_tree_is_fixed(x, depth)


def execution_diagram(x, depth):
    """Every execution of length at most `depth`, each with an arrow from its prefix one step shorter."""
    paths = enumerate_paths(x, depth)
    name = {p.key(): f"p{i}" for i, p in enumerate(paths)}
    arrows = []
    for p in paths[1:]:  # all but the empty execution
        u, v = name[p.cells[:-1], p.steps[:-1]], name[p.key()]
        arrows.append(Arrow(f"{u}<{v}", u, v, {k: k for k in range(len(p))}))
    return Diagram({name[p.key()]: spine_of(p) for p in paths}, tuple(arrows))


def test_colimit_of_all_executions_differs_from_the_unfolding():
    """A known difference between two trees of executions, settled at desk size by the test below.

    This is not a theorem.  The paper builds a tree as the colimit of some
    diagram of paths (arXiv 1804.10894), and the class-pair diagram above
    is one.  The diagram of all 181 executions of `full_cube` of length at
    most 5, glued by one-step prefix arrows, gives 157 cells where the
    unfolding has 151; the executions of that unfolding, itself a tree,
    give 157 again.  `explore` makes two past extensions one class once a
    window of future steps glues their prefixes; the colimit glues only the
    ends of runs of future steps.  On a desk-size instance of the same
    difference, the glueing is initial among all cocones into the
    unfolding, the model and itself: there `colimit` is the colimit in
    pHDA, and the difference lies in the diagram of all executions, which
    is not the one the paper's theorem uses.  A change to either builder
    that moves these counts changes `unfold` or `colimit` digests.
    """
    x = F.full_cube()
    d = execution_diagram(x, 5)
    tree = unfold(x, 5).tree
    assert (len(d.objects), len(colimit(d).model.cells), len(tree.cells)) == (181, 157, 151)
    assert is_tree(tree)
    assert len(colimit(execution_diagram(tree, 5)).model.cells) == 157


def cocones(d, apex, depth):
    """Every cocone from a diagram of executions with prefix arrows into apex: each object's leg is an
    execution of apex with that object's spine, and each arrow's target leg extends its source leg."""
    by_spine = {}
    for p in enumerate_paths(apex, depth):
        by_spine.setdefault(spine_of(p), []).append(p.cells)
    parent = {a.dst: a.src for a in d.arrows}
    order = sorted(d.objects, key=lambda u: len(d.objects[u]))
    found = []

    def extend(k, legs):
        if k == len(order):
            found.append({u: Morphism(d.shape(u), apex, {str(i): c for i, c in enumerate(cells)})
                          for u, cells in legs.items()})
            return
        u = order[k]
        for cells in by_spine.get(d.objects[u], ()):
            if u not in parent or cells[:-1] == legs[parent[u]]:
                extend(k + 1, {**legs, u: cells})

    extend(0, {})
    return found


def test_colimit_of_all_executions_is_initial_among_desk_size_cocones():
    # the 3-cube without some finishing orders: 9 executions of length at most 5 glue to 8 cells, the unfolding has 7
    keep = {"000", "0*0", "**0", "*10", "*11", "011", "1*0", "1*1", "11*", "110", "111"}
    x = F.cube(3, F.cube(3).cells.keys() - keep)
    d = execution_diagram(x, 5)
    res = colimit(d)
    tree = unfold(x, 5).tree
    assert validate_phda(x) == [] and (len(d.objects), len(res.model.cells), len(tree.cells)) == (9, 8, 7)
    assert is_tree(res.model) and is_tree(tree)
    counts = {}
    for name, apex in (("tree", tree), ("x", x), ("colimit", res.model)):
        maps = enumerate_morphisms(res.model, apex)
        found = cocones(d, apex, 5)
        for legs in found:
            assert check_cocone(d, apex, legs), name
            commuting = [m for m in maps if all(m.mapping[c] == legs[u].mapping[k]
                                                for u, inj in res.injections.items() for k, c in inj.mapping.items())]
            assert commuting == [mediate(d, res, legs)], name
        counts[name] = len(found)
    assert counts == {"tree": 1, "x": 1, "colimit": 4}
