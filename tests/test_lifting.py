import pytest

from phda import fixtures as F
from phda.errors import DomainMismatch, NotATree, NotOpen
from phda.lifting import construct_lift, enumerate_morphisms, is_cofibrant, is_covering, is_open
from phda.colimits import colimit, mediate
from phda.model import Morphism, build, compose, identity, validate_morphism
from phda.paths import Spine, enumerate_paths, map_path, path_shape
from phda.unfolding import is_tree, unfold
from phda.words import FUTURE, PAST, single

from oracles import enumerate_lifts


def square_cover():
    return unfold(F.full_square(), 4).cover


def mediator_into_square():
    d = F.glued_square_diagram()
    res = colimit(d)
    sq = F.full_square()
    legs = {
        "A": Morphism(d.shape("A", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**"}),
        "B": Morphism(d.shape("B", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "1*", "4": "11"}),
        "C": Morphism(d.shape("C", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "*1", "4": "11"}),
    }
    return mediate(d, res, legs)


def test_unfold_covers_are_open_coverings():
    for name, mk in F.MODELS.items():
        x = mk()
        for depth in (2, 4):
            cover = unfold(x, depth).cover
            assert bool(is_open(cover, depth - 1)), (name, depth)
            assert bool(is_covering(cover, depth - 1)), (name, depth)


def test_identity_is_a_covering():
    for name in ("full_square", "glued_square", "self_loop"):
        f = identity(F.MODELS[name]())
        assert bool(is_open(f, 4)) and bool(is_covering(f, 4))


def test_prefix_inclusion_is_not_open():
    long = Spine(((0, ()), (1, ("a",)), (0, ())), ((1, PAST), (1, FUTURE)))
    short = Spine(((0, ()), (1, ("a",))), ((1, PAST),))
    inc = Morphism(path_shape(short, frozenset("a")), path_shape(long, frozenset("a")), {"0": "0", "1": "1"})
    assert validate_morphism(inc) == []
    report = is_open(inc, 3)
    assert not report and report.square is not None


def test_branch_fold_open_but_not_covering():
    fold = F.branch_fold(2, 1)
    assert bool(is_open(fold, 3))
    report = is_covering(fold, 3)
    assert not report and report.lifts == 2


def oracle_extension_lifts(f, p, suffix):
    """Whether some extension of p maps onto the given codomain steps, searched step by step."""
    stack = [(p.end, 0)]
    while stack:
        cell, k = stack.pop()
        if k == len(suffix):
            return True
        (i, a), target = suffix[k]
        if a == FUTURE:
            found = [f.source.faces.get((cell, single(i, FUTURE)))]
        else:
            found = [z for (z, w), y in f.source.faces.items() if w == single(i, PAST) and y == cell]
        stack.extend((z, k + 1) for z in found if z is not None and f.mapping[z] == target)
    return False


def oracle_is_open(f, max_len):
    """Every extension of every image path, of any length within the bound, lifts."""
    cod_paths = enumerate_paths(f.target, max_len)
    for p in enumerate_paths(f.source, max_len):
        image = map_path(f, p)
        for q in cod_paths:
            if len(q) <= len(p) or (q.cells[: len(p) + 1], q.steps[: len(p)]) != image.key():
                continue
            if not oracle_extension_lifts(f, p, [(q.steps[k], q.cells[k + 1]) for k in range(len(p), len(q))]):
                return False
    return True


def test_prefix_and_exhaustive_modes_agree():
    long = Spine(((0, ()), (1, ("a",)), (0, ())), ((1, PAST), (1, FUTURE)))
    short = Spine(((0, ()), (1, ("a",))), ((1, PAST),))
    cases = [
        identity(F.full_square()),
        F.branch_fold(2, 1),
        square_cover(),
        F.loop_unrolling(2),
        F.double_square_fold(),
        Morphism(path_shape(short, frozenset("a")), path_shape(long, frozenset("a")), {"0": "0", "1": "1"}),
    ]
    # one-step squares over executions of length <= n reach codomain paths of length <= n + 1
    verdicts = set()
    for f in cases:
        for n in (0, 1, 2, 3):
            verdicts.add(is_open(f, n).ok)
            assert is_open(f, n).ok == oracle_is_open(f, n + 1), (f.mapping, n)
    assert verdicts == {True, False}


def test_construct_lift_identity_square():
    cover = square_cover()
    h = construct_lift(cover, cover)
    assert h.mapping == identity(cover.source).mapping
    assert len(enumerate_lifts(cover, cover)) == 1


def test_construct_lift_point():
    cover = square_cover()
    point_in = Morphism(F.point(), cover.target, {"p": "00"})
    h = construct_lift(point_in, cover)
    assert validate_morphism(h) == []
    assert cover.mapping[h.mapping["p"]] == "00"


def test_construct_lift_mediator_through_cover():
    phi = mediator_into_square()
    cover = square_cover()
    h = construct_lift(phi, cover)
    assert validate_morphism(h) == []
    assert all(cover.mapping[h.mapping[c]] == phi.mapping[c] for c in h.mapping)
    assert len(enumerate_lifts(phi, cover)) == 1


def test_construct_lift_through_merely_open_map():
    # lifting through the fold: two lifts exist, the construction picks one
    fold = F.branch_fold(2, 1)
    one = F.branch_tree(1)
    g = Morphism(one, fold.target, {"r": "r", "e0": "e0", "v0": "v0"})
    h = construct_lift(g, fold)
    assert validate_morphism(h) == []
    assert all(fold.mapping[h.mapping[c]] == g.mapping[c] for c in h.mapping)
    assert len(enumerate_lifts(g, fold)) == 2


def test_construct_lift_unit_through_completion_cover():
    from phda.completion import complete

    D = F.glued_square()
    chi, unit = complete(D)
    cover = unfold(chi, 4).cover
    h = construct_lift(unit, cover)
    assert validate_morphism(h) == []
    assert all(cover.mapping[h.mapping[c]] == unit.mapping[c] for c in h.mapping)
    assert len(enumerate_lifts(unit, cover)) == 1


def test_construct_lift_reports_the_least_failing_cell_of_the_first_failing_level():
    # the walk meets the edge ends in the order w, u; the lift is solved by (length, cell)
    tree = build(
        "a",
        [("r", 0, ()), ("e0", 1, ("a",)), ("e1", 1, ("a",)), ("w", 0, ()), ("u", 0, ())],
        "r",
        [
            ("e0", single(1, PAST), "r"), ("e0", single(1, FUTURE), "w"),
            ("e1", single(1, PAST), "r"), ("e1", single(1, FUTURE), "u"),
        ],
    )
    starts = build(
        "a",
        [("r", 0, ()), ("e0", 1, ("a",)), ("e1", 1, ("a",))],
        "r",
        [("e0", single(1, PAST), "r"), ("e1", single(1, PAST), "r")],
    )
    f = Morphism(starts, tree, {c: c for c in starts.cells})
    assert validate_morphism(f) == [] and not is_open(f, 1)
    with pytest.raises(NotOpen) as err:
        construct_lift(identity(tree), f)
    assert str(err.value) == "no lift for cell u over square r -(1,0)-> e1 | image extends by -(1,1)-> u"


def test_construct_lift_rejects_a_map_that_moves_the_initial_cell():
    # g sends the initial cell p0 to p1, so the stepwise lift of g through the identity does not commute
    s = F.segment()
    g = Morphism(s, s, {"p0": "p1", "e": "e", "p1": "p1"})
    with pytest.raises(NotOpen) as err:
        construct_lift(g, identity(s))
    # the message blames f, though the invalid map is g
    assert str(err.value) == "the stepwise lift is not a commuting morphism; the map is not open at this depth"


def test_construct_lift_requires_tree():
    cover = square_cover()
    with pytest.raises(NotATree):
        construct_lift(identity(F.full_square()), cover)
    with pytest.raises(DomainMismatch, match="both maps must share their codomain"):
        construct_lift(identity(cover.source), cover)


def test_factor_universal_loop():
    loop_cover = unfold(F.self_loop(), 6).cover
    unroll = F.loop_unrolling(2)
    assert bool(is_covering(unroll, 5))
    h = construct_lift(loop_cover, unroll)
    assert validate_morphism(h) == []
    assert all(unroll.mapping[h.mapping[c]] == loop_cover.mapping[c] for c in h.mapping)
    assert bool(is_covering(h, 5))
    assert len(enumerate_lifts(loop_cover, unroll)) == 1


def test_factor_universal_self():
    cover = square_cover()
    h = construct_lift(cover, cover)
    assert h.mapping == identity(cover.source).mapping


def test_retracts_of_trees_are_trees():
    pairs = F.section_retraction_pairs()
    assert len(pairs) >= 3
    for s, r in pairs:
        assert validate_morphism(s) == [] and validate_morphism(r) == []
        assert compose(r, s).mapping == identity(s.source).mapping
        assert bool(is_tree(r.source)), "the big object is a tree"
        assert bool(is_tree(s.source)), "its retract is a tree"


def test_every_covering_is_open():
    for f in (square_cover(), F.loop_unrolling(3), identity(F.glued_square())):
        if is_covering(f, 3):
            assert bool(is_open(f, 3))


def test_cofibrant_examples():
    assert is_cofibrant(F.glued_square())
    assert is_cofibrant(F.point())
    assert not is_cofibrant(F.full_square())


def corpus_disagreements(x, corpus):
    """The maps g of x into the codomain of an open map f of the corpus that lift through f
    although x is not cofibrant, or do not lift although it is."""
    decision = is_cofibrant(x)
    return [g for f in corpus for g in enumerate_morphisms(x, f.target) if bool(enumerate_lifts(g, f)) != decision]


def test_cofibrant_cross_validation_corpus():
    D = F.glued_square()
    assert is_cofibrant(D) and corpus_disagreements(D, [unfold(D, 6).cover]) == []
    sq = F.full_square()
    assert not is_cofibrant(sq) and corpus_disagreements(sq, [square_cover()]) == []
    # the identity does not tell trees apart: the square lifts through it
    assert [g.mapping for g in corpus_disagreements(sq, [identity(sq)])] == [identity(sq).mapping]


def test_enumerate_morphisms_endomorphisms_of_square():
    sq = F.full_square()
    endos = enumerate_morphisms(sq, sq)
    assert [m.mapping for m in endos] == [identity(sq).mapping]
