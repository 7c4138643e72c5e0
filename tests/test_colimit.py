import itertools

import pytest

from phda import colimits, model
from phda import fixtures as F
from phda.colimits import Arrow, ColimitResult, Diagram, check_cocone, colimit, mediate
from phda.errors import InvalidDiagram, NotACocone
from phda.homotopy import are_confluently_homotopic
from phda.model import Morphism, validate_morphism, validate_phda
from phda.paths import Path, enumerate_paths, map_path, path_shape
from phda.unfolding import is_tree
from phda.words import FUTURE, PAST

from oracles import finish_order_diagram, fixpoint_colimit, glueing_outcome, patch_everywhere, spine


def test_glued_square_pushout():
    res = colimit(F.glued_square_diagram())
    D = res.model
    assert validate_phda(D) == []
    assert len([c for c in D.cells.values() if c.dim == 2]) == 1
    assert len(D.cells) == 6
    # the two finishing corners are identified
    assert res.injections["B"].mapping["4"] == res.injections["C"].mapping["4"]
    # but the finishing edges are not
    assert res.injections["B"].mapping["3"] != res.injections["C"].mapping["3"]
    for u, inj in res.injections.items():
        assert validate_morphism(inj) == [], u
    assert bool(is_tree(D))


def test_single_object_colimit_is_its_shape():
    s = spine([(), ("a",), ("a", "b")], [(1, PAST), (2, PAST)])
    res = colimit(Diagram(objects={"U": s}))
    shape = path_shape(s)
    assert len(res.model.cells) == len(shape.cells)
    assert validate_phda(res.model) == []
    renamed = {f"U:{k}": str(k) for k in range(3)}
    assert {(renamed[a], w, renamed[b]) for a, w, b in res.model.entries()} == set(shape.entries())


def test_two_copies_glued_at_root():
    s = spine([(), ("a",), ()], [(1, PAST), (1, FUTURE)])
    res = colimit(Diagram(objects={"L": s, "R": s}))
    by_dim = {}
    for cell in res.model.cells.values():
        by_dim[cell.dim] = by_dim.get(cell.dim, 0) + 1
    assert by_dim == {0: 3, 1: 2}
    assert bool(is_tree(res.model))


def test_empty_diagram_is_a_point():
    res = colimit(Diagram(objects={}))
    assert len(res.model.cells) == 1
    assert validate_phda(res.model) == []


def test_colimit_outputs_are_trees():
    diagrams = [
        F.glued_square_diagram(),
        Diagram(objects={"U": spine([(), ("a",), ("a", "b")], [(1, PAST), (2, PAST)])}),
        Diagram(objects={"L": spine([(), ("a",), ()], [(1, PAST), (1, FUTURE)]),
                         "R": spine([(), ("b",), ()], [(1, PAST), (1, FUTURE)])}),
    ]
    for d in diagrams:
        assert bool(is_tree(colimit(d).model))


def test_injection_images_of_paths_validate():
    res = colimit(F.glued_square_diagram())
    for u, inj in res.injections.items():
        for p in enumerate_paths(inj.source, 5):
            q = map_path(inj, p)
            from phda.paths import validate_path

            assert validate_path(q) is None, (u, p.text())


def test_accessibility_modulo_homotopy():
    # every execution of the glueing is homotopic to the image of a prefix
    res = colimit(F.glued_square_diagram())
    D = res.model
    prefix_images = []
    for u, inj in sorted(res.injections.items()):
        source_cells = [str(k) for k in range(len(F.glued_square_diagram().objects[u]) + 1)]
        for k in range(len(source_cells)):
            cells = tuple(inj.mapping[str(i)] for i in range(k + 1))
            steps = F.glued_square_diagram().objects[u].steps[:k]
            prefix_images.append(Path(D, cells, steps))
    for p in enumerate_paths(D, 5):
        assert any(
            len(q) == len(p) and are_confluently_homotopic(p, q) for q in prefix_images
        ), p.text()


def test_cocone_check_and_mediator():
    d = F.glued_square_diagram()
    res = colimit(d)
    sq = F.full_square()
    legs = {
        "A": Morphism(d.shape("A", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**"}),
        "B": Morphism(d.shape("B", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "1*", "4": "11"}),
        "C": Morphism(d.shape("C", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "*1", "4": "11"}),
    }
    assert check_cocone(d, sq, legs)
    phi = mediate(d, res, legs)
    assert validate_morphism(phi) == []
    from phda.model import compose

    for u, inj in res.injections.items():
        assert compose(phi, inj).mapping == legs[u].mapping, u


def test_injections_form_a_cocone_and_mediate_to_identity():
    d = F.glued_square_diagram()
    res = colimit(d)
    assert check_cocone(d, res.model, res.injections)
    phi = mediate(d, res, res.injections)
    from phda.model import identity

    assert phi.mapping == identity(res.model).mapping


def test_check_cocone_rejects_a_missing_leg_a_leg_into_another_apex_or_an_invalid_leg():
    d = F.glued_square_diagram()
    res = colimit(d)
    assert not check_cocone(d, res.model, {u: res.injections[u] for u in ("A", "B")})
    assert not check_cocone(d, F.full_square(), res.injections)
    c = res.injections["C"]
    point_for_edge = Morphism(c.source, res.model, {**c.mapping, "1": c.mapping["0"]})
    assert validate_morphism(point_for_edge)
    assert not check_cocone(d, res.model, dict(res.injections, C=point_for_edge))


def test_check_cocone_rejects_legs_that_disagree_along_an_arrow():
    d = F.glued_square_diagram()
    loose = Diagram(objects=d.objects)  # the same executions glued at the start only
    res = colimit(loose)
    assert check_cocone(loose, res.model, res.injections)
    assert not check_cocone(d, res.model, res.injections)


def test_colimit_result_unpacks_into_model_and_injections():
    res = colimit(F.glued_square_diagram())
    model, injections = res
    assert model is res.model and injections is res.injections


def test_mediate_rejects_non_cocones():
    d = F.glued_square_diagram()
    res = colimit(d)
    sq = F.full_square()
    bad = {
        "A": Morphism(d.shape("A", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**"}),
        "B": Morphism(d.shape("B", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "1*", "4": "11"}),
        "C": Morphism(d.shape("C", sq.alphabet), sq, {"0": "00", "1": "*0", "2": "**", "3": "*1", "4": "11"}),
    }
    with pytest.raises(NotACocone, match="legs do not commute with the diagram"):
        mediate(d, res, bad)
    with pytest.raises(NotACocone, match="no legs supplied"):
        mediate(d, res, {})
    # a glueing that identifies the two future edges, which the legs into the square keep apart
    good = dict(bad, C=Morphism(bad["C"].source, sq, {**bad["C"].mapping, "1": "0*"}))
    c_in = res.injections["C"]
    over_glued = dict(res.injections, C=Morphism(c_in.source, res.model, {**c_in.mapping, "3": "B:3"}))
    with pytest.raises(NotACocone, match="legs disagree on glued cell B:3"):
        mediate(d, ColimitResult(res.model, over_glued), good)


def test_invalid_arrow_rejected():
    s2 = spine([(), ("a",), ("a", "b")], [(1, PAST), (2, PAST)])
    s1 = spine([(), ("b",)], [(1, PAST)])
    d = Diagram(objects={"U": s1, "V": s2}, arrows=(Arrow("bad", "U", "V", {0: 0, 1: 1}),))
    with pytest.raises(InvalidDiagram):
        colimit(d)


def test_colimit_builds_one_shape_per_object(monkeypatch):
    built = []
    monkeypatch.setattr(colimits, "path_shape", lambda s, alphabet=None: built.append(s) or path_shape(s, alphabet))
    d = finish_order_diagram(4)
    res = colimit(d)
    assert len(built) == len(d.objects) == 25
    assert validate_phda(res.model) == [] and bool(is_tree(res.model))
    for u, inj in res.injections.items():
        assert inj.source == path_shape(d.objects[u], res.model.alphabet), u
        assert validate_morphism(inj) == [], u


def _invalid_diagrams():
    s2 = spine([(), ("a",), ("a", "b")], [(1, PAST), (2, PAST)])
    s1, s1a = spine([(), ("b",)], [(1, PAST)]), spine([(), ("a",)], [(1, PAST)])
    return {
        "arrow u references unknown objects": Diagram({"U": s1}, (Arrow("u", "U", "W", {0: 0, 1: 1}),)),
        "arrow t is not total on the source cells": Diagram({"U": s1, "V": s2}, (Arrow("t", "U", "V", {0: 0}),)),
        "arrow bad is not a prefix inclusion": Diagram({"U": s1, "V": s2}, (Arrow("bad", "U", "V", {0: 0, 1: 1}),)),
        "arrow len is not a prefix inclusion": Diagram({"U": s1a, "V": s2}, (Arrow("len", "U", "V", {0: 0, 1: 2}),)),
    }


@pytest.mark.parametrize("message", list(_invalid_diagrams()))
def test_invalid_diagram_messages(message):
    with pytest.raises(InvalidDiagram) as err:
        colimit(_invalid_diagrams()[message])
    assert str(err.value) == message


FIXED_DIAGRAMS = {
    "empty": Diagram(objects={}),
    "glued square": F.glued_square_diagram(),
    **{f"finish orders of {n}": finish_order_diagram(n) for n in range(1, 5)},
}


@pytest.mark.parametrize("name", list(FIXED_DIAGRAMS))
def test_sweep_matches_the_fixpoint(name):
    d = FIXED_DIAGRAMS[name]
    assert glueing_outcome(colimit, d) == glueing_outcome(fixpoint_colimit, d)


def short_spines(max_len, letters="ab"):
    """Every spine of length <= max_len whose labels are words of distinct letters."""
    out, level = [], [spine([()], [])]
    for _ in range(max_len + 1):
        out += level
        nxt = []
        for s in level:
            (d, w) = s.entries[-1]
            moves = [((j, FUTURE), w[: j - 1] + w[j:]) for j in range(1, d + 1)]
            moves += [((j, PAST), w[: j - 1] + (l,) + w[j - 1 :]) for l in letters if l not in w for j in range(1, d + 2)]
            nxt += [spine([e[1] for e in s.entries] + [v], [*s.steps, step]) for step, v in moves]
        level = nxt
    return out


def test_colimit_accepts_exactly_the_arrows_that_keep_positions():
    # the one sweep over positions relies on every arrow mapping position k to k
    spines = short_spines(3)
    assert len(spines) == 21
    accepted, rejected = 0, 0
    for s, t in itertools.product(spines, repeat=2):
        for image in itertools.product(range(len(t) + 1), repeat=len(s)):
            cell_map = dict(enumerate((0, *image)))
            d = Diagram(objects={"U": s, "V": t}, arrows=(Arrow("f", "U", "V", cell_map),))
            keeps = all(k == v for k, v in cell_map.items())
            prefix = keeps and t.entries[: len(s) + 1] == s.entries and t.steps[: len(s)] == s.steps
            try:
                colimit(d)
            except InvalidDiagram as err:
                assert str(err) == "arrow f is not a prefix inclusion" and not prefix, cell_map
                rejected += 1
            else:
                assert prefix, cell_map
                accepted += 1
    assert (accepted, rejected) == (71, 12_986)


@pytest.mark.parametrize("name", list(FIXED_DIAGRAMS))
def test_colimit_saturates_only_the_object_shapes(monkeypatch, name):
    # the model's table is written from the runs; `saturate` closes each object's shape, once
    d, calls, inside = FIXED_DIAGRAMS[name], [], []
    saturate, shape = model.saturate, colimits.path_shape

    def counted(entries):
        calls.append(bool(inside))
        return saturate(entries)

    def in_shape(s, alphabet=None):
        inside.append(s)
        try:
            return shape(s, alphabet)
        finally:
            inside.pop()

    patch_everywhere(monkeypatch, saturate, counted)
    monkeypatch.setattr(colimits, "path_shape", in_shape)
    res = colimit(d)
    assert calls == [True] * len(d.objects)
    assert res.model == fixpoint_colimit(d).model
