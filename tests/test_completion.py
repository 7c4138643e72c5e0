import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from phda import completion, fixtures as F, uf
from phda.completion import AbstractFace, complete, complete_morphism, completion_of, counit
from phda.errors import FrozenInstanceError, NotTotalHDA
from phda.model import build, compose, identity, is_hda, validate_morphism, validate_phda
from phda.words import enumerate_words, single, star, word

from oracles import UnionFind, union_find_completion


def test_completion_outputs_are_total_and_valid():
    for name, mk in F.MODELS.items():
        chi, unit = complete(mk())
        assert validate_phda(chi) == [], name
        assert is_hda(chi), name
        assert validate_morphism(unit) == [], name


def test_split_segment_completion_golden():
    chi, unit = complete(F.split_segment())
    assert sorted(chi.cells) == ["e#[(1,0)]", "e#[(1,1)]", "e#[]", "p0#[]", "p1#[]"]
    assert chi.initial == "p0#[]"
    assert chi.faces[("e#[]", single(1, 0))] == "e#[(1,0)]"
    assert chi.faces[("e#[]", single(1, 1))] == "e#[(1,1)]"
    assert unit.mapping == {"p0": "p0#[]", "p1": "p1#[]", "e": "e#[]"}


def test_punctured_cube_completion_restores_the_cube():
    x = F.punctured_cube()
    c = completion_of(x)
    by_dim = {}
    for cell in c.model.cells.values():
        by_dim[cell.dim] = by_dim.get(cell.dim, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}
    # the two single-step routes to the removed edge merge by congruence
    s1 = x.faces[("***", single(1, 1))]
    s2 = x.faces[("***", single(2, 1))]
    assert c.class_id(s1, single(1, 1)) == c.class_id(s2, single(1, 1)) == c.class_id("***", word((1, 1), (2, 1)))
    # the far vertex composite agrees with its chain value
    w = star(star(single(1, 1), single(2, 0)), single(1, 1))
    assert w == word((1, 1), (2, 1), (3, 0))
    assert c.class_id("***", w) == c.class_id(x.faces[("***", w)])


def test_counit_requires_total_model():
    with pytest.raises(NotTotalHDA):
        counit(F.split_segment())


def test_counit_inverse_to_unit_on_total_models():
    for name in F.TOTAL_MODELS:
        x = F.MODELS[name]()
        chi, unit = complete(x)
        mu = counit(x)
        assert validate_morphism(mu) == [], name
        assert compose(mu, unit).mapping == identity(x).mapping, name
        # bijective in every grade
        inverse = {}
        for k, v in mu.mapping.items():
            assert inverse.setdefault(v, k) == k, name
        assert len(inverse) == len(chi.cells) == len(x.cells), name


def test_triangle_identity():
    for name in ("split_segment", "notched_square", "full_square", "glued_square"):
        x = F.MODELS[name]()
        chi, unit = complete(x)
        tri = compose(counit(chi), complete_morphism(unit))
        assert tri.mapping == identity(chi).mapping, name


def test_completed_morphism_validates_and_is_functorial():
    fold = F.branch_fold(2, 1)
    cf = complete_morphism(fold)
    assert validate_morphism(cf) == []
    ci = complete_morphism(identity(F.full_square()))
    assert ci.mapping == identity(ci.source).mapping


def test_unit_naturality():
    for f in (F.branch_fold(2, 1), F.double_square_fold(), F.loop_unrolling(2)):
        _, unit_src = complete(f.source)
        _, unit_tgt = complete(f.target)
        assert compose(complete_morphism(f), unit_src).mapping == compose(unit_tgt, f).mapping


def test_local_equations_hold_exhaustively():
    for name in ("split_segment", "punctured_cube", "notched_square", "glued_square"):
        chi, _ = complete(F.MODELS[name]())
        for cid, cell in chi.cells.items():
            for i in range(1, cell.dim):
                for j in range(1, i + 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            lhs = chi.faces[(chi.faces[(cid, single(j, b))], single(i, a))]
                            rhs = chi.faces[(chi.faces[(cid, single(i + 1, a))], single(j, b))]
                            assert lhs == rhs, (name, cid, i, j, a, b)


def test_labelling_equation_on_two_cells():
    for name in ("punctured_cube", "notched_square", "glued_square"):
        chi, _ = complete(F.MODELS[name]())
        for cid, cell in chi.cells.items():
            if cell.dim != 2:
                continue
            for i in (1, 2):
                past = chi.cells[chi.faces[(cid, single(i, 0))]].label
                future = chi.cells[chi.faces[(cid, single(i, 1))]].label
                assert past == future, (name, cid, i)


def test_completion_of_glued_square_is_the_full_square():
    chi, _ = complete(F.glued_square())
    by_dim = {}
    for cell in chi.cells.values():
        by_dim[cell.dim] = by_dim.get(cell.dim, 0) + 1
    assert by_dim == {0: 4, 1: 4, 2: 1}
    assert is_hda(chi)


def test_abstract_face_keeps_the_dataclass_value_semantics():
    a = AbstractFace(word((1, 0), (2, 1)), "***")
    assert AbstractFace._fields == ("word", "cell")
    assert hash(a) == hash((a.word, a.cell))
    assert a == AbstractFace(word((1, 0), (2, 1)), "***") != AbstractFace(a.word, "**0")
    assert repr(a) == "AbstractFace(word=FaceWord(pairs=((1, 0), (2, 1))), cell='***')"
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert hash(pickle.loads(pickle.dumps(a))) == hash(a)
    with pytest.raises(FrozenInstanceError):
        a.cell = "000"
    assert a.sort_key() == ("***", ((1, 0), (2, 1))) and a.id() == "***#[(1,0),(2,1)]"


def test_union_find_on_equal_keys_that_are_distinct_objects():
    # roots are compared by identity; an equal copy of a key must still find its class
    uf = UnionFind()
    big = 10**20
    assert uf.union(("a", big), ("b", big + 1))
    assert not uf.union(("b", big + 1), ("a", int(str(big))))
    assert uf.find(("a", int(str(big)))) is uf.find(("b", big + 1))
    assert list(uf.groups().values()) == [[("a", big), ("b", big + 1)]]


@given(st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * 2)))))
def test_union_find_partitions_as_the_oracle(case):
    # the library's list of parents against the oracle's dict: one partition, groups by least member, sorted
    n, merges = case
    parent, oracle = list(range(n)), UnionFind(range(n))
    for a, b in merges:
        one_group = oracle.find(a) == oracle.find(b)
        assert uf.union(parent, a, b) is not one_group
        oracle.union(a, b)
    found = uf.groups(parent)
    assert list(found.values()) == sorted(sorted(g) for g in oracle.groups().values())
    assert all(uf.root(parent, r) == r and r in g for r, g in found.items())


def test_completion_builds_one_word_list_per_dimension(monkeypatch):
    expected = {name: completion_of(mk()) for name, mk in F.MODELS.items()}
    calls = []
    monkeypatch.setattr(completion, "enumerate_words", lambda n: calls.append(n) or enumerate_words(n))
    for name, mk in F.MODELS.items():
        calls.clear()
        c = completion_of(mk())
        assert len(calls) == len(set(calls)), name
        assert (c.model, c.unit, c.reps) == (expected[name].model, expected[name].unit, expected[name].reps), name


def test_completion_matches_the_union_find_oracle_on_fixtures():
    for name, mk in F.MODELS.items():
        x = mk()
        c = completion_of(x)
        model, unit, reps = union_find_completion(x)
        assert (c.model, c.unit.mapping, c.reps) == (model, unit.mapping, reps), name
        assert c == completion_of(x) and c.reps is c.reps, name


def shortcut_past_corner():
    """A square whose left edge has no past face, while the square's composite to that corner is defined."""
    cells = [("00", 0, ()), ("0*", 1, ("b",)), ("**", 2, ("a", "b"))]
    entries = [("**", single(1, 0), "0*"), ("**", word((1, 0), (2, 0)), "00")]
    x = build("ab", cells, "00", entries)
    assert validate_phda(x) == [] and ("0*", single(1, 0)) not in x.faces
    return x


def test_missing_face_glues_to_the_target_of_a_defined_shortcut():
    # (c, u*s) = ("**", [(1,0),(2,0)]) is defined while (t, s) = ("0*", [(1,0)]) is missing
    x = shortcut_past_corner()
    c = completion_of(x)
    assert c.class_id("0*", single(1, 0)) == c.class_id("00") == c.class_id("**", word((1, 0), (2, 0))) == "**#[(1,0),(2,0)]"
    assert c.class_id("0*") == c.class_id("**", single(1, 0)) == "**#[(1,0)]"
    assert validate_phda(c.model) == [] and is_hda(c.model)
    assert sorted(cell.dim for cell in c.model.cells.values()) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    model, unit, reps = union_find_completion(x)
    assert (c.model, c.unit.mapping, c.reps) == (model, unit.mapping, reps)


def count_unions(monkeypatch, owner, union):
    calls = []
    monkeypatch.setattr(owner, "union", lambda *args: calls.append(args) or union(*args))
    return calls


def test_completion_unions_only_missing_faces(monkeypatch):
    calls = count_unions(monkeypatch, completion, completion.union)
    for name in F.TOTAL_MODELS:
        completion_of(F.MODELS[name]())
        assert calls == [], name
    # the punctured cube's four missing faces name its bottom square and, three
    # times, its edge 11*: two unions, against 86 over all 113 abstract faces
    completion_of(F.punctured_cube())
    assert len(calls) == 2
    oracle_calls = count_unions(monkeypatch, UnionFind, UnionFind.union)
    union_find_completion(F.punctured_cube())
    assert len(oracle_calls) == 86 > 2 and len(calls) == 2
