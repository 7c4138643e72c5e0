"""Acceptance checks: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import itertools

from phda import fixtures as F
from phda.colimits import colimit, mediate
from phda.completion import complete, complete_morphism, completion_of, counit
from phda.homotopy import are_confluently_homotopic, classes_to
from phda.lifting import construct_lift, is_covering, is_open
from phda.model import Morphism, compose, identity, is_hda, validate_morphism, validate_phda
from phda.paths import enumerate_paths, map_path, morphism_to_path, path_to_morphism, validate_path
from phda.unfolding import is_tree, tree_unit, unfold
from phda.words import enumerate_words, single, star, word

from oracles import class_key, enumerate_lifts, eval_coface, partition_paths, section_retraction_pairs


def report(tag, text):
    print(f"[{tag}] {text}: PASS")


def square_legs(d, sq):
    return {
        "A": Morphism(d.shape("A", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**"}),
        "B": Morphism(d.shape("B", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "1*", "4": "11"}),
        "C": Morphism(d.shape("C", sq.alphabet), sq, {"0": "00", "1": "0*", "2": "**", "3": "*1", "4": "11"}),
    }


def test_a1_punctured_cube_vertex_faces_merge():
    x = F.punctured_cube()
    chain_a = [(1, 1), (2, 0), (1, 1)]
    chain_b = [(2, 1), (2, 0), (1, 1)]

    def walk(chain):
        cur = "***"
        for i, a in chain:
            cur = x.faces[(cur, single(i, a))]
        return cur

    comp = word((1, 1), (2, 1), (3, 0))
    assert star(star(single(*chain_a[0]), single(*chain_a[1])), single(*chain_a[2])) == comp
    assert star(star(single(*chain_b[0]), single(*chain_b[1])), single(*chain_b[2])) == comp
    assert walk(chain_a) == walk(chain_b) == x.faces[("***", comp)] == "110"
    c = completion_of(x)
    s1, s2 = x.faces[("***", single(1, 1))], x.faces[("***", single(2, 1))]
    assert c.class_id("***", comp) == c.class_id("110")
    assert c.class_id(s1, single(1, 1)) == c.class_id(s2, single(1, 1)) == c.class_id("***", word((1, 1), (2, 1)))
    report("A1", "composite vertex faces of the punctured cube agree and their abstract faces merge")


def _morphism_corpus():
    corpus = []
    for mk in F.MODELS.values():
        x = mk()
        corpus.append(identity(x))
        corpus.append(complete(x)[1])
        corpus.append(unfold(x, 3).cover)
    d = F.glued_square_diagram()
    res = colimit(d)
    corpus.extend(res.injections.values())
    corpus.append(mediate(d, res, square_legs(d, F.full_square())))
    corpus.extend([F.branch_fold(2, 1), F.branch_fold(3, 2), F.double_square_fold()])
    corpus.extend([F.loop_unrolling(2), F.loop_unrolling(3)])
    for s, r in section_retraction_pairs():
        corpus.extend([s, r])
    return corpus


def test_a2_morphisms_preserve_executions():
    seg, split = F.segment(), F.split_segment()
    bad = Morphism(seg, split, {"p0": "p0", "p1": "p1", "e": "e"})
    kinds = {v.kind for v in validate_morphism(bad)}
    assert kinds == {"FaceNotPreserved"}
    pairs = 0
    for f in _morphism_corpus():
        assert validate_morphism(f) == []
        for p in enumerate_paths(f.source, 4):
            assert validate_path(map_path(f, p)) is None
            pairs += 1
    assert pairs >= 200
    report("A2", f"inclusion into the split segment rejected; images of {pairs} executions validate")


def test_a3_completion_adjunction_on_total_models():
    for name in F.TOTAL_MODELS:
        x = F.MODELS[name]()
        chi, unit = complete(x)
        assert is_hda(chi) and validate_phda(chi) == []
        mu = counit(x)
        assert compose(mu, unit).mapping == identity(x).mapping
        tri = compose(counit(chi), complete_morphism(unit))
        assert tri.mapping == identity(chi).mapping
        for cid, cell in chi.cells.items():
            for i in range(1, cell.dim):
                for j in range(1, i + 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            lhs = chi.faces[(chi.faces[(cid, single(j, b))], single(i, a))]
                            rhs = chi.faces[(chi.faces[(cid, single(i + 1, a))], single(j, b))]
                            assert lhs == rhs
    report("A3", "counit/unit and triangle identities exact; completions total with local equations")


def test_a4_execution_shape_bijection():
    total = 0
    for name, mk in F.MODELS.items():
        x = mk()
        for p in enumerate_paths(x, 6):
            m = path_to_morphism(p)
            assert validate_morphism(m) == [], name
            assert morphism_to_path(m).key() == p.key(), name
            total += 1
    report("A4", f"execution/shape-morphism bijection round-trips on {total} executions")


def test_a5_glued_square_pushout():
    d = F.glued_square_diagram()
    res = colimit(d)
    D = res.model
    assert len([c for c in D.cells.values() if c.dim == 2]) == 1
    corner = res.injections["B"].mapping["4"]
    assert corner == res.injections["C"].mapping["4"]
    to_corner = [p for p in enumerate_paths(D, 4) if p.end == corner]
    assert len(to_corner) == 2  # strict uniqueness fails: two executions
    assert are_confluently_homotopic(*to_corner)
    assert len(classes_to(D, corner, 4)) == 1
    assert bool(is_tree(D))
    report("A5", "pushout: one square, two strict executions to the corner, one class, a tree")


def test_a6_unfoldings_are_trees_with_covering_projections():
    for name, mk in F.MODELS.items():
        x = mk()
        for depth in range(1, 7):
            res = unfold(x, depth)
            assert validate_phda(res.tree) == [], (name, depth)
            assert bool(is_tree(res.tree)), (name, depth)
            assert bool(is_open(res.cover, depth - 1)), (name, depth)
            assert bool(is_covering(res.cover, depth - 1)), (name, depth)
    inverses = 0
    for name, mk in F.MODELS.items():
        x = mk()
        if not is_tree(x):
            continue
        eta = tree_unit(x)
        res = unfold(x, len(x.cells))
        assert compose(res.cover, eta).mapping == identity(x).mapping
        assert compose(eta, res.cover).mapping == identity(res.tree).mapping
        inverses += 1
    assert inverses >= 3
    report("A6", f"unfoldings at depths 1..6 are trees with covering projections; {inverses} exact tree inverses")


def test_a7_trees_lift_through_open_maps():
    sq = F.full_square()
    cover = unfold(sq, 4).cover
    d = F.glued_square_diagram()
    res = colimit(d)
    phi = mediate(d, res, square_legs(d, sq))
    D = res.model
    chi_d, unit_d = complete(D)
    chi_cover = unfold(chi_d, 4).cover
    fold = F.branch_fold(2, 1)
    g_fold = Morphism(F.branch_tree(1), fold.target, {"r": "r", "e0": "e0", "v0": "v0"})
    point_in = Morphism(F.point(), sq, {"p": "00"})
    triples = [
        (cover, cover, True),          # tree domain lifted through itself
        (phi, cover, True),            # glueing into the square through its covering
        (unit_d, chi_cover, True),     # tree into its completion through a covering
        (point_in, cover, True),       # the point lifts anywhere
        (g_fold, fold, False),         # merely open: lift exists but is not unique
    ]
    for g, f, covering in triples:
        h = construct_lift(g, f)
        assert validate_morphism(h) == []
        assert all(f.mapping[h.mapping[c]] == g.mapping[c] for c in h.mapping)
        if covering:
            assert len(enumerate_lifts(g, f)) == 1
    report("A7", f"{len(triples)} lifting triples solved exactly; unique under coverings")


def test_a8_retracts_of_trees_are_trees():
    pairs = section_retraction_pairs()
    assert len(pairs) >= 3
    for s, r in pairs:
        assert compose(r, s).mapping == identity(s.source).mapping
        assert bool(is_tree(r.source))
        assert bool(is_tree(s.source))
    report("A8", f"{len(pairs)} section/retraction pairs: every retract of a tree is a tree")


def test_a9_universal_covering_factorisation():
    loop_cover = unfold(F.self_loop(), 6).cover
    unroll = F.loop_unrolling(2)
    assert bool(is_covering(unroll, 5))
    h = construct_lift(loop_cover, unroll)
    assert validate_morphism(h) == []
    assert all(unroll.mapping[h.mapping[c]] == loop_cover.mapping[c] for c in h.mapping)
    assert bool(is_covering(h, 5))
    assert len(enumerate_lifts(loop_cover, unroll)) == 1
    report("A9", "unfolding of the loop factors uniquely through the partial unrolling as a covering")


def test_a10_independent_oracles_agree():
    universe = [w for w in enumerate_words(4) if len(w) <= 3]
    vectors = [tuple((n >> k) & 1 for k in range(4)) for n in range(16)]
    checked = 0
    for lhs, rhs in itertools.product(universe, universe):
        comp = star(lhs, rhs)
        for b in vectors:
            assert eval_coface(comp, b) == eval_coface(lhs, eval_coface(rhs, b))
            checked += 1
    joined = 0
    for name, mk in F.MODELS.items():
        x = mk()
        for group in partition_paths(enumerate_paths(x, 5)):
            assert len({class_key(p) for p in group}) == 1, name
            joined += len(group)
    report("A10", f"insertion oracle agrees with the word product on {checked} cases; "
                  f"the class key never separates {joined} closure-joined executions")
