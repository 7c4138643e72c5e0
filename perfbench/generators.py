"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments.  Cube-shaped models
name cells by coordinate strings over {0,1,*} exactly as `phda.fixtures`
does, but the alphabet is widened to any n (letter i of a cube is the
i-th lowercase letter), so `cube(3)` and `punctured_cube(3)` serialize to
the same bytes as `fixtures.full_cube()` and `fixtures.punctured_cube()`.

Seeded families (`partial_cube`) draw from a named `random.Random`, whose
string seeding does not depend on PYTHONHASHSEED.
"""
from __future__ import annotations

import itertools
import json
import random
import string

from phda import fixtures as F
from phda.colimits import Arrow, Diagram, colimit
from phda.jsonio import model_to_dict, morphism_to_dict
from phda.lifting import enumerate_morphisms
from phda.model import PHDA, Morphism, build, validate_morphism
from phda.paths import Spine
from phda.unfolding import is_tree
from phda.words import FUTURE, PAST, single

LETTERS = string.ascii_lowercase


def _cube_cells(n: int) -> list[tuple[str, int, tuple[str, ...]]]:
    cells = []
    for coords in itertools.product("01*", repeat=n):
        cid = "".join(coords)
        cells.append((cid, cid.count("*"), tuple(LETTERS[i] for i, c in enumerate(coords) if c == "*")))
    return cells


def cube_single_faces(n: int) -> list[tuple[str, object, str]]:
    """The generator entries of the n-cube: every single past and future face."""
    entries = []
    for cid, _, _ in _cube_cells(n):
        stars = [p for p, c in enumerate(cid) if c == "*"]
        for i, pos in enumerate(stars, start=1):
            for a, digit in ((PAST, "0"), (FUTURE, "1")):
                entries.append((cid, single(i, a), cid[:pos] + digit + cid[pos + 1 :]))
    return entries


def cube(n: int) -> PHDA:
    """The total n-cube: 3^n cells, every face defined."""
    return build(LETTERS[:n], _cube_cells(n), "0" * n, cube_single_faces(n))


def cube_generators_doc(n: int) -> dict:
    """A `"saturate": true` model file of the n-cube listing only its single faces."""
    return {
        "alphabet": list(LETTERS[:n]),
        "cells": [{"id": c, "dim": d, "label": list(w)} for c, d, w in _cube_cells(n)],
        "initial": "0" * n,
        "faces": [{"from": x, "word": [list(p) for p in w.pairs], "to": y} for x, w, y in cube_single_faces(n)],
        "saturate": True,
    }


def punctured_cube(n: int) -> PHDA:
    """The n-cube minus its bottom square **0..0 and the future edge 1..1*."""
    removed = {"**" + "0" * (n - 2), "1" * (n - 1) + "*"}
    cells = [c for c in _cube_cells(n) if c[0] not in removed]
    entries = [e for e in cube_single_faces(n) if e[0] not in removed and e[2] not in removed]
    return build(LETTERS[:n], cells, "0" * n, entries)


def _has_face(upper: str, lower: str) -> bool:
    return all(u == l or u == "*" for u, l in zip(upper, lower))


def partial_cube(n: int, variant: int) -> PHDA:
    """A random valid partial n-cube, one of a catalogue indexed by `variant`.

    One cell of dimension >= 2 is removed together with every cell that has
    it as a face, which keeps the rest down-closed; then n single faces of
    the remaining cells are dropped and the rest is saturated.  Saturating a
    subset of a total model's faces stays functional and closed, so every
    variant is a valid model.
    """
    rng = random.Random(f"partial-cube/{n}/{variant}")
    all_cells = _cube_cells(n)
    hole = rng.choice(sorted(c for c, d, _ in all_cells if d >= 2))
    cells = [c for c in all_cells if not _has_face(c[0], hole)]
    kept = {c[0] for c in cells}
    entries = [e for e in cube_single_faces(n) if e[0] in kept]
    for k in sorted(rng.sample(range(len(entries)), n), reverse=True):
        del entries[k]
    return build(LETTERS[:n], cells, "0" * n, entries)


def branch_tree(n: int) -> PHDA:
    """A root with n a-labelled out-edges and their endpoints."""
    cells = [("r", 0, ())]
    entries = []
    for i in range(n):
        cells += [(f"e{i}", 1, ("a",)), (f"v{i}", 0, ())]
        entries += [(f"e{i}", single(1, PAST), "r"), (f"e{i}", single(1, FUTURE), f"v{i}")]
    return build("a", cells, "r", entries)


def branch_fold(n: int, m: int) -> Morphism:
    """Fold the n-branch tree onto the m-branch tree, branch i to min(i, m-1)."""
    mapping = {"r": "r"}
    for i in range(n):
        j = min(i, m - 1)
        mapping[f"e{i}"] = f"e{j}"
        mapping[f"v{i}"] = f"v{j}"
    return Morphism(branch_tree(n), branch_tree(m), mapping)


def finish_order_diagram(n: int) -> Diagram:
    """All n! finishing orders of n started actions, glued along their common start.

    Object A starts the n actions (the last letter first); each other object
    extends A by finishing the actions in one order.  n = 2 is the
    glued-square diagram up to the names of its objects.
    """
    letters = LETTERS[:n]
    start_labels = [tuple(letters[n - k :]) for k in range(n + 1)]
    start_steps = [(1, PAST)] * n
    objects = {"A": _spine(start_labels, start_steps)}
    arrows = []
    for k, order in enumerate(itertools.permutations(letters)):
        labels, steps = list(start_labels), list(start_steps)
        running = list(letters)
        for letter in order:
            steps.append((running.index(letter) + 1, FUTURE))
            running.remove(letter)
            labels.append(tuple(running))
        name = f"F{k:03d}"
        objects[name] = _spine(labels, steps)
        arrows.append(Arrow(f"A-{name}", "A", name, {i: i for i in range(n + 1)}))
    return Diagram(objects=objects, arrows=tuple(arrows))


def _spine(labels: list[tuple[str, ...]], steps: list[tuple[int, int]]) -> Spine:
    return Spine(tuple((len(w), w) for w in labels), tuple(steps))


def crosscheck_fixtures() -> list[str]:
    """Compare the generators with `phda.fixtures`; returns the mismatches found."""
    problems = []
    same = [
        ("cube(2)", model_to_dict(cube(2)), model_to_dict(F.full_square())),
        ("cube(3)", model_to_dict(cube(3)), model_to_dict(F.full_cube())),
        ("punctured_cube(3)", model_to_dict(punctured_cube(3)), model_to_dict(F.punctured_cube())),
        ("branch_fold(2, 1)", morphism_to_dict(branch_fold(2, 1)), morphism_to_dict(F.branch_fold(2, 1))),
        ("branch_fold(3, 2)", morphism_to_dict(branch_fold(3, 2)), morphism_to_dict(F.branch_fold(3, 2))),
    ]
    for name, mine, theirs in same:
        if json.dumps(mine, sort_keys=True) != json.dumps(theirs, sort_keys=True):
            problems.append(f"{name} serializes differently from its fixture")
    glued, square = colimit(finish_order_diagram(2)).model, F.glued_square()
    shape = [(len(x.cells), len(x.faces), bool(is_tree(x))) for x in (glued, square)]
    if shape != [(6, 8, True)] * 2:
        problems.append(f"finish-order colimit n=2 and glued_square have (cells, entries, tree) {shape}")
    isos = [
        f for f in enumerate_morphisms(glued, square)
        if len(set(f.mapping.values())) == len(glued.cells)
        and not validate_morphism(Morphism(square, glued, {v: k for k, v in f.mapping.items()}))
    ]
    if not isos:
        problems.append("finish-order colimit n=2 is not isomorphic to glued_square")
    return problems
