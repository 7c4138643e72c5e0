"""Canonical example models used by the test suite, demos, and the docs.

Cube-shaped fixtures name cells by coordinate strings over {0,1,*}: a *
marks a running action, so the number of stars is the dimension.  The
letter of coordinate position i is the i-th lowercase letter.
"""
from __future__ import annotations

import itertools
import string

from .colimits import Arrow, Diagram
from .model import PHDA, Morphism, build
from .paths import Spine
from .words import FUTURE, PAST, single


def cube(n: int, removed=()) -> PHDA:
    """The n-cube on the letters a, b, c, ... from its single faces, less the cells in `removed`.

    A cell's i-th star set to 0 is its (i, 0) face and set to 1 its (i, 1)
    face; a face into a removed cell goes with it.
    """
    letters = string.ascii_lowercase[:n]
    cells, entries = [], []
    for coords in itertools.product("01*", repeat=n):
        cid = "".join(coords)
        if cid in removed:
            continue
        stars = [p for p, c in enumerate(cid) if c == "*"]
        cells.append((cid, len(stars), tuple(letters[p] for p in stars)))
        for i, p in enumerate(stars, start=1):
            for a in (PAST, FUTURE):
                face = cid[:p] + "01"[a] + cid[p + 1 :]
                if face not in removed:
                    entries.append((cid, single(i, a), face))
    return build(letters, cells, "0" * n, entries)


def point() -> PHDA:
    return build((), [("p", 0, ())], "p")


def segment() -> PHDA:
    return build(
        "a",
        [("p0", 0, ()), ("p1", 0, ()), ("e", 1, ("a",))],
        "p0",
        [("e", single(1, PAST), "p0"), ("e", single(1, FUTURE), "p1")],
    )


def split_segment() -> PHDA:
    """Same cells as the segment but no face at all: two points and an open interval."""
    return build("a", [("p0", 0, ()), ("p1", 0, ()), ("e", 1, ("a",))], "p0")


def full_square() -> PHDA:
    return cube(2)


def full_cube() -> PHDA:
    return cube(3)


def punctured_cube() -> PHDA:
    """The full cube minus its bottom square and one future edge.

    The far vertex 110 stays a composite face of the cube even though the
    edge 11* connecting it is gone; both surviving single-face chains
    reach it, so saturation keeps the table consistent.
    """
    return cube(3, {"**0", "11*"})


def notched_square() -> PHDA:
    """The full square minus its top edge and top-left vertex."""
    return cube(2, {"*1", "01"})


def _spine(labels: list[tuple[str, ...]], steps: list[tuple[int, int]]) -> Spine:
    return Spine(tuple((len(w), w) for w in labels), tuple(steps))


def glued_square_diagram() -> Diagram:
    """Three executions of a square glued along their shared prefix.

    A starts both actions; B additionally finishes them a-first, C b-first.
    The pushout fills one square whose two finishing corners coincide.
    """
    a = _spine([(), ("b",), ("a", "b")], [(1, PAST), (1, PAST)])
    b = _spine([(), ("b",), ("a", "b"), ("b",), ()], [(1, PAST), (1, PAST), (1, FUTURE), (1, FUTURE)])
    c = _spine([(), ("b",), ("a", "b"), ("a",), ()], [(1, PAST), (1, PAST), (2, FUTURE), (1, FUTURE)])
    prefix = {0: 0, 1: 1, 2: 2}
    return Diagram(
        objects={"A": a, "B": b, "C": c},
        arrows=(Arrow("ab", "A", "B", dict(prefix)), Arrow("ac", "A", "C", dict(prefix))),
    )


def glued_square() -> PHDA:
    from .colimits import colimit

    return colimit(glued_square_diagram()).model


def self_loop() -> PHDA:
    """One point, one a-edge whose both endpoints are that point."""
    return build(
        "a",
        [("p", 0, ()), ("e", 1, ("a",))],
        "p",
        [("e", single(1, PAST), "p"), ("e", single(1, FUTURE), "p")],
    )


def loop_unrolling(k: int) -> Morphism:
    """The k-step cyclic unrolling of the self loop, with its covering onto it."""
    cells = []
    entries = []
    for i in range(k):
        cells.append((f"p{i}", 0, ()))
        cells.append((f"e{i}", 1, ("a",)))
        entries.append((f"e{i}", single(1, PAST), f"p{i}"))
        entries.append((f"e{i}", single(1, FUTURE), f"p{(i + 1) % k}"))
    z = build("a", cells, "p0", entries)
    base = self_loop()
    mapping = {f"p{i}": "p" for i in range(k)} | {f"e{i}": "e" for i in range(k)}
    return Morphism(z, base, mapping)


def branch_tree(n: int) -> PHDA:
    """A root with n identically labelled out-edges and their endpoints."""
    cells = [("r", 0, ())]
    entries = []
    for i in range(n):
        cells += [(f"e{i}", 1, ("a",)), (f"v{i}", 0, ())]
        entries += [(f"e{i}", single(1, PAST), "r"), (f"e{i}", single(1, FUTURE), f"v{i}")]
    return build("a", cells, "r", entries)


def branch_fold(n: int, m: int) -> Morphism:
    """Fold the n-branch tree onto the m-branch tree (n >= m), branch i to min(i, m-1)."""
    src, tgt = branch_tree(n), branch_tree(m)
    mapping = {"r": "r"}
    for i in range(n):
        j = min(i, m - 1)
        mapping[f"e{i}"] = f"e{j}"
        mapping[f"v{i}"] = f"v{j}"
    return Morphism(src, tgt, mapping)


def double_square_tree() -> PHDA:
    """Two b-edges out of the root, each carrying a started square."""
    cells = [("r", 0, ())]
    entries = []
    for i in range(2):
        cells += [(f"e{i}", 1, ("b",)), (f"q{i}", 2, ("a", "b"))]
        entries += [(f"e{i}", single(1, PAST), "r"), (f"q{i}", single(1, PAST), f"e{i}")]
    return build("ab", cells, "r", entries)


def double_square_fold() -> Morphism:
    """Retract the second square branch onto the first."""
    src = double_square_tree()
    tgt = build(
        "ab",
        [("r", 0, ()), ("e0", 1, ("b",)), ("q0", 2, ("a", "b"))],
        "r",
        [("e0", single(1, PAST), "r"), ("q0", single(1, PAST), "e0")],
    )
    return Morphism(src, tgt, {"r": "r", "e0": "e0", "q0": "q0", "e1": "e0", "q1": "q0"})


MODELS = {
    "point": point,
    "segment": segment,
    "split_segment": split_segment,
    "full_square": full_square,
    "full_cube": full_cube,
    "punctured_cube": punctured_cube,
    "notched_square": notched_square,
    "glued_square": glued_square,
    "self_loop": self_loop,
    "two_branch_tree": lambda: branch_tree(2),
    "double_square_tree": double_square_tree,
}

TOTAL_MODELS = ("point", "segment", "full_square", "full_cube", "self_loop")
