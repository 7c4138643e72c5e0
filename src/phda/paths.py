"""Executions of a model, their spines, and the shapes that classify them.

A path alternates two kinds of steps: direction 0 enters a cell whose
past face is the current cell (an action starts), direction 1 moves to
the future face of the current cell (an action finishes).  The spine is
the (dimension, label) shadow of a path; it freely generates a shape
model whose morphisms into a host are exactly the host's paths.

The steps themselves come from `PHDA.moves`, the one step table of a
model: executions, path validation, the homotopy chain index, unfolding
and lifting all read it.  `PHDA.walk` is the one walk over cells, and
`first_path` rebuilds the first execution to one of its cells, for the
shape walk and for the squares lifting reports.  Only `enumerate_paths` (and
so `phda paths`) lists every execution; homotopy classes come from
`homotopy.explore`, which walks classes.
"""
from __future__ import annotations

from .errors import InvalidBound, InvalidSpine, NotAPathShape, Record, UnknownCell, set_field
from .model import PHDA, Morphism, Step, build
from .words import FUTURE, PAST, Label, single


class Path(Record):
    __slots__ = ("host", "cells", "steps")

    def __init__(self, host: PHDA, cells: tuple[str, ...], steps: tuple[Step, ...]) -> None:
        set_field(self, "host", host)
        set_field(self, "cells", cells)
        set_field(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> str:
        return self.cells[-1]

    def key(self) -> tuple:
        return (self.cells, self.steps)

    def extend(self, step: Step, cell: str) -> "Path":
        return Path(self.host, self.cells + (cell,), self.steps + (step,))

    def text(self) -> str:
        out = [self.cells[0]]
        for (j, a), c in zip(self.steps, self.cells[1:]):
            out.append(f"-({j},{a})-> {c}")
        return " ".join(out)


def _upper_lower(k: int, direction: int) -> tuple[int, int]:
    """Step k's (upper cell, face) positions: a past step climbs from the face, a future step descends to it."""
    return (k, k - 1) if direction == PAST else (k - 1, k)


class Spine(Record):
    __slots__ = ("entries", "steps")

    def __init__(self, entries: tuple[tuple[int, Label], ...], steps: tuple[Step, ...]) -> None:
        set_field(self, "entries", entries)
        set_field(self, "steps", steps)
        if len(self.entries) != len(self.steps) + 1:
            raise InvalidSpine("entry/step count mismatch")
        if self.entries[0] != (0, ()):
            raise InvalidSpine(f"must start at (0, ε), got {self.entries[0]}")
        for k, (j, a) in enumerate(self.steps, start=1):
            (dp, wp), (dk, wk) = self.entries[k - 1], self.entries[k]
            if len(wp) != dp or len(wk) != dk:
                raise InvalidSpine(f"label length differs from dimension at {k}")
            (du, wu), (dl, wl) = (self.entries[e] for e in _upper_lower(k, a))  # the face lacks letter j
            if a not in (PAST, FUTURE) or not (dl == du - 1 and 1 <= j <= du and wu[: j - 1] + wu[j:] == wl):
                raise InvalidSpine(f"bad transition at step {k}: {(dp, wp)} -({j},{a})-> {(dk, wk)}")

    def __len__(self) -> int:
        return len(self.steps)

    def text(self) -> str:
        out = ["(0,ε)"]
        for (j, a), (d, w) in zip(self.steps, self.entries[1:]):
            out.append(f"-({j},{a})-> ({d},{''.join(w) or 'ε'})")
        return " ".join(out)


class PathIssue(Record):
    __slots__ = ("kind", "step")
    _defaults = {"step": None}
    kind: str
    step: int | None

    def __str__(self) -> str:
        return self.kind if self.step is None else f"{self.kind}({self.step})"


def empty_path(x: PHDA) -> Path:
    return Path(x, (x.initial,), ())


def validate_path(p: Path) -> PathIssue | None:
    """None when valid, otherwise the first violated step (1-based)."""
    x = p.host
    if len(p.cells) != len(p.steps) + 1:
        return PathIssue("BadStart")
    if p.cells[0] != x.initial or p.cells[0] not in x.cells:
        return PathIssue("BadStart")
    for k, (j, a) in enumerate(p.steps, start=1):
        prev, cur = p.cells[k - 1], p.cells[k]
        if cur not in x.cells or ((j, a), cur) not in x.moves.get(prev, ()):
            return PathIssue("BadStep", k)
    return None


def spine_of(p: Path) -> Spine:
    try:
        cells = [p.host.cells[c] for c in p.cells]
    except KeyError as e:
        raise UnknownCell(e.args[0]) from None
    return Spine(tuple((c.dim, c.label) for c in cells), p.steps)


def path_shape(s: Spine, alphabet: frozenset[str] | None = None) -> PHDA:
    """The model freely generated by a spine: one cell per position, faces from the steps."""
    letters = alphabet if alphabet is not None else frozenset(l for _, w in s.entries for l in w)
    cells = [(str(k), d, w) for k, (d, w) in enumerate(s.entries)]
    ends = (_upper_lower(k, a) for k, (_, a) in enumerate(s.steps, start=1))
    return build(letters, cells, "0", [(str(u), single(j, a), str(l)) for (u, l), (j, a) in zip(ends, s.steps)])


def path_to_morphism(p: Path) -> Morphism:
    shape = path_shape(spine_of(p), p.host.alphabet)
    return Morphism(shape, p.host, {str(k): c for k, c in enumerate(p.cells)})


def _shape_walk(x: PHDA) -> Path:
    """The unique maximal chain of a path shape, read from `PHDA.walk`; raises NotAPathShape otherwise."""
    walk = x.walk
    for c in walk:
        if len(x.moves.get(c, ())) > 1:
            raise NotAPathShape(f"branching at cell {c}")
    *_, end = walk  # no cell branches, so the cells met form one chain
    for _, z in x.moves.get(end, ()):
        raise NotAPathShape(f"cycle through cell {z}")
    if len(walk) != len(x.cells):
        raise NotAPathShape(f"unreachable cells {sorted(set(x.cells) - set(walk))}")
    return first_path(x, end)


def morphism_to_path(f: Morphism) -> Path:
    walk = _shape_walk(f.source)
    reference = path_shape(spine_of(walk), f.source.alphabet)
    renamed = {str(k): c for k, c in enumerate(walk.cells)}
    if {(renamed[a], w, renamed[b]) for a, w, b in reference.entries()} != set(f.source.entries()):
        raise NotAPathShape("face table is not freely generated by the spine")
    return map_path(f, walk)


def map_path(f: Morphism, p: Path) -> Path:
    return Path(f.target, tuple(f.mapping[c] for c in p.cells), p.steps)


def first_path(x: PHDA, cell: str) -> Path:
    """The first execution to a cell of `PHDA.walk`, rebuilt along the walk's predecessors.  It is the
    execution by which the breadth-first path stream of `enumerate_paths` first meets the cell."""
    cells, steps = [cell], []
    while (back := x.walk[cells[-1]])[1] is not None:
        cells.append(back[1])
        steps.append(back[2])
    return Path(x, tuple(reversed(cells)), tuple(reversed(steps)))


def enumerate_paths(x: PHDA, max_len: int) -> list[Path]:
    """All paths of length at most max_len, breadth first; each level extends the previous one in order."""
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    frontier = [empty_path(x)]
    out = list(frontier)
    for _ in range(max_len):
        frontier = [p.extend(step, z) for p in frontier for step, z in x.moves.get(p.end, ())]
        if not frontier:
            break
        out += frontier
    return out
