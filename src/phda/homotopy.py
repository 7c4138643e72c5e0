"""Confluent homotopy of paths: swapping blocks of future steps in place.

Two paths are elementary-homotopic when they agree outside a window of
future-directed steps whose composite face words are equal; homotopy is
the equivalence this generates.  `explore` builds its classes level by
level, without enumerating paths: the classes of length n + 1 are the
(class of length n, step) pairs, glued by the windows that end at the new
step.  A class holds no path, only its first member's last step and the
class of that member's prefix, so the records form a tree.  Unfolding,
tree recognition, `classes_to` and `are_confluently_homotopic` read it.

The windows come from a `ChainIndex`: the future chains from each start
cell, of each length, grouped by composite word and end cell, searched
once per (cell, length) and per index.  Nothing here rewrites single
paths; the path-level rewriting and closure are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainMismatch, InvalidBound, UnknownCell
from .model import PHDA, Move, Step, _generators
from .paths import Path, empty_path
from .uf import UnionFind
from .words import EPSILON, FUTURE, FaceWord, single, star

Chains = dict[tuple[FaceWord, str], list[tuple[tuple[str, ...], tuple]]]


@dataclass(frozen=True)
class HomotopyClass:
    representative: Path
    members: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(eq=False, slots=True)
class ExecutionClass:
    """One class of executions, as `explore` yields it.

    `size` is the class's number of members and `level` their length.
    Classes refer to each other by ordinal, their position in the stream.
    `step` is the last step of the first member in breadth-first order and
    `prefix` the class of its prefix (None for the empty execution), so
    walking back to class 0 rebuilds that member; `successors` maps each
    step out of `end` to the class of the extended executions.
    """

    ordinal: int
    end: str
    level: int
    size: int
    step: Step | None
    prefix: int | None
    successors: dict[Move, int]


class ChainIndex:
    """The future chains of one model, searched once per (start cell, length).

    `index(cell, n)` maps (composite word, end cell) to the chains (cells
    after each step, steps) of n future steps from `cell`, following the
    future steps of `x.moves`; filled lazily, each length from the one
    below, for one call over one model.
    """

    def __init__(self, x: PHDA) -> None:
        self.moves = x.moves
        self.table: dict[tuple[str, int], Chains] = {}

    def __call__(self, start: str, length: int) -> Chains:
        if length == 0:
            return {(EPSILON, start): [((), ())]}
        found = self.table.get((start, length))
        if found is None:
            found = self.table[(start, length)] = {}
            for (w, mid), below in self(start, length - 1).items():
                for step, z in self.moves.get(mid, ()):
                    if step[1] == FUTURE:
                        group = found.setdefault((star(w, single(*step)), z), [])
                        group.extend((cells + (z,), steps + (step,)) for cells, steps in below)
        return found


def _cone(x: PHDA, to: str) -> set[str]:
    """The cells from which some execution reaches `to`."""
    back: dict[str, list[str]] = {}
    for c, moves in x.moves.items():
        for _, z in moves:
            back.setdefault(z, []).append(c)
    cone, todo = {to}, [to]
    while todo:
        new = [c for c in back.get(todo.pop(), ()) if c not in cone]
        cone.update(new)
        todo += new
    return cone


def explore(x: PHDA, max_len: int, to: str | None = None) -> Iterator[ExecutionClass]:
    """The classes of executions of length <= max_len, level by level, in first-seen order.

    The classes of length n + 1 are the pairs (class of length n, step),
    glued by the windows of future steps that end at the new step: for a
    class R of length n + 1 - k and a group of k-step future chains from
    R's end with one composite and one end cell, the chains reach pairs
    through the successor maps, and those pairs are one class.  Homotopy
    is preserved by extension, so nothing else is glued.  A class's
    ordinal is its position in the stream, which is the order in which the
    breadth-first path stream first meets the class; pairs come in that
    order too, so a group's first pair extends its first member's prefix.
    Successors are filled in when the next level is built.  With `to`,
    only cells that reach `to` are kept; rewrites never leave that set.
    """
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    cone = x.cells if to is None else _cone(x, to)
    if x.initial not in cone:
        return
    moves = {c: tuple(m for m in ms if m[1] in cone) for c, ms in x.moves.items() if c in cone}
    chains = ChainIndex(x)
    found = [ExecutionClass(0, x.initial, 0, 1, None, None, {})]
    levels = [found[:]]
    yield found[0]
    for n in range(max_len):
        pairs = [(c, m) for c in levels[n] for m in moves.get(c.end, ())]
        if not pairs:
            return
        index = {(c.ordinal, m): i for i, (c, m) in enumerate(pairs)}
        uf = UnionFind(range(len(pairs)))
        for k in range(2, min(n + 1, x.max_dim) + 1):
            for r in levels[n + 1 - k]:
                for (_, z), group in chains(r.end, k).items():
                    if len(group) < 2 or z not in cone:
                        continue
                    reached = []
                    for cells, steps in group:
                        o = r.ordinal
                        for move in zip(steps[:-1], cells):
                            o = found[o].successors[move]
                        reached.append(index[(o, (steps[-1], cells[-1]))])
                    for i in reached[1:]:
                        uf.union(reached[0], i)
        level = []
        for members in uf.groups().values():
            c, (step, z) = pairs[members[0]]
            new = ExecutionClass(len(found), z, n + 1, sum(pairs[i][0].size for i in members), step, c.ordinal, {})
            for i in members:
                pc, m = pairs[i]
                pc.successors[m] = new.ordinal
            found.append(new)
            level.append(new)
        levels.append(level)
        yield from level


def are_confluently_homotopic(p: Path, q: Path) -> bool:
    """Whether p and q, executions of one model, reach one class of `explore`."""
    if p.host != q.host:
        raise DomainMismatch("paths live in different models")
    if p.key() == q.key():
        return True
    if len(p) != len(q) or p.end != q.end:
        return False  # every class has one length and one end
    found = list(explore(p.host, len(p), to=p.end))

    def class_of(path: Path) -> int | None:
        o = 0 if found and path.cells[0] == p.host.initial else None
        for move in zip(path.steps, path.cells[1:]):
            o = None if o is None else found[o].successors.get(move)
        return o

    ours = class_of(p)
    return ours is not None and ours == class_of(q)


def classes_to(x, cell: str, max_len: int) -> list[HomotopyClass]:
    """The homotopy classes of paths of length <= max_len ending at `cell`.

    Members are expanded only for these classes, from the (class, step)
    pairs of `explore` that make them up.
    """
    if cell not in x.cells:
        raise UnknownCell(cell)
    found = list(explore(x, max_len, to=cell))
    targets = [c.ordinal for c in found if c.end == cell]
    needed = set(targets)
    for c in reversed(found):  # and every class with a successor that is needed
        if not needed.isdisjoint(c.successors.values()):
            needed.add(c.ordinal)
    members: dict[int, list[Path]] = {0: [empty_path(x)]}
    for c in found:  # a class's successors are all expanded here, so only targets keep their members
        mine = members.get(c.ordinal, []) if c.end == cell else members.pop(c.ordinal, [])
        for (step, z), o in c.successors.items():
            if o in needed:
                members.setdefault(o, []).extend(p.extend(step, z) for p in mine)
    groups = [tuple(sorted(members[o], key=Path.key)) for o in targets]
    return [HomotopyClass(group[0], group) for group in groups]


def find_shortcuts(x) -> set[tuple[str, FaceWord]]:
    """Defined composites that no chain of the model's single faces produces.

    These are the table's generators of length >= 2 (`model._generators`);
    the table of a valid model is closed, so nothing is saturated.
    """
    return {key for key in _generators(x.faces) if len(key[1]) >= 2}
