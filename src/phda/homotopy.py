"""Confluent homotopy of paths: swapping blocks of future steps in place.

Two paths are elementary-homotopic when they agree outside a window of
future-directed steps whose composite face words are equal; homotopy is
the equivalence this generates.  `explore` builds its classes level by
level, without enumerating paths: the classes of length n + 1 are the
(class of length n, step) pairs, glued by the run rule that
`colimits.colimit` also uses.  Each class's record carries the start
class, composite word and end cell of every run of future steps into it,
and two pairs whose runs reach one such key are one class; `unfold`
reads these runs as the tree's future faces.  A class holds no path,
only its first member's last step and the class of that member's
prefix, so the records form a tree.  Unfolding, tree recognition,
`classes_to` and `are_confluently_homotopic` read it.

Nothing here rewrites single paths; the path-level rewriting, closure and
the chain-walking explorer that came before the run rule are test oracles.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .errors import DomainMismatch, InvalidBound, Record, UnknownCell
from .model import PHDA, Move, Step
from .uf import root, union
from .words import EPSILON, FUTURE, FaceWord, single, star

if TYPE_CHECKING:  # only `classes_to` builds executions, so tree recognition and unfolding load no `paths`
    from .paths import Path


class HomotopyClass(Record):
    __slots__ = ("representative", "size")
    representative: Path  # the least execution of the class by `Path.key`
    size: int

    def __len__(self) -> int:
        return self.size


class ExecutionClass:
    """One class of executions, as `explore` yields it.

    `size` is the class's number of executions and `level` their length.
    Classes refer to each other by ordinal, their position in the stream.
    `step` is the last step of the first member in breadth-first order and
    `prefix` the class of its prefix (None for the empty execution), so
    walking back to class 0 rebuilds that member; `successors` maps each
    step out of `end` to the class of the extended executions.  `runs`
    holds the keys of the runs into the class (see `explore`), filled
    before the class is yielded and emptied once it is expanded.  Its
    fields can be set, and `==` is identity.
    """

    __slots__ = _fields = ("ordinal", "end", "level", "size", "step", "prefix", "successors", "runs")
    __repr__ = Record.__repr__

    def __init__(self, ordinal: int, end: str, level: int, size: int, step: Step | None, prefix: int | None,
                 successors: dict[Move, int], runs: list[tuple[int, FaceWord, str]]) -> None:
        self.ordinal = ordinal
        self.end = end
        self.level = level
        self.size = size
        self.step = step
        self.prefix = prefix
        self.successors = successors
        self.runs = runs


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
    glued by the run rule of `colimits.colimit`.  Each class carries its
    runs, the (start class, composite word, end cell) of every run of
    future steps into it.  A future step s to z out of class i extends the
    empty run at i and each run (o, w) of i to the key (o, w * s, z); the
    pairs that share a key are one class, and each key becomes a run of
    the class of the first pair that reaches it.  The end cell keeps runs
    apart when the face table lacks their composite.  Homotopy is
    preserved by extension, so nothing else is glued, and only the
    current level and its runs are kept.

    Ordinals are stream positions, the order in which the breadth-first
    path stream first meets each class; pairs come in that order, so a
    class's first pair extends its first member's prefix.  Successors are
    filled in when the next level is built.  With `to`, only cells that
    reach `to` are kept; rewrites never leave that set.
    """
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    cone = x.cells if to is None else _cone(x, to)
    if x.initial not in cone:
        return
    moves = x.moves if to is None else {c: tuple(m for m in ms if m[1] in cone) for c, ms in x.moves.items() if c in cone}
    singles: dict[int, FaceWord] = {}  # the single word of each future index
    level = [ExecutionClass(0, x.initial, 0, 1, None, None, {}, [])]
    yield level[0]
    for n in range(max_len):
        pairs, keys, parent, by_root = [], {}, [], {}  # pair i's parent in the union-find is parent[i]
        for c in level:
            mine, c.runs = c.runs, []
            for m in moves.get(c.end, ()):
                parent.append(i := len(pairs))  # a new member, its own root
                pairs.append((c, m))
                (j, a), z = m
                if a == FUTURE:
                    s = singles.get(j) or singles.setdefault(j, single(j, a))
                    for o, w, _ in [(c.ordinal, EPSILON, c.end), *mine]:
                        first = keys.setdefault((o, star(w, s), z), i)
                        if first != i:  # the root of i's group goes under the root of first's
                            union(parent, first, i)
        if not pairs:
            return
        ordinal, level = level[-1].ordinal + 1, []
        for i, (c, m) in enumerate(pairs):
            new = by_root.get(r := root(parent, i))
            if new is None:
                new = by_root[r] = ExecutionClass(ordinal + len(level), m[1], n + 1, 0, m[0], c.ordinal, {}, [])
                level.append(new)
            new.size += c.size
            c.successors[m] = new.ordinal
        del parent, by_root  # freed before the runs are filed; the successor maps lead to each class
        for key, first in keys.items():
            c, m = pairs[first]
            level[c.successors[m] - ordinal].runs.append(key)
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
    """The homotopy classes of paths of length <= max_len ending at `cell`, in stream order.

    The executions of a class have one length and one end, and one step
    keeps the key order of equally long paths; so one forward pass finds
    each class's least execution from those of the pairs that enter it.
    """
    from .paths import empty_path
    if cell not in x.cells:
        raise UnknownCell(cell)
    least, out = {0: empty_path(x)}, []
    for c in list(explore(x, max_len, to=cell)):  # successors are filled in once the next level is built
        p = least.pop(c.ordinal)
        if c.end == cell:
            out.append(HomotopyClass(p, c.size))
        for (step, z), o in c.successors.items():
            q = p.extend(step, z)
            if o not in least or q.key() < least[o].key():
                least[o] = q
    return out


def find_shortcuts(x) -> set[tuple[str, FaceWord]]:
    """Defined composites that no chain of the model's single faces produces.

    These are the table's generators of length >= 2 (`PHDA.generators`);
    the table of a valid model is closed, so nothing is saturated.
    """
    return {key for key in x.generators if len(key[1]) >= 2}
