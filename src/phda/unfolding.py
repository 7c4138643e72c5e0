"""Depth-bounded unfolding into a tree of execution classes, and tree recognition.

States of the unfolding are homotopy classes of paths, as `explore`
builds them; the covering back onto the model sends a class to its
endpoint; `model.run_faces` writes its face table from the classes'
past steps and runs, as `colimit` does.  A model is a tree exactly when
it has no shortcuts and a single class of executions to every cell;
path lengths are then unique per cell, so |cells| bounds every search.  Neither enumerates paths: the
length of each cell is its level in `PHDA.walk`, the one walk over cells
(whose first executions `paths.first_path` rebuilds), and classes come from `explore`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidBound, NotATree
from .homotopy import explore, find_shortcuts
from .model import PHDA, Cell, Morphism, run_faces
from .words import PAST, single


@dataclass(frozen=True)
class UnfoldResult:
    tree: PHDA
    cover: Morphism
    truncated: bool

    def __iter__(self):
        return iter((self.tree, self.cover, self.truncated))


@dataclass(frozen=True)
class TreeReport:
    is_tree: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.is_tree


def unfold(x: PHDA, depth: int) -> UnfoldResult:
    """Classes of executions of length <= depth, with faces between them.

    `run_faces` writes the table from each class's past step and runs.
    A future face is materialised only when the extended execution stays
    within the depth bound; `truncated` reports whether anything was cut.
    """
    if depth < 0:
        raise InvalidBound(f"depth must be >= 0, got {depth}")
    ids, cells, cover_map, past, future, truncated = {}, {}, {}, {}, {}, False
    for c in explore(x, depth):
        sid = ids[c.ordinal] = f"u{c.ordinal}"
        cells[sid] = Cell(sid, x.cells[c.end].dim, x.cells[c.end].label)
        cover_map[sid] = c.end
        if c.step is not None and c.step[1] == PAST:
            past[c.ordinal] = (single(c.step[0], PAST), c.prefix)
        for o, w, _ in c.runs:
            future.setdefault(o, []).append((w, c.ordinal))
        truncated = truncated or (c.level == depth and c.end in x.moves)
    tree = PHDA(alphabet=x.alphabet, cells=cells, initial="u0", faces=run_faces(ids, past, future))
    return UnfoldResult(tree=tree, cover=Morphism(tree, x, cover_map), truncated=truncated)


def is_tree(x: PHDA) -> TreeReport:
    """No shortcuts, every cell reachable, one execution class per cell."""
    shortcuts = find_shortcuts(x)
    if shortcuts:
        cid, w = min(shortcuts)
        return TreeReport(False, f"shortcut {w.text()} on cell {cid}")
    walk = x.walk  # lengths are unique iff each step goes one level up; the walk's first that does not clashes
    for c, (n, _, _) in walk.items():
        for _, z in x.moves.get(c, ()):
            if walk[z][0] != n + 1:
                return TreeReport(False, f"cell {z} is reached at lengths {walk[z][0]} and {n + 1}")
    for cid in sorted(x.cells):
        if cid not in walk:
            return TreeReport(False, f"cell {cid} is not the endpoint of any execution")
    ends: set[str] = set()
    for c in explore(x, len(x.cells)):
        if c.end in ends:
            break
        ends.add(c.end)
    else:
        return TreeReport(True)
    for cid in sorted(x.cells):  # stops at c.end at the latest, which has two classes
        found = sum(e.end == cid for e in explore(x, walk[cid][0], to=cid))
        if found != 1 or cid == c.end:
            return TreeReport(False, f"cell {cid} has {found} execution classes")


def tree_unit(x: PHDA) -> Morphism:
    """The inverse of the unfolding cover: a cell goes to its unique class."""
    report = is_tree(x)
    if not report:
        raise NotATree(report.reason)
    result = unfold(x, len(x.cells))
    assert not result.truncated
    inverse: dict[str, str] = {}
    for sid, cid in result.cover.mapping.items():
        assert cid not in inverse, "cover of a tree must be injective"
        inverse[cid] = sid
    return Morphism(x, result.tree, inverse)
