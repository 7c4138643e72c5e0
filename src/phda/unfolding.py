"""Depth-bounded unfolding into a tree of execution classes, and tree recognition.

States of the unfolding are homotopy classes of paths; the covering back
onto the model sends a class to its endpoint.  A model is a tree exactly
when it has no shortcuts and a single class of executions to every cell;
path lengths are then unique per cell, so |cells| bounds every search.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidBound, NotATree
from .homotopy import ChainIndex, find_shortcuts, partition_paths
from .model import PHDA, Cell, Morphism, saturate
from .paths import Path, empty_path, executions
from .words import FUTURE, PAST, single


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

    A future face is materialised only when the extended execution stays
    within the depth bound; `truncated` reports whether anything was cut.
    """
    if depth < 0:
        raise InvalidBound(f"depth must be >= 0, got {depth}")
    paths: list[Path] = []
    truncated = False
    for p in executions(x, depth + 1):
        if len(p) > depth:
            truncated = True
            break
        paths.append(p)
    groups = partition_paths(paths, ChainIndex(x))
    state_of: dict[tuple, str] = {}
    reps: list[Path] = []
    for ordinal, group in enumerate(groups):
        sid = f"u{ordinal}"
        reps.append(min(group, key=Path.key))
        for p in group:
            state_of[p.key()] = sid

    cells: dict[str, Cell] = {}
    entries = []
    cover_map: dict[str, str] = {}
    for ordinal, rep in enumerate(reps):
        sid = f"u{ordinal}"
        cells[sid] = Cell(sid, x.dim(rep.end), x.label(rep.end))
        cover_map[sid] = rep.end
        if len(rep) > 0:
            i, a = rep.steps[-1]
            if a == PAST:
                entries.append((sid, single(i, PAST), state_of[rep.prefix(len(rep) - 1).key()]))
        if len(rep) < depth:
            for step, z in x.moves.get(rep.end, ()):
                if step[1] == FUTURE:
                    entries.append((sid, single(*step), state_of[rep.extend(step, z).key()]))
    tree = PHDA(
        alphabet=x.alphabet,
        cells=cells,
        initial=state_of[empty_path(x).key()],
        faces=saturate(entries),
    )
    return UnfoldResult(tree=tree, cover=Morphism(tree, x, cover_map), truncated=truncated)


def _bounded_paths(x: PHDA) -> tuple[list[Path], str | None]:
    """Paths up to |cells| steps, aborting on a cell reached at two lengths.

    On a clash only the whole levels below the clashing path are returned.
    """
    first_len: dict[str, int] = {}
    paths: list[Path] = []
    for p in executions(x, len(x.cells)):
        seen = first_len.setdefault(p.end, len(p))
        if seen != len(p):
            return [q for q in paths if len(q) < len(p)], f"cell {p.end} is reached at lengths {seen} and {len(p)}"
        paths.append(p)
    return paths, None


def is_tree(x: PHDA) -> TreeReport:
    """No shortcuts, every cell reachable, one execution class per cell."""
    shortcuts = find_shortcuts(x)
    if shortcuts:
        cid, w = min(shortcuts, key=lambda s: (s[0], s[1].pairs))
        return TreeReport(False, f"shortcut {w.text()} on cell {cid}")
    paths, clash = _bounded_paths(x)
    if clash:
        return TreeReport(False, clash)
    by_end: dict[str, list[Path]] = {}
    for p in paths:
        by_end.setdefault(p.end, []).append(p)
    for cid in sorted(x.cells):
        if cid not in by_end:
            return TreeReport(False, f"cell {cid} is not the endpoint of any execution")
    chains = ChainIndex(x)
    for cid in sorted(by_end):
        found = partition_paths(by_end[cid], chains)
        if len(found) != 1:
            return TreeReport(False, f"cell {cid} has {len(found)} execution classes")
    return TreeReport(True)


def cell_depths(x: PHDA) -> dict[str, int]:
    """Length of the executions reaching each cell; requires unique lengths."""
    paths, clash = _bounded_paths(x)
    if clash:
        raise NotATree(clash)
    return {p.end: len(p) for p in paths}


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
