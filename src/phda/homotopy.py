"""Confluent homotopy of paths: swapping blocks of future steps in place.

Two paths are elementary-homotopic when they agree outside a window of
future-directed steps whose composite face words are equal.  Equivalence
is decided by breadth-first closure over elementary rewrites; the
necessary-condition key serves only as an index and negative pre-filter.

The rewrites of a window come from a `ChainIndex`: the future chains from
each start cell, of each length, grouped by composite word and end cell.
It is searched once per (cell, length) and per index; `partition_paths`,
`are_confluently_homotopic` and `is_tree` each build one, and each window
is then one dictionary lookup.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, UnknownCell
from .model import PHDA, saturate
from .paths import Path, enumerate_paths
from .uf import UnionFind
from .words import EPSILON, FUTURE, FaceWord, single, star, star_fold

Chains = dict[tuple[FaceWord, str], list[tuple[tuple[str, ...], tuple]]]


@dataclass(frozen=True)
class HomotopyClass:
    representative: Path
    members: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.members)


def class_key(p: Path) -> tuple:
    """Invariants shared by homotopic paths: length, past steps, per-run composites, endpoint.

    Necessary conditions only; never used to decide equivalence positively.
    """
    past = tuple((k, j) for k, (j, a) in enumerate(p.steps) if a != FUTURE)
    runs = []
    k = 0
    while k < len(p.steps):
        if p.steps[k][1] == FUTURE:
            start = k
            while k < len(p.steps) and p.steps[k][1] == FUTURE:
                k += 1
            runs.append((start, star_fold(list(p.steps[start:k]))))
        else:
            k += 1
    return (len(p.steps), past, tuple(runs), p.end)


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


def elementary_neighbors(p: Path, chains: ChainIndex | None = None) -> list[Path]:
    """All paths one elementary rewrite away from p."""
    if chains is None:
        chains = ChainIndex(p.host)
    found: dict[tuple, Path] = {}
    for s in range(1, len(p.steps)):
        if p.steps[s - 1][1] != FUTURE:
            continue
        target = single(*p.steps[s - 1])
        for t in range(s + 1, len(p.steps) + 1):
            if p.steps[t - 1][1] != FUTURE:
                break
            target = star(target, single(*p.steps[t - 1]))
            window = (p.cells[s : t + 1], p.steps[s - 1 : t])
            for cells, steps in chains(p.cells[s - 1], t - s + 1).get((target, p.cells[t]), ()):
                if (cells, steps) != window:
                    q = Path(p.host, p.cells[:s] + cells[:-1] + p.cells[t:], p.steps[: s - 1] + steps + p.steps[t:])
                    found[q.key()] = q
    return [found[k] for k in sorted(found)]


def are_confluently_homotopic(p: Path, q: Path) -> bool:
    """Reflexive-transitive closure of elementary rewrites, by search."""
    if p.host != q.host:
        raise DomainMismatch("paths live in different models")
    if p.key() == q.key():
        return True
    if class_key(p) != class_key(q):
        return False  # provably necessary conditions; a pure pre-filter
    chains = ChainIndex(p.host)
    seen = {p.key()}
    frontier = [p]
    while frontier:
        nxt = []
        for r in frontier:
            for nb in elementary_neighbors(r, chains):
                k = nb.key()
                if k == q.key():
                    return True
                if k not in seen:
                    seen.add(k)
                    nxt.append(nb)
        frontier = nxt
    return False


def partition_paths(paths: list[Path], chains: ChainIndex | None = None) -> list[list[Path]]:
    """Group paths by closure under elementary rewrites, preserving first-seen order.

    The input must be closed under rewrites (rewrites preserve length and
    endpoint, so length- or endpoint-filtered enumerations qualify).  A
    caller partitioning several such sets of one model may share `chains`.
    """
    if chains is None and paths:
        chains = ChainIndex(paths[0].host)
    index = {p.key(): i for i, p in enumerate(paths)}
    uf = UnionFind(range(len(paths)))
    for i, p in enumerate(paths):
        for nb in elementary_neighbors(p, chains):
            uf.union(i, index[nb.key()])
    return [[paths[i] for i in group] for group in uf.groups().values()]


def classes_to(x, cell: str, max_len: int) -> list[HomotopyClass]:
    """The homotopy classes of paths of length <= max_len ending at `cell`."""
    if cell not in x.cells:
        raise UnknownCell(cell)
    paths = [p for p in enumerate_paths(x, max_len) if p.end == cell]
    out = []
    for group in partition_paths(paths):
        members = tuple(sorted(group, key=Path.key))
        out.append(HomotopyClass(members[0], members))
    return out


def find_shortcuts(x) -> set[tuple[str, FaceWord]]:
    """Defined composites that the closure of the model's single faces does not produce."""
    generated = saturate((src, w, tgt) for (src, w), tgt in x.faces.items() if len(w) == 1)
    return {(cid, w) for (cid, w), tgt in x.faces.items() if len(w) >= 2 and generated.get((cid, w)) != tgt}
