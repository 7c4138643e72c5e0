"""Open maps, coverings, and lifts of tree-shaped domains through them.

A map is open when every one-step extension of the image of an execution
lifts to an extension of the execution itself; it is a covering when the
lift is always unique.  One-step squares suffice: a lift of the first step
of a longer extension is again an execution of the domain, so the next
step is a one-step square over it, and induction on the extension's
length lifts the whole of it (the open-map argument of Joyal, Nielsen and
Winskel, *Bisimulation from open maps*, 1996).  Trees lift through open
maps: the lift is built by induction on depth, solving one extension
square per cell.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CorpusDisagreement, DomainMismatch, NotATree, NotOpen
from .model import PHDA, Morphism, validate_morphism
from .paths import Path, enumerate_paths, step_moves
from .unfolding import is_tree
from .words import FUTURE, PAST, single


@dataclass(frozen=True)
class ExtensionSquare:
    """A lifting problem: an execution of the domain and a one-step extension of its image."""

    base: Path
    step: tuple[int, int]
    target: str

    def __str__(self) -> str:
        j, a = self.step
        return f"{self.base.text()} | image extends by -({j},{a})-> {self.target}"


@dataclass(frozen=True)
class LiftReport:
    ok: bool
    square: ExtensionSquare | None = None
    lifts: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _one_step_lifts(f: Morphism, p: Path, step: tuple[int, int], target: str, dom_moves) -> list[str]:
    """Domain cells completing one extension square, sorted for determinism."""
    up, futures = dom_moves
    i, a = step
    e = p.end
    if a == FUTURE:
        z = f.source.faces.get((e, single(i, FUTURE)))
        return [z] if z is not None and f.mapping[z] == target else []
    return sorted(z for ii, z in up.get(e, []) if ii == i and f.mapping[z] == target)


def _squares(f: Morphism, max_len: int, cod_moves):
    up, futures = cod_moves
    for p in enumerate_paths(f.source, max_len):
        e_img = f.mapping[p.end]
        for i, z in up.get(e_img, []):
            yield p, (i, PAST), z
        for i, z in futures.get(e_img, []):
            yield p, (i, FUTURE), z


def is_open(f: Morphism, max_len: int) -> LiftReport:
    """Right lifting against execution-shape inclusions, up to the given length."""
    dom_moves = step_moves(f.source)
    for p, step, target in _squares(f, max_len, step_moves(f.target)):
        if not _one_step_lifts(f, p, step, target, dom_moves):
            return LiftReport(False, ExtensionSquare(p, step, target), 0)
    return LiftReport(True)


def is_covering(f: Morphism, max_len: int) -> LiftReport:
    """Open with exactly one lift per extension square."""
    dom_moves = step_moves(f.source)
    cod_moves = step_moves(f.target)
    for p, step, target in _squares(f, max_len, cod_moves):
        lifts = _one_step_lifts(f, p, step, target, dom_moves)
        if len(lifts) != 1:
            return LiftReport(False, ExtensionSquare(p, step, target), len(lifts))
    return LiftReport(True)


def _classes_by_cell(x: PHDA) -> dict[str, Path]:
    """One representative execution per cell of a tree, shortest-first."""
    reps: dict[str, Path] = {}
    for p in enumerate_paths(x, len(x.cells)):
        reps.setdefault(p.end, p)
    return reps


def construct_lift(g: Morphism, f: Morphism, order: list[str] | None = None) -> Morphism:
    """h with f o h = g, built by depth induction over the tree dom(g).

    This is the universal factorisation of the unfolding: a map out of a
    tree, such as the cover of an unfolding, factors through every open
    map onto its codomain.
    A cell entered by a past step is solved as an extension square over
    its image; a cell entered by future steps is forced to be the future
    face of the already-lifted predecessor.  `order` may supply any
    depth-monotone processing order; the result does not depend on it.
    """
    if g.target != f.target:
        raise DomainMismatch("both maps must share their codomain")
    x, y = g.source, f.source
    report = is_tree(x)
    if not report:
        raise NotATree(report.reason)
    dom_moves = step_moves(y)
    reps = _classes_by_cell(x)
    if order is None:
        order = sorted(reps, key=lambda c: (len(reps[c]), c))
    elif sorted(order) != sorted(reps) or any(
        len(reps[a]) > len(reps[b]) for a, b in zip(order, order[1:])
    ):
        raise DomainMismatch("order must list every cell, shallow to deep")
    h: dict[str, str] = {}
    for cid in order:
        p = reps[cid]
        if len(p) == 0:
            h[cid] = y.initial
            continue
        i, a = p.steps[-1]
        lifted = Path(y, tuple(h[c] for c in p.cells[:-1]), p.steps[:-1])
        candidates = _one_step_lifts(f, lifted, (i, a), g.mapping[cid], dom_moves)
        if not candidates:
            raise NotOpen(f"no lift for cell {cid} over square {ExtensionSquare(lifted, (i, a), g.mapping[cid])}")
        h[cid] = candidates[0]
    out = Morphism(x, y, h)
    if validate_morphism(out) or any(f.mapping[h[c]] != g.mapping[c] for c in h):
        raise NotOpen("the stepwise lift is not a commuting morphism; the map is not open at this depth")
    return out


def _search_maps(x: PHDA, y: PHDA, fibres: dict[str, list[str]], limit: int | None) -> list[Morphism]:
    """Backtracking over per-cell candidates, pruning on the face table."""
    order = sorted(x.cells, key=lambda c: (c != x.initial, -x.cells[c].dim, c))
    entries = x.entries()
    out: list[Morphism] = []

    def consistent(assign: dict[str, str]) -> bool:
        for xc, w, yc in entries:
            a, b = assign.get(xc), assign.get(yc)
            if a is not None and b is not None and y.faces.get((a, w)) != b:
                return False
        return True

    def rec(k: int, assign: dict[str, str]) -> bool:
        if k == len(order):
            out.append(Morphism(x, y, dict(assign)))
            return limit is not None and len(out) >= limit
        cid = order[k]
        for choice in fibres[cid]:
            if cid == x.initial and choice != y.initial:
                continue
            assign[cid] = choice
            if consistent(assign) and rec(k + 1, assign):
                return True
            del assign[cid]
        return False

    rec(0, {})
    return out


def _matching_cells(x: PHDA, y: PHDA, cid: str) -> list[str]:
    cell = x.cells[cid]
    return sorted(yid for yid, yc in y.cells.items() if yc.dim == cell.dim and yc.label == cell.label)


def enumerate_lifts(g: Morphism, f: Morphism, limit: int | None = None) -> list[Morphism]:
    """All h with f o h = g, by backtracking over fibres; independent of construct_lift."""
    if g.target != f.target:
        raise DomainMismatch("both maps must share their codomain")
    x, y = g.source, f.source
    fibres = {
        cid: [yid for yid in _matching_cells(x, y, cid) if f.mapping[yid] == g.mapping[cid]]
        for cid in x.cells
    }
    return _search_maps(x, y, fibres, limit)


def enumerate_morphisms(x: PHDA, y: PHDA, limit: int | None = None) -> list[Morphism]:
    """All morphisms x -> y, by backtracking; desk-scale inputs only."""
    fibres = {cid: _matching_cells(x, y, cid) for cid in x.cells}
    return _search_maps(x, y, fibres, limit)


def is_cofibrant(x: PHDA, corpus: tuple[Morphism, ...] = ()) -> bool:
    """Every open map lifts against the point inclusion iff the model is a tree.

    The corpus cross-validates the decision: for each supplied open map f
    and each morphism g from x into f's codomain, a lift must exist
    exactly when x is a tree.
    """
    decision = bool(is_tree(x))
    for f in corpus:
        for g in enumerate_morphisms(x, f.target):
            found = bool(enumerate_lifts(g, f, limit=1))
            if found != decision:
                raise CorpusDisagreement(
                    f"lift {'found' if found else 'missing'} for g={g.mapping}, but is_tree={decision}"
                )
    return decision
