"""Open maps, coverings, and lifts of tree-shaped domains through them.

A map is open when every one-step extension of the image of an execution
lifts to an extension of the execution itself; it is a covering when the
lift is always unique.  One-step squares suffice: a lift of the first step
of a longer extension is again an execution of the domain, so the next
step is a one-step square over it, and induction on the extension's
length lifts the whole of it (the open-map argument of Joyal, Nielsen and
Winskel, *Bisimulation from open maps*, 1996).  A square lifts or not by
the cell its execution ends at, so squares are checked once per cell of
`PHDA.walk`; only a failed one builds its execution, with `paths.first_path`.
Trees lift through open maps: the lift is built by induction on depth, one
square per cell.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DomainMismatch, InvalidBound, ModelInvalid, NotATree, NotOpen, Record
from .model import PHDA, Morphism, validate_morphism

if TYPE_CHECKING:  # a positive verdict builds no execution, so `paths` is imported only to report a square
    from .paths import Path


class ExtensionSquare(Record):
    """A lifting problem: an execution of the domain and a one-step extension of its image."""

    __slots__ = ("base", "step", "target")
    base: Path
    step: tuple[int, int]
    target: str

    def __str__(self) -> str:
        j, a = self.step
        return f"{self.base.text()} | image extends by -({j},{a})-> {self.target}"


class LiftReport(Record):
    __slots__ = ("ok", "square", "lifts")
    _defaults = {"square": None, "lifts": None}
    ok: bool
    square: ExtensionSquare | None
    lifts: int | None

    def __bool__(self) -> bool:
        return self.ok


def _first_failed_square(f: Morphism, max_len: int, enough) -> LiftReport:
    """The first square, over executions of length <= max_len, whose number of lifts fails `enough`;
    a cell's moves are counted by (step, image) once for all its squares."""
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    x, m = f.source, f.mapping
    for cell, (n, _, _) in x.walk.items():
        if n > max_len:
            break
        lifts = {}
        for step, z in x.moves.get(cell, ()):
            lifts[step, m[z]] = lifts.get((step, m[z]), 0) + 1
        for square in f.target.moves.get(m[cell], ()):
            if not enough(lifts.get(square, 0)):
                from .paths import first_path
                return LiftReport(False, ExtensionSquare(first_path(x, cell), *square), lifts.get(square, 0))
    return LiftReport(True)


def is_open(f: Morphism, max_len: int) -> LiftReport:
    """Right lifting against execution-shape inclusions, up to the given length.

    The cells reached stop growing at the walk's last level, at most
    |cells| - 1 steps of the domain; a larger bound cannot change the report.
    """
    return _first_failed_square(f, max_len, lambda n: n > 0)


def is_covering(f: Morphism, max_len: int) -> LiftReport:
    """Open with exactly one lift per extension square; the bound reads as in `is_open`."""
    return _first_failed_square(f, max_len, lambda n: n == 1)


def construct_lift(g: Morphism, f: Morphism) -> Morphism:
    """h with f o h = g, built by depth induction over the tree dom(g).

    This is the universal factorisation of the unfolding: a map out of a
    tree, such as the cover of an unfolding, factors through every open
    map onto its codomain.
    A cell entered by a past step is solved as an extension square over
    its image; a cell entered by future steps is forced to be the future
    face of the already-lifted predecessor.  Cells go by (length, cell).
    """
    from .unfolding import is_tree  # only lifts need it, so open-map checks load no explorer
    if g.target != f.target:
        raise DomainMismatch("both maps must share their codomain")
    bad = validate_morphism(g)
    if bad:  # else the stepwise lift below would blame f
        raise ModelInvalid(bad)
    x, y = g.source, f.source
    report = is_tree(x)
    if not report:
        raise NotATree(report.reason)
    walk = x.walk
    h = {x.initial: y.initial}
    for cid in sorted(walk, key=lambda c: (walk[c][0], c))[1:]:  # after the initial cell
        _, prev, step = walk[cid]
        lift = next((z for s, z in y.moves.get(h[prev], ()) if s == step and f.mapping[z] == g.mapping[cid]), None)
        if lift is None:
            from .paths import first_path, map_path
            square = ExtensionSquare(map_path(Morphism(x, y, h), first_path(x, prev)), step, g.mapping[cid])
            raise NotOpen(f"no lift for cell {cid} over square {square}")
        h[cid] = lift
    out = Morphism(x, y, h)
    if validate_morphism(out) or f.mapping[y.initial] != g.mapping[x.initial]:  # the loop lifted every other cell over g
        raise NotOpen("the stepwise lift is not a commuting morphism; the map is not open at this depth")
    return out


def enumerate_morphisms(x: PHDA, y: PHDA) -> list[Morphism]:
    """All morphisms x -> y, by backtracking over the cells of equal dimension and label,
    pruning on the face table; desk-scale inputs only."""
    fibres = {
        cid: sorted(yid for yid, yc in y.cells.items() if (yc.dim, yc.label) == (cell.dim, cell.label))
        for cid, cell in x.cells.items()
    }
    fibres[x.initial] = [c for c in fibres[x.initial] if c == y.initial]
    order = sorted(x.cells, key=lambda c: (c != x.initial, -x.cells[c].dim, c))
    entries = x.entries()
    out: list[Morphism] = []

    def consistent(assign: dict[str, str]) -> bool:
        for xc, w, yc in entries:
            a, b = assign.get(xc), assign.get(yc)
            if a is not None and b is not None and y.faces.get((a, w)) != b:
                return False
        return True

    def rec(k: int, assign: dict[str, str]) -> None:
        if k == len(order):
            out.append(Morphism(x, y, dict(assign)))
            return
        cid = order[k]
        for choice in fibres[cid]:
            assign[cid] = choice
            if consistent(assign):
                rec(k + 1, assign)
            del assign[cid]

    rec(0, {})
    return out


def is_cofibrant(x: PHDA) -> bool:
    """Whether the inclusion of the initial point into x lifts against every open map.

    The paper proves that the cofibrant models are exactly the trees, so
    this is tree recognition.
    """
    from .unfolding import is_tree
    return bool(is_tree(x))
