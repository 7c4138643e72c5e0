"""Glueing finite diagrams of path shapes into a single model.

Two quotients: first, identify the basepoints of all objects and the
cells matched by the diagram's arrows; second, saturate the future-run
rule, merging the endpoints of any two equal-composite runs of future
steps out of an already-identified cell.  Faces are then generated by
the spine steps and closed under composition.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidDiagram, NotACocone
from .model import PHDA, Cell, Morphism, saturate, validate_morphism
from .paths import Spine, path_shape
from .uf import UnionFind
from .words import EPSILON, FUTURE, PAST, single, star

BASE = ("", -1)  # artificial basepoint node, below every (object, position) pair


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str
    cell_map: dict[int, int]


@dataclass(frozen=True)
class Diagram:
    objects: dict[str, Spine]
    arrows: tuple[Arrow, ...] = ()

    def shape(self, u: str, alphabet: frozenset[str] | None = None) -> PHDA:
        return path_shape(self.objects[u], alphabet)


@dataclass(frozen=True)
class ColimitResult:
    model: PHDA
    injections: dict[str, Morphism]

    def __iter__(self):
        return iter((self.model, self.injections))


def _alphabet(d: Diagram) -> frozenset[str]:
    return frozenset(l for s in d.objects.values() for _, w in s.entries for l in w)


def validate_diagram(d: Diagram) -> dict[str, PHDA]:
    """Check that every arrow is a total morphism between object shapes; returns the shapes, one per object."""
    shapes = {u: d.shape(u) for u in d.objects}
    for arrow in d.arrows:
        if arrow.src not in d.objects or arrow.dst not in d.objects:
            raise InvalidDiagram(f"arrow {arrow.name} references unknown objects")
        src_len = len(d.objects[arrow.src])
        if sorted(arrow.cell_map) != list(range(src_len + 1)):
            raise InvalidDiagram(f"arrow {arrow.name} is not total on the source cells")
        f = Morphism(shapes[arrow.src], shapes[arrow.dst], {str(k): str(v) for k, v in arrow.cell_map.items()})
        bad = validate_morphism(f)
        if bad:
            raise InvalidDiagram(f"arrow {arrow.name} is not a morphism: {bad[0]}")
    return shapes


def colimit(d: Diagram) -> ColimitResult:
    shapes = validate_diagram(d)
    spines = d.objects
    nodes = [BASE] + [(u, k) for u in sorted(spines) for k in range(len(spines[u]) + 1)]
    positions = {n: max(n[1], 0) for n in nodes}
    uf = UnionFind(nodes)
    for u in sorted(spines):
        uf.union(BASE, (u, 0))
    for arrow in d.arrows:
        for k, v in arrow.cell_map.items():
            if positions[(arrow.src, k)] != positions[(arrow.dst, v)]:
                raise InvalidDiagram(f"arrow {arrow.name} does not preserve execution length")
            uf.union((arrow.src, k), (arrow.dst, v))

    # future-run saturation: walks of future steps out of one class, keyed by
    # their composite word; equal keys force equal endpoints.  Stale snapshots
    # after a merge are harmless, the outer loop reruns until a clean fixpoint.
    while True:
        merged = False
        members = uf.groups()
        for root in sorted(members):
            level = {EPSILON: {root}}
            while level:
                nxt: dict = {}
                for wrd, ends in level.items():
                    for end in ends:
                        for node in members.get(end, []):
                            if node == BASE:
                                continue
                            u, k = node
                            if k + 1 <= len(spines[u]) and spines[u].steps[k][1] == FUTURE:
                                w2 = star(wrd, single(spines[u].steps[k][0], FUTURE))
                                nxt.setdefault(w2, set()).add(uf.find((u, k + 1)))
                for endpoints in nxt.values():
                    first, *rest = sorted(endpoints)
                    for other in rest:
                        merged |= uf.union(first, other)
                level = nxt
        if not merged:
            break

    members = uf.groups()
    rep_of: dict = {}
    ids: dict = {}
    for root, group in members.items():
        named = [n for n in group if n != BASE]
        rep = min(named) if named else BASE
        ids[root] = f"{rep[0]}:{rep[1]}" if rep != BASE else "*"
        rep_of[root] = rep

    cells: dict[str, Cell] = {}
    entries = []
    for root, group in sorted(members.items(), key=lambda kv: ids[kv[0]]):
        rep = rep_of[root]
        if rep == BASE:
            cells[ids[root]] = Cell(ids[root], 0, ())
            continue
        u, k = rep
        dim, label = spines[u].entries[k]
        for other in group:
            if other != BASE and spines[other[0]].entries[other[1]] != (dim, label):
                raise InvalidDiagram(f"glued cells disagree on labels: {rep} vs {other}")
        cells[ids[root]] = Cell(ids[root], dim, label)
    for u in sorted(spines):
        for k, (j, a) in enumerate(spines[u].steps, start=1):
            lo, hi = ids[uf.find((u, k - 1))], ids[uf.find((u, k))]
            if a == PAST:
                entries.append((hi, single(j, PAST), lo))
            else:
                entries.append((lo, single(j, FUTURE), hi))

    base_id = ids[uf.find(BASE)]
    model = PHDA(alphabet=_alphabet(d), cells=cells, initial=base_id, faces=saturate(entries))
    injections = {}
    for u, shape in shapes.items():
        at = {str(k): ids[uf.find((u, k))] for k in range(len(spines[u]) + 1)}
        injections[u] = Morphism(replace(shape, alphabet=model.alphabet), model, at)
    return ColimitResult(model=model, injections=injections)


def check_cocone(d: Diagram, apex: PHDA, legs: dict[str, Morphism]) -> bool:
    """Do the legs commute with every arrow of the diagram?"""
    if set(legs) != set(d.objects):
        return False
    for u, leg in legs.items():
        if leg.target != apex or validate_morphism(leg):
            return False
    for arrow in d.arrows:
        src_leg, dst_leg = legs[arrow.src], legs[arrow.dst]
        for k, v in arrow.cell_map.items():
            if src_leg.mapping[str(k)] != dst_leg.mapping[str(v)]:
                return False
    return True


def mediate(d: Diagram, colim: ColimitResult, legs: dict[str, Morphism]) -> Morphism:
    """The unique map out of the glueing commuting with every injection."""
    if not legs:
        raise NotACocone("no legs supplied")
    apex = legs[next(iter(sorted(legs)))].target
    if not check_cocone(d, apex, legs):
        raise NotACocone("legs do not commute with the diagram")
    mapping: dict[str, str] = {}
    for u, inj in sorted(colim.injections.items()):
        for k, cid in inj.mapping.items():
            img = legs[u].mapping[k]
            if mapping.setdefault(cid, img) != img:
                raise NotACocone(f"legs disagree on glued cell {cid}")
    return Morphism(colim.model, apex, mapping)
