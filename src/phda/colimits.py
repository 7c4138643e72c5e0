"""Glueing finite diagrams of path shapes into a single model.

Node `(u, k)` is position `k` of object `u`.  The initial nodes and the
nodes matched by arrows are identified, then the endpoints of any two
runs of future steps with equal composite words out of one class.  Every
identification keeps positions, so one sweep over positions closes the
run rule.  Faces are generated by the spine steps and closed under
composition.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDiagram, NotACocone
from .model import PHDA, Cell, Morphism, saturate, validate_morphism
from .paths import Spine, path_shape
from .uf import UnionFind
from .words import EPSILON, FUTURE, PAST, single, star


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


def validate_diagram(d: Diagram) -> dict[str, PHDA]:
    """Check that every arrow is a total morphism between object shapes.

    Returns the shapes, one per object, over the diagram's alphabet.
    """
    alphabet = frozenset(l for s in d.objects.values() for _, w in s.entries for l in w)
    shapes = {u: d.shape(u, alphabet) for u in d.objects}
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
    """Glue the objects' shapes along the arrows and the future-run rule; the empty diagram gives a point."""
    shapes = validate_diagram(d)
    spines = d.objects
    if not spines:
        return ColimitResult(PHDA(alphabet=frozenset(), cells={"*": Cell("*", 0, ())}, initial="*", faces={}), {})
    names = sorted(spines)
    uf = UnionFind((u, k) for u in names for k in range(len(spines[u]) + 1))
    for u in names:
        uf.union((names[0], 0), (u, 0))
    for arrow in d.arrows:
        for k, v in arrow.cell_map.items():
            if k != v:
                raise InvalidDiagram(f"arrow {arrow.name} does not preserve execution length")
            uf.union((arrow.src, k), (arrow.dst, v))

    # runs[c]: (start class, composite word) of every future run into class c;
    # classes below position t are final once the runs ending at t are glued
    runs: dict = {}
    for t in range(1, max(map(len, spines.values())) + 1):
        ends: dict = {}
        for u in names:
            if t <= len(spines[u]) and spines[u].steps[t - 1][1] == FUTURE:
                step, p = single(spines[u].steps[t - 1][0], FUTURE), uf.find((u, t - 1))
                for c, w in [(p, EPSILON), *runs.get(p, ())]:
                    ends.setdefault((c, star(w, step)), []).append((u, t))
        for first, *rest in ends.values():
            for other in rest:
                uf.union(first, other)
        for run, (first, *_) in ends.items():
            runs.setdefault(uf.find(first), set()).add(run)

    members = uf.groups()
    ids = {root: "%s:%d" % min(group) for root, group in members.items()}
    cells: dict[str, Cell] = {}
    for root, group in sorted(members.items(), key=lambda kv: ids[kv[0]]):
        u, k = rep = min(group)
        dim, label = spines[u].entries[k]
        for other in group:
            if spines[other[0]].entries[other[1]] != (dim, label):
                raise InvalidDiagram(f"glued cells disagree on labels: {rep} vs {other}")
        cells[ids[root]] = Cell(ids[root], dim, label)
    entries = []
    for u in names:
        for k, (j, a) in enumerate(spines[u].steps, start=1):
            lo, hi = ids[uf.find((u, k - 1))], ids[uf.find((u, k))]
            if a == PAST:
                entries.append((hi, single(j, PAST), lo))
            else:
                entries.append((lo, single(j, FUTURE), hi))

    model = PHDA(alphabet=shapes[names[0]].alphabet, cells=cells, initial=ids[uf.find((names[0], 0))],
                 faces=saturate(entries))
    injections = {}
    for u, shape in shapes.items():
        at = {str(k): ids[uf.find((u, k))] for k in range(len(spines[u]) + 1)}
        injections[u] = Morphism(shape, model, at)
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
