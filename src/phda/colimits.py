"""Glueing finite diagrams of path shapes into a single model.

Node `(u, k)` is position `k` of object `u`.  Arrows are prefix
inclusions of spines, as morphisms of path shapes are.  The initial
nodes and the nodes matched by arrows are identified, then the endpoints
of any two runs of future steps with equal composite words out of one
class.  Every identification keeps positions, so one sweep over
positions closes the run rule.  `model.run_faces` writes the face table
from the runs' keys and the spines' past steps, as `unfold` does.
"""
from __future__ import annotations

from .errors import InvalidDiagram, NotACocone, Record
from .model import PHDA, Cell, Morphism, run_faces, validate_morphism
from .paths import Spine, path_shape
from .uf import groups, root, union
from .words import EPSILON, FUTURE, PAST, single, star


class Arrow(Record):
    __slots__ = ("name", "src", "dst", "cell_map")
    name: str
    src: str
    dst: str
    cell_map: dict[int, int]


class Diagram(Record):
    __slots__ = ("objects", "arrows")
    _defaults = {"arrows": ()}
    objects: dict[str, Spine]
    arrows: tuple[Arrow, ...]

    def shape(self, u: str, alphabet: frozenset[str] | None = None) -> PHDA:
        return path_shape(self.objects[u], alphabet)


class ColimitResult(Record):
    __slots__ = ("model", "injections")
    model: PHDA
    injections: dict[str, Morphism]

    def __iter__(self):
        return iter((self.model, self.injections))


def validate_diagram(d: Diagram) -> None:
    """Check that every arrow is total and a prefix inclusion of spines, which is what a
    morphism of path shapes is: it keeps positions, so the source spine begins the target's."""
    for arrow in d.arrows:
        if arrow.src not in d.objects or arrow.dst not in d.objects:
            raise InvalidDiagram(f"arrow {arrow.name} references unknown objects")
        s, t = d.objects[arrow.src], d.objects[arrow.dst]
        if sorted(arrow.cell_map) != list(range(len(s) + 1)):
            raise InvalidDiagram(f"arrow {arrow.name} is not total on the source cells")
        moved = any(k != v for k, v in arrow.cell_map.items())
        if moved or t.entries[: len(s) + 1] != s.entries or t.steps[: len(s)] != s.steps:
            raise InvalidDiagram(f"arrow {arrow.name} is not a prefix inclusion")


def colimit(d: Diagram) -> ColimitResult:
    """Glue the objects' shapes along the arrows and the future-run rule; the empty diagram gives a point."""
    validate_diagram(d)
    spines = d.objects
    if not spines:
        return ColimitResult(PHDA(alphabet=frozenset(), cells={"*": Cell("*", 0, ())}, initial="*", faces={}), {})
    names = sorted(spines)
    nodes = [(u, k) for u in names for k in range(len(spines[u]) + 1)]  # in (u, k) order
    start = {u: i for i, (u, k) in enumerate(nodes) if not k}  # node (u, k) is nodes[start[u] + k]
    parent = list(range(len(nodes)))
    for i in start.values():
        union(parent, 0, i)
    for arrow in d.arrows:
        for k in arrow.cell_map:
            union(parent, start[arrow.src] + k, start[arrow.dst] + k)

    # runs[c]: (start class, word) of each future run into class c; future[c]: (word, end class)
    # of each run out of c.  Classes below position t are final once the runs ending at t are glued
    runs, future = {}, {}
    for t in range(1, max(map(len, spines.values())) + 1):
        ends: dict = {}
        for u in names:
            if t <= len(spines[u]) and spines[u].steps[t - 1][1] == FUTURE:
                step, p = single(spines[u].steps[t - 1][0], FUTURE), root(parent, start[u] + t - 1)
                for c, w in [(p, EPSILON), *runs.get(p, ())]:
                    ends.setdefault((c, star(w, step)), []).append(start[u] + t)
        for first, *rest in ends.values():
            for other in rest:
                union(parent, first, other)
        for (c, w), (first, *_) in ends.items():
            runs.setdefault(end := root(parent, first), []).append((c, w))
            future.setdefault(c, []).append((w, end))

    members = groups(parent)  # a group's least index is its least node
    ids = {r: "%s:%d" % nodes[group[0]] for r, group in members.items()}
    cells, past = {}, {}
    for r, group in sorted(members.items(), key=lambda kv: ids[kv[0]]):
        u, k = nodes[group[0]]  # arrows and run ends glue only nodes of one dimension and label
        cells[ids[r]] = Cell(ids[r], *spines[u].entries[k])
        if k and spines[u].steps[k - 1][1] == PAST:
            past[r] = (single(spines[u].steps[k - 1][0], PAST), root(parent, group[0] - 1))

    alphabet = frozenset(l for s in spines.values() for _, w in s.entries for l in w)
    model = PHDA(alphabet, cells, ids[root(parent, 0)], run_faces(ids, past, future))
    at = {u: {str(k): ids[root(parent, start[u] + k)] for k in range(len(s) + 1)} for u, s in spines.items()}
    return ColimitResult(model, {u: Morphism(d.shape(u, alphabet), model, at[u]) for u in spines})


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
