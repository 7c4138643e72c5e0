"""Completion of a partial model to a total one by adjoining missing faces.

Every pair of a face word and a cell names an abstract face.  Abstract
faces are identified by the smallest equivalence generated by (a) a
defined face equals its own abstract description and (b) identification
is a congruence for taking further faces.  The quotient carries a total
face table; the inclusion of the original cells is the unit of the
adjunction and, on total models, has the face-evaluation counit as inverse.

The work is split in two.  One pass over the face table gives each cell t
its defined class, t and the defined faces with target t, represented by
its least (cell, word).  The congruence is the equivalence generated by
(c, u*v) ~ (t, v) for each defined (c, u) -> t and word v.  In a valid
model both sides are defined and agree unless (t, v) is missing, so the
closure runs over missing faces only; a total model just renames cells.
"""
from __future__ import annotations

from functools import cache, cached_property

from .errors import NotTotalHDA, Record, set_field
from .model import PHDA, Cell, Morphism, is_hda
from .uf import groups, union
from .words import EPSILON, FaceWord, delete_letters, enumerate_words, star


class AbstractFace(Record):
    """One way of describing a (possibly missing) face: take `word` of `cell`."""

    __slots__ = ("word", "cell")

    def __init__(self, word: FaceWord, cell: str) -> None:
        set_field(self, "word", word)
        set_field(self, "cell", cell)

    def sort_key(self) -> tuple:
        return (self.cell, self.word)

    def id(self) -> str:
        return f"{self.cell}#{self.word.text()}"


class Completion(Record):
    """A completion with its unit.  `classes` maps each cell (its defined class) and each
    missing (cell, word) to its representative; `==` compares these four fields, which fix `reps`."""

    __slots__ = ("source", "model", "unit", "classes", "__dict__")  # the dict holds `reps`
    source: PHDA
    model: PHDA
    unit: Morphism
    classes: dict[str | tuple[str, FaceWord], AbstractFace]

    def rep(self, cell: str, word: FaceWord = EPSILON) -> AbstractFace:
        """The representative of the class of the abstract face (word, cell)."""
        key = (cell, word) if len(word) else cell
        return self.classes[self.source.faces.get(key, key)]

    def class_id(self, cell: str, word: FaceWord = EPSILON) -> str:
        """The completed-model cell standing for the given abstract face."""
        return self.rep(cell, word).id()

    def representatives(self) -> list[AbstractFace]:
        """One representative per completed cell, in the completed model's cell order."""
        return sorted(set(self.classes.values()), key=AbstractFace.sort_key)

    @cached_property
    def reps(self) -> dict[AbstractFace, AbstractFace]:
        """Every abstract face with its representative, built on first use."""
        cells = self.source.cells
        words = [enumerate_words(n) for n in range(self.source.max_dim + 1)]
        return {AbstractFace(w, cid): self.rep(cid, w) for cid in sorted(cells) for w in words[cells[cid].dim]}


def completion_of(x: PHDA) -> Completion:
    """Compute the total completion together with the unit morphism."""
    cells, faces, words = x.cells, x.faces, cache(enumerate_words)
    # defined classes: each cell's least member, and the number of faces each cell defines
    least = {cid: (cid, EPSILON) for cid in cells}
    defined = dict.fromkeys(cells, 0)
    for (c, w), t in faces.items():
        defined[c] += 1
        if (c, w) < least[t]:
            least[t] = (c, w)
    gaps = [cid for cid in sorted(cells) if defined[cid] < 3 ** cells[cid].dim - 1]
    missing = [(cid, w) for cid in gaps for w in words(cells[cid].dim)[1:] if (cid, w) not in faces]
    # the congruence: each missing (t, v) meets (c, u*v) for each defined (c, u) -> t
    node = faces | {key: key for key in missing}  # a defined face is its target, a missing one itself
    keys = [*cells, *missing]  # the union-find's members by index: each cell's defined class, each missing face
    index = {key: i for i, key in enumerate(keys)}
    parent = list(range(len(keys)))
    into: dict[str, list[tuple[str, FaceWord]]] = {t: [] for t in gaps}  # defined faces onto each gap
    for key, t in faces.items():
        if t in into:
            into[t].append(key)
    for t, v in missing:
        for c, u in into[t]:
            union(parent, index[node[(c, star(u, v))]], index[(t, v)])

    classes = {cid: AbstractFace(w, c) for cid, (c, w) in least.items()}
    classes.update((key, AbstractFace(key[1], key[0])) for key in missing)
    for members in groups(parent).values():
        if len(members) > 1:
            rep = min((classes[keys[m]] for m in members), key=AbstractFace.sort_key)
            classes.update((keys[m], rep) for m in members)
    reps = sorted(set(classes.values()), key=AbstractFace.sort_key)
    name = {rep: rep.id() for rep in reps}
    ids = {key: name[rep] for key, rep in classes.items()}

    model_cells = {
        name[r]: Cell(name[r], cells[r.cell].dim - len(r.word), delete_letters(r.word, cells[r.cell].label)) for r in reps
    }
    # a class holding a cell takes that cell's faces; any other class, its representative's
    table = {(ids[c], w): ids[t] for (c, w), t in node.items()}
    with_cell = {classes[cid] for cid in cells}
    for rep in (r for r in reps if r not in with_cell):
        for v in words(model_cells[name[rep]].dim)[1:]:
            table[(name[rep], v)] = ids[node[(rep.cell, star(rep.word, v))]]
    model = PHDA(alphabet=x.alphabet, cells=model_cells, initial=ids[x.initial], faces=table)
    unit = Morphism(x, model, {cid: ids[cid] for cid in cells})
    return Completion(source=x, model=model, unit=unit, classes=classes)


def complete(x: PHDA) -> tuple[PHDA, Morphism]:
    c = completion_of(x)
    return c.model, c.unit


def counit(x: PHDA) -> Morphism:
    """Evaluate abstract faces in a total model: the inverse of the unit, which there only renames cells."""
    if not is_hda(x):
        raise NotTotalHDA("counit requires every single face to be defined")
    unit = completion_of(x).unit
    return Morphism(unit.target, x, {yid: cid for cid, yid in unit.mapping.items()})


def complete_morphism(f: Morphism) -> Morphism:
    """The completed model is functorial: push each abstract face through f."""
    cs, ct = completion_of(f.source), completion_of(f.target)
    pushed = {rep.id(): ct.class_id(f.mapping[rep.cell], rep.word) for rep in cs.representatives()}
    return Morphism(cs.model, ct.model, pushed)
