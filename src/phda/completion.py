"""Completion of a partial model to a total one by adjoining missing faces.

Every pair of a face word and a cell names an abstract face.  Abstract
faces are identified by the smallest equivalence generated by (a) a
defined face equals its own abstract description and (b) identification
is a congruence for taking further faces.  The quotient carries a total
face table; the inclusion of the original cells is the unit of the
adjunction and, on already-total models, has the face-evaluation counit
as inverse.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotTotalHDA
from .model import PHDA, Cell, Morphism, is_hda
from .uf import UnionFind
from .words import EPSILON, FaceWord, delete_letters, enumerate_words, single, star


@dataclass(frozen=True)
class AbstractFace:
    """One way of describing a (possibly missing) face: take `word` of `cell`.

    The hash is computed once; it equals the dataclass hash of (word, cell).
    """

    __slots__ = ("word", "cell", "_hash")
    word: FaceWord
    cell: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.word, self.cell)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return AbstractFace, (self.word, self.cell)

    def child(self, i: int, a: int) -> "AbstractFace":
        return AbstractFace(star(self.word, single(i, a)), self.cell)

    def sort_key(self) -> tuple:
        return (self.cell, self.word.pairs)

    def id(self) -> str:
        return f"{self.cell}#{self.word.text()}"


@dataclass(frozen=True)
class Completion:
    source: PHDA
    model: PHDA
    unit: Morphism
    reps: dict[AbstractFace, AbstractFace]

    def class_id(self, cell: str, word: FaceWord = EPSILON) -> str:
        """The completed-model cell standing for the given abstract face."""
        return self.reps[AbstractFace(word, cell)].id()


def completion_of(x: PHDA) -> Completion:
    """Compute the total completion together with the unit morphism."""
    words = [enumerate_words(n) for n in range(x.max_dim + 1)]
    universe = [AbstractFace(w, cid) for cid in sorted(x.cells) for w in words[x.cells[cid].dim]]
    uf = UnionFind(universe)
    # (a) defined faces collapse onto their targets; (b) congruence: every
    # merge queues the merge of each pair of further faces of its two sides,
    # except a pair of defined faces with one target, which (a) merges
    pending = [(AbstractFace(w, cid), AbstractFace(EPSILON, tgt)) for (cid, w), tgt in x.faces.items()]
    while pending:
        a, b = pending.pop()
        if uf.union(a, b):
            n = x.cells[a.cell].dim - len(a.word)
            for ca, cb in ((a.child(i, d), b.child(i, d)) for i in range(1, n + 1) for d in (0, 1)):
                tgt = x.faces.get((ca.cell, ca.word))
                if tgt is None or tgt != x.faces.get((cb.cell, cb.word)):
                    pending.append((ca, cb))

    reps: dict[AbstractFace, AbstractFace] = {}
    for members in uf.groups().values():
        rep = min(members, key=AbstractFace.sort_key)
        for m in members:
            reps[m] = rep

    cells: dict[str, Cell] = {}
    faces: dict[tuple[str, FaceWord], str] = {}
    for rep in sorted(set(reps.values()), key=AbstractFace.sort_key):
        dim = x.cells[rep.cell].dim - len(rep.word)
        cells[rep.id()] = Cell(rep.id(), dim, delete_letters(rep.word, x.cells[rep.cell].label))
        for v in words[dim]:
            if len(v) == 0:
                continue
            faces[(rep.id(), v)] = reps[AbstractFace(star(rep.word, v), rep.cell)].id()
    model = PHDA(
        alphabet=x.alphabet,
        cells=cells,
        initial=reps[AbstractFace(EPSILON, x.initial)].id(),
        faces=faces,
    )
    unit = Morphism(x, model, {cid: reps[AbstractFace(EPSILON, cid)].id() for cid in x.cells})
    return Completion(source=x, model=model, unit=unit, reps=reps)


def complete(x: PHDA) -> tuple[PHDA, Morphism]:
    c = completion_of(x)
    return c.model, c.unit


def counit(x: PHDA) -> Morphism:
    """Evaluate abstract faces in a total model; inverse to the unit there."""
    if not is_hda(x):
        raise NotTotalHDA("counit requires every single face to be defined")
    c = completion_of(x)
    mapping = {}
    for rep in sorted(set(c.reps.values()), key=AbstractFace.sort_key):
        mapping[rep.id()] = rep.cell if len(rep.word) == 0 else x.faces[(rep.cell, rep.word)]
    return Morphism(c.model, x, mapping)


def complete_morphism(f: Morphism) -> Morphism:
    """The completed model is functorial: push each abstract face through f."""
    cs, ct = completion_of(f.source), completion_of(f.target)
    mapping = {}
    for rep in sorted(set(cs.reps.values()), key=AbstractFace.sort_key):
        mapping[rep.id()] = ct.class_id(f.mapping[rep.cell], rep.word)
    return Morphism(cs.model, ct.model, mapping)
