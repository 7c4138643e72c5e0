"""Labelled cubical transition models with a partial composite-face table.

A model is a graded set of cells, an initial point, a labelling word per
cell, and a partial table mapping (cell, face word) to the cell's face.
The table stores every defined composite explicitly; `validate_phda`
checks closure against the table's generators rather than computing it.
`run_faces` writes the tables of `unfold` and `colimit` from the faces
their runs list; `saturate` closes tables given by generators (`build`,
`"saturate": true` files) and is the tests' oracle for `run_faces`.

Models and morphisms are immutable after construction; every operation
here is pure, so they can be shared freely.  `PHDA.moves`, the model's
one table of single steps, and `PHDA.generators`, its one peeling pass,
are computed once per instance on first use and cached outside the
dataclass fields.  `==` is structural: it compares alphabet, cells,
initial point and face table (and for morphisms the two models and the
map), never the caches.  It is not identity, because two files may each
load their own copy of one model, as two morphisms into one target do.
Models and morphisms hold dicts, so hashing them raises TypeError.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DomainMismatch, ModelInvalid, UnknownCell
from .words import EPSILON, FUTURE, PAST, FaceWord, Label, delete_letters, single, star

FaceTable = dict[tuple[str, FaceWord], str]
FaceEntry = tuple[str, FaceWord, str]
Step = tuple[int, int]
Move = tuple[Step, str]


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int
    label: Label


@dataclass(frozen=True)
class PHDA:
    alphabet: frozenset[str]
    cells: dict[str, Cell]
    initial: str
    faces: FaceTable

    def dim(self, cid: str) -> int:
        return self._cell(cid).dim

    def label(self, cid: str) -> Label:
        return self._cell(cid).label

    def _cell(self, cid: str) -> Cell:
        try:
            return self.cells[cid]
        except KeyError:
            raise UnknownCell(cid) from None

    def cells_of_dim(self, n: int) -> list[str]:
        return sorted(c.id for c in self.cells.values() if c.dim == n)

    @property
    def max_dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=0)

    def entries(self) -> list[FaceEntry]:
        return sorted((x, w, y) for (x, w), y in self.faces.items())

    @cached_property
    def moves(self) -> dict[str, tuple[Move, ...]]:
        """The single steps out of each cell, as ((index, direction), next cell).

        A past step (i, 0) enters a cell whose i-th past face is this one (an
        action starts); a future step (i, 1) moves to this cell's i-th future
        face (an action finishes).  Past steps come first, each kind sorted
        by (index, cell); cells without steps are absent.
        """
        found: dict[str, list[tuple[int, int, str]]] = {}
        for (src, w), tgt in self.faces.items():
            if len(w) == 1:
                ((i, a),) = w
                here, there = (tgt, src) if a == PAST else (src, tgt)
                found.setdefault(here, []).append((a, i, there))
        return {c: tuple(((i, a), z) for a, i, z in sorted(found[c])) for c in sorted(found)}

    @cached_property
    def generators(self) -> FaceTable:
        """The table's generators (`_generators`), peeled once per model.

        Validation's closure check and `find_shortcuts` both read it.
        """
        return _generators(self.faces, self.cells)


@dataclass(frozen=True)
class Morphism:
    """A total, dimension- and label-preserving cell map between models."""

    source: PHDA
    target: PHDA
    mapping: dict[str, str]

    def __call__(self, cid: str) -> str:
        return self.mapping[cid]


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    detail: str = ""

    def __str__(self) -> str:
        parts = ",".join(str(s) for s in self.subject)
        return f"{self.kind}({parts})" + (f": {self.detail}" if self.detail else "")


def face(x: PHDA, cid: str, w: FaceWord) -> str | None:
    """Look up the w-face of a cell; the empty word is the identity."""
    if cid not in x.cells:
        raise UnknownCell(cid)
    if len(w) == 0:
        return cid
    return x.faces.get((cid, w))


def saturate(entries: Iterable[FaceEntry]) -> FaceTable:
    """Close a set of generator entries under composition of defined faces.

    The closure is every composite along a chain of generators.  Composition
    is associative, so each new entry is composed on the right with the
    generators out of its target only: the right Cayley-graph closure of
    Froidure & Pin (1997).  Raises ModelInvalid(NotFunctional) at the first
    (cell, word) key given two targets.
    """
    table: FaceTable = {}
    queue: deque[FaceEntry] = deque()

    def add(x: str, w: FaceWord, y: str) -> None:
        if len(w) == 0:
            if x != y:
                raise ModelInvalid([Violation("NotFunctional", (x, w.text(), y), "empty word must be the identity")])
            return
        old = table.get((x, w))
        if old is None:
            table[(x, w)] = y
            queue.append((x, w, y))
        elif old != y:
            raise ModelInvalid([Violation("NotFunctional", (x, w.text()), f"targets {old} and {y}")])

    for x, w, y in entries:
        add(x, w, y)
    gens: dict[str, list[tuple[FaceWord, str]]] = {}
    for (x, w), y in table.items():
        gens.setdefault(x, []).append((w, y))
    while queue:
        x, w, y = queue.popleft()
        for j, z in gens.get(y, ()):
            add(x, star(w, j), z)
    return table


def run_faces(names: dict, past: dict, future: dict) -> FaceTable:
    """The closed face table of cells named by `names`, from their single past faces and future composites.

    Cell k has at most one single past face, `past[k] = (word, cell)`, and
    `future[k]` lists every composite of its chains of future faces as
    (word, cell).  No cell entered by a future face has a past face, so a
    chain walks back along past faces, then takes one future composite.
    A key given two targets raises ModelInvalid(NotFunctional), as in `saturate`.
    """
    table: FaceTable = {}
    for k, x in names.items():
        w, c = EPSILON, k
        while True:
            for f, z in future.get(c, ()):
                key, y = (x, star(w, f)), names[z]
                if table.setdefault(key, y) != y:
                    raise ModelInvalid([Violation("NotFunctional", (x, key[1].text()), f"targets {table[key]} and {y}")])
            if c not in past:
                break
            p, c = past[c]
            w = star(w, p)
            table[(x, w)] = names[c]
    return table


def build(
    alphabet: Iterable[str],
    cells: Iterable[tuple[str, int, Iterable[str]]],
    initial: str,
    entries: Iterable[FaceEntry] = (),
) -> PHDA:
    """Assemble a model, closing the face table of the given entries."""
    cmap = {cid: Cell(cid, dim, tuple(label)) for cid, dim, label in cells}
    return PHDA(alphabet=frozenset(alphabet), cells=cmap, initial=initial, faces=saturate(entries))


def shape_violation(cells: dict[str, Cell], xc: str, w: FaceWord, y: str) -> Violation | None:
    """UnknownCell if an entry names a missing cell; DimensionMismatch if its
    non-empty word has an index above the source's dimension or does not
    lower the dimension by its length."""
    if xc not in cells or y not in cells:
        return Violation("UnknownCell", (xc, w.text(), y))
    dx = cells[xc].dim
    if len(w) and (w.max_index > dx or cells[y].dim != dx - len(w)):
        return Violation("DimensionMismatch", (xc, w.text(), y))
    return None


def validate_phda(x: PHDA) -> list[Violation]:
    """Check functionality, dimensions, labelling, closure, and the initial point.

    A table is closed iff each entry composed on the right with each of the
    table's generators (`PHDA.generators`) out of the entry's target is defined
    and agrees, by induction along the right factor's generator chain.  Only
    a table that fails this is checked pair by pair, for the full violation list.
    """
    out: list[Violation] = []
    if x.initial not in x.cells:
        out.append(Violation("BadInitial", (x.initial,), "unknown cell"))
    elif x.cells[x.initial].dim != 0:
        out.append(Violation("BadInitial", (x.initial,), "not of dimension 0"))
    for cid in sorted(x.cells):
        cell = x.cells[cid]
        if len(cell.label) != cell.dim:
            out.append(Violation("LabelViolation", (cid,), "label length differs from dimension"))
        for letter in cell.label:
            if letter not in x.alphabet:
                out.append(Violation("LabelViolation", (cid,), f"letter {letter!r} not in alphabet"))
    entries = x.entries()
    for xc, w, y in entries:
        bad_shape = shape_violation(x.cells, xc, w, y)
        if bad_shape:
            out.append(bad_shape)
            continue
        if len(w) == 0:
            if y != xc:
                out.append(Violation("NotFunctional", (xc, w.text(), y), "empty word must be the identity"))
            continue
        if delete_letters(w, x.cells[xc].label) != x.cells[y].label:
            out.append(Violation("LabelViolation", (xc, w.text(), y)))
    valid = {(xc, w): y for xc, w, y in entries if xc in x.cells and y in x.cells and len(w) >= 1}
    for right in (x.generators, valid):
        by_src: dict[str, list[tuple[FaceWord, str]]] = {}
        for (xc, w), y in right.items():
            by_src.setdefault(xc, []).append((w, y))
        bad: list[Violation] = []
        for (xc, w), y in valid.items():
            for j, z in by_src.get(y, ()):
                comp = star(w, j)
                got = valid.get((xc, comp))
                if got is None:
                    bad.append(Violation("LaxLawViolation", (xc, w.text(), j.text()), f"missing composite {comp.text()}"))
                elif got != z:
                    bad.append(Violation("NotFunctional", (xc, comp.text()), f"targets {got} and {z}"))
        if not bad:
            break
    return out + bad


def _generators(faces: FaceTable, cells: dict[str, Cell]) -> FaceTable:
    """The single faces of a table and the composites that chains of single faces do not produce.

    One peeling pass, shortest word first.  A composite (c, w) is produced
    iff for some pair (i, a) of w, (c, single(i, a)) is defined, say as c',
    and (c', rest) is a single face or a produced composite with the same
    target, where rest is w without the pair and the indices above i
    lowered by one, so that w = star(single(i, a), rest).  Entries with an
    unknown cell or the empty word are left out; validation reports them.
    """
    out: FaceTable = {}
    ones = {(c, w[0]): y for (c, w), y in faces.items() if len(w) == 1 and c in cells and y in cells}
    for (c, w), y in sorted(faces.items(), key=lambda item: len(item[0][1])):
        if not w or c not in cells or y not in cells:
            continue
        for k in range(len(w) if len(w) >= 2 else 0):
            mid = ones.get((c, w[k]))
            if mid is None:
                continue
            rest = (mid, FaceWord(w[:k] + tuple((j - 1, b) for j, b in w[k + 1 :])))
            if faces.get(rest) == y and (len(w) == 2 or rest not in out):
                break
        else:
            out[(c, w)] = y
    return out


def check_phda(x: PHDA) -> PHDA:
    violations = validate_phda(x)
    if violations:
        raise ModelInvalid(violations)
    return x


def validate_morphism(f: Morphism) -> list[Violation]:
    """Check totality, label preservation, map keys outside the source, the initial point, and face preservation."""
    out: list[Violation] = []
    src, tgt = f.source, f.target
    for cid in sorted(src.cells):
        img = f.mapping.get(cid)
        if img is None or img not in tgt.cells:
            out.append(Violation("NotTotal", (cid,), f"maps to {img}"))
            continue
        if src.cells[cid].dim != tgt.cells[img].dim:
            out.append(Violation("DimensionMismatch", (cid, img)))
        elif src.cells[cid].label != tgt.cells[img].label:
            out.append(Violation("LabelViolation", (cid, img)))
    for cid in sorted(f.mapping.keys() - src.cells.keys()):
        out.append(Violation("UnknownCell", (cid,), "not a cell of the source"))
    if f.mapping.get(src.initial) != tgt.initial:
        out.append(Violation("InitialViolation", (src.initial,)))
    for xc, w, y in src.entries():
        fx, fy = f.mapping.get(xc), f.mapping.get(y)
        if fx is None or fy is None:
            continue  # reported as NotTotal already
        if tgt.faces.get((fx, w)) != fy:
            out.append(Violation("FaceNotPreserved", (xc, w.text(), y)))
    return out


def identity(x: PHDA) -> Morphism:
    return Morphism(x, x, {cid: cid for cid in x.cells})


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite applying `g` first and then `f`."""
    if g.target != f.source:
        raise DomainMismatch("codomain of the first-applied map must be the domain of the second")
    return Morphism(g.source, f.target, {cid: f.mapping[g.mapping[cid]] for cid in g.mapping})


def is_hda(x: PHDA) -> bool:
    """True when every single-index face is defined on every positive-dimensional cell."""
    for cell in x.cells.values():
        for i in range(1, cell.dim + 1):
            for a in (PAST, FUTURE):
                if (cell.id, single(i, a)) not in x.faces:
                    return False
    return True
