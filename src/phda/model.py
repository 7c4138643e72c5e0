"""Labelled cubical transition models with a partial composite-face table.

A model is a graded set of cells, an initial point, a labelling word per
cell, and a partial table mapping (cell, face word) to the cell's face.
The table stores every defined composite explicitly; `validate_phda`
walks it once, as stored, and checks closure against the table's
generators rather than computing it.  `face_table` holds a file's
entries, `run_faces` writes the tables of `unfold` and `colimit` from the
faces their runs list, and `saturate` closes tables given by generators
(`build`, `"saturate": true` files); it is the tests' oracle for `run_faces`.

Models and morphisms are immutable after construction; every operation
here is pure, so they can be shared freely.  `PHDA.moves`, the model's
one table of single steps, and `PHDA.generators`, its one peeling pass,
are computed once per instance on first use and cached outside the
record's fields.  `==` is structural: it compares alphabet, cells,
initial point and face table (and for morphisms the two models and the
map), never the caches.  It is not identity, because two files may each
load their own copy of one model, as two morphisms into one target do.
Models and morphisms hold dicts, so hashing them raises TypeError.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable

from .errors import DomainMismatch, ModelInvalid, Record, set_field
from .words import EPSILON, FUTURE, PAST, FaceWord, Label, delete_letters, single, star

FaceTable = dict[tuple[str, FaceWord], str]
FaceEntry = tuple[str, FaceWord, str]
Step = tuple[int, int]
Move = tuple[Step, str]


class Cell(Record):
    __slots__ = ("id", "dim", "label")

    def __init__(self, id: str, dim: int, label: Label) -> None:
        set_field(self, "id", id)
        set_field(self, "dim", dim)
        set_field(self, "label", label)


class PHDA(Record):
    __slots__ = ("alphabet", "cells", "initial", "faces", "__dict__")  # the dict holds the cached properties
    alphabet: frozenset[str]
    cells: dict[str, Cell]
    initial: str
    faces: FaceTable

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
    def walk(self) -> dict[str, tuple[int, str | None, Step | None]]:
        """(length, predecessor, step) of the first execution to each cell reached, which `paths.first_path`
        rebuilds, in breadth-first order over `moves`, so lengths never fall; (0, None, None) at the start."""
        seen, order = {self.initial: (0, None, None)}, [self.initial]
        for c in order:  # grows while it is read: a queue
            for step, z in self.moves.get(c, ()):
                if z not in seen:
                    seen[z] = (seen[c][0] + 1, c, step)
                    order.append(z)
        return seen

    @cached_property
    def generators(self) -> FaceTable:
        """The table's generators (`_generators`), peeled once per model for validation and `find_shortcuts`."""
        return _generators(self.faces, self.cells)


class Morphism(Record):
    """A total, dimension- and label-preserving cell map between models."""

    __slots__ = ("source", "target", "mapping")
    source: PHDA
    target: PHDA
    mapping: dict[str, str]

    def __call__(self, cid: str) -> str:
        return self.mapping[cid]


class Violation(Record):
    __slots__ = ("kind", "subject", "detail")
    _defaults = {"detail": ""}
    kind: str
    subject: tuple
    detail: str

    def __str__(self) -> str:
        parts = ",".join(str(s) for s in self.subject)
        return f"{self.kind}({parts})" + (f": {self.detail}" if self.detail else "")


def _not_functional(x: str, w: FaceWord, old: str, new: str) -> Violation:
    """The key (x, w) given a second target `new` besides `old`; the empty word's own target is x."""
    if not w:
        return Violation("NotFunctional", (x, w.text(), new), "empty word must be the identity")
    return Violation("NotFunctional", (x, w.text()), f"targets {old} and {new}")


def face_table(entries: Iterable[FaceEntry]) -> FaceTable:
    """The entries as a table, identities of the empty word left out; ModelInvalid lists
    each entry that gives a key a second target or maps the empty word to another cell."""
    table: FaceTable = {}
    bad: list[Violation] = []
    for x, w, y in entries:
        if (old := table.setdefault((x, w), y) if w else x) != y:
            bad.append(_not_functional(x, w, old, y))
    if bad:
        raise ModelInvalid(bad)
    return table


def saturate(entries: Iterable[FaceEntry]) -> FaceTable:
    """Close a set of generator entries under composition of defined faces.

    The closure is every composite along a chain of generators.  Composition
    is associative, so each new entry is composed on the right with the
    generators out of its target only: the right Cayley-graph closure of
    Froidure & Pin (1997).  Raises ModelInvalid(NotFunctional) as
    `face_table` does, then at the first composite given two targets.
    """
    table = face_table(entries)
    gens = _by_source(table)
    queue = deque(table.items())
    while queue:
        (x, w), y = queue.popleft()
        for j, z in gens.get(y, ()):
            key = (x, star(w, j))
            old = table.get(key)
            if old is None:
                table[key] = z
                queue.append((key, z))
            elif old != z:
                raise ModelInvalid([_not_functional(x, key[1], old, z)])
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
                if (old := table.setdefault(key, y)) != y:
                    raise ModelInvalid([_not_functional(x, key[1], old, y)])
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


_DELETED: dict[tuple[Label, FaceWord], Label] = {}  # delete_letters(w, label) by (label, w)


def entry_violation(cells: dict[str, Cell], x: str, w: FaceWord, y: str) -> Violation | None:
    """The first law the entry x -w-> y breaks, or None: UnknownCell; for the empty word, NotFunctional unless
    y is x; DimensionMismatch unless w's indices are at most x's dimension and lower it by w's length; and
    LabelViolation unless deleting w's letters from x's label, as long as x's dimension, gives y's label."""
    cx, cy = cells.get(x), cells.get(y)
    if cx is None or cy is None:
        return Violation("UnknownCell", (x, w.text(), y))
    if not w:
        return None if y == x else _not_functional(x, w, x, y)
    if w[-1][0] > cx.dim or cy.dim != cx.dim - len(w):
        return Violation("DimensionMismatch", (x, w.text(), y))
    if len(cx.label) == cx.dim:  # else deleting letters is undefined; the cell's own violation is reported too
        got = _DELETED.get((cx.label, w))
        if got is None:
            got = _DELETED[cx.label, w] = delete_letters(w, cx.label)
        if got == cy.label:
            return None
    return Violation("LabelViolation", (x, w.text(), y))


def validate_phda(x: PHDA) -> list[Violation]:
    """Check functionality, dimensions, labelling, closure, and the initial point.

    Entries are checked as stored, each by `entry_violation`, and their
    violations sorted by entry.  A table is closed iff each entry
    composed on the right with each generator (`PHDA.generators`) out of its
    target is defined and agrees, by induction along the right factor's
    generator chain; only a table that fails this is checked pair by pair.
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
    cells, faces = x.cells, x.faces
    found = sorted(((xc, w), v) for (xc, w), y in faces.items() if (v := entry_violation(cells, xc, w, y)))
    out += [v for _, v in found]
    right = _by_source(x.generators)
    if any(faces.get((xc, star(w, j))) != z for (xc, w), y in faces.items() for j, z in right.get(y, ())):
        valid = dict(sorted((key, y) for key, y in faces.items() if key[1] and key[0] in cells and y in cells))
        right = _by_source(valid)
        for (xc, w), y in valid.items():
            for j, z in right.get(y, ()):
                comp = star(w, j)
                got = valid.get((xc, comp))
                if got is None:
                    out.append(Violation("LaxLawViolation", (xc, w.text(), j.text()), f"missing composite {comp.text()}"))
                elif got != z:
                    out.append(_not_functional(xc, comp, got, z))
    return out


def _by_source(table: FaceTable) -> dict[str, list[tuple[FaceWord, str]]]:
    """The (word, target) pairs of a table's entries, grouped by source cell in table order."""
    out: dict[str, list[tuple[FaceWord, str]]] = {}
    for (x, w), y in table.items():
        out.setdefault(x, []).append((w, y))
    return out


def _generators(faces: FaceTable, cells: dict[str, Cell]) -> FaceTable:
    """The single faces of a table and the composites that chains of single faces do not produce.

    One peeling pass, shortest word first.  A composite (c, w) is produced
    iff for some pair (i, a) of w, (c, single(i, a)) is defined, say as c',
    and (c', rest) is a single face or a produced composite with the same
    target, where rest is w without the pair and the indices above i
    lowered by one, so that w = star(single(i, a), rest); each word is
    peeled once.  Entries with an unknown cell or the empty word are left
    out; validation reports them.
    """
    by_len: dict[int, list[tuple[tuple[str, FaceWord], str]]] = {}
    for key, y in faces.items():
        if key[1] and key[0] in cells and y in cells:
            by_len.setdefault(len(key[1]), []).append((key, y))
    out: FaceTable = dict(by_len.pop(1, ()))
    ones = {(c, w[0]): y for (c, w), y in out.items()}
    peels: dict[FaceWord, list[tuple[Step, FaceWord]]] = {}
    for n in sorted(by_len):
        for (c, w), y in by_len[n]:
            pw = peels.get(w) or peels.setdefault(
                w, [(w[k], FaceWord(w[:k] + tuple((j - 1, b) for j, b in w[k + 1 :]))) for k in range(n)])
            for pair, rest in pw:
                mid = ones.get((c, pair))
                if mid is not None and faces.get((mid, rest)) == y and (n == 2 or (mid, rest) not in out):
                    break
            else:
                out[c, w] = y
    return out


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
    m = f.mapping  # an entry with an unmapped cell is reported as NotTotal already
    lost = sorted(
        (xc, w, y) for (xc, w), y in src.faces.items()
        if m.get(xc) is not None and m.get(y) is not None and tgt.faces.get((m[xc], w)) != m[y]
    )
    return out + [Violation("FaceNotPreserved", (xc, w.text(), y)) for xc, w, y in lost]


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
