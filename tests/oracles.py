"""Path-level, face-table and glueing oracles and test models shared by the tests.

The library builds homotopy classes with `homotopy.explore`, level by
level, and checks lifting squares over the first execution to each cell,
without enumerating paths.  These are the path-level procedures it
replaced: rewrite one path, group an enumerated set of paths by closure
under elementary rewrites, decide homotopy of two paths by breadth-first
closure, and check the lifting squares over every enumerated execution.
`breadth_first_paths` walks paths, not cells, to the first execution to
each cell, which `paths.first_path` rebuilds from `PHDA.walk`, and
`first_path_lifting` checks the squares over those executions, each lift
found by rescanning the cell's moves: `lifting` as it was before it
counted the lifts at a cell once for all of its squares.
`enumerate_lifts` lists every lift of one map through another, from all
morphisms between their domains, independently of `construct_lift`.
The rewrites draw their windows from a `ChainIndex`, every future chain
of one model searched once per (start cell, length).
`chain_walk_explore` is `explore` as it was before the run rule: it
keeps every level and glues the pairs that each group of equal chains
reaches by walking the successor maps from the chains' start class.
The face-word helpers compose chains of single faces and give the
insertion action on bit vectors, independently of `words.star`.

The closure oracles are the face-table procedures that `model` replaced:
saturation composing every new entry with every table entry on both
sides, shortcuts as the composites that saturating the single faces does
not produce, and validation that composes every pair of entries.
`broken_tables` gives the face-table breaks that validation must report.

`fixpoint_colimit` is the glueing as `colimits.colimit` computed it
before its one sweep over positions: an artificial basepoint node below
every object, and the future-run rule rescanned from every class until a
round merges nothing.

`split_moves` splits the single faces of a face table into starting and
finishing steps, each keyed by the cell the step leaves: the step tables
the path oracles walk instead of `PHDA.moves`.  `oracle_bounded_paths`
walks them level by level to the first cell reached at two lengths: the
length check of tree recognition, and the levels of `PHDA.walk`.

`patch_everywhere` swaps a library function for a stub in every module
that imported it, so a test can show that a path is never taken.

`union_find_completion` is completion as `completion.completion_of`
computed it before it closed over the missing faces only: a union-find
over every abstract face, each merge queueing the merges of the two
sides' single-letter faces.
`face_child` is the single-letter face of an abstract face.
"""
import itertools
import sys
from collections import deque
from typing import Iterator

from phda.colimits import Arrow, ColimitResult, Diagram, validate_diagram
from phda.completion import AbstractFace
from phda.errors import IndexOutOfRange, InvalidBound, InvalidDiagram, ModelInvalid
from phda.homotopy import ExecutionClass, _cone
from phda.jsonio import model_to_dict
from phda.lifting import ExtensionSquare, LiftReport, enumerate_morphisms
from phda.model import PHDA, Cell, Morphism, Violation, build, saturate
from phda.paths import Path, Spine, empty_path, enumerate_paths
from phda.uf import UnionFind
from phda.words import EPSILON, FUTURE, PAST, FaceWord, delete_letters, enumerate_words, single, star

Chains = dict[tuple[FaceWord, str], list[tuple[tuple[str, ...], tuple]]]


def star_fold(singles):
    """Compose a chain of single faces applied left to right."""
    acc = EPSILON
    for i, a in singles:
        acc = star(acc, single(i, a))
    return acc


def canonical_chain(w):
    """One single-face chain whose left-to-right composition is `w`.

    Taking the highest-index face first keeps the remaining indices valid;
    star_fold(canonical_chain(w)) == w.
    """
    return list(reversed(w.pairs))


def eval_coface(w, bits):
    """Insert the directions of `w` at their indices, lowest index first.

    Literal insertion semantics, kept independent of `star` on purpose:
    eval_coface(star(I, J), b) == eval_coface(I, eval_coface(J, b)).
    """
    out = list(bits)
    for i, a in w.pairs:
        if not 1 <= i <= len(out) + 1:
            raise IndexOutOfRange(f"cannot insert at position {i} of vector of length {len(out)}")
        out.insert(i - 1, a)
    return tuple(out)


def class_key(p):
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


def chain_walk_explore(x: PHDA, max_len: int, to: str | None = None) -> Iterator[ExecutionClass]:
    """The classes of executions of length <= max_len, level by level, in first-seen order, by chain walks.

    The classes of length n + 1 are the pairs (class of length n, step),
    glued by the windows of future steps that end at the new step: for a
    class R of length n + 1 - k and a group of k-step future chains from
    R's end with one composite and one end cell, the chains reach pairs
    through the successor maps, and those pairs are one class.  Homotopy
    is preserved by extension, so nothing else is glued.  A class's
    ordinal is its position in the stream, which is the order in which the
    breadth-first path stream first meets the class; pairs come in that
    order too, so a group's first pair extends its first member's prefix.
    Successors are filled in when the next level is built.  With `to`,
    only cells that reach `to` are kept; rewrites never leave that set.
    """
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    cone = x.cells if to is None else _cone(x, to)
    if x.initial not in cone:
        return
    moves = {c: tuple(m for m in ms if m[1] in cone) for c, ms in x.moves.items() if c in cone}
    chains = ChainIndex(x)
    found = [ExecutionClass(0, x.initial, 0, 1, None, None, {}, [])]
    levels = [found[:]]
    yield found[0]
    for n in range(max_len):
        pairs = [(c, m) for c in levels[n] for m in moves.get(c.end, ())]
        if not pairs:
            return
        index = {(c.ordinal, m): i for i, (c, m) in enumerate(pairs)}
        uf = UnionFind(range(len(pairs)))
        for k in range(2, min(n + 1, x.max_dim) + 1):
            for r in levels[n + 1 - k]:
                for (_, z), group in chains(r.end, k).items():
                    if len(group) < 2 or z not in cone:
                        continue
                    reached = []
                    for cells, steps in group:
                        o = r.ordinal
                        for move in zip(steps[:-1], cells):
                            o = found[o].successors[move]
                        reached.append(index[(o, (steps[-1], cells[-1]))])
                    for i in reached[1:]:
                        uf.union(reached[0], i)
        level = []
        for members in uf.groups().values():
            c, (step, z) = pairs[members[0]]
            new = ExecutionClass(len(found), z, n + 1, sum(pairs[i][0].size for i in members), step, c.ordinal, {}, [])
            for i in members:
                pc, m = pairs[i]
                pc.successors[m] = new.ordinal
            found.append(new)
            level.append(new)
        levels.append(level)
        yield from level


def elementary_neighbors(p, chains=None):
    """All paths one elementary rewrite away from p."""
    if chains is None:
        chains = ChainIndex(p.host)
    found = {}
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


def split_moves(x):
    """Past steps keyed by the entered cell's past face, future steps by source; (index, cell) sorted."""
    up, future = {}, {}
    for (src, w), tgt in x.faces.items():
        if len(w) == 1:
            ((i, a),) = w.pairs
            if a == PAST:
                up.setdefault(tgt, []).append((i, src))
            else:
                future.setdefault(src, []).append((i, tgt))
    for table in (up, future):
        for moves in table.values():
            moves.sort()
    return up, future


def oracle_bounded_paths(x):
    """The executions of x, level by level up to |cells| steps, and the first cell they reach at two lengths."""
    up, futures = split_moves(x)
    first_len = {x.initial: 0}
    paths = [empty_path(x)]
    frontier = list(paths)
    for _ in range(len(x.cells)):
        nxt = []
        for p in frontier:
            e = p.end
            moves = [((i, PAST), z) for i, z in up.get(e, [])]
            moves += [((i, FUTURE), z) for i, z in futures.get(e, [])]
            for step, z in moves:
                q = p.extend(step, z)
                seen = first_len.setdefault(z, len(q))
                if seen != len(q):
                    return paths, f"cell {z} is reached at lengths {seen} and {len(q)}"
                nxt.append(q)
        if not nxt:
            break
        paths.extend(nxt)
        frontier = nxt
    return paths, None


def path_stream_lifting(f, max_len, unique):
    """The first failed extension square over every enumerated execution of length <= max_len.

    A square fails when it has no lift, or, with `unique`, not exactly one.
    """
    for p in enumerate_paths(f.source, max_len):
        for step, target in f.target.moves.get(f.mapping[p.end], ()):
            lifts = [z for s, z in f.source.moves.get(p.end, ()) if s == step and f.mapping[z] == target]
            if len(lifts) != 1 if unique else not lifts:
                return LiftReport(False, ExtensionSquare(p, step, target), len(lifts))
    return LiftReport(True)


def breadth_first_paths(x, max_len):
    """The first execution to each cell within max_len steps, in the order a breadth-first walk over paths meets the cells."""
    if max_len < 0:
        raise InvalidBound(f"max_len must be >= 0, got {max_len}")
    first = {x.initial: empty_path(x)}
    frontier = [first[x.initial]]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for step, z in x.moves.get(p.end, ()):
                if z not in first:
                    first[z] = p.extend(step, z)
                    nxt.append(first[z])
        if not nxt:
            break
        frontier = nxt
    return first


def first_path_lifting(f, max_len, unique):
    """The first failed extension square over the first execution to each cell, as `path_stream_lifting` decides it."""
    for p in breadth_first_paths(f.source, max_len).values():
        for step, target in f.target.moves.get(f.mapping[p.end], ()):
            lifts = [z for s, z in f.source.moves.get(p.end, ()) if s == step and f.mapping[z] == target]
            if len(lifts) != 1 if unique else not lifts:
                return LiftReport(False, ExtensionSquare(p, step, target), len(lifts))
    return LiftReport(True)


def enumerate_lifts(g, f):
    """All h with f o h = g: the morphisms dom(g) -> dom(f) that commute over the shared codomain."""
    assert g.target == f.target, "both maps must share their codomain"
    return [
        h for h in enumerate_morphisms(g.source, f.source)
        if all(f.mapping[y] == g.mapping[x] for x, y in h.mapping.items())
    ]


def partition_paths(paths, chains=None):
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


def homotopy_closure(p, chains=None):
    """The keys of every path p rewrites to, by breadth-first search."""
    if chains is None:
        chains = ChainIndex(p.host)
    seen = {p.key()}
    frontier = [p]
    while frontier:
        nxt = []
        for r in frontier:
            for nb in elementary_neighbors(r, chains):
                if nb.key() not in seen:
                    seen.add(nb.key())
                    nxt.append(nb)
        frontier = nxt
    return seen


def late_clash():
    """Cell v is reached at lengths 2 and 4, the longer route after another path of its level."""
    return build(
        "a",
        [(c, 0, ()) for c in ("i", "u", "v", "w")] + [(e, 1, ("a",)) for e in ("a", "b", "c", "d")],
        "i",
        [
            ("a", single(1, PAST), "i"), ("a", single(1, FUTURE), "v"),
            ("b", single(1, PAST), "i"), ("b", single(1, FUTURE), "u"),
            ("c", single(1, PAST), "u"), ("c", single(1, FUTURE), "w"),
            ("d", single(1, PAST), "u"), ("d", single(1, FUTURE), "v"),
        ],
    )


def spine(labels, steps):
    return Spine(tuple((len(w), tuple(w)) for w in labels), tuple(steps))


def finish_order_diagram(n):
    """All n! finishing orders of n started actions, each glued to the object that starts them."""
    letters = "abcd"[:n]
    start = [tuple(letters[n - k :]) for k in range(n + 1)]
    objects = {"A": spine(start, [(1, PAST)] * n)}
    arrows = []
    for k, order in enumerate(itertools.permutations(letters)):
        running, labels, steps = list(letters), list(start), [(1, PAST)] * n
        for letter in order:
            steps.append((running.index(letter) + 1, FUTURE))
            running.remove(letter)
            labels.append(tuple(running))
        objects[f"F{k}"] = spine(labels, steps)
        arrows.append(Arrow(f"A-F{k}", "A", f"F{k}", {i: i for i in range(n + 1)}))
    return Diagram(objects=objects, arrows=tuple(arrows))


def two_sided_saturate(entries):
    """Close face entries under composition, composing each new entry with every entry on both sides."""
    table, by_src, by_tgt = {}, {}, {}
    queue = deque()

    def add(x, w, y):
        if len(w) == 0:
            if x != y:
                raise ModelInvalid([Violation("NotFunctional", (x, w.text(), y), "empty word must be the identity")])
            return
        old = table.get((x, w))
        if old is not None:
            if old != y:
                raise ModelInvalid([Violation("NotFunctional", (x, w.text()), f"targets {old} and {y}")])
            return
        table[(x, w)] = y
        by_src.setdefault(x, set()).add(w)
        by_tgt.setdefault(y, set()).add((x, w))
        queue.append((x, w, y))

    for x, w, y in entries:
        add(x, w, y)
    while queue:
        x, w, y = queue.popleft()
        for j in sorted(by_src.get(y, ())):
            add(x, star(w, j), table[(y, j)])
        for v, k in sorted(by_tgt.get(x, ())):
            add(v, star(k, w), y)
    return table


def saturation_shortcuts(x):
    """Defined composites that the two-sided closure of the model's single faces does not produce."""
    generated = two_sided_saturate((src, w, tgt) for (src, w), tgt in x.faces.items() if len(w) == 1)
    return {(cid, w) for (cid, w), tgt in x.faces.items() if len(w) >= 2 and generated.get((cid, w)) != tgt}


def pairwise_validate_phda(x):
    """Every structural check, with closure checked by composing every pair of entries."""
    out = []
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
        if xc not in x.cells or y not in x.cells:
            out.append(Violation("UnknownCell", (xc, w.text(), y)))
            continue
        if len(w) == 0:
            if y != xc:
                out.append(Violation("NotFunctional", (xc, w.text(), y), "empty word must be the identity"))
            continue
        dx, dy = x.cells[xc].dim, x.cells[y].dim
        if w.max_index > dx or dy != dx - len(w):
            out.append(Violation("DimensionMismatch", (xc, w.text(), y)))
            continue
        if len(x.cells[xc].label) != dx or delete_letters(w, x.cells[xc].label) != x.cells[y].label:
            out.append(Violation("LabelViolation", (xc, w.text(), y)))
    valid = {(xc, w): y for xc, w, y in entries if xc in x.cells and y in x.cells and len(w) >= 1}
    by_src = {}
    for (xc, w), y in valid.items():
        by_src.setdefault(xc, []).append((w, y))
    for xc, w, y in sorted((xc, w, y) for (xc, w), y in valid.items()):
        for j, z in sorted(by_src.get(y, [])):
            comp = star(w, j)
            got = valid.get((xc, comp))
            if got is None:
                out.append(Violation("LaxLawViolation", (xc, w.text(), j.text()), f"missing composite {comp.text()}"))
            elif got != z:
                out.append(Violation("NotFunctional", (xc, comp.text()), f"targets {got} and {z}"))
    return out


def broken_tables(x, pick=0):
    """x with its face table broken, by the violation each break must cause.

    Unknown cells and a bad dimension break any model; a dropped and a
    retargeted composite (the `pick`-th, in sorted order) need one.
    """
    top = max(sorted(x.cells), key=lambda c: x.cells[c].dim)
    changes = {
        "UnknownCell": {("ghost", single(1, PAST)): x.initial, (x.initial, single(1, PAST)): "ghost"},
        "DimensionMismatch": {(top, single(x.cells[top].dim + 1, PAST)): x.initial},
    }
    composites = sorted(key for key in x.faces if len(key[1]) >= 2)
    if composites:
        key = composites[pick % len(composites)]
        others = sorted(c for c in x.cells if c != x.faces[key] and x.cells[c].dim == x.cells[x.faces[key]].dim)
        changes["LaxLawViolation"] = {key: None}
        if others:
            changes["NotFunctional"] = {key: others[pick % len(others)]}
    return {
        kind: PHDA(x.alphabet, x.cells, x.initial, {k: v for k, v in (x.faces | change).items() if v is not None})
        for kind, change in changes.items()
    }


BASE = ("", -1)  # artificial basepoint node, below every (object, position) pair


def fixpoint_colimit(d):
    """The glueing, with the future-run rule rescanned from every class until nothing merges."""
    validate_diagram(d)
    spines = d.objects
    alphabet = frozenset(l for s in spines.values() for _, w in s.entries for l in w)
    shapes = {u: d.shape(u, alphabet) for u in spines}
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

    # walks of future steps out of one class, keyed by their composite word;
    # equal keys force equal endpoints.  Stale snapshots after a merge are
    # harmless, the outer loop reruns until a clean fixpoint.
    while True:
        merged = False
        members = uf.groups()
        for root in sorted(members):
            level = {EPSILON: {root}}
            while level:
                nxt = {}
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
    rep_of, ids = {}, {}
    for root, group in members.items():
        named = [n for n in group if n != BASE]
        rep = min(named) if named else BASE
        ids[root] = f"{rep[0]}:{rep[1]}" if rep != BASE else "*"
        rep_of[root] = rep

    cells, entries = {}, []
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

    model = PHDA(alphabet=alphabet, cells=cells, initial=ids[uf.find(BASE)], faces=saturate(entries))
    injections = {}
    for u, shape in shapes.items():
        at = {str(k): ids[uf.find((u, k))] for k in range(len(spines[u]) + 1)}
        injections[u] = Morphism(shape, model, at)
    return ColimitResult(model=model, injections=injections)


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a library function in every `phda` module that holds it: modules import functions by name."""
    for name, module in list(sys.modules.items()):
        if name == "phda" or name.startswith("phda."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def glueing_outcome(glue, d):
    """The model document and injections of `glue(d)`, or the type and message of the error it raises."""
    try:
        r = glue(d)
    except InvalidDiagram as err:
        return type(err).__name__, str(err)
    return model_to_dict(r.model), r.injections


def face_child(f, i, a):
    """The face (i, a) of the abstract face f: its word extended by one letter."""
    return AbstractFace(star(f.word, single(i, a)), f.cell)


def union_find_completion(x):
    """The completed model, unit and representative of every abstract face, by a union-find over all of them."""
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
            for ca, cb in ((face_child(a, i, d), face_child(b, i, d)) for i in range(1, n + 1) for d in (0, 1)):
                tgt = x.faces.get((ca.cell, ca.word))
                if tgt is None or tgt != x.faces.get((cb.cell, cb.word)):
                    pending.append((ca, cb))

    reps = {}
    for members in uf.groups().values():
        rep = min(members, key=AbstractFace.sort_key)
        for m in members:
            reps[m] = rep

    cells, faces = {}, {}
    for rep in sorted(set(reps.values()), key=AbstractFace.sort_key):
        dim = x.cells[rep.cell].dim - len(rep.word)
        cells[rep.id()] = Cell(rep.id(), dim, delete_letters(rep.word, x.cells[rep.cell].label))
        for v in words[dim]:
            if len(v) == 0:
                continue
            faces[(rep.id(), v)] = reps[AbstractFace(star(rep.word, v), rep.cell)].id()
    model = PHDA(alphabet=x.alphabet, cells=cells, initial=reps[AbstractFace(EPSILON, x.initial)].id(), faces=faces)
    unit = Morphism(x, model, {cid: reps[AbstractFace(EPSILON, cid)].id() for cid in x.cells})
    return model, unit, reps
