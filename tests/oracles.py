"""Path-level oracles and a test model shared by the tests.

The library builds homotopy classes with `homotopy.explore`, level by
level, and checks lifting squares over the first execution to each cell,
without enumerating paths.  These are the path-level procedures it
replaced: rewrite one path, group an enumerated set of paths by closure
under elementary rewrites, decide homotopy of two paths by breadth-first
closure, and check the lifting squares over every enumerated execution.
The face-word helpers compose chains of single faces and give the
insertion action on bit vectors, independently of `words.star`.
"""
from phda.errors import IndexOutOfRange
from phda.homotopy import ChainIndex
from phda.lifting import ExtensionSquare, LiftReport
from phda.model import build
from phda.paths import Path, enumerate_paths
from phda.uf import UnionFind
from phda.words import EPSILON, FUTURE, PAST, single, star


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
