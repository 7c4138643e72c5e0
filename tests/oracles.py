"""Path-level oracles and a test model shared by the tests.

The library builds homotopy classes with `homotopy.explore`, level by
level, without enumerating paths.  These are the path-level procedures it
replaced: group an enumerated set of paths by closure under elementary
rewrites, and decide homotopy of two paths by breadth-first closure.
"""
from phda.homotopy import ChainIndex, elementary_neighbors
from phda.model import build
from phda.uf import UnionFind
from phda.words import FUTURE, PAST, single


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
