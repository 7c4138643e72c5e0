"""Union-find over the indices 0..n-1, as a list of parents with path halving (Tarjan & van Leeuwen, 1984).

`parent[i]` is i's parent, and a root is its own; `list(range(n))` is n groups of one.
"""
from __future__ import annotations


def root(parent: list[int], i: int) -> int:
    """The root of i's group, halving its path."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def union(parent: list[int], a: int, b: int) -> bool:
    """Merge the groups of a and b, the root of b's under a's; False if they were one group."""
    ra, rb = root(parent, a), root(parent, b)
    if ra == rb:
        return False
    parent[rb] = ra
    return True


def groups(parent: list[int]) -> dict[int, list[int]]:
    """Members by root, groups in order of least member, members ascending."""
    out: dict[int, list[int]] = {}
    for i in range(len(parent)):
        out.setdefault(root(parent, i), []).append(i)
    return out
