"""Union-find over hashable keys, with path halving."""
from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self.parent: dict = {}
        for k in keys:
            self.find(k)

    def find(self, x: Hashable) -> Hashable:
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        while p[x] is not x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the groups of a and b, the root of b's under a's; False if they were one group."""
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        self.parent[rb] = ra
        return True

    def groups(self) -> dict:
        """Members by root, in order of each group's first key; members in key order."""
        out: dict = {}
        for k in self.parent:
            out.setdefault(self.find(k), []).append(k)
        return out
