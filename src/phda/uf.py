"""Union-find over hashable keys, path halving, union by rank."""
from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self.parent: dict = {}
        self.rank: dict = {}
        for k in keys:
            self.find(k)

    def find(self, x: Hashable) -> Hashable:
        p = self.parent
        if x not in p:
            p[x] = x
            self.rank[x] = 0
            return x
        while p[x] is not x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def groups(self) -> dict:
        """Members by root, in order of each group's first key; members in key order."""
        out: dict = {}
        for k in self.parent:
            out.setdefault(self.find(k), []).append(k)
        return out
