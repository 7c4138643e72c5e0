"""Face-index words: the composite-face algebra of cube-shaped cells.

A composite face of an n-cell is named by a word of (index, direction)
pairs with strictly increasing indices; direction 0 is the past face,
1 the future face.  Words compose with `star`; the tests check it against
the dual insertion action on bit vectors, implemented independently.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import IndexOutOfRange

PAST = 0
FUTURE = 1

Label = tuple[str, ...]


@dataclass(frozen=True, order=True)
class FaceWord:
    """An ordered sequence of (index, direction) pairs, indices strictly increasing."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for i, a in self.pairs:
            if i <= prev:
                raise ValueError(f"indices must be strictly increasing and >= 1: {self.pairs}")
            if a not in (PAST, FUTURE):
                raise ValueError(f"direction must be 0 or 1: {self.pairs}")
            prev = i

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    @property
    def max_index(self) -> int:
        return self.pairs[-1][0] if self.pairs else 0

    def text(self) -> str:
        return "[" + ",".join(f"({i},{a})" for i, a in self.pairs) + "]"

    @classmethod
    def parse(cls, s: str) -> "FaceWord":
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"not a face word: {s!r}")
        body = s[1:-1].replace(" ", "")
        if not body:
            return EPSILON
        pairs = []
        for item in body.replace("),(", ");(").split(";"):
            if not (item.startswith("(") and item.endswith(")")):
                raise ValueError(f"not a face word: {s!r}")
            i, a = item[1:-1].split(",")
            pairs.append((int(i), int(a)))
        return cls(tuple(pairs))


EPSILON = FaceWord()


def word(*pairs: tuple[int, int]) -> FaceWord:
    return FaceWord(tuple(pairs))


def single(index: int, direction: int) -> FaceWord:
    return FaceWord(((index, direction),))


def star(lhs: FaceWord, rhs: FaceWord) -> FaceWord:
    """Compose two face words: taking the `lhs` face and then the `rhs` face.

    Merge by heads; whenever an lhs entry is emitted, the still-pending rhs
    indices shift up by one because they act on a cell one dimension lower.
    """
    out: list[tuple[int, int]] = []
    i, j, shift = 0, 0, 0
    lp, rp = lhs.pairs, rhs.pairs
    while i < len(lp) and j < len(rp):
        li, la = lp[i]
        rj, ra = rp[j][0] + shift, rp[j][1]
        if li <= rj:
            out.append((li, la))
            i += 1
            shift += 1
        else:
            out.append((rj, ra))
            j += 1
    out.extend(lp[i:])
    out.extend((r + shift, a) for r, a in rp[j:])
    return FaceWord(tuple(out))


def delete_letters(w: FaceWord, label: Label) -> Label:
    """Drop the letter positions named by `w`, highest index first."""
    letters = list(label)
    for i, _ in reversed(w.pairs):
        if not 1 <= i <= len(letters):
            raise IndexOutOfRange(f"cannot delete position {i} of word of length {len(letters)}")
        del letters[i - 1]
    return tuple(letters)


def enumerate_words(max_index: int) -> list[FaceWord]:
    """All face words over indices 1..max_index, shortest first."""
    out = []
    for k in range(max_index + 1):
        for idx in itertools.combinations(range(1, max_index + 1), k):
            for dirs in itertools.product((PAST, FUTURE), repeat=k):
                out.append(FaceWord(tuple(zip(idx, dirs))))
    return out
