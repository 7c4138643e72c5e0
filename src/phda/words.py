"""Face-index words: the composite-face algebra of cube-shaped cells.

A composite face of an n-cell is named by a word of (index, direction)
pairs with strictly increasing indices; direction 0 is the past face,
1 the future face.  Words compose with `star`; the tests check it against
the dual insertion action on bit vectors, implemented independently.
"""
from __future__ import annotations

import itertools

from .errors import FrozenInstanceError, IndexOutOfRange

PAST = 0
FUTURE = 1

Label = tuple[str, ...]

# One word per distinct pairs tuple, and the product of each pair of words
# composed so far.  Both stay small: at most 3^d words and 5^d products for
# cells of dimension <= d.
_INTERNED: dict[tuple[tuple[int, int], ...], "FaceWord"] = {}
_STARRED: dict[tuple["FaceWord", "FaceWord"], "FaceWord"] = {}


class FaceWord(tuple):
    """An ordered sequence of (index, direction) pairs, indices strictly increasing.

    A word is the tuple of its pairs, so equality, hashing, order and length
    are those of that tuple, and a word equals the plain tuple of its pairs.
    Words are interned: a pairs tuple is checked once, and every later
    construction with equal pairs returns the same object.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...] = ()) -> "FaceWord":
        w = _INTERNED.get(pairs)
        if w is not None:
            return w
        prev = 0
        for i, a in pairs:
            if not isinstance(i, int) or i <= prev:
                raise ValueError(f"indices must be strictly increasing and >= 1: {pairs}")
            if a not in (PAST, FUTURE):
                raise ValueError(f"direction must be 0 or 1: {pairs}")
            prev = i
        w = tuple.__new__(cls, ((int(i), int(a)) for i, a in pairs))
        return _INTERNED.setdefault(w, w)

    def __init__(self, pairs: tuple[tuple[int, int], ...] = ()) -> None:
        # __new__ built or found the word.  Keep this no-op: perfbench's tracer wraps FaceWord.__init__
        pass  # to count words made, and a wrapped object.__init__(word, pairs) would raise TypeError

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"FaceWord(pairs={tuple.__repr__(self)})"

    pairs = property(tuple, doc="The pairs as a plain tuple.")

    def text(self) -> str:
        return "[" + ",".join(f"({i},{a})" for i, a in self) + "]"


EPSILON = FaceWord()


def word(*pairs: tuple[int, int]) -> FaceWord:
    return FaceWord(tuple(pairs))


def single(index: int, direction: int) -> FaceWord:
    return FaceWord(((index, direction),))


def star(lhs: FaceWord, rhs: FaceWord) -> FaceWord:
    """Compose two face words: taking the `lhs` face and then the `rhs` face.

    Each rhs pair moves up past every lhs index it reaches, and the product
    is the sorted union of the two words.  Each pair is composed once, then
    read back from `_STARRED`.
    """
    w = _STARRED.get((lhs, rhs))
    if w is not None:
        return w
    moved = []
    for r, a in rhs:
        for i, _ in lhs:
            if i <= r:
                r += 1
        moved.append((r, a))
    w = _STARRED[lhs, rhs] = FaceWord(tuple(sorted(lhs + tuple(moved))))
    return w


def delete_letters(w: FaceWord, label: Label) -> Label:
    """Drop the letter positions named by `w`, highest index first."""
    letters = list(label)
    for i, _ in reversed(w):
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
