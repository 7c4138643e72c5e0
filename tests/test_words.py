import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from phda import words as W
from phda.errors import FrozenInstanceError, IndexOutOfRange
from phda.words import EPSILON, FaceWord, delete_letters, enumerate_words, single, star, word

from oracles import canonical_chain, eval_coface, star_fold


def words(max_index=6, max_len=4):
    def from_indices(idx):
        return st.tuples(*(st.sampled_from([0, 1]) for _ in idx)).map(
            lambda dirs: FaceWord(tuple(zip(sorted(idx), dirs)))
        )

    return st.sets(st.integers(1, max_index), max_size=max_len).flatmap(from_indices)


def bits(n):
    return st.tuples(*(st.sampled_from([0, 1]) for _ in range(n)))


def test_star_identity_cases():
    assert star(EPSILON, word((1, 0), (3, 1))) == word((1, 0), (3, 1))
    assert star(word((1, 0), (3, 1)), EPSILON) == word((1, 0), (3, 1))


def test_star_single_compositions():
    assert star(single(1, 0), single(1, 1)) == word((1, 0), (2, 1))
    assert star(single(2, 1), single(1, 0)) == word((1, 0), (2, 1))
    # the tie goes to the left factor
    assert star(single(2, 0), single(2, 1)) == word((2, 0), (3, 1))


def test_word_validation():
    with pytest.raises(ValueError):
        FaceWord(((2, 0), (1, 1)))
    with pytest.raises(ValueError):
        FaceWord(((0, 0),))
    with pytest.raises(ValueError):
        FaceWord(((1, 2),))


@given(words(), words())
def test_star_canonical_and_length(lhs, rhs):
    out = star(lhs, rhs)
    assert len(out) == len(lhs) + len(rhs)
    indices = [i for i, _ in out]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(out)


@given(words(4, 3), words(4, 3), words(4, 3))
def test_star_associative(a, b, c):
    assert star(star(a, b), c) == star(a, star(b, c))


@given(words(4, 3), words(4, 3), bits(4))
def test_coface_oracle_soundness(lhs, rhs, b):
    assert eval_coface(star(lhs, rhs), b) == eval_coface(lhs, eval_coface(rhs, b))


def test_coface_oracle_exhaustive_small():
    universe = [w for w in enumerate_words(4) if len(w) <= 3]
    vectors = [tuple((n >> k) & 1 for k in range(4)) for n in range(16)]
    for lhs in universe:
        for rhs in universe:
            comp = star(lhs, rhs)
            for b in vectors:
                assert eval_coface(comp, b) == eval_coface(lhs, eval_coface(rhs, b))


def test_delete_letters_examples():
    assert delete_letters(single(1, 0), ("a", "b")) == ("b",)
    assert delete_letters(EPSILON, ("a", "b")) == ("a", "b")
    assert delete_letters(word((1, 0), (2, 1)), ("a", "b")) == ()
    with pytest.raises(IndexOutOfRange):
        delete_letters(single(3, 0), ("a", "b"))


@given(words(3, 2), words(3, 2))
def test_delete_letters_compatible_with_star(lhs, rhs):
    comp = star(lhs, rhs)
    base = tuple(f"x{k}" for k in range(max(dict(comp), default=0) + len(comp)))
    assert delete_letters(comp, base) == delete_letters(rhs, delete_letters(lhs, base))


def test_eval_coface_examples():
    assert eval_coface(single(1, 0), (1,)) == (0, 1)
    assert eval_coface(EPSILON, (0, 1)) == (0, 1)
    assert eval_coface(word((1, 0), (2, 1)), ()) == (0, 1)
    with pytest.raises(IndexOutOfRange):
        eval_coface(single(3, 0), (1,))


@given(words(5, 4))
def test_canonical_chain_folds_back(w):
    assert star_fold(canonical_chain(w)) == w


def test_enumerate_words_count():
    # sum over k of C(4,k) * 2^k for k <= 3
    assert len([w for w in enumerate_words(4) if len(w) <= 3]) == 1 + 8 + 24 + 32


def test_words_are_interned():
    pairs = ((1, 0), (3, 1))
    assert FaceWord(pairs) is FaceWord(pairs) is word((1, 0), (3, 1))
    assert FaceWord(tuple(list(pairs))) is FaceWord(pairs)
    assert FaceWord() is EPSILON
    assert repr(FaceWord(pairs)) == "FaceWord(pairs=((1, 0), (3, 1)))"


def test_hash_and_order_are_those_of_the_pairs():
    universe = enumerate_words(3)
    for w in universe:
        assert hash(w) == hash(w.pairs) and w == w.pairs
    assert sorted(universe) == sorted(universe, key=lambda w: w.pairs)
    assert single(1, 1) > single(1, 0) >= single(1, 0) > EPSILON
    assert (single(1, 0) == (1, 0)) is False


def test_a_word_is_the_tuple_of_its_pairs():
    w = word((1, 0), (3, 1))
    assert word((1, 0)) == ((1, 0),) and word((1, 0)) < ((1, 1),)
    assert {w: "a"}[((1, 0), (3, 1))] == "a"
    assert len({w, w.pairs}) == 1
    assert type(w.pairs) is tuple and w.pairs == w.pairs and w.pairs is not w.pairs
    assert FaceWord(w) is w and FaceWord(w.pairs) is w
    assert w[0] == (1, 0) and type(w[1:]) is tuple and w[1:] == ((3, 1),)
    assert copy.copy(w) is w and copy.deepcopy(w) is w
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(w, protocol)) is w
    for protocol in (0, 1):  # the legacy protocols rebuild an equal word without interning it
        assert pickle.loads(pickle.dumps(w, protocol)) == w


def test_invalid_pairs_raise_every_time_and_are_not_interned():
    for bad in (((2, 0), (1, 1)), ((0, 0),), ((1, 2),), ((1.5, 0),)):
        for _ in range(2):
            with pytest.raises(ValueError):
                FaceWord(bad)
        assert bad not in W._INTERNED


def test_pairs_are_stored_as_plain_ints():
    assert word((1, True)).text() == "[(1,1)]"
    assert single(1, 1).text() == "[(1,1)]"
    assert EPSILON.text() == "[]"
    assert all(type(x) is int for i_a in word((2, False), (5, True)).pairs for x in i_a)


def test_copies_are_the_interned_word():
    w = word((1, 0), (2, 1), (4, 0))
    assert copy.copy(w) is w
    assert copy.deepcopy(w) is w
    assert copy.deepcopy({w: [w]}) == {w: [w]}
    assert pickle.loads(pickle.dumps(w)) is w


def test_words_are_frozen():
    w = single(2, 1)
    with pytest.raises(FrozenInstanceError):
        w.pairs = ()
    with pytest.raises(FrozenInstanceError):
        del w.pairs
    assert w.pairs == ((2, 1),)


def merge(lhs, rhs):
    """The composite by inserting the rhs indices into the positions the lhs leaves free."""
    free = [k for k in range(1, max(dict(lhs), default=0) + max(dict(rhs), default=0) + 1) if k not in dict(lhs.pairs)]
    return FaceWord(tuple(sorted(lhs.pairs + tuple((free[i - 1], a) for i, a in rhs.pairs))))


def test_memoised_star_matches_the_merge_and_the_coface_oracle():
    universe = enumerate_words(4)
    vectors = {n: [tuple((m >> k) & 1 for k in range(n)) for m in range(1 << n)] for n in range(5)}
    for lhs in universe:
        for rhs in universe:
            W._STARRED.pop((lhs, rhs), None)
            first = star(lhs, rhs)  # merged
            assert star(lhs, rhs) is first  # read back
            assert first == merge(lhs, rhs)
            for b in vectors[4 - len(rhs)]:
                assert eval_coface(first, b) == eval_coface(lhs, eval_coface(rhs, b))
