import pytest
from hypothesis import given, strategies as st

from phda.errors import IndexOutOfRange
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


def test_text_parse_roundtrip():
    for w in (EPSILON, single(2, 1), word((1, 0), (2, 1), (4, 0))):
        assert FaceWord.parse(w.text()) == w
    assert EPSILON.text() == "[]"


@given(words(), words())
def test_star_canonical_and_length(lhs, rhs):
    out = star(lhs, rhs)
    assert len(out) == len(lhs) + len(rhs)
    assert list(out.indices) == sorted(out.indices)
    assert len(set(out.indices)) == len(out)


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
    base = tuple(f"x{k}" for k in range(comp.max_index + len(comp)))
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
