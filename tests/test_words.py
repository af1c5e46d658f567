import pytest
from hypothesis import given
from hypothesis import strategies as st

from artingeo.words import (
    alt_ending,
    alt_starting,
    format_word,
    free_reduce,
    is_freely_reduced,
    inverse_word,
    parse_word,
    runs,
    sign_class,
    syllable_count,
)

letters = st.integers(min_value=1, max_value=4).flatmap(
    lambda g: st.sampled_from([g, -g])
)
words = st.lists(letters, max_size=14).map(tuple)


def test_parse_examples():
    assert parse_word("a b A") == (1, 2, -1)
    assert parse_word("") == ()
    assert parse_word("b a b a c a b a b") == (2, 1, 2, 1, 3, 1, 2, 1, 2)
    assert parse_word("x3X27") == (3, -27)
    assert parse_word("x2") == (2,)
    with pytest.raises(ValueError):
        parse_word("a?b")


def test_parse_x_without_digits_is_generator_24():
    assert parse_word("x") == (24,)
    assert parse_word("x1x") == (1, 24)


@given(words)
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_free_reduce_examples():
    assert free_reduce(parse_word("abBa")) == parse_word("aa")
    assert free_reduce(parse_word("aA")) == ()
    assert free_reduce(parse_word("abaB")) == parse_word("abaB")


@given(words)
def test_free_reduce_properties(w):
    r = free_reduce(w)
    assert is_freely_reduced(r)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert (len(w) - len(r)) % 2 == 0


@given(words)
def test_inverse_word_involution(w):
    assert inverse_word(inverse_word(w)) == w
    assert free_reduce(w + inverse_word(w)) == ()


def test_alternating_examples():
    assert format_word(alt_starting(1, 2, 6)) == "ababab"
    assert format_word(alt_starting(1, 2, 5)) == "ababa"
    assert alt_starting(1, 2, 0) == ()
    assert alt_ending(1, 2, 0) == ()
    assert format_word(alt_ending(1, 2, 5)) == "ababa"
    assert format_word(alt_ending(1, 2, 6)) == "bababa"
    with pytest.raises(ValueError):
        alt_starting(1, 1, 3)
    with pytest.raises(ValueError):
        alt_starting(1, 2, -1)


@given(st.integers(min_value=0, max_value=12))
def test_alternating_length_and_anchors(r):
    w = alt_starting(1, 2, r)
    v = alt_ending(1, 2, r)
    assert len(w) == len(v) == r
    if r:
        assert w[0] == 1
        assert v[-1] == 1
    # with the anchor, these pin every letter
    assert v == w[::-1]
    assert set(w) <= {1, 2}
    assert all(w[i] != w[i + 1] for i in range(r - 1))


def test_runs_partition():
    w = parse_word("abbaBAb")
    rs = runs(w)
    assert [w[s:e] for s, e in rs] == [
        parse_word("ab"),
        parse_word("ba"),
        parse_word("BA"),
        parse_word("b"),
    ]
    assert rs[0][0] == 0 and rs[-1][1] == len(w)
    assert all(rs[i][1] == rs[i + 1][0] for i in range(len(rs) - 1))


def test_runs_do_not_cross_three_names():
    # alternation is between exactly two letters, so cab splits at b
    assert runs(parse_word("cab")) == [(0, 2), (2, 3)]


def test_syllables_and_signs():
    assert syllable_count(parse_word("aabba")) == 3
    assert syllable_count(()) == 0
    assert sign_class(parse_word("ab")) == "positive"
    assert sign_class(parse_word("AB")) == "negative"
    assert sign_class(parse_word("aB")) == "unsigned"
    assert sign_class(()) == "positive"
