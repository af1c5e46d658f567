"""
Words over the signed generators of an Artin group.

A letter is a nonzero int: +i is the i-th generator, -i its inverse
(generators are numbered from 1).  A word is a tuple of letters.  Keeping
words as plain int tuples makes them hashable, cheap to slice and safe to
memoize, which matters because every higher layer (rewriting, normal forms,
ball enumeration) works letter by letter.

Word syntax used for parsing and printing: the lowercase letters a..z denote
generators 1..26 and uppercase letters their inverses; ``x3`` / ``X3`` denote
generator 3 and its inverse (needed for indices beyond 26, accepted for any
index).  Whitespace is optional and ignored.
"""

from __future__ import annotations

from typing import Iterable

Letter = int
Word = tuple[int, ...]


def inverse_word(w: Word) -> Word:
    """The formal inverse: reverse the word and flip every sign."""
    return tuple(-a for a in reversed(w))


def names(w: Word) -> set[int]:
    return {abs(a) for a in w}


def exponent_sum(w: Word) -> int:
    """The image of w under the homomorphism sending every generator to 1."""
    return sum(1 if a > 0 else -1 for a in w)


def sign_class(w: Word) -> str:
    """'positive', 'negative' or 'unsigned'; the empty word is 'positive'."""
    if not w or min(w) > 0:
        return "positive"
    return "negative" if max(w) < 0 else "unsigned"


def is_freely_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def free_reduce(w: Iterable[Letter]) -> Word:
    """Cancel adjacent inverse pairs until none remain (stack algorithm)."""
    out: list[int] = []
    for a in w:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def alt_starting(first: Letter, other: Letter, r: int) -> Word:
    """The length-r word alternating first, other, first, ...; r = 0 gives ()."""
    if first == other:
        raise ValueError("alternating requires two distinct letters")
    if r < 0:
        raise ValueError("length must be nonnegative")
    return (first, other) * (r // 2) + (first,) * (r % 2)


def alt_ending(last: Letter, other: Letter, r: int) -> Word:
    """The length-r alternating word of last and other that ends with last."""
    return alt_starting(last, other, r) if r % 2 else alt_starting(other, last, r)


def runs(w: Word) -> list[tuple[int, int]]:
    """
    Decompose w into maximal alternating sign-homogeneous runs.

    A run is a maximal subword whose letters all have the same sign and whose
    names alternate; every freely reduced 2-generator word splits uniquely
    into such runs, and they are exactly its maximal alternating subwords.
    Returns [(start, end), ...] with end exclusive, covering w left to right.
    """
    out: list[tuple[int, int]] = []
    i = 0
    L = len(w)
    while i < L:
        j = i + 1
        while (
            j < L
            and (w[j] > 0) == (w[j - 1] > 0)
            and abs(w[j]) != abs(w[j - 1])
            and (j - i < 2 or w[j] == w[j - 2])
        ):
            j += 1
        out.append((i, j))
        i = j
    return out


def syllable_count(w: Word) -> int:
    """Number of maximal constant-letter runs (powers of a single letter)."""
    count = 0
    prev = 0
    for a in w:
        if a != prev:
            count += 1
            prev = a
    return count


_LOW = "abcdefghijklmnopqrstuvwxyz"


def parse_word(text: str) -> Word:
    """
    Parse word syntax into a Word.  No free reduction is applied.

    Raises ValueError on any symbol that is not a letter, an x<digits> /
    X<digits> indexed generator, or whitespace.
    """
    out: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in ("x", "X") and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            idx = int(text[i + 1 : j])
            if idx < 1:
                raise ValueError(f"generator index must be >= 1 in {text!r}")
            out.append(idx if c == "x" else -idx)
            i = j
            continue
        if c.islower() and c in _LOW:
            out.append(_LOW.index(c) + 1)
        elif c.isupper() and c.lower() in _LOW:
            out.append(-(_LOW.index(c.lower()) + 1))
        else:
            raise ValueError(f"unknown symbol {c!r} in word {text!r}")
        i += 1
    return tuple(out)


def format_word(w: Word) -> str:
    """Inverse of parse_word; the empty word prints as ''."""
    parts = []
    for a in w:
        g = abs(a)
        if g <= 26:
            c = _LOW[g - 1]
            parts.append(c if a > 0 else c.upper())
        else:
            parts.append(f"x{g}" if a > 0 else f"X{g}")
    return "".join(parts)
