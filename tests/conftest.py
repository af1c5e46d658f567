import itertools

import pytest
from hypothesis import settings

from artingeo.dihedral import DihedralContext
from artingeo.largetype import ArtinGroup
from artingeo.oracle import Ball, Oracle
from artingeo.presentation import CoxeterPresentation
from artingeo.presets import load_preset

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


class Stash:
    """Session-wide lazy cache of groups, oracles and enumerated balls."""

    def __init__(self):
        self._groups = {}
        self._oracles = {}
        self._oracle_balls = {}
        self._dihedral = {}

    def pres(self, name):
        return load_preset(name)

    def group(self, name, allow_counterexample=False) -> ArtinGroup:
        key = (name, allow_counterexample)
        if key not in self._groups:
            self._groups[key] = ArtinGroup(
                self.pres(name), allow_counterexample=allow_counterexample
            )
        return self._groups[key]

    def oracle(self, name) -> Oracle:
        if name not in self._oracles:
            self._oracles[name] = Oracle(self.pres(name))
        return self._oracles[name]

    def oracle_ball(self, name, radius) -> Ball:
        key = (name, radius)
        if key not in self._oracle_balls:
            self._oracle_balls[key] = Ball(self.oracle(name), radius)
        return self._oracle_balls[key]

    def dihedral(self, m) -> DihedralContext:
        if m not in self._dihedral:
            group = ArtinGroup(CoxeterPresentation.dihedral(m))
            self._dihedral[m] = group.dihedral_ctx(1, 2)
        return self._dihedral[m]


@pytest.fixture(scope="session")
def stash():
    return Stash()


def rename(w, pair, onto):
    """w with the names pair[0], pair[1] replaced by onto[0], onto[1]."""
    return tuple(onto[pair.index(abs(a))] * (1 if a > 0 else -1) for a in w)


def merge_row(t, rename=lambda w: w):
    """(f1, r, f2, h1, h2, trace) of a merger as words, each renamed."""
    steps = tuple((s.kind, rename(s.h), rename(s.h_prime), s.r_after) for s in t.trace)
    return (rename(t.f1.word), t.r, rename(t.f2.word), rename(t.h1.word), rename(t.h2.word), steps)


def all_words(n_gens, max_len, start_len=0):
    letters = [a for g in range(1, n_gens + 1) for a in (g, -g)]
    for L in range(start_len, max_len + 1):
        yield from itertools.product(letters, repeat=L)


def freely_reduced_words(n_gens, max_len, start_len=0):
    from artingeo.words import is_freely_reduced

    for w in all_words(n_gens, max_len, start_len):
        if is_freely_reduced(w):
            yield w
