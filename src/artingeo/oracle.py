"""
Brute-force ground truth, independent of the shortlex engine.

Equality of bounded words is decided by a fixed-point closure: starting from
a word, apply free reduction and tau-moves on all critical subwords until no
new word appears.  No move ever lengthens a word, a non-geodesic word always
reaches a shorter one (length-reducing moves are tau-moves followed by free
cancellation), and geodesic spellings of one element are connected by
tau-moves, so the closure of a word contains the full geodesic set of its
element.  The canonical representative is the shortlex-least word of the
closure, under the same letter order as the engine so that normal forms are
directly comparable.  The critical subwords are found by classifying every
slice over two names (:func:`critical_subwords`), not by the run scanner
the engine's repairs use.

The closure reasoning is itself spot-checked at small scale against a pure
relator-substitution procedure (replace one side of a defining relation by
the other, free cancellation, bounded free insertion) which does not go
through the tau-calculus at all.

Ball enumeration, geodesic-word enumeration and factorisation counting are
all driven by the canonical form, never by the engine; engine results are
compared against this module in the test suite.  The breadth-first
bookkeeping of a ball (ids, adjacency, spheres, walks) is the table type
:class:`artingeo.shortlex.CayleyBall` shared with the engine ball, but the
table holds no engine: an oracle ball decides equality only through
:meth:`Oracle.canon`, which the shared loop calls on the outward cells; the
inward cells and the cells leaving the ball follow from length parity.
"""

from __future__ import annotations

from . import critical
from .critical import LabelFn, apply_tau_at
from .presentation import INF, CoxeterPresentation
from .shortlex import BallBudgetError  # noqa: F401  (raised by Ball; importable from here)
from .shortlex import CayleyBall, default_order, memo
from .words import Word, free_reduce, inverse_word, names, parse_word

# longest freely reduced word canon accepts: the closure is exponential in
# the worst case, and this is a bounded-length decision procedure by design
MAX_LEN = 64


def critical_subwords(w: Word, label: LabelFn):
    """
    Every (start, end, classification) of a critical subword of w, by
    increasing start and then end: each slice over exactly two names is
    classified, and a start stops at a third name or an unconstrained pair.
    The engine reads critical subwords off runs instead; the tests compare.
    """
    for s in range(len(w)):
        for e in range(s + 3, len(w) + 1):
            nm = names(w[s:e])
            if len(nm) > 2:
                break
            if len(nm) == 2:
                m = label(*nm)
                if m is INF:
                    break
                # through the module, so that a wrapped classify_critical sees the call
                c = critical.classify_critical(w[s:e], m)
                if c is not None:
                    yield s, e, c


class Oracle:
    """Closure-based word problem for one presentation; words longer than
    MAX_LEN after free reduction are refused."""

    def __init__(self, pres: CoxeterPresentation):
        self.pres = pres
        self._rank = {a: r for r, a in enumerate(default_order(pres.n))}
        self.label: LabelFn = pres.label
        self._canon: dict[Word, Word] = {(): ()}  # not @memo: one miss stores its whole closure

    def shortlex_key(self, w: Word):
        return (len(w), tuple(self._rank[a] for a in w))

    def canon(self, word) -> Word:
        """Shortlex-least word in the closure of `word`."""
        w = free_reduce(parse_word(word) if isinstance(word, str) else tuple(word))
        if len(w) > MAX_LEN:
            raise ValueError(f"word of length {len(w)} exceeds the oracle bound {MAX_LEN}")
        if any(a == 0 or abs(a) > self.pres.n for a in w):
            raise ValueError("generator index out of range")
        hit = self._canon.get(w)
        if hit is not None:
            return hit
        seen: set[Word] = {w}
        frontier: list[Word] = [w]
        found: Word | None = None
        while frontier:
            cur = frontier.pop()
            for s, e, c in critical_subwords(cur, self.label):
                nxt = free_reduce(apply_tau_at(cur, s, e, c))
                if nxt in seen:
                    continue
                hit = self._canon.get(nxt)
                if hit is not None:
                    found = hit
                    frontier = []
                    break
                seen.add(nxt)
                frontier.append(nxt)
        if found is None:
            found = min(seen, key=self.shortlex_key)
        for s in seen:
            self._canon[s] = found
        return found

    def equal(self, w1, w2) -> bool:
        return self.canon(w1) == self.canon(w2)

    def geodesic_length(self, word) -> int:
        return len(self.canon(word))

    def is_geodesic(self, word) -> bool:
        w = parse_word(word) if isinstance(word, str) else tuple(word)
        return len(self.canon(w)) == len(w)


class Ball(CayleyBall):
    """
    The radius-R ball of the Cayley graph, enumerated by breadth-first
    search over canonical representatives, with the right-multiplication
    adjacency table.  Closed under inversion and usable for geodesic-word
    enumeration and factorisation counting without touching the engine.
    """

    def __init__(self, oracle: Oracle, radius: int, max_elements=None):
        self.oracle = oracle
        super().__init__(lambda w, a: oracle.canon(w + (a,)), oracle.pres.n, radius, max_elements)

    def id_of(self, word) -> int:
        c = self.oracle.canon(word)
        if len(c) > self.radius:
            raise ValueError(f"element of length {len(c)} outside radius {self.radius}")
        return self.index[c]

    def inverse(self, idx: int) -> int:
        return self.index[self.oracle.canon(inverse_word(self.words[idx]))]

    # -- geodesic spellings -------------------------------------------------

    @memo(lambda idx: idx)
    def geodesic_words_of(self, idx: int) -> tuple[Word, ...]:
        """All geodesic spellings of element idx, by backward recursion."""
        if self.length[idx] == 0:
            return ((),)
        acc: list[Word] = []
        for a in self.letters:
            prev = self.step(idx, -a)
            if prev >= 0 and self.length[prev] == self.length[idx] - 1:
                acc.extend(w + (a,) for w in self.geodesic_words_of(prev))
        return tuple(sorted(acc))

    def final_letters_of(self, idx: int) -> set[int]:
        return {w[-1] for w in self.geodesic_words_of(idx)}

    # -- divisors and factorisations ----------------------------------------

    def left_divisors(self, idx: int) -> set[int]:
        """All left divisors, as prefix elements of geodesic spellings."""
        out: set[int] = set()
        for w in self.geodesic_words_of(idx):
            cur = 0
            out.add(cur)
            for a in w:
                cur = self.step(cur, a)
                out.add(cur)
        return out

    def right_divisors(self, idx: int) -> set[int]:
        return {self.inverse(d) for d in self.left_divisors(self.inverse(idx))}

    def fact_count(
        self, g_idx: int, k: int, l: int, permissible=None
    ) -> tuple[int, list[tuple[int, int]]]:
        """
        |Fact_{k,l}(g)| and its witness pairs; with a permissibility
        predicate (called on the two canonical words) only the pairs it
        accepts are counted.
        """
        pairs = self.fact_table(k, l).get(g_idx, [])
        if permissible is not None:
            pairs = [
                (u, v) for u, v in pairs if permissible(self.words[u], self.words[v])
            ]
        return len(pairs), pairs


# -- relator-substitution closure (independent spot check) -------------------


def relator_closure(
    pres: CoxeterPresentation, word: Word, slack: int | None = None, max_states: int = 2_000_000
) -> set[Word]:
    """
    All words reachable from `word` by replacing one side of a defining
    relation by the other, cancelling adjacent inverse pairs, or inserting
    an inverse pair, keeping the length at most len(word) + slack.
    """
    if slack is None:
        m = pres.max_finite_label()
        slack = 0 if m is INF else m
    cap = len(word) + slack
    relators: list[tuple[Word, Word]] = []
    for i, j in pres.finite_pairs():
        lhs, rhs = pres.relator_sides(i, j)
        relators.append((lhs, rhs))
        relators.append((rhs, lhs))
        inv = (inverse_word(lhs), inverse_word(rhs))
        relators.append(inv)
        relators.append((inv[1], inv[0]))
    letters = [a for g in range(1, pres.n + 1) for a in (g, -g)]
    seen = {word}
    frontier = [word]
    while frontier:
        cur = frontier.pop()
        neighbours: list[Word] = []
        for i in range(len(cur) - 1):
            if cur[i] == -cur[i + 1]:
                neighbours.append(cur[:i] + cur[i + 2 :])
        if len(cur) + 2 <= cap:
            for i in range(len(cur) + 1):
                for a in letters:
                    neighbours.append(cur[:i] + (a, -a) + cur[i:])
        for lhs, rhs in relators:
            L = len(lhs)
            for i in range(len(cur) - L + 1):
                if cur[i : i + L] == lhs:
                    neighbours.append(cur[:i] + rhs + cur[i + L :])
        for nxt in neighbours:
            if len(nxt) <= cap and nxt not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("relator closure exceeded the state budget")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def relator_equal(pres: CoxeterPresentation, w1, w2, slack: int | None = None) -> bool:
    """Bounded relator-substitution equality test (spot-check scale only)."""
    a = parse_word(w1) if isinstance(w1, str) else tuple(w1)
    b = parse_word(w2) if isinstance(w2, str) else tuple(w2)
    return free_reduce(b) in {free_reduce(w) for w in relator_closure(pres, a, slack)}
