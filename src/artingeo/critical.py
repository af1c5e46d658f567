"""
The tau-calculus on 2-generator subwords and the critical-sequence searches
the shortlex engine and the brute-force oracle share; the dihedral move
calculus (the geodesic criterion, over-critical moves, reduction) is
:mod:`artingeo.dihedral`'s.

Fix two generators with finite label m and write Delta for the alternating
product of length m (the Garside element of the dihedral subgroup), and
delta for the letter permutation induced by conjugation by Delta: the
identity when m is even, the name swap when m is odd.

For a freely reduced word w over the pair, p(w) is the length of the longest
positive alternating subword capped at m, and n(w) the negative counterpart.
A word with p + n = m is *critical* when it has the form B1 xi B2: B1 and B2
are alternating boundary blocks of opposite signs, of head and tail letters
with head + tail = m, maximal in the word and realising p and n, and xi is
the interior.  A signed critical word is the case in which one block is
empty: its letters share a sign and its one alternating subword of length m
starts or ends it.  The involution tau swaps the two blocks for blocks of
tail and head letters of the opposite signs around delta(xi); the two words
represent the same element, and replacing a critical subword by its tau
image is a *tau-move*.  The critical subwords of a word are found by one
scanner, anchored at an end index and walking the runs leftward.

Words that are not shortlex minimal are repaired by *critical sequences*:
chains of tau-moves in which consecutive moved subwords overlap in exactly
one letter.  A rightward chain ends in a free cancellation and shortens the
word; a leftward chain keeps the length and lowers the word
lexicographically.  By Holt and Rees (Proc. LMS 2012), for a
shortlex-minimal z and a letter a, the one sequence that repairs z a
touches a: a rightward one ends with an image ending in a^-1 before a,
a leftward one starts with a subword ending at a.  The searches start
there (so w[:-1] must be shortlex-minimal) and keep (span, image) moves,
not words.  The shortlex engine and the brute-force oracle build on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .presentation import INF, MatrixEntry
from .words import (
    Word,
    alt_ending,
    alt_starting,
    free_reduce,
    is_freely_reduced,
    names,
    runs,
)

# label(b1, b2) -> the pair's label, an int or INF (unconstrained): CoxeterPresentation.label
LabelFn = Callable[[int, int], MatrixEntry]


def delta_letter(a: int, pair: tuple[int, int], m: int) -> int:
    """Conjugation by Delta on a letter of the pair (identity for even m)."""
    i, j = pair
    if abs(a) not in (i, j):
        raise ValueError(f"letter {a} does not belong to the pair {pair}")
    if m % 2 == 0:
        return a
    other = j if abs(a) == i else i
    return other if a > 0 else -other


def delta_word(w: Word, pair: tuple[int, int], m: int, power: int = 1) -> Word:
    """delta^power applied letterwise; only the parity of power matters."""
    if m % 2 == 0 or power % 2 == 0:
        for a in w:
            if abs(a) not in pair:
                raise ValueError(f"letter {a} does not belong to the pair {pair}")
        return w
    return tuple(delta_letter(a, pair, m) for a in w)


# ---------------------------------------------------------------------------
# Critical words and tau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalWord:
    """A critical word B1 xi B2 for label m: head and tail are the lengths of
    the boundary blocks B1 and B2, head + tail = m (0 for the empty block of
    a signed word)."""

    word: Word
    m: int
    pair: tuple[int, int]
    head: int
    tail: int


def classify_critical(w: Word, m: MatrixEntry) -> Optional[CriticalWord]:
    """Classify w as a critical word for label m, or return None (always for INF)."""
    if len(w) < m or not is_freely_reduced(w):
        return None
    nm = sorted(names(w))
    if len(nm) != 2:
        return None
    rs = runs(w)
    pos_max = max((e - s for s, e in rs if w[s] > 0), default=0)
    neg_max = max((e - s for s, e in rs if w[s] < 0), default=0)
    head, tail = rs[0][1] - rs[0][0], rs[-1][1] - rs[-1][0]
    pair = (nm[0], nm[1])
    if pos_max and neg_max:
        # unsigned: boundary blocks of opposite signs realising p and n
        p, n = (head, tail) if w[0] > 0 else (tail, head)
        if (w[0] > 0) == (w[-1] > 0) or p + n != m or p != pos_max or n != neg_max:
            return None
        return CriticalWord(w, m, pair, head, tail)
    # signed: exactly one alternating subword of length m, at the start or the end
    windows = sum(max(0, e - s - m + 1) for s, e in rs)
    if windows != 1 or max(pos_max, neg_max) != m or m not in (head, tail):
        return None
    return CriticalWord(w, m, pair, *((m, 0) if head == m else (0, m)))


def block_swap(w: Word, head: int, tail: int, m: int, pair: tuple[int, int]) -> Word:
    """
    Swap the boundary blocks of w = B1 xi B2, of head and tail letters, for
    B1' delta(xi) B2': B1' has m - head letters, the sign opposite to B1 and
    starts with the name w does not start with; B2' has m - tail letters,
    the sign opposite to B2 and ends with the name w does not end with.  An
    empty B1 takes the sign opposite to B2.  With head + tail = m this is
    tau; on an over-critical word it is the length-reducing move of
    :mod:`artingeo.dihedral`.
    """
    x, t = abs(w[0]), abs(w[-1])
    y, z = pair[0] + pair[1] - x, pair[0] + pair[1] - t
    sgn = -1 if (w[0] > 0 if head else w[-1] < 0) else 1
    dxi = delta_word(w[head : len(w) - tail], pair, m)
    return (
        alt_starting(sgn * y, sgn * x, m - head) + dxi + alt_ending(-sgn * z, -sgn * t, m - tail)
    )


def tau(c: CriticalWord) -> Word:
    """The tau image of a critical word; an involution, element preserving."""
    return block_swap(c.word, c.head, c.tail, c.m, c.pair)


def critical_spans(w: Word, label: LabelFn) -> Iterator[tuple[int, int, CriticalWord]]:
    """All (start, end, classification) of critical subwords of w, by decreasing end."""
    for e in range(len(w), 2, -1):
        yield from critical_spans_at(w, e, label)


def critical_spans_at(
    w: Word, pos: int, label: LabelFn, last: Optional[int] = None
) -> Iterator[tuple[int, int, CriticalWord]]:
    """
    Critical subwords ending at index pos, exclusive, by decreasing start,
    read off the runs of w; with a letter last, the critical x w[s+1:pos],
    x any letter of the pair, whose tau image ends in last.
    """
    e, k = pos, pos - 2
    while k >= 0 and abs(w[k]) == abs(w[e - 1]):
        k -= 1
    m = label(abs(w[k]), abs(w[e - 1])) if k >= 0 else INF
    if m is INF:
        return  # a single name, or an unconstrained pair
    other, sign = abs(w[k]), w[e - 1] > 0
    i, j = sorted((other, abs(w[e - 1])))
    # critical: boundary blocks are whole runs <= m, interior runs <= their sign's block
    same = opp = 0  # longest interior run signed like w[e - 1], and not
    hs, ts = e, None  # end of the first run of w[r:e], start of its last run
    for r in range(e - 1, 0, -1):
        a, b = w[r], w[r + 1] if r + 1 < e else 0
        if abs(a) != i and abs(a) != j:
            return
        if b and ((a > 0) != (b > 0) or abs(a) == abs(b)):
            if ts is None:
                ts = r + 1
            elif (b > 0) == sign:
                same = max(same, hs - r - 1)
            else:
                opp = max(opp, hs - r - 1)
            hs = r + 1
        end = e - (r if ts is None else ts)  # length of the last block
        if end > m or max(same, opp) >= m or (opp and (same > end or opp > m - end)):
            return
        s = r - 1
        for x in (w[s],) if last is None else (i, -i, j, -j):
            if x == -a or abs(x) not in (i, j):
                continue
            joins = (x > 0) == (a > 0) and x != a
            first = hs - s if joins else 1
            head = 0 if joins or ts is None else hs - r  # the first run turns interior
            same_x, opp_x = (max(same, head), opp) if (a > 0) == sign else (same, max(opp, head))
            # test inline, classify_critical only confirms: calling it on each candidate is 2.9x slower
            if ts is None and first > 1:
                ok = e - s == m
            elif (x > 0) != sign:
                ok = first + end == m and same_x <= end and opp_x <= first
            else:
                ok = not opp_x and same_x < m >= first and (first == m) != (end == m)
            if ok and last is not None:
                # tau ends in the other name signed like x or, when the
                # m-block ends the word, in delta of the letter before it
                if (x > 0) == sign and end == m:
                    ok = last == delta_letter(w[e - m - 1] if e - m - 1 > s else x, (i, j), m)
                else:
                    ok = last == (other if x > 0 else -other)
            if ok:
                c = classify_critical((x,) + w[r:e], m)
                if c is not None:
                    yield s, e, c


def apply_tau_at(w: Word, s: int, e: int, c: CriticalWord) -> Word:
    return w[:s] + tau(c) + w[e:]


# ---------------------------------------------------------------------------
# Critical sequences (chains of tau-moves overlapping in one letter)
# ---------------------------------------------------------------------------


def rightward_moves(w: Word, label: LabelFn, end: int, last: int):
    """
    The moves (s, e, image) of a rightward critical sequence on w whose last
    image ends at index end in the letter last, or None.  The search runs
    back from that goal over states (s, x), each entered once: x w[s+1:e]
    moves, x being w[s] (a start) or the end of an image ending at s + 1.
    """
    seen = set()
    stack = [(critical_spans_at(w, end, label, last), None)]  # (spans, move)
    while stack:
        for s, e, c in stack[-1][0]:
            x = c.word[0]
            if (s, x) in seen:
                continue
            if x == w[s]:
                return [(s, e, tau(c))] + [move for _, move in reversed(stack[1:])]
            seen.add((s, x))
            stack.append((critical_spans_at(w, s + 1, label, x), (s, e, tau(c))))
            break
        else:
            stack.pop()
    return None


def _apply_moves(w: Word, moves) -> Optional[Word]:
    out = None if moves is None else list(w)
    for s, e, image in moves or ():
        out[s:e] = image
    return None if out is None else tuple(out)


def rightward_length_reduction(w: Word, label: LabelFn) -> Optional[Word]:
    """w = z a freely reduced after the rightward sequence on z ending in a^-1, or None."""
    moved = _apply_moves(w, rightward_moves(w, label, len(w) - 1, -w[-1])) if w else None
    return None if moved is None else free_reduce(moved)


def leftward_states(w: Word, label: LabelFn, key) -> dict:
    """
    The states (s, x) -> (image at s, previous state) of the leftward
    sequences on the geodesic w whose first subword ends at its end; x is
    the image's first letter.  What follows x never bears on later moves, so
    states settle by decreasing s, each keeping its key-least suffix.
    """
    states: dict = {}
    heap: list = []  # (-s, x) of the states still to expand
    spans, prev, tail = critical_spans_at(w, len(w), label), None, ()
    while True:
        for s, e, c in spans:
            image = tau(c)
            state = (s, image[0])
            if state not in states:
                heapq.heappush(heap, (-s, image[0]))
            elif key(state_suffix(states, state)[1:]) <= key(image[1:] + tail):
                continue
            states[state] = (image, prev)
        if not heap:
            return states
        neg, x = heapq.heappop(heap)
        prev = (-neg, x)
        tail = state_suffix(states, prev)[1:]
        spans = critical_spans_at(w[:-neg] + (x,), 1 - neg, label)


def state_suffix(states: dict, state) -> Word:
    """The word of a leftward state from its position on."""
    image, state = states[state]
    out = list(image)
    while state is not None:
        image, state = states[state]
        out.extend(image[1:])
    return tuple(out)


def leftward_lex_reduction(w: Word, label: LabelFn, key) -> Optional[Word]:
    """The key-least leftward state of w = z a if below w; by Holt-Rees, the normal form."""
    states = leftward_states(w, label, key)  # a state's word first differs from w at s
    better = [(s, key((x,)), x) for s, x in states if key((x,)) < key(w[s : s + 1])]
    if not better:
        return None
    s, _, x = min(better)
    return w[:s] + state_suffix(states, (s, x))


def tau_closure(w: Word, label: LabelFn) -> frozenset[Word]:
    """
    All words reachable from the geodesic word w by tau-moves.  On geodesic
    input this is the full set of geodesic spellings of the element.
    """
    seen = {w}
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        for s, e, c in critical_spans(cur, label):
            nxt = apply_tau_at(cur, s, e, c)
            if not is_freely_reduced(nxt):
                raise RuntimeError(
                    "tau-move broke free reduction on a geodesic word"
                )
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
