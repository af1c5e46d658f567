"""
The tau-calculus on 2-generator subwords.

Fix two generators with finite label m and write Delta for the alternating
product of length m (the Garside element of the dihedral subgroup), and
delta for the letter permutation induced by conjugation by Delta: the
identity when m is even, the name swap when m is odd.

For a freely reduced word w over the pair, p(w) is the length of the longest
positive alternating subword capped at m, and n(w) the negative counterpart.
w is geodesic in the dihedral group iff p(w) + n(w) <= m, and is the unique
geodesic spelling of its element iff p(w) + n(w) < m.

A word with p + n = m is *critical* when it has one of three shapes, where
the displayed alternating blocks are maximal in the word and realise p and n
(xi is the remaining interior):

  (i)   unsigned:  alt_p(x, y) xi alt_n(z', t')   or its mirror image,
  (ii)  positive:  alt_m(x, y) xi  or  xi alt_m(z, t), exactly one
        alternating subword of length m,
  (iii) negative:  the all-inverse mirror of (ii).

The involution tau swaps paired critical words that represent the same group
element; replacing a critical subword by its tau image is a *tau-move*.
Over-critical shapes (p + n > m with the analogous maximality conditions)
admit *length-reducing* tau-moves which shorten the word by 2(p + n - m).

Words that are not shortlex minimal are repaired by *critical sequences*:
chains of tau-moves in which consecutive moved subwords overlap in exactly
one letter.  A rightward chain ends in a free cancellation and shortens the
word; a leftward chain keeps the length and lowers the word
lexicographically.  This module implements the classification and the
moves, one span scanner, `critical_spans_at`, and one iterative depth-first
walker, `critical_chains`, over every chain in either direction; the
rightward, leftward and letter-change searches are short loops over its
states.  The shortlex engine and the
brute-force oracle are both built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .words import (
    Word,
    alt_ending,
    alt_starting,
    free_reduce,
    is_freely_reduced,
    name,
    names,
    runs,
)

# label(b1, b2) -> finite label as int, or None when the pair is unconstrained
LabelFn = Callable[[int, int], Optional[int]]


def pair_label_fn(pres) -> LabelFn:
    """Adapt a CoxeterPresentation to the label callback used here."""
    from .presentation import INF

    def label(n1: int, n2: int) -> Optional[int]:
        m = pres.label(n1, n2)
        return None if m is INF else int(m)

    return label


def delta_letter(a: int, pair: tuple[int, int], m: int) -> int:
    """Conjugation by Delta on a letter of the pair (identity for even m)."""
    i, j = pair
    if name(a) not in (i, j):
        raise ValueError(f"letter {a} does not belong to the pair {pair}")
    if m % 2 == 0:
        return a
    other = j if name(a) == i else i
    return other if a > 0 else -other


def delta_word(w: Word, pair: tuple[int, int], m: int, power: int = 1) -> Word:
    """delta^power applied letterwise; only the parity of power matters."""
    if m % 2 == 0 or power % 2 == 0:
        for a in w:
            if name(a) not in pair:
                raise ValueError(f"letter {a} does not belong to the pair {pair}")
        return w
    return tuple(delta_letter(a, pair, m) for a in w)


def pn_values(w: Word, m: int) -> tuple[int, int]:
    """(p, n) for a freely reduced word over at most two generators."""
    if not is_freely_reduced(w):
        raise ValueError("word must be freely reduced")
    if len(names(w)) > 2:
        raise ValueError("word involves more than two generators")
    p = 0
    n = 0
    for s, e in runs(w):
        if w[s] > 0:
            p = max(p, e - s)
        else:
            n = max(n, e - s)
    return min(m, p), min(m, n)


# ---------------------------------------------------------------------------
# Critical words and tau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalWord:
    """A classified critical word together with the data its tau image needs.

    For the unsigned form, x is the name of the first letter and t the name
    of the last letter (y, z the respective other names); p and n are the
    lengths of the positive and negative boundary blocks.  For signed forms
    the block of length m sits at the start, the end, or is the whole word.
    """

    word: Word
    form: str  # 'unsigned' | 'positive' | 'negative'
    m: int
    pair: tuple[int, int]
    p: int
    n: int
    x: int
    y: int
    z: int
    t: int
    xi: Word
    block_at: str  # 'start' | 'end' | 'whole' (signed forms); 'both' (unsigned)


def classify_critical(w: Word, m: Optional[int]) -> Optional[CriticalWord]:
    """Classify w as a critical word for label m, or return None."""
    if m is None or len(w) < m or not is_freely_reduced(w):
        return None
    nm = sorted(names(w))
    if len(nm) != 2:
        return None
    pair = (nm[0], nm[1])
    rs = runs(w)
    pos_max = max((e - s for s, e in rs if w[s] > 0), default=0)
    neg_max = max((e - s for s, e in rs if w[s] < 0), default=0)

    first_s, first_e = rs[0]
    last_s, last_e = rs[-1]
    first_positive = w[0] > 0
    last_positive = w[-1] > 0

    if pos_max and neg_max:
        # form (i): boundary blocks of opposite signs realising p and n
        if first_positive == last_positive or len(rs) < 2:
            return None
        p = first_e - first_s if first_positive else last_e - last_s
        n = last_e - last_s if first_positive else first_e - first_s
        if p + n != m or p != pos_max or n != neg_max:
            return None
        x = name(w[0])
        t = name(w[-1])
        y = pair[0] if x == pair[1] else pair[1]
        z = pair[0] if t == pair[1] else pair[1]
        xi = w[first_e:last_s]
        return CriticalWord(w, "unsigned", m, pair, p, n, x, y, z, t, xi, "both")

    # signed forms: exactly one alternating subword of length m, located at
    # the start or the end of the word
    run_len = pos_max if pos_max else neg_max
    form = "positive" if pos_max else "negative"
    windows = sum(max(0, (e - s) - m + 1) for s, e in rs)
    if windows != 1 or run_len != m:
        return None
    if first_e - first_s == m:
        block_at = "whole" if len(w) == m else "start"
    elif last_e - last_s == m:
        block_at = "end"
    else:
        return None

    x = name(w[0])
    y = pair[0] if x == pair[1] else pair[1]
    if block_at == "whole":
        return CriticalWord(w, form, m, pair, m, 0, x, y, y, x, (), "whole")
    if block_at == "start":
        xi = w[m:]
        zl = xi[-1]  # z is the name of the last xi letter
        z = name(zl)
        t = pair[0] if z == pair[1] else pair[1]
        return CriticalWord(w, form, m, pair, m, 0, x, y, z, t, xi, "start")
    # block at end
    xi = w[: len(w) - m]
    fd = delta_letter(xi[0], pair, m)
    if m % 2 == 1:
        x = name(fd)
    else:
        x = pair[0] if name(fd) == pair[1] else pair[1]
    y = pair[0] if x == pair[1] else pair[1]
    t = name(w[-1])
    z = pair[0] if t == pair[1] else pair[1]
    return CriticalWord(w, form, m, pair, m, 0, x, y, z, t, xi, "end")


def _swap_image(positive_first, x, y, z, t, xi, p, n, m, pair) -> Word:
    """
    The block swap behind tau on unsigned words and the length-reducing
    moves: alt_p(x,y) xi alt_n(-t,..) -> alt_{m-p}(-y,..) d(xi) alt_{m-n}(..,z)
    and its mirror alt_n(-x,..) xi alt_p(..,t) -> alt_{m-n}(y,..) d(xi)
    alt_{m-p}(..,-z).  At p + n = m this is tau (m - p = n, m - n = p).
    """
    dxi = delta_word(xi, pair, m)
    if positive_first:
        return alt_starting(-y, -x, m - p) + dxi + alt_ending(z, t, m - n)
    return alt_starting(y, x, m - n) + dxi + alt_ending(-z, -t, m - p)


def tau(c: CriticalWord) -> Word:
    """The tau image of a critical word; an involution, element preserving."""
    m = c.m
    if c.form == "unsigned":
        return _swap_image(c.word[0] > 0, c.x, c.y, c.z, c.t, c.xi, c.p, c.n, m, c.pair)

    sgn = 1 if c.form == "positive" else -1
    if c.block_at == "whole":
        return alt_starting(sgn * c.y, sgn * c.x, m)
    if c.block_at == "start":
        # alt_m(x,y) xi -> d(xi) alt_m(..,t) with z the name of xi's last letter
        return delta_word(c.xi, c.pair, m) + alt_ending(sgn * c.t, sgn * c.z, m)
    # xi alt_m(z,t) -> alt_m(x,y) d(xi)
    return alt_starting(sgn * c.x, sgn * c.y, m) + delta_word(c.xi, c.pair, m)


def critical_spans(w: Word, label: LabelFn) -> Iterator[tuple[int, int, CriticalWord]]:
    """All (start, end, classification) of critical subwords of w."""
    for s in range(len(w)):
        yield from critical_spans_at(w, s, label, True)


def critical_spans_at(
    w: Word, pos: int, label: LabelFn, rightward: bool
) -> Iterator[tuple[int, int, CriticalWord]]:
    """
    Critical subwords starting at index pos by increasing end (rightward),
    or ending at index pos, exclusive, by decreasing start (leftward).
    """
    for other in range(pos + 3, len(w) + 1) if rightward else range(pos - 3, -1, -1):
        s, e = (pos, other) if rightward else (other, pos)
        sub = w[s:e]
        nm = names(sub)
        if len(nm) != 2:
            if len(nm) > 2:
                break
            continue
        n1, n2 = sorted(nm)
        c = classify_critical(sub, label(n1, n2))
        if c is not None:
            yield s, e, c


def apply_tau_at(w: Word, s: int, e: int, c: CriticalWord) -> Word:
    return w[:s] + tau(c) + w[e:]


# ---------------------------------------------------------------------------
# Over-critical subwords and length-reducing moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverCriticalMove:
    """A length-reducing move at a located over-critical subword of a host."""

    start: int
    end: int
    p: int
    n: int
    kind: str  # 'unsigned' | 'positive' | 'negative'
    image: Word


def locate_overcritical(w: Word, s: int, e: int, m: int) -> OverCriticalMove:
    """
    Validate that w[s:e] is an over-critical occurrence in w and build its
    length-reducing move.  The boundary blocks are the maximal alternating
    runs at the ends of the subword, capped at m letters; a block of fewer
    than m letters must be a full maximal run of the host word.
    """
    sub = w[s:e]
    if not is_freely_reduced(sub) or len(names(sub)) != 2:
        raise ValueError("subword is not a freely reduced 2-generator word")
    nm = sorted(names(sub))
    pair = (nm[0], nm[1])
    sub_runs = runs(sub)
    if len(sub_runs) < 2 or (sub[0] > 0) == (sub[-1] > 0):
        raise ValueError("subword does not have opposite-sign boundary blocks")
    b1 = min(m, sub_runs[0][1] - sub_runs[0][0])
    b2 = min(m, sub_runs[-1][1] - sub_runs[-1][0])
    p, n = (b1, b2) if sub[0] > 0 else (b2, b1)
    if p + n <= m:
        raise ValueError("subword is not over-critical (p + n <= m)")
    host_runs = runs(w)
    if b1 < m:
        if (s, s + b1) not in host_runs:
            raise ValueError("initial block is not maximal in the host word")
    if b2 < m:
        if (e - b2, e) not in host_runs:
            raise ValueError("final block is not maximal in the host word")
    kind = "positive" if p == m else ("negative" if n == m else "unsigned")
    x, t = name(sub[0]), name(sub[-1])
    y = pair[0] if x == pair[1] else pair[1]
    z = pair[0] if t == pair[1] else pair[1]
    image = _swap_image(sub[0] > 0, x, y, z, t, sub[b1 : len(sub) - b2], p, n, m, pair)
    return OverCriticalMove(s, e, p, n, kind, image)


def find_length_reducing_move(w: Word, m: int) -> Optional[OverCriticalMove]:
    """
    Canonical length-reducing move on a freely reduced 2-generator word with
    p(w) + n(w) > m: pair the leftmost opposite-sign runs whose capped
    lengths exceed m, blocks taken at the facing ends of the two runs.
    """
    rs = runs(w)
    for a in range(len(rs)):
        sa, ea = rs[a]
        la = min(m, ea - sa)
        for b in range(a + 1, len(rs)):
            sb, eb = rs[b]
            if (w[sa] > 0) == (w[sb] > 0):
                continue
            lb = min(m, eb - sb)
            if la + lb <= m:
                continue
            start = ea - la  # last la letters of the left run
            end = sb + lb  # first lb letters of the right run
            return locate_overcritical(w, start, end, m)
    return None


def reduce_2gen(w: Word, m: Optional[int]) -> tuple[Word, list[dict]]:
    """
    Reduce a 2-generator word to a geodesic one, logging every step.
    Free reduction entries have kind 'free'; tau entries carry the move kind.
    """
    log: list[dict] = []
    cur = w
    if not is_freely_reduced(cur):
        cur = free_reduce(cur)
        log.append({"kind": "free", "result_len": len(cur)})
    if m is None:
        return cur, log
    while True:
        p, n = pn_values(cur, m)
        if p + n <= m:
            return cur, log
        move = find_length_reducing_move(cur, m)
        if move is None:
            raise RuntimeError(f"non-geodesic word admits no move: {cur}")
        cur = cur[: move.start] + move.image + cur[move.end :]
        log.append(
            {
                "kind": move.kind,
                "span": (move.start, move.end),
                "p": move.p,
                "n": move.n,
                "result_len": len(cur),
            }
        )
        if not is_freely_reduced(cur):
            cur = free_reduce(cur)
            log.append({"kind": "free", "result_len": len(cur)})


# ---------------------------------------------------------------------------
# Critical sequences (chains of tau-moves overlapping in one letter)
# ---------------------------------------------------------------------------


def _image_cancels(word: Word, span: tuple[int, int]) -> bool:
    """Whether the tau image at span cancels a neighbour; images are reduced, so only ends can."""
    s, e = span
    return (s > 0 and word[s - 1] == -word[s]) or (e < len(word) and word[e - 1] == -word[e])


def critical_chains(
    w: Word, label: LabelFn, rightward: bool
) -> Iterator[tuple[Word, tuple[tuple[int, int], ...]]]:
    """
    Walk every critical sequence on the freely reduced word w depth first,
    yielding (word, moves) after each tau-move, where moves are the spans
    moved so far.  The first move is at any critical span of w; each later
    one starts at the last letter of the previous image (rightward) or ends
    at its first letter (leftward).  A word that is not freely reduced ends
    its chain, and a (word, overlap) state is continued only the first time
    it is reached.
    """
    seen: set[tuple[Word, int]] = set()
    stack = [(w, (), critical_spans(w, label))]
    while stack:
        cur, moves, spans = stack[-1]
        for s, e, c in spans:
            nxt = apply_tau_at(cur, s, e, c)
            trail = moves + ((s, e),)
            yield nxt, trail
            pos = e - 1 if rightward else s + 1
            if not _image_cancels(nxt, (s, e)) and (nxt, pos) not in seen:
                seen.add((nxt, pos))
                stack.append((nxt, trail, critical_spans_at(nxt, pos, label, rightward)))
                break
        else:
            stack.pop()


def rightward_length_reduction(w: Word, label: LabelFn) -> Optional[Word]:
    """
    Search for a rightward length-reducing sequence on the freely reduced
    word w: tau-moves chained so that each subsequent critical subword starts
    at the last letter of the previous image, finished by a free cancellation.
    Returns the freely reduced result (2 letters shorter), or None.
    """
    for word, moves in critical_chains(w, label, rightward=True):
        if _image_cancels(word, moves[-1]):
            return free_reduce(word)
    return None


def leftward_lex_reduction(w: Word, label: LabelFn, key) -> Optional[Word]:
    """
    Search leftward chains (each subsequent critical subword ends at the
    first letter of the previous image) for a lexicographically smaller word
    of the same length.  Returns the best word found over all chain states,
    or a strictly shorter word if a chain state admits free reduction.
    """
    best, bkey = w, key(w)
    for word, moves in critical_chains(w, label, rightward=False):
        if _image_cancels(word, moves[-1]):
            return free_reduce(word)
        wk = key(word)
        if wk < bkey:
            best, bkey = word, wk
    return best if best != w else None


def rightward_letter_change(w: Word, label: LabelFn, target: int) -> Optional[Word]:
    """
    Search rightward chains (without the final cancellation) for a word of
    the same length ending in the letter `target`.  Used to check that two
    geodesic spellings with different last letters are linked by a single
    rightward critical sequence.
    """
    for word, moves in critical_chains(w, label, rightward=True):
        if word[-1] == target and not _image_cancels(word, moves[-1]):
            return word
    return None


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
