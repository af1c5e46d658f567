"""
Shortlex normal forms for Artin groups of large type.

The engine keeps every prefix in shortlex-minimal form while consuming a
word letter by letter.  Appending a letter to a minimal word either cancels
freely, stays minimal, admits one rightward length-reducing sequence (the
word was not geodesic), or admits one leftward lex-reducing sequence (the
word was geodesic but not lex-least).  By the lemma of Holt and Rees
(Proc. LMS 2012) that sequence touches the appended letter, so the searches
of :mod:`artingeo.critical` start at the end of the word; they require what
`append` guarantees, a shortlex-minimal word minus its last letter.  A
length repair is renormalised from its first changed letter; a lex repair
is the normal form.  Tests certify the searches against the oracle.

Group elements are identified with their normal-form words, so element
equality is word equality and all higher layers (divisors, factorisation
counting, merging, harmonic analysis) reduce to word bookkeeping plus the
append cache, which doubles as the Cayley automaton of the group.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .critical import (
    LabelFn,
    leftward_lex_reduction,
    rightward_length_reduction,
    tau_closure,
)
from .presentation import CoxeterPresentation
from .words import Word, format_word, inverse_word, parse_word, sign_class, syllable_count

LetterOrder = tuple[int, ...]

# `append` keeps rows only for z of at most ROW_CAP letters: balls and merges
# revisit short words, but a repair resumes at its first change, so rows for
# a long word's prefixes are seldom read and would hold O(L^2) letters.  A
# smaller cap costs searches on signed 400-letter da3 words.
ROW_CAP = 256


def memo(key: Callable[..., Hashable]):
    """
    Per-instance, unbounded method cache: method(self, *args) is kept under
    key(*args) in self._<method>_memo.  Positional arguments only; errors are
    not cached and None marks a miss.  Keys are words and ints, never
    GroupElements: those hash in Python, and held by an engine cache they
    would make the engine refer to itself, alive until the cyclic GC runs.
    """

    def wrap(method):
        slot = f"_{method.__name__}_memo"

        @functools.wraps(method)
        def cached(self, *args):
            table = self.__dict__.get(slot)
            if table is None:
                table = self.__dict__[slot] = {}
            k = key(*args)
            hit = table.get(k)
            if hit is None:
                hit = table[k] = method(self, *args)
            return hit

        return cached

    return wrap


def default_order(n: int) -> LetterOrder:
    """x1 < x1^-1 < x2 < x2^-1 < ... on the 2n letters."""
    out: list[int] = []
    for g in range(1, n + 1):
        out.extend((g, -g))
    return tuple(out)


def pair_first_order(n: int, i: int, j: int) -> LetterOrder:
    """Letter order placing the letters of names i and j first."""
    head = (i, -i, j, -j)
    tail = tuple(a for a in default_order(n) if abs(a) not in (i, j))
    return head + tail


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element certified by its shortlex normal form under a fixed order."""

    engine: "ShortlexEngine"
    word: Word

    def __len__(self) -> int:
        return len(self.word)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.engine, self.engine.nf(other.word, self.word))

    def inv(self) -> "GroupElement":
        return self.engine.invert(self)

    @property
    def sign(self) -> str:
        return sign_class(self.word)

    def __repr__(self) -> str:
        return f"<{format_word(self.word) or '1'}>"


class ShortlexEngine:
    """Normal forms, lengths and element arithmetic for one presentation."""

    def __init__(self, pres: CoxeterPresentation, order: LetterOrder | None = None):
        if not pres.is_large():
            raise ValueError("engine requires a presentation of large type")
        self.pres = pres
        self.order: LetterOrder = tuple(order) if order else default_order(pres.n)
        if sorted(self.order) != sorted(default_order(pres.n)):
            raise ValueError("order must be a permutation of the 2n letters")
        self._rank = {a: r for r, a in enumerate(self.order)}
        self.label: LabelFn = pres.label
        self._append: dict[Word, dict[int, Word]] = {}  # z -> {a: nf(z a)}; not @memo: repair fills it
        self._inv: dict[Word, Word] = {}  # not @memo: one miss stores both directions
        self._reordered: dict[tuple[int, int], "ShortlexEngine | None"] = {}  # not @memo: None for self

    # -- words ----------------------------------------------------------

    def lex_key(self, w: Word):
        return tuple(self._rank[a] for a in w)

    def append(self, z: Word, a: int) -> Word:
        """Normal form of z*a for z already in normal form."""
        # hashes z once, hit or miss; a longer z gets a row that is not kept
        row = self._append.setdefault(z, {}) if len(z) <= ROW_CAP else {}
        hit = row.get(a)
        if hit is not None:
            return hit
        if a == 0 or abs(a) > self.pres.n:
            raise ValueError(f"generator index out of range: letter {a}")
        if z and z[-1] == -a:
            res = z[:-1]
        else:
            res = self._repair(z + (a,))
        row[a] = res
        return res

    def _repair(self, w: Word) -> Word:
        red = rightward_length_reduction(w, self.label)
        if red is not None:
            # |red| = |w| - 2, so its first change p < |w| - 1 and w[:p] is normal
            p = next((i for i, (a, b) in enumerate(zip(red, w)) if a != b), len(red))
            return self.nf(red[p:], w[:p])
        return leftward_lex_reduction(w, self.label, self.lex_key) or w

    def nf(self, word: Iterable[int] | str, z: Word = ()) -> Word:
        """Shortlex normal form of z*word, for z already in normal form."""
        if isinstance(word, str):
            word = parse_word(word)
        for a in word:
            z = self.append(z, a)
        return z

    def is_geodesic(self, word: Iterable[int] | str) -> bool:
        w = parse_word(word) if isinstance(word, str) else tuple(word)
        return len(self.nf(w)) == len(w)

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        # not stored: a self-referring engine outlives its last user until the cyclic GC runs
        return GroupElement(self, ())

    def element(self, word: Iterable[int] | str) -> GroupElement:
        return GroupElement(self, self.nf(word))

    def invert(self, g: GroupElement) -> GroupElement:
        hit = self._inv.get(g.word)
        if hit is None:
            hit = self.nf(inverse_word(g.word))
            self._inv[g.word] = hit
            self._inv[hit] = g.word
        return GroupElement(self, hit)

    def strip_power(self, g: GroupElement, x: GroupElement, left: bool = False) -> int:
        """
        Largest s with |g x^s| = |g| - s|x|, or |x^s g| = |g| - s|x| when
        left: the top power of x^-1 dividing g on that side.
        """
        if not x.word:
            raise ValueError("strip_power needs a nontrivial element")
        s = 0
        while True:
            nxt = x * g if left else g * x
            if len(nxt) != len(g) - len(x):
                return s
            g, s = nxt, s + 1

    # -- geodesic representatives ------------------------------------------

    @memo(lambda g: g.word)
    def geodesic_words(self, g: GroupElement) -> frozenset[Word]:
        """All geodesic spellings of g (tau-move closure of the normal form)."""
        return tau_closure(g.word, self.label)

    @memo(lambda g: g.word)
    def has_two_syllable_spelling(self, g: GroupElement) -> bool:
        """Whether some geodesic spelling of g has at most two syllables."""
        return any(syllable_count(w) <= 2 for w in self.geodesic_words(g))

    @memo(lambda g, j: (g.word, j))
    def right_divisor_words(self, g: GroupElement, j: int) -> tuple[Word, ...]:
        """Shortlex-sorted normal forms of the length-j right divisors of g; () unless 0 <= j <= |g|."""
        if not 0 <= j <= len(g.word):
            return ()
        seen = {self.nf(w[len(w) - j :]) for w in self.geodesic_words(g)}
        return tuple(sorted(seen, key=self.lex_key))

    @memo(lambda g: g.word)
    def left_divisor_words(self, g: GroupElement) -> frozenset[Word]:
        """
        Normal forms of the geodesic left divisors of g, every length: x
        is one exactly when |x^-1 g| = |g| - |x| (prefixes of geodesics).
        """
        heads = {()}
        for w in self.geodesic_words(g):
            z: Word = ()
            for a in w:
                z = self.append(z, a)
                heads.add(z)
        return frozenset(heads)

    def final_letters(self, g: GroupElement) -> set[int]:
        """Last letters over all geodesic spellings, via length queries."""
        if not g.word:
            raise ValueError("the identity has no final letters")
        L = len(g.word)
        return {a for a in default_order(self.pres.n) if len(self.append(g.word, -a)) == L - 1}

    def initial_letters(self, g: GroupElement) -> set[int]:
        return {-a for a in self.final_letters(self.invert(g))}

    # -- reordered engines ---------------------------------------------------

    def reordered(self, i: int, j: int) -> "ShortlexEngine":
        """Engine whose shortlex order lists names i, j first (self if this one does)."""
        key = (i, j)
        if key not in self._reordered:
            order = pair_first_order(self.pres.n, i, j)
            # None stands for self, for the reason given at `identity`
            self._reordered[key] = None if order == self.order else ShortlexEngine(self.pres, order)
        return self._reordered[key] or self


class BallBudgetError(RuntimeError):
    """Raised when enumeration exceeds its element budget; carries the
    largest fully enumerated radius and its ball."""

    def __init__(self, partial: "CayleyBall", complete_radius: int):
        super().__init__(
            f"ball budget exceeded; complete up to radius {complete_radius}"
        )
        self.partial = partial
        self.complete_radius = complete_radius


class CayleyBall:
    """
    Breadth-first enumeration of the ball of a given radius, with the
    right-multiplication adjacency table (the Cayley automaton restricted to
    the ball).  Elements are integer ids in breadth-first order.

    The table holds no engine: it is built from a function append(z, a)
    returning the normal form of z*a, and two words name the same element
    exactly when append produced the same word.  Products u * v with
    |u| + |v| <= radius are table walks that never leave the ball.

    append must return a geodesic word, and every relation must have sides
    of equal length (true of Artin groups); then length mod 2 is a
    homomorphism and |u a| = |u| +- 1.  So append is called only on the
    outward cells (|u| < radius, |u a| = |u| + 1): each one also fills the
    inward cell (u a, a^-1) = u, and a cell of the last sphere that no
    inward product filled is -1.
    """

    def __init__(
        self,
        append: Callable[[Word, int], Word],
        n: int,
        radius: int,
        max_elements: int | None = None,
    ):
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        letters = default_order(n)
        inv_col = [letters.index(-a) for a in letters]
        words: list[Word] = [()]
        index: dict[Word, int] = {(): 0}
        # a row is made with its word; -1 marks a cell not yet decided
        adj: list[list[int]] = [[-1] * len(letters)]
        start, depth = 0, 0
        while start < len(words):  # ids start..end-1 are the sphere S_depth
            end = len(words)
            for v in range(start, end) if depth < radius else ():
                w, row = words[v], adj[v]
                for c, a in enumerate(letters):
                    if row[c] >= 0:  # inward: recorded by the row of w*a
                        continue
                    res = append(w, a)  # outward, in S_{depth+1}
                    u = index.get(res)
                    if u is None:
                        u = index[res] = len(words)
                        words.append(res)
                        adj.append([-1] * len(letters))
                    row[c] = u
                    adj[u][inv_col[c]] = v
            if max_elements is not None and len(words) > max_elements:
                # keep the complete ball of radius `depth`: every row built
                # so far, with the cells reaching the next sphere cut to -1
                adj = [[i if i < end else -1 for i in row] for row in adj[:end]]
                self._adopt(n, depth, words[:end], adj)
                raise BallBudgetError(self, depth)
            start = end
            depth += 1
        # rows were made in BFS order, which matches the words order
        self._adopt(n, radius, words, adj, index)

    def _adopt(self, n: int, radius: int, words: list[Word], adj: list[list[int]], index=None):
        """Install a table: the words in id order, one adjacency row per word
        (columns in default letter order) and, unless given, the word index."""
        self.radius = radius
        self.letters = default_order(n)
        self._letter_col = {a: c for c, a in enumerate(self.letters)}
        self.words = words
        self.index = index if index is not None else {w: i for i, w in enumerate(words)}
        self.adj = adj
        self.length = [len(w) for w in words]
        self._spheres: dict[int, list[int]] = {}
        for idx, L in enumerate(self.length):
            self._spheres.setdefault(L, []).append(idx)

    def __len__(self) -> int:
        return len(self.words)

    def sphere(self, k: int) -> list[int]:
        return self._spheres.get(k, [])

    def sphere_sizes(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self._spheres.items())}

    def step(self, idx: int, a: int) -> int:
        return self.adj[idx][self._letter_col[a]]

    def walk(self, idx: int, word: Word) -> int:
        """Right-multiply element idx by word; -1 if the walk leaves the ball."""
        for a in word:
            idx = self.adj[idx][self._letter_col[a]]
            if idx < 0:
                return -1
        return idx

    def products(self, us: Sequence[int], vs: Sequence[int]) -> list[int]:
        """
        Ids of u * v for u in us and v in vs, row-major (each u in turn,
        then each v).  Raises ValueError unless max|u| + max|v| <= radius,
        so every product lies in the ball.
        """
        if not us or not vs:
            return []
        length = self.length
        if max(length[u] for u in us) + max(length[v] for v in vs) > self.radius:
            raise ValueError(f"products u * v leave the ball of radius {self.radius}")
        adj = self.adj
        cols = [[self._letter_col[a] for a in self.words[v]] for v in vs]
        out: list[int] = []
        for u in us:
            for path in cols:
                g = u
                for c in path:
                    g = adj[g][c]
                out.append(g)
        return out

    @memo(lambda k, l: (k, l))
    def fact_table(self, k: int, l: int) -> dict[int, list[tuple[int, int]]]:
        """
        Fact_{k,l} buckets: g -> [(u, v)] with u in C_k, v in C_l and uv = g,
        each g's pairs in row-major order.  Ids are breadth-first, so every
        ball of radius >= k + l gives the same table.
        """
        if k + l > self.radius:
            raise ValueError("fact_table requires k + l <= radius")
        us, vs = self.sphere(k), self.sphere(l)
        table: dict[int, list[tuple[int, int]]] = {}
        for pair, g in zip(itertools.product(us, vs), self.products(us, vs)):
            table.setdefault(g, []).append(pair)
        return table


class ElementBall(CayleyBall):
    """The ball enumerated by the shortlex engine's append."""

    def __init__(self, engine: ShortlexEngine, radius: int):
        self.engine = engine
        super().__init__(engine.append, engine.pres.n, radius)

    def element(self, idx: int) -> GroupElement:
        return GroupElement(self.engine, self.words[idx])
