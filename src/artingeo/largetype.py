"""
Multi-generator machinery for Artin groups of large type.

For a pair of generators i, j write G(i,j) for the subgroup they generate,
a dihedral Artin group on the label m_ij.  Every element g has a unique
longest left divisor LD_ij(g) in G(i,j) and a unique longest right divisor
RD_ij(g); LD_ij(g) = g for g in G(i,j), and otherwise LD is the maximal
{i,j}-prefix of the normal form under a letter order listing names i and j
first, RD_ij(g) = LD_ij(g^-1)^-1.  G(i,j) is reached through
dihedral_ctx(i, j), a lookup in the table of contexts the group builds once
(finite labels first): parabolic subgroups are convex, so the dihedral
calculus runs on this group's own engine and letters, with no renaming.
dihedral_ctx takes the pair in either order and is the one check of a pair:
it raises ValueError when i = j or a generator is not one of 1..n.

A geodesic factorisation (g1, g2) is *permissible* when the dihedral pair
(RD_ij(g1), LD_ij(g2)) is permissible in G(i,j) for every pair i < j: a
function of the facing divisors, computed once per element (facing).

Merging strips material from the facing ends of a pair (g1, g2), one move
at a time, and carries the state (f1, h1, f2, h2) with g1 = f1 h1 and
g2 = h2 f2, starting from (g1, 1, g2, 1).  A move strips h from f1 and h'
from f2, giving (f1 h^-1, h h1, h'^-1 f2, h2 h'), and applies only while
both (f1, h1) and (h2, f2) stay permissible factorisations:

  (i)   cancellation:      h * delta^r(h') = 1,
  (ii)  double Delta:      h = h' = Delta_ij^e, r increases by 2e,
  (iii) Delta extraction:  h * delta^r(h') = Delta_ij^e, r increases by e,

preferring lower move numbers, then longer h, then shortlex-smaller h.
Stripping h' needs |h'^-1 f2| = |f2| - |h'|: h' must be a geodesic left
divisor of f2, read from the memoised set engine.left_divisor_words(f2)
before any product is formed, and in (iii) the exponent sums of the G(i,j)
heads fix exp(h) before h^-1 Delta^e is formed, so the move order is unchanged.
While the accumulated middle power Delta_ij^r is nonzero all moves must
take h, h' inside the active G(i,j), whose context the merge carries from
move to move; when r = 0 there is no active context, cancellation is
unrestricted and a Delta move fixes a new active pair (the lexicographically
least pair admitting one; only finite labels can).  When no move applies
the triple (f1, Delta_ij^r, f2) is a merger: h1 h2 = Delta_ij^r and both
side factorisations are permissible.  The dihedral group DA(m) is the n = 2 case,
ArtinGroup(CoxeterPresentation.dihedral(m)), with the one pair (1, 2) and the
bounds |r| <= min(k, l) and |h1|, |h2| <= (m-1) min(k, l);
dihedral_ctx(1, 2).compress turns its mergers back into geodesic words.

Mergers of all length-(k,l) decompositions of g form the set S(g,k,l); T(k,l)
collects the middle powers.  The decompositions Fact_{k,l}(g) are read off the
fact_table(k, l) of the ball of radius k + l, the table the D2 scan walks and
the oracle ball counts with.  S splits into S0 (r = 0 with both sides powers
of one generator) and, via the reduction-to-two-generators construction on
the context of the merger's pair (for r = 0, the least pair whose facing
divisors use both names), S1 (the extracted f1'' fhat f2'' factorisation is
geodesic) and S2 (it is not, in which case fhat = a^s b^t and a crossing
letter c with balanced powers c^q / c^-q can be extracted).  The
decomposition validates every structural claim it relies on and reports
violations as events instead of hiding them.

Operations marked as requiring the no-(3,3,m)-triangle hypothesis refuse
presentations without it unless the context was built with
allow_counterexample=True, which is how the known failure of the
unique-tail property is reproduced.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from .dihedral import DihedralContext
from .presentation import CoxeterPresentation, INF
from .shortlex import ElementBall, GroupElement, ShortlexEngine, default_order, memo
from .words import Word, exponent_sum, names, syllable_count


def _pair_prefix(w: Word, i: int, j: int) -> Word:
    """The maximal prefix of w spelled in the letters of names i and j."""
    cut = 0
    while cut < len(w) and abs(w[cut]) in (i, j):
        cut += 1
    return w[:cut]


class HypothesisError(ValueError):
    """The operation needs the no-(3,3,m)-triangle hypothesis."""


class OnetailFailure(ValueError):
    """More than one tail letter arose where a unique one was required."""

    def __init__(self, message, letters):
        super().__init__(message)
        self.letters = letters


@dataclass(frozen=True)
class MergeStep:
    kind: str  # 'cancel' | 'double-delta' | 'delta-extract'
    h: Word
    h_prime: Word
    r_after: int


@dataclass(frozen=True)
class MergerTriple:
    """(f1, Delta_pair^r, f2) produced by merging (g1, g2)."""

    f1: GroupElement
    pair: Optional[tuple[int, int]]  # meaningful iff r != 0
    r: int
    f2: GroupElement
    h1: GroupElement
    h2: GroupElement
    trace: tuple[MergeStep, ...]

    def key(self):
        return (self.f1.word, self.pair, self.r, self.f2.word)


@dataclass
class STResult:
    triples: dict  # key -> MergerTriple
    middles: set[Word]  # normal forms of the middle elements
    max_r: int
    max_h: int

    @property
    def size(self) -> int:
        return len(self.triples)


@dataclass
class SWitness:
    triple: MergerTriple
    bucket: str  # 'S0' | 'S1' | 'S2'
    pair: Optional[tuple[int, int]] = None
    f1pp: Optional[GroupElement] = None
    fhat: Optional[GroupElement] = None
    f2pp: Optional[GroupElement] = None
    s2_witness: Optional[dict] = None  # {'c': letter, 'q': int, 'e1': .., 'e2': ..}


@dataclass
class SDecomposition:
    s0: list[SWitness] = field(default_factory=list)
    s1: list[SWitness] = field(default_factory=list)
    s2: list[SWitness] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    def all(self):
        return self.s0 + self.s1 + self.s2


class ArtinGroup:
    """A large-type Artin group with its shortlex engine and divisor calculus."""

    def __init__(self, pres: CoxeterPresentation, allow_counterexample: bool = False):
        self.pres = pres
        self.engine = ShortlexEngine(pres)
        self.allow_counterexample = allow_counterexample
        self._has_33m = pres.satisfies_33m()  # decided once: merge asks on every call
        # one G(i,j) context per pair, finite labels first, each part in lexicographic order
        self._contexts = {
            p: DihedralContext(self.engine, *p)
            for p in sorted(pres.pairs(), key=lambda p: pres.label(*p) is INF)
        }
        self._finite = [ctx for ctx in self._contexts.values() if ctx.m is not INF]

    # -- delegation -------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return self.engine.identity

    def element(self, word) -> GroupElement:
        return self.engine.element(word)

    @memo(lambda radius: radius)
    def ball(self, radius: int) -> ElementBall:
        return ElementBall(self.engine, radius)

    def require_33m(self, what: str):
        if not self._has_33m and not self.allow_counterexample:
            raise HypothesisError(
                f"{what} needs the no-(3,3,m)-triangle hypothesis; pass --allow-counterexample "
                "(allow_counterexample=True in Python) to run regardless"
            )

    # -- dihedral subgroup plumbing -------------------------------------------

    def dihedral_ctx(self, i: int, j: int) -> DihedralContext:
        """The calculus of G(i,j) on this group's engine (one context per pair, either order)."""
        ctx = self._contexts.get((i, j) if i < j else (j, i))
        if ctx is None:
            if i == j:
                raise ValueError("G(i,j) needs two distinct generators")
            bad = min(i, j) if min(i, j) < 1 else max(i, j)
            raise ValueError(f"generator {bad} is not one of 1..{self.pres.n}")
        return ctx

    # -- divisors ----------------------------------------------------------------

    @memo(lambda g, i, j: (g.word, i, j))
    def ld(self, g: GroupElement, i: int, j: int) -> GroupElement:
        """Longest left divisor of g inside G(i,j)."""
        i, j = self.dihedral_ctx(i, j).pair
        if names(g.word) <= {i, j}:  # g lies in G(i,j); g may be another engine's element
            return GroupElement(self.engine, g.word)
        return self.element(_pair_prefix(self.engine.reordered(i, j).nf(g.word), i, j))

    @memo(lambda g, i, j: (g.word, i, j))
    def rd(self, g: GroupElement, i: int, j: int) -> GroupElement:
        return self.ld(g.inv(), i, j).inv()

    @memo(lambda g, side: (g.word, side))
    def facing(self, g: GroupElement, side: str) -> tuple[GroupElement, ...]:
        """RD_p(g) (side "right") or LD_p(g) (side "left") per finite pair p, in context order."""
        if side not in ("left", "right"):
            raise ValueError(f"side is 'left' or 'right', not {side!r}")
        divisor = self.rd if side == "right" else self.ld
        return tuple(divisor(g, *ctx.pair) for ctx in self._finite)

    def ld_prime(self, g: GroupElement, i: int, j: int):
        """
        (LD', case, tail letter): in case 1 every geodesic spelling of g has
        a prefix spelling LD_ij(g) and LD' = LD; in case 2 the maximal
        {i,j}-prefixes that fall short of LD all extend to it by powers of a
        single letter a, and LD' = LD a^{-s} with a^s the top power of a
        dividing LD on the right.
        """
        self.require_33m("the unique-tail divisor LD'")
        i, j = self.dihedral_ctx(i, j).pair
        ld = self.ld(g, i, j)
        L = len(ld)
        reps = self.engine.geodesic_words(g)
        if all(functools.reduce(self.engine.extend, w[:L], ()) == ld.word for w in reps):
            return ld, 1, None
        letters: set[int] = set()
        for w in reps:
            rest = self.element(_pair_prefix(w, i, j)).inv() * ld
            if len(rest) == 0:
                continue
            a = rest.word[0]
            if any(x != a for x in rest.word):
                raise OnetailFailure("prefix does not extend to LD by a letter power", set())
            letters.add(a)
        if len(letters) != 1:
            raise OnetailFailure(f"expected one tail letter, found {sorted(letters)}", letters)
        (a,) = letters
        s = self.engine.strip_power(ld, self.element((-a,)))
        return ld * self.element((-a,) * s), 2, a

    # -- permissibility ------------------------------------------------------------

    def permissible(self, g1: GroupElement, g2: GroupElement) -> bool:
        """(g1, g2) is geodesic and dihedrally permissible on every pair."""
        if len(g1 * g2) != len(g1) + len(g2):
            return False
        # only finite pairs: on a free pair every geodesic factorisation is allowed
        facing = zip(self._finite, self.facing(g1, "right"), self.facing(g2, "left"))
        return all(ctx.permissible(rd, ld)[0] for ctx, rd, ld in facing)

    # -- merging ----------------------------------------------------------------------

    def _right_divisors(self, f: GroupElement, length: int, ctx):
        """Length-`length` right divisors of f, inside G(ctx.pair) unless ctx is None."""
        source = ctx or self.engine
        return [GroupElement(self.engine, w) for w in source.right_divisor_words(f, length)]

    def _strip(self, state, h, hp):
        """The state stripped of h and h', or None unless both sides stay permissible."""
        f1, h1, f2, h2 = state
        f1n = f1 * h.inv()
        if len(f1n) != len(f1) - len(h) or not self.permissible(f1n, h * h1):
            return None
        f2n = hp.inv() * f2
        if len(f2n) != len(f2) - len(hp) or not self.permissible(h2 * hp, f2n):
            return None
        return f1n, h * h1, f2n, h2 * hp

    def _find_merge_move(self, state, r, active):
        """
        The preferred move on the state (f1, h1, f2, h2) with middle Delta^r,
        as (kind, h, h', r after, active context after, state after), or None.
        With no active DihedralContext (only when r = 0) cancellation is
        unrestricted and Delta moves try every finite pair, otherwise every
        move stays inside the active G(i,j).
        """
        f1, _h1, f2, _h2 = state
        # _strip accepts only an h' in heads: see the module docstring
        heads = self.engine.left_divisor_words(f2)

        def conj(x, ctx):  # delta^r(x): conjugation by Delta^r
            return x if r % 2 == 0 else ctx.element(ctx.delta_word(x.word, r))

        # (i) cancellation
        for j_len in range(min(len(f1), len(f2)), 0, -1):
            for h in self._right_divisors(f1, j_len, active):
                hp = conj(h.inv(), active)
                new = hp.word in heads and self._strip(state, h, hp)
                if new:
                    return ("cancel", h, hp, r, active, new)
        # Delta moves on the finite pairs; an infinite active pair admits none
        ctxs = [c for c in self._finite if active in (None, c)]
        # (ii) double Delta, both sides signed
        if f1.sign != "unsigned" and f2.sign != "unsigned":
            for ctx in ctxs:
                for eps in (1, -1):
                    h = ctx.delta_elem(eps)
                    new = h.word in heads and self._strip(state, h, h)
                    if new:
                        return ("double-delta", h, h, r + 2 * eps, ctx, new)
        # (iii) Delta extraction: h' is a nontrivial G(p) member of heads; the
        # exponent sum, kept by delta, of h * delta^r(h') = Delta^e is e m
        for ctx in ctxs:
            sums = {exponent_sum(w) for w in heads if w and names(w) <= set(ctx.pair)}
            if not sums:
                continue
            deltas = ((1, ctx.delta_elem(1)), (-1, ctx.delta_elem(-1)))
            for j_len in range(len(f1), 0, -1):
                for h in self._right_divisors(f1, j_len, ctx):
                    for eps, delta in deltas:
                        if eps * ctx.m - exponent_sum(h.word) not in sums:
                            continue
                        hp = conj(h.inv() * delta, ctx)
                        if len(hp) == 0 or hp.word not in heads:
                            continue
                        new = self._strip(state, h, hp)
                        if new:
                            return ("delta-extract", h, hp, r + eps, ctx, new)
        return None

    def merge(self, g1: GroupElement, g2: GroupElement) -> MergerTriple:
        """Merge the pair (g1, g2); the active dihedral pair may change while r = 0."""
        self.require_33m("merging")
        state, r, ctx = (g1, self.identity, g2, self.identity), 0, None
        trace: list[MergeStep] = []
        while True:
            mv = self._find_merge_move(state, r, ctx)
            if mv is None:
                break
            kind, h, hp, r, ctx, state = mv
            if r == 0:
                ctx = None
            trace.append(MergeStep(kind, h.word, hp.word, r))
        f1, h1, f2, h2 = state
        return MergerTriple(f1, ctx.pair if ctx else None, r, f2, h1, h2, tuple(trace))

    def middle_of(self, t: MergerTriple) -> GroupElement:
        if t.r == 0:
            return self.identity
        return self.dihedral_ctx(*t.pair).delta_elem(t.r)

    # -- S(g, k, l) and T(k, l) ---------------------------------------------------------

    def build_s_t(self, g: GroupElement, k: int, l: int) -> STResult:
        """Mergers over Fact_{k,l}(g), read off the ball of radius k + l, with the bounds."""
        self.require_33m("the S(g,k,l) sweep")
        triples: dict = {}
        middles: set[Word] = set()
        max_r = 0
        max_h = 0
        ball = self.ball(k + l)
        for u, v in ball.fact_table(k, l).get(ball.index.get(g.word), ()):
            t = self.merge(ball.element(u), ball.element(v))
            triples.setdefault(t.key(), t)
            middles.add(self.middle_of(t).word)
            max_r = max(max_r, abs(t.r))
            max_h = max(max_h, len(t.h1), len(t.h2))
        return STResult(triples, middles, max_r, max_h)

    # -- the S0 u S1 u S2 decomposition ---------------------------------------------------

    def _inner_merger_checks(self, ctx, state, r, events, tag):
        """Validate that the state (f1', h1', f2', h2') and Delta^r form a merger in G(ctx.pair)."""
        f1p, h1p, f2p, h2p = state
        if ctx.m is not INF:
            if (h1p * h2p) != ctx.delta_elem(r):
                events.append(f"{tag}: h1' h2' is not Delta^r")
        elif len(h1p * h2p) != 0:
            events.append(f"{tag}: h1' h2' nontrivial on a free pair")
        if not ctx.permissible(f1p, h1p)[0]:
            events.append(f"{tag}: (f1', h1') not permissible")
        if not ctx.permissible(h2p, f2p)[0]:
            events.append(f"{tag}: (h2', f2') not permissible")
        if self._find_merge_move(state, r, ctx) is not None:
            events.append(f"{tag}: inner triple admits a further move")

    def split_s(self, st: STResult, g: GroupElement) -> SDecomposition:
        """Classify every triple of S(g,k,l) into S0, S1 or S2 with witnesses."""
        out = SDecomposition()
        for key in sorted(st.triples, key=repr):
            t = st.triples[key]
            tag = f"triple {key}"
            if (
                t.r == 0
                and syllable_count(t.f1.word) <= 1
                and syllable_count(t.f2.word) <= 1
                and (
                    len(t.f1) == 0
                    or len(t.f2) == 0
                    or abs(t.f1.word[0]) == abs(t.f2.word[0])
                )
            ):
                out.s0.append(SWitness(t, "S0"))
                continue
            w = self._split_one(t, g, out.events, tag)
            if w.bucket == "S1":
                out.s1.append(w)
            else:
                out.s2.append(w)
        return out

    def _choose_pair_r0(self, t: MergerTriple):
        """The r = 0 pair context: lexicographically least, finite labels first."""
        for (i, j), ctx in self._contexts.items():
            if len(names(self.rd(t.f1, i, j).word) | names(self.ld(t.f2, i, j).word)) > 1:
                return ctx
        return None

    def _split_one(self, t: MergerTriple, g, events, tag) -> SWitness:
        ctx = self.dihedral_ctx(*t.pair) if t.r != 0 else self._choose_pair_r0(t)
        if ctx is None:
            events.append(f"{tag}: no usable pair for the r = 0 case")
            return SWitness(t, "S2")
        i, j = ctx.pair
        f1p = self.rd(t.f1, i, j)
        f2p = self.ld(t.f2, i, j)
        h1p = self.ld(t.h1, i, j)
        h2p = self.rd(t.h2, i, j)
        f1pp = t.f1 * f1p.inv()
        f2pp = f2p.inv() * t.f2
        fhat = f1p * h1p * h2p * f2p
        # property (1)
        if len(self.rd(f1pp, i, j)) != 0:
            events.append(f"{tag}: f1'' still has a right divisor in G(i,j)")
        if len(self.ld(f2pp, i, j)) != 0:
            events.append(f"{tag}: f2'' still has a left divisor in G(i,j)")
        # property (2)
        if f1pp * fhat * f2pp != g:
            events.append(f"{tag}: g != f1'' fhat f2''")
        # property (3): the inner dihedral merger
        self._inner_merger_checks(ctx, (f1p, h1p, f2p, h2p), t.r, events, tag)
        if syllable_count(fhat.word) <= 1:
            events.append(f"{tag}: fhat lies in a cyclic subgroup")
        geodesic = len(f1pp) + len(fhat) + len(f2pp) == len(g)
        if geodesic:
            return SWitness(t, "S1", ctx.pair, f1pp, fhat, f2pp)
        s2w = self._s2_witness(ctx, f1pp, fhat, f2pp, events, tag)
        return SWitness(t, "S2", ctx.pair, f1pp, fhat, f2pp, s2w)

    def _s2_witness(self, ctx, f1pp, fhat, f2pp, events, tag):
        """Extract and validate the crossing-letter witness for an S2 triple."""
        i, j = ctx.pair
        if ctx.m is INF:
            events.append(f"{tag}: S2 with an infinite label")
        w = fhat.word
        if syllable_count(w) != 2:
            events.append(f"{tag}: fhat is not a two-syllable element")
            return None
        a = w[0]
        s = 1
        while s < len(w) and w[s] == a:
            s += 1
        b = w[s]
        tpow = len(w) - s
        A = f1pp * self.element((a,) * s)
        B = self.element((b,) * tpow) * f2pp
        best = None
        for c in default_order(self.pres.n):
            if abs(c) in (i, j):
                continue
            q = self.engine.strip_power(A, self.element((-c,)))
            if q == 0:
                continue
            q = min(q, self.engine.strip_power(B, self.element((c,)), left=True))
            if q == 0:
                continue
            if best is None or q > best[1] or (q == best[1] and c < best[0]):
                e1 = A * self.element((-c,) * q)
                e2 = self.element((c,) * q) * B
                best = (c, q, e1, e2)
        if best is None:
            events.append(f"{tag}: no crossing letter c with q > 0")
            return None
        c, q, e1, e2 = best
        if len(e1 * e2) != len(e1) + len(e2):
            events.append(f"{tag}: e1 e2 is not a geodesic factorisation")
        return {"c": c, "q": q, "e1": e1, "e2": e2}
