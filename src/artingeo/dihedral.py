"""
The calculus of one dihedral parabolic subgroup G(i,j) = <x_i, x_j>, a
dihedral Artin group on the label m = m_ij, run on the parent group's own
shortlex engine and letters.  Standard parabolic subgroups of Artin groups
are convex, so the parent engine's normal forms and geodesic spellings of
{i,j}-words are those of DA(m); no second engine and no renaming of letters
is needed.  DA(m) itself is dihedral_ctx(1, 2) of
ArtinGroup(CoxeterPresentation.dihedral(m)).

The 2-generator calculus lives here: the geodesic criterion p + n <= m,
the Garside element Delta and its letter permutation delta, critical words
and tau, reduction to geodesics, Garside powers d(g), the permissible
factorisation set P = P1 u P2, divisor enumeration, and the compression of
merger triples (f1, Delta^r, f2) back into geodesic words.

Permissible factorisations of a signed element g are those (g1, g2) with
|g1| + |g2| = |g| such that either one factor has a geodesic spelling with
at most two syllables (P1), or d(g1) + d(g2) = d(g) (P2, the factorisation
does not lose Garside power).  For unsigned g, and in the free case m = inf,
every geodesic factorisation is permissible.

Merging is not done here: it is ArtinGroup.merge in artingeo.largetype.
Pass the resulting (f1, r, f2) of a merger inside G(i,j) to compress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .critical import (
    CriticalWord,
    classify_critical,
    delta_word,
    find_length_reducing_move,
    locate_overcritical,
    pn_values,
    reduce_2gen,
    tau,
)
from .presentation import INF
from .shortlex import GroupElement, ShortlexEngine, memo
from .words import (
    Word,
    alt_starting,
    free_reduce,
    inverse_word,
    is_freely_reduced,
    names,
    runs,
    sign_class,
    syllable_count,
)


class CompressionShapeError(ValueError):
    """The triple does not have the shape a completed merger guarantees."""


@dataclass(frozen=True)
class CompressionResult:
    word: Word  # geodesic spelling u4 delta^{r'-s}(v4) Delta^s of f1 Delta^r f2
    kappa: GroupElement  # the element of u4
    u4: Word
    v4: Word
    r0: int
    r1: int
    r_prime: int
    s: int
    shape: str  # which factor carried the Delta power: 'left' | 'right' | 'none'
    stages: tuple[dict, ...]


class DihedralContext:
    """G(i,j) on the engine of its parent group; m = inf gives a free pair."""

    def __init__(self, engine: ShortlexEngine, i: int, j: int):
        self.m = engine.pres.label(i, j)
        self.engine = engine
        self.pair = (i, j)

    # -- words and elements -------------------------------------------------

    def element(self, word) -> GroupElement:
        return self.engine.element(word)

    def _require_finite(self):
        if self.m is INF:
            raise ValueError("operation requires a finite dihedral label")

    def delta_power_word(self, r: int, prev: int | None = None) -> Word:
        """
        Delta^r as a word, spelled from alt_m(x_i, x_j) unless its first
        letter would cancel against a preceding letter `prev`; then from
        alt_m(x_j, x_i).
        """
        self._require_finite()
        i, j = self.pair
        for first, second in ((i, j), (j, i)):
            base = alt_starting(first, second, self.m)
            word = base * r if r >= 0 else inverse_word(base) * (-r)
            if not word or prev is None or word[0] != -prev:
                return word
        raise AssertionError("unreachable: both Garside spellings cancel")

    @memo(lambda r=1: r)
    def delta_elem(self, r: int = 1) -> GroupElement:
        """Delta^r as an element, built once per power."""
        return self.element(self.delta_power_word(r))

    def delta_word(self, w: Word, power: int = 1) -> Word:
        self._require_finite()
        return delta_word(w, self.pair, self.m, power)

    # -- geodesics -----------------------------------------------------------

    def pn(self, w: Word) -> tuple[int, int]:
        return pn_values(w, self.m)

    def geodesic_status(self, w: Word) -> tuple[bool, bool]:
        """(is geodesic, is the unique geodesic spelling of its element)."""
        p, n = self.pn(w)
        return p + n <= self.m, p + n < self.m

    def is_geodesic(self, w: Word) -> bool:
        return self.geodesic_status(w)[0]

    def classify_critical(self, w: Word) -> Optional[CriticalWord]:
        return classify_critical(w, self.m)

    def tau(self, w: Word) -> Word:
        c = self.classify_critical(w)
        if c is None:
            raise ValueError(f"word {w} is not critical for m = {self.m}")
        return tau(c)

    def reduce(self, w: Word) -> tuple[Word, list[dict]]:
        """Reduce to a geodesic spelling; the log lists every move applied."""
        return reduce_2gen(w, self.m)

    # -- Garside power and permissibility -------------------------------------

    @memo(lambda g: g.word)
    def garside_power(self, g: GroupElement) -> int:
        """d(g): maximal k with Delta^{±k} dividing the signed element g."""
        self._require_finite()
        sign = sign_class(g.word)
        if sign == "unsigned":
            raise ValueError("d(g) is defined for signed elements only")
        eps = 1 if sign == "positive" else -1
        return self.engine.strip_power(g, self.delta_elem(-eps), left=True)

    @memo(lambda g: g.word)
    def has_two_syllable_spelling(self, g: GroupElement) -> bool:
        return any(syllable_count(w) <= 2 for w in self.engine.geodesic_words(g))

    @memo(lambda g1, g2: (g1.word, g2.word))
    def permissible(self, g1: GroupElement, g2: GroupElement) -> tuple[bool, str]:
        """Membership of (g1, g2) in P(g1 g2), with the accepting clause."""
        g = g1 * g2
        if len(g) != len(g1) + len(g2):
            return False, "not-geodesic"
        if self.m is INF:
            return True, "infinite-label"
        if g.sign == "unsigned":
            return True, "unsigned"
        if self.has_two_syllable_spelling(g1) or self.has_two_syllable_spelling(g2):
            return True, "P1"
        if self.garside_power(g1) + self.garside_power(g2) == self.garside_power(g):
            return True, "P2"
        return False, "delta-decreasing"

    # -- divisor enumeration ---------------------------------------------------

    def right_divisor_words(self, g: GroupElement, j: int) -> tuple[Word, ...]:
        """Normal forms of the length-j right divisors of g inside G(i,j), shortlex sorted."""
        pair = set(self.pair)
        return tuple(w for w in self.engine.right_divisor_words(g, j) if names(w) <= pair)

    # -- compression ---------------------------------------------------------------

    def _signed_garside_power(self, g: GroupElement) -> int:
        """d(g) with the sign of g; 0 for unsigned elements and the identity."""
        if self.m is INF or len(g) == 0 or g.sign == "unsigned":
            return 0
        eps = 1 if g.sign == "positive" else -1
        return eps * self.garside_power(g)

    def compress(self, f1: GroupElement, r: int, f2: GroupElement) -> CompressionResult:
        """
        Turn a merger (f1, Delta^r, f2), with f1 and f2 elements of this
        context, into a geodesic spelling u4 delta^{r'-s}(v4) Delta^s of
        f1 Delta^r f2, and name kappa = (u4)_G.
        """
        self._require_finite()
        m = self.m
        d1 = self._signed_garside_power(f1)
        d2 = self._signed_garside_power(f2)
        if d1 and d2:
            raise CompressionShapeError("both factors carry Garside powers")
        if d1:
            # f1 = u Delta^{r0}: remove the power from the right
            shape, r0 = "left", d1
            u = (f1 * self.delta_elem(-d1)).word
            v = f2.word
        elif d2:
            # f2 = Delta^{r0} v: remove the power from the left
            shape, r0 = "right", d2
            u = f1.word
            v = (self.delta_elem(-d2) * f2).word
        else:
            shape, r0, u, v = "none", 0, f1.word, f2.word
        if r and r0 and (r > 0) != (r0 > 0):
            raise CompressionShapeError("Delta powers of opposite signs")
        r1 = r + r0
        stages: list[dict] = []

        w0 = u + self.delta_word(v, r1) if r1 % 2 else u + v
        if not is_freely_reduced(w0):
            raise CompressionShapeError("u delta^{r1}(v) is not freely reduced")
        if any(e - s >= m for s, e in runs(w0)):
            raise CompressionShapeError("u delta^{r1}(v) contains a Garside power")

        # stage 1: split at the end of the maximal alternating subword
        # containing the end of u, then repair u1 by at most one move
        if u:
            cut = next(e for s, e in runs(w0) if e >= len(u))
        else:
            cut = 0
        u1, v1 = w0[:cut], w0[cut:]
        stages.append({"stage": "split", "u1": u1, "v1": v1})
        if self.is_geodesic(u1):
            u2 = u1
        else:
            mv = find_length_reducing_move(u1, m)
            if mv is None:
                raise CompressionShapeError("u1 is not geodesic yet admits no move")
            u2 = free_reduce(u1[: mv.start] + mv.image + u1[mv.end :])
            stages.append({"stage": "u1-repair", "span": (mv.start, mv.end)})
            if not self.is_geodesic(u2):
                raise CompressionShapeError("one move did not make u1 geodesic")

        # stage 2: straddling unsigned moves until the concatenation is geodesic
        U, V = u2, v1
        while not self.is_geodesic(U + V):
            mv = self._find_straddling_move(U, V)
            if mv is None:
                raise CompressionShapeError("no straddling move on a non-geodesic")
            U, V = mv
            stages.append({"stage": "pair-move", "u_len": len(U), "v_len": len(V)})
        u3, v3 = U, V

        # stage 3: absorb Delta^{r1} into v3, stage 4: the leftover into u3
        v4, r_prime, log3 = self._absorb_delta(v3, r1)
        stages.extend({"stage": "v-absorb", **entry} for entry in log3)
        if r_prime == 0:
            u4, s = u3, 0
        else:
            u4, s, log4 = self._absorb_delta(u3, r_prime)
            stages.extend({"stage": "u-absorb", **entry} for entry in log4)

        mid = self.delta_word(v4, r_prime - s) if (r_prime - s) % 2 else v4
        head4 = u4 + mid
        word = head4 + self.delta_power_word(s, head4[-1] if head4 else None)
        if not self.is_geodesic(word):
            raise CompressionShapeError("compressed word is not geodesic")
        if len(u4) > (m - 1) ** 2 * (len(f1) + m - 1):
            raise CompressionShapeError("u4 exceeds its length bound")
        head = self.element(u4 + mid)
        for eps in (1, -1):
            if self.engine.strip_power(head, self.delta_elem(-eps), left=True):
                raise CompressionShapeError("u4 delta(v4) has a Garside divisor")
        return CompressionResult(
            word,
            self.element(u4),
            u4,
            v4,
            r0,
            r1,
            r_prime,
            s,
            shape,
            tuple(stages),
        )

    def _find_straddling_move(self, U: Word, V: Word):
        """One unsigned move whose blocks lie one in U and one in V."""
        m = self.m
        W = U + V
        B = len(U)
        rs = runs(W)
        for ai, (sa, ea) in enumerate(rs):
            if ea > B:
                break
            la = ea - sa
            for sb, eb in rs[ai + 1 :]:
                if sb < B:
                    continue
                if (W[sa] > 0) == (W[sb] > 0):
                    continue
                lb = eb - sb
                if min(m, la) + min(m, lb) <= m:
                    continue
                mv = locate_overcritical(W, sa, eb, m)
                image = mv.image
                # the image splits at the same boundary: the left block and
                # xi1 belong to U, the right block and xi2 to V
                left_len = (m - mv.p if W[sa] > 0 else m - mv.n) + (B - (sa + la))
                newU = W[:sa] + image[:left_len]
                newV = image[left_len:] + W[eb:]
                return newU, newV
        return None

    def _absorb_delta(self, part: Word, r: int) -> tuple[Word, int, list[dict]]:
        """
        Reduce part * Delta^r by moves pairing one Delta with the rightmost
        opposite-sign alternating subword, until none remains or r hits 0.
        """
        m = self.m
        log: list[dict] = []
        while r != 0:
            eps = 1 if r > 0 else -1
            opp = [
                (s, e) for s, e in runs(part) if (part[s] > 0) != (eps > 0)
            ]
            if not opp:
                break
            s, e = opp[-1]
            blk = min(m, e - s)
            wfull = part + self.delta_power_word(eps, part[-1] if part else None)
            mv = locate_overcritical(wfull, e - blk, len(wfull), m)
            part = free_reduce(wfull[: e - blk] + mv.image)
            r -= eps
            log.append({"run": (s, e), "r_left": r})
        return part, r, log
