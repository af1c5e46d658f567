"""
Finitely supported functions on the group: norms, convolution, projections.

The length function is word length |g| of the normal form, so spheres C_k
and the pointwise restrictions phi_k are read straight off the support.
Convolution is the exact double sum (phi * psi)(g) = sum_h phi(h) psi(h^-1 g)
over the finite supports.  The square-summed projections

  right:  g in C_{k-p}  |->  sqrt( sum_{h in C_p, (g,h) permissible} |phi_k(g h)|^2 )
  left:   g in C_{k-p}  |->  sqrt( sum_{h in C_p, (h,g) permissible} |phi_k(h g)|^2 )

satisfy ||proj||_2^2 <= F_{P,k-p,p} ||phi_k||_2^2 where F_{P,a,b} is the
largest number of permissible (a,b)-factorisations any element of C_{a+b}
has; the projection code can verify that bound on every call.

The operator norm ||phi||_* = sup ||phi * psi||_2 / ||psi||_2 is estimated
from below by restricting psi to a ball and power-iterating the restricted
convolution operator; every Rayleigh quotient encountered is a certified
lower bound, and estimates are nondecreasing in the radius by warm-starting
each radius from the previous maximiser.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .largetype import ArtinGroup
from .shortlex import ElementBall, GroupElement
from .words import Word


class GroupFunction:
    """A finitely supported complex function keyed by normal-form words."""

    def __init__(self, group: ArtinGroup, coeffs: dict | None = None):
        self.group = group
        self.coeffs: dict[Word, complex] = {}
        if coeffs:
            for key, val in coeffs.items():
                word = key.word if isinstance(key, GroupElement) else group.nf(key)
                if val != 0:
                    self.coeffs[word] = self.coeffs.get(word, 0) + complex(val)
        self.coeffs = {w: v for w, v in self.coeffs.items() if v != 0}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def atom(group: ArtinGroup, g, value=1.0) -> "GroupFunction":
        return GroupFunction(group, {g if isinstance(g, GroupElement) else group.element(g): value})

    @staticmethod
    def indicator(group: ArtinGroup, elements: Iterable) -> "GroupFunction":
        return GroupFunction(group, {g: 1.0 for g in elements})

    @staticmethod
    def sphere_indicator(group: ArtinGroup, ball: ElementBall, k: int) -> "GroupFunction":
        return GroupFunction(group, {ball.words[i]: 1.0 for i in ball.sphere(k)})

    # -- basics ----------------------------------------------------------------

    def items(self):
        return sorted(self.coeffs.items())

    def support(self) -> list[Word]:
        return sorted(self.coeffs)

    def __getitem__(self, g) -> complex:
        word = g.word if isinstance(g, GroupElement) else self.group.nf(g)
        return self.coeffs.get(word, 0j)

    def __len__(self) -> int:
        return len(self.coeffs)

    def scale(self, c) -> "GroupFunction":
        return GroupFunction(self.group, {w: c * v for w, v in self.coeffs.items()})

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        out = dict(self.coeffs)
        for w, v in other.coeffs.items():
            out[w] = out.get(w, 0) + v
        return GroupFunction(self.group, out)

    # -- norms -------------------------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for _, v in self.items())))

    def sobolev_norm(self, r: float) -> float:
        if r < 0:
            raise ValueError("Sobolev order must be nonnegative")
        return float(
            np.sqrt(
                sum(abs(v) ** 2 * (1 + len(w)) ** (2 * r) for w, v in self.items())
            )
        )

    # -- convolution ---------------------------------------------------------------

    def convolve(self, other: "GroupFunction") -> "GroupFunction":
        engine = self.group.engine
        acc: dict[Word, complex] = {}
        for u, cu in self.items():
            for v, cv in other.items():
                w = u
                for a in v:
                    w = engine.append(w, a)
                acc[w] = acc.get(w, 0) + cu * cv
        return GroupFunction(self.group, acc)

    def __mul__(self, other):
        if isinstance(other, GroupFunction):
            return self.convolve(other)
        return self.scale(other)


def norms(phi: GroupFunction, r: float) -> tuple[float, float]:
    return phi.l2_norm(), phi.sobolev_norm(r)


# -- permissible factorisation counts ------------------------------------------


def permissible_fact_counts(
    group: ArtinGroup, ball: ElementBall, k: int, l: int
) -> dict[int, int]:
    """|Fact_{P,k,l}(g)| for every g in C_{k+l}, via forward product walks."""
    if k + l > ball.radius:
        raise ValueError("ball too small for the requested factorisations")
    us, vs = ball.sphere(k), ball.sphere(l)
    pairs = itertools.product([ball.element(i) for i in us], [ball.element(i) for i in vs])
    counts: dict[int, int] = {}
    for (u, v), gi in zip(pairs, ball.products(us, vs)):
        if ball.length[gi] == k + l and group.permissible(u, v):
            counts[gi] = counts.get(gi, 0) + 1
    return counts


def permissible_fact_sup(group: ArtinGroup, ball: ElementBall, k: int, l: int):
    """F_{P,k,l} with one witness element attaining it (0 on empty spheres)."""
    counts = permissible_fact_counts(group, ball, k, l)
    if not counts:
        return 0, None
    best = max(sorted(counts), key=lambda g: counts[g])
    return counts[best], ball.words[best]


# -- projections -----------------------------------------------------------------


def projection(
    phi_k: GroupFunction,
    ball: ElementBall,
    p: int,
    side: str = "right",
) -> GroupFunction:
    """
    The square-summed permissible projection of phi_k onto C_{k-p}; raises
    AssertionError if its squared norm exceeds F_P times that of phi_k.
    """
    group = phi_k.group
    supp = phi_k.support()
    if not supp:
        return GroupFunction(group, {})
    lengths = {len(w) for w in supp}
    if len(lengths) != 1:
        raise ValueError("projection needs support on a single sphere")
    (k,) = lengths
    if not 0 <= p <= k:
        raise ValueError("need 0 <= p <= k")
    acc: dict[Word, float] = {}
    sphere_p = [ball.element(i) for i in ball.sphere(p)]
    for u, cu in phi_k.items():
        ue = GroupElement(group.engine, u)
        for h in sphere_p:
            if side == "right":
                g = ue * h.inv()
                ok = len(g) == k - p and group.permissible(g, h)
            elif side == "left":
                g = h.inv() * ue
                ok = len(g) == k - p and group.permissible(h, g)
            else:
                raise ValueError("side must be 'left' or 'right'")
            if ok:
                acc[g.word] = acc.get(g.word, 0.0) + abs(cu) ** 2
    proj = GroupFunction(group, {w: np.sqrt(v) for w, v in acc.items()})
    a, b = (k - p, p) if side == "right" else (p, k - p)
    bound, _ = permissible_fact_sup(group, ball, a, b)
    lhs = proj.l2_norm() ** 2
    rhs = bound * phi_k.l2_norm() ** 2
    if lhs > rhs + 1e-9:
        raise AssertionError(
            f"projection norm bound violated: {lhs} > F={bound} * {phi_k.l2_norm()**2}"
        )
    return proj


# -- the convolution inequality ----------------------------------------------------


def star_star_trials(
    group: ArtinGroup,
    ball: ElementBall,
    k: int,
    l: int,
    m: int,
    trials: int,
    seed: int,
) -> list[dict]:
    """
    Ratios ||(phi_k * psi_l)_m||_2 / (||phi_k||_2 ||psi_l||_2) over seeded
    random coefficient vectors and structured adversarial ones.
    """
    if not 0 <= m <= ball.radius or k + l > ball.radius:
        raise ValueError("ball too small for the requested triple (k, l, m)")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    ck = ball.sphere(k)
    cl = ball.sphere(l)
    if not ck or not cl:
        return []
    # precompute the product for every support pair, one row per u
    prods = ball.products(ck, cl)
    pairs = [prods[a : a + len(cl)] for a in range(0, len(prods), len(cl))]

    def ratio(fu: np.ndarray, fv: np.ndarray) -> float:
        acc: dict[int, complex] = {}
        for a, ui in enumerate(ck):
            cu = fu[a]
            if cu == 0:
                continue
            row = pairs[a]
            for b in range(len(cl)):
                gi = row[b]
                if ball.length[gi] == m:
                    acc[gi] = acc.get(gi, 0) + cu * fv[b]
        num = np.sqrt(sum(abs(v) ** 2 for v in acc.values()))
        den = np.linalg.norm(fu) * np.linalg.norm(fv)
        return float(num / den) if den else 0.0

    rng = np.random.default_rng(seed)
    out = []

    def record(name, fu, fv):
        out.append({"trial": name, "ratio": ratio(np.asarray(fu), np.asarray(fv))})

    record("all-ones", np.ones(len(ck)), np.ones(len(cl)))
    record(
        "single-atom",
        np.eye(1, len(ck), 0).ravel(),
        np.eye(1, len(cl), 0).ravel(),
    )
    multi_k = np.array(
        [1.0 if len(group.geodesic_words(ball.element(i))) > 1 else 0.0 for i in ck]
    )
    multi_l = np.array(
        [1.0 if len(group.geodesic_words(ball.element(i))) > 1 else 0.0 for i in cl]
    )
    if multi_k.any() and multi_l.any():
        record("multi-spelling", multi_k, multi_l)
    for t in range(trials):
        fu = rng.standard_normal(len(ck)) + 1j * rng.standard_normal(len(ck))
        fv = rng.standard_normal(len(cl)) + 1j * rng.standard_normal(len(cl))
        record(f"random-{t}", fu, fv)
    return out


# -- operator norm lower bound --------------------------------------------------------


def operator_norm_estimate(phi: GroupFunction, radius: int, iterations: int = 80) -> float:
    """
    Certified lower bound for ||phi||_* obtained by restricting psi to the
    radius-R ball: the best Rayleigh quotient ||phi * psi||_2 / ||psi||_2
    seen during power iteration on the restricted operator.
    """
    return operator_norm_profile(phi, [radius], iterations)[0][1]


def operator_norm_profile(phi: GroupFunction, radii: Iterable[int], iterations: int = 80):
    """
    operator_norm_estimate over increasing radii.  Each radius is
    warm-started with the previous maximising vector (zero-padded), so the
    reported lower bounds are nondecreasing in R.
    """
    radii = sorted(radii)
    supp = phi.support()
    if not supp:
        return [(R, 0.0) for R in radii]
    ell = max(len(w) for w in supp)
    big = phi.group.ball(max(radii) + ell)
    coeff = np.array([phi.coeffs[w] for w in supp])
    rows = [big.index[w] for w in supp]
    out = []
    prev: dict[int, complex] | None = None  # last vector, by ball id
    best = 0.0
    for R in radii:
        inner = [i for i in range(len(big)) if big.length[i] <= R]
        # scatter maps: position of h * v in the big ball for each inner v, one row per h
        prods = np.array(big.products(rows, inner), dtype=np.int64)
        scatter = list(prods.reshape(len(supp), len(inner)))
        if prev is None:
            x = np.ones(len(inner), dtype=complex)
        else:
            x = np.array([prev.get(i, 0.0) for i in inner], dtype=complex)
        for _ in range(iterations):
            nx = np.linalg.norm(x)
            if nx == 0:
                break
            x = x / nx
            # y = T x, then x = T* y
            y = np.zeros(len(big), dtype=complex)
            for c, sc in zip(coeff, scatter):
                np.add.at(y, sc, c * x)
            best = max(best, float(np.linalg.norm(y)))
            x = np.zeros(len(inner), dtype=complex)
            for c, sc in zip(coeff, scatter):
                x += np.conj(c) * y[sc]
        out.append((R, best))
        prev = dict(zip(inner, x))
    return out
