"""
Finitely supported functions on the group: norms, convolution, projections.

Functions are keyed by normal-form words.  Convolution
(phi * psi)(g) = sum_{uv = g} phi(u) psi(v) multiplies each pair of support
words through the engine, so its cost follows the supports, not a ball.
Every other operation runs on the ids of an enumerated Cayley ball and
reads each product uv off the ball's product table, with no element
arithmetic.  The square-summed projections

  right:  g in C_{k-p}  |->  sqrt( sum_{h in C_p, (g,h) permissible} |phi_k(g h)|^2 )
  left:   g in C_{k-p}  |->  sqrt( sum_{h in C_p, (h,g) permissible} |phi_k(h g)|^2 )

and the largest number F_{P,a,b} of permissible (a,b)-factorisations of an
element of C_{a+b} are read off one table of permissible pairs (u, v, uv);
every projection checks ||proj||_2^2 <= F_P ||phi_k||_2^2 from that table.

The operator norm ||phi||_* = sup ||phi * psi||_2 / ||psi||_2 is estimated
from below by restricting psi to a ball and power-iterating the restricted
convolution operator; every Rayleigh quotient encountered is a certified
lower bound, and estimates are nondecreasing in the radius by warm-starting
each radius from the previous maximiser.

Both hot kernels (ratio trials, power iteration) scatter-add by np.bincount
over flat maps of product ids, a fixed number of numpy calls per batch of
trials or per iteration; bincount adds in input order, as np.add.at does,
so floats match.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .largetype import ArtinGroup
from .shortlex import CayleyBall, ElementBall, GroupElement
from .words import Word

_BATCH_TERMS = 1 << 13  # outer-product terms per batch of ratio trials: bounds a batch's memory


class GroupFunction:
    """A finitely supported complex function keyed by normal-form words."""

    def __init__(self, group: ArtinGroup, coeffs: dict | None = None):
        self.group = group
        self.coeffs: dict[Word, complex] = {}
        if coeffs:
            for key, val in coeffs.items():
                word = key.word if isinstance(key, GroupElement) else group.engine.nf(key)
                if val != 0:
                    self.coeffs[word] = self.coeffs.get(word, 0) + complex(val)
        self.coeffs = {w: v for w, v in self.coeffs.items() if v != 0}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def atom(group: ArtinGroup, g, value=1.0) -> "GroupFunction":
        return GroupFunction(group, {g if isinstance(g, GroupElement) else group.element(g): value})

    @staticmethod
    def sphere_indicator(group: ArtinGroup, ball: ElementBall, k: int) -> "GroupFunction":
        return GroupFunction(group, {ball.words[i]: 1.0 for i in ball.sphere(k)})

    # -- basics ----------------------------------------------------------------

    def items(self):
        return sorted(self.coeffs.items())

    def support(self) -> list[Word]:
        return sorted(self.coeffs)

    def _on(self, ball: CayleyBall) -> tuple[list[int], np.ndarray]:
        """Ball ids of the support and the coefficients, in support order."""
        supp = self.support()
        return [ball.index[w] for w in supp], np.array([self.coeffs[w] for w in supp])

    def __getitem__(self, g) -> complex:
        word = g.word if isinstance(g, GroupElement) else self.group.engine.nf(g)
        return self.coeffs.get(word, 0j)

    def __len__(self) -> int:
        return len(self.coeffs)

    def scale(self, c) -> "GroupFunction":
        return GroupFunction(self.group, {w: c * v for w, v in self.coeffs.items()})

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
        acc: dict[Word, complex] = {}
        for u, a in self.items():
            for v, b in other.items():
                uv = self.group.engine.nf(v, u)
                acc[uv] = acc.get(uv, 0) + a * b
        return GroupFunction(self.group, acc)

    def __mul__(self, other):
        if isinstance(other, GroupFunction):
            return self.convolve(other)
        return self.scale(other)


# -- permissible factorisations ------------------------------------------------


def permissible_pairs(group: ArtinGroup, ball: ElementBall, k: int, l: int):
    """
    Id arrays (u, v, uv) of the permissible pairs (u, v) in C_k x C_l with
    |uv| = k + l, in row-major order.  On a geodesic pair group.permissible
    reads only group.facing, so it is asked once per class of facing tuples.
    """
    if k + l > ball.radius:
        raise ValueError("ball too small for the requested factorisations")
    us, vs = ball.sphere(k), ball.sphere(l)
    prods = np.array(ball.products(us, vs), dtype=np.int64).reshape(len(us), len(vs))
    a, b = np.nonzero(np.asarray(ball.length)[prods] == k + l)
    eu, ev = [ball.element(i) for i in us], [ball.element(i) for i in vs]
    ids: dict = {}  # one class id per facing tuple
    cu = np.array([ids.setdefault(group.facing(g, "right"), len(ids)) for g in eu], dtype=np.int64)
    cv = np.array([ids.setdefault(group.facing(g, "left"), len(ids)) for g in ev], dtype=np.int64)
    _, first, slot = np.unique(cu[a] * len(ids) + cv[b], return_index=True, return_inverse=True)
    verdict = np.array([group.permissible(eu[a[f]], ev[b[f]]) for f in first], dtype=bool)
    keep = verdict[slot]
    a, b = a[keep], b[keep]
    return np.asarray(us, dtype=np.int64)[a], np.asarray(vs, dtype=np.int64)[b], prods[a, b]


def permissible_fact_counts(
    group: ArtinGroup, ball: ElementBall, k: int, l: int
) -> dict[int, int]:
    """|Fact_{P,k,l}(g)| for every g in C_{k+l} that has one, keyed by ball id."""
    counts = np.bincount(permissible_pairs(group, ball, k, l)[2])
    return {int(g): int(counts[g]) for g in np.flatnonzero(counts)}


def permissible_fact_sup(group: ArtinGroup, ball: ElementBall, k: int, l: int):
    """F_{P,k,l} with one witness element attaining it (0 on empty spheres)."""
    counts = permissible_fact_counts(group, ball, k, l)
    if not counts:
        return 0, None
    best = max(counts, key=counts.get)
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
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a, b = (k - p, p) if side == "right" else (p, k - p)
    u, v, uv = permissible_pairs(group, ball, a, b)
    ids, coeff = phi_k._on(ball)
    sq = np.zeros(len(ball))
    sq[ids] = np.abs(coeff) ** 2
    acc = np.bincount(u if side == "right" else v, weights=sq[uv], minlength=len(ball))
    proj = GroupFunction(group, {ball.words[i]: np.sqrt(acc[i]) for i in np.flatnonzero(acc)})
    bound = int(np.bincount(uv).max()) if len(uv) else 0
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
    ms: Sequence[int],
    trials: int,
    seed: int,
) -> list[dict]:
    """
    Ratios ||(phi_k * psi_l)_m||_2 / (||phi_k||_2 ||psi_l||_2) for each m in
    ms, over seeded random coefficient vectors and structured adversarial
    ones, the same for every m.  Trials run in batches of as many as fit in
    _BATCH_TERMS outer-product terms (at least one): each batch draws its
    normals at once, scatters every trial's outer product onto the products
    uv by one bincount over (trial, cell) bins, and each m reads the cells
    of length m.  Records {"m", "trial", "ratio"} come m by m, in ms order.
    """
    if any(not 0 <= m <= ball.radius for m in ms) or k + l > ball.radius:
        raise ValueError("ball too small for the requested triple (k, l, m)")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    ck = ball.sphere(k)
    cl = ball.sphere(l)
    if not ck or not cl or not ms:
        return []
    # position of each product uv, row-major, among the distinct elements it hits
    cells, slot = np.unique(np.array(ball.products(ck, cl), dtype=np.int64), return_inverse=True)
    cell_len = np.asarray(ball.length)[cells]
    picks = [np.flatnonzero(cell_len == m) for m in ms]
    nk, nl, nc = len(ck), len(cl), len(cells)
    batch = max(1, _BATCH_TERMS // (nk * nl))
    # trial t of a batch, row t of fu and fv in record, scatters onto bins t * nc + slot
    bins = (np.arange(batch)[:, None] * nc + slot).ravel()
    rng = np.random.default_rng(seed)
    ratios = []

    def record(fu, fv):
        b = len(fu)
        acc = _scatter_add(bins[: b * nk * nl], (fu[:, :, None] * fv[:, None, :]).ravel(), b * nc)
        sq = np.abs(acc.reshape(b, nc)) ** 2
        # take keeps each trial's picked cells contiguous, so each row adds as the 1-d sum does
        nums = np.sqrt([np.add.reduce(sq.take(p, axis=1), axis=1) for p in picks])
        den = _norm(fu) * _norm(fv)
        ratios.extend(np.divide(nums, den, out=np.zeros_like(nums), where=den != 0).T.tolist())

    probes = {
        "all-ones": (np.ones((1, nk)), np.ones((1, nl))),
        "single-atom": (np.eye(1, nk), np.eye(1, nl)),
    }
    multi_k, multi_l = (
        np.array([[float(len(group.engine.geodesic_words(ball.element(i))) > 1) for i in ids]])
        for ids in (ck, cl)
    )
    if multi_k.any() and multi_l.any():
        probes["multi-spelling"] = multi_k, multi_l
    for fu, fv in probes.values():
        record(fu, fv)
    for start in range(0, trials, batch):
        z = rng.standard_normal((min(batch, trials - start), 2 * (nk + nl)))
        u, v = z[:, : 2 * nk], z[:, 2 * nk :]
        record(u[:, :nk] + 1j * u[:, nk:], v[:, :nl] + 1j * v[:, nl:])
    table = list(zip([*probes, *(f"random-{t}" for t in range(trials))], ratios))
    return [{"m": m, "trial": name, "ratio": rs[i]} for i, m in enumerate(ms) for name, rs in table]


def _norm(x: np.ndarray):
    """np.linalg.norm of x, or of each row of a 2-d x, by numpy's own formula, minus its wrapper."""
    x = np.ascontiguousarray(x)  # as numpy does: a strided view is summed from a contiguous copy
    # vecdot sums each row as ndarray.dot sums a vector; on a vector ndarray.dot has less call overhead
    dot = np.ndarray.dot if x.ndim == 1 else np.vecdot
    if x.dtype.kind == "c":
        return np.sqrt(dot(x.real, x.real) + dot(x.imag, x.imag))
    return np.sqrt(dot(x, x))


def _scatter_add(slots: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """np.add.at(zeros(size, complex), slots, weights) by one bincount per part."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(slots, weights.real, size)
    out.imag = np.bincount(slots, weights.imag, size)
    return out


# -- operator norm lower bound --------------------------------------------------------


def operator_norm_profile(phi: GroupFunction, radii: Iterable[int], iterations: int = 80):
    """
    Certified lower bounds for ||phi||_*, one per radius R: restrict psi to
    the radius-R ball and take the best Rayleigh quotient
    ||phi * psi||_2 / ||psi||_2 seen during power iteration on the
    restricted operator.  Radii run in increasing order and each is
    warm-started with the previous maximising vector, zero-padded: the
    radius-R ball is the id prefix ending with the sphere range big.sphere(R)
    and the reported lower bounds are nondecreasing in R.  T x scatters
    by bincount over the ids of h * v; T* y sums the gathered rows h in order.
    """
    radii = sorted(radii)
    if not phi.coeffs or not radii:
        return [(R, 0.0) for R in radii]
    big = phi.group.ball(max(radii) + max(map(len, phi.coeffs)))
    rows, coeff = phi._on(big)
    out, x, best = [], None, 0.0
    for R in radii:
        inner = range(big.sphere(R).stop)
        # scatter map: position of h * v in the big ball, one row per h, one column per inner v
        scatter = np.array(big.products(rows, inner), dtype=np.int64).reshape(len(rows), len(inner))
        x = np.ones(len(inner), dtype=complex) if x is None else np.pad(x, (0, len(inner) - len(x)))
        for _ in range(iterations):
            nx = _norm(x)
            if nx == 0:
                break
            x = x / nx
            # y = T x, then x = T* y; both add the rows h in support order
            y = _scatter_add(scatter.ravel(), (coeff[:, None] * x).ravel(), len(big))
            best = max(best, float(_norm(y)))
            x = (np.conj(coeff)[:, None] * y[scatter]).sum(axis=0)
        out.append((R, best))
    return out
