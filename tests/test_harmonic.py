"""Norms, convolution, projections, the convolution inequality, operator norms."""

import itertools
from bisect import bisect_right

import numpy as np
import pytest

from artingeo.harmonic import (
    GroupFunction,
    _norm,
    operator_norm_profile,
    permissible_fact_counts,
    permissible_fact_sup,
    permissible_pairs,
    projection,
    star_star_trials,
)
from artingeo.largetype import ArtinGroup
from artingeo.oracle import Oracle
from artingeo.presets import load_preset
from artingeo.sweeps import rd_check
from artingeo.words import parse_word

W = parse_word


@pytest.fixture(scope="module")
def da3(stash):
    return stash.group("da3")


@pytest.fixture(scope="module")
def ball6(da3):
    return da3.ball(6)


def test_norm_examples(da3, ball6):
    atom = GroupFunction.atom(da3, da3.identity)
    assert (atom.l2_norm(), atom.sobolev_norm(3)) == (1.0, 1.0)
    chi1 = GroupFunction.sphere_indicator(da3, ball6, 1)
    assert (chi1.l2_norm(), chi1.sobolev_norm(1)) == (2.0, 4.0)
    phi = GroupFunction(da3, {"ab": 3, "ba": 4j})
    l2, s0 = phi.l2_norm(), phi.sobolev_norm(0)
    assert abs(l2 - 5.0) < 1e-12 and abs(s0 - l2) < 1e-12
    with pytest.raises(ValueError):
        phi.sobolev_norm(-1)


def test_vector_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in (0, 1, 2, 17, 1000):
        real = rng.standard_normal(size)
        complex_ = real + 1j * rng.standard_normal(size)
        for x in (real, complex_, np.ones(size), complex_[::3], complex_.imag):
            assert _norm(x) == np.linalg.norm(x)
            assert type(_norm(x)) is type(np.linalg.norm(x))


def test_coefficients_merge_by_normal_form(da3):
    phi = GroupFunction(da3, {"aba": 1.0, "bab": 2.0})
    assert len(phi) == 1
    assert phi["aba"] == 3.0
    zero = GroupFunction(da3, {"ab": 1.0, "ba": 0.0})
    assert zero.support() == [W("ab")]


def test_convolution_unit_and_support(da3, ball6):
    chi1 = GroupFunction.sphere_indicator(da3, ball6, 1)
    unit = GroupFunction.atom(da3, da3.identity)
    assert (chi1 * unit).coeffs == chi1.coeffs
    assert (unit * chi1).coeffs == chi1.coeffs
    conv = chi1 * chi1
    assert {len(w) for w in conv.support()} <= {0, 1, 2}
    # exact support window over seeded random functions
    rng = np.random.default_rng(3)
    for k, l in ((1, 2), (2, 2), (2, 3)):
        phi = GroupFunction(
            da3, {ball6.words[i]: rng.standard_normal() for i in ball6.sphere(k)}
        )
        psi = GroupFunction(
            da3, {ball6.words[i]: rng.standard_normal() for i in ball6.sphere(l)}
        )
        prod = phi * psi
        for w in prod.support():
            assert abs(k - l) <= len(w) <= k + l


def test_convolution_associativity_sampled(da3):
    rng = np.random.default_rng(8)
    words = [W("a"), W("ab"), W("B"), W("ba")]
    fs = []
    for _ in range(3):
        fs.append(
            GroupFunction(da3, {w: complex(rng.standard_normal()) for w in words})
        )
    f, g, h = fs
    lhs = (f * g) * h
    rhs = f * (g * h)
    assert lhs.support() == rhs.support()
    for w in lhs.support():
        assert abs(lhs[w] - rhs[w]) < 1e-9


def test_length_function_axioms(da3):
    ball = da3.ball(4)
    assert len(da3.identity) == 0
    for idx in range(len(ball)):
        g = ball.element(idx)
        assert len(g.inv()) == len(g)
    for i in range(len(ball)):
        g = ball.element(i)
        for j in range(0, len(ball), 5):
            h = ball.element(j)
            assert len(g * h) <= len(g) + len(h)


def test_projection_edges(da3, ball6):
    chi2 = GroupFunction.sphere_indicator(da3, ball6, 2)
    # p = 0 is the pointwise absolute value
    pr0 = projection(chi2, ball6, 0, "right")
    assert pr0.coeffs == chi2.coeffs
    # p = k concentrates at the identity
    g = da3.element("ab")
    atom = GroupFunction.atom(da3, g, 2.0)
    prk = projection(atom, ball6, 2, "right")
    assert set(prk.support()) <= {()}
    if prk.support():
        assert abs(prk[da3.identity] - 2.0) < 1e-12


def test_projection_inequality_random(da3, ball6):
    rng = np.random.default_rng(17)
    for k, p in ((3, 1), (4, 2), (5, 2)):
        for _ in range(20):
            phi = GroupFunction(
                da3,
                {
                    ball6.words[i]: complex(rng.standard_normal(), rng.standard_normal())
                    for i in ball6.sphere(k)
                },
            )
            for side in ("right", "left"):
                projection(phi, ball6, p, side)  # raises on violation


def test_projection_against_fact_counts(da3, ball6):
    counts = permissible_fact_counts(da3, ball6, 2, 2)
    fsup, witness = permissible_fact_sup(da3, ball6, 2, 2)
    assert fsup == max(counts.values())
    assert counts[ball6.index[witness]] == fsup


def random_function(group, ball, ids, rng):
    return GroupFunction(
        group, {ball.words[i]: complex(*rng.standard_normal(2)) for i in ids}
    )


@pytest.mark.parametrize("name, radius", [("da3", 3), ("triangle345", 2)])
def test_convolution_matches_element_double_sum(stash, name, radius):
    # the convolution against sum phi(u) psi(v) at the oracle's form of uv
    group = stash.group(name)
    oracle = stash.oracle(name)
    ball = group.ball(radius)
    rng = np.random.default_rng(11)
    for _ in range(3):
        phi, psi = (
            random_function(group, ball, rng.choice(len(ball), len(ball) // 2, False), rng)
            for _ in range(2)
        )
        direct = {}
        for u, cu in phi.items():
            for v, cv in psi.items():
                w = oracle.canon(u + v)
                direct[w] = direct.get(w, 0) + cu * cv
        conv = phi * psi
        assert len({len(w) for w in phi.support()}) > 1  # mixed spheres
        for w in set(direct) | set(conv.coeffs):
            assert abs(conv[w] - direct.get(w, 0)) < 1e-12


def test_convolution_of_long_atoms_builds_no_ball(monkeypatch):
    # the cost of a convolution follows the supports: two length-6 atoms
    # multiply to the atom at their product without enumerating a ball
    def no_ball(self, radius):
        raise AssertionError(f"convolution built a ball of radius {radius}")

    monkeypatch.setattr(ArtinGroup, "ball", no_ball)
    group = ArtinGroup(load_preset("da3"))
    phi = GroupFunction.atom(group, "ababab", 2.0)
    psi = GroupFunction.atom(group, "bababa", 3j)
    conv = phi * psi
    assert conv.coeffs == {Oracle(group.pres).canon(W("abababbababa")): 6j}


@pytest.mark.parametrize("name, radius", [("da3", 6), ("triangle345", 4)])
def test_projection_matches_definition(stash, name, radius):
    # the pair table against g = u h^-1 (right) or h^-1 u (left), |g| = k - p
    group = stash.group(name)
    ball = group.ball(radius)
    rng = np.random.default_rng(5)
    for k in range(1, min(radius, 5) + 1):
        sphere = ball.sphere(k)
        phi = random_function(group, ball, rng.choice(sphere, min(len(sphere), 40), False), rng)
        for p in range(k + 1):
            sphere_p = [ball.element(i) for i in ball.sphere(p)]
            for side in ("right", "left"):
                direct = {}
                for u, cu in phi.items():
                    ue = group.element(u)
                    for h in sphere_p:
                        g = ue * h.inv() if side == "right" else h.inv() * ue
                        pair = (g, h) if side == "right" else (h, g)
                        if len(g) == k - p and group.permissible(*pair):
                            direct[g.word] = direct.get(g.word, 0.0) + abs(cu) ** 2
                proj = projection(phi, ball, p, side)
                assert set(proj.support()) == set(direct), (k, p, side)
                for w, v in direct.items():
                    assert abs(proj[w] - np.sqrt(v)) < 1e-12


def test_fact_counts_match_oracle(stash):
    # triangle444 r5 rejects no geodesic pair, so there a count that ignored
    # permissibility would pass; the da4 r8 cells (4, 4) and (3, 5) reject some
    cases = [
        ("triangle444", 5, [(k, l) for k in range(6) for l in range(6 - k)]),
        ("da4", 8, [(4, 4), (3, 5)]),
    ]
    for name, radius, cells in cases:
        group = stash.group(name)
        ball = group.ball(radius)
        oracle_ball = stash.oracle_ball(name, radius)

        def permissible(w1, w2):
            return group.permissible(group.element(w1), group.element(w2))

        for k, l in cells:
            counts = permissible_fact_counts(group, ball, k, l)
            assert set(counts) <= set(ball.sphere(k + l))
            fewer = 0
            for g in ball.sphere(k + l):
                idx = oracle_ball.index[ball.words[g]]
                want, _ = oracle_ball.fact_count(idx, k, l, permissible)
                assert counts.get(g, 0) == want, (name, k, l, ball.words[g])
                fewer += want < oracle_ball.fact_count(idx, k, l)[0]
            if name == "da4":
                assert fewer > 0, (k, l)


def check_pairs_against_the_per_pair_filter(group, ball, k, l, monkeypatch):
    """
    Assert that permissible_pairs gives, in the same row-major order, the pairs
    that asking group.permissible of every geodesic pair gives; return the
    number of rejected geodesic pairs and the calls permissible_pairs made.
    """
    asked = group.permissible
    us, vs = ball.sphere(k), ball.sphere(l)
    geodesic = [
        (u, v, g)
        for (u, v), g in zip(itertools.product(us, vs), ball.products(us, vs))
        if ball.length[g] == k + l
    ]
    want = [(u, v, g) for u, v, g in geodesic if asked(ball.element(u), ball.element(v))]
    calls = []
    monkeypatch.setattr(group, "permissible", lambda *p: calls.append(p) or asked(*p))
    got = permissible_pairs(group, ball, k, l)
    monkeypatch.undo()
    assert list(zip(*(x.tolist() for x in got))) == want, (k, l)
    return len(geodesic) - len(want), len(calls)


@pytest.mark.parametrize(
    "name, radius",
    [
        ("triangle444", 5),
        ("triangle345", 4),
        ("counterexample433", 4),
        ("da3", 6),
        ("da4", 5),
        ("dainf", 4),
    ],
)
def test_permissible_pairs_equal_the_per_pair_filter(stash, name, radius, monkeypatch):
    # one verdict per class of facing divisors, on every cell k + l <= radius
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = group.ball(radius)
    for k in range(radius + 1):
        for l in range(radius + 1 - k):
            _, calls = check_pairs_against_the_per_pair_filter(group, ball, k, l, monkeypatch)
            if name == "dainf":  # no finite pair: every geodesic pair is one class
                assert calls == 1, (k, l)


@pytest.mark.parametrize(
    "name, radius, k, l",
    [
        ("triangle444", 6, 3, 3),
        ("triangle345", 6, 3, 3),
        ("counterexample433", 6, 3, 3),
        ("da3", 9, 4, 5),
        ("da4", 8, 4, 4),
    ],
)
def test_permissible_pairs_keep_the_rejections(stash, name, radius, k, l, monkeypatch):
    # the cells of the test above hold no rejected geodesic pair, so a class
    # route that merged classes would pass there; each cell here holds some
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = group.ball(radius)
    rejected, _ = check_pairs_against_the_per_pair_filter(group, ball, k, l, monkeypatch)
    assert rejected > 0


def test_star_star_trials_properties(da3, ball6):
    # k = 0: convolving with a function on the identity scales, ratio <= 1
    rows = star_star_trials(da3, ball6, 0, 2, [2], 5, seed=1)
    assert rows and max(r["ratio"] for r in rows) <= 1.0 + 1e-12
    # m outside [|k-l|, k+l] gives an empty convolution sphere
    rows = star_star_trials(da3, ball6, 1, 2, [6], 3, seed=1)
    assert rows and max(r["ratio"] for r in rows) == 0.0
    # determinism under a fixed seed
    a = star_star_trials(da3, ball6, 2, 2, [2], 10, seed=9)
    b = star_star_trials(da3, ball6, 2, 2, [2], 10, seed=9)
    assert a == b
    # one call over every m returns, m by m, the records of the single-m calls
    k, l = 1, 3
    ms = range(l - k, k + l + 1)
    single = [r for m in ms for r in star_star_trials(da3, ball6, k, l, [m], 4, seed=2)]
    assert star_star_trials(da3, ball6, k, l, ms, 4, seed=2) == single
    assert [r["m"] for r in single] == [m for m in ms for _ in range(len(single) // len(ms))]


def reference_ratios(group, ball, k, l, m, trials, seed):
    """(trial, ratio) pairs by the per-m np.add.at kernel that bincount replaced."""
    ck, cl = ball.sphere(k), ball.sphere(l)
    if not ck or not cl:
        return []
    prods = np.array(ball.products(ck, cl), dtype=np.int64).reshape(len(ck), len(cl))
    mask = np.asarray(ball.length)[prods] == m
    cells, slot = np.unique(prods[mask], return_inverse=True)

    def ratio(fu, fv):
        acc = np.zeros(len(cells), dtype=complex)
        np.add.at(acc, slot, np.outer(fu, fv)[mask])
        num = np.sqrt(np.sum(np.abs(acc) ** 2))
        den = np.linalg.norm(fu) * np.linalg.norm(fv)
        return float(num / den) if den else 0.0

    rng = np.random.default_rng(seed)
    vecs = [
        ("all-ones", np.ones(len(ck)), np.ones(len(cl))),
        ("single-atom", np.eye(1, len(ck), 0).ravel(), np.eye(1, len(cl), 0).ravel()),
    ]
    multi_k, multi_l = (
        np.array([float(len(group.engine.geodesic_words(ball.element(i))) > 1) for i in ids])
        for ids in (ck, cl)
    )
    if multi_k.any() and multi_l.any():
        vecs.append(("multi-spelling", multi_k, multi_l))
    for t in range(trials):
        fu = rng.standard_normal(len(ck)) + 1j * rng.standard_normal(len(ck))
        fv = rng.standard_normal(len(cl)) + 1j * rng.standard_normal(len(cl))
        vecs.append((f"random-{t}", fu, fv))
    return [(name, ratio(fu, fv)) for name, fu, fv in vecs]


@pytest.mark.parametrize("name, radius", [("da3", 6), ("triangle345", 4)])
def test_trial_kernel_matches_add_at_reference(stash, name, radius):
    # bincount adds each cell's terms in the order np.add.at did: equal floats
    group = stash.group(name)
    ball = group.ball(radius)
    want_rows = []
    for k in range(radius + 1):
        for l in range(k, radius - k + 1):
            ms = range(l - k, k + l + 1)
            got = star_star_trials(group, ball, k, l, ms, 3, seed=4)
            want = [(m, t, r) for m in ms for t, r in reference_ratios(group, ball, k, l, m, 3, 4)]
            assert [(r["m"], r["trial"], r["ratio"]) for r in got] == want, (k, l)
            for m in ms:
                best = max((r for mm, _, r in want if mm == m), default=None)
                if best is not None:
                    want_rows.append((name, k, l, m, round(best, 12)))
    assert rd_check(group, radius, 3, 4, name)[0] == want_rows


def reference_operator_norms(phi, radii, iterations):
    """operator_norm_profile by the per-row np.add.at loop that bincount replaced."""
    big = phi.group.ball(max(radii) + max(map(len, phi.coeffs)))
    rows, coeff = phi._on(big)
    out, x, best = [], None, 0.0
    for R in radii:
        inner = range(bisect_right(big.length, R))
        prods = np.array(big.products(rows, inner), dtype=np.int64)
        scatter = list(prods.reshape(len(rows), len(inner)))
        x = np.ones(len(inner), dtype=complex) if x is None else np.pad(x, (0, len(inner) - len(x)))
        for _ in range(iterations):
            nx = np.linalg.norm(x)
            if nx == 0:
                break
            x = x / nx
            y = np.zeros(len(big), dtype=complex)
            for c, sc in zip(coeff, scatter):
                np.add.at(y, sc, c * x)
            best = max(best, float(np.linalg.norm(y)))
            x = np.zeros(len(inner), dtype=complex)
            for c, sc in zip(coeff, scatter):
                x += np.conj(c) * y[sc]
        out.append((R, best))
    return out


def test_operator_norm_kernel_matches_add_at_reference(stash, da3, ball6):
    # a complex phi on two spheres, warm-started over three radii, and dainf
    rng = np.random.default_rng(8)
    phi = random_function(da3, ball6, [*ball6.sphere(1), *ball6.sphere(2)], rng)
    assert operator_norm_profile(phi, [2, 3, 4], 25) == reference_operator_norms(phi, [2, 3, 4], 25)
    free = stash.group("dainf")
    chi = GroupFunction.sphere_indicator(free, free.ball(1), 1)
    assert operator_norm_profile(chi, [2, 4], 30) == reference_operator_norms(chi, [2, 4], 30)


def test_operator_norm_atom_and_scaling(da3):
    atom = GroupFunction.atom(da3, da3.element("ab"))
    est = operator_norm_profile(atom, [3], 10)[0][1]
    assert abs(est - 1.0) < 1e-12
    phi = GroupFunction(da3, {"a": 1.0, "B": 0.5})
    e1 = operator_norm_profile(phi, [3], 30)[0][1]
    e2 = operator_norm_profile(phi.scale(-2.5), [3], 30)[0][1]
    assert abs(e2 - 2.5 * e1) < 1e-9
    assert operator_norm_profile(phi, []) == []


def test_operator_norm_free_group(stash):
    free = stash.group("dainf")
    chi = GroupFunction.sphere_indicator(free, free.ball(1), 1)
    prof = operator_norm_profile(chi, [2, 4, 6, 8], iterations=60)
    values = [v for _, v in prof]
    limit = 2 * np.sqrt(3)
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    assert all(v <= limit + 1e-9 for v in values)
    assert values[-1] > 3.25
    # cross-check the restricted operator against a dense singular value
    est5 = operator_norm_profile(chi, [5], 200)[0][1]
    big = free.ball(6)
    inner = [i for i in range(len(big)) if big.length[i] <= 5]
    M = np.zeros((len(big), len(inner)))
    for col, idx in enumerate(inner):
        for w, c in chi.items():
            M[big.walk(big.index[w], big.words[idx]), col] += c.real
    sigma = np.linalg.svd(M, compute_uv=False)[0]
    assert est5 <= sigma + 1e-9
    assert abs(est5 - sigma) < 1e-6


def test_ratio_table_regression_fixture(tmp_path):
    # the committed fixture pins the ratio table across versions
    from pathlib import Path

    from artingeo.cli import main

    out = tmp_path / "rd"
    assert (
        main(
            [
                "--preset", "da3", "--out", str(out),
                "rd-check", "--radius", "4", "--trials", "10", "--seed", "7",
            ]
        )
        == 0
    )
    fixture = Path(__file__).parent / "fixtures" / "rd_da3_radius4_trials10_seed7.csv"
    assert (out / "rd.csv").read_bytes() == fixture.read_bytes()
