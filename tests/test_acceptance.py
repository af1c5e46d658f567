"""
Acceptance suite: one test per criterion, at the criterion's stated scale,
printing one pass/fail line each (run with -s to see them live).

Criterion 9 is implemented exactly as stated and is expected to fail: the
measured F_P values do grow with k+l inside the tested window before they
saturate (F_P(1,1) = 1 < F_P(1,2) = 2 in da3, and F_P(1,2) = 1 < F_P(1,3) = 2
in da4 and triangle444, because elements shorter than the smallest label m
have unique geodesic spellings while the Garside element of a label-m pair
has two length-(1,m-1) factorisations), so a literal no-growth assertion
cannot hold; only boundedness at fixed min(k,l) does.
The reported table is printed by the test.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from artingeo.critical import classify_critical, tau
from artingeo.harmonic import (
    GroupFunction,
    permissible_fact_sup,
    projection,
)
from artingeo.largetype import OnetailFailure
from artingeo.presets import load_preset
from artingeo.sweeps import rd_check
from artingeo.words import (
    alt_ending,
    alt_starting,
    format_word,
    free_reduce,
    is_freely_reduced,
    parse_word,
)

from conftest import all_words, freely_reduced_words, rename

W = parse_word


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({desc}): FAIL")
        raise
    print(f"criterion {num:02d} ({desc}): PASS")


# -- 1: worked 15-to-13 reduction ------------------------------------------------


def test_criterion_01_paper_reduction(stash):
    with criterion(1, "worked reduction 15 -> 13 in (3,4,5)"):
        from artingeo.largetype import ArtinGroup

        group = ArtinGroup(load_preset("triangle345"))  # cold caches for timing
        t0 = time.perf_counter()
        nf = group.engine.nf("aBBAcbbCBacaacA")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"reduction took {elapsed:.3f}s"
        assert len(nf) == 13
        oracle = stash.oracle("triangle345")
        assert oracle.equal(nf, "BAACBccbaccac")
        # the displayed three-move sequence followed by one free cancellation
        w = W("aBBAcbbCBacaacA")
        for (s, e), m in (((0, 4), 3), ((3, 9), 5), ((8, 14), 4)):
            c = classify_critical(w[s:e], m)
            assert c is not None
            w = w[:s] + tau(c) + w[e:]
            assert len(w) == 15
        assert free_reduce(w) == W("BAACBccbaccac")


# -- 2: the unique-tail counterexample -------------------------------------------


def test_criterion_02_counterexample(stash):
    with criterion(2, "unique-tail failure in (4,3,3)"):
        from artingeo.largetype import ArtinGroup

        t0 = time.perf_counter()
        group = ArtinGroup(load_preset("counterexample433"), allow_counterexample=True)
        g = group.element("babacabab")
        assert group.ld(g, 1, 2) == group.element("baba")
        reps = {format_word(v) for v in group.engine.geodesic_words(g)}
        assert {"babcacbab", "abacbcaba"} <= reps
        with pytest.raises(OnetailFailure) as exc:
            group.ld_prime(g, 1, 2)
        assert exc.value.letters == {1, 2}
        assert time.perf_counter() - t0 < 10.0


# -- 3: engine and oracle agree on all short words ----------------------------------


def test_criterion_03_oracle_equivalence(stash):
    with criterion(3, "normal forms = oracle on words of length <= 6"):
        for name, n in (
            ("da3", 2),
            ("da4", 2),
            ("triangle345", 3),
            ("triangle444", 3),
        ):
            group = stash.group(name)
            oracle = stash.oracle(name)
            for w in all_words(n, 6):
                assert group.engine.nf(w) == oracle.canon(w), (name, w)


# -- 4: the dihedral geodesic criterion --------------------------------------------


def test_criterion_04_geodesic_criterion(stash):
    with criterion(4, "p + n <= m iff geodesic, length <= 8, DA(3) and DA(4)"):
        for m in (3, 4):
            ctx = stash.dihedral(m)
            oracle = stash.oracle(f"da{m}")
            for w in freely_reduced_words(2, 8):
                p, n = ctx.pn(w)
                assert (p + n <= m) == (oracle.geodesic_length(w) == len(w)), (m, w)


# -- 5: the tau calculus ---------------------------------------------------------------


def _critical_words(m, max_len):
    """Every critical word of length <= max_len for the label m, generated
    from the three shapes and filtered through the classifier."""
    letters4 = (1, -1, 2, -2)
    xis = [()]
    for L in range(1, max_len - m + 1):
        xis.extend(
            w for w in itertools.product(letters4, repeat=L) if is_freely_reduced(w)
        )
    out = set()
    orders = ((1, 2), (2, 1))
    for p in range(1, m):
        n = m - p
        for x, y in orders:
            for t, z in orders:
                for xi in xis:
                    if p + n + len(xi) > max_len:
                        continue
                    out.add(alt_starting(x, y, p) + xi + alt_ending(-t, -z, n))
                    out.add(alt_starting(-x, -y, n) + xi + alt_ending(t, z, p))
    pos_xis = [()]
    for L in range(1, max_len - m + 1):
        pos_xis.extend(itertools.product((1, 2), repeat=L))
    for sign in (1, -1):
        for x, y in orders:
            block = alt_starting(sign * x, sign * y, m)
            for xi in pos_xis:
                if m + len(xi) > max_len:
                    continue
                sxi = tuple(sign * a for a in xi)
                out.add(block + sxi)
                out.add(sxi + block)
    return {w for w in out if classify_critical(w, m) is not None}


def test_criterion_05_tau_calculus(stash):
    with criterion(5, "tau involution/element preservation and unsigned reduction"):
        # generator completeness against an exhaustive scan at length <= 7
        for m in (3, 4, 5):
            generated = {
                w for w in _critical_words(m, 7)
            }
            scanned = {
                w
                for w in freely_reduced_words(2, 7)
                if classify_critical(w, m) is not None
            }
            assert generated == scanned, f"critical generator incomplete for m={m}"
        # involution and element preservation on every critical word <= 10
        for m in (3, 4, 5):
            oracle = stash.oracle(f"da{m}")
            words = _critical_words(m, 10)
            assert len(words) > 200
            for w in words:
                c = classify_critical(w, m)
                image = tau(c)
                assert len(image) == len(w)
                c2 = classify_critical(image, m)
                assert c2 is not None and tau(c2) == w, w
                assert oracle.equal(w, image), w
        # strictly-between words reduce by unsigned moves alone
        for m in (3, 4):
            ctx = stash.dihedral(m)
            for w in freely_reduced_words(2, 8):
                p, n = ctx.pn(w)
                if not (0 < p < m and 0 < n < m):
                    continue
                out, log = ctx.reduce(w)
                assert all(entry["kind"] == "unsigned" for entry in log), w
                pp, nn = ctx.pn(out)
                assert pp + nn <= m


# -- 6: divisor structure over radius-6 balls ----------------------------------------


def _ambient_garside_power(group, g, i, j):
    m = int(group.pres.label(i, j))
    if len(g) == 0 or g.sign == "unsigned":
        return 0
    eps = 1 if g.sign == "positive" else -1
    inv_delta = group.dihedral_ctx(i, j).delta_elem(-eps)
    d, cur = 0, g
    while True:
        nxt = inv_delta * cur
        if len(nxt) != len(cur) - m:
            return d
        cur, d = nxt, d + 1


def test_criterion_06_divisor_structure(stash):
    with criterion(6, "final letters, LD/RD, two-syllable divisor counts, radius 6"):
        for name in ("triangle345", "triangle444"):
            group = stash.group(name)
            ball = stash.oracle_ball(name, 6)
            pairs = list(group.pres.pairs())
            for idx in range(len(ball)):
                g = group.element(ball.words[idx])
                if idx:
                    finals = group.engine.final_letters(g)
                    assert finals == ball.final_letters_of(idx)
                    assert len(finals) <= 2
                    if len(finals) == 2:
                        a, b = finals
                        assert abs(a) != abs(b)
                # unique maximal parabolic divisors, matching the oracle
                divisors = ball.left_divisors(idx)
                for i, j in pairs:
                    in_sub = [
                        d
                        for d in divisors
                        if any(
                            {abs(a) for a in rep} <= {i, j}
                            for rep in ball.geodesic_words_of(d)
                        )
                    ]
                    best = max(ball.length[d] for d in in_sub)
                    top = {d for d in in_sub if ball.length[d] == best}
                    assert len(top) == 1, (name, ball.words[idx], i, j)
                    (d,) = top
                    assert group.ld(g, i, j) == group.element(ball.words[d])
                    rd = group.rd(g, i, j)
                    rdiv = ball.right_divisors(idx)
                    in_sub_r = [
                        e
                        for e in rdiv
                        if any(
                            {abs(a) for a in rep} <= {i, j}
                            for rep in ball.geodesic_words_of(e)
                        )
                    ]
                    best_r = max(ball.length[e] for e in in_sub_r)
                    top_r = {e for e in in_sub_r if ball.length[e] == best_r}
                    assert top_r == {ball.index[rd.word]}
                # two-syllable right-divisor counts inside each parabolic
                for i, j in pairs:
                    if group.ld(g, i, j) != g or g.sign != "positive" or not len(g):
                        continue
                    bound = _ambient_garside_power(group, g, i, j) + 1
                    for l in range(0, len(g) + 1):
                        for first, second in ((i, j), (j, i)):
                            divs = set()
                            for s in range(0, l + 1):
                                h = group.element(
                                    (first,) * s + (second,) * (l - s)
                                )
                                if len(h) != l:
                                    continue
                                if len(g * h.inv()) == len(g) - l:
                                    divs.add(h.word)
                            assert len(divs) <= bound, (name, g, l, first)


# -- 7 and 8: merger bounds and compression soundness --------------------------------


@pytest.fixture(scope="module")
def merger_sweeps(stash):
    """All mergers of pairs with |g1| + |g2| <= 6, keyed by presentation."""
    out = {}
    for name in ("da3", "triangle444"):
        group = stash.group(name)
        ball = group.ball(6)
        mlabel = int(group.pres.max_finite_label())
        triples = {}
        for k in range(0, 7):
            for l in range(0, 7 - k):
                for ui in ball.sphere(k):
                    u = ball.element(ui)
                    for vi in ball.sphere(l):
                        v = ball.element(vi)
                        t = group.merge(u, v)
                        triples.setdefault(t.key(), (t, []))[1].append((k, l))
        out[name] = (group, mlabel, triples)
    return out


def test_criterion_07_merger_bounds(merger_sweeps):
    with criterion(7, "merger bounds over all pairs with k + l <= 6"):
        for name, (group, mlabel, triples) in merger_sweeps.items():
            K = mlabel - 1
            for key, (t, sources) in triples.items():
                for k, l in sources:
                    kk = min(k, l)
                    assert abs(t.r) <= kk, (name, key, k, l)
                    assert len(t.h1) <= K * kk and len(t.h2) <= K * kk, (name, key)
                assert group.permissible(t.f1, t.h1), (name, key)
                assert group.permissible(t.h2, t.f2), (name, key)
                mid = group.middle_of(t)
                assert t.h1 * t.h2 == mid, (name, key)


def test_criterion_08_compression(merger_sweeps, stash):
    with criterion(8, "compression of every merger triple from criterion 7"):
        compressed = 0
        skipped_multi = 0
        for name, (group, mlabel, triples) in merger_sweeps.items():
            oracle = stash.oracle(name)
            for key, (t, _sources) in sorted(triples.items(), key=repr):
                if group.pres.is_dihedral():
                    pair = (1, 2)
                else:
                    pair = t.pair
                    if pair is None:
                        pair = next(
                            (
                                (i, j)
                                for i, j in group.pres.pairs()
                                if group.ld(t.f1, i, j) == t.f1
                                and group.ld(t.f2, i, j) == t.f2
                            ),
                            None,
                        )
                    if pair is None or not (
                        group.ld(t.f1, *pair) == t.f1 and group.ld(t.f2, *pair) == t.f2
                    ):
                        # compression is the dihedral procedure; triples whose
                        # sides leave every 2-generator subgroup are out of its
                        # domain (see the decisions ledger)
                        skipped_multi += 1
                        continue
                dctx = group.dihedral_ctx(*pair)
                c = dctx.compress(t.f1, t.r, t.f2)
                target = t.f1 * dctx.delta_elem(t.r) * t.f2 if t.r else t.f1 * t.f2
                assert dctx.is_geodesic(c.word)
                assert dctx.element(c.word) == target
                da_oracle = stash.oracle(f"da{int(group.pres.label(*pair))}")
                down = lambda w: rename(w, pair, (1, 2))
                assert da_oracle.equal(down(c.word), down(target.word))
                if group.pres.is_dihedral():
                    assert oracle.equal(c.word, target.word)
                compressed += 1
        print(f"  compressed {compressed} triples ({skipped_multi} outside parabolics)")
        assert compressed > 500


# -- 9: the D1 measurement ------------------------------------------------------------


def test_criterion_09_d1_measurement(stash):
    with criterion(9, "F_P constant in k + l at fixed min(k,l) <= 3, radius 7"):
        tables = {}
        violations = []
        for name in ("da3", "da4", "triangle444"):
            group = stash.group(name)
            ball = group.ball(7)
            for mu in (1, 2, 3):
                series = []
                for l in range(mu, 8 - mu):
                    value, _ = permissible_fact_sup(group, ball, mu, l)
                    series.append((mu + l, value))
                tables[(name, mu)] = series
                print(f"  {name} min={mu}: F_P by k+l = {series}")
                for (s1, v1), (s2, v2) in zip(series, series[1:]):
                    if v2 > v1:
                        violations.append((name, mu, s1, v1, s2, v2))
        assert not violations, (
            "F_P grows with k+l inside the tested range before saturating; "
            "boundedness at fixed min(k,l), not monotone flatness, is what "
            "holds (note F_P(1,1)=1 < F_P(1,2)=2 in da3 and F_P(1,2)=1 < F_P(1,3)=2 "
            f"in da4 and triangle444, at the smallest label): {violations}"
        )


# -- 10: the harmonic layer -------------------------------------------------------------


def test_criterion_10_harmonic(stash):
    with criterion(10, "convolution support, projection bounds, stable tables"):
        group = stash.group("da3")
        ball = group.ball(6)
        rng = np.random.default_rng(2026)
        # exact support window
        for k, l in ((1, 1), (1, 2), (2, 3), (3, 3)):
            phi = GroupFunction(
                group,
                {
                    ball.words[i]: complex(*rng.standard_normal(2))
                    for i in ball.sphere(k)
                },
            )
            psi = GroupFunction(
                group,
                {
                    ball.words[i]: complex(*rng.standard_normal(2))
                    for i in ball.sphere(l)
                },
            )
            for w in (phi * psi).support():
                assert abs(k - l) <= len(w) <= k + l
        # projection norm inequality: 1000 seeded functions per (k, p)
        for k in range(1, 7):
            sphere_k = [ball.words[i] for i in ball.sphere(k)]
            for p in range(0, k + 1):
                incidence = {"right": [], "left": []}
                sphere_p = [ball.element(i) for i in ball.sphere(p)]
                for u in sphere_k:
                    ue = group.element(u)
                    for h in sphere_p:
                        if len(ue * h.inv()) == k - p and group.permissible(
                            ue * h.inv(), h
                        ):
                            incidence["right"].append(u)
                        if len(h.inv() * ue) == k - p and group.permissible(
                            h, h.inv() * ue
                        ):
                            incidence["left"].append(u)
                bounds = {
                    "right": permissible_fact_sup(group, ball, k - p, p)[0],
                    "left": permissible_fact_sup(group, ball, p, k - p)[0],
                }
                pos = {u: t for t, u in enumerate(sphere_k)}
                idx = {
                    side: np.array([pos[u] for u in incidence[side]], dtype=np.int64)
                    for side in incidence
                }
                coeffs = rng.standard_normal((1000, len(sphere_k))) + 1j * (
                    rng.standard_normal((1000, len(sphere_k)))
                )
                sq = np.abs(coeffs) ** 2
                totals = sq.sum(axis=1)
                for side in ("right", "left"):
                    lhs = sq[:, idx[side]].sum(axis=1) if len(idx[side]) else 0.0
                    assert np.all(lhs <= bounds[side] * totals + 1e-9), (k, p, side)
                # tie the vectorised check to the reference implementation
                phi = GroupFunction(
                    group, {u: complex(c) for u, c in zip(sphere_k, coeffs[0])}
                )
                for side in ("right", "left"):
                    ref = projection(phi, ball, p, side)
                    fast = float(
                        np.sqrt(sq[0][idx[side]].sum() if len(idx[side]) else 0.0)
                    )
                    assert abs(ref.l2_norm() - fast) < 1e-9
        # regression-stable ratio tables under a fixed seed
        rows1, _ = rd_check(group, 5, trials=25, seed=42, pres_id="da3")
        rows2, _ = rd_check(group, 5, trials=25, seed=42, pres_id="da3")
        assert rows1 == rows2


# -- 11: determinism of the campaign artifacts -------------------------------------------


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical artifacts under a fixed configuration"):
        from artingeo.cli import main

        for head, tail, files in (
            ([], ["repro-paper"], ["repro.json"]),
            (
                ["--preset", "da3"],
                ["d1-scan", "--radius", "5"],
                ["d1.csv", "d1_summary.json"],
            ),
            (
                ["--preset", "da3"],
                ["rd-check", "--radius", "4", "--trials", "10", "--seed", "7"],
                ["rd.csv", "rd_summary.json"],
            ),
            (
                ["--preset", "da3"],
                ["d2-scan", "--radius", "3"],
                ["d2.csv", "d2_summary.json"],
            ),
        ):
            outs = []
            for run_id in ("a", "b"):
                out = tmp_path / (files[0] + run_id)
                argv = head + ["--out", str(out)] + tail
                assert main(argv) == 0
                outs.append(out)
            for fname in files:
                b1 = (outs[0] / fname).read_bytes()
                b2 = (outs[1] / fname).read_bytes()
                assert b1 == b2, fname
