"""The brute-force layer: closure equality, balls, factorisation counts."""

import random

import pytest

from artingeo.oracle import Ball, Oracle, relator_closure, relator_equal
from artingeo.presentation import CoxeterPresentation
from artingeo.presets import PRESET_NAMES, load_preset
from artingeo.words import inverse_word, parse_word

from conftest import all_words, freely_reduced_words

W = parse_word


def test_canonical_form_basics(stash):
    orc = stash.oracle("da3")
    assert orc.canon("abaB") == W("ba")
    assert orc.canon("bab") == W("aba")
    assert orc.canon("") == ()
    assert orc.equal("aba", "bab")
    assert not orc.equal("ab", "ba")
    # canonical representatives are idempotent
    for w in all_words(2, 5):
        c = orc.canon(w)
        assert orc.canon(c) == c
        assert len(c) <= len(w)


def test_equality_is_an_equivalence(stash):
    orc = stash.oracle("da3")
    rng = random.Random(5)
    pool = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(7))) for _ in range(60)]
    for w in pool:
        assert orc.equal(w, w)
    for w1 in pool[:20]:
        for w2 in pool[:20]:
            assert orc.equal(w1, w2) == orc.equal(w2, w1)
            if orc.equal(w1, w2):
                for w3 in pool[:20]:
                    if orc.equal(w2, w3):
                        assert orc.equal(w1, w3)


def test_sphere_sizes(stash):
    # |C_0| = 1 and |C_1| = 2n in every presentation
    for name, n in (("da3", 2), ("da4", 2), ("triangle345", 3)):
        ball = stash.oracle_ball(name, 2)
        assert len(ball.sphere(0)) == 1
        assert len(ball.sphere(1)) == 2 * n
    # DA(3): 16 two-letter words, 4 cancel freely, no relations at length 2
    ball = stash.oracle_ball("da3", 2)
    assert len(ball.sphere(2)) == 12


def test_geodesic_length_vs_word_length(stash):
    orc = stash.oracle("da3")
    for w in all_words(2, 6):
        assert orc.geodesic_length(w) <= len(w)
        assert orc.is_geodesic(w) == (orc.geodesic_length(w) == len(w))


def test_ball_adjacency_consistency(stash):
    ball = stash.oracle_ball("da3", 5)
    orc = stash.oracle("da3")
    for idx in range(0, len(ball), 7):
        w = ball.words[idx]
        assert orc.canon(w) == w
        assert ball.length[idx] == len(w)
        for a in ball.letters:
            nxt = ball.step(idx, a)
            if nxt >= 0:
                assert orc.equal(w + (a,), ball.words[nxt])
        # closed under inversion
        assert ball.words[ball.inverse(idx)] == orc.canon(inverse_word(w))


def test_geodesic_word_enumeration_matches_tau_closure(stash):
    # oracle backward enumeration and the engine tau closure must agree
    ball = stash.oracle_ball("da3", 5)
    ctx = stash.dihedral(3)
    for idx in range(len(ball)):
        words = set(ball.geodesic_words_of(idx))
        closure = ctx.engine.geodesic_words(ctx.element(ball.words[idx]))
        assert words == set(closure), ball.words[idx]
    ball345 = stash.oracle_ball("triangle345", 4)
    group = stash.group("triangle345")
    for idx in range(len(ball345)):
        words = set(ball345.geodesic_words_of(idx))
        closure = group.engine.geodesic_words(group.element(ball345.words[idx]))
        assert words == set(closure), ball345.words[idx]


def test_relator_closure_spot_check(stash):
    da3 = CoxeterPresentation.dihedral(3)
    orc = stash.oracle("da3")
    rng = random.Random(11)
    pool = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(5))) for _ in range(12)]
    for w1 in pool:
        for w2 in pool:
            assert relator_equal(da3, w1, w2) == orc.equal(w1, w2), (w1, w2)
    p345 = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    o345 = stash.oracle("triangle345")
    small = [W("aba"), W("bab"), W("ab"), W("ca"), W("aB"), ()]
    for w1 in small:
        for w2 in small:
            assert relator_equal(p345, w1, w2) == o345.equal(w1, w2), (w1, w2)


def test_fact_counts(stash):
    ball = stash.oracle_ball("da3", 6)
    ctx = stash.dihedral(3)
    # Fact_{0,|g|}(g) = {(1, g)}
    some = ball.sphere(4)[0]
    count, pairs = ball.fact_count(some, 0, 4)
    assert count == 1 and pairs == [(0, some)]
    # Delta^2 at k = l = 3: the midpoints are the elements at distance 3
    # from both endpoints; recompute them by a direct breadth-first search
    d2 = ball.id_of(ctx.delta_power_word(2))
    count, pairs = ball.fact_count(d2, 3, 3)
    dist = {d2: 0}
    frontier = [d2]
    for depth in range(3):
        nxt = []
        for u in frontier:
            for a in ball.letters:
                v = ball.step(u, a)
                if v >= 0 and v not in dist:
                    dist[v] = depth + 1
                    nxt.append(v)
        frontier = nxt
    midpoints = {u for u, d in dist.items() if d == 3 and ball.length[u] == 3}
    assert {u for u, _ in pairs} == midpoints
    assert count == len(midpoints) > 0


def test_restricted_fact_counts_are_smaller(stash):
    ball = stash.oracle_ball("da3", 6)
    group = stash.group("da3")

    def permissible(w1, w2):
        return group.permissible(group.element(w1), group.element(w2))

    for g in ball.sphere(5)[:10]:
        full, _ = ball.fact_count(g, 2, 3)
        restr, _ = ball.fact_count(g, 2, 3, permissible=permissible)
        assert restr <= full


def test_relator_closure_is_bounded():
    da3 = CoxeterPresentation.dihedral(3)
    states = relator_closure(da3, W("ab"), slack=2)
    assert W("ab") in states
    assert all(len(w) <= 4 for w in states)


def test_oracle_length_bound_and_range():
    orc = Oracle(CoxeterPresentation.dihedral(3))
    with pytest.raises(ValueError):
        orc.canon((1, 2) * 33)
    # free reduction happens before the bound is applied
    assert orc.canon((1, -1) * 40) == ()
    with pytest.raises(ValueError):
        orc.canon((5,))


def test_ball_budget():
    from artingeo.oracle import BallBudgetError

    orc = Oracle(CoxeterPresentation.dihedral(3))
    with pytest.raises(BallBudgetError) as exc:
        Ball(orc, 6, max_elements=10)
    assert exc.value.complete_radius >= 1
    partial = exc.value.partial
    assert len(partial.sphere(1)) == 4
    # the partial is the prefix the enumeration already built, cut to the
    # complete radius exactly as a fresh ball of that radius
    R = exc.value.complete_radius
    full = Ball(orc, 6)
    assert partial.radius == R
    assert partial.words == full.words[: len(partial)]
    fresh = Ball(orc, R)
    assert partial.words == fresh.words
    assert partial.adj == fresh.adj
    assert partial.index == fresh.index


def test_engine_and_oracle_balls_agree_cell_by_cell(stash):
    # the two balls share the breadth-first bookkeeping but decide equality
    # independently (engine append versus oracle closure) on the outward
    # cells, the only ones that call append, so every id and every cell must
    # coincide; the inward and -1 cells both balls infer the same way from
    # length parity, and test_every_ball_cell_is_the_cell_append_decides
    # checks those
    for name, radius in (("da3", 5), ("triangle345", 4), ("triangle444", 4)):
        engine_ball = stash.group(name).ball(radius)
        oracle_ball = stash.oracle_ball(name, radius)
        assert engine_ball.words == oracle_ball.words, name
        assert engine_ball.adj == oracle_ball.adj, name


ENGINE_CELL_RADII = {"da3": 6, "da4": 6, "da5": 6, "dainf": 5}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_ball_cell_is_the_cell_append_decides(name, stash):
    # the breadth-first loop infers inward cells from the previous sphere and
    # last-sphere cells from length parity; decide every cell directly instead
    engine_ball = stash.group(name, allow_counterexample=name == "counterexample433").ball(
        ENGINE_CELL_RADII.get(name, 4)
    )
    oracle = stash.oracle(name)
    for ball, append in (
        (engine_ball, engine_ball.engine.append),
        (stash.oracle_ball(name, 3), lambda w, a: oracle.canon(w + (a,))),
    ):
        for u, w in enumerate(ball.words):
            for a in ball.letters:
                res = append(w, a)
                want = ball.index[res] if len(res) <= ball.radius else -1
                assert ball.step(u, a) == want, (name, ball.radius, w, a)


def test_ball_calls_append_only_on_outward_cells():
    from artingeo.shortlex import CayleyBall, ShortlexEngine

    # dainf is free: one outward cell reaches each of the |B_5| - 1 = 484
    # nontrivial elements
    for name, radius, calls_want in (("triangle444", 5, 4542), ("dainf", 5, 484)):
        engine = ShortlexEngine(load_preset(name))
        calls = []

        def counted(w, a):
            calls.append((w, a))
            return engine.append(w, a)

        ball = CayleyBall(counted, engine.pres.n, radius)
        outward = [
            (w, a)
            for u, w in enumerate(ball.words)
            for a in ball.letters
            if len(w) < radius and ball.length[ball.step(u, a)] == len(w) + 1
        ]
        assert calls == outward, name
        # on triangle444, a call on every cell would make 6 |B_5| = 26,394
        assert len(calls) == calls_want, name


def test_products_match_pairwise_walks(stash):
    ball = stash.oracle_ball("da3", 5)
    for k, l in ((0, 3), (2, 2), (1, 4), (3, 2)):
        us, vs = ball.sphere(k), ball.sphere(l)
        want = [ball.walk(u, ball.words[v]) for u in us for v in vs]
        assert ball.products(us, vs) == want
        assert min(want) >= 0
    engine_ball = stash.group("da3").ball(5)
    us, vs = engine_ball.sphere(2), engine_ball.sphere(3)
    assert engine_ball.products(us, vs) == ball.products(us, vs)
    assert ball.products([], vs) == []
    # refused whenever max|u| + max|v| exceeds the radius
    with pytest.raises(ValueError):
        ball.products(ball.sphere(3), ball.sphere(3))
    with pytest.raises(ValueError):
        ball.products([0, ball.sphere(5)[0]], [ball.sphere(1)[0]])


@pytest.mark.parametrize("name", ["da3", "da4"])
def test_engine_matches_oracle_on_all_words_of_length_8(name, stash):
    from artingeo.shortlex import ShortlexEngine

    engine = ShortlexEngine(stash.pres(name))
    oracle = stash.oracle(name)
    for w in freely_reduced_words(2, 8, 8):
        assert engine.nf(w) == oracle.canon(w), w


@pytest.mark.parametrize("name", ["triangle345", "triangle444", "counterexample433"])
def test_engine_matches_oracle_on_sampled_words(name, stash):
    # 5,000 seeded freely reduced words of 8-10 letters per group
    from artingeo.shortlex import ShortlexEngine

    pres = stash.pres(name)
    engine = ShortlexEngine(pres)
    oracle = stash.oracle(name)
    letters = [a for g in range(1, pres.n + 1) for a in (g, -g)]
    rng = random.Random(f"oracle-sample-{name}")
    for _ in range(5000):
        w = [rng.choice(letters)]
        for _ in range(rng.randint(7, 9)):
            w.append(rng.choice([a for a in letters if a != -w[-1]]))
        w = tuple(w)
        assert engine.nf(w) == oracle.canon(w), w
