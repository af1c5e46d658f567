"""Multi-generator engine: normal forms, divisors, permissibility, merging."""

import random

import pytest

from artingeo.largetype import (
    ArtinGroup,
    HypothesisError,
    MergerTriple,
    OnetailFailure,
    STResult,
    _pair_prefix,
)
from artingeo.presentation import INF, CoxeterPresentation
from artingeo.shortlex import ShortlexEngine, default_order
from artingeo.words import inverse_word, names, parse_word, syllable_count

from conftest import freely_reduced_words, merge_row, rename

W = parse_word


@pytest.fixture(scope="module")
def g345(stash):
    return stash.group("triangle345")


@pytest.fixture(scope="module")
def g444(stash):
    return stash.group("triangle444")


def test_engine_requires_large_type():
    with pytest.raises(ValueError):
        ArtinGroup(CoxeterPresentation.dihedral(2))


def test_group_axioms(g345):
    g = g345.element("acab")
    assert g * g.inv() == g345.identity
    assert len(g345.identity) == 0
    h = g345.element("bc")
    assert (g * h).inv() == h.inv() * g.inv()


def test_shortlex_fixed_point(g345):
    nf = g345.engine.nf("aBBAcbbCBacaacA")
    assert g345.engine.nf(nf) == nf
    assert len(nf) == 13
    # prefixes of normal forms are normal forms
    for i in range(len(nf)):
        assert g345.engine.nf(nf[:i]) == nf[:i]


def test_is_geodesic_matches_oracle_small(g345, stash):
    oracle = stash.oracle("triangle345")
    for w in freely_reduced_words(3, 4):
        assert g345.engine.is_geodesic(w) == (oracle.geodesic_length(w) == len(w))


def test_engine_oracle_agree_on_555():
    # normal-form equality coincides with oracle equality at length <= 6
    from artingeo.oracle import Oracle

    pres = CoxeterPresentation.from_labels(3, {(1, 2): 5, (1, 3): 5, (2, 3): 5})
    group = ArtinGroup(pres)
    oracle = Oracle(pres)
    from conftest import all_words

    for w in all_words(3, 6):
        assert group.engine.nf(w) == oracle.canon(w), w


def test_final_and_initial_letters(g345, stash):
    d = g345.element("aba")  # Delta of the m = 3 pair
    assert g345.engine.final_letters(d) == {1, 2}
    assert g345.engine.initial_letters(d) == {1, 2}
    assert g345.engine.final_letters(g345.element("aa")) == {1}
    with pytest.raises(ValueError):
        g345.engine.final_letters(g345.identity)
    # against geodesic enumeration at radius 4
    ball = stash.oracle_ball("triangle345", 4)
    for idx in range(1, len(ball)):
        expected = ball.final_letters_of(idx)
        got = g345.engine.final_letters(g345.element(ball.words[idx]))
        assert got == expected
        assert len(got) <= 2
        if len(got) == 2:
            a, b = sorted(got)
            assert abs(a) != abs(b)


def test_ld_rd_examples(stash):
    g433 = stash.group("counterexample433", allow_counterexample=True)
    g = g433.element("babacabab")
    assert g433.ld(g, 1, 2) == g433.element("baba")
    assert g433.ld(g, 2, 1) == g433.element("baba")
    # whole element when it lies in the subgroup
    h = g433.element("abab")
    assert g433.ld(h, 1, 2) == h and g433.rd(h, 1, 2) == h
    # identity divisor always exists
    assert g433.ld(g433.element("c"), 1, 2) == g433.identity
    assert g433.rd(g, 1, 2) == g433.ld(g.inv(), 1, 2).inv()


def test_ld_matches_oracle_divisors(g345, stash):
    ball = stash.oracle_ball("triangle345", 4)
    for idx in range(len(ball)):
        g = g345.element(ball.words[idx])
        divisors = ball.left_divisors(idx)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            in_sub = [
                d
                for d in divisors
                if any(
                    set(abs(a) for a in wrep) <= {i, j}
                    for wrep in ball.geodesic_words_of(d)
                )
            ]
            best = max(ball.length[d] for d in in_sub)
            top = {d for d in in_sub if ball.length[d] == best}
            assert len(top) == 1, (g, i, j)
            (d,) = top
            assert g345.ld(g, i, j) == g345.element(ball.words[d])


@pytest.mark.parametrize("name", ["triangle345", "da4", "dainf", "counterexample433"])
def test_left_divisor_words_are_the_geodesic_left_divisors(stash, name):
    # x is listed for f exactly when |x^-1 f| = |f| - |x|, and the length-j
    # members are the inverses of the length-j right divisors of f^-1
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    engine = group.engine
    ball = group.ball(4)
    elements = [ball.element(idx) for idx in range(len(ball))]
    for f in elements:
        heads = engine.left_divisor_words(f)
        for x in elements:
            if len(x) > len(f):
                break  # ids are breadth-first
            assert (x.word in heads) == (len(x.inv() * f) == len(f) - len(x)), (name, f, x)
        for j in range(len(f) + 1):
            tails = engine.right_divisor_words(f.inv(), j)
            assert {w for w in heads if len(w) == j} == {engine.nf(inverse_word(w)) for w in tails}


@pytest.mark.parametrize(
    "name, radius",
    [("da3", 8), ("da4", 6), ("triangle345", 4), ("triangle444", 5), ("counterexample433", 4)],
)
def test_extend_and_divisor_words_match_the_full_repair(stash, name, radius):
    # extend runs only the lex repair, so check it against the full repair of
    # engines it never wrote to: on every outward cell, and through the
    # divisor words that the ball's engine now builds with it
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    engine, ball = group.engine, group.ball(radius)
    cold, fresh = ShortlexEngine(group.pres), ShortlexEngine(group.pres)
    for u, w in enumerate(ball.words):
        for a in ball.letters:
            if len(w) < radius and ball.length[ball.step(u, a)] == len(w) + 1:
                want = fresh.append(w, a)
                assert cold.extend(w, a) == ball.words[ball.step(u, a)] == want, (name, w, a)
        g = ball.element(u)
        spellings = engine.geodesic_words(g)
        heads = {fresh.nf(s[:k]) for s in spellings for k in range(len(w) + 1)}
        assert engine.left_divisor_words(g) == heads, (name, w)
        for j in range(len(w) + 1):
            tails = {fresh.nf(s[len(s) - j :]) for s in spellings}
            assert set(engine.right_divisor_words(g, j)) == tails, (name, w, j)


@pytest.mark.parametrize(
    "name, radius",
    [("triangle444", 5), ("triangle345", 4), ("counterexample433", 4), ("da4", 6)],
)
def test_ld_is_the_longest_pair_word_among_the_left_divisors(stash, name, radius):
    # LD_ij(g), read off a reordered engine's normal form, is the one longest
    # {i,j}-word among the geodesic left divisors of g under the default order
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = group.ball(radius)
    for idx in range(len(ball)):
        g = ball.element(idx)
        heads = group.engine.left_divisor_words(g)
        for i, j in group.pres.pairs():
            pair_words = [w for w in heads if names(w) <= {i, j}]
            longest = max(map(len, pair_words))
            (top,) = [w for w in pair_words if len(w) == longest]
            assert group.ld(g, i, j).word == top, (name, g.word, i, j)


def ld_from_oracle(ball, idx, i, j):
    """LD_ij of oracle-ball element idx: the one longest left divisor spelled in names i and j."""
    pair = [d for d in ball.left_divisors(idx) if names(ball.words[d]) <= {i, j}]
    longest = max(ball.length[d] for d in pair)
    (top,) = [d for d in pair if ball.length[d] == longest]
    return top


def rd_from_oracle(ball, idx, i, j):
    """RD_ij of oracle-ball element idx, as LD_ij of the inverse, inverted."""
    return ball.inverse(ld_from_oracle(ball, ball.inverse(idx), i, j))


@pytest.mark.parametrize(
    "name, radius", [("triangle444", 5), ("da4", 6), ("counterexample433", 4)]
)
def test_ld_shortcut_and_rd_memo_match_the_oracle_divisors(stash, name, radius):
    # ld returns an element equal to g when g is spelled in names i and j, and
    # re-reduces under a reordered engine otherwise; the memoised rd is ld of
    # the inverse.
    # The reference reads the oracle ball's divisors, whose ids and words are
    # the engine ball's
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball, oracle = group.ball(radius), stash.oracle_ball(name, radius)
    assert ball.words == oracle.words
    shortcut = reordered = 0
    for idx in range(len(ball)):
        g = ball.element(idx)
        for i, j in group.pres.pairs():
            if names(g.word) <= {i, j}:
                shortcut += 1
            else:
                reordered += 1
            ld_ref = oracle.words[ld_from_oracle(oracle, idx, i, j)]
            assert group.ld(g, i, j).word == ld_ref, (name, g, i, j)
            rd = group.rd(g, i, j)
            assert rd == group.ld(g.inv(), i, j).inv(), (name, g, i, j)
            assert rd.word == oracle.words[rd_from_oracle(oracle, idx, i, j)], (name, g, i, j)
    # on two generators every element lies in G(1,2)
    assert shortcut > 0 and (reordered > 0) == (group.pres.n > 2)


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
def test_permissible_matches_the_per_pair_oracle_formula(stash, name, radius):
    # seeded pairs, geodesic or not, half of them drawn from the positive
    # elements so that Delta-decreasing rejections occur: the verdict read off
    # the facing tuples equals the one that reads each pair's divisors off
    # the oracle ball
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball, oracle = group.ball(radius), stash.oracle_ball(name, radius)
    assert ball.words == oracle.words
    positive = [idx for idx, w in enumerate(ball.words) if all(a > 0 for a in w)]
    finite = [p for p in group.pres.pairs() if group.pres.label(*p) is not INF]
    rng = random.Random(7)
    kinds = set()
    for t in range(600):
        pool = positive if t % 2 else range(len(ball))
        iu, iv = (rng.choice(pool) for _ in range(2))
        u, v = ball.element(iu), ball.element(iv)
        geodesic = len(u * v) == len(u) + len(v)
        want = geodesic and all(
            group.dihedral_ctx(i, j).permissible(
                group.element(oracle.words[rd_from_oracle(oracle, iu, i, j)]),
                group.element(oracle.words[ld_from_oracle(oracle, iv, i, j)]),
            )[0]
            for i, j in finite
        )
        assert group.permissible(u, v) == want, (name, u, v)
        kinds.add((geodesic, want))
    rejected = {(True, False)} if finite else set()
    assert kinds == {(False, False), (True, True)} | rejected


def test_ld_prime_cases(g345):
    g = g345.element("abab")  # inside G(1,2): case 1, LD' = g
    ldp, case, letter = g345.ld_prime(g, 1, 2)
    assert case == 1 and ldp == g
    # scan a small ball: every element lands in exactly one case
    for w in freely_reduced_words(3, 4):
        g = g345.element(w)
        ldp, case, letter = g345.ld_prime(g, 1, 2)
        assert case in (1, 2)
        if case == 2:
            assert letter is not None
            # LD = LD' a^s for some s > 0
            ld = g345.ld(g, 1, 2)
            rest = ldp.inv() * ld
            assert len(rest) > 0 and all(x == rest.word[0] for x in rest.word)


def ld_prime_by_spelling_prefixes(group, g, i, j):
    """(LD' word, case, tail letter) by the spelling-prefix rule, or the OnetailFailure letters."""
    ld = group.ld(g, i, j)
    reps = group.engine.geodesic_words(g)
    if all(group.engine.nf(w[: len(ld)]) == ld.word for w in reps):
        return ld.word, 1, None
    letters = set()
    for w in reps:
        rest = group.element(_pair_prefix(w, i, j)).inv() * ld
        if len(rest) == 0:
            continue
        if any(x != rest.word[0] for x in rest.word):
            return set()
        letters.add(rest.word[0])
    if len(letters) != 1:
        return letters
    (a,) = letters
    s = group.engine.strip_power(ld, group.element((-a,)))
    return (ld * group.element((-a,) * s)).word, 2, a


@pytest.mark.parametrize(
    "name, radius", [("triangle345", 4), ("counterexample433", 4), ("da4", 6)]
)
def test_ld_prime_matches_the_spelling_prefix_rule(stash, name, radius):
    # case 1 reads the left-divisor set: LD is the only left divisor of its
    # length exactly when every geodesic spelling has a prefix spelling LD
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = group.ball(radius)
    elements = [ball.element(idx) for idx in range(len(ball))]
    if name == "counterexample433":  # the unique-tail failure lies outside the ball
        elements.append(group.element("babacabab"))
    cases = set()
    for g in elements:
        for i, j in group.pres.pairs():
            try:
                ldp, case, letter = group.ld_prime(g, i, j)
                got = (ldp.word, case, letter)
                cases.add(case)
            except OnetailFailure as exc:
                got = exc.letters
                cases.add("failure")
            assert got == ld_prime_by_spelling_prefixes(group, g, i, j), (name, g.word, i, j)
    # on two generators every element lies in G(1,2), which is case 1
    assert 1 in cases and (2 in cases) == (group.pres.n > 2)
    assert ("failure" in cases) == (name == "counterexample433")


def test_ld_prime_guard_and_counterexample(stash):
    strict = stash.group("counterexample433")
    g = strict.element("babacabab")
    with pytest.raises(HypothesisError):
        strict.ld_prime(g, 1, 2)
    loose = stash.group("counterexample433", allow_counterexample=True)
    with pytest.raises(OnetailFailure) as exc:
        loose.ld_prime(g, 1, 2)
    assert exc.value.letters == {1, 2}


def test_permissible_multi(g345):
    g = g345.element("acab")
    assert g345.permissible(g, g345.identity)
    assert g345.permissible(g345.identity, g)
    # non-geodesic split
    assert not g345.permissible(g345.element("a"), g345.element("A"))
    # a Delta-decreasing split on the m = 3 pair must be rejected
    da = stash_delta_decreasing_pair(g345)
    if da is not None:
        assert not g345.permissible(*da)


def stash_delta_decreasing_pair(group):
    # (abab, abbab) is Delta-decreasing in DA(3); embed it via the 1,2 pair
    g1 = group.element("abab")
    g2 = group.element("abbab")
    if len(g1 * g2) == len(g1) + len(g2):
        return g1, g2
    return None


def test_merge_agrees_with_dihedral_on_pairs(stash):
    # merging two elements of G(i,j) agrees with merging them in DA(m_ij)
    # and renaming back, on every pair with k + l <= 4
    for name in ("triangle345", "triangle444"):
        G = stash.group(name)
        for i, j in G.pres.pairs():
            D = stash.group(f"da{G.pres.label(i, j)}")
            up = lambda w: rename(w, (1, 2), (i, j))
            ball = D.ball(4)
            for k in range(5):
                for l in range(5 - k):
                    for ui in ball.sphere(k):
                        d1 = ball.element(ui)
                        g1 = G.element(up(d1.word))
                        for vi in ball.sphere(l):
                            d2 = ball.element(vi)
                            t = G.merge(g1, G.element(up(d2.word)))
                            td = D.merge(d1, d2)
                            assert merge_row(t) == merge_row(td, up), (name, d1, d2)
                            assert t.pair == ((i, j) if td.pair else None)


def test_merge_full_cancellation(g345):
    g = g345.element("abc")
    t = g345.merge(g, g.inv())
    assert (t.f1, t.r, t.f2) == (g345.identity, 0, g345.identity)


def test_merge_invariants_sweep(g345):
    import itertools

    K = 4  # max finite label minus one
    words = [w for w in freely_reduced_words(3, 3) if g345.engine.nf(w) == w]
    for w1, w2 in itertools.product(words, repeat=2):
        g1, g2 = g345.element(w1), g345.element(w2)
        t = g345.merge(g1, g2)
        kk = min(len(g1), len(g2))
        assert abs(t.r) <= kk
        assert len(t.h1) <= K * kk and len(t.h2) <= K * kk
        mid = g345.middle_of(t)
        assert t.f1 * mid * t.f2 == g1 * g2
        assert t.h1 * t.h2 == mid
        assert g345.permissible(t.f1, t.h1)
        assert g345.permissible(t.h2, t.f2)


def test_merge_guard(stash):
    strict = stash.group("counterexample433")
    with pytest.raises(HypothesisError):
        strict.merge(strict.element("a"), strict.element("b"))


def test_build_s_t_and_bounds(g345):
    g = g345.element("ab")
    st = g345.build_s_t(g, 2, 2)
    assert st.size >= 1
    assert st.max_r <= 2
    # middles all lie in T and are Delta powers
    for t in st.triples.values():
        assert g345.middle_of(t).word in st.middles
    # no factorisation at impossible lengths
    assert g345.build_s_t(g, 0, 0).size == 0


# counterexample433 is the one shipped presentation with S2 triples up to
# radius 6 (24 d2-scan rows, all at (k, l) = (2, 4) or (4, 2))
@pytest.mark.parametrize(
    "name, word, k, l",
    [("triangle345", "ab", 2, 2), ("counterexample433", "cAbc", 2, 4)],
    ids=["triangle345", "counterexample433"],
)
def test_split_s_classification(stash, name, word, k, l):
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    g = group.element(word)
    st = group.build_s_t(g, k, l)
    dec = group.split_s(st, g)
    assert dec.events == []
    assert len(dec.all()) == st.size
    for w in dec.s0:
        assert w.triple.r == 0
        assert syllable_count(w.triple.f1.word) <= 1
        assert syllable_count(w.triple.f2.word) <= 1
    for w in dec.s1 + dec.s2:
        assert w.f1pp * w.fhat * w.f2pp == g
        assert syllable_count(w.fhat.word) >= 2
    for w in dec.s2:
        assert w.s2_witness is not None
        assert w.s2_witness["q"] <= 2
    if name == "counterexample433":
        assert (len(dec.s0), len(dec.s1), len(dec.s2)) == (0, 1, 1)
        w = dec.s2[0]
        assert w.pair == (1, 2)
        assert (w.f1pp.word, w.fhat.word, w.f2pp.word) == (W("AC"), W("ab"), W("cb"))
        wit = w.s2_witness
        assert (wit["c"], wit["q"], wit["e1"].word, wit["e2"].word) == (-3, 1, W("cA"), W("bc"))


def test_split_s_flags_non_mergers(g345):
    # triples that still admit a merge move trip the inner-merger check
    for w1, w2 in (("ab", "BA"), ("ab", "ab")):
        g1, g2 = g345.element(w1), g345.element(w2)
        t = MergerTriple(g1, None, 0, g2, g345.identity, g345.identity, ())
        st = STResult({t.key(): t}, set(), 0, 0)
        dec = g345.split_s(st, g1 * g2)
        assert any(e.endswith("inner triple admits a further move") for e in dec.events)


def test_split_s_sweep_small(g444):
    ball = g444.ball(4)
    for k, l in ((1, 2), (2, 2), (1, 3), (2, 1)):
        for gi in ball.sphere(max(0, k + l - 2)):
            g = ball.element(gi)
            st = g444.build_s_t(g, k, l)
            if st.size == 0:
                continue
            dec = g444.split_s(st, g)
            assert dec.events == [], (g, k, l, dec.events)


def test_fact_table_matches_inversion_reference(g444):
    # Fact_{k,l}(g) read off the ball equals, pair for pair, the table built
    # by inverting each u in C_k and keeping u^-1 g when it has length l
    R = 4
    ball = g444.ball(R)
    append = g444.engine.append

    def cofactor(z, w, k):
        """nf(z w) for z = nf(u^-1), or None once it cannot end within length R - k."""
        for i, a in enumerate(w):
            if len(z) - (len(w) - i) > R - k:
                return None
            z = append(z, a)
        return z if len(z) <= R - k else None

    for k in range(R + 1):
        inverses = [(u, g444.engine.nf(inverse_word(ball.words[u]))) for u in ball.sphere(k)]
        cofactors = {
            g: [(u, cofactor(z, ball.words[g], k)) for u, z in inverses]
            for g in range(len(ball))
        }
        for l in range(R + 1 - k):
            table = ball.fact_table(k, l)
            assert set(table) <= set(range(len(ball)))
            for g, pairs in cofactors.items():
                want = [(u, ball.index[h]) for u, h in pairs if h is not None and len(h) == l]
                assert table.get(g, []) == want, (g, k, l)


def test_no_common_divisor_lemma(g345):
    # if no nontrivial element of G(i,j) is a left divisor of g1 or a right
    # divisor of g2, then g1 g2 in G(i,j) forces g1 g2 = 1
    words = [w for w in freely_reduced_words(3, 3) if g345.engine.nf(w) == w]
    for w1 in words:
        g1 = g345.element(w1)
        for w2 in words:
            g2 = g345.element(w2)
            if len(g1) + len(g2) > 5:
                continue
            prod = g1 * g2
            for i, j in ((1, 2), (1, 3), (2, 3)):
                if g345.ld(prod, i, j) != prod:
                    continue  # product not in G(i,j)
                if len(g345.ld(g1, i, j)) or len(g345.rd(g2, i, j)):
                    continue
                assert len(prod) == 0, (g1, g2, i, j)


def test_geodesic_letter_powers(g345):
    # wa geodesic forces wa^k geodesic, swept for |w| <= 6, k <= 3
    for w in freely_reduced_words(3, 6):
        if not g345.engine.is_geodesic(w):
            continue
        for a in default_order(g345.pres.n):
            wa = w + (a,)
            if not g345.engine.is_geodesic(wa):
                continue
            for k in (2, 3):
                assert g345.engine.is_geodesic(w + (a,) * k), (w, a, k)


def test_rightward_sequence_changes_last_letter(g345, stash):
    # same-element geodesics with different last letters are linked by a
    # single rightward critical sequence
    from test_critical import rightward_chain_states

    ball = stash.oracle_ball("triangle345", 4)
    checked = 0
    for idx in range(1, len(ball)):
        reps = ball.geodesic_words_of(idx)
        lasts = {w[-1] for w in reps}
        if len(lasts) < 2:
            continue
        for v in reps:
            for target in lasts - {v[-1]}:
                states = rightward_chain_states(v, g345.engine.label, len(v), target)
                assert states, (v, target)
                res = states[-1][0]
                assert res[-1] == target and g345.engine.nf(res) == g345.engine.nf(v)
                checked += 1
    assert checked > 10


# -- the per-instance memo ------------------------------------------------------


def test_memo_returns_the_stored_object(g345):
    g = g345.element("acabcb")
    assert g345.ld(g, 1, 2) is g345.ld(g, 1, 2)
    assert g345.rd(g, 1, 2) is g345.rd(g, 1, 2)
    assert g345.facing(g, "left") is g345.facing(g, "left")
    assert g345.engine.geodesic_words(g) is g345.engine.geodesic_words(g)
    assert g345.dihedral_ctx(2, 1) is g345.dihedral_ctx(1, 2)
    ball = g345.ball(2)
    assert g345.ball(2) is ball and ball.fact_table(1, 1) is ball.fact_table(1, 1)


def test_memo_does_not_cache_errors(stash, g345):
    ctx = stash.dihedral(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="signed elements"):
            ctx.garside_power(ctx.element("aB"))
        with pytest.raises(ValueError, match="distinct"):
            g345.ld(g345.element("ab"), 1, 1)


def test_memo_keys_are_words(stash):
    # an element of another group's engine is looked up by its word, and
    # the answer is an element of the asking group's engine
    strict = stash.group("counterexample433")
    loose = stash.group("counterexample433", allow_counterexample=True)
    g = strict.element("babacabab")
    assert strict.ld(g, 1, 2).engine is strict.engine
    ld = loose.ld(g, 1, 2)
    assert ld.engine is loose.engine and ld.word == strict.ld(g, 1, 2).word
    # also when the element lies in G(i,j), so ld answers without a search
    fresh = ArtinGroup(strict.pres)
    assert fresh.ld(strict.element("abab"), 1, 2).engine is fresh.engine
    assert fresh.ld(fresh.element("abab"), 1, 2) == fresh.element("abab")


@pytest.mark.parametrize("question", ["dihedral_ctx", "ld", "rd", "ld_prime"])
@pytest.mark.parametrize("name", ["triangle345", "da3"])
def test_pair_questions_refuse_a_bad_pair(stash, name, question):
    group = stash.group(name)
    n = group.pres.n
    ask = getattr(group, question)
    element = () if question == "dihedral_ctx" else (group.element("ab"),)
    for (i, j), text in (
        ((1, 1), "distinct"),
        ((0, 2), f"generator 0 is not one of 1..{n}"),
        ((1, n + 1), f"generator {n + 1} is not one of 1..{n}"),
    ):
        with pytest.raises(ValueError, match=text):
            ask(*element, i, j)


def test_facing_refuses_an_unknown_side(g345):
    g = g345.element("acabcb")
    with pytest.raises(ValueError, match="rigth"):
        g345.facing(g, "rigth")


def test_group_elements_are_equal_by_engine_and_word(g345):
    a = g345.element("ab")
    # the same word in a second group of the same presentation
    assert ArtinGroup(g345.pres).element("ab") != a
    twin = g345.element("abcC")
    assert twin == a and twin is not a and hash(twin) == hash(a)
    assert len({a, twin, g345.element("ba")}) == 2
    assert a != a.word


def test_dropped_group_is_freed_without_the_cyclic_gc():
    # no cache may make a group, its engine or a reordered engine refer to
    # itself: with the cyclic GC off, reference counting alone frees them
    import gc
    import weakref

    from artingeo.presets import load_preset
    from artingeo.sweeps import d1_scan, d2_scan, rd_check

    gc.collect()
    gc.disable()
    try:
        group = ArtinGroup(load_preset("triangle345"))
        d1_scan(group, 4, (1, 2))
        d2_scan(group, 3)
        rd_check(group, 3, 2, 0)
        engines = [group.engine.reordered(i, j) for i, j in group.pres.pairs()]
        refs = [weakref.ref(x) for x in [group, group.engine, *engines]]
        del group, engines
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# -- four generators --------------------------------------------------------------

FOUR_GENERATOR_LABELS = {
    "extra-large": {(1, 2): 4, (1, 3): 4, (1, 4): 5, (2, 3): 4, (2, 4): 4, (3, 4): 6},
    # both spellings of an infinite label, so (1, 3) and (2, 4) are free pairs
    "two-free-pairs": {(1, 2): 4, (1, 3): INF, (1, 4): 5, (2, 3): 4, (2, 4): float("inf"), (3, 4): 6},
}


@pytest.mark.parametrize("name", sorted(FOUR_GENERATOR_LABELS))
def test_four_generators_engine_oracle_and_scans(name):
    from artingeo.oracle import Ball, Oracle
    from artingeo.sweeps import d1_scan, d2_scan

    group = ArtinGroup(CoxeterPresentation.from_labels(4, FOUR_GENERATOR_LABELS[name]))
    engine_ball = group.ball(4)
    oracle_ball = Ball(Oracle(group.pres), 4)
    assert engine_ball.words == oracle_ball.words
    assert engine_ball.adj == oracle_ball.adj
    rows, _ = d1_scan(group, 4)
    assert rows and all(value >= 1 for *_, value in rows)
    # the r = 0 inner-merger check hands _find_merge_move a free pair here
    rows, summary = d2_scan(group, 2)
    assert rows and summary["events"] == [] and summary["all_bounds_ok"]
