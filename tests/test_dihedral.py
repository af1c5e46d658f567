"""DA(m): geodesics, tau orbits, Garside powers, permissibility, merging."""

import hashlib
import itertools

import pytest

from artingeo.presentation import INF
from artingeo.shortlex import default_order
from artingeo.words import (
    format_word,
    free_reduce,
    is_freely_reduced,
    names,
    parse_word,
    runs,
    syllable_count,
)

from conftest import freely_reduced_words, merge_row, rename

W = parse_word


@pytest.fixture(scope="module")
def da3(stash):
    return stash.dihedral(3)


@pytest.fixture(scope="module")
def da4(stash):
    return stash.dihedral(4)


@pytest.fixture(scope="module")
def free(stash):
    return stash.dihedral(INF)


def test_pn_and_geodesic_status(da3, free):
    assert da3.pn(W("aba")) == (3, 0)
    assert da3.pn(W("abbA")) == (2, 1)
    assert da3.geodesic_status(W("aba")) == (True, False)
    assert da3.geodesic_status(W("ab")) == (True, True)
    assert da3.geodesic_status(W("abaB")) == (False, False)
    assert free.geodesic_status(W("aBab"))[0]


def test_geodesic_criterion_vs_oracle_small(da3, da4, stash):
    for m, ctx in ((3, da3), (4, da4)):
        oracle = stash.oracle(f"da{m}")
        for w in freely_reduced_words(2, 6):
            crit = ctx.is_geodesic(w)
            assert crit == (oracle.geodesic_length(w) == len(w)), (m, w)


def test_delta_conjugation_against_oracle(da3, da4, stash):
    # delta really is conjugation by the Garside element
    for m, ctx in ((3, da3), (4, da4)):
        oracle = stash.oracle(f"da{m}")
        delta = ctx.delta_power_word(1)
        inv = ctx.delta_power_word(-1)
        for a in (1, -1, 2, -2):
            conj = delta + (a,) + inv
            assert oracle.equal(conj, ctx.delta_word((a,))), (m, a)
            assert ctx.delta_word(ctx.delta_word((a,))) == (a,)
    # odd label swaps the names, even label fixes them
    assert da3.delta_word((1,)) == (2,)
    assert da4.delta_word((1,)) == (1,)


def test_delta_errors(da3, free):
    with pytest.raises(ValueError):
        free.delta_word((1,))
    with pytest.raises(ValueError):
        da3.delta_word(W("ac"))


def test_tau_examples_and_errors(da3, da4):
    assert format_word(da3.tau(W("aba"))) == "bab"
    assert format_word(da3.tau(W("abbA"))) == "Baab"
    assert format_word(da4.tau(W("abab"))) == "baba"
    with pytest.raises(ValueError):
        da3.tau(W("ab"))


def test_reduce_examples(da3, da4):
    out, log = da3.reduce(W("abaB"))
    assert out == W("ba") and len(log) == 1
    out, log = da3.reduce(W("ab"))
    assert out == W("ab") and log == []
    out, _ = da4.reduce(W("ababA"))
    assert len(out) == 3


def test_nf_respects_tau_orbits(da3):
    assert da3.engine.nf(W("bab")) == W("aba")
    assert da3.engine.nf(()) == ()
    for w in freely_reduced_words(2, 7):
        c = da3.classify_critical(w)
        if c is not None:
            assert da3.engine.nf(w) == da3.engine.nf(da3.tau(w))


def test_garside_power(da3, free):
    assert da3.garside_power(da3.element("aba")) == 1
    assert da3.garside_power(da3.element("ab")) == 0
    assert da3.garside_power(da3.delta_elem(2)) == 2
    assert da3.garside_power(da3.element("ABA")) == 1
    assert da3.garside_power(da3.element("")) == 0
    with pytest.raises(ValueError):
        da3.garside_power(da3.element("aB"))
    with pytest.raises(ValueError):
        free.garside_power(free.element("a"))


def test_delta_power_word_avoids_cancellation(da3):
    assert da3.delta_power_word(2) == W("abaaba")
    assert da3.delta_power_word(1, -2) == W("aba")
    assert da3.delta_power_word(1, -1) == W("bab")
    assert da3.delta_power_word(-1, 1) == W("BAB")
    assert da3.delta_power_word(0, 1) == ()


@pytest.mark.parametrize("name, radius", [("da3", 5), ("da4", 5), ("triangle345", 4)])
def test_strip_power_matches_oracle_divisors(stash, name, radius):
    # strip_power(g, a) is the top power s with a^-s a right divisor of g
    # (a left divisor when left=True), and d(g) the top power k with
    # Delta^{+-k} a left divisor of the signed element g
    group = stash.group(name)
    engine = group.engine
    ball = stash.oracle_ball(name, radius)

    def top(divisors, word, length):
        s = 0
        while (s + 1) * len(word) <= length and ball.id_of(word * (s + 1)) in divisors:
            s += 1
        return s

    ctx = group.dihedral_ctx(1, 2) if group.pres.is_dihedral() else None
    for idx, word in enumerate(ball.words):
        g = group.element(word)
        right, left = ball.right_divisors(idx), ball.left_divisors(idx)
        for a in default_order(group.pres.n):
            x = group.element((a,))
            assert engine.strip_power(g, x) == top(right, (-a,), len(g)), (word, a)
            assert engine.strip_power(g, x, left=True) == top(left, (-a,), len(g)), (word, a)
        if ctx is not None and g.sign != "unsigned":
            eps = 1 if g.sign == "positive" else -1
            delta = ctx.delta_power_word(eps)
            assert ctx.garside_power(g) == top(left, delta, len(g)), word
    with pytest.raises(ValueError):
        engine.strip_power(group.element("a"), group.identity)


def test_permissible_examples(da3, free):
    D = da3.delta_elem(1)
    assert da3.permissible(D, D) == (True, "P2")
    assert da3.permissible(da3.element("ab"), da3.element("a")) == (True, "P1")
    # non-geodesic split
    assert da3.permissible(da3.element("a"), da3.element("A"))[0] is False
    # unsigned products always pass
    assert da3.permissible(da3.element("a"), da3.element("B"))[1] == "unsigned"
    assert free.permissible(free.element("ab"), free.element("ba"))[1] == "infinite-label"


def test_excluded_factorisation_of_delta_cubed(da3, stash):
    # some geodesic factorisation of Delta^3 with both sides of >= 3
    # syllables and a Garside-power deficit must exist and be rejected
    oracle_ball = stash.oracle_ball("da3", 6)
    d3 = da3.delta_elem(3)
    found = None
    for k in range(1, 9):
        for g1 in (da3.element(w) for w in _sphere_words(da3, k)):
            g2 = g1.inv() * d3
            if len(g2) != 9 - k:
                continue
            if syllable_count(g1.word) < 3 or syllable_count(g2.word) < 3:
                continue
            if (
                da3.garside_power(g1) + da3.garside_power(g2)
                < da3.garside_power(d3)
            ):
                found = (g1, g2)
                break
        if found:
            break
    assert found is not None
    assert da3.permissible(*found)[0] is False


def _sphere_words(ctx, k):
    """Geodesic normal forms of length k (small exhaustive enumeration)."""
    out = []
    for w in itertools.product((1, -1, 2, -2), repeat=k):
        if is_freely_reduced(w) and ctx.is_geodesic(w) and ctx.engine.nf(w) == w:
            out.append(w)
    return out


@pytest.mark.parametrize("name", ["triangle345", "triangle444", "counterexample433"])
def test_pair_context_matches_dihedral_group(stash, name):
    # G(i,j) run on the parent group's engine agrees with DA(m_ij) after
    # renaming i, j to 1, 2, on every freely reduced {i,j}-word of length <= 6
    G = stash.group(name, allow_counterexample=name == "counterexample433")
    for i, j in G.pres.pairs():
        ctx = G.dihedral_ctx(i, j)
        da = stash.dihedral(G.pres.label(i, j))
        down = lambda w: rename(w, (i, j), (1, 2))
        for w in freely_reduced_words(2, 6):
            up = rename(w, (1, 2), (i, j))
            g, d = ctx.element(up), da.element(w)
            assert down(g.word) == d.word, (name, up)
            assert {down(v) for v in ctx.engine.geodesic_words(g)} == da.engine.geodesic_words(d)
            if da.m is not INF and d.sign != "unsigned":
                assert ctx.garside_power(g) == da.garside_power(d), (name, up)
            for k in range(len(w) + 1):
                assert ctx.permissible(ctx.element(up[:k]), ctx.element(up[k:])) == (
                    da.permissible(da.element(w[:k]), da.element(w[k:]))
                ), (name, up, k)
                rdw = ctx.right_divisor_words(g, min(k, len(g)))
                assert tuple(map(down, rdw)) == da.right_divisor_words(d, min(k, len(d)))


@pytest.mark.parametrize("name", ["triangle345", "triangle444", "counterexample433"])
def test_pair_right_divisors_match_oracle(stash, name):
    # the G(i,j) right divisors of any f are the oracle's right divisors of f
    # spelled in the names i and j, in the engine's lex order
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = stash.oracle_ball(name, 4)
    for idx, word in enumerate(ball.words):
        f = group.element(word)
        divisors = sorted((ball.words[d] for d in ball.right_divisors(idx)), key=group.engine.lex_key)
        for i, j in group.pres.finite_pairs():
            ctx = group.dihedral_ctx(i, j)
            for k in range(len(word) + 3):  # beyond |f| there is no divisor
                want = tuple(w for w in divisors if len(w) == k and names(w) <= {i, j})
                assert ctx.right_divisor_words(f, k) == want, (name, word, (i, j), k)


# sha256 over the sorted reprs of merge_row for every pair (g1, g2) with
# |g1| + |g2| <= max_kl.  The dihedral digests were computed with the
# 2-generator merge that DihedralContext carried before ArtinGroup.merge
# became the only merge; the triangle digests pin the multi-generator merge
# (at max_kl 5, 16 triangle345 mergers end on a Delta power of the label-5
# pair (2, 3), none at max_kl 4), and counterexample433, run with
# allow_counterexample, pins it where the unique-tail property fails
MERGE_REFERENCE = {
    "counterexample433": (4, 4529, "7c857eb8a98261550372bec5a89341ce5160153fa77cc02b712348ca659dee0b"),
    "da3": (6, 6629, "fe72ec4b8dc2875a1a51267c1b55d0e7138639c75ef9174c0ea0fb9c2f3ef150"),
    "da4": (6, 10305, "43a521211d70681164ce5844305ac5217f1bcadfdc9686d6ac0ee54e4c4cfbc4"),
    "dainf": (5, 3241, "7ee778312a996b957de7339c17a72c0df577c40b480c4f3be87796c7d1c37901"),
    "triangle345": (5, 27861, "07c20fb8ca6477a8fc2704c18bb33c9f89d16d0ae563b316ac8c741088676392"),
    "triangle444": (5, 29605, "0d50a87097b8132cdb7850519714e223bda145ba2892290d5a29be50fdf017b9"),
}


@pytest.mark.parametrize("name", sorted(MERGE_REFERENCE))
def test_merge_matches_reference_digest(stash, name):
    max_kl, count, digest = MERGE_REFERENCE[name]
    group = stash.group(name, allow_counterexample=name == "counterexample433")
    ball = group.ball(max_kl)
    rows = []
    for k in range(max_kl + 1):
        for l in range(max_kl + 1 - k):
            for ui in ball.sphere(k):
                for vi in ball.sphere(l):
                    rows.append(repr(merge_row(group.merge(ball.element(ui), ball.element(vi)))))
    assert len(rows) == count
    assert hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest() == digest


def test_merge_examples(da3, stash):
    G = stash.group("da3")
    ab = G.element("ab")
    # full inverse: pure cancellation
    t = G.merge(ab, ab.inv())
    assert (t.f1.word, t.r, t.f2.word) == ((), 0, ())
    assert all(s.kind == "cancel" for s in t.trace)
    # nothing to merge against the identity
    t = G.merge(ab, G.identity)
    assert (t.f1, t.r, t.f2) == (ab, 0, G.identity)
    # (ab, ab): a Delta is extracted; the triple satisfies every merger law
    t = G.merge(ab, ab)
    assert t.r == 1
    assert t.h1 * t.h2 == G.dihedral_ctx(1, 2).delta_elem(1)
    assert t.f1 * G.middle_of(t) * t.f2 == ab * ab
    da = lambda g: da3.element(g.word)
    assert da3.permissible(da(t.f1), da(t.h1))[0]
    assert da3.permissible(da(t.h2), da(t.f2))[0]


def test_merge_invariants_exhaustive(da3, stash):
    # every pair with |g1| + |g2| <= 5: bounds, permissibility, replay
    G = stash.group("da3")
    da = lambda g: da3.element(g.word)
    for k in range(0, 6):
        for l in range(0, 6 - k):
            for w1 in _sphere_words(da3, k):
                g1 = G.element(w1)
                for w2 in _sphere_words(da3, l):
                    g2 = G.element(w2)
                    t = G.merge(g1, g2)
                    kk = min(k, l)
                    assert abs(t.r) <= kk
                    assert len(t.h1) <= 2 * kk and len(t.h2) <= 2 * kk
                    assert t.h1 * t.h2 == G.middle_of(t)
                    assert t.f1 * t.h1 == g1 and t.h2 * t.f2 == g2
                    assert da3.permissible(da(t.f1), da(t.h1))[0]
                    assert da3.permissible(da(t.h2), da(t.f2))[0]
                    # replaying the trace from (g1, 0, g2) lands on the merger
                    f1, f2, r = g1, g2, 0
                    for step in t.trace:
                        f1 = f1 * G.element(step.h).inv()
                        f2 = G.element(step.h_prime).inv() * f2
                        r = step.r_after
                    assert (f1, r, f2) == (t.f1, t.r, t.f2)


def _compress(ctx, t):
    return ctx.compress(ctx.element(t.f1.word), t.r, ctx.element(t.f2.word))


def test_compress_trivial_and_derived(da3, stash):
    oracle = stash.oracle("da3")
    G = stash.group("da3")
    # geodesic concatenation: nothing to compress
    c = _compress(da3, G.merge(G.element("a"), G.element("b")))
    assert c.word == W("ab") and c.kappa == da3.element("ab")
    assert all(s["stage"] == "split" for s in c.stages)
    # the merger of (ab, ab) compresses to a geodesic spelling of abab
    c = _compress(da3, G.merge(G.element("ab"), G.element("ab")))
    assert da3.is_geodesic(c.word)
    assert oracle.equal(c.word, W("abab"))


def test_compress_exhaustive_small(da3, stash):
    oracle = stash.oracle("da3")
    G = stash.group("da3")
    seen = set()
    for k in range(0, 6):
        for l in range(0, 6 - k):
            for w1 in _sphere_words(da3, k):
                for w2 in _sphere_words(da3, l):
                    t = G.merge(G.element(w1), G.element(w2))
                    key = (t.f1.word, t.r, t.f2.word)
                    if key in seen:
                        continue
                    seen.add(key)
                    c = _compress(da3, t)
                    assert da3.is_geodesic(c.word)
                    target = t.f1 * G.middle_of(t) * t.f2
                    assert G.element(c.word) == target
                    assert oracle.equal(c.word, target.word)


def test_enumerate_geodesics(da3):
    assert {format_word(w) for w in da3.engine.geodesic_words(da3.element("aba"))} == {
        "aba",
        "bab",
    }
    assert da3.engine.geodesic_words(da3.element("ab")) == {W("ab")}
    assert {format_word(w) for w in da3.engine.geodesic_words(da3.element("abbA"))} == {
        "abbA",
        "Baab",
    }


# -- structural lemmas -----------------------------------------------------------


def test_geodesic_suffix_lemma(da3):
    # if w is geodesic and wa is not, either w ends with a^-1 or some
    # critical suffix v of w has tau(v) ending with a^-1 (|wa| <= 8)
    for w in freely_reduced_words(2, 7):
        if not da3.is_geodesic(w):
            continue
        for a in (1, -1, 2, -2):
            if w and w[-1] == -a:
                continue
            if da3.is_geodesic(free_reduce(w + (a,))):
                continue
            ok = False
            for s in range(len(w)):
                c = da3.classify_critical(w[s:])
                if c is not None and da3.tau(w[s:])[-1] == -a:
                    ok = True
                    break
            assert ok, (w, a)


def _block_decomposition(ctx, w, p, n):
    """Indices of the runs of length p (positive) or n (negative)."""
    blocks = []
    for s, e in runs(w):
        if w[s] > 0 and e - s == p:
            blocks.append((s, e, 1))
        elif w[s] < 0 and e - s == n:
            blocks.append((s, e, -1))
    return blocks


def test_unsigned_block_count_lemma(da3):
    # equal positive-block counts up to index r force equal prefix elements
    # and equal interior segments eta_r
    m = 3
    seen = set()
    for w in freely_reduced_words(2, 7):
        p, n = da3.pn(w)
        if not (0 < p and 0 < n and p + n == m) or not da3.is_geodesic(w):
            continue
        g = da3.element(w)
        if g.word in seen:
            continue
        seen.add(g.word)
        reps = sorted(da3.engine.geodesic_words(g))
        decomps = {v: _block_decomposition(da3, v, p, n) for v in reps}
        s_counts = {len(d) for d in decomps.values()}
        assert len(s_counts) == 1, g
        s = s_counts.pop()
        for v1 in reps:
            for v2 in reps:
                b1, b2 = decomps[v1], decomps[v2]
                for r in range(1, s + 1):
                    pos1 = sum(1 for x in b1[:r] if x[2] > 0)
                    pos2 = sum(1 for x in b2[:r] if x[2] > 0)
                    if pos1 != pos2:
                        continue
                    e1, e2 = b1[r - 1][1], b2[r - 1][1]
                    assert da3.element(v1[:e1]) == da3.element(v2[:e2])
                    end1 = b1[r][0] if r < s else len(v1)
                    end2 = b2[r][0] if r < s else len(v2)
                    assert v1[e1:end1] == v2[e2:end2]


def test_signed_prefix_suffix_lemma(da3):
    # positive spellings sharing a Delta^s prefix and Delta^{d-s} suffix agree
    m = 3
    for k in range(3, 8):
        for w in _sphere_words(da3, k):
            if any(a < 0 for a in w):
                continue
            g = da3.element(w)
            d = da3.garside_power(g)
            if d == 0:
                continue
            reps = da3.engine.geodesic_words(g)
            for s in range(0, d + 1):
                # the Delta affixes are fixed literal spellings; the lemma
                # says they determine the whole word
                pre = da3.delta_power_word(s)
                suf = da3.delta_power_word(d - s)
                matching = [
                    v
                    for v in reps
                    if v[: len(pre)] == pre
                    and (not suf or v[len(v) - len(suf) :] == suf)
                ]
                assert len(set(matching)) <= 1, (g, s)


def test_two_syllable_right_divisor_count(da3):
    # for a fixed ordered pair (a, b), right divisors of a positive g of
    # shape a^s b^t with s + t = l number at most d(g) + 1 (radius <= 8)
    for k in range(0, 9):
        for w in _sphere_words(da3, k):
            if any(a < 0 for a in w):
                continue
            g = da3.element(w)
            bound = da3.garside_power(g) + 1
            for l in range(0, k + 1):
                for first, second in ((1, 2), (2, 1)):
                    divisors = set()
                    for s in range(0, l + 1):
                        h = da3.element((first,) * s + (second,) * (l - s))
                        if len(h) != l:
                            continue
                        if len(g * h.inv()) == k - l:
                            divisors.add(h.word)
                    assert len(divisors) <= bound, (g, l, first)


def test_left_divisor_count_bound(da3):
    # the permissible left divisor count obeys the explicit polynomial
    m = 3
    worst = 0
    for total in range(0, 7):
        for w in _sphere_words(da3, total):
            g = da3.element(w)
            for k in range(0, total + 1):
                divisors = set()
                for rep in da3.engine.geodesic_words(g):
                    u = da3.element(rep[:k])
                    if da3.permissible(u, u.inv() * g)[0]:
                        divisors.add(u.word)
                bound = 4 * m * k * k + 4 * (k + 1) + (k + 1)
                assert len(divisors) <= bound
                worst = max(worst, len(divisors))
    assert worst >= 2  # the sweep saw nontrivial counts


def test_power_cancellation_lemma(da3):
    # if g h lies in <x_i> then g = x_i^s w and h = w^-1 x_i^t geodesically
    for k in range(0, 5):
        for wg in _sphere_words(da3, k):
            g = da3.element(wg)
            for i in (1, 2):
                for c in range(-3, 4):
                    target = da3.element((i,) * c if c >= 0 else (-i,) * (-c))
                    h = g.inv() * target
                    if len(h) > 5:
                        continue
                    found = False
                    for s in range(-k, k + 1):
                        xs = da3.element((i,) * s if s >= 0 else (-i,) * (-s))
                        w0 = xs.inv() * g
                        if len(w0) != len(g) - abs(s):
                            continue
                        tail = w0 * h
                        if syllable_count(tail.word) <= 1 and (
                            not tail.word or abs(tail.word[0]) == i
                        ):
                            if len(h) == len(w0) + len(tail):
                                found = True
                                break
                    assert found, (g, h, i)
