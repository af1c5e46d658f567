"""Oracle-free invariants of the shortlex engine on long words.

The brute-force oracle certifies normal forms only up to a few letters; these
seeded checks exercise the critical-chain searches on words of 300-1,000
letters, where only properties every normal form must have can be checked.
"""

import random

import pytest

from artingeo import shortlex
from artingeo.largetype import ArtinGroup
from artingeo.presets import load_preset
from artingeo.shortlex import ShortlexEngine
from artingeo.words import inverse_word

PRESETS = ["triangle345", "triangle444", "counterexample433"]


def signed_word(rng, n, length):
    """A random freely reduced word of the given length over n generators."""
    w = []
    while len(w) < length:
        a = rng.choice([1, -1]) * rng.randint(1, n)
        if not w or w[-1] != -a:
            w.append(a)
    return tuple(w)


def positive_word(rng, n, length):
    return tuple(rng.randint(1, n) for _ in range(length))


def odd_components(pres):
    """Generator -> representative of its class under the odd labels."""
    rep = list(range(pres.n + 1))

    def find(i):
        while rep[i] != i:
            i = rep[i]
        return i

    for i, j in pres.finite_pairs():
        if pres.label(i, j) % 2 == 1:
            rep[find(j)] = find(i)
    return {i: find(i) for i in range(1, pres.n + 1)}


def exponent_sums(w, comp):
    sums = {}
    for a in w:
        c = comp[abs(a)]
        sums[c] = sums.get(c, 0) + (1 if a > 0 else -1)
    return {c: s for c, s in sums.items() if s}


@pytest.mark.parametrize("name", PRESETS)
def test_long_word_invariants(name):
    pres = load_preset(name)
    engine = ShortlexEngine(pres)
    comp = odd_components(pres)
    relators = [pres.relator_sides(i, j) for i, j in pres.finite_pairs()]
    rng = random.Random(f"invariants-{name}")
    words = [signed_word(rng, pres.n, rng.randint(500, 1000)) for _ in range(4)]
    words += [positive_word(rng, pres.n, rng.randint(300, 500)) for _ in range(3)]
    for w in words:
        z = engine.nf(w)
        assert engine.nf(z) == z
        assert len(z) <= len(w) and (len(w) - len(z)) % 2 == 0
        assert exponent_sums(z, comp) == exponent_sums(w, comp)
        assert engine.nf(w + inverse_word(w)) == ()
        # a relator inserted at a random cut: both sides give one element
        lhs, rhs = rng.choice(relators)
        cut = rng.randint(0, len(w))
        u, v = w[:cut], w[cut:]
        assert engine.nf(u + lhs + v) == engine.nf(u + rhs + v)


def test_classify_calls_per_letter(monkeypatch):
    # a deterministic work count: the searches start at the end of the
    # word, so nf makes a bounded number of classify_critical calls per
    # letter instead of rescanning the whole word at every append
    from artingeo import critical

    calls = 0
    classify = critical.classify_critical

    def counted(w, m):
        nonlocal calls
        calls += 1
        return classify(w, m)

    monkeypatch.setattr(critical, "classify_critical", counted)
    rng = random.Random("classify-calls")
    for name, w in [
        ("triangle345", positive_word(rng, 3, 1000)),
        ("counterexample433", signed_word(rng, 3, 1000)),
        ("dainf", signed_word(rng, 2, 10000)),
    ]:
        calls = 0
        ShortlexEngine(load_preset(name)).nf(w)
        assert calls <= 40 * len(w), (name, calls)


def test_free_group_sphere_growth():
    # dainf is the free group on a, b: |C_k| = 4 * 3^(k-1), checked beyond
    # the radii at which the oracle certifies the engine
    sizes = ArtinGroup(load_preset("dainf")).ball(8).sphere_sizes()
    assert sizes == {0: 1, **{k: 4 * 3 ** (k - 1) for k in range(1, 9)}}


def test_length_repair_resumes_at_its_first_change(monkeypatch):
    # after a rightward reduction w -> red, the word up to red's first change
    # p is a prefix of the normal form being repaired, so the repair resumes
    # there: the next append starts from w[:p], not from the empty word
    pending = []
    resumed = 0
    reduce, append = shortlex.rightward_length_reduction, ShortlexEngine.append

    def reduction(w, label):
        red = reduce(w, label)
        if red is not None:
            p = next((i for i, (a, b) in enumerate(zip(red, w)) if a != b), len(red))
            pending.append(w[:p])
        return red

    def watched(self, z, a):
        nonlocal resumed
        if pending:
            start = pending.pop()
            assert z == start, (len(z), len(start))
            resumed += len(start) > 0
        return append(self, z, a)

    monkeypatch.setattr(shortlex, "rightward_length_reduction", reduction)
    monkeypatch.setattr(ShortlexEngine, "append", watched)
    rng = random.Random("resume")
    for name in ["da3", "da4", "triangle345", "triangle444", "counterexample433"]:
        pres = load_preset(name)
        for _ in range(5):
            ShortlexEngine(pres).nf(signed_word(rng, pres.n, 60))
    assert resumed > 0


def test_long_word_needs_linear_memory():
    # append keeps rows only for short prefixes, so one nf of a freely
    # reduced 10,000-letter dainf word holds O(L) letters; a row for every
    # prefix takes about 400 MB.  tracemalloc, not ru_maxrss of a child
    # process: on Linux a child carries the test runner's peak over exec
    import tracemalloc

    w = signed_word(random.Random("linear-memory"), 2, 10000)
    engine = ShortlexEngine(load_preset("dainf"))
    tracemalloc.start()
    try:
        assert len(engine.nf(w)) == 10000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak
