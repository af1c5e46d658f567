"""The tau-calculus: classification, tau, and the chain searches."""

import pytest

from artingeo.critical import (
    classify_critical,
    critical_spans,
    critical_spans_at,
    delta_letter,
    delta_word,
    leftward_lex_reduction,
    leftward_states,
    rightward_length_reduction,
    rightward_moves,
    state_suffix,
    tau,
    tau_closure,
)
from artingeo.presentation import INF, CoxeterPresentation
from artingeo.words import (
    format_word,
    free_reduce,
    is_freely_reduced,
    names,
    parse_word,
)

from conftest import freely_reduced_words

W = parse_word


def overlaps_in_single_letters(moves, rightward):
    """Consecutive moved spans share one letter: the last (rightward) or first (leftward)."""
    pairs = zip(moves, moves[1:])
    if rightward:
        return all(nxt[0] == cur[1] - 1 for cur, nxt in pairs)
    return all(nxt[1] == cur[0] + 1 for cur, nxt in pairs)


def rightward_chain_states(w, label, end, last):
    """(word, spans) after each move of the rightward sequence found for a goal."""
    out, spans = [], ()
    for s, e, image in rightward_moves(w, label, end, last) or []:
        w, spans = w[:s] + image + w[e:], spans + ((s, e),)
        out.append((w, spans))
    return out


def leftward_chain_states(w, label):
    """(word, spans) of every leftward state, spans in the order moved."""
    states = leftward_states(w, label, lambda v: v)
    out = []
    for state in states:
        spans, cur = [], state
        while cur is not None:
            image, prev = states[cur]
            spans.insert(0, (cur[0], cur[0] + len(image)))
            cur = prev
        out.append((w[: state[0]] + state_suffix(states, state), tuple(spans)))
    return out


def first_cancelling_chain(w, label):
    """(word, moves) at the end of the rightward sequence that cancels the last letter of w."""
    word, moves = rightward_chain_states(w, label, len(w) - 1, -w[-1])[-1]
    assert not is_freely_reduced(word)
    return word, moves


def tau_of(text, m):
    c = classify_critical(W(text), m)
    assert c is not None, f"{text} should be critical for m={m}"
    return format_word(tau(c))


def test_tau_hand_pairs():
    # swaps of whole Garside words
    assert tau_of("aba", 3) == "bab"
    assert tau_of("bab", 3) == "aba"
    assert tau_of("abab", 4) == "baba"
    assert tau_of("ABAB", 4) == "BABA"
    # the unsigned pair x1 x2^2 x1^-1  <->  x2^-1 x1^2 x2
    assert tau_of("abbA", 3) == "Baab"
    assert tau_of("Baab", 3) == "abbA"
    # signed with interior
    assert tau_of("abaa", 3) == "bbab"
    assert tau_of("bbab", 3) == "abaa"
    assert tau_of("BBAB", 3) == "ABAA"
    assert tau_of("ABAA", 3) == "BBAB"


def test_tau_even_label_with_interior():
    # m = 4: alt_4(c,a) xi with xi = ac maps to delta(xi) (c,a)_4 = ac caca
    m = 4
    c = classify_critical(W("cacaac"), m)
    assert c is not None and (c.head, c.tail) == (m, 0)
    assert format_word(tau(c)) == "accaca"
    c2 = classify_critical(W("accaca"), m)
    assert format_word(tau(c2)) == "cacaac"


def test_classify_rejections():
    assert classify_critical(W("ab"), 3) is None  # p + n < m
    assert classify_critical(W("abaB"), 3) is None  # p + n > m
    assert classify_critical(W("abab"), 3) is None  # two length-3 windows
    assert classify_critical(W("aab"), INF) is None  # unconstrained pair
    assert classify_critical(W("aba"), 4) is None
    # the length-m window must sit at an end of the word
    assert classify_critical(W("aabaa"), 3) is None


def test_tau_involution_and_element_exhaustive():
    # every critical word over two generators of up to 7 letters for m = 3, 4
    # and up to 9 for m = 6, 7: odd and even m, as delta swaps names for odd m
    from artingeo.oracle import Oracle

    for m, max_len in ((3, 7), (4, 7), (6, 9), (7, 9)):
        oracle = Oracle(CoxeterPresentation.dihedral(m))
        count = 0
        for w in freely_reduced_words(2, max_len):
            c = classify_critical(w, m)
            if c is None:
                continue
            count += 1
            image = tau(c)
            assert len(image) == len(w)
            back = classify_critical(image, m)
            assert back is not None, f"tau image {image} of {w} not critical"
            assert tau(back) == w, f"tau not an involution at {w}"
            assert oracle.equal(w, image), f"tau changed the element at {w}"
        assert count > 50  # the sweep must actually exercise the calculus


def test_pn_values_and_errors(stash):
    assert stash.dihedral(3).pn(W("aba")) == (3, 0)
    assert stash.dihedral(3).pn(W("abbA")) == (2, 1)
    assert stash.dihedral(5).pn(()) == (0, 0)
    with pytest.raises(ValueError):
        stash.dihedral(3).pn(W("aAb")[0:2] + (-1,))  # not freely reduced: a A
    with pytest.raises(ValueError):
        stash.dihedral(3).pn(W("abc"))


def test_delta_letter_and_word():
    assert delta_letter(1, (1, 2), 3) == 2
    assert delta_letter(-2, (1, 2), 3) == -1
    assert delta_letter(1, (1, 2), 4) == 1
    assert delta_word(W("abA"), (1, 2), 3) == W("baB")
    with pytest.raises(ValueError):
        delta_letter(3, (1, 2), 3)


def test_reduce_2gen_logs(stash):
    out, log = stash.dihedral(3).reduce(W("abaB"))
    assert out == W("ba")
    assert [e["kind"] for e in log] == ["positive"]  # p = m move
    out, log = stash.dihedral(3).reduce(W("ab"))
    assert out == W("ab") and log == []
    # Delta * x1^-1 in DA(4) has length 3
    out, log = stash.dihedral(4).reduce(W("ababA"))
    assert len(out) == 3


def test_chain_search_worked_example():
    pres = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    label = pres.label
    res = rightward_length_reduction(W("aBBAcbbCBacaacA"), label)
    assert res == W("BAACBccbaccac")


def test_chain_searches_on_geodesics():
    pres = CoxeterPresentation.dihedral(3)
    label = pres.label
    # geodesic words admit no rightward reduction
    assert rightward_length_reduction(W("aba"), label) is None
    assert rightward_length_reduction(W("abba"), label) is None
    # leftward chains lower the lex order on tau-related spellings
    key = lambda w: w  # any monotone key works on these letters: a=1 < b=2
    better = leftward_lex_reduction(W("bab"), label, key)
    assert better == W("aba")
    assert leftward_lex_reduction(W("aba"), label, key) is None


def test_tau_closure_geodesic_sets():
    pres = CoxeterPresentation.dihedral(3)
    label = pres.label
    assert tau_closure(W("aba"), label) == {W("aba"), W("bab")}
    assert tau_closure(W("ab"), label) == {W("ab")}
    assert tau_closure(W("abbA"), label) == {W("abbA"), W("Baab")}


def test_critical_spans_enumeration():
    pres = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    label = pres.label
    w = W("aBBAcbbCBacaacA")
    spans = [(s, e) for s, e, _ in critical_spans(w, label)]
    assert (0, 4) in spans  # the first moved subword of the worked sequence
    for s, e, c in critical_spans(w, label):
        assert classify_critical(w[s:e], c.m) is not None


def test_rightward_sequence_trace():
    pres = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    label = pres.label
    w = W("aBBAcbbCBacaacA")
    word, moves = first_cancelling_chain(w, label)
    assert free_reduce(word) == rightward_length_reduction(w, label) == W("BAACBccbaccac")
    assert len(moves) >= 1
    assert overlaps_in_single_letters(moves, rightward=True)


def test_long_rightward_chain_is_iterative():
    # a chain of 1,500 tau-moves: far deeper than the interpreter's
    # recursion limit, so only an iterative walker gets through it
    label = CoxeterPresentation.dihedral(3).label
    w = W("a" * 1500 + "baab" * 750 + "A")
    word, moves = first_cancelling_chain(w, label)
    assert len(free_reduce(word)) == len(w) - 2 == 4499
    assert len(moves) == 1500
    assert overlaps_in_single_letters(moves, rightward=True)


def test_long_rightward_chain_memory():
    # the search keeps (span, image) moves and parent links, not one copy
    # of the 4,501-letter word per state
    import tracemalloc

    label = CoxeterPresentation.dihedral(3).label
    w = W("a" * 1500 + "baab" * 750 + "A")
    tracemalloc.start()
    try:
        res = rightward_length_reduction(w, label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == free_reduce(first_cancelling_chain(w, label)[0])
    assert len(res) == 4499
    assert peak < 10 * 2**20, peak


@pytest.mark.parametrize("rightward", [True, False])
def test_critical_chains_overlap_in_one_letter(rightward):
    pres = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    label = pres.label
    w = W("aBBAcbbCBacaacA")
    if rightward:
        states = rightward_chain_states(w, label, len(w) - 1, -w[-1])
    else:
        states = leftward_chain_states(w, label)
    assert any(len(moves) > 1 for _, moves in states)
    for word, moves in states:
        assert len(word) == 15
        assert overlaps_in_single_letters(moves, rightward)


def pair_heavy_word(rng, pres, length):
    """A freely reduced word of stretches over one pair of names, so critical subwords abound."""
    w = []
    pairs = list(pres.pairs())
    while len(w) < length:
        i, j = rng.choice(pairs)
        for _ in range(rng.randint(2, 8)):
            a = rng.choice((i, -i, j, -j))
            if not w or a != -w[-1]:
                w.append(a)
    return tuple(w[:length])


@pytest.mark.parametrize("preset", ["triangle345", "triangle444", "counterexample433"])
def test_span_scanner_matches_brute_force(preset):
    # at every end position, the scanner yields exactly the spans ending
    # there that classify_critical accepts, by decreasing start; the
    # oracle's enumeration yields every accepted span by increasing start
    import random

    from artingeo.oracle import critical_subwords
    from artingeo.presets import load_preset

    pres = load_preset(preset)
    label = pres.label

    def accepted(w, s, e):
        nm = sorted(names(w[s:e]))
        c = classify_critical(w[s:e], label(*nm)) if len(nm) == 2 else None
        return [] if c is None else [(s, e, c)]

    rng = random.Random(preset)
    pres_letters = [a for g in range(1, pres.n + 1) for a in (g, -g)]
    found = found_free = 0
    for _ in range(12):
        w = pair_heavy_word(rng, pres, rng.randint(20, 40))
        rightward = []
        for pos in range(len(w) + 1):
            right = [x for e in range(pos + 1, len(w) + 1) for x in accepted(w, pos, e)]
            left = [x for s in range(pos - 1, -1, -1) for x in accepted(w, s, pos)]
            rightward += right
            assert list(critical_spans_at(w, pos, label)) == left, (w, pos)
            found += len(right)
            # with a last letter: any first letter, tau image ending in it
            for last in pres_letters:
                free = [
                    (s, pos, c)
                    for s in range(pos - 1, -1, -1)
                    for x in pres_letters
                    for _, _, c in accepted(w[:s] + (x,) + w[s + 1 :], s, pos)
                    if tau(c)[-1] == last
                ]
                assert list(critical_spans_at(w, pos, label, last)) == free, (w, pos)
                found_free += len(free)
        assert list(critical_subwords(w, label)) == rightward, w
    assert found > 50  # the words must actually contain critical subwords
    assert found_free > 50


@pytest.mark.parametrize(
    "preset, max_len",
    [
        ("triangle345", 6), ("triangle444", 6), ("counterexample433", 6),
        ("da3", 8), ("da4", 8), ("dainf", 8),
    ],
)
def test_span_scanner_matches_oracle_exhaustive(preset, max_len):
    # the engine's run scanner and the oracle's slice-and-classify scan find
    # the same critical subwords on every freely reduced word
    from artingeo.oracle import critical_subwords
    from artingeo.presets import load_preset

    pres = load_preset(preset)
    label = pres.label
    found = 0
    for w in freely_reduced_words(pres.n, max_len):
        spans = set(critical_spans(w, label))
        assert spans == set(critical_subwords(w, label)), w
        found += len(spans)
    assert (found > 0) == (preset != "dainf")  # an infinite label admits none


def test_engine_rejects_out_of_range_letters():
    from artingeo.shortlex import ShortlexEngine

    eng = ShortlexEngine(CoxeterPresentation.dihedral(3))
    with pytest.raises(ValueError):
        eng.nf((3,))
    with pytest.raises(ValueError):
        eng.nf(W("abc"))
