"""
Measurement campaigns: divisor-count scans, merger/decomposition scans, the
convolution-ratio tables, and the bundled worked-example reproductions.

All campaigns are deterministic: spheres are enumerated in breadth-first
order, random trials draw from a user-seeded generator, and rows are emitted
in sorted order, so identical configurations produce byte-identical CSV and
JSON artifacts.
"""

from __future__ import annotations

import time
from itertools import groupby
from operator import itemgetter

from .harmonic import permissible_fact_sup, star_star_trials
from .largetype import ArtinGroup, OnetailFailure
from .oracle import Oracle
from .presentation import INF, CoxeterPresentation
from .presets import load_preset
from .words import alt_starting, format_word, parse_word


# -- D1: permissible factorisation counts --------------------------------------


def d1_scan(group: ArtinGroup, radius: int, min_values=(1, 2, 3), pres_id="pres"):
    """
    F_{P,k,l} for every k <= l with k + l <= radius and min(k,l) in the
    requested set (the k > l values follow by symmetry of the definition).
    A requested k with 2k > radius has no (k, l) cell, so it yields no row
    and no summary key; it is not an error.  Returns (csv_rows, summary).
    """
    if not min_values:
        raise ValueError("no min(k, l) values given")
    if any(k < 1 for k in min_values):
        raise ValueError(f"min(k, l) values must be >= 1, got {sorted(min_values)}")
    ball = group.ball(radius)
    rows = []
    argmax: dict[int, tuple] = {}
    for k in sorted(set(min_values)):
        for l in range(k, radius - k + 1):
            value, witness = permissible_fact_sup(group, ball, k, l)
            rows.append((pres_id, k, l, "F_P", value))
            cur = argmax.get(k)
            if cur is None or value > cur[0]:
                argmax[k] = (value, k, l, format_word(witness) if witness else "")
    summary = {
        "presentation": pres_id,
        "radius": radius,
        "max_by_min_kl": {
            str(k): {"value": v[0], "k": v[1], "l": v[2], "witness": v[3]}
            for k, v in sorted(argmax.items())
        },
    }
    return rows, summary


# -- D2: merger sets and their decomposition ---------------------------------------


def d2_scan(group: ArtinGroup, radius: int, pres_id="pres"):
    """
    For every k + l <= radius and every product g = g1 g2 with g1 in C_k,
    g2 in C_l, build S(g,k,l), decompose it and collect the statistics and
    any falsified-property events.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    m = group.pres.max_finite_label()
    kfac = 1 if m is INF else m - 1  # the merger constant K
    rows = []
    events: list[str] = []
    for k in range(0, radius + 1):
        for l in range(0, radius - k + 1):
            ball = group.ball(k + l)  # the ball whose table build_s_t reads
            for gi in sorted(ball.fact_table(k, l)):
                g = ball.element(gi)
                st = group.build_s_t(g, k, l)
                if st.size == 0:
                    continue
                dec = group.split_s(st, g)
                events.extend(dec.events)
                bound_ok = st.max_r <= min(k, l) and st.max_h <= kfac * min(k, l)
                q_ok = all(
                    w.s2_witness is None or w.s2_witness["q"] <= k for w in dec.s2
                )
                rows.append(
                    (
                        pres_id,
                        format_word(g.word),
                        k,
                        l,
                        st.size,
                        len(st.middles),
                        st.max_r,
                        st.max_h,
                        len(dec.s0),
                        len(dec.s1),
                        len(dec.s2),
                        int(bound_ok),
                        int(q_ok),
                    )
                )
    summary = {
        "presentation": pres_id,
        "radius": radius,
        "rows": len(rows),
        "events": events,
        "all_bounds_ok": all(r[11] and r[12] for r in rows),
    }
    return rows, summary


# -- rapid decay ratio tables ------------------------------------------------------


def rd_check(group: ArtinGroup, radius: int, trials: int, seed: int, pres_id="pres"):
    """Ratio tables for every |k-l| <= m <= min(k+l, radius) with k+l <= radius."""
    ball = group.ball(radius)
    rows = []
    envelope: dict[int, float] = {}
    for k in range(0, radius + 1):
        for l in range(k, radius - k + 1):
            recs = star_star_trials(group, ball, k, l, range(l - k, k + l + 1), trials, seed)
            for m, group_recs in groupby(recs, key=itemgetter("m")):
                best = max(r["ratio"] for r in group_recs)
                rows.append((pres_id, k, l, m, round(best, 12)))
                mn = min(k, l)
                envelope[mn] = max(envelope.get(mn, 0.0), best)
    summary = {
        "presentation": pres_id,
        "radius": radius,
        "trials": trials,
        "seed": seed,
        "envelope_by_min_kl": {str(k): round(v, 12) for k, v in sorted(envelope.items())},
    }
    return rows, summary


# -- worked-example reproduction -----------------------------------------------------


def repro_paper() -> list[dict]:
    """
    Re-run every hard-coded worked example (the 15-to-13 letter rightward
    reduction, the divisor counterexample, the dihedral tau pairs, the
    classification facts) and report pass/fail for each.
    """
    results: list[dict] = []

    def check(name: str, fn):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a failing check must not stop the run
            ok, detail = False, f"exception: {exc!r}"
        results.append(
            {
                "name": name,
                "ok": bool(ok),
                "detail": detail,
                "seconds": round(time.perf_counter() - t0, 4),
            }
        )

    def parse_roundtrip():
        w = parse_word("b a b a c a b a b")
        return (len(w) == 9 and format_word(w) == "babacabab", format_word(w))

    check("parse-9-letter-word", parse_roundtrip)

    def alternating_words():
        a6 = format_word(alt_starting(1, 2, 6))
        a5 = format_word(alt_starting(1, 2, 5))
        a0 = alt_starting(1, 2, 0)
        return (a6 == "ababab" and a5 == "ababa" and a0 == (), f"{a6} {a5}")

    check("alternating-words", alternating_words)

    def classifications():
        c345 = load_preset("triangle345").classification()
        c433 = load_preset("counterexample433").classification()
        c4 = load_preset("da4").classification()
        ok = (
            c345["large"]
            and c345["satisfies_33m"]
            and c433["large"]
            and not c433["satisfies_33m"]
            and c4["dihedral"]
            and c4["extra_large"]
        )
        return ok, "345 satisfies the triangle condition, 433 does not"

    check("presentation-classification", classifications)

    ctx3 = ArtinGroup(CoxeterPresentation.dihedral(3)).dihedral_ctx(1, 2)

    def pn_examples():
        p1 = ctx3.pn(parse_word("aba"))
        p2 = ctx3.pn(parse_word("abbA"))
        return (p1 == (3, 0) and p2 == (2, 1), f"{p1} {p2}")

    check("dihedral-pn-values", pn_examples)

    def tau_examples():
        t1 = format_word(ctx3.tau(parse_word("aba")))
        t2 = format_word(ctx3.tau(parse_word("abbA")))
        ctx4 = ArtinGroup(CoxeterPresentation.dihedral(4)).dihedral_ctx(1, 2)
        t3 = format_word(ctx4.tau(parse_word("abab")))
        return (t1 == "bab" and t2 == "Baab" and t3 == "baba", f"{t1} {t2} {t3}")

    check("tau-swaps", tau_examples)

    def geodesic_sets():
        g = ctx3.element("aba")
        reps = {format_word(w) for w in ctx3.engine.geodesic_words(g)}
        g2 = ctx3.element("abbA")
        reps2 = {format_word(w) for w in ctx3.engine.geodesic_words(g2)}
        return (
            reps == {"aba", "bab"} and reps2 == {"abbA", "Baab"},
            f"{sorted(reps)} {sorted(reps2)}",
        )

    check("dihedral-geodesic-sets", geodesic_sets)

    def rightward_example():
        group = ArtinGroup(load_preset("triangle345"))
        oracle = Oracle(group.pres)
        t0 = time.perf_counter()
        nf = group.engine.nf("aBBAcbbCBacaacA")
        elapsed = time.perf_counter() - t0
        target = parse_word("BAACBccbaccac")
        ok = len(nf) == 13 and oracle.equal(nf, target) and elapsed < 1.0
        return ok, f"nf={format_word(nf)}"

    check("rightward-reduction-15-to-13", rightward_example)

    def displayed_sequence():
        from .critical import classify_critical, tau as tau_of
        from .words import free_reduce

        pres = load_preset("triangle345")
        w = parse_word("aBBAcbbCBacaacA")
        steps = [((0, 4), 3), ((3, 9), 5), ((8, 14), 4)]
        seen = []
        for (s, e), m in steps:
            c = classify_critical(w[s:e], m)
            if c is None:
                return False, f"span {(s, e)} not critical"
            w = w[:s] + tau_of(c) + w[e:]
            seen.append(format_word(w))
        w2 = free_reduce(w)
        ok = len(w2) == 13 and w2 == parse_word("BAACBccbaccac")
        return ok, " -> ".join(seen)

    check("displayed-critical-sequence", displayed_sequence)

    def counterexample():
        group = ArtinGroup(load_preset("counterexample433"), allow_counterexample=True)
        g = group.element("babacabab")
        ld = group.ld(g, 1, 2)
        reps = {format_word(w) for w in group.engine.geodesic_words(g)}
        if ld != group.element("baba"):
            return False, f"LD_12 = {ld!r}"
        if not {"babcacbab", "abacbcaba"} <= reps:
            return False, f"witness spellings missing from {sorted(reps)}"
        try:
            group.ld_prime(g, 1, 2)
            return False, "unique-tail property unexpectedly held"
        except OnetailFailure as exc:
            letters = {format_word((a,)) for a in exc.letters}
            return letters == {"a", "b"}, f"tail letters {sorted(letters)}"

    check("unique-tail-counterexample", counterexample)

    def oracle_spot_checks():
        orc = Oracle(load_preset("triangle345"))
        ok = (
            orc.equal("aba", "bab")
            and not orc.equal("aca", "cac")
            and not orc.equal("bcb", "cbc")
            and orc.equal("abaB", "ba")
        )
        return ok, "aba=bab, aca!=cac, bcb!=cbc"

    check("oracle-equalities", oracle_spot_checks)

    return results
