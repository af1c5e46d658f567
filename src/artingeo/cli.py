"""
Command-line surface.

    artingeo --preset triangle345 nf 'aBBAcbbCBacaacA'
    artingeo --preset da3 geodesic abaB
    artingeo --preset da4 ball 5
    artingeo --preset counterexample433 --allow-counterexample divisors babacabab 1 2
    artingeo --preset da3 merge ab ab
    artingeo --preset da3 compress ab ab
    artingeo --preset triangle444 d1-scan --radius 6 --out results/
    artingeo --preset da3 d2-scan --radius 4
    artingeo --preset da3 rd-check --radius 5 --trials 20 --seed 1
    artingeo repro-paper

Every subcommand accepts --json for a machine-readable report.  Precondition
failures exit with status 2 and print a JSON error object.  Only ball,
d1-scan, d2-scan, rd-check and repro-paper write artifacts; --out with any
other subcommand is an error.  Likewise --allow-counterexample is accepted
only by divisors, merge, compress and d2-scan, the commands that check the
no-(3,3,m) hypothesis, and --preset by every subcommand but repro-paper.
Artifacts written with --out are byte-reproducible for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .largetype import ArtinGroup, HypothesisError, OnetailFailure
from .presets import PRESET_NAMES, resolve_presentation
from .sweeps import d1_scan, d2_scan, rd_check, repro_paper
from .words import format_word, parse_word

CACHE_ENV = "ARTINGEO_CACHE"
OUT_COMMANDS = ("ball", "d1-scan", "d2-scan", "rd-check", "repro-paper")
COUNTEREXAMPLE_COMMANDS = ("divisors", "merge", "compress", "d2-scan")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path | None:
    """The --out directory, created if missing; None without --out."""
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_nf(group, args):
    word = parse_word(args.word)
    log = []
    z = ()
    for a in word:
        z = group.engine.append(z, a)
        log.append({"letter": format_word((a,)), "prefix_nf": format_word(z)})
    payload = {
        "input": args.word,
        "normal_form": format_word(z),
        "input_length": len(word),
        "length": len(z),
        "log": log,
    }
    _emit(args, payload, [f"normal form: {format_word(z) or '1'} (length {len(z)})"])
    return 0


def cmd_geodesic(group, args):
    word = parse_word(args.word)
    nf = group.nf(word)
    geo = len(nf) == len(word)
    payload = {
        "input": args.word,
        "geodesic": geo,
        "input_length": len(word),
        "geodesic_length": len(nf),
    }
    lines = [f"geodesic: {geo} (word length {len(word)}, element length {len(nf)})"]
    if group.pres.is_dihedral():
        ctx = group.dihedral_ctx(1, 2)
        from .words import is_freely_reduced

        if is_freely_reduced(word):
            is_geo, unique = ctx.geodesic_status(word)
            payload["unique_representative"] = bool(is_geo and unique)
            if is_geo:
                lines.append(f"unique representative: {is_geo and unique}")
    _emit(args, payload, lines)
    return 0


def cmd_ball(group, args):
    ball = group.ball(args.radius)
    sizes = ball.sphere_sizes()
    payload = {"radius": args.radius, "sphere_sizes": {str(k): v for k, v in sizes.items()}}
    lines = [f"|C_{k}| = {v}" for k, v in sizes.items()]
    lines.append(f"ball size {len(ball)}")
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        # build (or reload) the oracle ball through the cache directory and
        # cross-check it, cell by cell, against the engine's table
        from .oracle import Ball, Oracle, ball_cache_name

        oracle = Oracle(group.pres)
        path = Path(cache_dir) / f"{ball_cache_name(oracle, args.radius)}.json"
        if path.exists():
            oball = Ball.load(path, oracle)
            payload["cache"] = {"file": str(path), "loaded": True}
        else:
            oball = Ball(oracle, args.radius)
            path.parent.mkdir(parents=True, exist_ok=True)
            oball.save(path)
            payload["cache"] = {"file": str(path), "loaded": False}
        if oball.words != ball.words or oball.adj != ball.adj:
            raise ValueError("oracle ball disagrees with the engine enumeration")
    out = _out_dir(args)
    if out:
        _write_csv(
            out / "ball.csv",
            ["presentation", "k", "statistic", "value"],
            [(args.pres_id, k, "sphere_size", v) for k, v in sizes.items()],
        )
        _write_json(out / "ball.json", payload)
    _emit(args, payload, lines)
    return 0


def cmd_divisors(group, args):
    g = group.element(parse_word(args.word))
    i, j = args.i, args.j
    ld = group.ld(g, i, j)
    rd = group.rd(g, i, j)
    payload = {
        "element": format_word(g.word),
        "pair": [i, j],
        "ld": format_word(ld.word),
        "rd": format_word(rd.word),
    }
    lines = [f"LD_{i}{j} = {format_word(ld.word) or '1'}", f"RD_{i}{j} = {format_word(rd.word) or '1'}"]
    try:
        ldp, case, letter = group.ld_prime(g, i, j)
        payload["ld_prime"] = format_word(ldp.word)
        payload["case"] = case
        payload["tail_letter"] = format_word((letter,)) if letter else None
        lines.append(
            f"LD'_{i}{j} = {format_word(ldp.word) or '1'} (case {case}"
            + (f", tail letter {format_word((letter,))})" if letter else ")")
        )
    except OnetailFailure as exc:
        payload["ld_prime_failure"] = sorted(format_word((a,)) for a in exc.letters)
        lines.append(f"LD' failed: tail letters {payload['ld_prime_failure']}")
    _emit(args, payload, lines)
    return 0


def cmd_merge(group, args):
    g1 = group.element(parse_word(args.w1))
    g2 = group.element(parse_word(args.w2))
    t = group.merge(g1, g2)
    payload = {
        "f1": format_word(t.f1.word),
        "pair": list(t.pair) if t.pair else None,
        "r": t.r,
        "f2": format_word(t.f2.word),
        "h1": format_word(t.h1.word),
        "h2": format_word(t.h2.word),
        "trace": [
            {"kind": s.kind, "h": format_word(s.h), "h_prime": format_word(s.h_prime), "r": s.r_after}
            for s in t.trace
        ],
    }
    lines = [
        f"merger: ({format_word(t.f1.word) or '1'}, Delta^{t.r}"
        + (f"_{t.pair}" if t.pair else "")
        + f", {format_word(t.f2.word) or '1'})",
        f"h1 = {format_word(t.h1.word) or '1'}, h2 = {format_word(t.h2.word) or '1'}",
        f"moves: {len(t.trace)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_compress(group, args):
    if not group.pres.is_dihedral():
        raise ValueError("compress works in dihedral presentations")
    ctx = group.dihedral_ctx(1, 2)
    t = group.merge(group.element(parse_word(args.w1)), group.element(parse_word(args.w2)))
    c = ctx.compress(t.f1, t.r, t.f2)
    payload = {
        "merger": {"f1": format_word(t.f1.word), "r": t.r, "f2": format_word(t.f2.word)},
        "word": format_word(c.word),
        "kappa": format_word(c.kappa.word),
        "shape": c.shape,
        "r0": c.r0,
        "r1": c.r1,
        "r_prime": c.r_prime,
        "s": c.s,
        "stages": len(c.stages),
    }
    lines = [
        f"merger ({format_word(t.f1.word) or '1'}, Delta^{t.r}, {format_word(t.f2.word) or '1'})",
        f"compressed word: {format_word(c.word) or '1'}",
        f"kappa = {format_word(c.kappa.word) or '1'} (shape {c.shape})",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_d1_scan(group, args):
    rows, summary = d1_scan(group, args.radius, tuple(args.min_kl), args.pres_id)
    out = _out_dir(args)
    if out:
        _write_csv(out / "d1.csv", ["presentation", "k", "l", "statistic", "value"], rows)
        _write_json(out / "d1_summary.json", summary)
    lines = [f"F_P({r[1]},{r[2]}) = {r[4]}" for r in rows]
    _emit(args, {"rows": rows, "summary": summary}, lines)
    return 0


def cmd_d2_scan(group, args):
    rows, summary = d2_scan(group, args.radius, args.pres_id)
    out = _out_dir(args)
    if out:
        _write_csv(
            out / "d2.csv",
            [
                "presentation", "g", "k", "l", "S_size", "T_size", "max_r",
                "max_h", "S0", "S1", "S2", "bounds_ok", "q_ok",
            ],
            rows,
        )
        _write_json(out / "d2_summary.json", summary)
    lines = [
        f"rows: {len(rows)}, all bounds ok: {summary['all_bounds_ok']}, events: {len(summary['events'])}"
    ]
    _emit(args, {"rows": rows[:50], "summary": summary}, lines)
    return 0 if summary["all_bounds_ok"] and not summary["events"] else 1


def cmd_rd_check(group, args):
    rows, summary = rd_check(group, args.radius, args.trials, args.seed, args.pres_id)
    out = _out_dir(args)
    if out:
        _write_csv(out / "rd.csv", ["presentation", "k", "l", "m", "max_ratio"], rows)
        _write_json(out / "rd_summary.json", summary)
    lines = [f"envelope by min(k,l): {summary['envelope_by_min_kl']}"]
    _emit(args, {"rows": rows, "summary": summary}, lines)
    return 0


def cmd_repro(args):
    results = repro_paper()
    ok = all(r["ok"] for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "results": results}, indent=2, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}: {r['detail']}")
        print(f"{'all examples reproduced' if ok else 'SOME EXAMPLES FAILED'}")
    out = _out_dir(args)
    if out:
        stable = [{k: v for k, v in r.items() if k != "seconds"} for r in results]
        _write_json(out / "repro.json", {"ok": ok, "results": stable})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="artingeo",
        description="geodesic calculus and rapid-decay experiments for large-type Artin groups",
    )
    ap.add_argument(
        "--preset",
        "--presentation",
        dest="presentation",
        default=None,
        help=f"preset name ({', '.join(PRESET_NAMES)}) or a presentation file path; default da3",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    ap.add_argument("--allow-counterexample", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="shortlex normal form with the reduction log")
    p.add_argument("word")
    p = sub.add_parser("geodesic", help="geodesic test for a word")
    p.add_argument("word")
    p = sub.add_parser("ball", help="sphere sizes of the radius-R ball")
    p.add_argument("radius", type=int)
    p = sub.add_parser("divisors", help="LD, RD and LD' for a 2-generator pair")
    p.add_argument("word")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p = sub.add_parser("merge", help="merger of two elements")
    p.add_argument("w1")
    p.add_argument("w2")
    p = sub.add_parser("compress", help="merge two elements and compress the triple")
    p.add_argument("w1")
    p.add_argument("w2")
    p = sub.add_parser("d1-scan", help="permissible factorisation counts F_P")
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--min-kl", type=int, nargs="*", default=[1, 2, 3])
    p = sub.add_parser("d2-scan", help="merger sets S(g,k,l) and their decomposition")
    p.add_argument("--radius", type=int, default=4)
    p = sub.add_parser("rd-check", help="convolution ratio tables")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    sub.add_parser("repro-paper", help="re-run the bundled worked examples")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.out and args.command not in OUT_COMMANDS:
            raise ValueError(
                f"{args.command} writes no artifacts; --out is accepted by {', '.join(OUT_COMMANDS)}"
            )
        if args.allow_counterexample and args.command not in COUNTEREXAMPLE_COMMANDS:
            raise ValueError(
                f"{args.command} needs no hypothesis; --allow-counterexample is accepted by "
                + ", ".join(COUNTEREXAMPLE_COMMANDS)
            )
        if args.command == "repro-paper":
            if args.presentation is not None:
                raise ValueError("repro-paper runs its own presentations; --preset is not accepted")
            return cmd_repro(args)
        args.pres_id, pres = resolve_presentation(args.presentation or "da3")
        group = ArtinGroup(pres, allow_counterexample=args.allow_counterexample)
        handlers = {
            "nf": cmd_nf,
            "geodesic": cmd_geodesic,
            "ball": cmd_ball,
            "divisors": cmd_divisors,
            "merge": cmd_merge,
            "compress": cmd_compress,
            "d1-scan": cmd_d1_scan,
            "d2-scan": cmd_d2_scan,
            "rd-check": cmd_rd_check,
        }
        return handlers[args.command](group, args)
    except (ValueError, HypothesisError, OnetailFailure, OSError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
