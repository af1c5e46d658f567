"""
Command-line surface.

    artingeo --preset triangle345 nf 'aBBAcbbCBacaacA'
    artingeo --preset da3 geodesic abaB
    artingeo --preset da4 ball 5
    artingeo --preset counterexample433 --allow-counterexample divisors babacabab 1 2
    artingeo --preset da3 merge ab ab
    artingeo --preset da3 compress ab ab
    artingeo --preset triangle444 --out results/ d1-scan --radius 6
    artingeo --preset da3 d2-scan --radius 4
    artingeo --preset da3 rd-check --radius 5 --trials 20 --seed 1
    artingeo --preset dainf opnorm --radius 7
    artingeo repro-paper

Every subcommand accepts --json for a machine-readable report.  Precondition
failures exit with status 2 and print a JSON error object.  Only ball,
d1-scan, d2-scan, rd-check and repro-paper write artifacts; --out with any
other subcommand is an error.  Likewise --allow-counterexample is accepted
only by divisors, merge, compress and d2-scan, the commands that check the
no-(3,3,m) hypothesis, and --preset by every subcommand but repro-paper.
Artifacts written with --out are byte-reproducible for a fixed
configuration and seed.  Each cmd_* handler only computes its (exit code,
report payload, text lines, --out files); main writes and prints.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .harmonic import GroupFunction, operator_norm_profile
from .largetype import ArtinGroup, HypothesisError, OnetailFailure
from .presets import PRESET_NAMES, resolve_presentation
from .sweeps import d1_scan, d2_scan, rd_check, repro_paper
from .words import format_word, is_freely_reduced, parse_word

OUT_COMMANDS = ("ball", "d1-scan", "d2-scan", "rd-check", "repro-paper")
COUNTEREXAMPLE_COMMANDS = ("divisors", "merge", "compress", "d2-scan")


def _write_artifacts(args, files: dict):
    """Write each file into --out, if given: (header, rows) as CSV, anything else as JSON."""
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            if isinstance(content, tuple):
                writer = csv.writer(fh)
                writer.writerow(content[0])
                writer.writerows(content[1])
            else:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")


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
    return 0, payload, [f"normal form: {format_word(z) or '1'} (length {len(z)})"], {}


def cmd_geodesic(group, args):
    word = parse_word(args.word)
    nf = group.engine.nf(word)
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
        if is_freely_reduced(word):
            is_geo, unique = ctx.geodesic_status(word)
            payload["unique_representative"] = bool(is_geo and unique)
            if is_geo:
                lines.append(f"unique representative: {is_geo and unique}")
    return 0, payload, lines, {}


def cmd_ball(group, args):
    ball = group.ball(args.radius)
    sizes = ball.sphere_sizes()
    payload = {"radius": args.radius, "sphere_sizes": {str(k): v for k, v in sizes.items()}}
    lines = [f"|C_{k}| = {v}" for k, v in sizes.items()]
    lines.append(f"ball size {len(ball)}")
    header = ["presentation", "k", "statistic", "value"]
    rows = [(args.pres_id, k, "sphere_size", v) for k, v in sizes.items()]
    return 0, payload, lines, {"ball.csv": (header, rows), "ball.json": payload}


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
    except HypothesisError as exc:
        payload["ld_prime_error"] = str(exc)
        lines.append(f"LD' unavailable: {exc}")
    except OnetailFailure as exc:
        payload["ld_prime_failure"] = sorted(format_word((a,)) for a in exc.letters)
        lines.append(f"LD' failed: tail letters {payload['ld_prime_failure']}")
    return 0, payload, lines, {}


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
    return 0, payload, lines, {}


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
    return 0, payload, lines, {}


def cmd_d1_scan(group, args):
    for k in args.min_kl or ():
        if 2 * k > args.radius:
            raise ValueError(f"--min-kl {k} has no (k, l) cell at radius {args.radius}: 2k > radius")
    min_kl = (1, 2, 3) if args.min_kl is None else tuple(args.min_kl)
    rows, summary = d1_scan(group, args.radius, min_kl, args.pres_id)
    header = ["presentation", "k", "l", "statistic", "value"]
    files = {"d1.csv": (header, rows), "d1_summary.json": summary}
    lines = [f"F_P({r[1]},{r[2]}) = {r[4]}" for r in rows]
    return 0, {"rows": rows, "summary": summary}, lines, files


def cmd_d2_scan(group, args):
    rows, summary = d2_scan(group, args.radius, args.pres_id)
    header = [
        "presentation", "g", "k", "l", "S_size", "T_size", "max_r",
        "max_h", "S0", "S1", "S2", "bounds_ok", "q_ok",
    ]
    files = {"d2.csv": (header, rows), "d2_summary.json": summary}
    lines = [
        f"rows: {len(rows)}, all bounds ok: {summary['all_bounds_ok']}, events: {len(summary['events'])}"
    ]
    code = 0 if summary["all_bounds_ok"] and not summary["events"] else 1
    return code, {"rows": rows[:50], "summary": summary}, lines, files


def cmd_rd_check(group, args):
    rows, summary = rd_check(group, args.radius, args.trials, args.seed, args.pres_id)
    header = ["presentation", "k", "l", "m", "max_ratio"]
    files = {"rd.csv": (header, rows), "rd_summary.json": summary}
    lines = [f"envelope by min(k,l): {summary['envelope_by_min_kl']}"]
    return 0, {"rows": rows, "summary": summary}, lines, files


def cmd_opnorm(group, args):
    chi = GroupFunction.sphere_indicator(group, group.ball(1), 1)
    profile = operator_norm_profile(chi, range(2, args.radius + 1))
    payload = {"lower_bounds": [{"radius": r, "value": v} for r, v in profile]}
    return 0, payload, [f"R={r}: {v:.6f}" for r, v in profile], {}


def cmd_repro(args):
    results = repro_paper()
    ok = all(r["ok"] for r in results)
    stable = [{k: v for k, v in r.items() if k != "seconds"} for r in results]
    files = {"repro.json": {"ok": ok, "results": stable}}
    lines = [f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}: {r['detail']}" for r in results]
    lines.append("all examples reproduced" if ok else "SOME EXAMPLES FAILED")
    return 0 if ok else 1, {"ok": ok, "results": results}, lines, files


GROUP_HANDLERS = {
    "nf": cmd_nf,
    "geodesic": cmd_geodesic,
    "ball": cmd_ball,
    "divisors": cmd_divisors,
    "merge": cmd_merge,
    "compress": cmd_compress,
    "d1-scan": cmd_d1_scan,
    "d2-scan": cmd_d2_scan,
    "rd-check": cmd_rd_check,
    "opnorm": cmd_opnorm,
}


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
    p.add_argument("--min-kl", type=int, nargs="*", default=None, help="default 1 2 3")
    p = sub.add_parser("d2-scan", help="merger sets S(g,k,l) and their decomposition")
    p.add_argument("--radius", type=int, default=4)
    p = sub.add_parser("rd-check", help="convolution ratio tables")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("opnorm", help="certified lower bounds for the operator norm of chi_C1")
    p.add_argument("--radius", type=int, default=7)
    sub.add_parser("repro-paper", help="re-run the bundled worked examples")
    return ap


def main(argv=None) -> int:
    """Run one command: write its artifacts, then print its report or its exit-2 error."""
    args = build_parser().parse_args(argv)
    try:
        try:
            for flag, given, commands in (
                ("--out", args.out, OUT_COMMANDS),
                ("--allow-counterexample", args.allow_counterexample, COUNTEREXAMPLE_COMMANDS),
                ("--preset", args.presentation is not None, tuple(GROUP_HANDLERS)),
            ):
                if given and args.command not in commands:
                    raise ValueError(f"{args.command} does not take {flag}; {', '.join(commands)} do")
            if args.command == "repro-paper":
                code, payload, lines, files = cmd_repro(args)
            else:
                args.pres_id, pres = resolve_presentation(args.presentation or "da3")
                group = ArtinGroup(pres, allow_counterexample=args.allow_counterexample)
                code, payload, lines, files = GROUP_HANDLERS[args.command](group, args)
            _write_artifacts(args, files)
            report = [json.dumps(payload, indent=2, sort_keys=True)] if args.json else lines
        except (ValueError, OSError) as exc:  # HypothesisError, OnetailFailure are ValueErrors
            code, report = 2, [json.dumps({"error": str(exc), "type": type(exc).__name__})]
        for line in report:
            print(line)
        sys.stdout.flush()  # a closed stdout raises here, inside the guard, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly, even at the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
