"""
The four benchmark workloads.

A workload is a fixed cycle of items.  Each item is one call into a public
function of the package (a normal form, a ball, a campaign) and belongs to
one of three parts; each part reports its own work rate, in the unit of
work the README gives for that part.  Numerators come from the returned
values and from sphere sizes, so for a given input they repeat exactly and
only the time varies.  Each item starts from fresh engine state, except in
rd-harmonic, whose balls are built once during set-up, as a campaign run
would do.

Inputs come from the seed only: the words of nf-long, the item order of
every cycle, and the random trial vectors of rd-harmonic.  The reference
outputs stored in reference.json were produced by make_reference.py at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
RD_TOL = 1e-9


@dataclass
class Item:
    """One timed call: `call` runs inside the timed region, `summarise` after it."""

    parts: tuple[int, ...]  # the parts whose rates this item counts toward
    label: str
    call: Callable[[], Any]
    summarise: Callable[[Any], Any]
    units: Callable[[Any], int]  # work units, from the summary
    key: Any = None  # input identity, for the checks


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(size: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[size]


class Workload:
    """Checks shared by every workload; subclasses override what they need."""

    def spot_checks(self, records) -> list[tuple[int, str]]:
        """Checks across the items of one run: (item id, failure) pairs."""
        return []

    def extra_checks(self, root: Path, workdir: Path) -> list[str | None]:
        """Untimed end-to-end checks: a failure message, or None, per check."""
        return []


# -- nf-long -------------------------------------------------------------------


def odd_components(pres) -> list[set[int]]:
    """Connected components of the graph joining generators with odd labels."""
    parent = list(range(pres.n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in pres.finite_pairs():
        if int(pres.label(i, j)) % 2 == 1:
            parent[find(i)] = find(j)
    comps: dict[int, set[int]] = {}
    for g in range(1, pres.n + 1):
        comps.setdefault(find(g), set()).add(g)
    return sorted(comps.values(), key=min)


def component_sums(word, comps) -> list[int]:
    return [sum((1 if a > 0 else -1) for a in word if abs(a) in comp) for comp in comps]


def random_positive(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(length))


def random_signed(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A freely reduced word with letters of both signs."""
    out: list[int] = []
    while len(out) < length:
        a = rng.choice((1, -1)) * rng.randint(1, n)
        if out and out[-1] == -a:
            continue
        out.append(a)
    return tuple(out)


class NfLong(Workload):
    """Seeded long words, each normalised by a fresh ShortlexEngine."""

    name = "nf-long"
    presets = ("triangle345", "triangle444", "counterexample433")
    parts = (
        "input letters normalised per second, all words",
        "input letters normalised per second, positive words",
        "input letters normalised per second, signed words",
    )
    # (kind, length) of the words each preset contributes to one cycle
    SIZES = {
        "full": (("positive", 40), ("positive", 56), ("signed", 48), ("signed", 72)),
        "tiny": (("positive", 8), ("signed", 14)),
    }
    ORACLE_PREFIX = 12

    def __init__(self, size: str, seed: int):
        from artingeo.presets import load_preset

        self.size = size
        self.seed = seed
        self.shapes = self.SIZES[size]
        self.pres = [load_preset(p) for p in self.presets]
        self.comps = [odd_components(p) for p in self.pres]

    def cycle(self, c: int) -> list[Item]:
        from artingeo.shortlex import ShortlexEngine

        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        make = {"positive": random_positive, "signed": random_signed}
        specs = [
            (p, kind, make[kind](rng, pres.n, length))
            for p, pres in enumerate(self.pres)
            for kind, length in self.shapes
        ]
        rng.shuffle(specs)
        items = []
        for p, kind, word in specs:
            pres = self.pres[p]
            items.append(
                Item(
                    (0, 1) if kind == "positive" else (0, 2),
                    f"nf:{self.presets[p]}:{kind}:{len(word)}",
                    lambda pres=pres, word=word: ShortlexEngine(pres).nf(word),
                    lambda out: out,
                    lambda out, word=word: len(word),
                    (p, word),
                )
            )
        return items

    def check_item(self, rec, ref) -> list[str]:
        (p, word), out = rec["key"], tuple(rec["summary"])
        bad = []
        if any(out[i] == -out[i + 1] for i in range(len(out) - 1)):
            bad.append("output is not freely reduced")
        if len(out) > len(word):
            bad.append("output is longer than the input")
        if (len(word) - len(out)) % 2:
            bad.append("output length has the wrong parity")
        comps = self.comps[p]
        if component_sums(word, comps) != component_sums(out, comps):
            bad.append("exponent sums on an odd-label component changed")
        digests = ref.get("digests") if self.seed == DEFAULT_SEED else None
        if digests is not None:
            c, i = rec["cycle"], rec["index"]
            if c < len(digests) and digest(list(out)) != digests[c][i]:
                bad.append("normal form differs from the stored reference")
        return bad

    def spot_checks(self, records) -> list[tuple[int, str]]:
        """Oracle equality on short prefixes of the inputs, untimed."""
        from artingeo.oracle import Oracle
        from artingeo.shortlex import ShortlexEngine

        oracles = [Oracle(p) for p in self.pres]
        bad = []
        for rec in records:
            if rec["cycle"] != 0:
                continue
            p, word = rec["key"]
            w = word[: self.ORACLE_PREFIX]
            z = ShortlexEngine(self.pres[p]).nf(w)
            if not oracles[p].equal(w, z):
                bad.append((rec["id"], f"oracle disagrees with nf on prefix {w}"))
        return bad


# -- ball-d1 -------------------------------------------------------------------


class BallD1(Workload):
    """Engine ball, oracle ball and the F_P scan on triangle444."""

    name = "ball-d1"
    preset = "triangle444"
    parts = (
        "engine ball elements per second",
        "oracle ball elements per second",
        "d1 pairs |C_k||C_l| over the scanned cells per second",
    )
    SIZES = {"full": 5, "tiny": 3}
    MIN_KL = (1, 2, 3)

    def __init__(self, size: str, seed: int):
        from artingeo.presets import load_preset

        self.size = size
        self.seed = seed
        self.radius = self.SIZES[size]
        self.pres = load_preset(self.preset)

    def cycle(self, c: int) -> list[Item]:
        from artingeo import sweeps
        from artingeo.largetype import ArtinGroup
        from artingeo.oracle import Ball, Oracle

        R = self.radius
        group = ArtinGroup(self.pres)
        sizes: dict[int, int] = {}

        def engine_ball():
            return group.ball(R)

        def keep_sizes(ball):
            sizes.update(ball.sphere_sizes())
            return {str(k): v for k, v in sizes.items()}

        def d1_units(summary):
            return sum(sizes[k] * sizes[l] for _p, k, l, _s, _v in summary["rows"])

        engine = Item((0,), "ball:engine", engine_ball, keep_sizes, lambda s: sum(s.values()))
        oracle = Item(
            (1,),
            "ball:oracle",
            lambda: Ball(Oracle(self.pres), R),
            lambda ball: {str(k): v for k, v in ball.sphere_sizes().items()},
            lambda s: sum(s.values()),
        )
        d1 = Item(
            (2,),
            "d1-scan",
            lambda: sweeps.d1_scan(group, R, self.MIN_KL, self.preset),
            lambda out: {"rows": [list(r) for r in out[0]], "summary": out[1]},
            d1_units,
        )
        orders = [(engine, oracle, d1), (oracle, engine, d1), (engine, d1, oracle)]
        return list(random.Random(f"{self.name}:{self.seed}:{c}").choice(orders))

    def check_item(self, rec, ref) -> list[str]:
        if rec["label"] == "d1-scan":
            if rec["summary"] != ref["d1"]:
                return ["d1 rows or summary differ from the stored reference"]
            return []
        if rec["summary"] != ref["sphere_sizes"]:
            return [f"{rec['label']} sphere sizes differ from the stored reference"]
        return []

    def spot_checks(self, records) -> list[tuple[int, str]]:
        """Engine and oracle sphere sizes agree within every cycle."""
        by_cycle: dict[int, dict[str, Any]] = {}
        for rec in records:
            by_cycle.setdefault(rec["cycle"], {})[rec["label"]] = rec
        bad = []
        for recs in by_cycle.values():
            e, o = recs.get("ball:engine"), recs.get("ball:oracle")
            if e and o and e["summary"] != o["summary"]:
                bad.append((o["id"], "engine and oracle sphere sizes disagree"))
        return bad


# -- d2-merge ------------------------------------------------------------------


class D2Merge(Workload):
    """The merger-set scan on three presets; every pair k + l <= R is merged once."""

    name = "d2-merge"
    parts = (
        "triangle345 merges per second",
        "triangle444 merges per second",
        "da4 merges per second",
    )
    SIZES = {
        "full": (("triangle345", 3), ("triangle444", 3), ("da4", 4)),
        "tiny": (("triangle345", 2), ("triangle444", 2), ("da4", 2)),
    }

    def __init__(self, size: str, seed: int):
        from artingeo.presets import load_preset

        self.size = size
        self.seed = seed
        self.configs = self.SIZES[size]
        self.pres = [load_preset(p) for p, _r in self.configs]

    def cycle(self, c: int) -> list[Item]:
        from artingeo import sweeps
        from artingeo.largetype import ArtinGroup

        items = []
        for part, ((pid, R), pres) in enumerate(zip(self.configs, self.pres)):
            group = ArtinGroup(pres)

            def summarise(out, group=group, R=R):
                rows, summary = out
                sizes = group.ball(R).sphere_sizes()
                merges = sum(
                    sizes.get(k, 0) * sizes.get(l, 0)
                    for k in range(R + 1)
                    for l in range(R + 1 - k)
                )
                return {
                    "rows": len(rows),
                    "digest": digest([list(r) for r in rows]),
                    "all_bounds_ok": summary["all_bounds_ok"],
                    "events": len(summary["events"]),
                    "merges": merges,
                }

            items.append(
                Item(
                    (part,),
                    f"d2-scan:{pid}:r{R}",
                    lambda group=group, R=R, pid=pid: sweeps.d2_scan(group, R, pid),
                    summarise,
                    lambda s: s["merges"],
                )
            )
        random.Random(f"{self.name}:{self.seed}:{c}").shuffle(items)
        return items

    def check_item(self, rec, ref) -> list[str]:
        want = ref["d2"][rec["label"]]
        if rec["summary"] != want:
            return [f"{rec['label']} rows or summary differ from the stored reference"]
        return []

    def spot_checks(self, records) -> list[tuple[int, str]]:
        return [
            (rec["id"], f"{rec['label']} reports a violated bound or an event")
            for rec in records
            if not rec["summary"]["all_bounds_ok"] or rec["summary"]["events"]
        ]


# -- rd-harmonic ---------------------------------------------------------------


class RdHarmonic(Workload):
    """Ratio tables and operator norms on balls built during set-up."""

    name = "rd-harmonic"
    parts = (
        "triangle345 trial records per second",
        "da3 trial records per second",
        "power iterations per second",
    )
    SIZES = {
        "full": {"rd": (("triangle345", 5, 120), ("da3", 6, 60)), "opnorm": ("da3", 6, 1500)},
        "tiny": {"rd": (("triangle345", 3, 3), ("da3", 4, 3)), "opnorm": ("da3", 4, 20)},
    }
    OPNORM_K = (1, 2, 3)

    def __init__(self, size: str, seed: int):
        from artingeo.harmonic import GroupFunction
        from artingeo.largetype import ArtinGroup
        from artingeo.presets import load_preset

        self.size = size
        self.seed = seed
        cfg = self.SIZES[size]
        self.rd = cfg["rd"]
        groups: dict[str, ArtinGroup] = {}
        for pid, R, _t in self.rd:
            groups[pid] = ArtinGroup(load_preset(pid))
            groups[pid].ball(R)
        opid, self.op_radius, self.iterations = cfg["opnorm"]
        ball = groups[opid].ball(self.op_radius)
        self.groups = groups
        self.phis = [
            (k, GroupFunction.sphere_indicator(groups[opid], ball, k)) for k in self.OPNORM_K
        ]

    def cycle(self, c: int) -> list[Item]:
        from artingeo import harmonic, sweeps

        items = []
        for part, (pid, R, trials) in enumerate(self.rd):
            group = self.groups[pid]
            items.append(
                Item(
                    (part,),
                    f"rd-check:{pid}:r{R}",
                    lambda group=group, R=R, trials=trials, pid=pid: sweeps.rd_check(
                        group, R, trials, self.seed, pid
                    ),
                    lambda out: [[r[1], r[2], r[3], r[4]] for r in out[0]],
                    lambda rows, trials=trials: len(rows) * (trials + 2),
                )
            )
        for k, phi in self.phis:
            radius = self.op_radius - k
            items.append(
                Item(
                    (2,),
                    f"opnorm:chi_C{k}",
                    lambda phi=phi, radius=radius: harmonic.operator_norm_profile(
                        phi, [radius], self.iterations
                    ),
                    lambda out: [[R, v] for R, v in out],
                    lambda _s: self.iterations,
                )
            )
        random.Random(f"{self.name}:{self.seed}:{c}").shuffle(items)
        return items

    def check_item(self, rec, ref) -> list[str]:
        got = rec["summary"]
        if rec["label"].startswith("opnorm"):
            want = ref["opnorm"][rec["label"]]
            if not close_rows(got, want):
                return [f"{rec['label']} differs from the stored reference"]
            return []
        want = ref["rd"][rec["label"]]
        bad = []
        if [r[:3] for r in got] != [r[:3] for r in want]:
            bad.append(f"{rec['label']} has a different set of (k, l, m) rows")
        if any(not math.isfinite(r[3]) or r[3] < 0 for r in got):
            bad.append(f"{rec['label']} has a negative or non-finite ratio")
        if self.seed == DEFAULT_SEED and not close_rows(got, want):
            bad.append(f"{rec['label']} ratios differ from the stored reference")
        return bad

    FIXTURE = "tests/fixtures/rd_da3_radius4_trials10_seed7.csv"
    CLI_ARGS = ["--preset", "da3", "rd-check", "--radius", "4", "--trials", "10", "--seed", "7"]

    def extra_checks(self, root: Path, workdir: Path) -> list[str | None]:
        """The rd-check subcommand reproduces the committed fixture byte for byte."""
        from artingeo import cli

        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", tmp] + self.CLI_ARGS)
            got = (Path(tmp) / "rd.csv").read_bytes() if code == 0 else b""
        if code != 0 or got != (root / self.FIXTURE).read_bytes():
            return [f"artingeo rd-check output differs from {self.FIXTURE} (exit {code})"]
        return [None]

    def spot_checks(self, records) -> list[tuple[int, str]]:
        """Every cycle repeats the same computation, so the outputs must agree."""
        first: dict[str, Any] = {}
        bad = []
        for rec in records:
            prev = first.setdefault(rec["label"], rec["summary"])
            if not close_rows(rec["summary"], prev):
                bad.append((rec["id"], f"{rec['label']} changed between cycles"))
        return bad


def close_rows(got, want, tol: float = RD_TOL) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if len(a) != len(b) or a[:-1] != b[:-1] or abs(a[-1] - b[-1]) > tol:
            return False
    return True


WORKLOADS = {w.name: w for w in (NfLong, BallD1, D2Merge, RdHarmonic)}
