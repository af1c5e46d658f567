"""
Outside-in tracing of the artingeo layers.

The tracer replaces public functions and methods with timing wrappers,
under the names their callers actually resolve (``shortlex`` imports the
chain searches by name, so those are patched on ``artingeo.shortlex``, not
on ``artingeo.critical``).  The package itself is not modified on disk and
knows nothing about the tracer.

Self time is computed with a stack: every wrapped call adds its duration to
its caller's child time, so a layer's self time is its duration minus the
time spent in wrapped calls below it.  ``append`` and ``nf`` recurse into
each other, which is why a per-function timer would not do.

Coarse boundaries (bench items, balls, campaign calls and cells, merges,
trials calls) record one span each: (id, name, start, end, parent, item).
Hot boundaries (``append``, ``classify_critical``, ``canon``,
``permissible``, ``ld`` and friends) are called up to millions of times per
run, so they only aggregate a count and a self time under the innermost
open span.  Generators such as ``critical_spans`` are never wrapped: a
wrapper would time only their creation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

clock = time.perf_counter


def _found(tracer, name, args, res):
    tracer.bump(name + ".found", res is not None)


def _accepted(tracer, name, args, res):
    tracer.bump(name + ".accepted", bool(res))


def _elements(tracer, name, args, res):
    tracer.bump(name + ".elements", len(args[0]))


def _moves(tracer, name, args, res):
    tracer.bump(name + ".moves", len(res.trace))


def _records(tracer, name, args, res):
    tracer.bump(name + ".records", len(res))


def targets():
    """(owner, attribute, layer name, coarse?, observer) for every wrapper."""
    from artingeo import critical, dihedral, harmonic, largetype, oracle, shortlex, sweeps

    return [
        (critical, "classify_critical", "critical.classify", False, None),
        (dihedral, "classify_critical", "critical.classify", False, None),
        (shortlex, "rightward_length_reduction", "critical.rightward", False, _found),
        (shortlex, "leftward_lex_reduction", "critical.leftward", False, _found),
        (shortlex, "tau_closure", "critical.tau_closure", False, None),
        (shortlex.ShortlexEngine, "append", "shortlex.append", False, None),
        (shortlex.ShortlexEngine, "nf", "shortlex.nf", False, None),
        (shortlex.ShortlexEngine, "reordered", "shortlex.reordered", False, None),
        (shortlex.ElementBall, "__init__", "shortlex.ball", True, _elements),
        (oracle.Oracle, "canon", "oracle.canon", False, None),
        (oracle.Ball, "__init__", "oracle.ball", True, _elements),
        (largetype.ArtinGroup, "permissible", "largetype.permissible", False, _accepted),
        (largetype.ArtinGroup, "ld", "largetype.ld", False, None),
        (dihedral.DihedralContext, "permissible", "dihedral.permissible", False, None),
        (largetype.ArtinGroup, "merge", "largetype.merge", True, _moves),
        (largetype.ArtinGroup, "build_s_t", "largetype.build_s_t", True, None),
        (largetype.ArtinGroup, "split_s", "largetype.split_s", False, None),
        (
            dihedral.DihedralContext,
            "right_divisor_words",
            "dihedral.right_divisor_words",
            False,
            None,
        ),
        (harmonic, "permissible_fact_counts", "harmonic.fact_counts", True, None),
        (sweeps, "star_star_trials", "harmonic.trials", True, _records),
        (harmonic, "operator_norm_profile", "harmonic.opnorm", True, None),
        (sweeps, "d1_scan", "sweeps.d1_scan", True, None),
        (sweeps, "d2_scan", "sweeps.d2_scan", True, None),
        (sweeps, "rd_check", "sweeps.rd_check", True, None),
    ]


class Tracer:
    """Counts, self times and spans for one traced run, kept in memory."""

    DRIVER = "bench.driver"

    def __init__(self):
        # frames: [child seconds] per open wrapped call; the frame below the
        # first wrapped call is the driver's cycle frame
        self.stack: list[list[float]] = [[0.0]]
        self.span_stack: list[int] = [-1]
        self.item = -1
        self.spans: list[tuple] = []
        # (span id, layer) -> [calls, self seconds]
        self.agg: dict[tuple[int, str], list] = {}
        self.counters: dict[str, float] = {}
        self.cycles = 0
        self.cycle_seconds = 0.0
        self._saved: list[tuple] = []

    # -- bookkeeping ----------------------------------------------------------

    def bump(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _charge(self, name: str, dt: float, child: float) -> None:
        self.stack[-1][0] += dt
        key = (self.span_stack[-1], name)
        rec = self.agg.get(key)
        if rec is None:
            self.agg[key] = [1, dt - child]
        else:
            rec[0] += 1
            rec[1] += dt - child

    def _wrap(self, fn, name: str, coarse: bool, observe):
        tracer = self

        if coarse:

            def wrapper(*args, **kwargs):
                frame = [0.0]
                tracer.stack.append(frame)
                sid = len(tracer.spans)
                parent = tracer.span_stack[-1]
                tracer.spans.append(None)
                tracer.span_stack.append(sid)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    tracer.span_stack.pop()
                    tracer.stack.pop()
                    tracer.spans[sid] = (sid, name, t0, t1, parent, tracer.item)
                    tracer._charge(name, t1 - t0, frame[0])
                if observe is not None:
                    observe(tracer, name, args, res)
                return res

        else:

            def wrapper(*args, **kwargs):
                frame = [0.0]
                tracer.stack.append(frame)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tracer.stack.pop()
                    tracer._charge(name, dt, frame[0])
                if observe is not None:
                    observe(tracer, name, args, res)
                return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, coarse, observe in targets():
            fn = owner.__dict__.get(attr)
            if not callable(fn):
                raise RuntimeError(f"cannot trace {owner.__name__}.{attr}: not found")
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, coarse, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- driver-side spans ----------------------------------------------------

    @contextmanager
    def cycle(self):
        """One benchmark cycle; time not spent in a wrapped call is the driver's."""
        frame = [0.0]
        self.stack.append(frame)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self.stack.pop()
            self.cycles += 1
            self.cycle_seconds += t1 - t0
            key = (-1, self.DRIVER)
            rec = self.agg.setdefault(key, [0, 0.0])
            rec[0] += 1
            rec[1] += (t1 - t0) - frame[0]

    @contextmanager
    def item_span(self, item_id: int, label: str):
        """Span of one benchmark item (a word, a ball, a campaign call)."""
        self.item = item_id
        sid = len(self.spans)
        parent = self.span_stack[-1]
        self.spans.append(None)
        self.span_stack.append(sid)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self.span_stack.pop()
            self.spans[sid] = (sid, "bench.item:" + label, t0, t1, parent, item_id)
            self.item = -1

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """layer -> [calls, self seconds], summed over every span."""
        out: dict[str, list] = {}
        for (_sid, name), (calls, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "aggregates": [
                [sid, name, calls, self_s] for (sid, name), (calls, self_s) in self.agg.items()
            ],
            "counters": self.counters,
            "cycles": self.cycles,
            "cycle_seconds": self.cycle_seconds,
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, as totals per traced cycle."""
    tot = tracer.totals()
    cnt = tracer.counters
    n = max(tracer.cycles, 1)

    def calls(name):
        return tot.get(name, [0, 0.0])[0]

    def self_s(name):
        return tot.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in ["critical.rightward", "critical.leftward"]:
        m[layer + ".calls"] = calls(layer) / n
        m[layer + ".self_s"] = self_s(layer) / n
        m[layer + ".found_ratio"] = ratio(cnt.get(layer + ".found", 0), calls(layer))
    for layer in [
        "critical.classify",
        "critical.tau_closure",
        "shortlex.append",
        "shortlex.nf",
        "oracle.canon",
        "largetype.permissible",
        "largetype.ld",
        "dihedral.permissible",
        "largetype.merge",
        "largetype.split_s",
        "dihedral.right_divisor_words",
        "harmonic.fact_counts",
        "harmonic.trials",
        "harmonic.opnorm",
    ]:
        m[layer + ".calls"] = calls(layer) / n
        m[layer + ".self_s"] = self_s(layer) / n
    m["shortlex.append.repair_ratio"] = ratio(calls("critical.rightward"), calls("shortlex.append"))
    m["shortlex.reordered.calls"] = calls("shortlex.reordered") / n
    for layer in ["shortlex.ball", "oracle.ball"]:
        # inclusive duration of the ball constructors, from their spans
        m[layer + ".s"] = (
            sum(s[3] - s[2] for s in tracer.spans if s is not None and s[1] == layer) / n
        )
        m[layer + ".self_s"] = self_s(layer) / n
        m[layer + ".elements"] = cnt.get(layer + ".elements", 0) / n
    m["largetype.permissible.accept_ratio"] = ratio(
        cnt.get("largetype.permissible.accepted", 0), calls("largetype.permissible")
    )
    m["largetype.merge.moves_per_merge"] = ratio(
        cnt.get("largetype.merge.moves", 0), calls("largetype.merge")
    )
    m["largetype.build_s_t.self_s"] = self_s("largetype.build_s_t") / n
    m["harmonic.trials.records"] = cnt.get("harmonic.trials.records", 0) / n
    for layer in ["sweeps.d1_scan", "sweeps.d2_scan", "sweeps.rd_check"]:
        m[layer + ".self_s"] = self_s(layer) / n
    m["bench.driver.self_s"] = self_s(Tracer.DRIVER) / n
    m["trace.cycle_s"] = tracer.cycle_seconds / n
    m["trace.self_sum_frac"] = ratio(
        sum(rec[1] for rec in tot.values()), tracer.cycle_seconds
    )
    return m
