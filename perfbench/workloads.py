"""The benchmark's workloads and the measurement procedure they share.

Each workload drives the public calls that one ``sawkit`` command makes:
``sample saw`` (build_table + sample_saw), ``aztec sample``
(partition_family + sample_partition) and ``glauber run`` (run_chain).
Every set-up and output is checked outside its timing; a failed check or
a SamplingBudgetError counts as a failed operation.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from sawkit import aztec, counting, glauber, sampling
from sawkit.lattice import FullLattice, Point, Walk

from .stats import latency_summary
from .tracing import Tracer, select

clock = time.perf_counter

# Exact girth-restricted walk counts (0,0) -> (n1,n2) of length n1+n2+2k for
# l=2, keyed by (n1, n2, k).  Exact counts never change.
PINNED_COUNTS = {
    (100, 100, 6): 10966926098348152475368969683325540961436718313493273299841458638298400,
    (10, 10, 2): 45013280,
}

# (module, public name, units per call) wrapped in the traced run.
TRACE_POINTS = (
    ("counting", "build_table", None),
    ("counting", "CountTable.__init__", None),
    ("sampling", "sample_saw", None),
    ("sampling", "sample_low_girth_walk", None),
    ("sampling", "sample_low_girth_walk_from", len),
    ("sampling", "sample_length_then_walk", None),
    ("lattice", "Walk.is_self_avoiding", None),
    ("aztec", "partition_family", None),
    ("aztec", "sample_partition", None),
    ("aztec", "path_to_partition", None),
    ("aztec", "in_omega", None),
    ("glauber", "run_chain", None),
    ("glauber", "glauber_step", None),
    ("glauber", "ChainState.endpoints", None),
)

# Root spans of the traced run, one per phase.
SETUP, CACHE_FILL, SETUP_CACHED, OUTPUTS = "bench.setup", "bench.cache_fill", "bench.setup_cached", "bench.outputs"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _clear_cache(owner, *path: str) -> None:
    """Empty an in-process cache of the program, if it still has one there."""
    for attr in path:
        owner = getattr(owner, attr, None)
    if isinstance(owner, dict):
        owner.clear()


def _states(tables) -> int:
    """Stored DP states over the distinct tables."""
    unique = {id(t): t for t in tables}.values()
    return sum(len(layer) for t in unique for layer in t.export_layers() if layer)


class SawWorkload:
    """``sample saw``: one origin-mode DP table, then SAWs by rejection."""

    name = "saw-n200"
    disk_cache = False
    setup_reps, cached_reps = 3, 2
    trace_outputs = 2000  # per traced phase at --seconds 10

    def __init__(self, smoke: bool = False):
        self.n1 = self.n2 = 10 if smoke else 100
        self.k = 2 if smoke else 6
        self.girth = 2
        self.length = self.n1 + self.n2 + 2 * self.k
        self.expected = PINNED_COUNTS[(self.n1, self.n2, self.k)]

    def _build(self):
        return counting.build_table(FullLattice(), Point(0, 0), Point(self.n1, self.n2), self.girth, self.k)

    def cold_setup(self):
        _clear_cache(counting, "_AUTOMATA")
        return self._build()

    def cached_setup(self, cache_dir):
        # The saw command has no disk cache; only the window automaton is kept.
        return self._build()

    def signature(self, table):
        return table.count_from(Point(0, 0), self.length)

    def setup_problems(self, table) -> list[str]:
        got = self.signature(table)
        return [] if got == self.expected else [f"count_from = {got}, pinned {self.expected}"]

    def draw(self, table, rng, i: int):
        rep = sampling.sample_saw(table, rng.substream(i), self.length, 1000)
        return rep.walk.moves, rep.attempts

    def output_problems(self, moves) -> list[str]:
        walk = Walk(Point(0, 0), moves)
        out = []
        if len(walk) != self.length:
            out.append(f"walk length {len(walk)} != {self.length}")
        if walk.end != (self.n1, self.n2):
            out.append(f"walk ends at {walk.end}")
        if not walk.is_self_avoiding():
            out.append("walk is not self-avoiding")
        return out

    def facts(self, table, records) -> dict:
        return {"states": _states([table])}


class AztecWorkload:
    """``aztec sample``: the all-sources table family, then Algorithm-4 proposals."""

    name = "aztec-k8"
    disk_cache = True
    setup_reps, cached_reps = 3, 3
    trace_outputs = 150

    def __init__(self, smoke: bool = False):
        self.k = 4 if smoke else 8
        self.params = aztec.OmegaParams(2.0, 0.5)
        self.girth = 2

    def cold_setup(self):
        _clear_cache(counting, "_AUTOMATA")
        return aztec.partition_family(self.k, self.params, self.girth, cache_dir=None)

    def fill_cache(self, cache_dir):
        aztec.partition_family(self.k, self.params, self.girth, cache_dir=cache_dir)

    def cached_setup(self, cache_dir):
        return aztec.partition_family(self.k, self.params, self.girth, cache_dir=cache_dir)

    def signature(self, family):
        return [(e.label, tuple(e.start), e.length, e.count) for e in family]

    def setup_problems(self, family) -> list[str]:
        if not family or any(e.count <= 0 for e in family):
            return ["family is empty or has a cell without walks"]
        return []

    def draw(self, family, rng, i: int):
        part, rep = aztec.sample_partition(self.k, self.params, self.girth, rng.substream(i),
                                           family=family, max_attempts=1000)
        return (part, rep.walk), rep.attempts

    def output_problems(self, record) -> list[str]:
        part, walk = record
        out = []
        if not aztec.in_omega(part, self.params):
            out.append("partition outside Omega")
        if aztec.make_partition(self.k, part.class1) != part:
            out.append("partition fails make_partition re-validation")
        if aztec.path_to_partition(self.k, aztec.partition_to_path(part)) != part:
            out.append("partition_to_path -> path_to_partition does not round-trip")
        if aztec.path_to_partition(self.k, walk) != part:
            out.append("accepted walk does not induce the partition")
        return out

    def facts(self, family, records) -> dict:
        return {"states": _states(e.table for e in family), "family_cells": len(family)}


@dataclass
class _Chain:
    current: object  # the partition the next chunk of steps starts from


class GlauberWorkload:
    """``glauber run``: single-vertex flips, one recorded state per chunk of steps."""

    name = "glauber-k8"
    disk_cache = False
    setup_reps, cached_reps = 201, 201
    trace_outputs = 600
    record_every = 1000

    def __init__(self, smoke: bool = False):
        self.k = 4 if smoke else 8
        self.params = aztec.OmegaParams(2.0, 0.5)

    def _start(self):
        trace = glauber.run_chain(self.k, self.params, 0, sampling.RngStream(0), record_every=self.record_every)
        return _Chain(trace.final)

    def cold_setup(self):
        _clear_cache(glauber, "_Diamond", "_cache")
        return self._start()

    def cached_setup(self, cache_dir):
        return self._start()

    def signature(self, chain):
        return chain.current

    def setup_problems(self, chain) -> list[str]:
        return self._partition_problems(chain.current)

    def draw(self, chain, rng, i: int):
        trace = glauber.run_chain(self.k, self.params, self.record_every, rng, start=chain.current,
                                  record_every=self.record_every)
        chain.current = trace.final
        return (trace.final, trace.moves, trace.crossings), trace.steps

    def _partition_problems(self, part) -> list[str]:
        out = []
        if aztec.make_partition(self.k, part.class1) != part:
            out.append("chain state fails re-validation or its boundary sizes differ from a recompute")
        if not aztec.in_omega(part, self.params):
            out.append("chain state outside Omega")
        return out

    def output_problems(self, record) -> list[str]:
        return self._partition_problems(record[0])

    def facts(self, chain, records) -> dict:
        return {
            "steps": len(records) * self.record_every,
            "moves": sum(r[1] for r in records),
            "crossings": sum(r[2] for r in records),
        }


WORKLOADS = {w.name: w for w in (SawWorkload, AztecWorkload, GlauberWorkload)}

@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def count(self, problems: list[str]) -> None:
        """Record one attempted operation and the problems its check found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _draw(wl, state, rng, i):
    """(record, proposals); record is None when the sampler gave up."""
    try:
        return wl.draw(state, rng, i)
    except sampling.SamplingBudgetError as exc:
        return None, exc.attempts


def _check(wl, rec) -> list[str]:
    return ["sampling budget exhausted"] if rec is None else wl.output_problems(rec)


# Host speed.  The machine this benchmark was tuned on drifts by up to 40%
# in speed over minutes (a fixed pure-Python loop took 11 to 18 ms), which
# swamps any change to the program.  A fixed unit of pure-Python work, run
# between the workload's operations and never inside them, tracks that
# drift, and end-to-end times are scaled to a host on which the unit takes
# CAL_REF_S: each set-up by the units run just before and after it, the
# timed loop by the mean of the units run during it.  The report prints the
# raw values and the scale factors next to them.
CAL_ITERS = 20_000
CAL_REF_S = 1e-3
CAL_EVERY_S = 0.02  # of workload time between two calibration units


def _calibration_unit() -> int:
    s = 0
    for i in range(CAL_ITERS):
        s += i * i
    return s


class HostSpeed:
    """Times of the calibration unit, sampled between workload operations."""

    def __init__(self):
        self.times: list[float] = []
        self._last = 0.0  # duration of the last timed operation

    def sample(self, work_s: float = 0.0) -> float:
        """Run one unit per CAL_EVERY_S of work_s (1 to 20); their slowdown."""
        times = []
        for _ in range(min(20, max(1, round(work_s / CAL_EVERY_S)))):
            t0 = clock()
            _calibration_unit()
            times.append(clock() - t0)
        self.times += times
        return statistics.fmean(times) / CAL_REF_S

    def slowdown(self) -> float:
        """Mean unit time over the reference time: above 1 on a slower host."""
        return statistics.fmean(self.times) / CAL_REF_S

    def timed(self, fn, *args):
        """(result, seconds, seconds scaled by the slowdown just before and after)."""
        before = self.sample(self._last)
        t0 = clock()
        out = fn(*args)
        dt = clock() - t0
        self._last = dt
        return out, dt, dt * 2 / (before + self.sample(dt))


def measure(wl, seed: int, seconds: float, workdir: str) -> Result:
    """End-to-end run: repeated set-ups, then outputs for `seconds` seconds of work."""
    res = Result()
    cold, cached = [], []  # (raw, scaled) seconds
    setup_speed, loop_speed = HostSpeed(), HostSpeed()
    state = reference = cache_dir = None
    # Cold and cached set-ups alternate, so that both see the same machine.
    for r in range(max(wl.setup_reps, wl.cached_reps)):
        if r < wl.setup_reps:
            state = None  # free the previous table before building the next
            gc.collect()
            state, *dt = setup_speed.timed(wl.cold_setup)
            cold.append(dt)
            res.count(wl.setup_problems(state))
            reference = wl.signature(state)
        if r < wl.cached_reps:
            state = None
            gc.collect()
            if wl.disk_cache and cache_dir is None:
                cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
                wl.fill_cache(cache_dir)
            state, *dt = setup_speed.timed(wl.cached_setup, cache_dir)
            cached.append(dt)
            problems = wl.setup_problems(state)
            if wl.signature(state) != reference:
                problems.append("cached set-up differs from the cold one")
            res.count(problems)

    # Closed loop; each output is checked and dropped outside its timing.
    rng = sampling.RngStream(seed)
    latencies = []
    proposals = attempted = 0
    work = since_sample = 0.0
    loop_speed.sample()
    while work < seconds:
        t0 = clock()
        rec, props = _draw(wl, state, rng, attempted)
        dt = clock() - t0
        attempted += 1
        work += dt
        proposals += props
        if rec is not None:
            latencies.append(dt)
        res.count(_check(wl, rec))
        since_sample += dt
        if since_sample >= CAL_EVERY_S:
            loop_speed.sample()
            since_sample = 0.0

    loop_slow = loop_speed.slowdown()
    lat = latency_summary(latencies)
    raw = {
        "setup_s": statistics.median(raw for raw, _ in cold),
        "setup_cached_s": statistics.median(raw for raw, _ in cached),
        "samples_per_s": len(latencies) / work,
        "sample_ms_p50": lat["p50_ms"],
        "sample_ms_p95": lat["tail_ms"],
        "proposals_per_s": proposals / work,
        "peak_rss_mb": peak_rss_mb(),
    }
    scale = {"samples_per_s": loop_slow, "sample_ms_p50": 1 / loop_slow, "sample_ms_p95": 1 / loop_slow,
             "proposals_per_s": loop_slow}
    res.metrics = {name: value * scale.get(name, 1.0) for name, value in raw.items()}
    # Each set-up is scaled by the host speed measured just before and after it.
    res.metrics["setup_s"] = statistics.median(scaled for _, scaled in cold)
    res.metrics["setup_cached_s"] = statistics.median(scaled for _, scaled in cached)
    tail = f"p{lat['tail_pct']}" if lat["tail_pct"] is not None else "max"
    res.notes += [
        f"set-ups: {len(cold)} cold, {len(cached)} cached",
        f"outputs: {attempted} attempted in {work:.3f} s of work, {len(latencies)} accepted, "
        f"{proposals} proposals",
        f"sample_ms_p95 holds the {tail} of {lat['n']} latencies",
        f"host slowdown: {setup_speed.slowdown():.4f} in set-up ({len(setup_speed.times)} units), "
        f"{loop_slow:.4f} in the loop ({len(loop_speed.times)} units); times below are scaled by it",
        "raw: " + "  ".join(f"{name}={value:.6g}" for name, value in raw.items()),
    ]
    return res


@dataclass
class _Phase:
    records: list
    signature: object
    facts: dict
    outputs_s: float
    setup_rss_mb: float


def _fixed_run(wl, seed: int, n: int, workdir: str, tracer: Tracer | None) -> _Phase:
    """One cold set-up (plus cache fill and load), then exactly n outputs."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    gc.collect()
    rss0 = peak_rss_mb()
    with span(SETUP):
        state = wl.cold_setup()
    rss_growth = peak_rss_mb() - rss0
    signature = wl.signature(state)
    if wl.disk_cache:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        with span(CACHE_FILL):
            wl.fill_cache(cache_dir)
        with span(SETUP_CACHED):
            wl.cached_setup(cache_dir)
        facts = {"cache_bytes": sum(e.stat().st_size for e in os.scandir(cache_dir))}
        shutil.rmtree(cache_dir)
    else:
        facts = {}
    rng = sampling.RngStream(seed)
    t0 = clock()
    with span(OUTPUTS):
        records = [_draw(wl, state, rng, i)[0] for i in range(n)]
    outputs_s = clock() - t0
    facts.update(wl.facts(state, [r for r in records if r is not None]))
    return _Phase(records, signature, facts, outputs_s, rss_growth)


def install_trace_points(tracer: Tracer) -> None:
    for module, attr, units in TRACE_POINTS:
        tracer.install("sawkit", module, attr, units)


def trace(wl, seed: int, seconds: float, workdir: str, spans_path: str | None = None) -> Result:
    """Traced run: the same outputs untraced and then traced, and per-layer metrics."""
    res = Result()
    n = max(1, round(wl.trace_outputs * seconds / 10))
    plain = _fixed_run(wl, seed, n, workdir, None)
    tracer = Tracer()
    install_trace_points(tracer)
    try:
        traced = _fixed_run(wl, seed, n, workdir, tracer)
    finally:
        tracer.uninstall()
    res.count([] if traced.signature == plain.signature else ["traced set-up differs from untraced"])
    res.count([] if traced.records == plain.records else ["traced outputs differ from untraced"])
    for rec in traced.records:
        res.count(_check(wl, rec))
    if spans_path:
        tracer.write(spans_path)
    res.metrics = layer_metrics(tracer, traced, plain)
    res.notes += [
        f"outputs per phase: {n}; spans: {len(tracer)}",
        f"tracing overhead on outputs: {traced.outputs_s:.3f} s traced vs {plain.outputs_s:.3f} s untraced",
        "missing spans: " + (", ".join(tracer.missing) if tracer.missing else "none"),
    ]
    return res


def layer_metrics(tracer: Tracer, traced: _Phase, plain: _Phase) -> dict[str, float]:
    aggs = tracer.aggregate()

    def agg(name, **kw):
        return select(aggs, name, **kw)

    accepted = sum(1 for r in traced.records if r is not None)
    facts = traced.facts
    build = agg("counting.CountTable.__init__", root=SETUP)
    states = facts.get("states", 0)
    walks = agg("sampling.sample_low_girth_walk_from", root=OUTPUTS)
    proposals = agg("sampling.sample_length_then_walk", parent="aztec.sample_partition")

    def frac(part, whole):
        return part / whole if whole else 0.0

    return {
        "counting.build_s": build.total,
        "counting.tables": build.calls,
        "counting.states": states,
        "counting.ns_per_state": frac(build.total * 1e9, states),
        "counting.peak_mb": plain.setup_rss_mb,
        "sampling.walk_us_per_step": frac(walks.total * 1e6, walks.units),
        "sampling.draw_self_us": agg("sampling.sample_length_then_walk", root=OUTPUTS).self_mean() * 1e6,
        "sampling.proposals_per_sample": frac(walks.calls, accepted),
        "lattice.saw_check_us": agg("lattice.Walk.is_self_avoiding").mean() * 1e6,
        "aztec.path_to_partition_us": agg("aztec.path_to_partition").mean() * 1e6,
        "aztec.reject_non_saw_frac": frac(
            agg("lattice.Walk.is_self_avoiding", parent="aztec.sample_partition").false, proposals.calls),
        "aztec.reject_not_2partition_frac": frac(
            agg("aztec.path_to_partition", parent="aztec.sample_partition").raised, proposals.calls),
        "aztec.reject_over_budget_frac": frac(
            agg("aztec.in_omega", parent="aztec.sample_partition").false, proposals.calls),
        "aztec.family_cells": facts.get("family_cells", 0),
        "aztec.family_self_s": agg("aztec.partition_family", root=SETUP).self_total,
        "aztec.cache_fill_s": agg("aztec.partition_family", root=CACHE_FILL).total,
        "aztec.cache_bytes": facts.get("cache_bytes", 0),
        "glauber.step_us": agg("glauber.glauber_step").mean() * 1e6,
        "glauber.endpoints_us": agg("glauber.ChainState.endpoints").mean() * 1e6,
        "glauber.endpoints_calls": agg("glauber.ChainState.endpoints", root=OUTPUTS).calls,
        "glauber.move_frac": frac(facts.get("moves", 0), facts.get("steps", 0)),
        "glauber.crossings": facts.get("crossings", 0),
        "bench.trace_overhead": frac(traced.outputs_s, plain.outputs_s),
        "bench.spans": len(tracer),
        "bench.missing_spans": len(tracer.missing),
    }
