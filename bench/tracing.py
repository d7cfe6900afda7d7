"""Per-layer tracing for the benchmark, from the benchmark's own files.

`Tracer.installed()` replaces, for the duration of a pass, the module
globals through which each layer's callers reach it (for example
`cmkit.census.torsion_staircase`, not the definition in `cmkit.torsion`),
with wrappers that record a span or a count.  No file of cmkit changes.

A span's self time is its duration minus the time of the spans it
called.  Spans are aggregated per name as they close (calls and self
time), because the sweep makes millions of layer calls and keeping one
record per span would cost more memory than the run has.  The
enumerators and the witness check run once per vector, where even a span
costs more than the work, so they are measured by isolated drains after
the timed passes: the tracer records which enumerations the workload
started and a sample of witness-check arguments, and `drain()` re-runs
them on their own.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

import cmkit.census
import cmkit.cli
import cmkit.graphs
import cmkit.lattice
import cmkit.linear
import cmkit.torsion

#: Witness-check argument triples kept for the isolated drain.
WITNESS_SAMPLE = 65_536
#: Repetitions of each isolated drain; the median is reported.
DRAIN_REPEATS = 3
#: Staircase call buckets by p, upper limits (exclusive).
STAIRCASE_BUCKETS = (("p_lt_256", 256), ("p_lt_4096", 4096), ("p_ge_4096", None))

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "changemaker.vectors": "count",
    "changemaker.ns_per_vector": "ns",
    "census.instances.lemma4": "count",
    "census.instances.lemma5": "count",
    "census.instances.theorem1": "count",
    "census.sweep_self_s": "s",
    "census.witness_calls": "count",
    "census.witness_ns_per_call": "ns",
    "census.witness_hit_ratio": "ratio",
    "census.deep_checks": "count",
    "census.deep_self_s": "s",
    "census.theorem1_checks": "count",
    "census.theorem1_self_s": "s",
    "torsion.at_most_calls": "count",
    "torsion.at_most_self_s": "s",
    "torsion.staircase_calls": "count",
    "torsion.staircase_self_s": "s",
    "torsion.min_costs_calls": "count",
    "torsion.staircase_cache_hits": "count",
    "torsion.staircase_ms.p_lt_256": "ms",
    "torsion.staircase_ms.p_lt_4096": "ms",
    "torsion.staircase_ms.p_ge_4096": "ms",
    "torsion.inversion_calls": "count",
    "torsion.inversion_self_s": "s",
    "torsion.inversion_none": "count",
    "linear.recognize_calls": "count",
    "linear.recognize_hits": "count",
    "linear.recognize_self_s": "s",
    "lattice.isometry_calls": "count",
    "lattice.isometry_self_s": "s",
    "lattice.short_vectors_calls": "count",
    "lattice.short_vectors_self_s": "s",
    "graphs.calls": "count",
    "graphs.self_s": "s",
    "cli.lines": "count",
    "cli.bytes": "bytes",
    "cli.dump_self_s": "s",
    "other.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.staircase_ms: dict[str, list[float]] = defaultdict(list)
        self.enumerations: list = []  # (function, args, kwargs) of one pass
        self.witness_args: list = []
        self.passes = 0
        self._stack: list[list[float]] = []
        self._theorem1 = False

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        """fn timed as span `name`; after(args, result, seconds) runs
        outside it."""
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return wrapped

    def root(self, send):
        """Wrap the runner's send function: one root span per query, whose
        self time is the time spent outside every layer span."""
        span = self._span("other", send)

        def traced_send(query):
            self._theorem1 = query.args == ("theorem1",)
            return span(query)

        return traced_send

    def _staircase_done(self, args, result, dt):
        p = sum(v * v for v in getattr(args[0], "sigma", args[0]))
        for bucket, limit in STAIRCASE_BUCKETS:
            if limit is None or p < limit:
                self.staircase_ms[bucket].append(dt * 1e3)
                return

    def _inversion(self, fn):
        span = self._span("torsion.inversion", fn)

        def inversion(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except ValueError:  # the staircase inverts to no ladder
                self.counts["torsion.inversion_none"] += 1
                raise

        return inversion

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _enumeration(self, fn):
        def enumeration(*args, **kwargs):
            if self.passes == 0:
                self.enumerations.append((fn, args, kwargs))
            return fn(*args, **kwargs)

        return enumeration

    def _witness(self, fn):
        counts, sample = self.counts, self.witness_args

        def witness(sig, total, sumsq):
            ok = fn(sig, total, sumsq)
            counts["census.witness_calls"] += 1
            if self._theorem1 and ok:
                counts["theorem1_shortcut_hits"] += 1
            if len(sample) < WITNESS_SAMPLE:
                sample.append((sig, total, sumsq))
            return ok

        return witness

    def _theorem1_done(self, args, result, dt):
        # the sweep reaches _check_theorem1 above the deep rank only when
        # the witness shortcut did not settle the vector
        if len(args[0]) - 1 > cmkit.census.DEEP_CHECK_MAX_RANK:
            self.counts["theorem1_shortcut_misses"] += 1

    def _recognized(self, args, result, dt):
        if result is not None:
            self.counts["linear.recognize_hits"] += 1

    def _dumped(self, args, result, dt):
        self.counts["cli.lines"] += 1
        self.counts["cli.bytes"] += len(result) + 1  # ASCII JSON plus newline

    def _verified(self, args, result, dt):
        self.counts[f"census.instances.{result.claim}"] += result.instances

    def _patches(self):
        census, cli, graphs = cmkit.census, cmkit.cli, cmkit.graphs
        span = self._span
        yield census, "verify_claim", span("census.sweep", census.verify_claim, self._verified)
        yield census, "_lemma4_ok", self._witness(census._lemma4_ok)
        yield census, "_lemma4_instance", span("census.deep", census._lemma4_instance)
        yield census, "_check_theorem1", span(
            "census.theorem1", census._check_theorem1, self._theorem1_done
        )
        yield census, "torsion_at_most", span("torsion.at_most", census.torsion_at_most)
        for module in (census, cli):
            yield module, "torsion_staircase", span(
                "torsion.staircase", module.torsion_staircase, self._staircase_done
            )
        yield cmkit.torsion, "_min_costs", self._counted(
            "torsion.min_costs_calls", cmkit.torsion._min_costs
        )
        yield census, "exponents_from_torsion", self._inversion(census.exponents_from_torsion)
        for module in (census, cmkit.linear):
            yield module, "recognize_linear", span(
                "linear.recognize", module.recognize_linear, self._recognized
            )
        yield cmkit.linear, "is_isometric", span("lattice.isometry", cmkit.linear.is_isometric)
        yield cmkit.lattice, "short_vectors", span(
            "lattice.short_vectors", cmkit.lattice.short_vectors
        )
        for module, name in (
            (census, "standard_basis"),
            (census, "intersection_graph"),
            (census, "leading_ones"),
            (graphs, "standard_basis"),
            (graphs.IntersectionGraph, "has_induced_claw"),
            (graphs.IntersectionGraph, "is_connected"),
        ):
            yield module, name, span("graphs", getattr(module, name))
        yield cli, "_dump", span("cli.dump", cli._dump, self._dumped)
        for name in ("iter_changemakers", "iter_changemakers_with_sums"):
            yield census, name, self._enumeration(getattr(census, name))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for one traced pass."""
        saved = []
        try:
            for owner, name, wrapper in self._patches():
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
            self.passes += 1

    # -- isolated drains and the report -------------------------------------

    def drain(self) -> dict[str, float]:
        """Re-run the recorded enumerations and witness checks on their
        own; per-vector and per-call times are medians of the repeats."""
        vectors = 0
        seconds = []
        for _ in range(DRAIN_REPEATS):
            vectors = 0
            t0 = time.perf_counter()
            for fn, args, kwargs in self.enumerations:
                for _vector in fn(*args, **kwargs):
                    vectors += 1
            seconds.append(time.perf_counter() - t0)
        witness = []
        check = cmkit.census._lemma4_ok
        for _ in range(DRAIN_REPEATS if self.witness_args else 0):
            t0 = time.perf_counter()
            for sig, total, sumsq in self.witness_args:
                check(sig, total, sumsq)
            witness.append(time.perf_counter() - t0)
        calls = len(self.witness_args)
        return {
            "changemaker.vectors": vectors,
            "changemaker.ns_per_vector": (
                statistics.median(seconds) / vectors * 1e9 if vectors else 0.0
            ),
            "census.witness_ns_per_call": (
                statistics.median(witness) / calls * 1e9 if calls else 0.0
            ),
        }

    def metrics(
        self, untraced_walls: list[float], traced_walls: list[float], cache_hits: float
    ) -> dict[str, float]:
        """Every metric of LAYER_METRICS; counts and self times per traced
        pass.  cache_hits is the staircase cache's count per pass."""
        per_pass = 1.0 / max(self.passes, 1)
        counts, calls, self_s = self.counts, self.calls, self.self_s
        hits = counts["theorem1_shortcut_hits"]
        attempts = hits + counts["theorem1_shortcut_misses"]
        out: dict[str, float] = {
            f"census.instances.{claim}": counts[f"census.instances.{claim}"] * per_pass
            for claim in cmkit.census.CLAIMS
        }
        out |= {
            "census.sweep_self_s": self_s["census.sweep"] * per_pass,
            "census.witness_calls": counts["census.witness_calls"] * per_pass,
            "census.witness_hit_ratio": hits / attempts if attempts else 0.0,
            "census.deep_checks": calls["census.deep"] * per_pass,
            "census.deep_self_s": self_s["census.deep"] * per_pass,
            "census.theorem1_checks": calls["census.theorem1"] * per_pass,
            "census.theorem1_self_s": self_s["census.theorem1"] * per_pass,
            "torsion.at_most_calls": calls["torsion.at_most"] * per_pass,
            "torsion.at_most_self_s": self_s["torsion.at_most"] * per_pass,
            "torsion.staircase_calls": calls["torsion.staircase"] * per_pass,
            "torsion.staircase_self_s": self_s["torsion.staircase"] * per_pass,
            "torsion.min_costs_calls": counts["torsion.min_costs_calls"] * per_pass,
            "torsion.staircase_cache_hits": cache_hits,
            "torsion.inversion_calls": calls["torsion.inversion"] * per_pass,
            "torsion.inversion_self_s": self_s["torsion.inversion"] * per_pass,
            "torsion.inversion_none": counts["torsion.inversion_none"] * per_pass,
            "linear.recognize_calls": calls["linear.recognize"] * per_pass,
            "linear.recognize_hits": counts["linear.recognize_hits"] * per_pass,
            "linear.recognize_self_s": self_s["linear.recognize"] * per_pass,
            "lattice.isometry_calls": calls["lattice.isometry"] * per_pass,
            "lattice.isometry_self_s": self_s["lattice.isometry"] * per_pass,
            "lattice.short_vectors_calls": calls["lattice.short_vectors"] * per_pass,
            "lattice.short_vectors_self_s": self_s["lattice.short_vectors"] * per_pass,
            "graphs.calls": calls["graphs"] * per_pass,
            "graphs.self_s": self_s["graphs"] * per_pass,
            "cli.lines": counts["cli.lines"] * per_pass,
            "cli.bytes": counts["cli.bytes"] * per_pass,
            "cli.dump_self_s": self_s["cli.dump"] * per_pass,
            "other.self_s": self_s["other"] * per_pass,
        }
        for bucket, _limit in STAIRCASE_BUCKETS:
            times = self.staircase_ms[bucket]
            out[f"torsion.staircase_ms.{bucket}"] = statistics.median(times) if times else 0.0
        untraced = statistics.median(untraced_walls)
        traced = statistics.median(traced_walls)
        out["trace.untraced_wall_s"] = untraced
        out["trace.traced_wall_s"] = traced
        out["trace.overhead_s"] = traced - untraced
        out.update(self.drain())
        return out
