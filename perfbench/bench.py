"""Closed-loop solve measurement, correctness gate and metric assembly.

Each solve is one in-process call of ``ecse.cli.main(["solve", FILE,
"--algo", "auto", "--json"])``, timed from call to return, with its output
captured.  The next solve starts when the previous one returns: one process,
one thread.  A ``SIGALRM`` timer bounds every solve from outside the
program; an overrun counts as undecided, like a refusal (exit 3).

Every verdict must equal the corpus reference, every yes-witness must pass
``verify``, and every solve of one file must report the same route and
counters (``stats`` without ``elapsed_micros``).  Anything else, or a crash,
is recorded as an error and fails the run.

On a shared two-core virtual machine the speed of pure-Python code drifted
by 10-25% within seconds, and whole runs differed by as much.  So just
before and just after each solve, outside the timed call, the benchmark
times a fixed pure-Python probe of dict and tuple operations and keeps the
fastest of those probes (the first one after a large solve runs on cold
caches).  Each solve's wall time is then scaled by ``REFERENCE_PROBE_S``
over the median kept probe of the solves that started in the same
``SPEED_WINDOW_S`` slice of the run.  Reported times are thus milliseconds
at the reference speed, at which the probe takes ``REFERENCE_PROBE_S``; the
details line keeps the wall-clock figures.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import resource
import signal
import statistics
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from ecse import cli
from ecse.kernel import kernelize_ny
from ecse.model import CommitteeSequence, verify

import corpus
import tracing


@dataclass(frozen=True)
class Settings:
    deadline_s: float  # per-solve deadline, far above any seed-commit solve
    tail_pct: float  # percentile reported as latency_tail_ms


# The tail percentile is the highest one in TAIL_LADDER with at least
# thirty distinct instances beyond it: a tail made of a handful of instances
# solved over and over moves with every seed.  tau2-scale has too few
# instances for that and uses p75, with four instances, and at least ten
# solves, beyond it.
SETTINGS = {
    "oracle-mix": Settings(2.0, 90.0),
    "search-cliffs": Settings(5.0, 90.0),
    "tau2-scale": Settings(20.0, 75.0),
}
SETUP_REPEATS = 3
WARMUP_S = 2.0
# no solve starts after this many seconds, so that a regression which makes
# every solve slow still ends the run, set-up and last deadline included,
# within three minutes
HARD_STOP_S = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REFERENCE_PROBE_S = 1e-4
SETUP_PROBES = 50
SOLVE_PROBES = 3
SPEED_WINDOW_S = 1.0
ROUTES = ("trivial", "tau2", "dp", "branch", "ip", "brute")
EXIT_UNDECIDED = 3


class Deadline(BaseException):
    """Raised by the alarm handler; a BaseException so that no ``except
    Exception`` inside the program under test swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(300):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def speed_factor(probes) -> float:
    return REFERENCE_PROBE_S / statistics.median(probes)


@dataclass
class Solve:
    case: int
    wall_s: float
    decided: bool
    started: float  # perf_counter at the call
    probe_s: float  # fastest probe just before and just after the solve
    factor: float = 1.0  # set by Loop.rescale()

    @property
    def seconds(self) -> float:
        """Solve seconds at the reference speed."""
        return self.wall_s * self.factor


@dataclass
class Loop:
    """Solves of one kind, untraced or traced, and the whole passes made."""

    solves: list[Solve] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0

    def rate(self) -> float:
        """Instances decided per second of solve time at the reference speed."""
        return sum(s.decided for s in self.solves) / sum(s.seconds for s in self.solves)

    def wall_rate(self) -> float:
        return sum(s.decided for s in self.solves) / sum(s.wall_s for s in self.solves)

    def factor(self) -> float:
        return statistics.median(s.factor for s in self.solves)

    def rescale(self) -> None:
        """Give each solve the speed factor of its ``SPEED_WINDOW_S`` slice
        of the run: the reference probe time over the median of the slice's
        probes, so that one probe disturbed by a neighbour weighs little."""
        slices: dict[int, list[Solve]] = {}
        for s in self.solves:
            slices.setdefault(int(s.started / SPEED_WINDOW_S), []).append(s)
        for group in slices.values():
            factor = speed_factor(s.probe_s for s in group)
            for s in group:
                s.factor = factor


class Bench:
    """Solves a built corpus and checks every answer."""

    def __init__(self, cases: list, directory: Path, settings: Settings):
        self.cases = cases
        self.paths = [str(directory / f"{case.name}.ecse") for case in cases]
        self.settings = settings
        self.errors: list[str] = []
        self.signatures: dict[int, tuple] = {}
        self.started = time.perf_counter()
        self.stopped = False
        signal.signal(signal.SIGALRM, _on_alarm)

    def solve(self, index: int, tracer: tracing.Tracer | None = None) -> Solve:
        argv = ["solve", self.paths[index], "--algo", "auto", "--json"]
        probes = [speed_probe() for _ in range(SOLVE_PROBES)]
        out = io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, self.settings.deadline_s)
            started = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.solve = index
                    with tracer.span("cli"):
                        code = cli.main(argv)
            except Deadline:
                if tracer is not None:
                    tracer.abandon()
            except Exception:
                self.errors.append(f"{self.cases[index].name}: crash\n{traceback.format_exc()}")
            finally:
                took = time.perf_counter() - started
                signal.setitimer(signal.ITIMER_REAL, 0)
        probes += [speed_probe() for _ in range(SOLVE_PROBES)]
        decided = code is not None and code != EXIT_UNDECIDED
        if decided:
            self._check(index, code, out.getvalue(), tracer)
        return Solve(index, took, decided, started, min(probes))

    def _check(self, index: int, code: int, text: str, tracer) -> None:
        case = self.cases[index]
        if code != 0:
            self.errors.append(f"{case.name}: exit {code}")
            return
        try:
            payload = json.loads(text)
            verdict, algo, stats = payload["verdict"], payload["algo"], dict(payload["stats"])
            witness = CommitteeSequence.of(payload["committees"]) if verdict == "yes" else None
        except (ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"{case.name}: malformed output ({exc!r})")
            return
        if verdict != case.verdict:
            self.errors.append(f"{case.name}: verdict {verdict}, reference {case.verdict} ({case.source})")
            return
        if witness is not None:
            if tracer is None:
                feasible = verify(case.instance, witness).feasible
            else:
                with tracer.span("model.verify"):
                    feasible = verify(case.instance, witness).feasible
            if not feasible:
                self.errors.append(f"{case.name}: witness fails verify")
        stats.pop("elapsed_micros", None)
        signature = (algo, tuple(sorted(stats.items())))
        if self.signatures.setdefault(index, signature) != signature:
            self.errors.append(f"{case.name}: route or counters changed between solves")

    def kernel(self, index: int, tracer: tracing.Tracer) -> tuple[int, int] | None:
        """Kernelize an egalitarian instance outside the timed solve;
        returns (kept levels, levels)."""
        inst = self.cases[index].instance
        if not inst.egalitarian:
            return None
        with tracer.span("kernel"):
            result = kernelize_ny(inst)
        if result.resolved and result.verdict != self.cases[index].verdict:
            self.errors.append(f"{self.cases[index].name}: kernel resolved {result.verdict}")
        return len(result.kept_levels), inst.tau

    def run_pass(self, order: list[int], loop: Loop, tracer=None, kernel_levels=None) -> None:
        started = time.perf_counter()
        for index in order:
            if time.perf_counter() - self.started > HARD_STOP_S:
                self.stopped = True
                break
            loop.solves.append(self.solve(index, tracer))
            if kernel_levels is not None:
                kernel_levels[index] = self.kernel(index, tracer)
        else:
            loop.passes += 1
        loop.wall_s += time.perf_counter() - started

    def warm_up(self, order: list[int]) -> None:
        started = time.perf_counter()
        for index in order:
            self.solve(index)
            if time.perf_counter() - started > WARMUP_S:
                break


# -- metrics -------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail(times_ms: list[float], wanted: float) -> tuple[float, float] | None:
    """Nearest-rank value at the workload's tail percentile, or at the
    highest ladder percentile below it that has ten solves beyond it."""
    ordered = sorted(times_ms)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * len(ordered)))
        if pct <= wanted and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


@dataclass
class Setup:
    corpus: corpus.Corpus
    factor: float  # speed factor from probes just before and after set-up

    @property
    def seconds(self) -> float:
        """Set-up seconds at the reference speed."""
        return self.corpus.setup_s * self.factor


def set_up(workload: str, seed: int, directory: Path) -> Setup:
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    built = corpus.build(workload, seed, directory)
    probes += [speed_probe() for _ in range(SETUP_PROBES)]
    return Setup(built, speed_factor(probes))


def end_to_end(bench: Bench, loop: Loop, setups: list[Setup]) -> tuple[dict, dict]:
    times = [s.seconds * 1e3 for s in loop.solves]
    by_verdict = {"yes": [], "no": []}
    for s in loop.solves:
        by_verdict[bench.cases[s.case].verdict].append(s.seconds * 1e3)
    metrics = {
        "instances_per_s": _metric(loop.rate(), "1/s"),
        "latency_p50_ms": _metric(statistics.median(times), "ms"),
    }
    tail = _tail(times, bench.settings.tail_pct)
    if tail is not None:
        metrics["latency_tail_ms"] = _metric(tail[1], "ms")
    for verdict, values in by_verdict.items():
        if values:
            metrics[f"{verdict}_latency_p50_ms"] = _metric(statistics.median(values), "ms")
    metrics["setup_s"] = _metric(statistics.median(s.seconds for s in setups), "s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = _metric(rss_mb, "MB")
    details = {
        "tail_pct": tail[0] if tail else None,
        "samples": len(times),
        "yes_samples": len(by_verdict["yes"]),
        "no_samples": len(by_verdict["no"]),
        "wall_instances_per_s": loop.wall_rate(),
        "wall_latency_p50_ms": statistics.median(s.wall_s * 1e3 for s in loop.solves),
        "speed_factor": loop.factor(),
        "wall_setup_s": [s.corpus.setup_s for s in setups],
        "setup_speed_factor": [s.factor for s in setups],
    }
    return metrics, details


def counters(bench: Bench) -> dict[str, int]:
    """Route counts and ``stats`` counters over one pass of the corpus, keyed
    ``route.<algo>`` and ``<algo>.<counter>``: ``max_*`` counters are
    maxima, the others sums."""
    out: Counter = Counter()
    for algo, stats in bench.signatures.values():
        out[f"route.{algo}"] += 1
        for key, value in stats:
            name = f"{algo}.{key}"
            out[name] = max(out[name], value) if key.startswith("max_") else out[name] + value
    return dict(sorted(out.items()))


def per_layer(bench: Bench, tracer: tracing.Tracer, untraced: Loop, traced: Loop,
              kernel_levels: dict, setup: Setup) -> dict:
    """Per-layer metrics per corpus pass: span times from the traced passes
    at the reference speed, work counters from ``stats`` and from the
    wrappers."""
    inclusive, own = tracer.totals_ms()
    passes = max(1, traced.passes)
    scale = traced.factor() / passes
    count = counters(bench)

    def ms(name):
        return _metric(inclusive[name] * scale, "ms")

    def wrapped(name):
        return _metric(tracer.counts[name] / passes, "count")

    def stat(key):
        return _metric(count.get(key, 0), "count")

    kept = [k for k in kernel_levels.values() if k is not None]
    metrics = {"cli.self_ms": _metric(own["cli"] * scale, "ms")}
    for route in ROUTES:
        share = count.get(f"route.{route}", 0) / len(bench.cases)
        metrics[f"cli.route.{route}"] = _metric(share, "ratio")
    metrics.update({
        "formats.parse_ms": ms("formats.parse"),
        "model.trivial_ms": ms("model.trivial"),
        "model.trivial_hits": wrapped("model.trivial_hits"),
        "model.rename_ms": ms("model.rename"),
        "model.enumerate_ms": ms("model.enumerate"),
        "model.committees_enumerated": wrapped("model.committees_enumerated"),
        "model.verify_ms": ms("model.verify"),
        "kernel.ms": ms("kernel"),
        "kernel.kept_level_share": _metric(
            sum(k for k, _ in kept) / sum(t for _, t in kept) if kept else 0.0, "ratio"),
        "tau2.ms": ms("tau2"),
        "tau2.rules_ms": ms("tau2.rules"),
        "tau2.force_calls": wrapped("tau2.force_calls"),
        "tau2.agents_scanned": wrapped("tau2.agents_scanned"),
        "tau2.graph_ms": ms("tau2.graph"),
        "tau2.sweep_ms": ms("tau2.sweep"),
        "tau2.forced": stat("tau2.forced"),
        "tau2.components": stat("tau2.components"),
        "score_dp.ms": ms("score_dp"),
        "score_dp.table_entries": stat("dp.table_entries"),
        "score_dp.max_frontier": stat("dp.max_frontier"),
        "branching.ms": ms("branching"),
        "branching.nodes_expanded": stat("branch.nodes_expanded"),
        "branching.fingerprints_tried": stat("branch.fingerprints_tried"),
        "branching.zero_rule_ms": ms("branching.zero_rule"),
        "ip.ms": ms("ip"),
        "ip.build_ms": ms("ip.build"),
        "ip.search_ms": ms("ip.search"),
        "ip.types": stat("ip.types"),
        "ip.variables": stat("ip.variables"),
        "ip.budget_exhausted": wrapped("ip.search.refused"),
        "oracle.ms": ms("oracle"),
        "oracle.refusals": wrapped("oracle.refused"),
        "setup.generate_ms": _metric(setup.corpus.generate_s * setup.factor * 1e3, "ms"),
        "setup.reference_ms": _metric(setup.corpus.reference_s * setup.factor * 1e3, "ms"),
        "trace.overhead_share": _metric(
            (traced.rate() - untraced.rate()) / untraced.rate(), "ratio"),
    })
    solves = untraced.solves + traced.solves
    metrics["undecided_share"] = _metric(
        sum(not s.decided for s in solves) / len(solves), "ratio")
    return metrics


# -- one run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced_run: bool, work: Path) -> tuple[dict, dict]:
    """Build the corpus, warm up, measure; returns (result, details)."""
    directory = work / workload
    setups = [set_up(workload, seed, directory)
              for _ in range(1 if traced_run else SETUP_REPEATS)]
    built = setups[-1].corpus
    bench = Bench(built.cases, directory, SETTINGS[workload])
    if len({s.corpus.digest for s in setups}) != 1:
        bench.errors.append("set-up wrote different files from the same seed")

    rng = random.Random(f"order/{seed}")

    def shuffled() -> list[int]:
        order = list(range(len(bench.cases)))
        rng.shuffle(order)
        return order

    bench.warm_up(shuffled())
    untraced, traced = Loop(), Loop()
    details: dict = {"workload": workload, "seed": seed, "corpus_digest": built.digest}
    if not traced_run:
        while not bench.stopped and (untraced.passes == 0 or untraced.wall_s < seconds):
            bench.run_pass(shuffled(), untraced)
        untraced.rescale()
        metrics, more = end_to_end(bench, untraced, setups)
        details.update(more)
    else:
        tracer, kernel_levels = tracing.Tracer(), {}
        pair = 0
        # pairs of one untraced and one traced pass over the same order,
        # alternating which goes first, so drift hits both alike
        while not bench.stopped and (pair == 0 or untraced.wall_s + traced.wall_s < seconds):
            order = shuffled()
            for traced_now in ((False, True) if pair % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed():
                        bench.run_pass(order, traced, tracer, kernel_levels)
                else:
                    bench.run_pass(order, untraced)
            pair += 1
        untraced.rescale()
        traced.rescale()
        metrics = per_layer(bench, tracer, untraced, traced, kernel_levels, setups[-1])
        spans = directory / "spans.jsonl"
        tracer.write(spans)
        details.update({"spans": spans.name, "span_count": len(tracer.spans)})
    solves = untraced.solves + traced.solves
    count = counters(bench)
    details.update({
        "passes": untraced.passes + traced.passes,
        "hard_stop": bench.stopped,
        "counters": count,
        "counters_digest": hashlib.sha256(json.dumps(count).encode()).hexdigest(),
        "errors": bench.errors[:5],
    })
    result = {
        "correct": not bench.errors,
        "attempted": len(solves),
        "failed": sum(not s.decided for s in solves),
        "metrics": metrics,
    }
    return result, details
