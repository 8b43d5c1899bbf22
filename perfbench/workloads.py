"""The three benchmark workloads, driven through the program's public API.

A workload turns the run's seed into a *pass*: a fixed list of seeded
operations.  One operation is one construction (``build``), one churned
run (``churn``) or one service soak (``soak``).  Each operation has a
timed set-up (from seed to a system ready for its first round), a timed
run (the round and event loops up to their results) and untimed
independent checks (:mod:`checks`); an operation fails if it raises,
misses its budget or fails a check.  Every pass of a run repeats the
same operations, so every pass yields the same simulated figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from array import array
from typing import Dict, List, Optional, Sequence

import checks
from repro.faults.plan import FaultPlan, MassCrash, parse_fault_plan
from repro.locality.geo import GeoLatencyModel, get_profile
from repro.multifeed.soak import ServiceSoak, SoakConfig, parse_timeline
from repro.sim.churn import ChurnConfig
from repro.sim.rng import derive_seed
from repro.sim.runner import SimulationConfig, make_simulation
from repro.workloads import random_workload

#: The ``scale.columnar`` population profile shared by build and churn.
PROFILE = dict(source_fanout=32, max_latency=40, min_fanout=2, max_fanout=8)
#: The latency substrate of every continuous-clock run.
GEO_PROFILE = "geo-3region"
#: Units of the simulated-domain metrics the workloads report.
SIMULATED_UNITS = {
    "converge_rounds": "rounds",
    "staleness_p99_ms": "ms",
    "satisfied_consumers": "consumers",
    "delivery_p99_ms": "ms",
    "recover_rounds": "rounds",
    "recovered_soaks": "soaks",
}


@dataclasses.dataclass(frozen=True)
class Operation:
    """One seeded operation of a pass."""

    seed: int
    algorithm: str = "hybrid"

    @property
    def label(self) -> str:
        return f"{self.algorithm}@{self.seed}"


@dataclasses.dataclass
class Figures:
    """What one operation contributes to the simulated-domain metrics.

    Its staleness values are kept as their p99 and a digest, so that an
    outcome stays small: the benchmark process keeps every outcome of a
    run, and each fork it runs an operation in starts from its memory.
    """

    satisfied: int
    p99_ms: Optional[float] = None
    staleness_digest: str = ""
    rounds: Optional[int] = None


def _staleness(values: Sequence[float]):
    """The :class:`Figures` fields for one operation's staleness values."""
    return dict(
        p99_ms=checks.nearest_rank(values, 99.0) if values else None,
        staleness_digest=hashlib.sha256(array("d", values).tobytes()).hexdigest(),
    )


class Workload:
    """Base: a named pass of operations with set-up, run and checks."""

    name = ""

    def operations(self, seed: int) -> List[Operation]:
        raise NotImplementedError

    def setup(self, op: Operation):
        raise NotImplementedError

    def run(self, system, pause):
        """Run the loops to their result.  ``pause()`` may be called
        between stretches of a long loop: the timer then re-measures the
        host's speed, and the time that takes is not counted."""
        raise NotImplementedError

    def snapshot(self, system):
        """State the checks need from before the run (untimed)."""
        return None

    def check(self, op: Operation, system, result, before):
        """``(problems, figures)`` for one finished operation."""
        raise NotImplementedError

    def harvest(self, tracer, system, result) -> None:
        """Work counts the program keeps itself, added to the tracer."""

    def report(self, figures: List[Figures]) -> Dict[str, float]:
        """The pass's simulated-domain metrics, by name."""
        return {"satisfied_consumers": sum(f.satisfied for f in figures)}


def _mean_rounds(figures: List[Figures]) -> float:
    rounds = [f.rounds for f in figures if f.rounds is not None]
    return sum(rounds) / len(rounds) if rounds else 0.0


def _median_p99(figures: List[Figures]) -> float:
    """Median over operations of each operation's p99 staleness."""
    values = [f.p99_ms for f in figures if f.p99_ms is not None]
    return statistics.median(values) if values else 0.0


def _geo(seed: int) -> GeoLatencyModel:
    """The substrate a continuous run with root ``seed`` uses."""
    return GeoLatencyModel(get_profile(GEO_PROFILE), derive_seed(seed, "geo"))


def _draw(size: int, seed: int):
    workload, _ = random_workload.rand_workload(size=size, seed=seed, **PROFILE)
    return workload


def _population_problems(workload) -> List[str]:
    return checks.level_pass(
        workload.source_fanout,
        [(spec.latency, spec.fanout) for _, spec in workload.population],
    )


class Build(Workload):
    """Rand(N=2000) built from scratch to convergence by greedy and by
    hybrid, O3 on the omniscient oracle, on the continuous clock."""

    name = "build"
    size = 2000
    populations = 5
    budget = 300

    def operations(self, seed: int) -> List[Operation]:
        return [
            Operation(seed=seed * 1000 + index, algorithm=algorithm)
            for index in range(self.populations)
            for algorithm in ("greedy", "hybrid")
        ]

    def setup(self, op: Operation):
        workload = _draw(self.size, op.seed)
        config = SimulationConfig(
            algorithm=op.algorithm,
            oracle="random-delay",
            oracle_realization="omniscient",
            seed=op.seed,
            max_rounds=self.budget,
            time_model=f"continuous:{GEO_PROFILE}",
        )
        return make_simulation(workload, config)

    def run(self, sim, pause):
        return sim.run()

    def check(self, op, sim, result, before):
        problems = _population_problems(sim.workload)
        if not result.converged:
            problems.append(f"did not converge within {self.budget} rounds")
        walk, found = checks.overlay_checks(
            sim.overlay, result.final_quality.satisfied, everyone=True
        )
        problems += found
        geo = _geo(op.seed)
        staleness = walk.staleness_ms(geo, geo.profile.pull_period_ms)
        problems += checks.equal(
            "per-consumer ms staleness", staleness, sim.staleness_ms_series()
        )
        if staleness:
            problems += checks.equal(
                "staleness p99 ms",
                checks.nearest_rank(staleness, 99.0),
                result.staleness_ms_p99,
            )
        return problems, Figures(
            satisfied=walk.satisfied(),
            **_staleness(staleness),
            rounds=result.construction_rounds,
        )

    def harvest(self, tracer, sim, result) -> None:
        tracer.count("sim.rounds", result.rounds_run)
        tracer.count("sim.events", result.events_fired)

    def report(self, figures):
        return {
            "converge_rounds": _mean_rounds(figures),
            "staleness_p99_ms": _median_p99(figures),
            **super().report(figures),
        }


class Churn(Workload):
    """Rand(N=20000) built by hybrid under O3 on the sharded directory,
    under §5.3 churn with one crash that later rejoins, to a fixed round
    budget on the rounds clock."""

    name = "churn"
    size = 20000
    populations = 2
    rounds = 60
    crash = MassCrash(round=30, fraction=0.1, graceful=False, rejoin_after=10)

    def operations(self, seed: int) -> List[Operation]:
        return [Operation(seed=seed * 1000 + i) for i in range(self.populations)]

    def setup(self, op: Operation):
        workload = _draw(self.size, op.seed)
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=op.seed,
            max_rounds=self.rounds,
            stop_at_convergence=False,
            churn=ChurnConfig(),
            faults=FaultPlan.of(self.crash),
        )
        return make_simulation(workload, config)

    def run(self, sim, pause):
        # Simulation.run() without convergence stop, driven round by
        # round so the timer can re-measure host speed every few seconds.
        for done in range(1, self.rounds + 1):
            sim.run_round()
            if done % 5 == 0 and done < self.rounds:
                pause()
        return sim.result()

    def check(self, op, sim, result, before):
        problems = _population_problems(sim.workload)
        if result.rounds_run != self.rounds:
            problems.append(f"ran {result.rounds_run} of {self.rounds} rounds")
        if sim.injector.crashes == 0 or sim.injector.rejoins == 0:
            problems.append("the crash fault did not fire and rejoin")
        walk, found = checks.overlay_checks(
            sim.overlay, result.final_quality.satisfied
        )
        problems += found
        return problems, Figures(satisfied=walk.satisfied())

    def harvest(self, tracer, sim, result) -> None:
        tracer.count("sim.rounds", result.rounds_run)
        tracer.count("sim.departures", result.departures)
        tracer.count("sim.rejoins", result.rejoins)
        tracer.count("faults.injections", result.fault_events)


class Soak(Workload):
    """ServiceSoak: three feeds over 150 consumers, reuse bias 0.8, a x10
    flash crowd, an exodus and a rejoin, a crash and a source outage,
    hop delays from geo-3region.

    The soak always runs its 200 rounds.  Whether the hot feed
    re-converges within them depends on the seed, so it is reported
    (``recovered_soaks``, ``recover_rounds``) rather than failed on.
    """

    name = "soak"
    seeds = 16
    timeline = "flash@60:news:x10:ramp=3,exodus@120:news:0.5,rejoin@140:news"
    faults = "crash@100:0.15:rejoin=12,source-outage@150:6"

    def operations(self, seed: int) -> List[Operation]:
        return [Operation(seed=seed * 1000 + i) for i in range(self.seeds)]

    def config(self, seed: int) -> SoakConfig:
        return SoakConfig(
            feed_ids=("news", "sports", "tech"),
            consumer_count=150,
            seed=seed,
            rounds=200,
            warmup_rounds=40,
            timeline=parse_timeline(self.timeline),
            faults=parse_fault_plan(self.faults),
            reuse_bias=0.8,
            time_model=f"continuous:{GEO_PROFILE}",
        )

    def setup(self, op: Operation):
        return ServiceSoak(self.config(op.seed))

    def snapshot(self, soak):
        # Flash joiners skip repair by design, so the level pass is
        # checked on each feed's population as set up.
        return {
            feed: [(n.latency, n.fanout) for n in overlay.consumers]
            for feed, overlay in soak.system.overlays.items()
        }

    def run(self, soak, pause):
        return soak.run()

    def check(self, op, soak, summary, initial_specs):
        config = soak.config
        problems: List[str] = []
        pull_ms = soak.geo_profile.pull_period_ms
        satisfied = 0
        staleness_ms: List[float] = []
        for feed in config.feed_ids:
            stats = summary.feed_stats(feed)
            overlay = soak.system.overlays[feed]
            problems += checks.level_pass(
                overlay.source.fanout, initial_specs[feed]
            )
            walk, found = checks.overlay_checks(overlay, stats.satisfied)
            problems += found
            problems += checks.equal(
                f"{feed} online", len(overlay.online_consumers), stats.online
            )
            values, found = checks.arrivals(
                soak.engines[feed],
                feed_end=config.rounds * config.pull_period,
                service_start=config.warmup_rounds * config.pull_period,
                pull_period=config.pull_period,
            )
            problems += found
            problems += checks.equal(f"{feed} deliveries", len(values), stats.delivered)
            if values:
                p99 = checks.nearest_rank(values, 99.0)
                problems += checks.equal(f"{feed} p99", p99, stats.p99)
                problems += checks.equal(f"{feed} p99 ms", p99 * pull_ms, stats.p99_ms)
            satisfied += walk.satisfied()
            staleness_ms.extend(value * pull_ms for value in values)
        return problems, Figures(
            satisfied=satisfied,
            **_staleness(staleness_ms),
            rounds=summary.hot_reconverge_rounds,
        )

    def harvest(self, tracer, soak, summary) -> None:
        tracer.count("sim.rounds", soak.config.rounds)
        tracer.count("faults.injections", summary.faults_injected)
        tracer.count(
            "sim.events",
            sum(engine.scheduler.fired for engine in soak.engines.values()),
        )
        tracer.count("feeds.deliveries", sum(
            len(consumer.arrivals)
            for engine in soak.engines.values()
            for consumer in engine.consumers.values()
        ))

    def report(self, figures):
        return {
            "delivery_p99_ms": _median_p99(figures),
            "recover_rounds": _mean_rounds(figures),
            "recovered_soaks": sum(f.rounds is not None for f in figures),
            **super().report(figures),
        }


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Build(), Churn(), Soak())}
