"""End-to-end benchmark of the LagOver reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload build --seed 0 --seconds 10 --trace 0

It builds nothing: the program is imported from the checkout's ``src``
directory (and the run fails at once without it).  One thread, and
one process at a time: each operation runs in a fork of the benchmark
process, which waits for it, so that every operation starts from the
same memory and its peak RSS is its own.  The run repeats its
workload's pass of seeded operations (:mod:`workloads`) until
``--seconds`` have elapsed, checks every operation's outputs
independently (:mod:`checks`) and prints a report,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``--trace 1`` runs one untraced pass and then the same pass with the
layer tracer (:mod:`tracer`) installed, both in the benchmark process
itself; the per-layer metrics come from the traced pass, and the gap
between the two passes is the tracing overhead.  The spans are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from typing import List

from tracer import Tracer, install_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The input seed used when none is given, and the one kept back to
#: confirm a gain on inputs the change was not written against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def import_program():
    """Import ``repro`` from this checkout's sources, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class _Cell:
    __slots__ = ("key", "parent", "load")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.load = 0


def _calibration_loop(size: int = 20000) -> int:
    """Fixed pure-Python work of the program's kind — objects, attribute
    reads, parent walks, list and dict upkeep — that uses no program code."""
    cells = [_Cell(0, None)]
    index = {}
    total = 0
    for key in range(1, size):
        parent = cells[(key * 7919) % len(cells)]
        cell = _Cell(key, parent)
        parent.load += 1
        cells.append(cell)
        index[key & 255] = cell
        hops, cursor = 0, cell
        while cursor is not None:
            hops += 1
            cursor = cursor.parent
        total += hops + index.get(key >> 2 & 255, cell).load
    return total


#: Seconds one calibration loop takes at the reference speed (the typical
#: speed of a shared 2-CPU x86 VM under CPython 3.11).
REFERENCE_LOOP_S = 0.012


def host_slowdown(samples: int = 5) -> float:
    """How much slower than the reference the host runs right now.

    A shared host can change speed by up to 2x within seconds when
    other tenants load its cores.  Timing the same fixed loop right
    before and after each timed region and dividing by the mean turns
    wall seconds into reference seconds, which cancels the host's drift
    but no change in the program.
    """
    # The loop's cells are acyclic, so reference counting frees them; with
    # the collector off, the program's heap cannot slow the loop down.
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(samples):
            _calibration_loop()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return elapsed / samples / REFERENCE_LOOP_S


class Stopwatch:
    """Wall time of timed regions, and the same in reference seconds.

    Host speed is measured when the watch is made, at every pause and at
    every stop; each stretch of wall time is divided by the mean slowdown
    measured at its two ends.  Measuring takes no timed time.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._speed = host_slowdown()
        self._wall = self._reference = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()

    def pause(self) -> None:
        """Close the current stretch, re-measure speed, go on timing."""
        stretch = time.perf_counter() - self._started
        if self.tracer is None:
            speed = host_slowdown()
        else:
            with self.tracer.span("perfbench.calibrate"):
                speed = host_slowdown()
        self._wall += stretch
        self._reference += stretch * 2 / (self._speed + speed)
        self._speed = speed
        self.start()

    def stop(self):
        """``(wall, reference)`` seconds since :meth:`start`."""
        stretch = time.perf_counter() - self._started
        speed = host_slowdown()
        wall = self._wall + stretch
        reference = self._reference + stretch * 2 / (self._speed + speed)
        self._speed = speed
        self._wall = self._reference = 0.0
        return wall, reference


@dataclasses.dataclass
class Outcome:
    """One operation's timings, problems and simulated figures.

    ``setup_s``/``run_s`` are reference seconds (see :func:`host_slowdown`),
    ``setup_wall_s``/``run_wall_s`` the raw wall seconds, ``peak_rss_mb``
    the process's peak RSS at the end of the run.
    """

    label: str
    problems: List[str]
    figures: object = None
    setup_s: float = 0.0
    run_s: float = 0.0
    setup_wall_s: float = 0.0
    run_wall_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_operation(workload, op, tracer=None) -> Outcome:
    """Set up, run and check one operation; any exception fails it."""
    gc.collect()
    try:
        watch = Stopwatch(tracer)
        if tracer is not None:
            install_layers(tracer)
        try:
            watch.start()
            if tracer is None:
                system = workload.setup(op)
            else:
                with tracer.span("setup"):
                    system = workload.setup(op)
            setup_wall, setup_s = watch.stop()
            before = workload.snapshot(system)
            watch.start()
            if tracer is None:
                result = workload.run(system, watch.pause)
            else:
                with tracer.span("sim.loop"):
                    result = workload.run(system, watch.pause)
            peak_rss_mb = peak_rss()
            run_wall, run_s = watch.stop()
        finally:
            if tracer is not None:
                tracer.remove()
        problems, figures = workload.check(op, system, result, before)
        if tracer is not None:
            workload.harvest(tracer, system, result)
    except Exception:
        traceback.print_exc()
        return Outcome(op.label, ["raised"])
    return Outcome(
        op.label,
        problems,
        figures,
        setup_s=setup_s,
        run_s=run_s,
        setup_wall_s=setup_wall,
        run_wall_s=run_wall,
        peak_rss_mb=peak_rss_mb,
    )


def peak_rss() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_forked(workload, op) -> Outcome:
    """:func:`run_operation` in a fork of this process, which it waits for.

    This process holds the imported program and the small outcomes so
    far, but no operation's heap, so the fork's peak RSS is that of one
    operation in a process that has imported the program, whatever ran
    before it.  The outcome comes back pickled through a pipe.
    """
    gc.collect()
    # Frozen objects are not traversed by the fork's collections.
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            outcome = run_operation(workload, op)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    gc.unfreeze()
    if status != 0 or not data:
        return Outcome(op.label, [f"fork ended with wait status {status}"])
    return pickle.loads(data)


def run_pass(workload, ops, tracer=None, fork=False):
    outcomes = []
    for op in ops:
        if fork:
            outcome = run_forked(workload, op)
        else:
            outcome = run_operation(workload, op, tracer)
        for problem in outcome.problems:
            print(f"FAILED {workload.name} {outcome.label}: {problem}")
        outcomes.append(outcome)
    return outcomes


def same_figures(passes) -> bool:
    """Whether every pass produced the same outcome for each operation."""
    first = passes[0]
    for other in passes[1:]:
        for a, b in zip(first, other):
            if a.failed != b.failed or a.figures != b.figures:
                return False
    return True


def layer_metrics(tracer, overhead_pct: float):
    """Every per-layer figure of a traced pass, by metric name."""

    def calls(name):
        return tracer.stats(name)[0]

    def own(name):
        return tracer.stats(name)[2]

    counts = tracer.counts
    queries = calls("oracles.sample")
    misses = counts.get("oracles.misses", 0)
    return {
        "workloads.relaxations": counts.get("workloads.relaxations", 0),
        "workloads.repair_s": own("workloads.repair"),
        "workloads.draw_s": own("workloads.draw"),
        "oracles.queries": queries,
        "oracles.misses": misses,
        "oracles.hit_ratio": (queries - misses) / queries if queries else 0.0,
        "oracles.sample_s": own("oracles.sample"),
        "oracles.refresh_s": own("oracles.refresh"),
        "core.steps": calls("core.step"),
        "core.step_self_s": own("core.step"),
        "core.maintains": calls("core.maintain"),
        "core.maintain_s": own("core.maintain"),
        "core.attaches": calls("core.attach"),
        "core.detaches": calls("core.detach"),
        "core.mutate_s": own("core.attach") + own("core.detach"),
        "core.offline_s": own("core.offline"),
        "core.online_s": own("core.online"),
        "sim.rounds": counts.get("sim.rounds", 0),
        "sim.measure_s": own("sim.measure"),
        "sim.churn_s": own("sim.churn"),
        "sim.departures": counts.get("sim.departures", 0),
        "sim.rejoins": counts.get("sim.rejoins", 0),
        "sim.events": counts.get("sim.events", 0),
        "sim.loop_self_s": own("sim.loop"),
        "faults.injections": counts.get("faults.injections", 0),
        "faults.inject_s": own("faults.inject"),
        "feeds.deliveries": counts.get("feeds.deliveries", 0),
        "feeds.disseminate_s": own("feeds.disseminate"),
        "multifeed.feed_steps": calls("multifeed.step_feed"),
        "multifeed.step_feed_self_s": own("multifeed.step_feed"),
        "locality.lookups": calls("locality.lookup"),
        "locality.lookup_s": own("locality.lookup"),
        "setup.self_s": own("setup"),
        "tracer.overhead_pct": overhead_pct,
    }


def print_layers(tracer, values) -> None:
    print("layer                  calls      total_s       self_s")
    for nid, name in enumerate(tracer.names):
        print(
            f"{name:<20} {tracer.calls[nid]:>9} {tracer.total_s[nid]:>12.4f} "
            f"{tracer.self_s[nid]:>12.4f}"
        )
    for name, value in values.items():
        print(f"  {name:<28} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    from workloads import SIMULATED_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = workload.operations(args.seed)

    passes = []
    tracer = None
    started = time.perf_counter()
    if args.trace:
        passes.append(run_pass(workload, ops))
        tracer = Tracer()
        passes.append(run_pass(workload, ops, tracer))
    else:
        while not passes or time.perf_counter() - started < seconds:
            passes.append(run_pass(workload, ops, fork=True))

    outcomes = [o for done in passes for o in done]
    failed = sum(o.failed for o in outcomes)
    correct = same_figures(passes) and failed < len(outcomes)
    figures = workload.report([o.figures for o in passes[0] if not o.failed])
    # End-to-end times come from untraced passes only.
    timed = passes[:1] if tracer is not None else passes

    def median_operation(field):
        values = [getattr(o, field) for done in timed for o in done if not o.failed]
        return statistics.median(values) if values else 0.0

    def median_pass(field):
        return statistics.median(sum(getattr(o, field) for o in done) for done in timed)

    timings = {
        "setup_s": median_operation("setup_s"),
        "run_s": median_pass("run_s"),
        "peak_rss_mb": median_operation("peak_rss_mb"),
    }
    wall = {
        "setup_wall_s": median_operation("setup_wall_s"),
        "run_wall_s": median_pass("run_wall_s"),
    }
    print("report " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "operations": [o.label for o in passes[0]],
        "figures": figures,
        "timings": {**timings, **wall},
    }))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(SIMULATED_UNITS, setup_wall_s="s", run_wall_s="s")
    for name, value in {**timings, **wall, **figures}.items():
        print(f"{workload.name} {name} {value} {units[name]}")

    if tracer is None:
        values = {**timings, **figures}
        wanted = spec["end_to_end"]
    else:
        def cost(done):
            return sum(o.setup_s + o.run_s for o in done)

        overhead = 100.0 * (cost(passes[1]) / cost(passes[0]) - 1.0)
        values = layer_metrics(tracer, overhead)
        print_layers(tracer, values)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.bin.gz")
        tracer.write(path)
        print(f"{tracer.span_count} spans written to {os.path.relpath(path, ROOT)}")
        wanted = spec["per_layer"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
