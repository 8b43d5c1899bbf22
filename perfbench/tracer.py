"""Layer tracer: spans around the program's public entry points.

The tracer wraps functions and methods of the program from outside —
it replaces class attributes and module globals for the time it is
installed and restores the originals when it is removed — so the
program itself carries no tracing code and untraced runs pay nothing.

Each call through a wrapped entry point becomes one span: its layer
name, its start and end (``time.perf_counter`` seconds) and the index of
the span open when it started (its cause).  Spans stay in memory in
compact arrays and are written as one file when the run ends
(:meth:`Tracer.write`; :func:`load_spans` reads it back).  Per layer the
tracer also keeps, at the same boundaries, the number of calls, the
total span time and the *self* time: span time minus the time its child
spans cover.

Some entry points nest into themselves (an oracle decorator calling the
oracle it wraps, a subclass calling ``super()``).  Those are *counted
once*: while a span of that layer is open, further calls of the layer
pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import struct
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: File layout written by :meth:`Tracer.write`, gzip-compressed: magic,
#: header length, a JSON header (``names``, ``count``), then the four
#: span arrays in native byte order.
MAGIC = b"LGSPANS1"


class Tracer:
    """Spans, calls, total and self time per layer, plus named counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self._depth: List[int] = []
        #: Work counts taken at span boundaries or harvested by the caller.
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._child: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- layers and spans ----------------------------------------------

    def layer(self, name: str) -> int:
        """The id of a layer name, registered on first use."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> None:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(len(self.span_start))
        self._child.append(0.0)
        self._depth[nid] += 1
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        now = time.perf_counter()
        index = self._stack.pop()
        children = self._child.pop()
        nid = self.span_name[index]
        duration = now - self.span_start[index]
        self.span_end[index] = now
        self._depth[nid] -= 1
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - children
        if self._child:
            self._child[-1] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (set-up, loop roots)."""
        self.open(self.layer(name))
        try:
            yield
        finally:
            self.close()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        once: bool = False,
        after: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span of layer ``name``.

        ``once`` passes nested calls of the same layer straight through;
        ``after(result)`` takes counts from the outermost call's result.
        """
        nid = self.layer(name)
        depth = self._depth
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if once and depth[nid]:
                return fn(*args, **kwargs)
            open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`remove`.

        Only attributes ``owner`` defines itself are patched, so a class
        that inherits a method is covered by the patch on its base.
        """
        self.replace(owner, attr, self.wrap(vars(owner)[attr], name, **options))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`remove`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def stats(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of a layer (zeros if never seen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path: str) -> None:
        """Write every span to ``path`` as one file."""
        header = json.dumps(
            {"names": self.names, "count": self.span_count}
        ).encode()
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(MAGIC)
            out.write(struct.pack("<I", len(header)))
            out.write(header)
            for column in (
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_parent,
            ):
                column.tofile(out)


def load_spans(path: str):
    """Read a file written by :meth:`Tracer.write`.

    Returns ``(names, name_ids, starts, ends, parents)``, the last four
    as arrays indexed by span number.
    """
    with gzip.open(path, "rb") as source:
        if source.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not a span file")
        (length,) = struct.unpack("<I", source.read(4))
        header = json.loads(source.read(length))
        count = header["count"]
        columns = []
        for code in ("H", "d", "d", "i"):
            column = array(code)
            column.fromfile(source, count)
            columns.append(column)
    return (header["names"], *columns)


# ----------------------------------------------------------------------
# the program's layers
# ----------------------------------------------------------------------


def _subclasses(cls) -> List[type]:
    """``cls`` and every subclass defined so far, parents first."""
    found, queue = [], [cls]
    while queue:
        current = queue.pop(0)
        if current not in found:
            found.append(current)
            queue.extend(current.__subclasses__())
    return found


def _own(cls, attr: str) -> bool:
    """Whether ``cls`` defines a concrete ``attr`` itself."""
    value = vars(cls).get(attr)
    return value is not None and not getattr(value, "__isabstractmethod__", False)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads run.

    Layers are named after the program's modules.  Every wrapped entry
    point becomes a span; :meth:`Tracer.remove` undoes all of it.
    """
    from repro.core.protocol import ConstructionAlgorithm
    from repro.core.tree import Overlay
    from repro.faults.injector import FaultInjector
    from repro.faults.oracle import FaultGatedOracle
    from repro.feeds.dissemination import LagOverDissemination
    from repro.locality.geo import GeoLatencyModel
    from repro.multifeed import system as multifeed_system
    from repro.multifeed.soak import SoakFaultInjector
    from repro.oracles.base import Oracle
    from repro.sim.churn import ChurnProcess
    from repro.sim.metrics import MetricsCollector
    from repro.workloads import random_workload

    def relaxations(result) -> None:
        tracer.count("workloads.relaxations", result[1].relaxations)

    def miss(result) -> None:
        if result is None:
            tracer.count("oracles.misses")

    # workloads: the population draw and the §3.3 repair.  Both name
    # the repair through their own module globals.
    tracer.patch(random_workload, "rand_workload", "workloads.draw")
    for module in (random_workload, multifeed_system):
        tracer.patch(
            module, "repair_population", "workloads.repair", after=relaxations
        )
    tracer.patch(multifeed_system.MultiFeedSystem, "__init__", "workloads.draw")

    # oracles: the outermost sample/refresh only (decorators nest).
    for cls in _subclasses(Oracle) + [FaultGatedOracle]:
        if _own(cls, "sample"):
            tracer.patch(cls, "sample", "oracles.sample", once=True, after=miss)
        if _own(cls, "on_round"):
            tracer.patch(cls, "on_round", "oracles.refresh", once=True)

    # core: protocol steps, maintenance, chain-index and roster upkeep.
    for cls in _subclasses(ConstructionAlgorithm):
        if _own(cls, "step"):
            tracer.patch(cls, "step", "core.step", once=True)
        if _own(cls, "maintain"):
            tracer.patch(cls, "maintain", "core.maintain", once=True)
    tracer.patch(Overlay, "attach", "core.attach")
    tracer.patch(Overlay, "detach", "core.detach")
    tracer.patch(Overlay, "go_offline", "core.offline")
    tracer.patch(Overlay, "go_online", "core.online")

    # sim: measurement (the soak reads satisfied_fraction per round),
    # churn.
    tracer.patch(MetricsCollector, "record", "sim.measure", once=True)
    tracer.patch(Overlay, "satisfied_fraction", "sim.measure", once=True)
    tracer.patch(ChurnProcess, "step", "sim.churn")

    # faults, multifeed, locality.
    tracer.patch(FaultInjector, "inject", "faults.inject")
    tracer.patch(SoakFaultInjector, "inject", "faults.inject")
    tracer.patch(multifeed_system.MultiFeedSystem, "step_feed", "multifeed.step_feed")
    tracer.patch(GeoLatencyModel, "one_way_ms", "locality.lookup")

    # feeds: each dissemination engine's own scheduler loop.  The
    # continuous construction engine runs an EventScheduler too, so the
    # class method stays unwrapped and only engine-owned schedulers are.
    engine_init = vars(LagOverDissemination)["__init__"]

    def traced_engine_init(engine, *args, **kwargs):
        engine_init(engine, *args, **kwargs)
        scheduler = engine.scheduler
        scheduler.run_until = tracer.wrap(scheduler.run_until, "feeds.disseminate")

    tracer.replace(LagOverDissemination, "__init__", traced_engine_init)
