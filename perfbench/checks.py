"""Independent output checks.

Every check here recomputes what it verifies from the program's raw
state — parent pointers, child lists, node specs, delivery logs — with
code of its own, and compares the result with what the program
reported.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def level_pass(source_fanout: int, specs: Sequence[Tuple[int, int]]) -> List[str]:
    """The §3.3 sufficiency condition as a level-by-level pass.

    ``specs`` holds ``(latency, fanout)`` pairs.  Slots start at the
    source's fanout; latency class ``l`` must fit in the slots left after
    the stricter classes, and then adds its own fanout as slots for the
    laxer ones.
    """
    members: Dict[int, int] = {}
    fanout: Dict[int, int] = {}
    for latency, node_fanout in specs:
        members[latency] = members.get(latency, 0) + 1
        fanout[latency] = fanout.get(latency, 0) + node_fanout
    slots = source_fanout
    for latency in range(1, max(members, default=0) + 1):
        count = members.get(latency, 0)
        if count > slots:
            return [
                f"population fails the §3.3 level pass at latency {latency}: "
                f"{count} members, {slots} slots"
            ]
        slots += fanout.get(latency, 0) - count
    return []


class Walk:
    """The benchmark's own parent-pointer walk over one overlay.

    ``depth`` maps the node id of every online consumer rooted at the
    source to its hop count below it; online consumers in a fragment not
    yet rooted are absent.  Walking problems (cycles, paths through
    offline nodes) are collected in ``problems``.
    """

    def __init__(self, overlay) -> None:
        self.overlay = overlay
        self.problems: List[str] = []
        source = overlay.source
        depth: Dict[int, int] = {source.node_id: 0}
        unrooted: set = set()
        for node in overlay.online_consumers:
            path = []
            on_path = set()
            cursor = node
            while True:
                node_id = cursor.node_id
                if node_id in depth or node_id in unrooted:
                    break
                if node_id in on_path:
                    self.problems.append(f"parent cycle through node {node_id}")
                    break
                if not cursor.online:
                    self.problems.append(
                        f"node {node.node_id}'s path runs through offline "
                        f"node {node_id}"
                    )
                    break
                on_path.add(node_id)
                path.append(node_id)
                if cursor.parent is None:
                    break
                cursor = cursor.parent
            base = depth.get(cursor.node_id)
            if base is None:
                unrooted.update(path)
            else:
                for hops, node_id in enumerate(reversed(path), start=1):
                    depth[node_id] = base + hops
            if len(self.problems) > 5:
                break
        del depth[source.node_id]
        self.depth = depth

    def satisfied(self) -> int:
        """Online consumers rooted within their latency constraint."""
        depth = self.depth
        return sum(
            1
            for node in self.overlay.online_consumers
            if depth.get(node.node_id, math.inf) <= node.latency
        )

    def staleness_ms(self, geo, pull_period_ms: float) -> List[float]:
        """Worst-case staleness of every rooted online consumer, in ms.

        One pull period at the source's direct child plus every one-way
        leg down the consumer's path, summed leaf first (the order the
        continuous engine sums in, so equal paths give equal floats).
        """
        depth = self.depth
        out = []
        for node in self.overlay.online_consumers:
            if node.node_id not in depth:
                continue
            ms = pull_period_ms
            cursor = node
            while cursor.parent is not None:
                ms += geo.one_way_ms(cursor.parent.node_id, cursor.node_id)
                cursor = cursor.parent
            out.append(ms)
        return out


def structure(overlay) -> List[str]:
    """Fanout bounds, link symmetry, and no edges on offline consumers."""
    problems = []
    for node in overlay:
        children = node.children
        if len(children) > node.fanout:
            problems.append(
                f"node {node.node_id} has {len(children)} children over "
                f"fanout {node.fanout}"
            )
        for child in children:
            if child.parent is not node:
                problems.append(
                    f"node {child.node_id} is listed under {node.node_id} "
                    "but points elsewhere"
                )
        parent = node.parent
        if parent is not None and not any(c is node for c in parent.children):
            problems.append(
                f"node {node.node_id} points at {parent.node_id}, which does "
                "not list it"
            )
        if not node.online and (parent is not None or children):
            problems.append(f"offline node {node.node_id} still holds edges")
        if len(problems) > 5:
            break
    return problems


def overlay_checks(
    overlay, reported_satisfied: int, everyone: bool = False
) -> Tuple[Walk, List[str]]:
    """Walk, structure and satisfied-count checks for one overlay."""
    walk = Walk(overlay)
    problems = walk.problems + structure(overlay)
    satisfied = walk.satisfied()
    if satisfied != reported_satisfied:
        problems.append(
            f"walk finds {satisfied} satisfied consumers, program reports "
            f"{reported_satisfied}"
        )
    online = len(overlay.online_consumers)
    if everyone and satisfied != online:
        problems.append(f"only {satisfied} of {online} online consumers satisfied")
    return walk, problems


def arrivals(
    engine, feed_end: float, service_start: float, pull_period: float
) -> Tuple[List[float], List[str]]:
    """Delivery-log checks for one feed's dissemination engine.

    Every arrival must be an item the source published, logged under its
    own sequence number (once per consumer), no earlier than it was
    published and no later than the end of the run.  Returns the
    staleness of service-phase arrivals in pull periods.
    """
    problems: List[str] = []
    published = engine.source.items
    values: List[float] = []
    for consumer_id, consumer in engine.consumers.items():
        for seq, arrival in consumer.arrivals.items():
            item = arrival.item
            if item.seq != seq or not 1 <= seq <= len(published):
                problems.append(
                    f"consumer {consumer_id} logs item {item.seq} under {seq}"
                )
            elif published[seq - 1] is not item:
                problems.append(
                    f"consumer {consumer_id} holds an item {seq} the source "
                    "never published"
                )
            if arrival.arrived_at < item.published_at:
                problems.append(
                    f"consumer {consumer_id} got item {seq} at "
                    f"{arrival.arrived_at} before it was published at "
                    f"{item.published_at}"
                )
            if arrival.arrived_at > feed_end:
                problems.append(
                    f"consumer {consumer_id} got item {seq} after the run ended"
                )
            if item.published_at >= service_start:
                values.append(
                    (arrival.arrived_at - item.published_at) / pull_period
                )
            if len(problems) > 5:
                return values, problems
    return values, problems


def equal(label: str, ours, theirs) -> List[str]:
    """A one-problem list when two recomputed figures differ."""
    if ours != theirs:
        return [f"{label}: benchmark computes {ours!r}, program reports {theirs!r}"]
    return []
