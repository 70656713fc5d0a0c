"""Spans recorded from outside the program, around calls into each layer.

Nothing in ``src/`` knows it is being traced. :class:`Tracer` rebinds a
layer's public entry point — a method on its class, a bound method on
one instance, or a module attribute where the caller imported the name —
with a wrapper that appends ``[name, start, end, parent, cycle]`` to an
in-memory list. The list is summarised (:meth:`Tracer.totals`) and
written out as Chrome-trace JSON (:meth:`Tracer.write_chrome_trace`)
only after the measured run ends.

Two wrap points deserve a note, because they are what the layer split
rests on:

* ``repro.net.simulator.max_min_fair_rates`` and
  ``repro.net.flow.max_min_fair_rates`` are the same function under two
  names. The simulator imported its name at module load, the sharded
  controller looks the attribute up on ``repro.net.flow`` at call time —
  so rebinding each name separately tells the data plane's waterfill
  (``flow.waterfill``) from the controller's WAN reconciliation
  (``controller.reconcile``).
* ``Simulation._bulk_capacities`` is private, but it is where the running
  system derives each cycle's link budgets (``NetworkMonitor.bulk_budgets``
  is not on any run path), so it carries the ``bandwidth.budgets`` span
  and gives every later span of the cycle its cycle id.

The child process that traces is thrown away afterwards, so class- and
module-level rebinding needs no undo.

Span times are raw ``perf_counter`` readings. The speed-reference kernel
(:mod:`speedref`) runs inside whatever span is open when its timer fires;
the summaries take those pauses back out through the ``paused`` callable
the tracer is given.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record layout.
NAME, START, END, PARENT, CYCLE = range(5)

#: on_call(tracer, args) hooks may return nothing; they exist to read a
#: cycle id or bump a counter from the call's own arguments.
CallHook = Callable[["Tracer", tuple], None]
#: on_return(tracer, result) hooks count what the call produced.
ReturnHook = Callable[["Tracer", Any], None]


class Tracer:
    """In-memory span and counter store plus the wrapper factory."""

    def __init__(
        self, paused: Callable[[float, float], float] = lambda start, end: 0.0
    ) -> None:
        """``paused(start, end)``: harness seconds to discount from a span."""
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.cycle = -1
        self.paused = paused
        self._stack: List[int] = []

    def bump(self, counter: str, by: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + by

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[CallHook] = None,
        on_return: Optional[ReturnHook] = None,
    ) -> None:
        """Rebind ``owner.attr`` with a span-recording wrapper.

        ``owner`` may be a class (the plain function is wrapped, so
        instances created later are covered too), an instance (its bound
        method is wrapped) or a module.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(tracer, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.cycle]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(tracer, result)
            return result

        setattr(owner, attr, traced)

    # -- summaries ------------------------------------------------------------

    def _seconds(self, span: list) -> float:
        return span[END] - span[START] - self.paused(span[START], span[END])

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every span called ``name``, in call order."""
        return [self._seconds(s) for s in self.spans if s[NAME] == name]

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls).

        Self time is a span's duration minus its direct children's. A
        span nested directly inside one of the same name (a method that
        delegates to its sibling) adds to neither sum twice.
        """
        spans = self.spans
        seconds = [self._seconds(span) for span in spans]
        child_time = [0.0] * len(spans)
        for index, span in enumerate(spans):
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += seconds[index]
        out: Dict[str, List[float]] = {}
        for index, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == span[NAME]:
                continue
            duration = seconds[index]
            row = out.setdefault(span[NAME], [0.0, 0.0, 0])
            row[0] += duration
            row[1] += duration - child_time[index]
            row[2] += 1
        return {k: (v[0], v[1], int(v[2])) for k, v in out.items()}

    def children_of(self, name: str) -> Dict[str, float]:
        """Inclusive seconds of the direct children of spans called ``name``."""
        spans = self.spans
        out: Dict[str, float] = {}
        for span in spans:
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == name:
                out[span[NAME]] = out.get(span[NAME], 0.0) + self._seconds(span)
        return out

    def write_chrome_trace(self, path: str, label: str) -> None:
        """Write the spans as Chrome-trace JSON (open in ui.perfetto.dev).

        Complete ("X") events on one thread, on the raw timeline (pauses
        in, no speed correction); nesting is recovered by the viewer from
        the timestamps. ``args.cycle`` is the simulated cycle the span ran
        in, ``args.parent`` the index of the causing span.
        """
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "cat": span[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"cycle": span[CYCLE], "parent": span[PARENT], "id": i},
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"workload": label},
                },
                handle,
            )


# -- wrap points ---------------------------------------------------------------


def _cycle_from_view(tracer: Tracer, args: tuple) -> None:
    tracer.cycle = args[-1].cycle


def wrap_decide(tracer: Tracer, strategy: Any) -> None:
    """Time every ``strategy.decide`` call (the one wrap untraced runs keep).

    Rebinds the bound method on the instance, so the simulator's
    ``self.strategy.decide(view)`` lands in the wrapper. The span is
    ``controller.decide`` for a BDS controller, ``baselines.decide`` for
    any other strategy.
    """
    from repro.core.controller import BDSController

    layer = "controller" if isinstance(strategy, BDSController) else "baselines"
    tracer.wrap(strategy, "decide", f"{layer}.decide", _cycle_from_view)


def wrap_layers(tracer: Tracer, cycle_seconds: float) -> None:
    """Rebind every layer entry point the traced repetition records."""
    import repro.core.routing as routing_mod
    import repro.net.flow as flow_mod
    import repro.net.simulator as simulator_mod
    from repro.core.routing import BDSRouter
    from repro.core.scheduling import RarestFirstScheduler
    from repro.core.shardexec import LocalShardRunner, ShardFeed
    from repro.net.background import BackgroundTraffic
    from repro.net.failures import FailureSchedule
    from repro.net.simulator import Simulation
    from repro.overlay.store import PossessionIndex

    def cycle_from_now(tr: Tracer, args: tuple) -> None:
        tr.cycle = int(round(args[1] / cycle_seconds))

    def cycle_from_arg(tr: Tracer, args: tuple) -> None:
        tr.cycle = args[1]

    def count_flows(tr: Tracer, args: tuple) -> None:
        tr.bump("flow.flows_resolved", len(args[0]))

    tracer.wrap(Simulation, "run", "simulator.run")
    tracer.wrap(Simulation, "_bulk_capacities", "bandwidth.budgets", cycle_from_now)
    tracer.wrap(BackgroundTraffic, "usage", "background.sample")
    tracer.wrap(
        FailureSchedule, "advance_to", "failures.advance", cycle_from_arg,
        lambda tr, applied: tr.bump("failures.events_applied", len(applied)),
    )
    tracer.wrap(RarestFirstScheduler, "select", "scheduling.select")
    tracer.wrap(BDSRouter, "route", "routing.route")
    tracer.wrap(routing_mod, "max_multicommodity_flow", "lp.fptas")
    tracer.wrap(routing_mod, "solve_lp_incidence", "lp.exact")
    tracer.wrap(ShardFeed, "payload", "shardexec.feed")
    tracer.wrap(LocalShardRunner, "decide", "shardexec.decide")
    tracer.wrap(flow_mod, "max_min_fair_rates", "controller.reconcile")
    tracer.wrap(simulator_mod, "max_min_fair_rates", "flow.waterfill", count_flows)
    tracer.wrap(simulator_mod, "clip_rates_to_capacity", "flow.clip", count_flows)
    tracer.wrap(PossessionIndex, "record_deliveries", "store.record")
    tracer.wrap(PossessionIndex, "record_delivery", "store.record")


def wrap_fallback(tracer: Tracer, strategy: Any) -> None:
    """The BDS controller's decentralized fallback (controller outages)."""
    fallback = getattr(strategy, "fallback", None)
    if fallback is not None:
        tracer.wrap(fallback, "decide", "baselines.fallback_decide")
