"""Outside-in tracing: spans around calls into each layer's public methods.

Nothing inside the program changes.  :meth:`Tracer.install` sets a
wrapper as an *instance* attribute over each named method of the
broker, network, engine, shards, partitioner, index manager and routing
tables, so every call the program makes through ``self.<method>`` or
``obj.<method>`` passes through a span; :meth:`Tracer.remove` deletes the
instance attributes again, restoring the class methods, which is how the
traced run alternates traced and untraced blocks.  Garbage collections
become spans too, through ``gc.callbacks``.

A span is ``(id, parent id, name, start, end)``, in ``perf_counter``
seconds (elapsed time, like the untraced run's); span names are the
per-layer metric names (``indexes.phase1_s`` ...), so a layer's time is
the self time of its spans: duration minus the part of it covered by
child spans.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: (method, span name) per instrumented object kind.  An unsharded
#: engine's own ``match``/``match_batch`` entry counts as phase 2; a
#: sharded engine's is its shard dispatch.
ENGINE_METHODS = (
    ("match_fulfilled", "core.phase2_s"),
    ("match_fulfilled_batch", "core.phase2_s"),
    ("match_fulfilled_matrix", "core.phase2_s"),
    ("register", "core.register_s"),
    ("unregister", "core.register_s"),
)
ENTRY_METHODS = ("match", "match_batch")
INDEX_METHODS = (
    ("match", "indexes.phase1_s"),
    ("match_batch", "indexes.phase1_s"),
    ("match_batch_bits", "indexes.phase1_s"),
    ("add", "indexes.update_s"),
    ("remove", "indexes.update_s"),
)
BROKER_METHODS = (
    ("publish", "broker.deliver_s"),
    ("subscribe", "broker.register_s"),
    ("unsubscribe", "broker.register_s"),
    ("notify_local", "network.notify_s"),
)
NETWORK_METHODS = (
    ("publish", "network.forward_s"),
    ("subscribe", "network.subscribe_s"),
    ("unsubscribe", "network.unsubscribe_s"),
)
ROUTING_METHODS = (
    ("add_local", "routing.add_s"),
    ("add_remote", "routing.add_s"),
    ("remove", "routing.remove_s"),
)

#: every span name the tracer can record: the per-layer time metrics
LAYER_TIMES = (
    "indexes.phase1_s",
    "indexes.update_s",
    "core.phase2_s",
    "core.register_s",
    "sharded.dispatch_s",
    "sharded.route_s",
    "broker.deliver_s",
    "broker.register_s",
    "network.forward_s",
    "network.notify_s",
    "network.subscribe_s",
    "network.unsubscribe_s",
    "routing.add_s",
    "routing.remove_s",
    "subscriptions.parse_s",
    "runtime.gc_s",
)
PHASE1 = "indexes.phase1_s"


class Tracer:
    """In-memory span recorder with instance-level method wrappers."""

    def __init__(self) -> None:
        #: finished spans: (id, parent id, name, start, end); 0 = no parent
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: (events argument, result) of every phase-1 call, for the
        #: fulfilled/distinct-pair counts computed after the window
        self.phase1_calls: list[tuple[object, object]] = []
        self._stack = [0]
        self._next_id = 1
        self._targets: list[tuple[object, str, str]] = []
        self._installed: list[tuple[object, str]] = []
        self._gc_open: list[tuple[int, int, float]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, call, *args, **kwargs):
        """Run ``call`` inside a span named ``name``."""
        span_id = self._next_id
        self._next_id = span_id + 1
        stack = self._stack
        parent = stack[-1]
        stack.append(span_id)
        start = perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if name == PHASE1:
            self.phase1_calls.append((args[0], result))
        return result

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            span_id = self._next_id
            self._next_id = span_id + 1
            self._gc_open.append((span_id, self._stack[-1], perf_counter()))
            self._stack.append(span_id)
        elif self._gc_open:
            end = perf_counter()
            span_id, parent, start = self._gc_open.pop()
            if self._stack[-1] == span_id:
                self._stack.pop()
            self.spans.append((span_id, parent, "runtime.gc_s", start, end))

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def target(self, obj, method: str, name: str) -> None:
        """Register ``obj.method`` to be wrapped as span ``name``."""
        if any(o is obj and m == method for o, m, _ in self._targets):
            return  # shared objects (one index manager, many shards)
        self._targets.append((obj, method, name))

    def target_engine(self, engine) -> None:
        """An engine, its shards and partitioner, and its index manager."""
        shards = getattr(engine, "shards", None)
        entry = "sharded.dispatch_s" if shards is not None else "core.phase2_s"
        for method in ENTRY_METHODS:
            self.target(engine, method, entry)
        for inner in (engine, *(shards or ())):
            for method, name in ENGINE_METHODS:
                self.target(inner, method, name)
        if shards is not None:
            self.target(engine.partitioner, "candidate_shards", "sharded.route_s")
        for method, name in INDEX_METHODS:
            self.target(engine.indexes, method, name)

    def target_broker(self, broker) -> None:
        for method, name in BROKER_METHODS:
            self.target(broker, method, name)
        self.target_engine(broker.engine)

    def target_network(self, network) -> None:
        for method, name in NETWORK_METHODS:
            self.target(network, method, name)
        for broker in network.brokers():
            self.target_broker(broker)
            table = network.routing_table(broker.name)
            for method, name in ROUTING_METHODS:
                self.target(table, method, name)

    def target_system(self, system) -> None:
        """A broker or a whole overlay."""
        if hasattr(system, "routing_table"):
            self.target_network(system)
        else:
            self.target_broker(system)

    def install(self) -> None:
        """Wrap every registered target and start recording collections."""
        for obj, method, name in self._targets:
            original = getattr(obj, method)
            setattr(obj, method, self._wrapper(name, original))
            self._installed.append((obj, method))
        gc.callbacks.append(self._on_gc)

    def _wrapper(self, name: str, original):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, original, *args, **kwargs)

        return traced

    def remove(self) -> None:
        """Restore the class methods and stop recording collections."""
        for obj, method in self._installed:
            delattr(obj, method)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def reset_targets(self) -> None:
        """Forget the registered targets (their objects may be dropped)."""
        self.remove()
        self._targets.clear()

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def _self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the part of it that child
        spans cover (children clipped to the parent's interval, since a
        collection can start in the parent's own bookkeeping)."""
        bounds = {span_id: (start, end) for span_id, _, _, start, end in self.spans}
        covered: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            outer = bounds.get(parent)
            if outer is not None:
                overlap = min(end, outer[1]) - max(start, outer[0])
                if overlap > 0:
                    covered[parent] = covered.get(parent, 0.0) + overlap
        return {
            span_id: end - start - covered.get(span_id, 0.0)
            for span_id, _, _, start, end in self.spans
        }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (per layer metric)."""
        totals = dict.fromkeys(LAYER_TIMES, 0.0)
        own = self._self_times()
        for span_id, _, name, _, _ in self.spans:
            totals[name] += own[span_id]
        return totals

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Self time per layer under each kind of root span.

        A root span is a call the benchmark made itself (a publish, a
        subscribe, a parse, a collection outside any call); this splits,
        for example, an overlay subscribe into its routing, engine and
        index shares.
        """
        parent_of = {span_id: parent for span_id, parent, _, _, _ in self.spans}
        name_of = {span_id: name for span_id, _, name, _, _ in self.spans}
        own = self._self_times()
        result: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, _ in self.spans:
            root = span_id
            while parent_of.get(root, 0):
                root = parent_of[root]
            layers = result.setdefault(name_of[root], {})
            layers[name] = layers.get(name, 0.0) + own[span_id]
        return result

    def count(self, name: str) -> int:
        """Number of recorded spans named ``name``."""
        return sum(1 for span in self.spans if span[2] == name)

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
