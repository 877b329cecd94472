"""Seeded workloads and their delivery oracles.

Each workload makes every input from the seed with its own
``random.Random`` streams, drives only the public ``repro`` API, and
keeps the structure of what it issued (attribute/operator/value triples,
key bands, the op stream), so :meth:`Workload.check` can re-evaluate
every publish after the timed window without calling into the program.
Nothing here imports ``repro.workloads``, ``repro.bench`` or
``repro.experiments``: a change to the program can never change the
benchmark's inputs.

The runner drives a workload in this order:

* per set-up round: ``use_population(number)``, ``make_system()``, then
  ``populate(system, span)`` — parse and register the population; a
  round that is not kept then calls ``teardown(system)`` when
  ``tears_down`` is set, which is where ``wide-paper`` and
  ``hotkey-routed`` take their unsubscribe samples.  Population 0 is the
  kept one; every other round registers a population of its own, so no
  round finds its expressions already in a cache of the program's;
* ``make_ops(count)``, then ``run_op(system, op, span)`` per op — the
  closed-loop window: one client, next call only after the previous one
  returned;
* ``check(ops)`` — the oracle: how many publish calls delivered other
  than expected.

``span`` is ``None`` outside the traced run; in it, the parse call the
benchmark makes itself is recorded as a ``subscriptions.parse_s`` span.
"""

from __future__ import annotations

import bisect
import itertools
import random
from time import perf_counter, process_time

#: events per ``Broker.publish`` call in the batch workloads
BATCH = 64


def zipf_cum_weights(count: int, skew: float) -> list[float]:
    """Cumulative Zipf weights over ranks ``0..count-1``."""
    return list(itertools.accumulate(1.0 / (rank + 1) ** skew for rank in range(count)))


def parse_and_subscribe(repro, subscribe, text: str, span):
    """Parse subscription text the way a client sends it, then subscribe."""
    if span is None:
        subscription = repro.Subscription.from_text(text)
    else:
        subscription = span("subscriptions.parse_s", repro.Subscription.from_text, text)
    return subscribe(subscription)


class Workload:
    """Common bookkeeping: latency samples, delivery records, failures."""

    name = ""
    #: window operations per second of ``--seconds``.  The window issues a
    #: fixed number of operations, sized so one run lasts about
    #: ``--seconds`` on the reference machine; the work — and with it
    #: every count and the peak RSS — depends on the seed alone.
    ops_per_second = 1.0
    #: untimed operations issued before the window (still checked by the
    #: oracle): the first calls after set-up fill the program's caches
    #: and run about a fifth slower
    warmup_ops = 0
    #: window operations between two timings of the speed reference task
    reference_every = 1
    #: window operations per block of the traced run, whose blocks
    #: alternate between untraced and traced
    trace_block = 1
    #: whether set-up rounds that are not kept withdraw their population
    tears_down = False

    def __init__(self, repro, seed: int) -> None:
        self.repro = repro
        self.seed = seed
        self.rng = self.stream("population:0")
        self.samples: dict[str, list[float]] = {
            "publish": [],
            "subscribe": [],
            "unsubscribe": [],
        }
        #: per window publish, in issue order: the delivered subscription
        #: ids of each of its events (``None`` when the call raised)
        self.records: list[list[list[int]] | None] = []
        #: program subscription id -> index of the generated subscription
        self.index_of: dict[int, int] = {}
        self.texts: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.events_published = 0
        #: elapsed seconds spent inside timed client calls
        self.busy = 0.0
        #: process CPU seconds spent inside the same calls (a cross-check
        #: of ``busy``: well below it means the calls waited, above it
        #: means other threads ran during them)
        self.cpu_busy = 0.0

    def stream(self, purpose: str) -> random.Random:
        """An independent seeded random stream (string seeds hash the same
        in every process)."""
        return random.Random(f"{self.seed}:{purpose}")

    def use_population(self, number: int) -> None:
        """Draw population ``number`` of this seed, replacing the last."""
        self.rng = self.stream(f"population:{number}")
        self.generate_population()

    def generate_population(self) -> None:
        raise NotImplementedError

    def timed(self, kind: str | None, call, *args):
        """Issue one client call and time it; ``None`` when it raised.

        The sample is the call's elapsed time (``perf_counter``).
        ``kind`` names the latency sample list; ``None`` counts the call
        without sampling it (the overlay's set-up subscribes).
        """
        self.attempted += 1
        cpu_start = process_time()
        start = perf_counter()
        try:
            result = call(*args)
        except Exception:  # noqa: BLE001 - a raising call is a failed op
            self.failed += 1
            return None
        elapsed = perf_counter() - start
        self.cpu_busy += process_time() - cpu_start
        self.busy += elapsed
        if kind is not None:
            self.samples[kind].append(elapsed)
        return result

    def live(self, system) -> int:
        """Subscriptions live in ``system`` (once each, not per broker)."""
        return system.subscription_count

    def mismatches(self, expected: list[list[list[int]]]) -> int:
        """Publish calls that delivered other than ``expected``.

        ``expected[i][j]`` lists, sorted, the subscription indexes event
        ``j`` of publish ``i`` matches.  A duplicate delivery or an
        unknown id is a mismatch; a call that raised was already counted
        as failed.
        """
        index_of = self.index_of
        mismatches = abs(len(expected) - len(self.records))
        for want, got in zip(expected, self.records):
            if got is not None and [
                sorted(index_of.get(sid, -1) for sid in ids) for ids in got
            ] != want:
                mismatches += 1
        return mismatches


class BatchWorkload(Workload):
    """A single ``Broker``: the population is registered in set-up,
    withdrawn again in rounds that are not kept, and the window
    publishes batches of ``BATCH`` events."""

    tears_down = True

    def populate(self, broker, span=None) -> None:
        """Parse and subscribe every generated text at ``broker``."""
        index_of = {}
        for index, text in enumerate(self.texts):
            handle = self.timed(
                "subscribe", parse_and_subscribe, self.repro, broker.subscribe, text, span
            )
            if handle is not None:
                index_of[handle.id] = index
        self.index_of = index_of
        if broker.subscription_count != len(self.texts):
            self.failed += 1

    def teardown(self, broker) -> None:
        """Unsubscribe every handle, in seeded random order."""
        handles = broker.handles()
        self.rng.shuffle(handles)
        for handle in handles:
            if self.timed("unsubscribe", handle.unsubscribe) is False:
                self.failed += 1
        if broker.subscription_count:
            self.failed += 1
        broker.engine.close()

    def run_op(self, broker, batch, span=None) -> None:
        """One ``Broker.publish(list)`` call; records delivered ids."""
        result = self.timed("publish", broker.publish, batch)
        if result is not None:
            self.events_published += len(batch)
            result = [[n.subscription_id for n in notes] for notes in result]
        self.records.append(result)


# ----------------------------------------------------------------------
# wide-paper: the paper's Table 1 shape on a wide value domain
# ----------------------------------------------------------------------
WIDE_ATTRIBUTES = 64
WIDE_EVENT_ATTRIBUTES = 16
WIDE_DOMAIN = 10_000
WIDE_SUBSCRIPTIONS = 3_000
WIDE_OPERATORS = ("=", "<", ">", "<=", ">=")


class WidePaper(BatchWorkload):
    """3,000 AND-of-3-binary-OR subscriptions over 64 attributes with
    values in [0, 10^4); events carry 16 of the attributes and go 64 at a
    time to a default (unsharded non-canonical) ``Broker``."""

    name = "wide-paper"
    ops_per_second = 5.5
    warmup_ops = 10
    trace_block = 2

    def generate_population(self) -> None:
        rng = self.rng
        #: subscription index -> three clauses of two (attr, op, value)
        self.structures = [
            tuple(
                tuple(
                    (
                        f"attr{rng.randrange(WIDE_ATTRIBUTES):03d}",
                        rng.choice(WIDE_OPERATORS),
                        rng.randrange(WIDE_DOMAIN),
                    )
                    for _ in range(2)
                )
                for _ in range(3)
            )
            for _ in range(WIDE_SUBSCRIPTIONS)
        ]
        self.texts = [
            " and ".join(
                "(" + " or ".join(f"{a} {op} {v}" for a, op, v in clause) + ")"
                for clause in clauses
            )
            for clauses in self.structures
        ]

    def make_system(self):
        return self.repro.Broker("wide-paper")

    def make_ops(self, count: int) -> list:
        rng = self.stream("ops")
        Event = self.repro.Event
        names = [f"attr{a:03d}" for a in range(WIDE_ATTRIBUTES)]
        attributes = range(WIDE_ATTRIBUTES)
        return [
            [
                Event(
                    {
                        names[a]: rng.randrange(WIDE_DOMAIN)
                        for a in sorted(rng.sample(attributes, WIDE_EVENT_ATTRIBUTES))
                    }
                )
                for _ in range(BATCH)
            ]
            for _ in range(count)
        ]

    def check(self, ops) -> int:
        return self.mismatches([self._expected(batch) for batch in ops])

    def _expected(self, batch) -> list[list[int]]:
        """Per event, the sorted indexes of the subscriptions it matches.

        Works in event space: per attribute, the batch's values sorted,
        with prefix and suffix ORs of event bits, answer each order
        predicate with one bisect.
        """
        columns: dict[str, list[tuple[int, int]]] = {}
        for position, event in enumerate(batch):
            for attribute, value in event.items():
                columns.setdefault(attribute, []).append((value, 1 << position))
        tables = {}
        for attribute, pairs in columns.items():
            pairs.sort()
            prefix = [0]
            for _, bit in pairs:
                prefix.append(prefix[-1] | bit)
            suffix = [0] * (len(pairs) + 1)
            for k in range(len(pairs) - 1, -1, -1):
                suffix[k] = suffix[k + 1] | pairs[k][1]
            equal: dict[int, int] = {}
            for value, bit in pairs:
                equal[value] = equal.get(value, 0) | bit
            tables[attribute] = ([value for value, _ in pairs], prefix, suffix, equal)

        def fulfilling(attribute: str, op: str, operand: int) -> int:
            table = tables.get(attribute)
            if table is None:
                return 0
            values, prefix, suffix, equal = table
            if op == "=":
                return equal.get(operand, 0)
            if op == "<":
                return prefix[bisect.bisect_left(values, operand)]
            if op == "<=":
                return prefix[bisect.bisect_right(values, operand)]
            if op == ">":
                return suffix[bisect.bisect_right(values, operand)]
            return suffix[bisect.bisect_left(values, operand)]  # ">="

        expected: list[list[int]] = [[] for _ in batch]
        everyone = (1 << len(batch)) - 1
        for index, clauses in enumerate(self.structures):
            mask = everyone
            for first, second in clauses:
                mask &= fulfilling(*first) | fulfilling(*second)
                if not mask:
                    break
            while mask:
                low = mask & -mask
                expected[low.bit_length() - 1].append(index)
                mask ^= low
        return expected


# ----------------------------------------------------------------------
# hotkey-routed: Zipf hot keys on the routed, sharded engine
# ----------------------------------------------------------------------
HOT_KEYS = [f"k{index:03d}" for index in range(64)]
HOT_CUM = zipf_cum_weights(len(HOT_KEYS), 1.2)
HOT_DOMAIN = 1_000
HOT_REGIONS = ("us", "eu", "apac")
HOT_SUBSCRIPTIONS = 2_000
HOT_ENGINE = ("noncanonical", {"shards": 8, "partitioner": "routed", "executor": "serial"})


class HotkeyRouted(BatchWorkload):
    """2,000 band subscriptions on Zipf(1.2) hot keys (half OR a second
    key + region) on the non-canonical engine with 8 routed shards and
    the serial executor; events ``{key, value, region}`` go 64 at a
    time."""

    name = "hotkey-routed"
    ops_per_second = 10.0
    warmup_ops = 20
    trace_block = 4

    def generate_population(self) -> None:
        rng = self.rng
        #: subscription index -> (key, low, high, other key, region)
        self.structures = []
        self.texts = []
        for _ in range(HOT_SUBSCRIPTIONS):
            key = rng.choices(HOT_KEYS, cum_weights=HOT_CUM)[0]
            low = rng.randrange(HOT_DOMAIN // 2)
            high = low + rng.randrange(1, HOT_DOMAIN // 2)
            band = f"key = '{key}' and value >= {low} and value <= {high}"
            if rng.random() < 0.5:
                other = rng.choices(HOT_KEYS, cum_weights=HOT_CUM)[0]
                region = rng.choice(HOT_REGIONS)
                self.structures.append((key, low, high, other, region))
                self.texts.append(f"({band}) or (key = '{other}' and region = '{region}')")
            else:
                self.structures.append((key, low, high, None, None))
                self.texts.append(band)

    def make_system(self):
        name, options = HOT_ENGINE
        return self.repro.Broker("hotkey-routed", engine=self.repro.EngineSpec(name, options))

    def make_ops(self, count: int) -> list:
        rng = self.stream("ops")
        Event = self.repro.Event
        return [
            [
                Event(
                    {
                        "key": rng.choices(HOT_KEYS, cum_weights=HOT_CUM)[0],
                        "value": rng.randrange(HOT_DOMAIN),
                        "region": rng.choice(HOT_REGIONS),
                    }
                )
                for _ in range(BATCH)
            ]
            for _ in range(count)
        ]

    def check(self, ops) -> int:
        primary: dict[str, list[tuple[int, int, int]]] = {}
        secondary: dict[str, list[tuple[int, str]]] = {}
        for index, (key, low, high, other, region) in enumerate(self.structures):
            primary.setdefault(key, []).append((index, low, high))
            if other is not None:
                secondary.setdefault(other, []).append((index, region))
        expected = []
        for batch in ops:
            wanted = []
            for event in batch:
                key, value, region = event["key"], event["value"], event["region"]
                want = {i for i, low, high in primary.get(key, ()) if low <= value <= high}
                want.update(i for i, r in secondary.get(key, ()) if r == region)
                wanted.append(sorted(want))
            expected.append(wanted)
        return self.mismatches(expected)


# ----------------------------------------------------------------------
# overlay-churn: subscribe/unsubscribe beside per-event publishes
# ----------------------------------------------------------------------
OVERLAY_BROKERS = [f"b{index}" for index in range(8)]
OVERLAY_KEYS = [f"k{index:02d}" for index in range(24)]
OVERLAY_CUM = zipf_cum_weights(len(OVERLAY_KEYS), 1.1)
OVERLAY_DOMAIN = 1_000
OVERLAY_WARMUP = 400
#: new subscriptions come in groups of ten with exactly this mix, so the
#: mix (and the slow tail of withdrawing key watches) is the same for
#: every seed
OVERLAY_MIX = ["watch"] + ["nested"] * 4 + ["fresh"] * 5


class OverlayChurn(Workload):
    """A ``BrokerNetwork`` of 8 brokers in a balanced binary tree with
    covering on; 400 warm-up subscriptions, then subscribe : unsubscribe
    : publish = 1 : 1 : 3 at random brokers, one event per publish; an
    unsubscribe withdraws a random live subscription.

    A new subscription is a key watch (10%), a band nested in a live
    band (40%) or a fresh band (50%), over 24 Zipf(1.1) keys.
    """

    name = "overlay-churn"
    ops_per_second = 1100.0
    warmup_ops = 1000
    reference_every = 100
    trace_block = 50

    def generate_population(self) -> None:
        #: generation index -> (key, low, high); a key watch has low None
        self.structures: list[tuple[str, int | None, int | None]] = []
        self.texts = []
        self.homes: list[str] = []
        #: generation indexes live after everything generated so far
        self._live: list[int] = []
        self._deck: list[str] = []
        for _ in range(OVERLAY_WARMUP):
            self._new_subscription()

    def _key(self) -> str:
        return self.rng.choices(OVERLAY_KEYS, cum_weights=OVERLAY_CUM)[0]

    def _new_subscription(self) -> int:
        rng = self.rng
        if not self._deck:
            self._deck = list(OVERLAY_MIX)
            rng.shuffle(self._deck)
        kind = self._deck.pop()
        outer = None
        if kind == "nested" and self._live:
            # a few draws find a live band (nine in ten live ones are)
            for _ in range(8):
                candidate = self.structures[rng.choice(self._live)]
                if candidate[1] is not None:
                    outer = candidate
                    break
        if kind == "watch":
            key, low, high = self._key(), None, None
        elif outer is not None:
            key, outer_low, outer_high = outer
            low = rng.randint(outer_low, outer_high)
            high = rng.randint(low, outer_high)
        else:
            key = self._key()
            low = rng.randrange(OVERLAY_DOMAIN)
            high = min(OVERLAY_DOMAIN - 1, low + rng.randrange(20, 400))
        generation = len(self.structures)
        self.structures.append((key, low, high))
        if low is None:
            self.texts.append(f"key = '{key}'")
        else:
            self.texts.append(f"key = '{key}' and value >= {low} and value <= {high}")
        self.homes.append(rng.choice(OVERLAY_BROKERS))
        self._live.append(generation)
        return generation

    def make_system(self):
        network = self.repro.BrokerNetwork()
        for name in OVERLAY_BROKERS:
            network.add_broker(name)
        for index in range(1, len(OVERLAY_BROKERS)):
            network.connect(OVERLAY_BROKERS[(index - 1) // 2], OVERLAY_BROKERS[index])
        return network

    def populate(self, network, span=None) -> None:
        self.handles: dict[int, object] = {}
        self.index_of = {}
        for generation in range(OVERLAY_WARMUP):
            self._subscribe(network, generation, span, sample=None)
        if len(self.handles) != OVERLAY_WARMUP:
            self.failed += 1

    def live(self, network) -> int:
        return len(self.handles)

    def _subscribe(self, network, generation: int, span, sample="subscribe") -> None:
        home = self.homes[generation]

        def subscribe(subscription):
            return network.subscribe(home, subscription)

        text = self.texts[generation]
        handle = self.timed(sample, parse_and_subscribe, self.repro, subscribe, text, span)
        if handle is not None:
            self.handles[generation] = handle
            self.index_of[handle.id] = generation

    def make_ops(self, count: int) -> list:
        """``count`` ops in groups of five, each a seeded shuffle of one
        subscribe, one unsubscribe and three publishes, so the live
        population stays at the warm-up size instead of random-walking
        (and the publish cost with it) from seed to seed."""
        self.rng = rng = self.stream("ops")
        Event = self.repro.Event
        ops = []
        group = ["subscribe", "unsubscribe", "publish", "publish", "publish"]
        while len(ops) < count:
            rng.shuffle(group)
            for kind in group:
                if kind == "subscribe":
                    ops.append(("subscribe", self._new_subscription()))
                elif kind == "unsubscribe":
                    position = rng.randrange(len(self._live))
                    generation = self._live[position]
                    self._live[position] = self._live[-1]
                    self._live.pop()
                    ops.append(("unsubscribe", generation))
                else:
                    event = Event({"key": self._key(), "value": rng.randrange(OVERLAY_DOMAIN)})
                    ops.append(("publish", (rng.choice(OVERLAY_BROKERS), event)))
        return ops[:count]

    def run_op(self, network, op, span=None) -> None:
        kind, payload = op
        if kind == "subscribe":
            self._subscribe(network, payload, span)
        elif kind == "unsubscribe":
            handle = self.handles.pop(payload, None)
            if handle is None:
                self.attempted += 1
                self.failed += 1
            elif self.timed("unsubscribe", handle.unsubscribe) is False:
                self.failed += 1
        else:
            broker, event = payload
            notes = self.timed("publish", network.publish, broker, event)
            if notes is not None:
                self.events_published += 1
                notes = [[n.subscription_id for n in notes]]
            self.records.append(notes)

    def check(self, ops) -> int:
        """Replay the op stream over the generated structures."""
        structures = self.structures
        by_key: dict[str, set[int]] = {}
        for generation in range(OVERLAY_WARMUP):
            by_key.setdefault(structures[generation][0], set()).add(generation)
        expected = []
        for kind, payload in ops:
            if kind == "subscribe":
                by_key.setdefault(structures[payload][0], set()).add(payload)
            elif kind == "unsubscribe":
                by_key[structures[payload][0]].discard(payload)
            else:
                event = payload[1]
                value = event["value"]
                matched = sorted(
                    g
                    for g in by_key.get(event["key"], ())
                    if structures[g][1] is None or structures[g][1] <= value <= structures[g][2]
                )
                expected.append([matched])
        return self.mismatches(expected)


WORKLOADS = {cls.name: cls for cls in (WidePaper, HotkeyRouted, OverlayChurn)}
