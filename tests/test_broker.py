"""Unit tests for the single broker and its clients."""

from __future__ import annotations

import pytest

from helpers import ALL_ENGINE_NAMES
from repro.broker import Broker, Notification, Publisher, Subscriber
from repro import CountingEngine
from repro.broker.sinks import CollectingSink
from repro.events import (
    AttributeSpec,
    AttributeType,
    Event,
    EventSchema,
    SchemaViolationError,
)
from repro.memory import SimulatedMachine
from repro.subscriptions import Subscription


class TestBrokerBasics:
    def test_subscribe_from_text_and_publish(self):
        broker = Broker("edge")
        s = broker.subscribe("price > 10")
        notifications = broker.publish(Event({"price": 12}))
        assert len(notifications) == 1
        assert notifications[0].subscription_id == s.subscription_id
        assert notifications[0].broker == "edge"

    def test_subscribe_object(self):
        broker = Broker("edge")
        s = Subscription.from_text("a = 1", subscriber="alice")
        broker.subscribe(s)
        notifications = broker.publish(Event({"a": 1}))
        assert notifications[0].subscriber == "alice"

    def test_subscriber_override(self):
        broker = Broker("edge")
        s = Subscription.from_text("a = 1", subscriber="alice")
        broker.subscribe(s, subscriber="bob")
        assert broker.publish(Event({"a": 1}))[0].subscriber == "bob"

    def test_callback_invoked(self):
        broker = Broker("edge")
        received = []
        broker.subscribe("a = 1", callback=received.append)
        broker.publish(Event({"a": 1}))
        broker.publish(Event({"a": 2}))
        assert len(received) == 1

    def test_non_matching_event_no_notifications(self):
        broker = Broker("edge")
        broker.subscribe("a = 1")
        assert broker.publish(Event({"a": 2})) == []

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Broker("")

    def test_unsubscribe(self):
        broker = Broker("edge")
        s = broker.subscribe("a = 1")
        broker.unsubscribe(s.subscription_id)
        assert broker.publish(Event({"a": 1})) == []
        assert broker.subscription_count == 0

    def test_subscription_lookup(self):
        broker = Broker("edge")
        s = broker.subscribe("a = 1")
        assert broker.subscription(s.subscription_id) is s or (
            broker.subscription(s.subscription_id).subscription_id
            == s.subscription_id
        )

    def test_stats_counters(self):
        broker = Broker("edge")
        broker.subscribe("a = 1")
        broker.publish(Event({"a": 1}))
        broker.publish(Event({"a": 2}))
        stats = broker.stats
        assert stats.events_published == 2
        assert stats.events_matched == 1
        assert stats.notifications_delivered == 1
        assert stats.subscriptions_registered == 1

    def test_pluggable_engine(self):
        broker = Broker("edge", engine=CountingEngine())
        s = broker.subscribe("a = 1 or b = 2")
        assert broker.publish(Event({"b": 2}))[0].subscription_id == (
            s.subscription_id
        )

    def test_repr(self):
        assert "edge" in repr(Broker("edge"))


class TestBrokerSchema:
    @pytest.fixture
    def schema(self):
        return EventSchema(
            "m",
            [AttributeSpec("price", AttributeType.FLOAT, required=True)],
        )

    def test_conforming_event_accepted(self, schema):
        broker = Broker("edge", schema=schema)
        broker.subscribe("price > 1")
        assert len(broker.publish(Event({"price": 2.0}))) == 1

    def test_violating_event_rejected(self, schema):
        broker = Broker("edge", schema=schema)
        with pytest.raises(SchemaViolationError):
            broker.publish(Event({"volume": 5}))


class TestBrokerMachineModel:
    def test_memory_pressure_without_machine(self):
        assert Broker("edge").memory_pressure() == 0.0

    def test_memory_pressure_with_machine(self):
        machine = SimulatedMachine(
            total_memory_bytes=4096, os_reserved_bytes=0
        )
        broker = Broker("edge", machine=machine)
        assert broker.memory_pressure() == 0.0
        for index in range(40):
            broker.subscribe(f"attr{index} = {index}")
        assert broker.memory_pressure() > 0.0


class TestClients:
    def test_subscriber_accumulates_notifications(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        alice.subscribe("b = 2")
        broker.publish(Event({"a": 1, "b": 2}))
        assert len(alice.notifications) == 2
        assert {n.subscriber for n in alice.notifications} == {"alice"}

    def test_subscriber_unsubscribe_ownership(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        bob = Subscriber("bob", broker)
        s = alice.subscribe("a = 1")
        with pytest.raises(KeyError):
            bob.unsubscribe(s.subscription_id)
        alice.unsubscribe(s.subscription_id)
        assert alice.subscription_ids == frozenset()

    def test_unsubscribe_all(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        alice.subscribe("b = 2")
        alice.unsubscribe_all()
        assert broker.subscription_count == 0

    def test_subscriber_clear(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        broker.publish(Event({"a": 1}))
        alice.clear()
        assert alice.notifications == []

    def test_publisher_accepts_plain_dict(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        publisher = Publisher("feed", broker)
        publisher.publish({"a": 1})
        assert publisher.published_count == 1
        assert len(alice.notifications) == 1

    def test_client_name_validation(self):
        broker = Broker("edge")
        with pytest.raises(ValueError):
            Subscriber("", broker)
        with pytest.raises(ValueError):
            Publisher("", broker)


class TestNotificationRecord:
    """The delivery record: four named fields, immutable, compared and
    hashed by value."""

    def test_fields_and_order(self):
        assert Notification._fields == (
            "event", "subscription_id", "subscriber", "broker"
        )
        event = Event({"a": 1})
        note = Notification(event, 7, "alice", "edge")
        assert tuple(note) == (event, 7, "alice", "edge")
        assert note == Notification(
            event=event, subscription_id=7, subscriber="alice", broker="edge"
        )

    def test_assignment_raises(self):
        note = Notification(Event({"a": 1}), 7, None, "edge")
        with pytest.raises(AttributeError):
            note.broker = "other"
        with pytest.raises(AttributeError):
            note.subscription_id = 8

    def test_equality_and_hash_by_fields(self):
        event = Event({"a": 1})
        note = Notification(event, 7, "alice", "edge")
        same = Notification(event, 7, "alice", "edge")
        assert note == same and hash(note) == hash(same)
        assert note != Notification(event, 8, "alice", "edge")
        assert note != Notification(event, 7, "bob", "edge")
        assert len({note, same}) == 1

    def test_publish_builds_records_with_handle_fields(self):
        broker = Broker("edge")
        sink = CollectingSink()
        handle = broker.subscribe("a = 1", subscriber="alice", sink=sink)
        event = Event({"a": 1})
        expected = Notification(event, handle.id, "alice", "edge")
        assert broker.publish(event) == [expected]
        assert broker.publish([event]) == [[expected]]
        assert sink.notifications == [expected, expected]

    def test_paused_handle_gets_no_record(self):
        broker = Broker("edge")
        sink = CollectingSink()
        paused = broker.subscribe("a = 1", sink=sink)
        active = broker.subscribe("a >= 1")
        paused.pause()
        event = Event({"a": 1})
        assert broker.publish(event) == [
            Notification(event, active.id, None, "edge")
        ]
        assert broker.publish([event, Event({"a": 0})]) == [
            [Notification(event, active.id, None, "edge")],
            [],
        ]
        assert broker.notify_local(event, paused.id) is None
        assert sink.notifications == []
        paused.resume()
        assert broker.notify_local(event, paused.id) == Notification(
            event, paused.id, None, "edge"
        )
        assert len(sink.notifications) == 1

    def test_match_without_handle_is_reported_without_subscriber(self):
        """A subscription registered on the engine directly has no
        handle: it still gets a record, with no subscriber and no sink."""
        broker = Broker("edge")
        direct = Subscription.from_text("a = 1", subscriber="ignored")
        broker.engine.register(direct)
        event = Event({"a": 1})
        expected = Notification(event, direct.subscription_id, None, "edge")
        assert broker.publish(event) == [expected]
        assert broker.publish([event]) == [[expected]]


class TestUnorderedEventValues:
    """NaN orders against nothing, and a bool never meets a number under
    ``=``/``!=``: every engine must agree with the predicates' own
    evaluation (the brute-force engine), on the per-event and the batch
    path."""

    @pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
    def test_nan_fulfils_no_order_predicate(self, engine):
        broker = Broker("x", engine=engine)
        broker.subscribe("v >= 5")
        broker.subscribe("v < 5")
        broker.subscribe("v between [1, 9]")
        other = broker.subscribe("v != 5")
        nan = Event({"v": float("nan")})
        assert [n.subscription_id for n in broker.publish(nan)] == [other.id]
        batch = broker.publish([nan, Event({"v": 7}), nan])
        assert [[n.subscription_id for n in notes] for notes in batch] == [
            [other.id],
            [other.id - 3, other.id - 1, other.id],
            [other.id],
        ]

    @pytest.mark.parametrize("bool_first", [True, False])
    @pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
    def test_bool_and_number_operands_stay_apart(self, engine, bool_first):
        """``a = true`` and ``a = 1`` (and their ``!=`` forms) are
        different predicates whichever is subscribed first."""
        broker = Broker("x", engine=engine)
        texts = ["a = true", "a != true", "a = 1", "a != 1"]
        if not bool_first:
            texts = texts[2:] + texts[:2]
        ids = {
            text: broker.subscribe(text).subscription_id for text in texts
        }
        events = [Event({"a": True}), Event({"a": 1}), Event({"a": False})]
        expected = [
            sorted([ids["a = true"]]),
            sorted([ids["a = 1"]]),
            sorted([ids["a != true"]]),
        ]
        assert [
            [n.subscription_id for n in broker.publish(event)] for event in events
        ] == expected
        assert [
            [n.subscription_id for n in notes] for notes in broker.publish(events)
        ] == expected

    @pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
    def test_bool_never_equals_number(self, engine):
        broker = Broker("x", engine=engine)
        equal_one = broker.subscribe("a = 1")
        not_two = broker.subscribe("a != 2")
        events = [Event({"a": True}), Event({"a": 1}), Event({"a": 1.0})]
        expected = [
            [],
            [equal_one.id, not_two.id],
            [equal_one.id, not_two.id],
        ]
        assert [
            [n.subscription_id for n in broker.publish(event)] for event in events
        ] == expected
        assert [
            [n.subscription_id for n in notes] for notes in broker.publish(events)
        ] == expected
