"""Delivery-failure isolation: one raising sink never starves the others.

The policy under test, for :meth:`Broker.publish` and
:meth:`BrokerNetwork.publish` on both the per-event and the batch path:
every other sink of the call is still served, each failure is counted
in the home broker's ``BrokerStats.delivery_errors``, and one
:class:`DeliveryError` listing the ``(subscription id, exception)``
pairs is raised after the call, chained from the first exception.
"""

from __future__ import annotations

import pytest

from repro import Broker, BrokerNetwork, CollectingSink, DeliveryError


class Boom(Exception):
    pass


def raising_sink(notification) -> None:
    raise Boom("boom")


#: (published payload, deliveries each sink is due): batch and per-event
PUBLISHES = pytest.mark.parametrize(
    ("payload", "expected"),
    [([{"x": 1}, {"x": 1}], 2), ({"x": 1}, 1)],
    ids=["batch", "event"],
)


@PUBLISHES
def test_broker_delivers_past_a_raising_sink(payload, expected):
    broker = Broker("solo")
    failing = broker.subscribe("x = 1", sink=raising_sink)
    collected = CollectingSink()
    broker.subscribe("x = 1", sink=collected)
    with pytest.raises(DeliveryError) as caught:
        broker.publish(payload)
    assert len(collected) == expected
    assert [sid for sid, _ in caught.value.failures] == [failing.id] * expected
    assert all(isinstance(error, Boom) for _, error in caught.value.failures)
    assert caught.value.__cause__ is caught.value.failures[0][1]
    assert broker.stats.delivery_errors == expected
    assert broker.stats.notifications_delivered == expected


@PUBLISHES
def test_network_delivers_past_a_raising_sink(payload, expected):
    network = BrokerNetwork()
    for name in ("edge", "hub", "leaf"):
        network.add_broker(name)
    network.connect("edge", "hub")
    network.connect("hub", "leaf")
    failing = network.subscribe("hub", "x = 1", sink=raising_sink)
    collected = CollectingSink()
    network.subscribe("leaf", "x = 1", sink=collected)
    with pytest.raises(DeliveryError) as caught:
        network.publish("edge", payload)
    assert len(collected) == expected
    assert [sid for sid, _ in caught.value.failures] == [failing.id] * expected
    assert caught.value.__cause__ is caught.value.failures[0][1]
    assert network.broker("hub").stats.delivery_errors == expected
    assert network.broker("leaf").stats.delivery_errors == 0
    assert network.stats.notifications_delivered == expected


def test_healthy_sinks_raise_nothing_and_count_no_errors():
    broker = Broker("solo")
    collected = CollectingSink()
    broker.subscribe("x = 1", sink=collected)
    assert len(broker.publish([{"x": 1}, {"x": 2}])) == 2
    assert len(collected) == 1
    assert broker.stats.delivery_errors == 0

