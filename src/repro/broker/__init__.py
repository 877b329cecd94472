"""Broker substrate: single broker, clients, and the overlay network."""

from .broker import Broker, BrokerStats, DeliveryError, Notification
from .client import Publisher, Subscriber
from .handle import SubscriptionHandle
from .network import BrokerNetwork, NetworkStats, TopologyError
from .routing import RouteChange, RoutingTable, RoutingTableStats
from .sinks import (
    CallbackSink,
    CollectingSink,
    DeliverySink,
    QueueSink,
    as_sink,
)
from .persistence import (
    PersistenceError,
    dump_subscriptions,
    load_subscriptions,
    restore_broker,
    save_broker,
)

__all__ = [
    "Broker",
    "BrokerStats",
    "DeliveryError",
    "Notification",
    "Publisher",
    "Subscriber",
    "SubscriptionHandle",
    "CallbackSink",
    "CollectingSink",
    "DeliverySink",
    "QueueSink",
    "as_sink",
    "BrokerNetwork",
    "NetworkStats",
    "TopologyError",
    "RouteChange",
    "RoutingTable",
    "RoutingTableStats",
    "PersistenceError",
    "dump_subscriptions",
    "load_subscriptions",
    "restore_broker",
    "save_broker",
]
