"""Kafka broker model.

The paper deploys one broker per cluster node.  A broker matters only
to chaos broker outages, which take it offline while the receiver stalls.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KafkaBroker:
    """One broker; ``broker_id`` mirrors its node id (one per node)."""

    broker_id: int
    online: bool = True

    def set_offline(self) -> None:
        """Flag the broker down for a chaos outage (the receiver's
        stall is what stops fetches) until :meth:`set_online`."""
        self.online = False

    def set_online(self) -> None:
        self.online = True
