"""A FIFO store of items for engine tests.

:class:`Store` queues ``put`` and ``get`` requests as events.  No model
uses it; the tests that do exercise same-time event order through it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any

from repro.sim.engine import Engine, Event


class Store:
    """A FIFO buffer of items with optional capacity bound.

    ``put`` returns an event that triggers when the item is accepted;
    ``get`` returns an event that triggers with the next item.
    """

    def __init__(self, engine: Engine, capacity: float = math.inf, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = self.engine.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = self.engine.event()
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            if self._putters:
                put_ev, put_item = self._putters.popleft()
                self._items.append(put_item)
                put_ev.succeed(put_item)
        else:
            self._getters.append(ev)
        return ev
