"""Core of the discrete-event simulation kernel.

A :class:`Simulator` owns one heap of ``(time, priority, seq, fn, arg)``
tuples; :meth:`Simulator.step` pops the smallest and calls ``fn(arg)``.
The ``seq`` tie-break makes the kernel deterministic: two entries for
the same time and priority run in the order they were queued.

Four kinds of entry exist, each counted once by
:attr:`Simulator.events_processed`:

- a process start, queued URGENT when the :class:`Process` is created;
- a :class:`Timeout` yielded by a process, queued NORMAL at
  ``now + delay`` *when it is yielded*, resuming the process directly;
- a triggered :class:`Event` (:meth:`Event.succeed`, :meth:`Event.fail`
  or a process terminating), which resumes its waiters in the order
  they started waiting;
- a :class:`Replan`, an absolute-time action queued URGENT.

A process is a generator that yields timeouts or events; it is resumed
with the timeout's or event's value, or has the event's exception
thrown into it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Process",
    "Replan",
    "Simulator",
    "Timeout",
    "URGENT",
    "NORMAL",
]

#: Priority of process starts and replans: they run before ordinary
#: entries queued for the same time.
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: Sentinel for the value of a not-yet-triggered event.
PENDING = object()


class Timeout:
    """A request to resume the yielding process ``delay`` units later.

    It is not an event: nothing is queued until a process yields it,
    and nobody else can wait on it.
    """

    __slots__ = ("sim", "delay", "value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not 0 <= delay < math.inf:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        self.sim = sim
        self.delay = delay
        self.value = value


class Event:
    """A one-shot occurrence that processes can wait on.

    ``pending`` until :meth:`succeed` or :meth:`fail` queues it
    (``triggered``); ``processed`` once the kernel popped it and resumed
    its waiters.  A failure nobody waits on is re-raised from the run.
    """

    __slots__ = ("sim", "_value", "_ok", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = PENDING
        self._ok = True
        #: Processes waiting on the event; None once it is processed.
        self._waiters: Optional[list] = []

    @property
    def triggered(self) -> bool:
        """True once the event carries a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's waiters have been resumed."""
        return self._waiters is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(True, value, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception thrown into every waiter."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception, priority)
        return self

    def _trigger(self, ok: bool, value: Any, priority: int) -> None:
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = ok
        self._value = value
        self.sim._push(self.sim._now, priority, self._fire, None)

    def _fire(self, _arg: Any) -> None:
        waiters = self._waiters
        self._waiters = None
        if waiters:
            for process in waiters:
                process._resume(self._value, self._ok)
        elif not self._ok:
            raise self._value

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Replan(Event):
    """An absolute-time control event that runs an action when processed.

    The online scenario engine schedules one per task arrival/departure.
    It is queued at *creation*, so the run stays alive until it fires,
    and it fires with URGENT priority: at its exact instant the action
    runs *before* any runner timeout scheduled for the same time.  Ops
    issued at or after the replan time therefore see the new platform
    state, while ops issued earlier have already applied their memory
    effects (the CPU runner executes an op's accesses at its start
    time).
    """

    __slots__ = ("action",)

    def __init__(self, sim: "Simulator", at: float, action: Callable[[], None]):
        if not sim.now <= at < math.inf:
            raise SimulationError(
                f"replan at {at!r} must be finite and not in the past "
                f"(now={sim.now})"
            )
        super().__init__(sim)
        self._value = None
        self.action = action
        sim._push(at, URGENT, self._fire, None)

    def _fire(self, _arg: Any) -> None:
        self.action()
        super()._fire(_arg)


class Process(Event):
    """A generator-driven simulation process.

    The process is itself an event: it triggers when the generator
    returns (successfully, with the generator's return value) or raises
    (as a failure), so processes can wait on each other.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        sim._push(sim._now, URGENT, self._resume, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    def _resume(self, value: Any, ok: bool = True) -> None:
        """Send ``value`` (or throw it, if not ``ok``) and queue what the
        generator yields next."""
        sim = self.sim
        while True:
            try:
                if ok:
                    target = self.generator.send(value)
                else:
                    target = self.generator.throw(value)
            except StopIteration as stop:
                self._trigger(True, stop.value, NORMAL)
                return
            except BaseException as exc:
                self._trigger(False, exc, NORMAL)
                return

            if type(target) is Timeout and target.sim is sim:
                sim._push(sim._now + target.delay, NORMAL, self._resume,
                          target.value)
                return
            if not isinstance(target, (Event, Timeout)):
                value, ok = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                ), False
                continue
            if target.sim is not sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
            if target._waiters is None:
                # Already processed: resume synchronously with its value.
                value, ok = target._value, target._ok
                continue
            target._waiters.append(self)
            return

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {status}>"


class Simulator:
    """The discrete-event scheduler.

    Typical usage::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(10)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 10 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._seq = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Heap entries popped since construction.

        The kernel-side cost metric of a run (one timeout per op on
        every engine); the schedule benchmark reports it alongside wall
        time.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of entries waiting in the heap."""
        return len(self._queue)

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A delay of ``delay`` units for the process that yields it."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Any, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def schedule_replan(self, at: float, action: Callable[[], None]) -> Replan:
        """Schedule ``action()`` at absolute time ``at`` (urgent).

        Keeps the run alive until it fires even if all processes idle.
        """
        return Replan(self, at, action)

    def _push(self, time: float, priority: int, fn: Callable[[Any], None],
              arg: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq, fn, arg))

    def step(self) -> None:
        """Pop and run exactly one heap entry."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _priority, _seq, fn, arg = heapq.heappop(self._queue)
        self._events_processed += 1
        fn(arg)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the heap drains;
        - a number: run all entries up to that time, then set ``now`` to it;
        - an :class:`Event`: run until that event has been processed and
          return its value (re-raising if the event failed).
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            while until._waiters is not None:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before `until` triggered"
                    )
                self.step()
            if not until._ok:
                raise until._value
            return until._value
        horizon = float(until)
        if not self._now <= horizon < math.inf:
            raise SimulationError(
                f"run(until={horizon}) must be finite and not in the past "
                f"(now={self._now})"
            )
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:
        return f"<Simulator now={self._now} queued={len(self._queue)}>"
