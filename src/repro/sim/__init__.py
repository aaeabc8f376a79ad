"""Discrete-event simulation kernel.

A small, deterministic kernel that drives the platform's CPU runners,
scheduler wake-ups and online replans.  The public surface is:

- :class:`~repro.sim.kernel.Simulator` -- one heap of
  ``(time, priority, seq, fn, arg)`` tuples and the loop that pops it.
- :class:`~repro.sim.kernel.Process` -- a generator that yields
  :class:`~repro.sim.kernel.Timeout` delays or
  :class:`~repro.sim.kernel.Event` occurrences to wait on.
- :class:`~repro.sim.rng.RngHub` -- deterministic named random streams.
"""

from repro.sim.kernel import Event, Process, Simulator, Timeout
from repro.sim.rng import RngHub

__all__ = ["Event", "Process", "RngHub", "Simulator", "Timeout"]
