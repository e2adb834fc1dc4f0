"""A generator process that can be killed, for the test oracles.

The engine's :class:`~repro.machine.simulator.Process` runs user rank
programs, which nothing kills; every actor that fault recovery kills is a
:class:`~repro.machine.simulator.CallbackProcess` with ``cancel()``.  The
oracles in ``reference_kernel.py`` and ``reference_detector.py`` keep their
generator bodies, so they run on this subclass, which answers to the same
two names, ``done`` and ``cancel()``, and schedules the same events.
"""

from __future__ import annotations

from repro.machine.simulator import Event, Process

__all__ = ["KillableProcess"]


class KillableProcess(Process):
    """A :class:`Process` that ``cancel()`` kills at the current instant."""

    __slots__ = ()

    @property
    def done(self) -> Process:
        return self

    def cancel(self) -> None:
        """Detach from the awaited event and schedule one kick; at the kick
        the generator is closed (its ``finally`` blocks run) and the
        process fires."""
        self._detach()
        Event(self.env).succeed().callbacks.append(self._kill)

    def _detach(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)

    def _kill(self, _kick: Event) -> None:
        if self.triggered:
            return  # finished in the meantime
        self._detach()  # it may have moved on to another event since cancel()
        self.generator.close()
        self.succeed()
