"""The checking handle: install a session, and every machine built
while it is active gets its invariants verified.

This mirrors :mod:`repro.telemetry.session` deliberately -- the two
subsystems share the no-op handle pattern:

* :data:`NULL_CHECKER` -- the shared disabled handle.  ``enabled`` is
  False and ``attach`` does nothing, so systems built without a session
  leave every component's ``_check`` slot ``None`` and the hot paths
  pay one ``is None`` test (perfbench's ``fabric-64p`` runs this path).
* :class:`CheckSession` -- a live session.  Systems constructed while
  one is installed get one :class:`~repro.check.invariants.SystemChecker`
  each, wired into their simulator, fabric, links, routers, Zboxes and
  directories.  Any violated invariant raises
  :class:`~repro.check.invariants.InvariantViolation` at the offending
  event, with the machine state attached.

Sessions install globally (:func:`install` / :func:`checking`) for the
same reason telemetry does: experiments are pure functions of
``(id, fast, seed)`` and checking them must not require rewriting them.

Usage::

    from repro import check

    with check.checking() as sess:
        system = GS1280System(16)
        ...  # any invariant violation raises immediately
    print(sess.report())
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

from repro.check.invariants import CheckConfig, SystemChecker

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.base import SystemBase

__all__ = [
    "Checking",
    "CheckSession",
    "NULL_CHECKER",
    "current_checker",
    "install",
    "checking",
]


class Checking:
    """The disabled (no-op) handle; also the interface base class."""

    enabled: bool = False

    def attach(self, system: "SystemBase") -> None:
        """Called by every system at the end of construction."""

    def __bool__(self) -> bool:
        return self.enabled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} enabled={self.enabled}>"


#: The shared no-op handle (one instance for the whole process).
NULL_CHECKER = Checking()


class CheckSession(Checking):
    """A live checking session: every machine built under it is armed."""

    enabled = True

    def __init__(self, config: CheckConfig | None = None) -> None:
        self.config = config or CheckConfig()
        #: (label, checker) per machine built under this session.
        self.attached: list[tuple[str, SystemChecker]] = []

    # ------------------------------------------------------------------
    def attach(self, system: "SystemBase") -> None:
        checker = SystemChecker(system, self.config)
        system.checker = checker
        system.sim._check = checker
        fabric = system.fabric
        if fabric is not None:
            fabric._check = checker
            for link in fabric.links():
                link._check = checker
            for router in getattr(fabric, "routers", ()) or ():
                router._check = checker
        for zbox in system.zboxes:
            zbox._check = checker
        for agent in system.agents:
            agent._check = checker
            agent.directory._check = checker
        label = f"{type(system).__name__}/{system.n_cpus}P#{len(self.attached)}"
        self.attached.append((label, checker))

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per-system check/violation totals for everything attached."""
        systems = [
            {"label": label, **checker.summary()}
            for label, checker in self.attached
        ]
        return {
            "systems": systems,
            "total_checks": sum(s["checks"] for s in systems),
            "total_violations": sum(s["violations"] for s in systems),
        }


# -- global installation ---------------------------------------------------
_current: Checking = NULL_CHECKER


def current_checker() -> Checking:
    """The handle newly constructed systems pick up."""
    return _current


def install(checker: Checking) -> Checking:
    """Install ``checker`` as the process default; returns the previous
    handle so callers can restore it."""
    global _current
    previous = _current
    _current = checker
    return previous


@contextlib.contextmanager
def checking(config: CheckConfig | None = None):
    """``with check.checking() as sess:`` -- install a fresh
    :class:`CheckSession` for the duration of the block."""
    sess = CheckSession(config)
    previous = install(sess)
    try:
        yield sess
    finally:
        install(previous)
