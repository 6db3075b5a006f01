"""The fastpath toggle: hot-path batching on or off.

The hot-path batching pass keeps **two** implementations of every
optimized hot path:

* the *scalar reference* -- the pre-batching pure-python code, one event
  and one packet at a time.  This is the oracle: golden pins and the
  differential oracle's ``fastpath_identity`` legs are defined against
  it.
* the *fastpath* -- zero-delay burst coalescing and the heap-only
  tight loop in the event kernel, and the link's express-transmit
  branch.

Both produce **byte-identical model outputs** (event counts, counters,
latencies); the toggle exists so that identity is *checkable*, not
because results differ.  The rules for when a batched evaluation is
order-safe are written up in ``docs/hotpath.md``.

The toggle is ambient: components capture it **at construction** (a
per-event global read would cost more than some of the optimizations
save), so flip it before building a machine::

    from repro import fastpath

    with fastpath.disabled():
        system = GS1280System(64)   # runs the scalar reference paths

Environment override: ``GS1280_FASTPATH=0`` (or ``off``/``false``/
``no``) starts the process with the fastpath disabled; anything else
(including unset) starts enabled.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "is_enabled",
    "set_enabled",
    "enabled",
    "disabled",
    "toggled",
]

_OFF_VALUES = ("0", "off", "false", "no")

_enabled: bool = (
    os.environ.get("GS1280_FASTPATH", "1").strip().lower() not in _OFF_VALUES
)


def is_enabled() -> bool:
    """Current ambient toggle state (read by components at
    construction)."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Set the ambient toggle; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def toggled(flag: bool):
    """Run a block with the toggle forced to ``flag``; machines built
    inside the block capture that state."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def enabled():
    """``toggled(True)`` -- build fastpath machines."""
    with toggled(True):
        yield


@contextmanager
def disabled():
    """``toggled(False)`` -- build scalar-reference machines."""
    with toggled(False):
        yield
