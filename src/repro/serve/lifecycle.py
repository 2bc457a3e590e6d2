"""Service lifecycle: deterministic teardown on exit and SIGTERM.

The daemon owns an append-only request journal
(:class:`~repro.serve.daemon.ServeJournal`), and a journal loses its
tail unless flushed.  Nothing else the service holds outlives the
process — the warm pool's tables are ordinary heap objects — so the
journal is what this module guards: it keeps a weak registry of every
closeable serving object and drains it

* at interpreter exit (``atexit``), and
* on ``SIGTERM`` (the signal a supervisor sends a daemon), chaining to
  any previously installed handler and then re-raising the default
  action so the exit status stays honest.

Registration is idempotent and closing is re-entrant: objects are
popped before their ``close()`` runs, so a close that itself triggers
``shutdown_all`` (e.g. via atexit during signal death) cannot recurse.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref

__all__ = ["register", "unregister", "shutdown_all", "install_handlers"]

_lock = threading.Lock()
_registry: "weakref.WeakSet" = weakref.WeakSet()
_installed = False
_previous_sigterm = None


def register(obj) -> None:
    """Track ``obj`` (anything with a ``close()``) for shutdown."""
    with _lock:
        _registry.add(obj)
    install_handlers()


def unregister(obj) -> None:
    """Stop tracking ``obj`` (it closed itself)."""
    with _lock:
        _registry.discard(obj)


def shutdown_all() -> None:
    """Close every registered object, newest first, swallowing errors —
    one failed teardown must not leak the rest."""
    with _lock:
        objs = list(_registry)
        for obj in objs:
            _registry.discard(obj)
    for obj in reversed(objs):
        try:
            obj.close()
        except Exception:
            pass


def _handle_sigterm(signum, frame) -> None:
    shutdown_all()
    prev = _previous_sigterm
    if callable(prev):
        prev(signum, frame)
        return
    # restore the default disposition and re-deliver, so the process
    # reports death-by-SIGTERM to its supervisor
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def install_handlers() -> None:
    """Install the atexit hook and (main thread only) SIGTERM handler."""
    global _installed, _previous_sigterm
    with _lock:
        if _installed:
            return
        _installed = True
    atexit.register(shutdown_all)
    try:
        prev = signal.signal(signal.SIGTERM, _handle_sigterm)
        if prev not in (signal.SIG_DFL, signal.SIG_IGN, None,
                        _handle_sigterm):
            _previous_sigterm = prev
    except ValueError:
        # not the main thread: atexit still covers orderly exits
        pass
