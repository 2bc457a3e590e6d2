"""The one retry primitive every subsystem shares.

Before this module each layer kept its own ad-hoc loop: the PLINGER
worker hand-rolled ``min(base * 2**n, 1.0)`` READY backoff, the master
counted re-dispatches against ``max_retries`` inline, and the table
cache "healed" corrupt entries by silently rebuilding once.  A
:class:`RetryPolicy` names that behavior once — bounded attempts,
exponential backoff with a cap, an optional wallclock deadline — so
``.so`` compilation and work reassignment both degrade
under the *same* audited contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and a deadline.

    ``max_retries``
        Retries allowed *after* the first attempt; ``exhausted(n)`` is
        true once the n-th retry exceeds the bound.
    ``backoff_base`` / ``backoff_factor`` / ``backoff_cap``
        Sleep ``min(base * factor**(n-1), cap)`` seconds before the
        n-th retry.
    ``deadline_seconds``
        Total wallclock budget across all attempts of one
        :meth:`call`; ``None`` means unbounded.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0
    deadline_seconds: float | None = None

    def exhausted(self, retries: int) -> bool:
        """Has the n-th retry gone past the bound?"""
        return retries > self.max_retries

    def backoff(self, retries: int) -> float:
        """Seconds to sleep before the n-th (1-based) retry."""
        if retries < 1:
            return 0.0
        return min(self.backoff_base * self.backoff_factor ** (retries - 1),
                   self.backoff_cap)

    def call(
        self,
        fn: Callable[[], T],
        retry_on: type[BaseException] | tuple[type[BaseException], ...]
        = Exception,
        on_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Run ``fn`` until it succeeds or the policy gives up.

        ``on_retry(n, exc)`` fires before the n-th retry (never on the
        attempt that is allowed to fail terminally), so callers can
        record each degradation event exactly once.  The exception that
        exhausts the policy — or trips the deadline — propagates.
        """
        start = time.monotonic()
        retries = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                retries += 1
                if self.exhausted(retries):
                    raise
                pause = self.backoff(retries)
                if (self.deadline_seconds is not None
                        and time.monotonic() - start + pause
                        > self.deadline_seconds):
                    raise
                if on_retry is not None:
                    on_retry(retries, exc)
                sleep(pause)
