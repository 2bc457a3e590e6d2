"""Content addressing and the digest-verified on-disk store.

:mod:`.keys` is the key scheme behind ``CosmologyParams.digest``;
:mod:`.store` is :class:`TableStore`, the disk tier under the serve
daemon's :class:`~repro.serve.results.ResultStore`.  Tables are not
stored: how a run's background and thermal history reach a PLINGER
rank (handed over, inherited at fork, or built in place) is
:func:`repro.linger.build_tables`'s business.
"""

from .keys import CACHE_VERSION, cache_key, canonical_blob
from .store import TableStore

__all__ = [
    "CACHE_VERSION",
    "TableStore",
    "cache_key",
    "canonical_blob",
]
