"""Content-addressed precompute cache.

See :mod:`repro.cache.precompute` for the facade, :mod:`.keys` for the
key scheme and :mod:`.store` for the digest-verified on-disk format.
The cache is an on-disk tier only: how tables reach a PLINGER rank
(handed over, inherited at fork, or built in place) is
:func:`repro.linger.build_tables`'s business, not this package's.
"""

from .keys import CACHE_VERSION, cache_key, canonical_blob
from .precompute import PrecomputeCache
from .store import TableStore

__all__ = [
    "CACHE_VERSION",
    "PrecomputeCache",
    "TableStore",
    "cache_key",
    "canonical_blob",
]
