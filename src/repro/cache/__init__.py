"""Content-addressed precompute cache.

See :mod:`repro.cache.precompute` for the facade, :mod:`.keys` for the
key scheme and :mod:`.store` for the digest-verified on-disk format.
The cache is an on-disk tier only: how tables reach a PLINGER rank
(handed over, inherited at fork, or built in place) is
:func:`repro.linger.build_tables`'s business, not this package's.
"""

from .._lazy import lazy_exports
from .keys import CACHE_VERSION, cache_key, canonical_blob
from .store import TableStore

#: the facade imports the table builders; the key scheme (which
#: ``CosmologyParams.digest`` and so every serve client needs) does not
__getattr__, __dir__ = lazy_exports(globals(),
                                    {"PrecomputeCache": "precompute"})

__all__ = [
    "CACHE_VERSION",
    "PrecomputeCache",
    "TableStore",
    "cache_key",
    "canonical_blob",
]
