"""Content addressing and the on-disk store.

:mod:`repro.cache` keeps the key scheme behind
``CosmologyParams.digest`` and :class:`~repro.cache.store.TableStore`,
the digest-verified disk tier under the serve result store: keys must be
bit-exact, and a corrupt entry must be detected and deleted.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import mixed_dark_matter, standard_cdm
from repro.cache import CACHE_VERSION, TableStore, cache_key, canonical_blob
from repro.errors import CorruptCacheEntry
from repro.serve import ServeRequest
from tests import reference_keys


# -- content-addressed keys --------------------------------------------------


class TestCacheKeys:
    def test_deterministic(self, scdm):
        shape = {"a_min": 1e-10, "n_grid": 4000}
        assert cache_key("background", scdm, shape) == \
            cache_key("background", scdm, shape)

    def test_is_hex_sha256(self, scdm):
        key = cache_key("background", scdm)
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_param_sensitivity(self, scdm):
        from dataclasses import replace

        other = replace(scdm, h=scdm.h * (1 + 1e-15))
        assert cache_key("background", scdm) != cache_key("background", other)

    def test_shape_and_kind_sensitivity(self, scdm):
        base = cache_key("background", scdm, {"n_grid": 4000})
        assert base != cache_key("background", scdm, {"n_grid": 4001})
        assert base != cache_key("thermal", scdm, {"n_grid": 4000})

    def test_version_in_blob(self, scdm):
        from repro.cache import canonical_blob

        blob = json.loads(canonical_blob("background", scdm, None))
        assert blob["version"] == CACHE_VERSION
        assert blob["kind"] == "background"
        assert blob["params"]["__type__"] == "CosmologyParams"


# -- the one writer of every digest ------------------------------------------


@dataclass(frozen=True)
class Node:
    """A dataclass whose fields sort on both sides of ``__type__``."""

    zeta: Any
    Alpha: Any
    _mid: Any


@dataclass
class Leaf:
    value: Any


def _outcome(kind, params, shape):
    """The blob, or the type of the error the inputs raise."""
    try:
        return canonical_blob(kind, params, shape)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _reference_outcome(kind, params, shape):
    try:
        return reference_keys.canonical_blob(kind, params, shape)
    except (TypeError, ValueError) as exc:
        return type(exc)


_texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | \
    st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9t\u00e9", "\u2603",
                     "\U0001f30c", "\x00\x1f", "__type__"])
_numpy_scalars = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(), _texts, _numpy_scalars, _arrays)
_keys = st.one_of(_texts, st.integers(-3, 3), st.floats(-3, 3))
_values = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_keys, inner, max_size=4),
    st.builds(Node, inner, inner, inner),
    st.builds(Leaf, inner),
), max_leaves=12)


class TestCanonicalBlob:
    @pytest.mark.property
    @given(kind=_texts, params=_values,
           shape=st.none() | st.dictionaries(_keys, _values, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_tree_walk_byte_for_byte(self, kind, params, shape):
        """The direct writer gives the bytes of the generic tree walk
        plus ``json.dumps(sort_keys=True)`` for every input, and
        refuses what it refuses with the same error type."""
        assert _outcome(kind, params, shape) == \
            _reference_outcome(kind, params, shape)

    def test_the_digests_are_frozen(self):
        """Digests taken before the direct writer replaced the tree
        walk.  A change here is a change of every store address and of
        the bench references' stamps (``SOLVER_REVISION`` and
        ``PROTOCOL_VERSION`` bumps move the first one on purpose)."""
        request = ServeRequest(params=standard_cdm(), k_min=3e-4,
                               k_max=3e-3, nk=4, lmax=8, rtol=1e-3)
        assert request.digest() == ("c3250b51e8ddf595d29ea7ccdc560273"
                                    "337fd4fca862af4e50b9d2016ef42572")
        assert mixed_dark_matter().digest("serve_tables") == (
            "39713be74b3337086792e876bcabe9ff"
            "8a7df65e1cec1c79c872af2a92a7a7ce")
        # the shape of a bench problem: arrays, ints, floats, a bool
        shape = {"l_max": 48, "sparse_factor": 4,
                 "l": np.array([2, 3, 5, 8, 13], dtype=np.int64),
                 "k": np.linspace(1e-4, 2e-2, 7), "lmax_photon": 10,
                 "lmax_nu": 10, "nq": 0, "rtol": 2e-4, "sources": True}
        assert standard_cdm().digest("bench.fig2", shape) == (
            "661aac2dd0dda20e43b9741094d5d079"
            "6754db4a8988a678416daafc6440d686")

    def test_what_cannot_be_keyed_is_refused(self):
        for value in (object(), {1, 2}, b"bytes", 1j, np.bool_(True),
                      np.array(1.0), Node):
            with pytest.raises(TypeError):
                canonical_blob("k", value, None)


# -- the on-disk store -------------------------------------------------------


class TestTableStore:
    ARRAYS = {
        "grid": np.linspace(0.0, 1.0, 17),
        "matrix": np.arange(12, dtype=float).reshape(3, 4),
        "scalar": np.float64(3.25),
        "ints": np.array([3, 1, 4], dtype=np.int64),
    }

    def test_roundtrip(self, tmp_path):
        store = TableStore(tmp_path)
        key = "ab" + "0" * 62
        nbytes = store.save(key, self.ARRAYS, meta={"kind": "test"})
        assert nbytes > 0 and key in store
        arrays, meta, read = store.load(key)
        assert meta["kind"] == "test" and read == nbytes
        for name, arr in self.ARRAYS.items():
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].shape == np.asarray(arr).shape
        assert float(arrays["scalar"]) == 3.25  # 0-d survives the trip

    def test_dtypes_shapes_and_meta_round_trip(self, tmp_path):
        """0-d, int64 and 2-D float64 (a transposed view included) come
        back with their dtype, shape and bytes, and the meta with its
        values; the arrays are writable."""
        store = TableStore(tmp_path)
        key = "ac" + "0" * 62
        arrays = {"zero_d": np.array(2.5), "ints": np.arange(-3, 4),
                  "matrix": np.arange(12.0).reshape(3, 4) / 7.0,
                  "view": np.arange(12.0).reshape(3, 4).T}
        meta = {"kind": "serve_result", "t_cmb": 2.7255, "protocol": 1,
                "nested": {"a": [1, 2.5, None]}}
        store.save(key, arrays, meta=meta)
        back, back_meta, _ = store.load(key)
        assert back_meta == meta and sorted(back) == sorted(arrays)
        for name, arr in arrays.items():
            assert (back[name].dtype, back[name].shape) == \
                (arr.dtype, arr.shape)
            assert back[name].tobytes() == arr.tobytes()
            assert back[name].flags.writeable

    def test_object_arrays_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            TableStore(tmp_path).save("ad" + "0" * 62,
                                      {"v": np.array([None, 1])})

    def test_missing_is_none(self, tmp_path):
        assert TableStore(tmp_path).load("ff" + "0" * 62) is None

    def test_reserved_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TableStore(tmp_path).save("aa" + "0" * 62,
                                      {"__digest__": np.zeros(3)})

    def test_truncation_detected_and_healed(self, tmp_path):
        store = TableStore(tmp_path)
        key = "cd" + "0" * 62
        store.save(key, self.ARRAYS)
        path = store.path(key)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CorruptCacheEntry):
            store.load(key)
        assert key not in store  # deleted: next save rebuilds cleanly

    def test_bitflip_detected_by_digest(self, tmp_path):
        store = TableStore(tmp_path)
        key = "ef" + "0" * 62
        store.save(key, {"v": np.ones(64)})
        path = store.path(key)
        raw = bytearray(path.read_bytes())
        # flip one bit mid-file: inside the array bytes, which the
        # digest at the front of the file covers
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCacheEntry):
            store.load(key)
        assert key not in store

    def test_concurrent_writers_atomic(self, tmp_path):
        """Racing writers of one key never produce a torn entry."""
        store = TableStore(tmp_path)
        key = "12" + "0" * 62
        errors = []

        def write(seed):
            try:
                arrays = {"v": np.full(4096, float(seed))}
                for _ in range(10):
                    store.save(key, arrays)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        arrays, _, _ = store.load(key)  # digest passes: a complete file won
        assert float(arrays["v"][0]) in {float(s) for s in range(6)}
        assert np.all(arrays["v"] == arrays["v"][0])

    def test_keys_listing(self, tmp_path):
        store = TableStore(tmp_path)
        ks = ["aa" + "0" * 62, "bb" + "1" * 62]
        for k in ks:
            store.save(k, {"v": np.zeros(2)})
        assert store.keys() == sorted(ks)

    def test_keys_and_loads_skip_other_formats(self, tmp_path):
        """A stray ``<key>.npz`` (the zip format of earlier releases) is
        neither listed nor read; only the raw entry is."""
        store = TableStore(tmp_path)
        old, new = "cc" + "2" * 62, "dd" + "3" * 62
        (tmp_path / old[:2]).mkdir()
        np.savez(tmp_path / old[:2] / f"{old}.npz", v=np.zeros(2))
        store.save(new, {"v": np.zeros(2)})
        assert store.keys() == [new]
        assert store.load(old) is None and old not in store


# -- tables are built or handed over, never loaded from disk -----------------


def _entry_points():
    from repro.linger import build_tables, run_linger
    from repro.plinger import run_plinger
    from repro.serve import SpectrumServer, WarmPool
    from repro.serve.daemon import run_server
    from repro.spectra import run_sparse_cl

    return {"build_tables": (build_tables, "cache"),
            "run_linger": (run_linger, "cache"),
            "run_sparse_cl": (run_sparse_cl, "cache"),
            "run_plinger": (run_plinger, "cache"),
            "WarmPool": (WarmPool, "cache"),
            "SpectrumServer": (SpectrumServer, "cache_dir"),
            "run_server": (run_server, "cache_dir")}


@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_no_entry_point_takes_a_table_cache(name):
    fn, keyword = _entry_points()[name]
    with pytest.raises(TypeError, match=keyword):
        fn(**{keyword: None})
