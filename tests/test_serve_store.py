"""Run-result store tests: LRU byte cap, corruption quarantine,
concurrent writers, and the bitwise exact-hit guarantee."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import ResultStore, ServeRequest, spectrum_product


def _entry(value: float, n: int = 1024) -> dict:
    return {"cl": np.full(n, value, dtype=np.float64)}


ENTRY_BYTES = 1024 * 8


class TestMemoryLRU:
    def test_eviction_at_byte_cap(self):
        store = ResultStore(None, mem_cap_bytes=3 * ENTRY_BYTES)
        for i in range(4):
            store.put(f"d{i}", _entry(float(i)))
        # d0 (least recent) fell off the 3-entry cap
        assert store.entries == 3
        assert store.evictions == 1
        assert store.mem_bytes <= store.mem_cap_bytes
        assert store.get("d0") is None
        assert store.get("d3").arrays["cl"][0] == 3.0

    def test_get_refreshes_recency(self):
        store = ResultStore(None, mem_cap_bytes=2 * ENTRY_BYTES)
        store.put("a", _entry(1.0))
        store.put("b", _entry(2.0))
        store.get("a")                      # a is now most recent
        store.put("c", _entry(3.0))         # evicts b, not a
        assert store.get("a") is not None
        assert store.get("b") is None

    def test_oversized_entry_never_resides(self):
        store = ResultStore(None, mem_cap_bytes=ENTRY_BYTES)
        store.put("big", _entry(1.0, n=4096))
        assert store.entries == 0
        assert store.evictions == 1

    def test_replacement_does_not_double_count(self):
        store = ResultStore(None, mem_cap_bytes=4 * ENTRY_BYTES)
        for _ in range(5):
            store.put("same", _entry(1.0))
        assert store.entries == 1
        assert store.mem_bytes == ENTRY_BYTES

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ResultStore(None, mem_cap_bytes=0)


class TestDiskTier:
    def test_eviction_demotes_not_destroys(self, tmp_path):
        store = ResultStore(tmp_path, mem_cap_bytes=2 * ENTRY_BYTES)
        for i in range(4):
            store.put(f"d{i}", _entry(float(i)))
        assert store.get("d0") is not None   # promoted back from disk
        assert store.hits_disk == 1

    def test_survives_restart(self, tmp_path):
        ResultStore(tmp_path).put("key", _entry(7.0),
                                  meta={"note": "hello"})
        fresh = ResultStore(tmp_path)
        hit = fresh.get("key")
        assert hit is not None
        assert fresh.hits_disk == 1
        assert hit.meta["note"] == "hello"
        np.testing.assert_array_equal(hit.arrays["cl"],
                                      _entry(7.0)["cl"])

    def test_corrupt_entry_quarantined(self, tmp_path):
        writer = ResultStore(tmp_path)
        writer.put("key", _entry(1.0))
        path = writer.disk.path("key")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF         # bit rot mid-file
        path.write_bytes(bytes(blob))

        fresh = ResultStore(tmp_path)
        assert fresh.get("key") is None      # digest mismatch -> miss
        assert fresh.corrupt == 1
        assert not path.exists()             # entry deleted (quarantine)
        # the service recomputes and the rewrite heals the store
        fresh.put("key", _entry(1.0))
        assert ResultStore(tmp_path).get("key") is not None

    def test_concurrent_same_key_writers(self, tmp_path):
        """N writers racing one digest: atomic rename means the entry
        is always complete and digest-valid, never torn."""
        store = ResultStore(tmp_path, mem_cap_bytes=8 * ENTRY_BYTES)
        barrier = threading.Barrier(8)
        errors = []

        def write():
            try:
                barrier.wait()
                store.put("digest", _entry(42.0))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        hit = ResultStore(tmp_path).get("digest")
        assert hit is not None
        np.testing.assert_array_equal(hit.arrays["cl"],
                                      _entry(42.0)["cl"])

    def test_stats_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", _entry(1.0))
        s = store.stats()
        assert s["entries"] == 1
        assert s["persistent"] is True
        assert s["mem_bytes"] == ENTRY_BYTES


class TestExactHitBitwise:
    def test_round_trip_is_bitwise(self, scdm, linger_small):
        """An exact hit replays the stored product to the last bit —
        through the npz round trip, against the freshly computed C_l."""
        request = ServeRequest(params=scdm, k_min=3e-4, k_max=0.03,
                               nk=linger_small.kgrid.nk, lmax=24)
        l, cl = spectrum_product(scdm, linger_small.kgrid.k,
                                 linger_small.payloads)
        digest = request.digest()
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ResultStore(tmp).put(digest, {
                "l": l.astype(np.int64), "cl": cl,
                "k": np.asarray(linger_small.kgrid.k),
            })
            hit = ResultStore(tmp).get(digest)
        assert hit is not None
        # bitwise: not allclose — array_equal on the raw float64
        np.testing.assert_array_equal(hit.arrays["cl"], cl)
        np.testing.assert_array_equal(hit.arrays["l"], l)
        # and recomputing the product from the run gives the same bits
        _l2, cl2 = spectrum_product(scdm, linger_small.kgrid.k,
                                    linger_small.payloads)
        np.testing.assert_array_equal(cl2, cl)


class TestSolverRevision:
    def test_results_of_an_earlier_solver_are_never_served(
            self, scdm, tmp_path, monkeypatch):
        """The request digest carries the revision of the solver behind
        the spectrum (the precompute cache's thermal key always did): a
        store filled under revision 4 — steps found DVERK's stability
        boundary by rejection, C_l 4e-7 away — is a miss under 5, and a
        hit again under 4."""
        from repro.revision import SOLVER_REVISION
        from repro.serve import protocol

        request = ServeRequest(params=scdm)
        assert request.shape()["solver"] == SOLVER_REVISION == 5
        assert "solver" not in request.to_doc()  # each side states its own
        monkeypatch.setattr(protocol, "SOLVER_REVISION", 4)
        older = request.digest()
        ResultStore(tmp_path).put(older, _entry(3.0))
        assert ResultStore(tmp_path).get(request.digest()) is not None
        monkeypatch.undo()
        assert request.digest() != older
        assert ResultStore(tmp_path).get(request.digest()) is None
        monkeypatch.setattr(protocol, "SOLVER_REVISION", 4)
        assert ResultStore(tmp_path).get(request.digest()) is not None
