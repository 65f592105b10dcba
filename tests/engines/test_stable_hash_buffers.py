"""Pinned content digests for typed buffers (arrays, batches).

Typed buffers have a content identity but no partition placement:
``stable_hash`` refuses them, and ``content_digest`` — what the result
cache's snapshot fingerprints and the worker memo key on — names them.
Each test pins the exact SHA-256, so these values must never drift
across processes, platforms, or releases.  A failure here means every
on-disk result cache just silently went cold (or worse, stale): change
the encoding only together with ``fingerprint.SNAPSHOT_FORMAT``.
"""

from __future__ import annotations

from array import array

import pytest

from repro.engines.cluster import content_digest, stable_hash
from repro.engines.columnar import HAS_NUMPY, batch_from_records
from repro.errors import EngineError


class TestArrayHashing:
    def test_int_array_pinned(self):
        assert content_digest(array("q", [1, 2, 3])) == (
            "fa50efc508f49e804b3b509237048d04d92e200e2d3f40a3e2ac7b961ee3b92e"
        )

    def test_float_array_pinned(self):
        assert content_digest(array("d", [0.5, -1.25])) == (
            "bb708a39ab4abbc5929a905c425b422ca4b8670ebe774787ee95dcc80fffe20a"
        )

    def test_typecode_distinguishes(self):
        # Same bytes widths differ by typecode; same logical values
        # in different typecodes must not collide by construction.
        assert content_digest(array("q", [1])) != content_digest(
            array("Q", [1])
        )

    def test_content_sensitivity(self):
        assert content_digest(array("q", [1, 2, 3])) != content_digest(
            array("q", [1, 2, 4])
        )

    def test_process_independence(self):
        # Recomputing from a fresh copy gives the same value — the
        # digest sees content, not object identity.
        a = array("d", [0.5, -1.25])
        b = array("d", a.tolist())
        assert content_digest(a) == content_digest(b)


class TestColumnBatchHashing:
    def test_batch_pinned(self):
        batch, why = batch_from_records([(1, "a", 0.5), (2, "b", 1.5)])
        assert batch is not None, why
        assert content_digest(batch) == (
            "e7f7a23bcb3d04a29a0836d4d99e7b57adf350f20ebb7f0cc23ab3318cf4ad11"
        )

    def test_representation_independent(self):
        # The digest is over logical column values, so it must agree
        # between numpy-backed and pure-Python column storage; the
        # pinned value above is the same with and without numpy.
        batch, why = batch_from_records([(1, "a", 0.5), (2, "b", 1.5)])
        assert batch is not None, why
        again, _ = batch_from_records([(1, "a", 0.5), (2, "b", 1.5)])
        assert content_digest(batch) == content_digest(again)

    def test_content_sensitivity(self):
        a, _ = batch_from_records([(1, "a"), (2, "b")])
        b, _ = batch_from_records([(1, "a"), (2, "c")])
        assert a is not None and b is not None
        assert content_digest(a) != content_digest(b)


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
class TestNumpyHashing:
    def test_ndarray_pinned(self):
        import numpy as np

        value = np.array([1, 2, 3], dtype=np.int64)
        assert content_digest(value) == (
            "1b89a7e09529471b61a8afd6e2bdae7a295c67f73b114d3c052fdbfa735d9c63"
        )

    def test_dtype_distinguishes(self):
        import numpy as np

        i = np.array([1, 2, 3], dtype=np.int64)
        f = np.array([1, 2, 3], dtype=np.float64)
        assert content_digest(i) != content_digest(f)

    def test_noncontiguous_equals_contiguous(self):
        import numpy as np

        base = np.arange(20, dtype=np.int64)
        view = base[::2]
        assert not view.flags["C_CONTIGUOUS"]
        assert content_digest(view) == content_digest(
            np.ascontiguousarray(view)
        )

    def test_object_dtype_rejected(self):
        import numpy as np

        tagged = np.array([object()], dtype=object)
        with pytest.raises(EngineError):
            content_digest(tagged)


def test_unknown_types_still_rejected():
    # The closed-set contract survives the buffer extensions: foreign
    # objects raise rather than digest by identity, and buffers are
    # not partition keys.
    with pytest.raises(EngineError):
        content_digest(object())
    with pytest.raises(EngineError):
        stable_hash(array("q", [1]))
