"""The content memo behind :func:`repro.kv.crc.crc64`.

The memo is host-side only: every call must return exactly what the
CRC-64/XZ byte loop computes for those bytes, whether the input is new,
seen before, too long to store, or arrives after the memo cleared.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv import crc
from repro.kv.crc import MEMO_MAX_ENTRIES, MEMO_MAX_INPUT_BYTES, crc64
from repro.kv.store import key_hash

_POLY_REFLECTED = 0xC96C5795D7870F42
_MASK = 0xFFFFFFFFFFFFFFFF


def reference_crc64(data: bytes) -> int:
    """Bit-at-a-time CRC-64/XZ: no table, no memo."""
    value = _MASK
    for byte in data:
        value ^= byte
        for _ in range(8):
            value = (value >> 1) ^ _POLY_REFLECTED if value & 1 else value >> 1
    return value ^ _MASK


inputs = st.lists(st.binary(max_size=2 * MEMO_MAX_INPUT_BYTES), min_size=1, max_size=12)


class TestMemoizedEqualsReference:
    def test_reference_matches_known_vector(self):
        assert reference_crc64(b"123456789") == 0x995DC9BBDF1939FA

    @given(inputs)
    def test_seen_once_and_repeatedly(self, batch):
        for data in batch + batch[::-1] + batch:
            assert crc64(data) == reference_crc64(data)

    @given(
        st.binary(min_size=2, max_size=MEMO_MAX_INPUT_BYTES),
        st.binary(min_size=2, max_size=MEMO_MAX_INPUT_BYTES),
        st.integers(min_value=1),
    )
    def test_spliced_inputs_after_both_halves_are_memoized(self, old, new, cut):
        """A torn read splices two memoized inputs; it shares a prefix
        with one and a suffix with the other, and must still miss."""
        length = min(len(old), len(new))
        old, new = old[:length], new[:length]
        cut = 1 + cut % (length - 1)
        for data in (old, new, new[:cut] + old[cut:], old[:cut] + new[cut:]):
            assert crc64(data) == reference_crc64(data)

    @given(st.binary(min_size=MEMO_MAX_INPUT_BYTES + 1, max_size=4 * MEMO_MAX_INPUT_BYTES))
    def test_over_the_length_limit_is_computed_and_not_stored(self, data):
        assert crc64(data) == reference_crc64(data)
        assert crc64(data) == reference_crc64(data)
        assert data not in crc._MEMO

    @settings(max_examples=50)
    @given(inputs, st.integers(min_value=1, max_value=4))
    def test_after_the_cap_clears_it(self, batch, cap):
        with mock.patch.object(crc, "MEMO_MAX_ENTRIES", cap):
            crc._MEMO.clear()
            for data in batch + batch:
                assert crc64(data) == reference_crc64(data)
                assert len(crc._MEMO) <= cap
        crc._MEMO.clear()

    def test_non_bytes_inputs_are_computed(self):
        data = bytearray(b"jakiro")
        assert crc64(data) == reference_crc64(bytes(data))
        assert crc64(memoryview(b"pilaf")) == reference_crc64(b"pilaf")


class TestMemoBounds:
    def test_never_exceeds_its_cap(self):
        crc._MEMO.clear()
        for index in range(MEMO_MAX_ENTRIES + 100):
            crc64(index.to_bytes(4, "little"))
            assert len(crc._MEMO) <= MEMO_MAX_ENTRIES
        # The first input past the cap cleared the memo and was stored.
        assert len(crc._MEMO) == 100
        crc._MEMO.clear()

    def test_key_hash_is_the_memoized_crc64(self):
        for key in (b"", b"user000000000042", b"k" * (MEMO_MAX_INPUT_BYTES + 1)):
            assert key_hash(key) == crc64(key) == reference_crc64(key)
