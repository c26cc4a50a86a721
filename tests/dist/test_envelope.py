"""The shared envelope format: encode/decode, the not-smaller fallback
and the miss outcomes — the seam every storage backend moves bytes
through."""

import pickle
import zlib

import pytest

from repro.dist import envelope
from repro.dist.envelope import (ARTIFACT_FORMATS, decode_entry,
                                 encode_entry, plausible_envelope,
                                 read_header)

KEY = ("sg", "a" * 64)
#: a payload that deflates extremely well (like real state graphs)
VALUE = {"states": ["0101" * 64] * 200, "arcs": list(range(64)) * 32}
#: a payload zlib cannot shrink: it is already deflated
NOISE = zlib.compress(bytes((i * 97 + 13) % 251 for i in range(4096)))
VERSION = ARTIFACT_FORMATS["sg"]


def stamped(header_fields, body):
    """Envelope bytes with a hand-made header (for miss cases)."""
    header = {"format": VERSION, "key": repr(KEY), **header_fields}
    return pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + body


def codec_of(data):
    return read_header(data)[0]["codec"]


class TestCodecRegistry:
    def test_identity_and_zlib_always_available(self):
        assert set(envelope._CODECS) == {"identity", "zlib"}


class TestRoundTrip:
    @pytest.mark.parametrize("codec, value", [
        pytest.param("identity", NOISE, id="identity"),
        pytest.param("zlib", VALUE, id="zlib")])
    def test_round_trip(self, codec, value):
        data = encode_entry(KEY, value, VERSION)
        assert codec_of(data) == codec
        status, payload = decode_entry(data, KEY, VERSION)
        assert status == "hit"
        assert payload == value

    def test_zlib_actually_compresses(self):
        compressed = encode_entry(KEY, VALUE, VERSION)
        raw = pickle.dumps(VALUE, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(compressed) < len(raw) / 2
        assert codec_of(compressed) == "zlib"
        assert read_header(compressed)[0]["raw_size"] == len(raw)

    def test_incompressible_payload_falls_back_to_identity(self):
        """The stamp records what happened, not what was asked for;
        an identity body is the raw payload pickle."""
        data = encode_entry(KEY, NOISE, VERSION)
        assert codec_of(data) == "identity"
        offset = read_header(data)[1]
        assert pickle.loads(data[offset:]) == NOISE
        assert decode_entry(data, KEY, VERSION)[0] == "hit"

    def test_wrong_format_is_stale(self):
        data = encode_entry(KEY, VALUE, VERSION)
        assert decode_entry(data, KEY, VERSION + 1)[0] == "stale"

    def test_wrong_key_is_stale(self):
        data = encode_entry(KEY, VALUE, VERSION)
        assert decode_entry(data, ("sg", "b" * 64),
                            VERSION)[0] == "stale"

    def test_garbage_is_error(self):
        assert decode_entry(b"not an envelope", KEY,
                            VERSION)[0] == "error"

    def test_corrupt_body_is_error(self):
        data = encode_entry(KEY, VALUE, VERSION)
        header_len = read_header(data)[1]
        torn = data[:header_len] + b"\x00garbage"
        assert decode_entry(torn, KEY, VERSION)[0] == "error"

    @pytest.mark.parametrize("codec", ["zstd", "quantum-lz", None, 7,
                                       ["zlib"]])
    def test_unknown_codec_stamp_is_a_miss(self, codec):
        """Any stamp other than identity/zlib — including none at all,
        or a non-string — is a non-raising miss, never unpickled."""
        fields = {} if codec is None else {"codec": codec}
        data = stamped(dict(fields, raw_size=3), b"???")
        assert decode_entry(data, KEY, VERSION) == ("stale", None)


class TestHeaderSafety:
    def test_header_reader_refuses_objects(self):
        """A header that smuggles a global reference parses as no
        header at all — the restricted unpickler cannot construct it."""
        hostile = pickle.dumps(pickle.UnpicklingError("x"))
        assert read_header(hostile) is None
        assert not plausible_envelope(hostile)

    def test_plausible_envelope_accepts_real_entries(self):
        assert plausible_envelope(encode_entry(KEY, VALUE, VERSION))
        assert plausible_envelope(encode_entry(KEY, NOISE, VERSION))
