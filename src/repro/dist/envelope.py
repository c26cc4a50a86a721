"""The shared artifact envelope: one wire/disk format for every backend.

Every artifact backend — the local :class:`~repro.pipeline.store.
DiskArtifactCache`, the HTTP :class:`~repro.dist.remote.
RemoteArtifactCache`, the S3-compatible :class:`~repro.dist.
objectstore.ObjectStoreArtifactCache`, and the ``si-mapper serve``
daemon — moves entries in the *envelope* encoded here, so bytes
written by any backend are readable by every other one.  This module
owns the format; backends own transport and storage.

Wire format (``docs/envelope.md`` is the normative spec):

* a small pickled **header** dict — ``{"format": int, "key": str,
  "codec": str, "raw_size": int}`` — readable with a restricted
  unpickler that cannot construct objects, so servers and maintenance
  can stamp-check entries without materializing state graphs;
* the pickled **payload**, passed through the named *codec*
  (``zlib`` = ``zlib.compress`` of the pickle bytes, ``identity`` =
  the raw pickle bytes).

State graphs and mapping artifacts pickle large but deflate extremely
well (typically 3-10x), so every entry is written ``zlib``; the
encoder falls back to ``identity`` when compression does not actually
shrink the payload, and the stamp always records what was done.  An
entry stamped with any other codec decodes as a miss.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import zlib
from typing import (Any, Callable, Dict, Hashable, Optional, Tuple)

#: bump when the directory layout / envelope shape itself changes;
#: old layout directories are ignored and reaped by ``gc``.
STORE_LAYOUT = "v2"

#: per-kind artifact format versions.  Bump a kind's version whenever
#: the pickled schema of that artifact changes (new dataclass fields,
#: renamed attributes, ...): entries stamped with an older version are
#: treated as misses and overwritten on the next compute.  Kinds not
#: listed here are never persisted.
ARTIFACT_FORMATS: Dict[str, int] = {
    "sg": 1,
    # v2: the artifact is the whole CscResult (graph + steps +
    # telemetry), not just the solved StateGraph
    "csc": 2,
    "implementations": 1,
    "netlist": 1,
    "check": 1,
    "map": 1,
    # finished job rows spilled by the serve daemon's retention layer
    "jobrow": 1,
}


def _codec_ops(op: str, codec: str) -> None:
    """Count one envelope codec operation on the process registry."""
    from repro.obs.metrics import default_registry
    default_registry().counter(
        "si_envelope_ops_total",
        "Envelope encode/decode operations by outcome.",
        ("op", "codec")).inc(op=op, codec=codec)


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

#: name -> (compress, decompress)
_CODECS: Dict[str, Tuple[Callable[[bytes], bytes],
                         Callable[[bytes], bytes]]] = {
    "identity": (lambda data: data, lambda data: data),
    "zlib": (lambda data: zlib.compress(data, 6), zlib.decompress),
}


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------

def kind_of(key: Hashable) -> str:
    """The artifact kind of a cache key (its first tuple element)."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return "misc"


def digest_of(key: Hashable) -> str:
    """The content address of a cache key: SHA-256 of its ``repr``."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Headers
# ----------------------------------------------------------------------

class _NoGlobalsUnpickler(pickle.Unpickler):
    """Header reader: refuses every global lookup, so it can only
    materialize primitive containers — never arbitrary objects."""

    def find_class(self, module, name):  # pragma: no cover - guard
        raise pickle.UnpicklingError(
            f"envelope headers may not reference {module}.{name}")


#: reading this many leading bytes is always enough for the header
#: (a dict of four short scalars plus one key repr)
HEADER_PROBE_BYTES = 64 * 1024


def read_header(data: bytes) -> Optional[Tuple[Dict[str, Any], int]]:
    """Parse the envelope header from leading bytes.

    Returns ``(header, payload_offset)`` or ``None`` when the bytes do
    not start with a well-formed header.  Uses the restricted
    unpickler, so it is safe on hostile input, and never raises.
    """
    stream = io.BytesIO(data)
    try:
        header = _NoGlobalsUnpickler(stream).load()
    except Exception:
        return None
    if (not isinstance(header, dict)
            or not isinstance(header.get("format"), int)
            or not isinstance(header.get("key"), str)):
        return None
    return header, stream.tell()


def plausible_envelope(data: bytes) -> bool:
    """True when ``data`` starts with a well-formed entry header (what
    the serve daemon checks before accepting an upload)."""
    return read_header(data) is not None


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------

def _pack(header: Dict[str, Any], body: bytes) -> bytes:
    return pickle.dumps(header,
                        protocol=pickle.HIGHEST_PROTOCOL) + body


def encode_entry(key: Hashable, value: Any, version: int) -> bytes:
    """Serialize one store entry into the shared envelope.

    The payload pickle is ``zlib``-compressed; when compression does
    not shrink it the entry is stored ``identity`` instead — the stamp
    records what actually happened.  Raises whatever
    :func:`pickle.dumps` raises on an unserializable value; backends
    turn that into a ``write_skip``.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    codec, body = "zlib", _CODECS["zlib"][0](payload)
    if len(body) >= len(payload):
        codec, body = "identity", payload
    header = {"format": version, "key": repr(key), "codec": codec,
              "raw_size": len(payload)}
    _codec_ops("encode", codec)
    return _pack(header, body)


def decode_entry(data: bytes, key: Hashable,
                 expected: int) -> Tuple[str, Any]:
    """Parse envelope bytes back into a payload.

    Returns ``("hit", payload)``; ``("stale", None)`` for a wrong
    format stamp, wrong key repr, or a codec stamp other than
    ``zlib``/``identity`` (a miss, but not garbage); or
    ``("error", None)`` for bytes that are not a well-formed envelope
    (torn write survivor, alien file, corrupt body).  Never raises.
    """
    parsed = read_header(data)
    if parsed is None:
        _codec_ops("decode_error", "unknown")
        return "error", None
    header, offset = parsed
    codec = header.get("codec")
    if not isinstance(codec, str) or codec not in _CODECS:
        codec = "unknown"
    if (header["format"] != expected or header["key"] != repr(key)
            or codec == "unknown"):
        _codec_ops("decode_stale", codec)
        return "stale", None
    try:
        payload = _CODECS[codec][1](data[offset:])
    except Exception:
        _codec_ops("decode_error", codec)
        return "error", None
    try:
        value = pickle.loads(payload)
    except Exception:
        _codec_ops("decode_error", codec)
        return "error", None
    _codec_ops("decode_hit", codec)
    return "hit", value
