"""S3-compatible artifact-store backend.

:class:`ObjectStoreArtifactCache` files the same
envelopes every other backend moves (:mod:`repro.dist.envelope`) as
objects under ``bucket/prefix/<layout>/<kind>/<digest>`` — identical
content addresses, identical bytes — so serverless shard workers can
share a cache through any S3-compatible object store without running
a ``si-mapper serve`` daemon.

Two transports, picked automatically:

* an **endpoint transport** (stdlib ``urllib``, no dependencies)
  speaking the unsigned path-style S3 REST subset — ``GET/PUT/DELETE
  /{bucket}/{key}`` plus ``list-type=2`` listings — against anything
  S3-compatible that allows anonymous access (MinIO in dev mode, the
  test suite's in-process fake, a signing proxy);
* a **boto3 transport**, used when no explicit endpoint is given and
  ``boto3`` is importable — real AWS with the usual credential chain.

``boto3`` is strictly optional: it is imported lazily, and asking for
a bare ``bucket/prefix`` spec without it is a clean
:class:`~repro.errors.StoreConfigError`, never an ImportError at
import time.

Failure model: identical to :class:`~repro.dist.remote.
RemoteArtifactCache` — the store is an accelerator, every transport
failure degrades to a miss (or a skipped write) and opens a cooldown
window, and the telemetry lands in the same ``remote_*`` counters (an
object store *is* the run's remote tier).  Composes with
:class:`~repro.dist.remote.TieredStore` for disk-in-front-of-object-
store.
"""

from __future__ import annotations

import calendar
import time
import urllib.error
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ElementTree
from typing import Any, Hashable, Iterator, List, Optional, Tuple

from repro.dist.envelope import (ARTIFACT_FORMATS, STORE_LAYOUT,
                                 decode_entry, digest_of, encode_entry,
                                 kind_of)
from repro.dist.remote import _NETWORK_ERRORS
from repro.errors import StoreConfigError
from repro.pipeline.store import MISS, StoreReport, StoreStats


class TransportError(OSError):
    """Any transport-level failure (network, 5xx, SDK error).

    The cache layer maps it to miss + cooldown; a missing object is
    *not* a transport error (``get`` returns ``None`` for that).
    """


def parse_object_store_spec(spec: str) -> Tuple[Optional[str], str,
                                                str]:
    """Split a ``--cache-s3`` spec into ``(endpoint, bucket, prefix)``.

    Accepted shapes::

        bucket/prefix                    # boto3, AWS credential chain
        s3://bucket/prefix               # same
        http://host:port/bucket/prefix   # explicit endpoint, stdlib
        https://host/bucket/prefix       # transport, unsigned

    The prefix may be empty; a missing bucket is a
    :class:`StoreConfigError`.
    """
    spec = (spec or "").strip()
    endpoint: Optional[str] = None
    rest = spec
    if spec.startswith(("http://", "https://")):
        split = urllib.parse.urlsplit(spec)
        if not split.netloc:
            raise StoreConfigError(
                f"object-store spec {spec!r} has no host")
        endpoint = f"{split.scheme}://{split.netloc}"
        rest = split.path
    elif spec.startswith("s3://"):
        rest = spec[len("s3://"):]
    bucket, _, prefix = rest.strip("/").partition("/")
    if not bucket:
        raise StoreConfigError(
            f"object-store spec {spec!r} names no bucket "
            "(expected bucket/prefix, s3://bucket/prefix, or "
            "http(s)://endpoint/bucket/prefix)")
    return endpoint, bucket, prefix.strip("/")


def _parse_last_modified(text: Optional[str]) -> float:
    """An S3 ``LastModified`` timestamp as a POSIX epoch (0.0 when
    unparseable — gc then treats the object as brand new, the safe
    direction)."""
    if not text:
        return 0.0
    try:
        clock = time.strptime(text[:19], "%Y-%m-%dT%H:%M:%S")
        return float(calendar.timegm(clock))
    except ValueError:
        return 0.0


class _HttpTransport:
    """Unsigned path-style S3 REST over stdlib ``urllib``.

    Speaks exactly the subset the cache needs: object GET/PUT/DELETE
    and ``list-type=2`` listings with continuation tokens.  Raises
    :class:`TransportError` for everything that is not a clean "object
    does not exist".
    """

    def __init__(self, endpoint: str, bucket: str,
                 timeout: float = 10.0):
        self._base = (endpoint.rstrip("/") + "/"
                      + urllib.parse.quote(bucket, safe=""))
        self.timeout = timeout

    def _object_url(self, key: str) -> str:
        return self._base + "/" + urllib.parse.quote(key, safe="/")

    def _request(self, method: str, url: str,
                 data: Optional[bytes] = None) -> bytes:
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type",
                               "application/octet-stream")
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError:
            raise                          # the caller maps status codes
        except _NETWORK_ERRORS as error:
            raise TransportError(str(error)) from error

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self._request("GET", self._object_url(key))
        except urllib.error.HTTPError as error:
            code = error.code
            error.close()
            if code == 404:
                return None
            raise TransportError(f"GET {key}: HTTP {code}") from error

    def put(self, key: str, data: bytes) -> None:
        try:
            self._request("PUT", self._object_url(key), data=data)
        except urllib.error.HTTPError as error:
            code = error.code
            error.close()
            raise TransportError(f"PUT {key}: HTTP {code}") from error

    def delete(self, key: str) -> None:
        try:
            self._request("DELETE", self._object_url(key))
        except urllib.error.HTTPError as error:
            code = error.code
            error.close()
            if code == 404:                # already gone: fine
                return
            raise TransportError(
                f"DELETE {key}: HTTP {code}") from error

    def list(self, prefix: str) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(key, size, last_modified_epoch)`` under a prefix."""
        token: Optional[str] = None
        while True:
            query = {"list-type": "2", "prefix": prefix}
            if token:
                query["continuation-token"] = token
            url = self._base + "?" + urllib.parse.urlencode(query)
            try:
                body = self._request("GET", url)
            except urllib.error.HTTPError as error:
                code = error.code
                error.close()
                raise TransportError(
                    f"LIST {prefix}: HTTP {code}") from error
            try:
                root = ElementTree.fromstring(body)
            except ElementTree.ParseError as error:
                raise TransportError(
                    f"LIST {prefix}: bad XML") from error
            # namespace-wildcard matches both AWS's namespaced XML and
            # bare-element fakes
            for contents in root.findall("{*}Contents"):
                key = contents.findtext("{*}Key")
                if not key:
                    continue
                size = contents.findtext("{*}Size") or "0"
                modified = contents.findtext("{*}LastModified")
                try:
                    yield key, int(size), _parse_last_modified(modified)
                except ValueError:
                    yield key, 0, _parse_last_modified(modified)
            if (root.findtext("{*}IsTruncated") or "").lower() != "true":
                return
            token = root.findtext("{*}NextContinuationToken")
            if not token:
                return


class _Boto3Transport:
    """The same transport surface over ``boto3`` (real AWS)."""

    def __init__(self, bucket: str, timeout: float = 10.0,
                 endpoint: Optional[str] = None):
        try:
            import boto3                       # type: ignore
            import botocore.config             # type: ignore
            import botocore.exceptions         # type: ignore
        except ImportError as error:
            raise StoreConfigError(
                "the object-store backend needs either an explicit "
                "http(s) endpoint in the --cache-s3 spec or the boto3 "
                "library, and boto3 is not installed") from error
        self._errors = (botocore.exceptions.BotoCoreError,
                        botocore.exceptions.ClientError)
        config = botocore.config.Config(connect_timeout=timeout,
                                        read_timeout=timeout)
        self._client = boto3.client("s3", endpoint_url=endpoint,
                                    config=config)
        self._bucket = bucket

    def _is_missing(self, error: Any) -> bool:
        code = str(getattr(error, "response", {}).get(
            "Error", {}).get("Code", ""))
        return code in ("404", "NoSuchKey")

    def get(self, key: str) -> Optional[bytes]:
        try:
            response = self._client.get_object(Bucket=self._bucket,
                                               Key=key)
            return response["Body"].read()
        except self._errors as error:
            if self._is_missing(error):
                return None
            raise TransportError(str(error)) from error

    def put(self, key: str, data: bytes) -> None:
        try:
            self._client.put_object(Bucket=self._bucket, Key=key,
                                    Body=data)
        except self._errors as error:
            raise TransportError(str(error)) from error

    def delete(self, key: str) -> None:
        try:
            self._client.delete_object(Bucket=self._bucket, Key=key)
        except self._errors as error:
            if not self._is_missing(error):
                raise TransportError(str(error)) from error

    def list(self, prefix: str) -> Iterator[Tuple[str, int, float]]:
        token: Optional[str] = None
        while True:
            kwargs = {"Bucket": self._bucket, "Prefix": prefix}
            if token:
                kwargs["ContinuationToken"] = token
            try:
                page = self._client.list_objects_v2(**kwargs)
            except self._errors as error:
                raise TransportError(str(error)) from error
            for entry in page.get("Contents", []):
                modified = entry.get("LastModified")
                epoch = (modified.timestamp()
                         if hasattr(modified, "timestamp") else 0.0)
                yield entry["Key"], int(entry.get("Size", 0)), epoch
            if not page.get("IsTruncated"):
                return
            token = page.get("NextContinuationToken")
            if not token:
                return


class ObjectStoreArtifactCache:
    """Artifact store over an S3-compatible bucket.

    Same contract as every backend: ``get`` never raises (a dead or
    misbehaving object store degrades to misses plus a cooldown), and
    ``put`` returns ``False`` on any skipped write.  Telemetry uses
    the ``remote_*`` counters — for the pipeline this *is* the remote
    tier.  Construction, by contrast, validates eagerly: a spec the
    process cannot possibly serve raises :class:`StoreConfigError`.
    """

    def __init__(self, spec: str, timeout: float = 10.0,
                 cooldown: float = 30.0,
                 transport: Optional[Any] = None):
        endpoint, bucket, prefix = parse_object_store_spec(spec)
        self.spec = spec
        self.bucket = bucket
        self.prefix = prefix
        self.cooldown = cooldown
        self.stats = StoreStats("s3")
        self._down_until = 0.0
        if transport is not None:
            self._transport = transport
        elif endpoint is not None:
            self._transport = _HttpTransport(endpoint, bucket,
                                             timeout=timeout)
        else:
            self._transport = _Boto3Transport(bucket, timeout=timeout)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def _root_key(self) -> str:
        return f"{self.prefix}/" if self.prefix else ""

    def _layout_key(self, layout: str = STORE_LAYOUT) -> str:
        return f"{self._root_key()}{layout}/"

    def _object_key(self, kind: str, digest: str) -> str:
        return f"{self._layout_key()}{kind}/{digest}"

    def _split_key(self, key: str) -> Optional[Tuple[str, str]]:
        """``(layout, kind)`` of a store-owned object key, or ``None``
        for a neighbour object this store must not touch."""
        root = self._root_key()
        if not key.startswith(root):
            return None
        parts = key[len(root):].split("/")
        if len(parts) < 2:
            return None
        layout = parts[0]
        if not (layout.startswith("v") and layout[1:].isdigit()):
            return None
        return layout, parts[1]

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------

    def _available(self) -> bool:
        return time.monotonic() >= self._down_until

    def _mark_down(self) -> None:
        self._down_until = time.monotonic() + self.cooldown

    # ------------------------------------------------------------------
    # ArtifactStore: get / put
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The stored artifact, or :data:`MISS`.  Never raises."""
        return self.fetch(key)[0]

    def fetch(self, key: Hashable) -> Tuple[Any, Optional[bytes]]:
        """``(value, envelope_bytes)``, or ``(MISS, None)`` — the raw
        bytes feed :class:`~repro.dist.remote.TieredStore` backfill."""
        expected = ARTIFACT_FORMATS.get(kind_of(key))
        if expected is None:
            return MISS, None
        if not self._available():
            self.stats.add(misses=1)
            return MISS, None
        try:
            data = self._transport.get(
                self._object_key(kind_of(key), digest_of(key)))
        except TransportError:
            self.stats.add(errors=1)
            self._mark_down()
            return MISS, None
        if data is None:
            self.stats.add(misses=1)
            return MISS, None
        status, payload = decode_entry(data, key, expected)
        if status == "stale":
            self.stats.add(stale=1)
            return MISS, None
        if status == "error":
            self.stats.add(errors=1)
            return MISS, None
        self.stats.add(hits=1, bytes_read=len(data))
        return payload, data

    def put(self, key: Hashable, value: Any) -> bool:
        """Upload an artifact; ``False`` if it was skipped."""
        version = ARTIFACT_FORMATS.get(kind_of(key))
        if version is None:
            return False
        try:
            data = encode_entry(key, value, version)
        except Exception:
            self.stats.add(write_skips=1)
            return False
        return self.put_raw(kind_of(key), digest_of(key), data)

    def put_raw(self, kind: str, digest: str, data: bytes) -> bool:
        """Upload already-encoded envelope bytes."""
        if not self._available():
            self.stats.add(write_skips=1)
            return False
        try:
            self._transport.put(self._object_key(kind, digest), data)
        except TransportError:
            self.stats.add(errors=1, write_skips=1)
            self._mark_down()
            return False
        self.stats.add(writes=1, bytes_written=len(data))
        return True

    # ------------------------------------------------------------------
    # ArtifactStore: maintenance
    # ------------------------------------------------------------------

    def _list_owned(self) -> List[Tuple[str, int, float, str, str]]:
        """Every store-owned object: ``(key, size, mtime, layout,
        kind)``.  Raises :class:`TransportError` upward."""
        owned = []
        for key, size, mtime in self._transport.list(self._root_key()):
            split = self._split_key(key)
            if split is None:
                continue
            owned.append((key, size, mtime, split[0], split[1]))
        return owned

    def report(self) -> StoreReport:
        """Inventory of the bucket prefix; empty when unreachable.

        Listings carry no envelope headers, so the raw size of each
        entry is unknown without a download: stored stands in for raw
        (ratio 1.0).
        """
        root = f"s3://{self.bucket}/{self.prefix}".rstrip("/")
        report = StoreReport(root=root)
        try:
            owned = self._list_owned()
        except TransportError:
            return report
        for _, size, _, layout, kind in owned:
            if layout != STORE_LAYOUT:
                continue
            report.entries += 1
            report.bytes += size
            report.raw_bytes += size
            count, stored, raw = report.by_kind.get(kind, (0, 0, 0))
            report.by_kind[kind] = (count + 1, stored + size,
                                    raw + size)
        return report

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Same policy as the disk store's gc, over object listings:
        older layouts, unknown kinds, age, then newest-first size
        budget.  ``(0, 0)`` when the store is unreachable."""
        try:
            owned = self._list_owned()
        except TransportError:
            return 0, 0
        removed = 0
        freed = 0
        now = time.time()
        current_version = int(STORE_LAYOUT[1:])
        survivors: List[Tuple[float, str, int]] = []
        for key, size, mtime, layout, kind in owned:
            version = int(layout[1:])
            if version > current_version:
                continue                   # a newer binary's entries
            drop = (version < current_version
                    or kind not in ARTIFACT_FORMATS
                    or (max_age_seconds is not None and mtime > 0
                        and now - mtime > max_age_seconds))
            if drop:
                try:
                    self._transport.delete(key)
                except TransportError:
                    return removed, freed
                removed += 1
                freed += size
            else:
                survivors.append((mtime, key, size))
        if max_bytes is not None:
            survivors.sort(reverse=True)   # newest first
            budget = max_bytes
            overflowed = False
            for _, key, size in survivors:
                if not overflowed and size <= budget:
                    budget -= size
                    continue
                overflowed = True
                try:
                    self._transport.delete(key)
                except TransportError:
                    return removed, freed
                removed += 1
                freed += size
        return removed, freed

    def clear(self) -> Tuple[int, int]:
        """Delete every store-owned object (layout roots only — a
        neighbour object under the same prefix survives)."""
        try:
            owned = self._list_owned()
        except TransportError:
            return 0, 0
        removed = 0
        freed = 0
        for key, size, _, _, _ in owned:
            try:
                self._transport.delete(key)
            except TransportError:
                return removed, freed
            removed += 1
            freed += size
        return removed, freed

    def healthy(self) -> bool:
        """One listing probe against the bucket."""
        try:
            for _ in self._transport.list(self._root_key()):
                break
            return True
        except TransportError:
            return False

    def __repr__(self) -> str:
        return (f"ObjectStoreArtifactCache({self.spec!r}, "
                f"hits={self.stats.hits}, misses={self.stats.misses}, "
                f"writes={self.stats.writes})")
