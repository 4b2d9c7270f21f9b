"""Persistent memoization of computed HOMFLY polynomials.

One JSON file `<sha256 of key>.json` per entry, flat in the store directory.
A write is a temp file plus an atomic rename, safe against concurrent writers
and kills; readers never see partial files.  `clear` also removes entries of
the old `<2 hex>/<sha256>.json` layout, and their directories once empty.
An ENGINE_VERSION bump invalidates every entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import ENGINE_VERSION
from .errors import CorruptStore, ParseError, StoreUnwritable
from .laurent import LaurentPoly

CACHE_ENV_VAR = "PRETZELHOMFLY_CACHE_DIR"
ENTRY_FIELDS = frozenset({"version", "poly", "checksum"})
_READ_CHUNK = 1 << 16  # under the allocator's mmap threshold
# the bytes json.dumps(obj, sort_keys=True) gives, without a new encoder
# per call
_canonical_json = json.JSONEncoder(sort_keys=True).encode


def _checksum(poly_json) -> str:
    """sha256 of an entry's "poly" field in canonical (sorted-key) JSON."""
    return hashlib.sha256(_canonical_json(poly_json).encode()).hexdigest()


def cache_key(params: Sequence[int], r: int,
              version: str = ENGINE_VERSION) -> tuple:
    """Canonical cache key.  Genus-2 parameter triples are sorted (the knot is
    permutation invariant there); higher genus keeps the raw order."""
    params = tuple(int(p) for p in params)
    if len(params) == 3:
        params = tuple(sorted(params))
    return (params, int(r), version)


class HomflyCache:
    """File-backed polynomial store keyed by canonical knot spec."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.directory)

    def _file(self, key: tuple) -> str:
        blob = json.dumps([list(key[0]), key[1], key[2]])
        digest = hashlib.sha256(blob.encode()).hexdigest()
        return os.path.join(self._dir, f"{digest}.json")

    def _path(self, key: tuple) -> Path:
        return Path(self._file(key))

    def get(self, key: tuple) -> Optional[LaurentPoly]:
        """The checked polynomial stored under key, or None if the store
        holds none for this key and version; an entry that fails a check
        raises CorruptStore."""
        path = self._file(key)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CorruptStore(f"unreadable cache entry {path}: {exc}") from exc
        try:
            # one read for any entry under the chunk size, then the empty
            # read that marks its end
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
            # a directory fails in read; a cut file or non-UTF-8 bytes in
            # loads (ValueError covers JSONDecodeError and UnicodeDecodeError)
            obj = json.loads(b"".join(chunks))
        except (OSError, ValueError) as exc:
            raise CorruptStore(f"unreadable cache entry {path}: {exc}") from exc
        finally:
            os.close(fd)
        if not (isinstance(obj, dict) and ENTRY_FIELDS <= obj.keys()):
            raise CorruptStore(f"malformed cache entry {path}: not an object "
                               f"with fields {sorted(ENTRY_FIELDS)}")
        if obj["version"] != key[2]:
            return None
        if obj["checksum"] != _checksum(obj["poly"]):
            raise CorruptStore(f"checksum mismatch in {path}")
        try:
            poly = LaurentPoly.from_json(obj["poly"])
        except ParseError as exc:
            raise CorruptStore(f"malformed polynomial in {path}: {exc}") from exc
        # put writes each term once with a nonzero coefficient; a zero or a
        # repeated exponent pair would otherwise read back as another value
        terms = obj["poly"]["terms"]
        if not isinstance(terms, list) or len(terms) != len(poly.terms):
            raise CorruptStore(f"zero or repeated terms in {path}")
        return poly

    def put(self, key: tuple, poly: LaurentPoly):
        path = self._file(key)
        body = poly.to_json()
        obj = {
            "key": {"params": list(key[0]), "r": key[1]},
            "version": key[2],
            "poly": body,
            "checksum": _checksum(body),
            "timestamp": time.time(),
        }
        try:
            fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(obj))  # json.dump encodes in pure Python
            os.replace(tmp, path)
        except OSError as exc:
            raise StoreUnwritable(f"cannot write cache entry {path}: {exc}") from exc

    def entries(self) -> Iterator[dict]:
        for path in sorted(self.directory.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as fh:
                    obj = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(obj, dict):
                continue
            yield {"file": str(path), "key": obj.get("key"),
                   "version": obj.get("version"),
                   "timestamp": obj.get("timestamp")}

    def clear(self) -> int:
        sharded = list(self.directory.glob("*/*.json"))
        paths = [*self.directory.glob("*.json"), *sharded]
        # checked before any unlink, so a refused clear removes nothing
        for path in paths:
            if path.is_dir():
                raise CorruptStore(f"{path} is a directory, not a cache entry")
        for path in paths:
            path.unlink()
        for shard in {path.parent for path in sharded}:
            name = shard.name
            if (len(name) == 2 and set(name) <= set("0123456789abcdef")
                    and not any(shard.iterdir())):
                shard.rmdir()
        return len(paths)


def resolve_cache_dir(flag_value: Optional[str]) -> Optional[Path]:
    """CLI flag wins, then the environment variable, else no persistent cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None
