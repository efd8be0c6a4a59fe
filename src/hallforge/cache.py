"""On-disk persistence of enumeration state, keyed by a setup fingerprint.

A cache file stores the isomorphism classes, orbit/automorphism counts and
subobject tables of one (quiver, field, periodicity) setup: for each class c
that hall._subobject_table walks and each subobject dims d other than 0 and
dims c, the nonzero {(quotient, subobject): count}, empty tables included.
Closed-form Hall numbers and tables are recomputed.  The fingerprint ties
the file to the setup, and a sha256 digest of the payload bytes, written as
the file's first key, ties the counts to what was saved; loading a file
whose fingerprint, layout (older formats included) or digest does not match,
whose counts break the orbit identities, or whose tables no route reads
raises CacheInvalid.  Every check runs at load, but the registry builds a
class's representative from its checked entries only when something reads
it, so a warm run that finds all it reads here builds none.  Caching only
affects speed, never results.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import CacheInvalid
from .hall import _walked
from .quivers import Quiver, canonical_quiver_json, dims_sub
from .reps import ClassRegistry

CACHE_ENV_VAR = "HALLFORGE_CACHE"
CACHE_FORMAT = 4
_BODY_START = len(b'{"sha256":"",') + 64  # where the payload's first key starts


def setup_fingerprint(quiver: Quiver, q: int, t: int) -> str:
    """sha256 of the canonical (quiver, q, t) description."""
    payload = json.dumps({"quiver": json.loads(canonical_quiver_json(quiver)),
                          "q": q, "t": t},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_directory(directory: str | os.PathLike | None = None) -> Path | None:
    """The cache directory: the explicit argument, else $HALLFORGE_CACHE, else None."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def cache_path(quiver: Quiver, q: int, t: int,
               directory: str | os.PathLike | None = None) -> Path | None:
    base = cache_directory(directory)
    if base is None:
        return None
    return base / f"{setup_fingerprint(quiver, q, t)}.json"


def encode_cache(payload: dict) -> bytes:
    """The file bytes for payload: its compact sorted JSON, with the sha256 of
    those bytes spliced in as a first key "sha256".

    A reader checks the digest on the bytes it read, from a fixed offset,
    without serialising anything again.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _digest_head(body) + body[1:]


def _digest_head(body: bytes) -> bytes:
    return b'{"sha256":"' + hashlib.sha256(body).hexdigest().encode("ascii") + b'",'


def cached_size(reg: ClassRegistry) -> tuple[int, int, int]:
    """The sizes of the tables save_cache writes.  They only grow, so a registry
    whose sizes equal those just after a load would save the loaded contents."""
    return (*reg.export_size(), len(reg.memo("subobject_table")))


def save_cache(reg: ClassRegistry, t: int,
               directory: str | os.PathLike | None = None) -> Path | None:
    """Write the registry state; returns the path, or None when no dir is set."""
    path = cache_path(reg.quiver, reg.p, t, directory)
    if path is None:
        return None
    name = reg.class_id_str
    # A table keeps its walk's order, which depends only on the representative of c.
    tables = [[name(c), list(d), [[name(a), name(b), n] for (a, b), n in table.items()]]
              for (c, d), table in sorted(reg.memo("subobject_table").items(),
                                          key=lambda kv: (kv[0][0].sort_key, kv[0][1]))]
    payload = {
        "format": CACHE_FORMAT,
        "fingerprint": setup_fingerprint(reg.quiver, reg.p, t),
        "q": reg.p,
        "t": t,
        "registry": reg.export_state(),
        "subobject_tables": tables,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # A temp file of its own per writer, so concurrent saves never share one.
    tmp = path.with_name(f"{path.stem}.{os.urandom(16).hex()}.tmp")
    try:
        tmp.write_bytes(encode_cache(payload))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_cache(reg: ClassRegistry, t: int,
               directory: str | os.PathLike | None = None) -> bool:
    """Load cached state into the registry; False when there is nothing to load.

    Raises CacheInvalid when the file exists but does not match this setup.
    """
    path = cache_path(reg.quiver, reg.p, t, directory)
    if path is None or not path.exists():
        return False
    try:
        raw = path.read_bytes()
        payload = json.loads(raw)
    except (OSError, ValueError) as e:
        raise CacheInvalid(f"cannot read cache file {path}: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        raise CacheInvalid(f"cache file {path} has an unsupported layout")
    expected = setup_fingerprint(reg.quiver, reg.p, t)
    if payload.get("fingerprint") != expected:
        raise CacheInvalid(
            f"cache file {path} was built for a different setup "
            f"(found {payload.get('fingerprint')!r}, expected {expected!r})")
    if raw[:_BODY_START] != _digest_head(b"{" + raw[_BODY_START:]):
        raise CacheInvalid(f"cache file {path} does not match its sha256 digest")
    ids = {reg.class_id_str(cid): cid for cid in reg.import_state(payload.get("registry", {}))}
    memo = reg.memo("subobject_table")
    try:
        for c_s, d, entries in payload.get("subobject_tables", []):
            c, d = ids[c_s], tuple(d)
            if not _walked(reg, c):
                raise CacheInvalid(f"no route reads a table of {c_s}")
            if len(d) != len(c.dims) or not all(type(x) is int and 0 <= x <= y
                                                for x, y in zip(d, c.dims)):
                raise CacheInvalid(f"subobject dims {d} do not fit in {c_s}")
            if not any(d) or d == c.dims:
                raise CacheInvalid(f"no route reads a table of {c_s} by dims {d}")
            table = memo[c, d] = {}
            for a_s, b_s, n in entries:
                a, b = ids[a_s], ids[b_s]
                if (a.dims, b.dims) != (dims_sub(c.dims, d), d) or type(n) is not int or n < 1:
                    raise CacheInvalid(f"entry {[a_s, b_s, n]} is no (quotient, subobject, "
                                       f"positive count) of {c_s} by dims {d}")
                table[a, b] = n
    except (CacheInvalid, KeyError, TypeError, ValueError) as e:  # unknown ids: KeyError
        raise CacheInvalid(f"cache file {path} holds a bad subobject table: {e}") from None
    return True
