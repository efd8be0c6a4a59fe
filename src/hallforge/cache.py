"""On-disk persistence of enumeration state, keyed by a setup fingerprint.

A cache file stores the isomorphism classes, orbit/automorphism counts and
memoized subobject counts for one (quiver, field, periodicity) setup.  The
fingerprint ties the file to the setup; loading a file whose fingerprint or
layout does not match, or whose counts break the orbit identities, raises
CacheInvalid.  Caching only affects speed, never results.
"""
from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path

from .errors import CacheInvalid
from .quivers import Quiver, canonical_quiver_json
from .reps import ClassRegistry

CACHE_ENV_VAR = "HALLFORGE_CACHE"
CACHE_FORMAT = 1


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


def save_cache(reg: ClassRegistry, t: int,
               directory: str | os.PathLike | None = None) -> Path | None:
    """Write the registry state; returns the path, or None when no dir is set."""
    path = cache_path(reg.quiver, reg.p, t, directory)
    if path is None:
        return None
    hall = [[reg.class_id_str(a), reg.class_id_str(b), reg.class_id_str(c), int(v)]
            for (a, b, c), v in sorted(reg.memo("hall_number").items(),
                                       key=lambda kv: (kv[0][0].sort_key,
                                                       kv[0][1].sort_key,
                                                       kv[0][2].sort_key))]
    payload = {
        "format": CACHE_FORMAT,
        "fingerprint": setup_fingerprint(reg.quiver, reg.p, t),
        "q": reg.p,
        "t": t,
        "registry": reg.export_state(),
        "hall_numbers": hall,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # A temp file of its own per writer, so concurrent saves never share one.
    tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
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
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CacheInvalid(f"cannot read cache file {path}: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        raise CacheInvalid(f"cache file {path} has an unsupported layout")
    expected = setup_fingerprint(reg.quiver, reg.p, t)
    if payload.get("fingerprint") != expected:
        raise CacheInvalid(
            f"cache file {path} was built for a different setup "
            f"(found {payload.get('fingerprint')!r}, expected {expected!r})")
    reg.import_state(payload.get("registry", {}))
    memo = reg.memo("hall_number")
    try:
        for a_s, b_s, c_s, v in payload.get("hall_numbers", []):
            key = (reg.parse_class_id(a_s), reg.parse_class_id(b_s), reg.parse_class_id(c_s))
            memo[key] = int(v)
    except Exception as e:
        raise CacheInvalid(f"cache file {path} holds bad subobject counts: {e}") from None
    return True
