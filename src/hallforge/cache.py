"""On-disk persistence of enumeration state, keyed by a setup fingerprint.

A cache file (format 6) stores the isomorphism classes, orbit counts and
subobject tables of one (quiver, field, periodicity) setup, in a layout
load_cache checks in one flat pass:

- "classes": per dims "d_0,d_1,...", the lists "orbit" and "mats", one list
  of arrow-matrix codes per class, each code the matrix's row-major entries
  as the base-p digits of one int (reps._mat_code), in range(p^(rows*cols));
- "tables": per dims of a class c, one group [index of c, [d, triples], ...]
  per class that hall._subobject_table walks, with one [d, triples] per
  subobject dims d other than 0 and dims c, empty tables included.  triples
  is a flat list of (quotient index, subobject index, count) over the
  nonzero counts, strictly increasing by (subobject index, quotient index);
  the quotient and subobject dims are implied (dims c - d and d), and an
  index resolves only against the classes of the same file.

|Aut| = |GL(d)| / orbit, closed-form Hall numbers and tables are derived.
The fingerprint ties the file to the setup, and a sha256 digest of the
payload bytes, written as the file's first key, ties the counts to what was
saved; loading a file whose fingerprint, layout (older formats included) or
digest does not match, that repeats a key within one object or holds a key
outside the layout above (the five top-level keys "sha256", "format",
"fingerprint", "classes" and "tables"; "orbit" and "mats" per dims), whose orbits
do not divide |GL(d)| or partition the matrix tuples, or whose tables no
route reads raises CacheInvalid.  Every check runs at load, but a class's
representative is decoded from its checked codes only when something reads
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
from .quivers import Quiver, dims_key, dims_of_key, dims_sub, quiver_to_dict
from .reps import ClassRegistry, class_name

CACHE_ENV_VAR = "HALLFORGE_CACHE"
CACHE_FORMAT = 6
#: The top-level keys of a file, which save_cache writes and load_cache reads, no others.
_KEYS = frozenset(("sha256", "format", "fingerprint", "classes", "tables"))
_BODY_START = len(b'{"sha256":"",') + 64  # where the payload's first key starts


def _canonical_json(obj) -> bytes:
    """obj as compact JSON with sorted keys, UTF-8 encoded."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def setup_fingerprint(quiver: Quiver, q: int, t: int, **bounds) -> str:
    """sha256 of the canonical JSON of {quiver, q, t, **bounds}: a cache
    file's name, or with a CLI run's max_dim and dim its report's."""
    return hashlib.sha256(_canonical_json({"quiver": quiver_to_dict(quiver), "q": q, "t": t,
                                           **bounds})).hexdigest()


def cache_directory() -> Path | None:
    """The directory $HALLFORGE_CACHE names, or None when it is unset or empty."""
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def cache_path(quiver: Quiver, q: int, t: int) -> Path | None:
    base = cache_directory()
    return None if base is None else base / f"{setup_fingerprint(quiver, q, t)}.json"


def encode_cache(payload: dict) -> bytes:
    """The file bytes for payload: its canonical JSON, with the sha256 of those
    bytes spliced in as a first key "sha256", which a reader checks on the
    bytes it read, from a fixed offset, without serialising anything again."""
    body = _canonical_json(payload)
    return _digest_head(body) + body[1:]


def _digest_head(body: bytes) -> bytes:
    return b'{"sha256":"' + hashlib.sha256(body).hexdigest().encode("ascii") + b'",'


def cached_size(reg: ClassRegistry) -> tuple[int, int]:
    """The sizes of the tables save_cache writes.  They only grow, so a registry
    whose sizes equal those just after a load would save the loaded contents."""
    return reg.export_size(), len(reg.memo("subobject_table"))


def save_cache(reg: ClassRegistry, t: int) -> Path | None:
    """Write the registry state; returns the path, or None when no dir is set."""
    path = cache_path(reg.quiver, reg.p, t)
    if path is None:
        return None
    tables: dict[str, list] = {}
    for (c, d), table in sorted(reg.memo("subobject_table").items(),
                                key=lambda kv: (kv[0][0].sort_key, kv[0][1])):
        groups = tables.setdefault(dims_key(c.dims), [])
        if not groups or groups[-1][0] != c.index:
            groups.append([c.index])
        # A table is kept in (subobject index, quotient index) order.
        groups[-1].append([list(d), [x for (a, b), n in table.items()
                                     for x in (a.index, b.index, n)]])
    payload = {"format": CACHE_FORMAT, "fingerprint": path.stem,
               "classes": reg.export_state(), "tables": tables}
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


def load_cache(reg: ClassRegistry, t: int) -> bool:
    """Load cached state into the registry; False when there is nothing to load.

    Raises CacheInvalid when the file exists but does not match this setup.
    """
    path = cache_path(reg.quiver, reg.p, t)
    if path is None or not path.exists():
        return False
    try:
        raw = path.read_bytes()
        payload = json.loads(raw, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, CacheInvalid) as e:
        raise CacheInvalid(f"cannot read cache file {path}: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        raise CacheInvalid(f"cache file {path} has an unsupported layout")
    if payload.keys() != _KEYS:
        raise CacheInvalid(f"cache file {path} holds the keys {sorted(payload)}, not exactly "
                           f"{sorted(_KEYS)}")
    expected = path.stem  # the file is named by the setup's fingerprint
    if payload.get("fingerprint") != expected:
        raise CacheInvalid(
            f"cache file {path} was built for a different setup "
            f"(found {payload.get('fingerprint')!r}, expected {expected!r})")
    if raw[:_BODY_START] != _digest_head(b"{" + raw[_BODY_START:]):
        raise CacheInvalid(f"cache file {path} does not match its sha256 digest")
    ids = reg.import_state(payload.get("classes"))
    try:
        _load_tables(reg, ids, payload.get("tables"))
    except (CacheInvalid, KeyError, TypeError, ValueError, AttributeError) as e:
        raise CacheInvalid(f"cache file {path} holds a bad subobject table: {e}") from None
    return True


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; CacheInvalid when it repeats a key, of which
    json would keep the last copy only, so that a file holding two is refused."""
    out = dict(pairs)
    if len(out) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise CacheInvalid(f"an object repeats the key {repeated!r}")
    return out


def _load_tables(reg: ClassRegistry, ids: dict, tables: dict) -> None:
    """Check the stored tables against the loaded classes ids and put them in
    reg's subobject_table memo and its store of Hall tables (the same dict
    in both); raises CacheInvalid (or KeyError, TypeError, ValueError,
    AttributeError on a malformed layout) at the first bad one."""
    memo, store = reg.memo("subobject_table"), reg.memo("hall_tables")
    for key, groups in tables.items():
        cd = dims_of_key(key)
        c_ids = ids.get(cd)
        if c_ids is None:
            raise CacheInvalid(f"tables of dims {cd}, of which the file holds no class")
        # d -> _table_dims(...), checked once per dims of c: without this memo
        # a warm Kronecker load (classes and hall to total dim 4) took 2.22
        # against 1.80 ms, medians of 400 alternating in-process loads on a
        # 2-vCPU machine.  A bool or float equals an int in a dict key, so the
        # types are compared first.
        fits: dict = {}
        int_types, last_c = [int] * len(cd), -1
        for ci, *by_dims in groups:
            if type(ci) is not int or not 0 <= ci < len(c_ids):
                raise CacheInvalid(f"the file holds no class {class_name(cd, ci)}")
            if ci <= last_c:
                raise CacheInvalid(f"the tables of dims {cd} do not increase by class at {ci}")
            c, last_c, last_d = c_ids[ci], ci, ()
            if not _walked(reg, c):
                raise CacheInvalid(f"no route reads a table of {class_name(cd, ci)}")
            for d, flat in by_dims:
                d = tuple(d)
                fit = fits.get(d) if list(map(type, d)) == int_types else None
                if fit is None:
                    fit = fits[d] = _table_dims(ids, cd, d, ci)
                qd, quots, subs = fit
                if d <= last_d:
                    raise CacheInvalid(f"the tables of {class_name(cd, ci)} do not increase "
                                       f"by dims at {d}")
                last_d, table = d, {}
                slot = (c, d)
                memo[slot] = store[slot] = table
                if len(flat) % 3:
                    raise CacheInvalid(f"the table of {class_name(cd, ci)} by dims {d} holds "
                                       f"{len(flat)} numbers, not (quotient, subobject, count) "
                                       f"triples")
                nq, ns, last = len(quots), len(subs), -1
                it = iter(flat)
                for qi, si, n in zip(it, it, it):
                    if not (type(qi) is type(si) is type(n) is int
                            and 0 <= qi < nq and 0 <= si < ns and n > 0):
                        names = [class_name(x, i) if type(i) is int else repr(i)
                                 for x, i in ((qd, qi), (d, si))]
                        raise CacheInvalid(f"entry {[qi, si, n]} ({', '.join(names)}) is no "
                                           f"(quotient, subobject, positive count) of "
                                           f"{class_name(cd, ci)} by dims {d}")
                    if si * nq + qi <= last:
                        raise CacheInvalid(f"the entries of {class_name(cd, ci)} by dims {d} do "
                                           f"not strictly increase by (subobject, quotient) at "
                                           f"{[qi, si, n]}")
                    last = si * nq + qi
                    table[quots[qi], subs[si]] = n


def _table_dims(ids: dict, cd: tuple, d: tuple, ci: int) -> tuple:
    """(dims c - d, the classes of dims c - d and of d) for the tables of
    class ci of dims cd by subobject dims d, after checking that a route
    reads them and that the file holds both dims."""
    if len(d) != len(cd) or not all(type(x) is int and 0 <= x <= y for x, y in zip(d, cd)):
        raise CacheInvalid(f"subobject dims {d} do not fit in {class_name(cd, ci)}")
    if not any(d) or d == cd:
        raise CacheInvalid(f"no route reads a table of {class_name(cd, ci)} by dims {d}")
    qd = dims_sub(cd, d)
    quots, subs = ids.get(qd), ids.get(d)
    if quots is None or subs is None:
        raise CacheInvalid(f"the table of {class_name(cd, ci)} by dims {d} reads classes of "
                           f"dims {qd} and {d}, not all of which the file holds")
    return qd, quots, subs
