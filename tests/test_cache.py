"""On-disk cache: roundtrips, fingerprints, and rejection of stale files."""
from __future__ import annotations

import json
import re
import sys
import threading

import pytest

from hallforge.cache import (CACHE_ENV_VAR, CACHE_FORMAT, _digest_head, cache_directory,
                             cache_path, encode_cache, load_cache, save_cache,
                             setup_fingerprint)
from hallforge.errors import CacheInvalid
from hallforge.hall import _subobject_table, hall_number, subquotient_tables
from hallforge.quivers import line_quiver, quiver_from_dict
from hallforge.reps import ClassRegistry, Rep

# Every test here saves and loads under a fresh $HALLFORGE_CACHE directory.
pytestmark = pytest.mark.usefixtures("cache_dir")

KRONECKER = quiver_from_dict({"vertices": ["1", "2"],
                              "arrows": [{"src": "1", "dst": "2", "label": "a"},
                                         {"src": "1", "dst": "2", "label": "b"}]})


def warm_registry():
    reg = ClassRegistry(line_quiver(2), 2)
    for dims in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for cls in reg.classes(dims):
            reg.aut_count(cls)
    s1 = reg.classes((1, 0))[0]
    s2 = reg.classes((0, 1))[0]
    for c in reg.classes((1, 1)):
        hall_number(reg, s1, s2, c)
    return reg


def warm_kronecker(reverse=False):
    """A Kronecker registry over F_2 that walked every class of dims (1,1) and (1,2)."""
    reg = ClassRegistry(KRONECKER, 2)
    for dims in [(1, 2), (1, 1)] if reverse else [(1, 1), (1, 2)]:
        for c in reg.classes(dims)[::-1 if reverse else 1]:
            reg.aut_count(c)
            subquotient_tables(reg, c)
    return reg


def test_roundtrip_restores_everything():
    reg = warm_kronecker()
    path = save_cache(reg, 0)
    assert path is not None and path.exists()

    fresh = ClassRegistry(KRONECKER, 2)
    assert load_cache(fresh, 0) is True
    for dims in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        assert [reg.class_id_str(c) for c in reg.classes(dims)] \
            == [fresh.class_id_str(c) for c in fresh.classes(dims)]
        for c in fresh.classes(dims):
            assert fresh.orbit_size(c) == reg.orbit_size(c)
            assert fresh.aut_count(c) == reg.aut_count(c)
    assert fresh.memo("subobject_table") == reg.memo("subobject_table")
    # The 3 + 4 non-split classes of (1,1) and (1,2), each walked for all its
    # subobject dims but 0 and its own dims, whose tables have closed forms.
    assert len(fresh.memo("subobject_table")) == 3 * 2 + 4 * 4
    # A re-save of the loaded state reproduces the file byte for byte.
    again = save_cache(fresh, 0)
    assert again.read_bytes() == path.read_bytes()


D4 = quiver_from_dict({"vertices": ["1", "2", "3", "c"],
                       "arrows": [{"src": v, "dst": "c", "label": f"a{v}"} for v in "123"]})


@pytest.mark.parametrize("quiver,p", [(KRONECKER, 2), (KRONECKER, 3), (line_quiver(3), 2),
                                      (D4, 2)], ids=["Kronecker-F2", "Kronecker-F3", "A3", "D4"])
def test_save_load_save_is_byte_identical(quiver, p):
    reg = ClassRegistry(quiver, p)
    for c in reg.all_classes_total_le(3):
        reg.aut_count(c)
        subquotient_tables(reg, c)
    first = save_cache(reg, 0).read_bytes()
    fresh = ClassRegistry(quiver, p)
    assert load_cache(fresh, 0)
    assert save_cache(fresh, 0).read_bytes() == first
    # Loaded tables keep the stored (subobject index, quotient index) order.
    assert {k: list(t.items()) for k, t in fresh.memo("subobject_table").items()} \
        == {k: list(t.items()) for k, t in reg.memo("subobject_table").items()}


def test_saved_bytes_do_not_depend_on_the_walk_order():
    first = save_cache(warm_kronecker(), 0).read_bytes()
    assert save_cache(warm_kronecker(reverse=True), 0).read_bytes() == first


def test_saved_file_holds_no_zero_count():
    reg = warm_kronecker()
    assert 0 in {hall_number(reg, a, b, c) for c in reg.classes((1, 2))
                 for a in reg.classes((1, 1)) for b in reg.classes((0, 1))}
    payload = json.loads(save_cache(reg, 0).read_text())
    counts = [n for groups in payload["tables"].values() for _, *tables in groups
              for _, triples in tables for n in triples[2::3]]
    assert counts and min(counts) > 0


def test_closed_form_quiver_file_holds_class_data_only():
    reg = warm_registry()
    for c in reg.classes((2, 1)):
        subquotient_tables(reg, c)
    # The closed-form tables sit in the store of Hall tables, not in the
    # walked memo the cache writes.
    assert reg.memo("hall_tables") and not reg.memo("subobject_table")
    payload = json.loads(save_cache(reg, 0).read_text())
    assert payload["tables"] == {}
    # Aut counts, q and t are derived from what is stored or named by the fingerprint.
    assert set(payload) == {"sha256", "format", "fingerprint", "classes", "tables"}
    assert {key: set(stored) for key, stored in payload["classes"].items()} \
        == {key: {"orbit", "mats"} for key in ["1,0", "0,1", "1,1", "2,1", "2,0", "0,0"]}


def test_the_store_holds_the_walked_tables_themselves():
    # The store of Hall tables holds references: a walked table is the same
    # object in the store and in the subobject_table memo the cache writes,
    # and a load puts each table it reads in both, not copied.
    reg = warm_kronecker()
    store, walked = reg.memo("hall_tables"), reg.memo("subobject_table")
    assert walked and all(store[key] is table for key, table in walked.items())
    save_cache(reg, 0)
    fresh = ClassRegistry(KRONECKER, 2)
    assert load_cache(fresh, 0)
    store, walked = fresh.memo("hall_tables"), fresh.memo("subobject_table")
    assert store.keys() == walked.keys() == reg.memo("subobject_table").keys()
    for (c, d), table in walked.items():
        assert store[c, d] is table and _subobject_table(fresh, c, d) is table
    fresh.clear()
    assert not fresh.memo("hall_tables") and not fresh.memo("subobject_table")


def test_load_without_file_or_directory(monkeypatch):
    reg = ClassRegistry(line_quiver(1), 2)
    assert load_cache(reg, 0) is False  # directory set, nothing saved
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert load_cache(reg, 0) is False  # no directory at all
    assert save_cache(reg, 0) is None
    assert cache_path(reg.quiver, 2, 0) is None


def test_cache_directory_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert cache_directory() is None
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert cache_directory() == tmp_path / "env"


def test_env_var_drives_save_and_load(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    reg = warm_registry()
    path = save_cache(reg, 0)
    assert path is not None and path.parent == tmp_path
    fresh = ClassRegistry(line_quiver(2), 2)
    assert load_cache(fresh, 0) is True


def test_corrupt_json_is_rejected():
    reg = ClassRegistry(line_quiver(1), 2)
    path = cache_path(reg.quiver, 2, 0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    with pytest.raises(CacheInvalid):
        load_cache(reg, 0)


def test_wrong_format_is_rejected():
    reg = ClassRegistry(line_quiver(1), 2)
    path = cache_path(reg.quiver, 2, 0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format": 99}))
    with pytest.raises(CacheInvalid):
        load_cache(reg, 0)


def test_foreign_fingerprint_is_rejected():
    reg = warm_registry()
    save_cache(reg, 0)
    saved = cache_path(reg.quiver, 2, 0)
    # Plant the t=0 payload at the path expected for t=1.
    other = cache_path(reg.quiver, 2, 1)
    other.write_text(saved.read_text())
    fresh = ClassRegistry(line_quiver(2), 2)
    with pytest.raises(CacheInvalid):
        load_cache(fresh, 1)


def test_bad_registry_state_is_rejected():
    reg = ClassRegistry(line_quiver(1), 2)
    reg.classes((1,))

    def nonsense(payload):
        payload["classes"] = {"1": {"mats": "nonsense", "orbit": "x"}}
    reseal(save_cache(reg, 0), nonsense)
    with pytest.raises(CacheInvalid):
        load_cache(ClassRegistry(line_quiver(1), 2), 0)


def test_a_repeated_key_is_rejected():
    # json.loads keeps the last of two equal keys, so a junk class entry
    # before the real "1,1" one would be dropped without a word.
    def repeat_key(payload):
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return text.replace('"classes":{', '"classes":{"1,1":{"mats":[],"orbit":[]},', 1)
    reseal(save_cache(warm_kronecker(), 0), repeat_key)
    with pytest.raises(CacheInvalid, match="repeats the key '1,1'"):
        load_cache(ClassRegistry(KRONECKER, 2), 0)


def test_a_top_level_key_outside_the_layout_is_rejected():
    # 1 KB beside the five keys save_cache writes would be bytes no check reads.
    def add_junk(payload):
        payload["junk"] = "x" * 1024
    reseal(save_cache(warm_registry(), 0), add_junk)
    with pytest.raises(CacheInvalid, match=r"holds the keys \[.*'junk'.*\], not exactly"):
        load_cache(ClassRegistry(line_quiver(2), 2), 0)


def test_a_dims_holds_exactly_orbit_and_mats():
    # |Aut| is derived from the orbits, so a stale Aut list beside them is refused.
    def stale_aut(classes):
        classes["1,1"]["aut"] = [999, 999]
    with pytest.raises(CacheInvalid, match=r"dims \(1, 1\) store the keys "
                                           r"\['aut', 'mats', 'orbit'\], not exactly"):
        _tamper(stale_aut)


def test_fingerprint_separates_setups():
    a1, a2 = line_quiver(1), line_quiver(2)
    fp = setup_fingerprint(a1, 2, 0)
    assert fp == setup_fingerprint(a1, 2, 0)
    assert fp != setup_fingerprint(a2, 2, 0)
    assert fp != setup_fingerprint(a1, 3, 0)
    assert fp != setup_fingerprint(a1, 2, 1)
    assert len(fp) == 64 and all(c in "0123456789abcdef" for c in fp)


def reseal(path, edit):
    """Apply edit to the payload of the cache file at path and write the file
    again under a fresh digest, so that what a load rejects is caught by its
    checks of the content, not by the digest.  An edit that returns a str
    gives the payload's JSON text itself, for a layout no dict can hold.
    Returns path."""
    payload = json.loads(path.read_text())
    del payload["sha256"]
    text = edit(payload)
    if isinstance(text, str):
        body = text.encode("utf-8")
        path.write_bytes(_digest_head(body) + body[1:])
    else:
        path.write_bytes(encode_cache(payload))
    return path


def _tamper(edit):
    """Reload a warm A2 registry's file after edit(its stored classes)."""
    reseal(save_cache(warm_registry(), 0), lambda payload: edit(payload["classes"]))
    load_cache(ClassRegistry(line_quiver(2), 2), 0)


def test_file_is_json_led_by_the_digest_of_its_body():
    path = save_cache(warm_registry(), 0)
    payload = json.loads(path.read_text())
    assert list(payload)[0] == "sha256" and payload["format"] == CACHE_FORMAT
    del payload["sha256"]
    assert path.read_bytes() == encode_cache(payload)


@pytest.mark.parametrize("old,new", [(b'[1,[[0,1],[0,0,1]]', b'[1,[[0,1],[0,0,2]]'),
                                     (b'"sha256":"', b'"sha256":"0')],
                         ids=["hall-number", "digest"])
def test_edited_bytes_break_the_digest(old, new):
    path = save_cache(warm_kronecker(), 0)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(CacheInvalid, match="digest"):
        load_cache(ClassRegistry(KRONECKER, 2), 0)


def _reseal_tables(edit):
    """Reload a warm Kronecker registry's file after edit(its stored tables)."""
    reseal(save_cache(warm_kronecker(), 0), lambda payload: edit(payload["tables"]))
    load_cache(ClassRegistry(KRONECKER, 2), 0)


def _group(tables, dims, index):
    """The stored [index, [d, triples], ...] of class index of dims."""
    return next(g for g in tables[dims] if g[0] == index)


def _triples(tables, dims, index, d):
    """The stored flat (quotient index, subobject index, count) list of one table."""
    return next(triples for d2, triples in _group(tables, dims, index)[1:] if d2 == d)


def test_a_table_of_a_split_class_is_rejected():
    def add_split_table(tables):
        tables["1,1"].insert(0, [0, [[0, 1], [0, 0, 1]]])
    with pytest.raises(CacheInvalid, match="no route reads"):
        _reseal_tables(add_split_table)


def test_a_table_on_a_vertex_disjoint_quiver_is_rejected():
    def add_table(payload):
        payload["tables"] = {"1,1": [[1, [[0, 1], [0, 0, 1]]]]}
    reseal(save_cache(warm_registry(), 0), add_table)
    with pytest.raises(CacheInvalid, match="no route reads"):
        load_cache(ClassRegistry(line_quiver(2), 2), 0)


# The entry of (1,1) by d = 0 is (quotient k1.1#1, subobject k0.0), by d = (1,1)
# (quotient k0.0, subobject k1.1#1).
@pytest.mark.parametrize("d,entry", [([0, 0], [1, 0, 1]), ([1, 1], [0, 1, 1])],
                         ids=["zero", "whole"])
def test_a_trivial_table_is_rejected(d, entry):
    def add_trivial_table(tables):
        _group(tables, "1,1", 1).append([d, entry])
    with pytest.raises(CacheInvalid, match="no route reads"):
        _reseal_tables(add_trivial_table)


@pytest.mark.parametrize("d", [[2, 0], [0], [0, 1, 0], [-1, 2], [0, 1.5], "01"])
def test_table_dims_must_fit_in_the_class(d):
    def add_table(tables):
        _group(tables, "1,1", 1).append([d, []])
    with pytest.raises(CacheInvalid, match="do not fit"):
        _reseal_tables(add_table)


# k1.2#1 by d = (0, 1) stores (k1.1, k0.1, 1) and (k1.1#1, k0.1, 2): 4 quotient
# classes of dims (1, 1) and 1 subobject class.  With the second entry's
# indices swapped, subobject index 1 names no class of dims (0, 1); quotient
# index 4 names a class of dims c = (1, 2), not of dims c - d.  The other
# cases put an index out of range or make it no int; True and False equal an
# index in range.
@pytest.mark.parametrize("entry", [
    [0, 1, 2], [4, 0, 2],
    [-1, 0, 2], ["1", 0, 2], [True, 0, 2], [1.0, 0, 2], [None, 0, 2],
    [1, -1, 2], [1, "0", 2], [1, False, 2], [1, 0.0, 2], [1, None, 2],
], ids=["swapped", "wrong-dims", *(f"{side}-{kind}" for side in ("quotient", "subobject")
                                  for kind in ("negative", "string", "bool", "float", "null"))])
def test_an_entry_must_be_quotient_and_subobject_of_the_table_dims(entry):
    def misplace(tables):
        _triples(tables, "1,2", 1, [0, 1])[3:] = entry
    with pytest.raises(CacheInvalid, match="is no .quotient, subobject"):
        _reseal_tables(misplace)


@pytest.mark.parametrize("count", [0, -1, 1.0, "1", True, None])
def test_a_count_must_be_a_positive_int(count):
    def recount(tables):
        _triples(tables, "1,1", 1, [0, 1])[2] = count
    with pytest.raises(CacheInvalid, match="positive count"):
        _reseal_tables(recount)


@pytest.mark.parametrize("where", [0, 1], ids=["table", "entry"])
def test_an_unknown_class_id_is_rejected(where):
    # Class index 9 of dims (1, 1), as a table's class or as the quotient
    # of k1.2#1 by d = (0, 1), whose quotient dims are (1, 1).
    def rename(tables):
        if where == 0:
            tables["1,1"][-1][0] = 9
        else:
            _triples(tables, "1,2", 1, [0, 1])[0] = 9
    with pytest.raises(CacheInvalid, match="k1.1#9|k5.0"):
        _reseal_tables(rename)


@pytest.mark.parametrize("extra", [[0], [0, 1]], ids=["one", "two"])
def test_a_triple_list_must_hold_whole_triples(extra):
    def lengthen(tables):
        _triples(tables, "1,2", 1, [1, 1]).extend(extra)
    with pytest.raises(CacheInvalid, match=r"not \(quotient, subobject, count\) triples"):
        _reseal_tables(lengthen)


@pytest.mark.parametrize("triples", [[0, 0, 1, 0, 0, 1], [1, 0, 2, 0, 0, 1]],
                         ids=["duplicate", "descending"])
def test_entries_must_strictly_increase_by_subobject_then_quotient(triples):
    # A duplicated (quotient, subobject) entry would let the later count win.
    def reorder(tables):
        _triples(tables, "1,2", 1, [0, 1])[:] = triples
    with pytest.raises(CacheInvalid, match="do not strictly increase"):
        _reseal_tables(reorder)


@pytest.mark.parametrize("edit,message", [
    (lambda tables: tables["1,1"].append(tables["1,1"][-1]), "do not increase by class"),
    (lambda tables: _group(tables, "1,2", 1).append(_group(tables, "1,2", 1)[1]),
     "do not increase by dims"),
    # int() reads " 1" and "+1" as 1, so an aliased key could store a group again.
    (lambda tables: tables.__setitem__(" 1,1", tables["1,1"]),
     "dims key ' 1,1' is not written as '1,1'"),
    (lambda tables: tables.__setitem__("1,+1", tables["1,1"]),
     r"dims key '1,\+1' is not written as '1,1'"),
], ids=["class", "dims", "key-space", "key-plus"])
def test_a_table_is_stored_once(edit, message):
    with pytest.raises(CacheInvalid, match=message):
        _reseal_tables(edit)


@pytest.mark.parametrize("edit,message,absent", [
    (lambda payload: payload["tables"].__setitem__("2,2", [[1, [[0, 1], []]]]),
     r"tables of dims \(2, 2\), of which the file holds no class", (2, 2)),
    (lambda payload: payload["classes"].pop("0,2"),
     r"reads classes of dims \(1, 0\) and \(0, 2\)", (0, 2)),
], ids=["class-dims", "subobject-dims"])
def test_a_table_whose_dims_are_not_in_the_file_is_rejected(edit, message, absent):
    # Indices resolve only against the file's classes, so none starts an enumeration.
    reseal(save_cache(warm_kronecker(), 0), edit)
    fresh = ClassRegistry(KRONECKER, 2)
    with pytest.raises(CacheInvalid, match=message):
        load_cache(fresh, 0)
    assert absent not in fresh._classes


def test_stored_aut_must_satisfy_orbit_stabilizer():
    # |Aut| is read as |GL| / orbit, so an orbit that does not divide |GL| = 1
    # of dims (1, 1) is refused.
    def double_orbit(classes):
        classes["1,1"]["orbit"][1] *= 2
    with pytest.raises(CacheInvalid, match=r"orbit 2 is no positive int dividing \|GL\| = 1"):
        _tamper(double_orbit)


@pytest.mark.parametrize("orbit", [4, 5, 0, -3, True, 3.0, "3", None])
def test_an_orbit_must_be_a_positive_int_dividing_gl(orbit):
    # Class 1 of dims (2, 1) in A2 over F_2 has orbit 3 under |GL| = 6.
    def set_orbit(classes):
        classes["2,1"]["orbit"][1] = orbit
    with pytest.raises(CacheInvalid, match=r"class 1 of dims \(2, 1\): stored .*orbit"):
        _tamper(set_orbit)


def test_each_stored_orbit_has_one_representative():
    # Without a representative, the orbits of dims (2, 1) would still add up.
    def drop_a_representative(classes):
        classes["2,1"]["mats"].pop()
    with pytest.raises(CacheInvalid, match="zip.. argument 2 is longer than argument 1"):
        _tamper(drop_a_representative)


def test_stored_orbits_must_partition_the_matrix_tuples():
    # Doubled, the orbit 3 of class 1 of dims (2, 1) still divides |GL| = 6.
    def double_orbit(classes):
        classes["2,1"]["orbit"][1] *= 2
    with pytest.raises(CacheInvalid, match="add up"):
        _tamper(double_orbit)


@pytest.mark.parametrize("entry", [2, 3, -1, "1", True, 1.0, None])
def test_a_matrix_entry_must_be_an_int_in_range_p(entry):
    # The code of a 1x1 matrix is its one entry.
    def set_entry(classes):
        classes["1,1"]["mats"][1][0] = entry
    with pytest.raises(CacheInvalid, match=r"not an int in range\(2\)"):
        _tamper(set_entry)


# The 1x2 matrix (0 1) has code 2; a second row (0 1) adds 2 * 2^2, a third
# entry 1 adds 2^2, and no code of a 1x2 matrix is negative.
@pytest.mark.parametrize("edit,message", [
    (lambda mats: mats.append(0), "2 matrices for 1 arrows"),
    (lambda mats: mats.clear(), "0 matrices for 1 arrows"),
    (lambda mats: mats.__setitem__(0, mats[0] + 8), "a matrix is not 1x2"),
    (lambda mats: mats.__setitem__(0, -1), "a matrix is not 1x2"),
    (lambda mats: mats.__setitem__(0, mats[0] + 4), "a matrix is not 1x2"),
    (lambda mats: mats.__setitem__(0, [[0, 2]]), r"a matrix entry is not an int in range\(2\)"),
    (lambda mats: mats.__setitem__(0, True), r"a matrix entry is not an int in range\(2\)"),
    (lambda mats: mats.__setitem__(0, "2"), r"a matrix entry is not an int in range\(2\)"),
    (lambda mats: mats.__setitem__(0, -2), r"a matrix is not 1x2: code -2 is not an int in range\(4\)"),
    (lambda mats: mats.__setitem__(0, 4), r"a matrix is not 1x2: code 4 is not an int in range\(4\)"),
], ids=["extra-matrix", "no-matrix", "extra-row", "no-row", "long-row", "entry",
        "code-true", "code-string", "code-negative", "code-too-large"])
def test_a_bad_class_is_rejected_at_load_though_nothing_reads_it(edit, message):
    # Class 1 of dims (2, 1): load_cache builds no representative, so each
    # check has to run on the stored codes while the file loads.
    def edit_k21_1(classes):
        edit(classes["2,1"]["mats"][1])
    with pytest.raises(CacheInvalid, match=r"class 1 of dims \(2, 1\): " + message):
        _tamper(edit_k21_1)


def test_matrix_codes_are_row_major_base_p_digits_first_entry_lowest():
    reg = ClassRegistry(KRONECKER, 3)
    c = reg.classes((1, 2))[-1]
    reg.aut_count(c)
    mats = json.loads(save_cache(reg, 0).read_text())["classes"]["1,2"]["mats"]
    want = [sum(x * 3 ** k for k, x in enumerate(row[0] for row in m.entries))
            for m in reg.representative(c).mats]
    assert mats[c.index] == want


def test_loaded_representatives_are_built_on_first_use(monkeypatch):
    reg = warm_kronecker()
    save_cache(reg, 0)
    fresh = ClassRegistry(KRONECKER, 2)
    built = []
    new = Rep.__new__
    monkeypatch.setattr(Rep, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    assert load_cache(fresh, 0)
    assert built == []
    monkeypatch.undo()
    for dims in [(1, 1), (1, 2)]:
        assert [fresh.representative(c) for c in fresh.classes(dims)] \
            == [reg.representative(c) for c in reg.classes(dims)]
    assert fresh.export_state() == reg.export_state()


@pytest.mark.parametrize("alias", ["1,1 ", "1,01", "+1,1"])
def test_a_dims_key_must_be_canonical(alias):
    # int() reads each alias as (1, 1); stored beside "1,1", one copy of the
    # dims' classes would silently replace the other.
    def alias_dims(classes):
        classes[alias] = classes["1,1"]
    with pytest.raises(CacheInvalid, match=re.escape(f"dims key '{alias}' is not written as '1,1'")):
        _tamper(alias_dims)


def test_class_0_must_be_the_all_zero_tuple():
    def swap_classes(classes):
        for column in classes["1,1"].values():
            column.reverse()
    with pytest.raises(CacheInvalid, match="class 0 of dims .1, 1. is not the all-zero"):
        _tamper(swap_classes)


def test_two_equal_representatives_are_rejected():
    # With k1.1#1's matrix zeroed, the file passes every count check, and
    # k1.1#1 would get the split class's subobjects.
    def zero_k11_1(classes):
        classes["1,1"]["mats"][1] = [0]
    with pytest.raises(CacheInvalid, match="two equal representatives"):
        _tamper(zero_k11_1)


# (code, orbit): the codes 6, 8 and 1 are the matrices [[0, 1], [1, 0]],
# [[0, 0], [0, 1]] and [[1, 0], [0, 0]].
@pytest.mark.parametrize("second,third", [
    ((6, 6), (8, 9)),
    ((8, 9), (1, 6)),
], ids=["ranks-0-2-1", "ranks-0-1-1"])
def test_rank_tuples_must_strictly_increase_on_a_rank_classified_quiver(second,
                                                                      third):
    # A2 over F_2, dims (2, 2): three distinct classes, the first all zero,
    # whose orbits add up to 2^4 and divide |GL_2|^2 = 36.
    def add_dims(classes):
        codes, orbits = zip((0, 1), second, third)
        classes["2,2"] = {"mats": [[x] for x in codes], "orbit": list(orbits)}
    with pytest.raises(CacheInvalid, match="rank tuples of dims .2, 2. do not increase"):
        _tamper(add_dims)


def test_concurrent_writers_do_not_share_a_temp_file(cache_dir):
    reg = warm_registry()
    errors = []

    def writer():
        try:
            for _ in range(25):
                save_cache(reg, 0)
        except Exception as e:  # collected and asserted on below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert [p.name for p in cache_dir.iterdir()] == [cache_path(reg.quiver, 2, 0).name]
    assert load_cache(ClassRegistry(line_quiver(2), 2), 0) is True
