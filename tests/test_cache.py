"""On-disk cache: roundtrips, fingerprints, and rejection of stale files."""
from __future__ import annotations

import json
import sys
import threading

import pytest

from hallforge.cache import (CACHE_ENV_VAR, CACHE_FORMAT, cache_directory,
                             cache_path, encode_cache, load_cache, save_cache,
                             setup_fingerprint)
from hallforge.errors import CacheInvalid
from hallforge.hall import hall_number, subquotient_tables
from hallforge.quivers import line_quiver, quiver_from_dict
from hallforge.reps import ClassRegistry, Rep

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


def test_roundtrip_restores_everything(tmp_path):
    reg = warm_kronecker()
    path = save_cache(reg, 0, tmp_path)
    assert path is not None and path.exists()

    fresh = ClassRegistry(KRONECKER, 2)
    assert load_cache(fresh, 0, tmp_path) is True
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
    again = save_cache(fresh, 0, tmp_path)
    assert again.read_bytes() == path.read_bytes()


def test_saved_bytes_do_not_depend_on_the_walk_order(tmp_path):
    first = save_cache(warm_kronecker(), 0, tmp_path).read_bytes()
    assert save_cache(warm_kronecker(reverse=True), 0, tmp_path).read_bytes() == first


def test_saved_file_holds_no_zero_count(tmp_path):
    reg = warm_kronecker()
    assert 0 in {hall_number(reg, a, b, c) for c in reg.classes((1, 2))
                 for a in reg.classes((1, 1)) for b in reg.classes((0, 1))}
    payload = json.loads(save_cache(reg, 0, tmp_path).read_text())
    counts = [n for _, _, entries in payload["subobject_tables"] for _, _, n in entries]
    assert counts and min(counts) > 0


def test_closed_form_quiver_file_holds_class_data_only(tmp_path):
    reg = warm_registry()
    for c in reg.classes((2, 1)):
        subquotient_tables(reg, c)
    assert reg.memo("closed_form_table")
    payload = json.loads(save_cache(reg, 0, tmp_path).read_text())
    assert payload["subobject_tables"] == []
    assert set(payload) == {"sha256", "format", "fingerprint", "q", "t", "registry",
                            "subobject_tables"}


def test_load_without_file_or_directory(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    reg = ClassRegistry(line_quiver(1), 2)
    assert load_cache(reg, 0, tmp_path) is False  # directory set, nothing saved
    assert load_cache(reg, 0) is False            # no directory at all
    assert save_cache(reg, 0) is None
    assert cache_path(reg.quiver, 2, 0) is None


def test_cache_directory_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert cache_directory() is None
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert cache_directory() == tmp_path / "env"
    assert cache_directory(tmp_path / "arg") == tmp_path / "arg"


def test_env_var_drives_save_and_load(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    reg = warm_registry()
    path = save_cache(reg, 0)
    assert path is not None and path.parent == tmp_path
    fresh = ClassRegistry(line_quiver(2), 2)
    assert load_cache(fresh, 0) is True


def test_corrupt_json_is_rejected(tmp_path):
    reg = ClassRegistry(line_quiver(1), 2)
    path = cache_path(reg.quiver, 2, 0, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    with pytest.raises(CacheInvalid):
        load_cache(reg, 0, tmp_path)


def test_wrong_format_is_rejected(tmp_path):
    reg = ClassRegistry(line_quiver(1), 2)
    path = cache_path(reg.quiver, 2, 0, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format": 99}))
    with pytest.raises(CacheInvalid):
        load_cache(reg, 0, tmp_path)


def test_foreign_fingerprint_is_rejected(tmp_path):
    reg = warm_registry()
    save_cache(reg, 0, tmp_path)
    saved = cache_path(reg.quiver, 2, 0, tmp_path)
    # Plant the t=0 payload at the path expected for t=1.
    other = cache_path(reg.quiver, 2, 1, tmp_path)
    other.write_text(saved.read_text())
    fresh = ClassRegistry(line_quiver(2), 2)
    with pytest.raises(CacheInvalid):
        load_cache(fresh, 1, tmp_path)


def test_bad_registry_state_is_rejected(tmp_path):
    reg = ClassRegistry(line_quiver(1), 2)
    path = cache_path(reg.quiver, 2, 0, tmp_path)
    payload = {
        "format": CACHE_FORMAT,
        "fingerprint": setup_fingerprint(reg.quiver, 2, 0),
        "q": 2,
        "t": 0,
        "registry": {"classes": {"1": [{"mats": "nonsense", "orbit": "x"}]}},
        "subobject_tables": [],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_cache(payload))
    with pytest.raises(CacheInvalid):
        load_cache(reg, 0, tmp_path)


def test_fingerprint_separates_setups():
    a1, a2 = line_quiver(1), line_quiver(2)
    fp = setup_fingerprint(a1, 2, 0)
    assert fp == setup_fingerprint(a1, 2, 0)
    assert fp != setup_fingerprint(a2, 2, 0)
    assert fp != setup_fingerprint(a1, 3, 0)
    assert fp != setup_fingerprint(a1, 2, 1)
    assert len(fp) == 64 and all(c in "0123456789abcdef" for c in fp)


def _tamper(tmp_path, edit):
    """Save a warm A2 registry, apply edit to the stored classes, write the
    file again under a fresh digest, reload: what the registry checks catch
    in a file whose digest holds."""
    reg = warm_registry()
    path = save_cache(reg, 0, tmp_path)
    payload = json.loads(path.read_text())
    del payload["sha256"]
    edit(payload["registry"]["classes"])
    path.write_bytes(encode_cache(payload))
    load_cache(ClassRegistry(line_quiver(2), 2), 0, tmp_path)


def test_file_is_json_led_by_the_digest_of_its_body(tmp_path):
    path = save_cache(warm_registry(), 0, tmp_path)
    payload = json.loads(path.read_text())
    assert list(payload)[0] == "sha256" and payload["format"] == CACHE_FORMAT
    del payload["sha256"]
    assert path.read_bytes() == encode_cache(payload)


@pytest.mark.parametrize("old,new", [(b'"k1.1#1",[0,1],[["k1.0","k0.1",1]]]',
                                      b'"k1.1#1",[0,1],[["k1.0","k0.1",2]]]'),
                                     (b'"sha256":"', b'"sha256":"0')],
                         ids=["hall-number", "digest"])
def test_edited_bytes_break_the_digest(tmp_path, old, new):
    path = save_cache(warm_kronecker(), 0, tmp_path)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(CacheInvalid, match="digest"):
        load_cache(ClassRegistry(KRONECKER, 2), 0, tmp_path)


def _reseal_tables(tmp_path, edit):
    """Save a warm Kronecker registry, apply edit to its stored subobject tables,
    write the file again under a fresh digest, reload: what the table checks
    catch in a file whose digest holds."""
    path = save_cache(warm_kronecker(), 0, tmp_path)
    payload = json.loads(path.read_text())
    del payload["sha256"]
    edit(payload["subobject_tables"])
    path.write_bytes(encode_cache(payload))
    load_cache(ClassRegistry(KRONECKER, 2), 0, tmp_path)


def _table(tables, c, d):
    return next(entries for c2, d2, entries in tables if (c2, d2) == (c, d))


def test_a_table_of_a_split_class_is_rejected(tmp_path):
    def add_split_table(tables):
        tables.append(["k1.1", [0, 1], [["k1.0", "k0.1", 1]]])
    with pytest.raises(CacheInvalid, match="no route reads"):
        _reseal_tables(tmp_path, add_split_table)


def test_a_table_on_a_vertex_disjoint_quiver_is_rejected(tmp_path):
    reg = warm_registry()
    path = save_cache(reg, 0, tmp_path)
    payload = json.loads(path.read_text())
    del payload["sha256"]
    payload["subobject_tables"] = [["k1.1#1", [0, 1], [["k1.0", "k0.1", 1]]]]
    path.write_bytes(encode_cache(payload))
    with pytest.raises(CacheInvalid, match="no route reads"):
        load_cache(ClassRegistry(line_quiver(2), 2), 0, tmp_path)


@pytest.mark.parametrize("d,entry", [([0, 0], ["k1.1#1", "k0.0", 1]),
                                     ([1, 1], ["k0.0", "k1.1#1", 1])], ids=["zero", "whole"])
def test_a_trivial_table_is_rejected(tmp_path, d, entry):
    def add_trivial_table(tables):
        tables.append(["k1.1#1", d, [entry]])
    with pytest.raises(CacheInvalid, match="no route reads"):
        _reseal_tables(tmp_path, add_trivial_table)


@pytest.mark.parametrize("d", [[2, 0], [0], [0, 1, 0], [-1, 2], [0, 1.5], "01"])
def test_table_dims_must_fit_in_the_class(tmp_path, d):
    def add_table(tables):
        tables.append(["k1.1#1", d, []])
    with pytest.raises(CacheInvalid, match="do not fit"):
        _reseal_tables(tmp_path, add_table)


@pytest.mark.parametrize("entry", [["k0.1", "k1.0", 1], ["k1.1", "k0.0", 1]],
                         ids=["swapped", "wrong-dims"])
def test_an_entry_must_be_quotient_and_subobject_of_the_table_dims(tmp_path, entry):
    def misplace(tables):
        _table(tables, "k1.1#1", [0, 1])[0] = entry
    with pytest.raises(CacheInvalid, match="is no .quotient, subobject"):
        _reseal_tables(tmp_path, misplace)


@pytest.mark.parametrize("count", [0, -1, 1.0, "1", True, None])
def test_a_count_must_be_a_positive_int(tmp_path, count):
    def recount(tables):
        _table(tables, "k1.1#1", [0, 1])[0][2] = count
    with pytest.raises(CacheInvalid, match="positive count"):
        _reseal_tables(tmp_path, recount)


@pytest.mark.parametrize("where", [0, 1], ids=["table", "entry"])
def test_an_unknown_class_id_is_rejected(tmp_path, where):
    def rename(tables):
        if where == 0:
            tables[0][0] = "k1.1#9"
        else:
            _table(tables, "k1.1#1", [0, 1])[0][0] = "k5.0"
    with pytest.raises(CacheInvalid, match="k1.1#9|k5.0"):
        _reseal_tables(tmp_path, rename)


def test_stored_aut_must_satisfy_orbit_stabilizer(tmp_path):
    def double_aut(classes):
        classes["1,1"][1]["aut"] *= 2
    with pytest.raises(CacheInvalid, match="aut"):
        _tamper(tmp_path, double_aut)


def test_stored_orbits_must_partition_the_matrix_tuples(tmp_path):
    def drop_aut_and_double_orbit(classes):
        row = classes["1,1"][1]
        row["aut"] = None
        row["orbit"] *= 2
    with pytest.raises(CacheInvalid, match="add up"):
        _tamper(tmp_path, drop_aut_and_double_orbit)


@pytest.mark.parametrize("entry", [2, 3, -1, "1", True, 1.0, None])
def test_a_matrix_entry_must_be_an_int_in_range_p(tmp_path, entry):
    def set_entry(classes):
        classes["1,1"][1]["mats"][0][0][0] = entry
    with pytest.raises(CacheInvalid, match=r"not an int in range\(2\)"):
        _tamper(tmp_path, set_entry)


@pytest.mark.parametrize("edit,message", [
    (lambda mats: mats.append([[0, 0]]), "2 matrices for 1 arrows"),
    (lambda mats: mats.clear(), "0 matrices for 1 arrows"),
    (lambda mats: mats[0].append([0, 0]), "a matrix is not 1x2"),
    (lambda mats: mats[0].clear(), "a matrix is not 1x2"),
    (lambda mats: mats[0][0].append(0), "a matrix is not 1x2"),
    (lambda mats: mats[0][0].__setitem__(1, 2), r"a matrix entry is not an int in range\(2\)"),
], ids=["extra-matrix", "no-matrix", "extra-row", "no-row", "long-row", "entry"])
def test_a_bad_class_is_rejected_at_load_though_nothing_reads_it(tmp_path, edit, message):
    # Class 1 of dims (2, 1): load_cache builds no representative, so each
    # check has to run on the stored entries while the file loads.
    def edit_k21_1(classes):
        edit(classes["2,1"][1]["mats"])
    with pytest.raises(CacheInvalid, match=r"class 1 of dims \(2, 1\): " + message):
        _tamper(tmp_path, edit_k21_1)


def test_loaded_representatives_are_built_on_first_use(tmp_path, monkeypatch):
    reg = warm_kronecker()
    save_cache(reg, 0, tmp_path)
    fresh = ClassRegistry(KRONECKER, 2)
    built = []
    monkeypatch.setattr(Rep, "__post_init__", lambda rep: built.append(rep))
    assert load_cache(fresh, 0, tmp_path)
    assert built == []
    monkeypatch.undo()
    for dims in [(1, 1), (1, 2)]:
        assert [fresh.representative(c) for c in fresh.classes(dims)] \
            == [reg.representative(c) for c in reg.classes(dims)]
    assert fresh.export_state() == reg.export_state()


def test_class_0_must_be_the_all_zero_tuple(tmp_path):
    def swap_classes(classes):
        classes["1,1"].reverse()
    with pytest.raises(CacheInvalid, match="class 0 of dims .1, 1. is not the all-zero"):
        _tamper(tmp_path, swap_classes)


def test_two_equal_representatives_are_rejected(tmp_path):
    # With k1.1#1's matrix zeroed, the file passes every count check, and
    # k1.1#1 would get the split class's subobjects.
    def zero_k11_1(classes):
        classes["1,1"][1]["mats"] = [[[0]]]
    with pytest.raises(CacheInvalid, match="two equal representatives"):
        _tamper(tmp_path, zero_k11_1)


@pytest.mark.parametrize("second,third", [
    ({"mats": [[[0, 1], [1, 0]]], "orbit": 6, "aut": 6},
     {"mats": [[[0, 0], [0, 1]]], "orbit": 9, "aut": 4}),
    ({"mats": [[[0, 0], [0, 1]]], "orbit": 9, "aut": 4},
     {"mats": [[[1, 0], [0, 0]]], "orbit": 6, "aut": 6}),
], ids=["ranks-0-2-1", "ranks-0-1-1"])
def test_rank_tuples_must_strictly_increase_on_a_rank_classified_quiver(tmp_path, second,
                                                                      third):
    # A2 over F_2, dims (2, 2): three distinct classes, the first all zero,
    # whose orbits add up to 2^4 and satisfy |Aut| * orbit = |GL_2|^2 = 36.
    def add_dims(classes):
        classes["2,2"] = [{"mats": [[[0, 0], [0, 0]]], "orbit": 1, "aut": 36}, second, third]
    with pytest.raises(CacheInvalid, match="rank tuples of dims .2, 2. do not increase"):
        _tamper(tmp_path, add_dims)


def test_concurrent_writers_do_not_share_a_temp_file(tmp_path):
    reg = warm_registry()
    errors = []

    def writer():
        try:
            for _ in range(25):
                save_cache(reg, 0, tmp_path)
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
    assert [p.name for p in tmp_path.iterdir()] == [cache_path(reg.quiver, 2, 0, tmp_path).name]
    assert load_cache(ClassRegistry(line_quiver(2), 2), 0, tmp_path) is True
