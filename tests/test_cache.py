"""On-disk cache: roundtrips, fingerprints, and rejection of stale files."""
from __future__ import annotations

import json
import sys
import threading

import pytest

from hallforge.cache import (CACHE_ENV_VAR, cache_directory, cache_path,
                             load_cache, save_cache, setup_fingerprint)
from hallforge.errors import CacheInvalid
from hallforge.hall import hall_number
from hallforge.quivers import line_quiver
from hallforge.reps import ClassRegistry


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


def test_roundtrip_restores_everything(tmp_path):
    reg = warm_registry()
    path = save_cache(reg, 0, tmp_path)
    assert path is not None and path.exists()

    fresh = ClassRegistry(line_quiver(2), 2)
    assert load_cache(fresh, 0, tmp_path) is True
    for dims in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        assert [reg.class_id_str(c) for c in reg.classes(dims)] \
            == [fresh.class_id_str(c) for c in fresh.classes(dims)]
        for c in fresh.classes(dims):
            assert fresh.orbit_size(c) == reg.orbit_size(c)
            assert fresh.aut_count(c) == reg.aut_count(c)
    assert fresh.memo("hall_number") == reg.memo("hall_number")
    # A re-save of the loaded state reproduces the file byte for byte.
    again = save_cache(fresh, 0, tmp_path)
    assert again.read_bytes() == path.read_bytes()


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
        "format": 1,
        "fingerprint": setup_fingerprint(reg.quiver, 2, 0),
        "q": 2,
        "t": 0,
        "registry": {"classes": {"1": [{"mats": "nonsense", "orbit": "x"}]}},
        "hall_numbers": [],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
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
    """Save a warm A2 registry, apply edit to the stored classes, reload."""
    reg = warm_registry()
    path = save_cache(reg, 0, tmp_path)
    payload = json.loads(path.read_text())
    edit(payload["registry"]["classes"])
    path.write_text(json.dumps(payload))
    load_cache(ClassRegistry(line_quiver(2), 2), 0, tmp_path)


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
