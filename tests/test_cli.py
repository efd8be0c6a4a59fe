"""Command-line interface: reports, exit codes, CSV, caching, sampling."""
from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hallforge import cli
from hallforge.cache import CACHE_ENV_VAR, cache_path
from hallforge.errors import DivisionByZero, InternalInconsistency
from hallforge.quivers import line_quiver, quiver_to_dict


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def write_quiver(tmp_path, n, name="quiver.json"):
    path = tmp_path / name
    path.write_text(json.dumps(quiver_to_dict(line_quiver(n))))
    return str(path)


def test_subprocess_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hallforge", "classes"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "classes"
    assert report["results"]["count"] == 3


def test_subprocess_usage_exit_codes():
    bad_t = subprocess.run([sys.executable, "-m", "hallforge", "green", "--t", "2"],
                           capture_output=True, text=True)
    assert bad_t.returncode == 2 and bad_t.stdout == ""
    unknown = subprocess.run([sys.executable, "-m", "hallforge", "no-such-command"],
                             capture_output=True, text=True)
    assert unknown.returncode == 2


def test_classes_default_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "classes")
    assert code == 0
    assert report["command"] == "classes"
    assert report["counterexamples"] == []
    assert isinstance(report["timing_ms"], int)
    assert len(report["fingerprint"]) == 64
    rows = report["results"]["classes"]
    assert [r["id"] for r in rows] == ["k0", "k1", "k2"]
    assert rows[2] == {"dims": "2", "id": "k2", "orbit": 1, "aut": 6}


def test_classes_quiver_file_and_dim(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    qpath = write_quiver(tmp_path, 2)
    code, report, _ = run_cli(capsys, "classes", "--quiver", qpath, "--dim", "1,1")
    assert code == 0
    assert report["results"]["count"] == 2
    assert [r["id"] for r in report["results"]["classes"]] == ["k1.1", "k1.1#1"]


def test_classes_missing_quiver_file(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, err = run_cli(capsys, "classes", "--quiver", "/no/such/file.json")
    assert code == 2 and report is None and "error" in err


def test_bad_dim_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for dim in ("1,2", "x", "-1"):
        code, report, err = run_cli(capsys, "classes", "--dim", dim)
        assert code == 2 and report is None and "error" in err


def test_bad_period_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "green", "--t", "2")
    assert code == 2 and report is None


def test_hall_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "hall", "--dim", "2")
    assert code == 0
    rows = report["results"]["hall_numbers"]
    assert {"a": "k1", "b": "k1", "c": "k2", "value": 3} in rows
    assert {"a": "k2", "b": "k0", "c": "k2", "value": 1} in rows


def test_gamma_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "gamma", "--max-dim", "1")
    assert code == 0
    rows = report["results"]["gamma"]
    assert {"a": "k1", "b": "k1", "m": "k1", "n": "k1", "value": "1"} in rows


def test_green_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "green", "--max-dim", "2")
    assert code == 0
    assert report["results"]["mismatches"] == 0
    assert report["results"]["checked"] > 0
    assert report["counterexamples"] == []


def test_green_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(cli, "green_sides",
                        lambda reg, a, b, a2, b2: (Fraction(0), Fraction(1)))
    code, report, _ = run_cli(capsys, "green", "--max-dim", "1")
    assert code == 1
    assert report["results"]["mismatches"] == report["results"]["checked"] > 0
    assert report["counterexamples"][0]["lhs"] == "0"


def test_dha_mul_frozen_example(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "dha-mul", "--t", "1",
                              "--lhs", "[k1@0]", "--rhs", "[k1@0]")
    assert code == 0
    assert report["results"]["lhs"] == "[k1@0]"
    assert report["results"]["product"] == {"[]": "0 + 1*v", "[k2@0]": "0 + 3/2*v"}


def test_dha_mul_requires_factors(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, err = run_cli(capsys, "dha-mul", "--lhs", "[k1@0]")
    assert code == 2 and report is None and "error" in err


def test_dha_assoc_counts_and_sampling(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "dha-assoc", "--max-dim", "2")
    assert code == 0
    assert report["results"]["objects"] == 6
    assert report["results"]["checked"] == 216
    assert report["results"]["mismatches"] == 0

    code, sampled, _ = run_cli(capsys, "dha-assoc", "--max-dim", "2", "--seed", "7")
    assert code == 0
    assert sampled["results"]["checked"] == 100
    assert sampled["results"]["seed"] == 7

    code, sampled2, _ = run_cli(capsys, "dha-assoc", "--max-dim", "2", "--seed", "7")
    sampled.pop("timing_ms"), sampled2.pop("timing_ms")
    assert sampled == sampled2


def test_dha_assoc_zero_bound_is_vacuous_pass(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "dha-assoc", "--max-dim", "0")
    assert code == 0
    assert report["results"]["objects"] == 1
    assert report["results"]["checked"] == 1


def test_relations_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "relations", "--max-dim", "2")
    assert code == 0
    families = {row["family"]: row for row in report["results"]["families"]}
    assert set(families) == {"dh0_43", "dh0_44", "dh0_45", "dh1_re1",
                             "dh3_r1", "dh3_r2", "dht_r3"}
    for row in families.values():
        assert row["mismatches"] == 0
    assert families["dh1_re1"]["endo_convention_matches_all"] is False


def test_crosscheck_report(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "crosscheck", "--t", "1", "--max-dim", "2")
    assert code == 0
    assert report["results"]["mismatches"] == 0
    assert report["results"]["checked"] == report["results"]["objects"] ** 2


def test_crosscheck_rejects_t3(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "crosscheck", "--t", "3")
    assert code == 2 and report is None


def test_resource_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    qpath = write_quiver(tmp_path, 3)
    code, report, err = run_cli(capsys, "classes", "--quiver", qpath,
                                "--dim", "4,4,4")
    assert code == 3 and report is None and "resource" in err


def test_reports_are_deterministic(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, first, _ = run_cli(capsys, "hall", "--max-dim", "2")
    _, second, _ = run_cli(capsys, "hall", "--max-dim", "2")
    first.pop("timing_ms"), second.pop("timing_ms")
    assert first == second


def test_fingerprint_tracks_setup(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, a, _ = run_cli(capsys, "classes")
    _, b, _ = run_cli(capsys, "classes", "--dim", "1")
    _, c, _ = run_cli(capsys, "classes", "--q", "3")
    assert a["fingerprint"] != b["fingerprint"]
    assert a["fingerprint"] != c["fingerprint"]


def test_csv_output(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "hall", "--dim", "2", "--csv", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,c,value"
    assert "k1,k1,k2,3" in lines[1:]
    assert len(lines) == 4


def test_cache_roundtrip_and_corruption(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    code, report, err = run_cli(capsys, "classes")
    assert code == 0
    path = cache_path(line_quiver(1), 2, 0)
    assert path is not None and path.exists()

    code, cached, _ = run_cli(capsys, "classes")
    assert code == 0
    report.pop("timing_ms"), cached.pop("timing_ms")
    assert cached == report

    path.write_text("garbage")
    code, after, err = run_cli(capsys, "classes")
    assert code == 0
    assert "ignoring cache" in err
    after.pop("timing_ms")
    assert after == report


def test_doubled_cached_aut_is_rejected_not_used(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    argv = ("dha-mul", "--t", "1", "--lhs", "[k1@0]", "--rhs", "[k1@0]")
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["results"]["product"]["[k2@0]"] == "0 + 3/2*v"
    path = cache_path(line_quiver(1), 2, 1)
    payload = json.loads(path.read_text())
    payload["registry"]["classes"]["1"][0]["aut"] *= 2
    path.write_text(json.dumps(payload))

    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err
    assert again["results"] == report["results"]


@pytest.mark.parametrize("fault", [InternalInconsistency, DivisionByZero])
def test_engine_faults_have_their_own_exit_code(capsys, monkeypatch, fault):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)

    def broken(args, reg, t):
        raise fault("planted")
    monkeypatch.setitem(cli.COMMANDS, "classes", broken)
    code, report, err = run_cli(capsys, "classes")
    assert code == cli.EXIT_INTERNAL == 4
    assert report is None and "error" in err and "planted" in err


def test_negative_max_dim_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for command in ("classes", "dha-assoc"):
        code, report, err = run_cli(capsys, command, "--max-dim", "-1")
        assert code == cli.EXIT_USAGE and report is None and "error" in err


@pytest.mark.parametrize("repeat,seed", [(2, 3), (3, 7), (3, 11)])
def test_sampling_by_index_matches_sampling_the_list(repeat, seed):
    objs = list(range(13))
    full = list(itertools.product(objs, repeat=repeat))
    count, drawn = cli._maybe_sample(objs, repeat, seed)
    assert count == cli.SAMPLE_CAP
    assert list(drawn) == random.Random(seed).sample(full, cli.SAMPLE_CAP)
    count, every = cli._maybe_sample(objs, repeat, None)
    assert count == len(full) and list(every) == full
