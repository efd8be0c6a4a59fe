"""Command-line interface: reports, exit codes, CSV, caching, sampling."""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hallforge import algebra, cli, quivers, reps
from hallforge.cache import CACHE_ENV_VAR, CACHE_FORMAT, cache_path, encode_cache, load_cache
from hallforge.errors import CacheInvalid, DivisionByZero, InternalInconsistency
from hallforge.hall import hall_number
from hallforge.linalg import gl_order
from hallforge.quivers import euler_add, line_quiver, quiver_to_dict
from hallforge.reps import Rep, _code_rows, class_name

KRONECKER = {"vertices": ["1", "2"],
             "arrows": [{"src": "1", "dst": "2", "label": "a"},
                        {"src": "1", "dst": "2", "label": "b"}]}


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
    bad_t = subprocess.run([sys.executable, "-m", "hallforge", "dha-assoc", "--t", "2"],
                           capture_output=True, text=True)
    assert bad_t.returncode == 2 and bad_t.stdout == ""
    unknown = subprocess.run([sys.executable, "-m", "hallforge", "no-such-command"],
                             capture_output=True, text=True)
    assert unknown.returncode == 2


def test_a_closed_stdout_exits_quietly_with_the_runs_code(tmp_path):
    # As `hallforge classes ... | head -3` once the head has exited: the read
    # end of the child's stdout is closed before the child writes its report.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "hallforge", "classes", "--max-dim", "1",
                                 "--quiver", write_quiver(tmp_path, 2)],
                                stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_OK
    assert "Traceback" not in err and "BrokenPipeError" not in err


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


@pytest.mark.parametrize("quiver,message", [
    ([], "malformed quiver description"),
    ({"arrows": []}, "malformed quiver description"),
    ({"vertices": []}, "quiver must have at least one vertex"),
    ({"vertices": ["1", "1"]}, "duplicate vertex names"),
    ({"vertices": ["1", "2"], "arrows": [{"src": "1", "dst": "2", "label": "a"},
                                         {"src": "2", "dst": "1", "label": "a"}]},
     "duplicate arrow labels"),
    ({"vertices": ["1"], "arrows": [{"src": "1"}]}, "malformed arrow #0"),
    ({"vertices": ["1"], "arrows": [{"src": "1", "dst": "9"}]},
     "arrow #0 references unknown vertex '1' or '9'"),
    ({"vertices": ["1", "2"], "arrows": [{"src": "1", "dst": "2"}, {"src": "2", "dst": "1"}]},
     "oriented cycle"),
    ({"vertices": ["1"], "arrows": 5}, "malformed quiver description"),
    ({"vertices": ["1"], "arrows": None}, "malformed quiver description"),
    ({"vertices": "12", "arrows": [{"src": "1", "dst": "2"}]}, "malformed quiver description"),
    ({"vertices": {"1": 0, "2": 0}, "arrows": [{"src": "1", "dst": "2"}]},
     "malformed quiver description"),
    # Every name is a JSON string; null is not the vertex "None".
    ({"vertices": ["1", None]}, "malformed quiver description: vertex #1 is None"),
    ({"vertices": [{"name": "1"}]}, "malformed quiver description: vertex #0 is {'name': '1'}"),
    ({"vertices": ["1", "2"], "arrows": [{"src": 1, "dst": "2"}]},
     "malformed quiver description: arrow #0's src is 1"),
    ({"vertices": ["1", "2"], "arrows": [{"src": "1", "dst": "2", "label": None}]},
     "malformed quiver description: arrow #0's label is None"),
], ids=["not-an-object", "no-vertices-key", "no-vertices", "duplicate-vertex",
        "duplicate-label", "malformed-arrow", "unknown-vertex", "cycle", "arrows-not-a-list",
        "arrows-null", "vertices-a-string", "vertices-an-object", "vertex-null",
        "vertex-an-object", "src-a-number", "label-null"])
def test_bad_quiver_file_is_usage_error(capsys, tmp_path, monkeypatch, quiver, message):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    code, report, err = run_cli(capsys, "classes", "--quiver", str(path))
    assert code == cli.EXIT_USAGE and report is None
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_counts_past_the_int_str_limit_are_reported_exactly(capsys, tmp_path, monkeypatch):
    # |GL_130(F_2)| has more digits than Python's default int <-> str limit
    # (4,300), which the JSON report and the CSV rows would otherwise trip.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    out = tmp_path / "rows.csv"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, report, err = run_cli(capsys, "classes", "--dim", "130", "--csv", str(out))
        assert code == cli.EXIT_OK and err == ""
        aut = gl_order(130, 2)
        assert aut > 10 ** 4300
        assert [c["aut"] for c in report["results"]["classes"]] == [aut]
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["id"], int(r["aut"])) for r in rows] == [("k130", aut)]
    finally:
        sys.set_int_max_str_digits(limit)


def test_bad_dim_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for dim in ("1,2", "x", "-1"):
        code, report, err = run_cli(capsys, "classes", "--dim", dim)
        assert code == 2 and report is None and "error" in err


def test_bad_period_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, _ = run_cli(capsys, "dha-assoc", "--t", "2")
    assert code == 2 and report is None


# The run options each command reads; every command also takes --quiver, --q
# and --csv.
READ_OPTIONS = {
    "classes": ["--max-dim", "--dim"],
    "hall": ["--max-dim", "--dim"],
    "green": ["--max-dim"],
    "gamma": ["--max-dim"],
    "dha-mul": ["--t", "--lhs", "--rhs"],
    "dha-assoc": ["--t", "--max-dim", "--seed"],
    "relations": ["--t", "--max-dim"],
    "crosscheck": ["--t", "--max-dim", "--seed"],
}


def test_each_command_takes_only_the_options_it_reads(capsys):
    def takes(command, flag):
        try:
            cli.build_parser().parse_args([command, flag, "1"])
        except SystemExit as e:
            assert e.code == cli.EXIT_USAGE
            return False
        return True
    taken = {command: [flag for flag in cli.OPTIONS if takes(command, flag)]
             for command in cli.COMMANDS}
    assert taken == READ_OPTIONS
    assert sum(map(len, taken.values())) == 17
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [("gamma", "--dim", "1,1"),
                                  ("classes", "--dim", "1,1", "--max-dim", "3")],
                         ids=["unread", "exclusive"])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, monkeypatch, argv):
    # An option the run ignored would still change the report's fingerprint.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and argv[1] in out.err


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
    # The |End|-normalization comparison is a test oracle, not a report field.
    assert set(families["dh1_re1"]) == {"family", "checked", "mismatches"}


@pytest.mark.parametrize("t", ["1", "3"])
def test_relations_rejects_a_period_below_five(capsys, monkeypatch, t):
    # --t sets the period of dht_r3 only, which needs t >= 5; 0 runs it at 5.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code = cli.main(["relations", "--t", t, "--max-dim", "1"])
    out = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out.out == ""
    assert "period of dht_r3" in out.err


def test_relations_mismatch_rows(capsys, tmp_path, monkeypatch):
    # A doubled rule coefficient breaks every family that compares a product
    # with DerivedHall._pair_rule's terms, that is all but dh1_re1 (the t = 1
    # crosscheck); each broken instance is one counterexample row.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    rule = algebra.DerivedHall._pair_rule
    monkeypatch.setattr(algebra.DerivedHall, "_pair_rule",
                        lambda dh, *key: tuple((word, c + c) for word, c in rule(dh, *key)))
    out = tmp_path / "rows.csv"
    code, report, _ = run_cli(capsys, "relations", "--max-dim", "1", "--csv", str(out))
    assert code == cli.EXIT_MISMATCH
    families = report["results"]["families"]
    assert [row["mismatches"] for row in families] == [
        0 if row["family"] == "dh1_re1" else row["checked"] for row in families]
    rows = report["counterexamples"]
    fields = ["family", "a", "b", "degree", "offset", "basis", "lhs", "rhs"]
    assert len(rows) == sum(row["mismatches"] for row in families) == 8
    assert all(sorted(row) == sorted(fields) for row in rows)
    assert rows[0] == {"family": "dh0_43", "a": "k1", "b": "k1", "degree": 0, "offset": 2,
                       "basis": "[k2@0]", "lhs": "3 + 0*v", "rhs": "6 + 0*v"}
    with out.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == fields
        assert list(reader) == [{k: str(row[k]) for k in fields} for row in rows]


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


def test_oversized_unsampled_sweep_exits_before_checking(capsys, tmp_path, monkeypatch):
    # A2 at t = 5 has 341 objects of total dim <= 3: 341^3 = 39,651,821 triples.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    argv = ["dha-assoc", "--quiver", write_quiver(tmp_path, 2), "--t", "5", "--max-dim", "3"]
    start = time.monotonic()
    code, report, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == cli.EXIT_RESOURCE == 3 and report is None
    assert "39651821" in err and "--seed" in err
    code, report, _ = run_cli(capsys, *argv, "--seed", "7")
    assert code == 0 and report["results"]["objects"] == 341
    assert report["results"]["checked"] == cli.SAMPLE_CAP


def test_reports_are_deterministic(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, first, _ = run_cli(capsys, "hall", "--max-dim", "2")
    _, second, _ = run_cli(capsys, "hall", "--max-dim", "2")
    first.pop("timing_ms"), second.pop("timing_ms")
    assert first == second


D4 = {"vertices": ["1", "2", "3", "c"],
      "arrows": [{"src": v, "dst": "c", "label": f"a{v}"} for v in "123"]}

#: sha256 of each report minus timing_ms (compact JSON, sorted keys), as the
#: list-row elimination produced it; any route change must leave them alone.
GOLDEN_REPORTS = [
    ("Kronecker", KRONECKER, "classes --max-dim 5",
     "19c9626ba8a6ddb8df4cd060181d809c7c8ee1cc7a544197f272900fa763c280"),
    ("Kronecker", KRONECKER, "hall --max-dim 4",
     "4ca0df3e9bd3aadeedc036101ac28383324effc19d4bab4828f9e557440fdb7a"),
    ("Kronecker", KRONECKER, "gamma --max-dim 3",
     "8e8f43f55ed4169431b6ef7108bf02808fd79b45974f10f57e55f9e30732d57f"),
    ("Kronecker", KRONECKER, "hall --max-dim 3 --q 3",
     "91dbaec6da92bba67009a4562ab05dc19744e371101831d6523b66f024805a48"),
    # The generic route's ids, orbits and tables where isomorphism searches
    # reach Hom spaces of 2^13 to 2^21 elements, recorded before the drawn
    # witnesses and the walk memo.
    ("Kronecker", KRONECKER, "classes --max-dim 6",
     "9a50ff4320610d4becea3731d4569341c37cafbf532ace5d9f303d19eebca4ef"),
    ("D4", D4, "classes --max-dim 6",
     "7ff48c2828fb2e599316ff9896902a3f8596794df85e5924b745f4450338d38f"),
    ("D4", D4, "hall --max-dim 5",
     "ca64d973c7d5a6bb7796dad819f4301dace65336984b89485db835efc1dcd640"),
    ("Kronecker", KRONECKER, "hall --max-dim 5",
     "5a5836b39721b54f8b1726f1b17e80479f06cfef6de14050c314fceec17e2f21"),
    ("A3", quiver_to_dict(line_quiver(3)), "classes --max-dim 4",
     "9367f3ce9b2c6e5121fe47429848666dc78e45fde255996ed5b799ef433da2cb"),
    ("D4", D4, "classes --max-dim 4",
     "40b627c1c37c9f452b5736ae093be558fc0f20e14da1f80e39e5a1d0d4fa3ac4"),
    ("A3", quiver_to_dict(line_quiver(3)), "hall --max-dim 4",
     "7df12314b3cc10b746af2b79e34a7a1dd6b28f1bb0c799896aa1e8ac9bdb6de8"),
    ("D4", D4, "hall --max-dim 4",
     "80a6ee1df342d3732cec8bbe663e02e586df8456ccaac17f01224aa313f5adb9"),
    ("A3", quiver_to_dict(line_quiver(3)), "gamma --max-dim 3",
     "f2d77860f55521053a1293bee6b70544dfdaf6c78e510570533c222d93c28e46"),
    ("D4", D4, "gamma --max-dim 3",
     "249b201c1ad09f5d80501e4403f06195fdcc11e2dec00ea5a523e2b1f3489993"),
    ("Kronecker", KRONECKER, "gamma --max-dim 3 --q 3",
     "1fdba82ff51022d3461ccd1775743a2545f675c33614dcae0cbc65b00cffb21f"),
    ("A1", quiver_to_dict(line_quiver(1)), "relations --max-dim 2",
     "6eed2ae368efb85a22f33bb89f385831c7307874a910788e2279a17462b00501"),
    ("A1", quiver_to_dict(line_quiver(1)), "relations --t 7 --max-dim 2",
     "3cf55c7992c0d49af13dd418af28372649c7a2a91201fc61797789cd42d549cb"),
    ("A2", quiver_to_dict(line_quiver(2)), "relations --t 5",
     "1cba193af3b4f7200e1f7250ec4a36a3f34cd172d9b91b162f8230d4a40fb701"),
    ("A2", quiver_to_dict(line_quiver(2)), "relations --q 3",
     "99dcb6d328797b4ca2c1147a753d21bfda9c4f4211b749fce6ee4d30f0663f2e"),
    ("Kronecker", KRONECKER, "relations --max-dim 2",
     "29d44af44749db20f18cefa9fff299c79a0bada09fd18954fd7af65201ae5532"),
    ("D4", D4, "relations --max-dim 2",
     "7458fe9f286552a19e00eb6e5fb3cda70ff696c44bf789af47bf03329a19b479"),
    ("A2", quiver_to_dict(line_quiver(2)), "crosscheck --t 0 --max-dim 3",
     "74865f3bae3aee9126a194f4ba85b5c93af201ada34a3db2b49cb61d1b53f775"),
    ("A2", quiver_to_dict(line_quiver(2)), "crosscheck --t 1 --max-dim 3",
     "1b9c8543864d92ef70d9d56504285cd18d22b728a64782545e1294710ba9a9c3"),
    ("A1", quiver_to_dict(line_quiver(1)), "crosscheck --t 1 --max-dim 3",
     "d192424782e22898b0da7cdcfff6fa6d55bed9a5388a4e5ca63743ff28619427"),
    # Cone classification on quivers classify_entries handles by search, not arrow ranks.
    ("Kronecker", KRONECKER, "crosscheck --t 1 --max-dim 2",
     "8d504e422d6c7347c6aecf28307b4688b39841e4ede4e2a92cb065cb9dc08766"),
    ("D4", D4, "crosscheck --t 1 --max-dim 2",
     "f6ef4b9d69418668dd454f6c7b9aad295cbf773dd3da26883eddc470276a69a5"),
    ("A2", quiver_to_dict(line_quiver(2)), "dha-assoc --t 3 --seed 7",
     "0c1782ec034c2cd4169bf46d427119646b89349a14c3418dc9055e2f002c7d4b"),
    # Every one of the 29,791 triples, so the product memo holds all the sweep's products.
    ("A2", quiver_to_dict(line_quiver(2)), "dha-assoc --t 3 --max-dim 2",
     "8cbfa982c845bf208e382082b0a32857f9f13795cac6692ce3f34b8207c29c48"),
    ("A2", quiver_to_dict(line_quiver(2)), "dha-assoc --t 5 --q 3 --seed 7",
     "9952d76e7189d1d0546493b1c146129d544292aeb03a58804c957b9cca03694a"),
    # Recorded from the Hom-based right side of Green's formula, before its table join.
    ("Kronecker", KRONECKER, "green --max-dim 4",
     "616eec11c6f668d09403f7649cec45e1ed62e342c5daada3254d0a3e33d80b42"),
    ("D4", D4, "green --max-dim 4",
     "552afd80f6cc46392564be938ffde8f1dfd0d890c4669100dda049c1171cd6f7"),
    ("A3", quiver_to_dict(line_quiver(3)), "green --max-dim 3 --q 3",
     "76787b6f1ce5547b92f04ef80b6ebd9c78b49232d8412c637c340256ba95a5ae"),
]


@pytest.mark.parametrize("name,quiver,command,digest", GOLDEN_REPORTS,
                         ids=[f"{name}-{cmd.replace(' ', '')}"
                              for name, _, cmd, _ in GOLDEN_REPORTS])
def test_report_matches_its_recorded_digest(capsys, tmp_path, monkeypatch, name, quiver,
                                            command, digest):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(quiver))
    code, report, _ = run_cli(capsys, *command.split(), "--quiver", str(path))
    assert code == 0
    assert _report_digest(report) == digest


def _report_digest(report: dict) -> str:
    """sha256 of the report minus timing_ms, as compact JSON with sorted keys."""
    report.pop("timing_ms")
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,quiver,objects", [
    ("A3", quiver_to_dict(line_quiver(3)), 12), ("D4", D4, 18),
])
def test_dha_assoc_t1_reaches_the_dims_past_a_zero_arrow(capsys, tmp_path, monkeypatch, name,
                                                         quiver, objects):
    # These sweeps reach the dims A3 (0, 1, 5) and D4 (1, 0, 0, 5), whose classes
    # took a 2^21 isomorphism search (exit 3) before the arrows after a run of
    # rank-0 arrows were put in rank forms too.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(quiver))
    code, report, _ = run_cli(capsys, "dha-assoc", "--t", "1", "--max-dim", "2",
                              "--quiver", str(path))
    assert code == 0
    assert report["results"]["objects"] == objects
    assert report["results"]["checked"] == objects ** 3
    assert report["results"]["mismatches"] == 0


@pytest.mark.parametrize("name,quiver,options,objects,digest", [
    ("A3-F3", quiver_to_dict(line_quiver(3)), ["--q", "3"], 12, None),
    ("Kronecker", KRONECKER, [], 9,
     "2c14c10a04eda538559e114a362bfaabeffb8baf1de9aa24ccbc229e6ffc7c52"),
], ids=["A3-F3", "Kronecker"])
def test_dha_assoc_t1_finds_isomorphisms_by_witness(capsys, tmp_path, monkeypatch, name,
                                                     quiver, options, objects, digest):
    # A3 over F_3 exited 3 on a 3^13 isomorphism search, and Kronecker took
    # about 14 s, where drawn witnesses take about 2.5 s.  Kronecker's report
    # is the one recorded before the witnesses.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(quiver))
    code, report, _ = run_cli(capsys, "dha-assoc", "--t", "1", "--max-dim", "2", *options,
                              "--quiver", str(path))
    assert code == 0
    assert report["results"]["objects"] == objects
    assert report["results"]["checked"] == objects ** 3
    assert report["results"]["mismatches"] == 0
    assert digest is None or _report_digest(report) == digest


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


@pytest.mark.parametrize("command,method,names", [
    ("dha-assoc", "assoc_check", ["a", "b", "c"]),
    ("crosscheck", "theorem_crosscheck", ["a", "b"])])
def test_sampled_check_writes_one_row_per_failing_tuple(capsys, tmp_path, monkeypatch,
                                                        command, method, names):
    # A check that always fails on the unit: every tuple becomes a counterexample.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(algebra.DerivedHall, method, lambda dh, *objs: algebra.CheckResult(
        "forced", False, dh.one(), algebra.HallVector(dh.q), (dh.unit_graded(),)))
    out = tmp_path / "rows.csv"
    code, report, _ = run_cli(capsys, command, "--t", "1", "--max-dim", "1", "--csv", str(out))
    assert code == cli.EXIT_MISMATCH
    results = report["results"]
    assert results["checked"] == results["mismatches"] == results["objects"] ** len(names)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(names + ["basis", "lhs", "rhs"])
    assert len(lines) == 1 + results["checked"]
    row = report["counterexamples"][0]
    assert sorted(row) == sorted(names + ["basis", "lhs", "rhs"])
    assert (row["lhs"], row["rhs"]) == ("1 + 0*v", "0 + 0*v")


def test_unwritable_csv_path_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, report, err = run_cli(capsys, "hall", "--dim", "2",
                                "--csv", str(tmp_path / "missing" / "rows.csv"))
    assert code == cli.EXIT_USAGE and report is None
    assert err.startswith("error: cannot write CSV file") and "Traceback" not in err


@pytest.mark.parametrize("name,quiver", [("Kronecker", KRONECKER),
                                         ("A3", quiver_to_dict(line_quiver(3)))])
def test_warm_hall_and_gamma_build_no_representative(capsys, tmp_path, monkeypatch, name,
                                                     quiver):
    # The cache holds every class, Aut and walked table these runs read, and
    # the rank tuples come with the loaded classes, so no Rep is made.
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(quiver))
    commands = [("hall", "--max-dim", "3"), ("gamma", "--max-dim", "3")]
    cold = [run_cli(capsys, *cmd, "--quiver", str(path))[1] for cmd in commands]
    built = []
    new = Rep.__new__
    monkeypatch.setattr(Rep, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    warm = [run_cli(capsys, *cmd, "--quiver", str(path))[1] for cmd in commands]
    assert built == []
    for report in cold + warm:
        report.pop("timing_ms")
    assert warm == cold


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


def test_unwritable_cache_warns_and_keeps_the_report(capsys, tmp_path, monkeypatch):
    # A directory where the cache file belongs can be neither read nor
    # replaced: the run warns twice, reports as without a cache, and removes
    # the temp file it wrote.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, plain, _ = run_cli(capsys, "classes", "--max-dim", "3")
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    path = cache_path(line_quiver(1), 2, 0)
    path.mkdir()
    code, report, err = run_cli(capsys, "classes", "--max-dim", "3")
    assert code == 0
    assert "warning: ignoring cache" in err and "warning: could not write cache" in err
    plain.pop("timing_ms"), report.pop("timing_ms")
    assert report == plain
    assert path.is_dir() and list(tmp_path.glob("*.tmp")) == []


def test_doubled_cached_aut_is_rejected_not_used(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    argv = ("dha-mul", "--t", "1", "--lhs", "[k1@0]", "--rhs", "[k1@0]")
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["results"]["product"]["[k2@0]"] == "0 + 3/2*v"
    path = cache_path(line_quiver(1), 2, 1)
    payload = json.loads(path.read_text())
    payload["classes"]["1"]["orbit"][0] *= 2
    path.write_text(json.dumps(payload))

    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err
    assert again["results"] == report["results"]


def _double_cached_kronecker_entry(text: str, in_place: bool) -> str:
    """Double the stored count of S1 as the quotient of k1.1#1 by S2: the
    triple (0, 0, 1) of class 1 of dims (1, 1) by d = (0, 1)."""
    entry = '[1,[[0,1],[0,0,1]]'
    if in_place:  # same bytes around it, so only the digest can tell
        assert text.count(entry) == 1
        return text.replace(entry, entry.replace("1]]", "2]]"))
    payload = json.loads(text)
    group = next(g for g in payload["tables"]["1,1"] if g[0] == 1)
    next(triples for d, triples in group[1:] if d == [0, 1])[2] *= 2
    return json.dumps(payload)


@pytest.mark.parametrize("in_place", [False, True], ids=["rewritten", "in-place"])
def test_doubled_cached_hall_number_is_rejected_not_used(capsys, tmp_path, monkeypatch,
                                                         in_place):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("hall", "--dim", "1,1", "--quiver", str(quiver))
    code, report, _ = run_cli(capsys, *argv)
    row = {"a": "k1.0", "b": "k0.1", "c": "k1.1#1", "value": 1}
    assert code == 0 and row in report["results"]["hall_numbers"]
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    path.write_text(_double_cached_kronecker_entry(path.read_text(), in_place))

    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err and "digest" in err
    assert again["results"] == report["results"]


def test_warm_gamma_report_equals_the_cold_one(capsys, tmp_path, monkeypatch):
    _assert_warm_report_equals_the_cold_one(capsys, tmp_path, monkeypatch,
                                            "gamma", "--max-dim", "3")


@pytest.mark.parametrize("command", ["hall", "classes"])
def test_warm_report_equals_the_cold_one(capsys, tmp_path, monkeypatch, command):
    _assert_warm_report_equals_the_cold_one(capsys, tmp_path, monkeypatch,
                                            command, "--max-dim", "4")


def _assert_warm_report_equals_the_cold_one(capsys, tmp_path, monkeypatch, *argv):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = (*argv, "--quiver", str(quiver))
    code, cold, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and cold["results"]["count"] > 0
    code, warm, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    cold.pop("timing_ms"), warm.pop("timing_ms")
    assert warm == cold


@pytest.mark.parametrize("cache", ["none", "warm", "rejected"])
def test_a_run_validates_its_quiver_once(capsys, tmp_path, monkeypatch, cache):
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("classes", "--max-dim", "2", "--quiver", str(quiver))
    if cache == "none":
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    code, cold, _ = run_cli(capsys, *argv)
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    if cache == "rejected":
        payload = json.loads(path.read_text())
        del payload["sha256"]
        payload["junk"] = "x" * 1024
        path.write_bytes(encode_cache(payload))
    calls = []
    validate = quivers.validate_quiver

    def counted(q):
        calls.append(q)
        validate(q)
    monkeypatch.setattr(quivers, "validate_quiver", counted)
    monkeypatch.setattr(reps, "validate_quiver", counted)
    code, report, err = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert report["results"] == cold["results"]
    if cache == "rejected":
        assert "ignoring cache" in err and "'junk'" in err
        assert "junk" not in json.loads(path.read_text())


def test_older_format_file_is_rejected_then_rebuilt(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("hall", "--max-dim", "2", "--quiver", str(quiver))
    code, cold, _ = run_cli(capsys, *argv)
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    payload = json.loads(path.read_text())
    del payload["sha256"], payload["tables"]
    payload["format"] = 2
    payload["hall_numbers"] = [["k1.0", "k0.1", "k1.1#1", 1]]
    path.write_bytes(encode_cache(payload))

    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err and "unsupported layout" in err
    assert again["results"] == cold["results"]
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT
    code, warm, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and warm["results"] == cold["results"]


def _auts(key: str, orbits: list, p: int) -> list:
    """The Aut counts |GL(dims)| / orbit of the classes of one stored dims."""
    glp = math.prod(gl_order(d, p) for d in map(int, key.split(",")))
    return [glp // orbit for orbit in orbits]


def _as_format_4(payload: dict, quiver, p: int, t: int) -> dict:
    """A format-6 payload of the setup (quiver, p, t) in the format-4 layout:
    q and t, per dims one {"aut", "mats", "orbit"} row per class with its
    matrices as rows of entries, and the tables as
    [c, d, [[quotient, subobject, count], ...]] by class id."""
    classes = {}
    for key, stored in payload["classes"].items():
        dims = tuple(map(int, key.split(",")))
        shapes = [(dims[a.target], dims[a.source]) for a in quiver.arrows]
        classes[key] = [{"aut": aut, "orbit": orbit,
                         "mats": [[list(r) for r in _code_rows(p, *shape, code)]
                                  for shape, code in zip(shapes, codes)]}
                        for codes, orbit, aut in zip(stored["mats"], stored["orbit"],
                                                     _auts(key, stored["orbit"], p))]
    tables = []
    for key, groups in payload["tables"].items():
        cd = tuple(map(int, key.split(",")))
        for ci, *by_dims in groups:
            for d, flat in by_dims:
                qd = tuple(x - y for x, y in zip(cd, d))
                tables.append([class_name(cd, ci), d,
                               [[class_name(qd, qi), class_name(tuple(d), si), n]
                                for qi, si, n in zip(flat[::3], flat[1::3], flat[2::3])]])
    return {"format": 4, "fingerprint": payload["fingerprint"], "q": p, "t": t,
            "registry": {"classes": classes}, "subobject_tables": tables}


def _as_format_5(payload: dict, quiver, p: int, t: int) -> dict:
    """A format-6 payload of the setup (quiver, p, t) in the format-5 layout:
    q and t, and per dims an "aut" list beside "orbit" and "mats"."""
    classes = {key: {**stored, "aut": _auts(key, stored["orbit"], p)}
               for key, stored in payload["classes"].items()}
    return {**payload, "format": 5, "q": p, "t": t, "classes": classes}


@pytest.mark.parametrize("convert", [_as_format_4, _as_format_5], ids=["4", "5"])
def test_format_file_is_rejected_then_rebuilt_as_format_6(capsys, tmp_path, monkeypatch,
                                                          convert):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("gamma", "--max-dim", "3", "--quiver", str(quiver))
    code, cold, _ = run_cli(capsys, *argv)
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    saved = path.read_bytes()
    payload = json.loads(saved)
    del payload["sha256"]
    path.write_bytes(encode_cache(convert(payload, cli.load_quiver(str(quiver)), 2, 0)))

    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err and "unsupported layout" in err
    cold.pop("timing_ms"), again.pop("timing_ms")
    assert again == cold
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT == 6
    assert path.read_bytes() == saved


def test_cache_file_is_rewritten_only_when_the_run_added_to_it(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("hall", "--max-dim", "2", "--quiver", str(quiver))
    assert run_cli(capsys, *argv)[0] == 0
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    # Sweeping further computes new Hall numbers, which are written.
    assert run_cli(capsys, "hall", "--max-dim", "3", "--quiver", str(quiver))[0] == 0
    assert len(path.read_bytes()) > len(before[0])


def test_a_run_that_only_computes_aut_counts_leaves_the_file_untouched(capsys, tmp_path,
                                                                      monkeypatch):
    # Aut counts are |GL| / orbit of the loaded classes, so classes adds
    # nothing to the file hall wrote for the same dims.
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    assert run_cli(capsys, "hall", "--max-dim", "2", "--quiver", str(quiver))[0] == 0
    path = cache_path(cli.load_quiver(str(quiver)), 2, 0)
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    code, report, err = run_cli(capsys, "classes", "--max-dim", "2", "--quiver", str(quiver))
    assert code == 0 and err == "" and report["results"]["count"] > 0
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before


def _record_registries(monkeypatch) -> list:
    """The registries dispatch builds from now on, in order."""
    built = []

    class Recorded(reps.ClassRegistry):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
    monkeypatch.setattr(cli, "ClassRegistry", Recorded)
    return built


def test_kronecker_hall_then_gamma_saves_the_walked_tables_only(capsys, tmp_path,
                                                                monkeypatch):
    # The warm-cache benchmark's file: 49 classes and their 191 walked tables
    # in 4,405 bytes.  The closed-form tables (split classes, zero and whole
    # subobjects) sit in the same store of Hall tables and are not written.
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    registries = _record_registries(monkeypatch)
    for argv in (("hall", "--max-dim", "4"), ("gamma", "--max-dim", "3")):
        assert run_cli(capsys, *argv, "--quiver", str(quiver))[0] == 0
    raw = cache_path(cli.load_quiver(str(quiver)), 2, 0).read_bytes()
    payload = json.loads(raw)
    groups = [(key, group) for key, by_class in payload["tables"].items() for group in by_class]
    assert len(raw) == 4405
    assert sum(len(stored["orbit"]) for stored in payload["classes"].values()) == 49
    assert sum(len(group) - 1 for _, group in groups) == 191
    # No split class (index 0) and no zero or whole subobject dims.
    assert all(group[0] != 0 for _, group in groups)
    assert all(any(d) and d != [int(x) for x in key.split(",")]
               for key, group in groups for d, _ in group[1:])
    hall_run = registries[0]
    store, walked = hall_run.memo("hall_tables"), hall_run.memo("subobject_table")
    assert len(walked) == 191 and len(store) > len(walked)


def test_a_rejected_file_serves_no_table_after_dispatch_clears(capsys, tmp_path, monkeypatch):
    # A file whose first table is doubled and whose last one holds a zero
    # count: load_cache puts the doubled table in the registry before it
    # reaches the zero, so only dispatch's clear() keeps it from being read.
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    quiver = tmp_path / "kronecker.json"
    quiver.write_text(json.dumps(KRONECKER))
    argv = ("hall", "--max-dim", "3", "--quiver", str(quiver))
    code, cold, _ = run_cli(capsys, *argv)
    kronecker = cli.load_quiver(str(quiver))
    path = cache_path(kronecker, 2, 0)
    good = path.read_bytes()
    payload = json.loads(good)
    del payload["sha256"]
    by_class = [group for groups in payload["tables"].values() for group in groups]
    tables = [triples for group in by_class for _, triples in group[1:] if triples]
    tables[0][2::3] = [2 * n for n in tables[0][2::3]]
    tables[-1][2] = 0
    path.write_bytes(encode_cache(payload))
    probe = reps.ClassRegistry(kronecker, 2)
    with pytest.raises(CacheInvalid, match="positive count"):
        load_cache(probe, 0)
    assert probe.memo("subobject_table")

    registries = _record_registries(monkeypatch)
    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and "ignoring cache" in err and "positive count" in err
    cold.pop("timing_ms"), again.pop("timing_ms")
    assert again == cold
    (reg,) = registries
    fresh = reps.ClassRegistry(kronecker, 2)
    classes = fresh.all_classes_total_le(3)
    assert reg.all_classes_total_le(3) == classes
    assert [hall_number(reg, a, b, c) for a, b, c in itertools.product(classes, repeat=3)] \
        == [hall_number(fresh, a, b, c) for a, b, c in itertools.product(classes, repeat=3)]
    assert path.read_bytes() == good


def test_dispatch_calls_in_one_process_share_no_state(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    runs = [("classes", "--max-dim", "3"),
            ("hall", "--dim", "2", "--csv", str(tmp_path / "rows.csv")),
            ("hall",),
            ("classes", "--dim", "1", "--q", "3"),
            ("classes",)]

    def reports(fresh_parser: bool) -> list:
        out = []
        for argv in runs:
            if fresh_parser:
                cli.build_parser.cache_clear()
            report, code = cli.dispatch(list(argv))
            report.pop("timing_ms")
            rows = tmp_path / "rows.csv"
            out.append((code, report, rows.read_text() if rows.exists() else None))
        return out

    fresh = reports(True)
    (tmp_path / "rows.csv").unlink()
    assert cli.build_parser() is cli.build_parser()
    assert reports(False) == fresh
    assert [r["results"]["count"] for _, r, _ in fresh] == [4, 3, 6, 1, 3]
    # Only the --csv run writes rows; later runs leave its 3 rows as they are.
    assert [None if text is None else text.count("\n") for _, _, text in fresh] \
        == [None, 4, 4, 4, 4]


def test_a_fault_inside_the_derived_product_is_an_internal_fault(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)

    def no_inverse(self, g):
        raise DivisionByZero(f"a'({g}) planted")
    monkeypatch.setattr(algebra.DerivedHall, "_a_prime_parts", no_inverse)
    code, report, err = run_cli(capsys, "dha-mul", "--t", "1",
                                "--lhs", "[k1@0]", "--rhs", "[k1@0]")
    assert code == cli.EXIT_INTERNAL == 4
    assert report is None and "error: internal fault" in err and "planted" in err


@pytest.mark.parametrize("fault", [InternalInconsistency, DivisionByZero])
def test_engine_faults_have_their_own_exit_code(capsys, monkeypatch, fault):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)

    def broken(args, reg, t):
        raise fault("planted")
    monkeypatch.setitem(cli.COMMANDS, "classes", (broken, False, "planted"))
    code, report, err = run_cli(capsys, "classes")
    assert code == cli.EXIT_INTERNAL == 4
    assert report is None and "error" in err and "planted" in err


def test_negative_ext1_is_an_internal_fault(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    # <k1, k1> = 2 > dim Hom(k1, k1) = 1 makes Ext^1(k1, k1) negative; the
    # cone-counting route reads Ext^1(k1, k1) for the pair ([k1@0], [k1@0]).
    monkeypatch.setattr(reps, "euler_add",
                        lambda quiver, d1, d2: 2 if d1 == d2 == (1,) else euler_add(quiver, d1, d2))
    code, report, err = run_cli(capsys, "crosscheck", "--t", "1", "--max-dim", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert report is None and "negative Ext^1 dimension" in err


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


#: One run of each command, on an input that finishes in about a second.
CAPPED_RUNS = [
    (KRONECKER, "classes --max-dim 5"),
    (KRONECKER, "hall --max-dim 5"),
    (KRONECKER, "green --max-dim 4"),
    (D4, "gamma --max-dim 4"),
    (quiver_to_dict(line_quiver(2)), "dha-mul --t 5 --lhs [k1.1#1@0,k1.0@2] --rhs [k0.1@1,k1.1#1@2]"),
    (quiver_to_dict(line_quiver(2)), "dha-assoc --t 3 --max-dim 2"),
    (quiver_to_dict(line_quiver(2)), "relations --t 5 --max-dim 3"),
    (quiver_to_dict(line_quiver(2)), "crosscheck --t 1 --max-dim 3"),
]
ADDRESS_SPACE_CAP = 1 << 30


@pytest.mark.parametrize("quiver,command", CAPPED_RUNS,
                         ids=[command.split()[0] for _, command in CAPPED_RUNS])
def test_every_command_runs_under_a_1_gib_address_space_cap(tmp_path, monkeypatch, quiver,
                                                            command):
    """A child interpreter caps its own address space (RLIMIT_AS) at 1 GiB before
    it imports hallforge, then runs the command: it exits as the in-process
    dispatch does and prints the same report apart from timing_ms."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver))
    argv = command.split() + ["--quiver", str(path)]
    child = f"""
import resource, sys
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = {ADDRESS_SPACE_CAP} if hard == resource.RLIM_INFINITY else min({ADDRESS_SPACE_CAP}, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from hallforge.cli import main
sys.exit(main({argv!r}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env)
    report, code = cli.dispatch(argv)
    assert (proc.returncode, proc.stderr) == (code, "")
    capped = json.loads(proc.stdout)
    capped.pop("timing_ms"), report.pop("timing_ms")
    assert capped == json.loads(json.dumps(report))
