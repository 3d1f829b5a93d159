import json

import pytest

from polychow.cli import main
from conftest import P2, P3, U34, U34_MIN_BUILDING, boolean_table


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_boolean(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": boolean_table((1, 2))})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["report"]["valid"] is True
    assert report["report"]["rank"] == 3


def test_validate_rejects_bad_table(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": [0, 1, 1, 3]})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert code == 1
    assert "submodularity" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,\n  "rank": [0, 1, 1,]}')
    code, out, err = run(capsys, ["validate", "--instance", str(path)])
    assert code == 2
    assert "line 2" in err and "column" in err


def test_missing_rank_field(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2})
    code, out, err = run(capsys, ["validate", "--instance", str(path)])
    assert code == 2


def test_flats_and_lift_rank(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P2})
    code, out, _ = run(capsys, ["flats", "--instance", path])
    assert code == 0
    assert json.loads(out)["report"]["flats"] == [0, 1, 3]
    code, out, _ = run(capsys, ["lift-rank", "--instance", path])
    assert code == 0
    assert json.loads(out)["report"]["ranks"] == [
        min(bin(S).count("1"), 2) for S in range(8)]


def test_chow_p3(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P3})
    code, out, _ = run(capsys, ["chow", "--instance", path, "--iso-check"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["hilbert"] == [1, 3, 1]
    assert report["hilbert_fy"] == [1, 3, 1]
    assert report["basis_matches"] is True
    assert report["pairing_unimodular"] is True
    assert report["iso_check"] is True


def test_building_set_flag(tmp_path, capsys):
    inst = write_instance(tmp_path, {"n": 4, "rank": U34})
    bset = tmp_path / "building.json"
    bset.write_text(json.dumps(U34_MIN_BUILDING))
    code, out, _ = run(capsys, ["chow", "--instance", inst,
                                "--building-set", str(bset)])
    assert code == 0
    assert json.loads(out)["report"]["hilbert"] == [1, 1, 1]
    code, out, _ = run(capsys, ["chow", "--instance", inst,
                                "--building-set", "maximal"])
    assert code == 0
    assert json.loads(out)["report"]["hilbert"] == [1, 7, 1]


def test_invalid_building_set(tmp_path, capsys):
    inst = write_instance(tmp_path, {"n": 2, "rank": P2,
                                     "building_set": [3]})
    code, out, err = run(capsys, ["chow", "--instance", inst])
    assert code == 1
    assert "building set" in err


def test_heavy_guard(tmp_path, capsys):
    n = 9
    table = [min(bin(S).count("1"), 3) for S in range(1 << n)]
    path = write_instance(tmp_path, {"n": n, "rank": table})
    code, out, err = run(capsys, ["fan", "--instance", path])
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("command, fields, flags", [
    ("chow", {}, ["--building-set", "missing.json"]),
    ("chow", {"building_set": ["a", 3]}, []),
    ("validate", {"seed": "x"}, []),
    ("polyperm", {"c": [2, 1]}, []),
    # non-integers were truncated or coerced and then passed
    ("polyperm", {"c": [1.5, 2.5]}, []),
    ("polyperm", {"c": ["1", "2"]}, []),
    ("polyperm", {"c": [True, 2]}, []),
    ("validate", {"seed": 3.9}, []),
    ("chow", {"building_set": [1.7, 3]}, []),
    ("validate", {"rank": [0, 1, True, 2]}, []),
    # a trial count below 1 skipped the sampled check
    ("polyperm", {}, ["--verify-fan", "--trials", "0"]),
    ("polyperm", {}, ["--verify-fan", "--trials", "-3"]),
])
def test_unusable_input_exits_2(tmp_path, capsys, command, fields, flags):
    # input the CLI cannot use is reported as JSON with exit 2, not raised
    path = write_instance(tmp_path, dict({"n": 2, "rank": P2}, **fields))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    code, out, err = run(capsys, [command, "--instance", path] + flags)
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error"}


def test_lift_size_guard(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": [0, 9, 9, 18]})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert code == 2
    assert "exceeds" in err


def test_verify_all_p2(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P2, "seed": 1})
    code, out, _ = run(capsys, ["verify-all", "--instance", path,
                                "--trials", "50"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    statuses = {name: sec["status"]
                for name, sec in report["report"]["sections"].items()}
    assert set(statuses.values()) == {"pass"}
    assert "kahler" in statuses and "support-refinement" in statuses


def test_determinism_byte_identical(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P3, "seed": 7})
    argv = ["verify-all", "--instance", path, "--trials", "50"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fan_check(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P3})
    code, out, _ = run(capsys, ["fan", "--instance", path, "--check"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["max_dim"] == 2
    assert all(report["checks"].values())


def test_polyperm_verify(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": boolean_table((1, 2)),
                                     "c": [1, 2]})
    code, out, _ = run(capsys, ["polyperm", "--instance", path,
                                "--verify-fan", "--trials", "100"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["normal_fan_matches"] is True
    assert sorted(tuple(v) for v in report["vertices"]) == [
        (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_kahler_command(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": P3})
    code, out, _ = run(capsys, ["kahler", "--instance", path])
    assert code == 0
    verdicts = json.loads(out)["report"]["verdicts"]
    assert verdicts and all(verdicts.values())


def test_kahler_without_ambient_fan_exits_2(tmp_path, capsys):
    # the lifted members of U(3,4)'s maximal building set are no building
    # set of the Boolean lattice, so no ambient fan is built: a JSON error
    # and exit code 2, not a traceback
    path = write_instance(tmp_path, {"n": 4, "rank": U34})
    code, out, err = run(capsys, ["kahler", "--instance", path])
    assert code == 2
    assert out == ""
    assert "building set condition fails" in json.loads(err)["error"]
