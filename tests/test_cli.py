import hashlib
import json
import os
import re
from collections import Counter
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import polychow as pc
from polychow import (chow as chow_module, cli as cli_module, fan as fan_module,
                      kahler as kahler_module)
from polychow.cli import main, polyperm_costs
from polychow.lift import MultisymMatroid
from conftest import BOOLEAN_FIBERS, P2, P3, U34, U34_MIN_BUILDING, boolean_table
from oracles import chains, vertex_of

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_malformed_building_set_reports_position(tmp_path, capsys):
    inst = write_instance(tmp_path, {"rank": U34})
    bset = tmp_path / "building.json"
    bset.write_text("[1, 2,\n 4, 8,, 15]")
    code, out, err = run(capsys, ["chow", "--instance", inst, "--building-set", str(bset)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed JSON at line 2 column 7: Expecting value"}


@pytest.mark.parametrize("content, reason", [
    (b"\xff", None),                               # not UTF-8
    (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply")],
    ids=["undecodable", "deeply-nested"])
@pytest.mark.parametrize("what", ["instance", "building set"])
def test_unreadable_json_is_a_usage_error(tmp_path, capsys, content, reason, what):
    # exit 2 with one JSON line on stderr, as for a file that cannot be
    # opened, not a traceback and exit 1, which means a failed check
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = ["chow", "--instance", str(bad)] if what == "instance" else [
        "chow", "--instance", write_instance(tmp_path, {"rank": U34}), "--building-set", str(bad)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    message = json.loads(err)["error"]
    assert message.startswith("cannot read %s: " % what)
    assert reason is None or message.endswith(reason)


def test_json_is_read_as_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale, without UTF-8 mode, a UTF-8 instance still
    # loads and a file that is not UTF-8 is still a usage error
    env = dict(os.environ, PYTHONPATH=SRC, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    good = tmp_path / "good.json"
    good.write_bytes(json.dumps({"rank": U34, "note": "café"},
                                ensure_ascii=False).encode("utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    codes = []
    for path in (good, bad):
        out = subprocess.run([sys.executable, "-m", "polychow.cli", "validate",
                              "--instance", str(path)],
                             capture_output=True, text=True, timeout=60, env=env)
        codes.append(out.returncode)
    assert codes == [0, 2]
    assert json.loads(out.stderr)["error"].startswith("cannot read instance: ")


def test_missing_rank_field(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2})
    code, out, err = run(capsys, ["validate", "--instance", str(path)])
    assert code == 2


def test_a_rank_table_field_alone_is_refused(tmp_path, capsys):
    # the rank table is read from `rank` only
    path = write_instance(tmp_path, {"n": 2, "rank_table": P2})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "instance must be an object with a rank field"}


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


def test_instance_building_set_path_is_refused(tmp_path, capsys, monkeypatch):
    # a path comes only from --building-set; the instance field is a list
    # of masks or "maximal"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "building.json").write_text(json.dumps(U34_MIN_BUILDING))
    for path in ("building.json", str(tmp_path / "building.json")):
        inst = write_instance(tmp_path, {"rank": U34, "building_set": path})
        code, out, err = run(capsys, ["chow", "--instance", inst])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "building set masks must be a list of integers"}
    inst = write_instance(tmp_path, {"rank": U34, "building_set": "maximal"})
    code, out, _ = run(capsys, ["chow", "--instance", inst])
    assert code == 0 and json.loads(out)["report"]["hilbert"] == [1, 7, 1]


def test_invalid_building_set(tmp_path, capsys):
    inst = write_instance(tmp_path, {"n": 2, "rank": P2,
                                     "building_set": [3]})
    code, out, err = run(capsys, ["chow", "--instance", inst])
    assert code == 1
    assert "building set" in err


def test_only_commands_that_read_g_resolve_it(tmp_path, capsys):
    # mask 1 alone is not a building set of P3; rank 0, whose ground set is
    # empty, is test_empty_ground_set_answers_or_exits_2's
    inst = write_instance(tmp_path, {"rank": P3, "building_set": [1]})
    for command in ("validate", "flats", "lift-rank", "geometric-flats", "polyperm"):
        assert run(capsys, [command, "--instance", inst])[0] == 0, command
    got, out, err = run(capsys, ["nested-complex", "--instance", inst])
    assert got == 1 and "building set" in err


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
    # command lines argparse rejects (fields None: no --instance given)
    ("validate", {}, ["--trials", "abc"]),
    ("validate", {}, ["--seed", "1.5"]),
    ("validate", None, []),
    ("bogus", {}, []),
    ("validate", {}, ["--no-such-flag"]),
    # a negative indent printed newline-separated JSON and exited 0
    ("validate", {}, ["--json-indent", "-3"]),
])
def test_unusable_input_exits_2(tmp_path, capsys, command, fields, flags):
    # input the CLI cannot use is reported as JSON with exit 2, not raised
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    argv = [command] + flags
    if fields is not None:
        path = write_instance(tmp_path, dict({"n": 2, "rank": P2}, **fields))
        argv[1:1] = ["--instance", path]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error"}


COMMANDS = ["validate", "flats", "lift-rank", "geometric-flats", "nested-complex",
            "fan", "polyperm", "chow", "kahler", "verify-all"]


def test_help_is_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: polychow")
    # the handler table gives the choices, in this order, to the help text
    # and to the invalid-choice message
    assert "{%s}" % ",".join(COMMANDS) in out
    code, _, err = run(capsys, ["bogus", "--instance", "x.json"])
    message = json.loads(err)["error"]
    assert code == 2 and message.startswith("argument command: invalid choice: 'bogus'")
    assert re.findall(r"[a-z-]+", message.partition("(choose from ")[2]) == COMMANDS


@pytest.mark.parametrize("fibers", BOOLEAN_FIBERS + [(1,), (3,), (1, 1, 1, 1)])
def test_polyperm_costs_count_the_loops(fibers):
    proj = pc.ProjectionMap(fibers)
    Q = pc.Polypermutohedron(proj)
    fiber_free = [S for S in range(1 << proj.m)
                  if not any(S & fm == fm for fm in proj.fiber_masks)]
    assert polyperm_costs(list(fibers)) == (len(vertex_of(Q)),
                                            len(chains(range(1, (1 << proj.n) - 1)))
                                            * len(fiber_free))


def cap_address_space():
    cap = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("n, flags", [(11, []), (8, ["--verify-fan"])])
def test_polyperm_guard_refuses_before_allocating(tmp_path, n, flags):
    # U(1,11) has 11! vertices and U(1,8) Fubini(8) fan loops: both ran for
    # a minute and raised MemoryError; a child process keeps a regression
    # from allocating in the test process
    table = [min(S, 1) for S in range(1 << n)]
    path = write_instance(tmp_path, {"n": n, "rank": table})
    out = subprocess.run([sys.executable, "-m", "polychow.cli", "polyperm",
                          "--instance", path] + flags,
                         capture_output=True, text=True, timeout=10,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap_address_space)
    assert out.returncode == 2 and out.stdout == ""
    assert set(json.loads(out.stderr)) == {"error"}
    assert "exceeds the limit" in out.stderr


def test_lift_size_guard(tmp_path, capsys):
    path = write_instance(tmp_path, {"n": 2, "rank": [0, 9, 9, 18]})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert code == 2
    assert "exceeds" in err


def test_ground_set_size_guard(tmp_path, capsys):
    # a rank table on 17 elements is over a library limit, not an invalid
    # polymatroid: exit 2, as for the lifted ground set above, not 1
    path = write_instance(tmp_path, {"rank": [0] * (1 << 17)})
    code, out, err = run(capsys, ["validate", "--instance", path])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ground set size 17 exceeds the limit 16"}


def test_empty_ground_set_answers_or_exits_2(tmp_path, capsys):
    # polyperm --verify-fan printed "normal_fan_matches": false and exited 1
    # from a Boolean fan of ambient dimension -1; no command may report a
    # fail there
    path = write_instance(tmp_path, {"rank": [0]})
    answered = []
    for command in COMMANDS:
        code, out, err = run(capsys, [command, "--instance", path, "--verify-fan"])
        if command in cli_module.HEAVY_COMMANDS + ("polyperm",):
            assert code == 2 and out == "", command
            assert json.loads(err) == {"error": "%s needs a nonempty ground set" % command}
        else:
            assert code == 0 and json.loads(out)["pass"] is True, command
            answered.append(command)
        assert '"pass": false' not in out
    assert answered == ["validate", "flats", "lift-rank", "geometric-flats"]


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


@pytest.mark.parametrize("member", [99, -1])
def test_building_set_members_outside_the_ground_set_are_refused(tmp_path, capsys, member):
    # 99 was read past the end of the rank table (an IndexError traceback),
    # and -1 as its last entry
    path = write_instance(tmp_path, {"rank": [0, 1, 1, 2], "building_set": [1, 2, 3, member]})
    code, out, err = run(capsys, ["fan", "--instance", path])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "invalid building set: member %d is not a subset of the ground set" % member}


def test_verify_all_reports_a_support_refinement_error_as_undecided(
        tmp_path, capsys, monkeypatch):
    # support-refinement is one entry of verify-all's plan, so an error in
    # it leaves that section undecided like any other instead of escaping as
    # a traceback; an error refutes nothing, so it is never `fail`
    def refuse(*args, **kwargs):
        raise ValueError("ambient dimension mismatch")

    monkeypatch.setattr(cli_module, "same_support", refuse)
    path = write_instance(tmp_path, {"rank": P2})
    code, out, _ = run(capsys, ["verify-all", "--instance", path])
    assert code == 1
    sections = json.loads(out)["report"]["sections"]
    assert sections.pop("support-refinement") == {
        "status": "undecided", "report": {"reason": "ambient dimension mismatch"}}
    assert {section["status"] for section in sections.values()} == {"pass"}


def test_kahler_without_ambient_fan_exits_2(tmp_path, capsys):
    # the lifted members of U(3,4)'s maximal building set are no building
    # set of the Boolean lattice, so no ambient fan is built: a JSON error
    # and exit code 2, not a traceback
    path = write_instance(tmp_path, {"n": 4, "rank": U34})
    code, out, err = run(capsys, ["kahler", "--instance", path])
    assert code == 2
    assert out == ""
    assert "building set condition fails" in json.loads(err)["error"]


# The seven instances of the benchmark's verify_ladder workload.
LADDER = [{"rank": boolean_table((2, 2))}, {"rank": [0, 2, 2, 4]},
          {"rank": boolean_table((1, 1, 2))},
          {"rank": U34, "building_set": U34_MIN_BUILDING},
          {"rank": boolean_table((1, 1, 1, 1))}, {"rank": boolean_table((2, 2, 1))},
          {"rank": [min(bin(S).count("1"), 3) for S in range(32)]}]


# K(3,2,4), rank(S) = min(2|S|, 4): a polymatroid that is not a matroid,
# with a lift that is not free
K324 = [min(2 * bin(S).count("1"), 4) for S in range(8)]
# Two more polymatroids that are not matroids, with lifts that are not
# free: U(1,3) + U(2,3), a sum of matroid rank functions, and the
# truncation min(B(2,2,1), 4)
U13_PLUS_U23 = [min(bin(S).count("1"), 1) + min(bin(S).count("1"), 2) for S in range(8)]
B221_TRUNCATED = [min(x, 4) for x in boolean_table((2, 2, 1))]
# K(4,2,5) and K(6,2,7), rank(S) = min(2|S|, r): lifts on 8 and 12 elements
K425 = [min(2 * bin(S).count("1"), 5) for S in range(16)]
K426 = [min(2 * bin(S).count("1"), 6) for S in range(16)]
K627 = [min(2 * bin(S).count("1"), 7) for S in range(64)]
# B(1,1,2) at c = (0, 1, 2): 12 transversals give 10 vertices
B112_C0 = {"rank": boolean_table((1, 1, 2)), "c": [0, 1, 2]}


@pytest.mark.parametrize("argv, data, digest", [
    (["chow", "--iso-check"], {"rank": boolean_table((2, 2, 2))},
     "88750d3e240229372f0b130434b25d16bc5e65c2c77f3df3270f7626fda6b7ce"),
    (["kahler"], {"rank": boolean_table((2, 2, 2))},
     "aba02d649f55490f0aad732451cfb309652879f98f0056e58264e9085b058693"),
    (["chow", "--iso-check"], {"rank": U34, "building_set": U34_MIN_BUILDING},
     "7156037e2824844a315b1cb4c5b100a711d89cfa4b3acf5ab07f2d46c3e4f71c"),
    (["kahler"], {"rank": boolean_table((1, 1, 2))},
     "0f516dfa0204ff0d3881294080d866318bf64035ee4ed1818063e7ee8ca1ba5f"),
    (["chow", "--iso-check"], {"rank": [min(bin(S).count("1"), 4) for S in range(32)]},
     "39b9525e99db280c36c770e080fd310023f5b576b464edd4e844895ead09891f"),
    (["chow", "--iso-check"], {"rank": boolean_table((1, 1, 1, 1, 1))},
     "da51e9454b9414e048a59ab5f189f638a0a004670739cdcf1360c256d6d64983"),
] + [(["verify-all", "--trials", "200", "--seed", "1"], data, digest) for data, digest in zip(LADDER, [
    "cb5b436c111a0c2df1c66c98794fe0b3da4bc23c41668048e65c65341e349f05",
    "cb5b436c111a0c2df1c66c98794fe0b3da4bc23c41668048e65c65341e349f05",
    "19f3ce80b196bdf25a5283f794dd36f2a0b74cee4dfd3f8fd82a7a727ec9de9c",
    "3e4faf8c59939a9d9d6d99b2bbe5c69b8c06081242758f10cf0df31194ad1516",
    "b014b9dcb3cf60bcae494f716bac479eb72319930753296428c2c65d3f9a983a",
    "01e6ef3a91b660ad5c8b0a48d05acb0638b4c5a635948b510255e9e273ee70cb",
    "ff7baf303362a8747803cd1c9943e2287e53150472f08b0c989c0f63549c3415"])] + [
    (["polyperm", "--verify-fan"], {"rank": boolean_table((1,))},
     "61bf1aa32289f0a52c2ac99196fbac40972667a340d84a8b923c8fe155ead7fb"),
    (["polyperm", "--verify-fan"], {"rank": boolean_table((2, 2, 1))},
     "82b33ef28427bb3a9b9ac0222b2acc3e9e80c71b1635fe5a4aa4ee23791369d1"),
    (["polyperm", "--verify-fan"], {"rank": boolean_table((1, 1, 1, 1, 1))},
     "89b4142547afb11be37c6f10b8f2479d8189be02a6e1b002b4bb1e0a4294f7ee"),
    (["verify-all", "--trials", "200", "--seed", "1"],
     {"rank": boolean_table((2, 2, 1)), "building_set": [1, 2, 4, 7]},
     "7a60628a51df722d1e9f989695a29474e887e99563fc8c87e4c158d95e632bc6"),
    (["verify-all", "--trials", "200", "--seed", "1"],
     {"rank": boolean_table((1, 1, 1, 1)), "building_set": [1, 2, 4, 8, 3, 12, 15]},
     "40408c18ba35057977a227641a96123a3480d04816d53d208801fbb5d920b866"),
    (["verify-all", "--trials", "200", "--seed", "1"], {"rank": K324},
     "bfbde2af64021ccc74f56b82c5a9610c5427bf5012109ecd06ccf1c75585ba67"),
    (["polyperm", "--verify-fan"], B112_C0,
     "c931736f6694dd53feab7e926b37ca48033a6ee336d0044a949795e7a525a990"),
    (["verify-all", "--trials", "200", "--seed", "1"], {"rank": U13_PLUS_U23},
     "38eeea1338d4c41374233684c793b63b987f2f5973a77ba46257e535d7449763"),
    (["verify-all", "--trials", "200", "--seed", "1"], {"rank": B221_TRUNCATED},
     "8f5118872e64194517a58feb41e6768f4a0778eacff150ff99c533e4417a1a98"),
    (["verify-all", "--trials", "200", "--seed", "1"], B112_C0,
     "b793ae7a6938ca336a72183d67c6843bfdcb94b91886d7f0d9e099c0263db19e"),
    (["geometric-flats"], {"rank": K425},
     "04e4ad11554ebe90d950ce2c3828ea2bf2c1799530ea2b7b52626fd792144ff8"),
    (["geometric-flats"], {"rank": K627},
     "266f33da286443316c3326e2d3e0e0e439491ba755481c208bb19227ac8df82e"),
    (["lift-rank"], {"rank": K425},
     "9b4ed7f0683695b86a4ff0eed6fb6325241f169bf21e042eff7fc7efa8f05493"),
    (["lift-rank"], {"rank": boolean_table((2, 2, 2))},
     "3e9c846f415f74d2146d3ba2859433df1ce9828228d4dc1958a62a37074f5c9e"),
    (["lift-rank"], {"rank": [min(bin(S).count("1"), 3) for S in range(32)]},
     "915dce50cb2e9fd1aa4273b4386b6ac328c13abfcec604157cfe7b9f2f709e53"),
    (["chow", "--iso-check"], {"rank": K425},
     "017c61c9f37788f2b66f1b6b8278a7e9e9945cd6cf3304570aa8787e942a758c"),
    (["chow", "--iso-check"], {"rank": K426},
     "1dc2932259febb9ffd4821c21d4bd2367375e5ffe1cdecf486849a734ac8bdf6")])
def test_golden_stdout_bytes(tmp_path, capsys, argv, data, digest):
    # SHA-256 of stdout (default seed and indent), recorded before monomials
    # were packed into ints (U(4,5) and B(1,1,1,1,1) before the divisor
    # index and the zero-skipping determinants, the ladder's verify-all
    # before equal fans were compared without sampling, polyperm while the
    # normal fan was still sampled, B(2,2,1) and B(1,1,1,1) with coarser
    # building sets while their support was still sampled, K(3,2,4) and
    # B(1,1,2) at c = (0, 1, 2) while the polytope kept a vertex per
    # transversal, and U(1,3) + U(2,3) and min(B(2,2,1), 4) while linalg
    # still took rationals, B(1,1,2) at c = (0, 1, 2) under verify-all
    # before the fan section read the polyperm section's normal fan, and
    # K(4,2,5) and K(6,2,7) `geometric-flats` while it searched the lift's
    # whole lattice, and `lift-rank`, which prints every lifted rank for a
    # lift of at most 12 elements, on K(4,2,5), B(2,2,2) and U(3,5) while each
    # rank minimized over all subsets of the base ground set, and K(4,2,5)
    # `chow --iso-check` while the isomorphism check still compared the
    # structure constants, and K(4,2,6) `chow --iso-check` while each pair
    # kept the image of every DP monomial); the chow report prints the
    # basis exponents.
    # U(3,5), the last rung, was re-recorded when its `kahler` section became
    # `undecided` instead of `fail`, the one change in its JSON; it exits 1
    # because no Kahler verdict is reached there (ROADMAP item 1), and
    # B(1,1,2) at c_1 = 0 because its transversals share vertices, so its
    # normal fan is not the Boolean fan.
    path = write_instance(tmp_path, data)
    code, out, _ = run(capsys, argv[:1] + ["--instance", path] + argv[1:])
    assert code == (1 if data is LADDER[-1] or data is B112_C0 else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("data, flat", [({"rank": [0, 1, 1, 1]}, 1), ({"rank": K425}, 63)],
                         ids=["U(1,2)", "K(4,2,5)"])
def test_verify_all_leaves_kahler_undecided_without_an_ambient_fan(
        tmp_path, capsys, data, flat):
    # the lifted members are no building set of the Boolean lattice, so no
    # Kahler verdict is reached (ROADMAP item 1): `undecided`, exit 1, and
    # no section prints `fail`
    path = write_instance(tmp_path, data)
    code, out, _ = run(capsys, ["verify-all", "--instance", path])
    assert code == 1 and '"fail"' not in out
    report = json.loads(out)
    assert report["pass"] is False and report["report"]["all_pass"] is False
    sections = report["report"]["sections"]
    assert sections.pop("kahler") == {
        "status": "undecided",
        "report": {"reason": "building set condition fails at flat %d" % flat}}
    assert {section["status"] for section in sections.values()} == {"pass"}


def matrix_entries(rows, width=None):
    return [x for row in rows for x in row]


# The functions of `src` that eliminate or compare integer vectors, each
# with the entries of its matrix or point arguments.  On a Fraction the
# `//` of a Bareiss step floors silently, so every entry must be an int.
INTEGER_INPUTS = {
    ("linalg", "integer_rref"): matrix_entries,
    ("linalg", "rank"): matrix_entries,
    ("linalg", "kernel_basis"): lambda rows, ncols: matrix_entries(rows),
    ("linalg", "solve"): lambda rows, b: matrix_entries(rows) + list(b),
    ("linalg", "det"): matrix_entries,
    ("linalg", "smith_normal_form"): matrix_entries,
    ("linalg", "is_positive_definite"): matrix_entries,
    ("fan", "cone_contains"): lambda fan, cone, w: list(w),
    ("polytope", "minimizing_vertices"): lambda Q, w: list(w),
}


def test_src_computes_in_integers_only(tmp_path, capsys, monkeypatch):
    types = {key: Counter() for key in INTEGER_INPUTS}
    modules = [m for name, m in list(sys.modules.items())
               if name == "polychow" or name.startswith("polychow.")]
    for (module, name), entries in INTEGER_INPUTS.items():
        original = getattr(sys.modules["polychow." + module], name)

        def recording(*args, _original=original, _entries=entries,
                      _types=types[module, name], **kwargs):
            _types.update(map(type, _entries(*args, **kwargs)))
            return _original(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, recording)
    B222 = {"rank": boolean_table((2, 2, 2))}
    runs = [(["verify-all", "--trials", "200", "--seed", "1"], data)
            for data in LADDER + [{"rank": K324}]]
    runs += [(["chow", "--iso-check"], B222), (["kahler"], B222)]
    for argv, data in runs:
        path = write_instance(tmp_path, data)
        run(capsys, argv[:1] + ["--instance", path] + argv[1:])
    # every function is reached, and only with ints (no bool, no Fraction)
    assert {key: set(seen) for key, seen in types.items()} \
        == {key: {int} for key in INTEGER_INPUTS}


@pytest.mark.parametrize("data", [LADDER[5], LADDER[-1]], ids=["B(2,2,1)", "U(3,5)"])
def test_polyperm_verify_fan_reads_neither_trials_nor_seed(tmp_path, capsys, data):
    # the normal fan is decided exactly, so --trials changes no byte and
    # --seed only the echoed seed
    path = write_instance(tmp_path, data)
    outs = [run(capsys, ["polyperm", "--verify-fan", "--instance", path] + flags)[1]
            for flags in (["--trials", "1"], ["--trials", "1000"], ["--seed", "3"], ["--seed", "11"])]
    assert outs[0] == outs[1]
    reports = [json.loads(out) for out in outs]
    assert [report.pop("seed") for report in reports] == [0, 0, 3, 11]
    assert reports[0] == reports[2] == reports[3]
    assert reports[0]["report"]["normal_fan_matches"] is True


U34_BETWEEN = {"rank": U34, "building_set": [1, 2, 4, 8, 3, 6, 15]}


def test_verify_all_passes_the_support_section_on_the_ladder(tmp_path, capsys):
    # with the maximal building set the support section compares the fan
    # with itself; with a coarser one the stellar-subdivision certificate
    # decides it
    for i, data in enumerate(LADDER + [U34_BETWEEN]):
        _, out, _ = run(capsys, ["verify-all", "--trials", "200", "--seed", "1",
                                 "--instance", write_instance(tmp_path, data, "%d.json" % i)])
        assert json.loads(out)["report"]["sections"]["support-refinement"] == {
            "status": "pass", "report": {"equal_support": True}}


def test_coarser_building_set_support_reads_neither_trials_nor_seed(tmp_path, capsys):
    # the U(3,4)/G=singletons+E ladder op: --trials changes no byte and two
    # seeds differ only in the echoed seed
    path = write_instance(tmp_path, LADDER[3])
    outs = [run(capsys, ["verify-all", "--instance", path] + flags)[1]
            for flags in (["--trials", "1000"], ["--trials", "5000"], ["--seed", "3"], ["--seed", "11"])]
    assert outs[0] == outs[1]
    reports = [json.loads(out) for out in outs]
    assert [report.pop("seed") for report in reports] == [0, 0, 3, 11]
    assert reports[0] == reports[2] == reports[3]
    assert reports[0]["pass"] is True


def test_validate_is_fast_at_the_largest_accepted_ground_sets(tmp_path):
    # the pairwise submodularity scan took 18 s on U(1,14); the local form
    # r(A+i) + r(A+j) >= r(A+i+j) + r(A) takes well under a second
    table = [min(S, 1) for S in range(1 << 14)]
    path = write_instance(tmp_path, {"rank": table})
    out = subprocess.run([sys.executable, "-m", "polychow.cli", "validate",
                          "--instance", path],
                         capture_output=True, text=True, timeout=8,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap_address_space)
    assert out.returncode == 0 and json.loads(out.stdout)["report"]["valid"] is True
    # a refusal ran the pairwise scan to name its witness, about 10 s at
    # n = 14; the local test stops at its first failure
    table = [min(bin(S).count("1"), 12) for S in range(1 << 14)]
    table[-1] = 13
    path = write_instance(tmp_path, {"rank": table})
    out = subprocess.run([sys.executable, "-m", "polychow.cli", "validate",
                          "--instance", path],
                         capture_output=True, text=True, timeout=2,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap_address_space)
    assert (out.returncode, out.stdout) == (1, "")
    assert json.loads(out.stderr)["error"].startswith("invalid polymatroid (submodularity")


def test_fan_check_is_fast_on_a_fan_that_is_not_complete(tmp_path):
    # the pairwise-faces check on U(4,6) (7,140 cone pairs) enumerated
    # circuit supports for 6.8 s; one kernel basis per pair takes under 1 s
    table = [min(bin(S).count("1"), 4) for S in range(1 << 6)]
    path = write_instance(tmp_path, {"rank": table})
    out = subprocess.run([sys.executable, "-m", "polychow.cli", "fan", "--check",
                          "--instance", path],
                         capture_output=True, text=True, timeout=3,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap_address_space)
    checks = json.loads(out.stdout)["report"]["checks"]
    assert out.returncode == 0 and checks and all(checks.values()), checks


def test_memos_never_outlive_an_invocation(tmp_path, capsys):
    # memos hang off the P and G each invocation builds, so one process that
    # runs the ladder forward, then backward, then both ring ops must print
    # what a fresh process prints for each op
    b222 = {"rank": boolean_table((2, 2, 2))}
    ops = [(["verify-all", "--trials", "200"], data) for data in LADDER]
    ops += [(["chow", "--iso-check"], b222), (["kahler"], b222)]
    paths = [write_instance(tmp_path, data, "%d.json" % i) for i, (_, data) in enumerate(ops)]
    fresh = [subprocess.run([sys.executable, "-m", "polychow.cli"] + argv + ["--instance", path],
                            capture_output=True, text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=SRC)).stdout
             for (argv, _), path in zip(ops, paths)]
    order = list(range(len(LADDER)))
    for i in order + order[::-1] + [len(LADDER), len(LADDER) + 1]:
        _, out, _ = run(capsys, ops[i][0] + ["--instance", paths[i]])
        assert out == fresh[i], ops[i]


@pytest.mark.parametrize("r", [2, 4])
def test_a_broken_lift_reports_no_isomorphism(tmp_path, capsys, monkeypatch, r):
    # U(3,5) is its own lift; its rank memo seeded with U(r,5) ranks breaks
    # the isomorphism.  U(4,5) keeps every preimage of a flat of U(3,5)
    # closed (at most 2 elements, or all 5), so only the covers show it: a
    # pair and a third element close to that triple, not to the whole set
    lifts = []

    def seeded(P):
        M = pc.lift(P)
        M._memo.update({S: min(S.bit_count(), r) for S in range(1 << M.n)})
        lifts.append(M)
        return M

    monkeypatch.setattr(cli_module, "lift", seeded)
    path = write_instance(tmp_path, LADDER[-1])
    code, out, err = run(capsys, ["geometric-flats", "--instance", path])
    assert (code, err) == (1, "")
    assert json.loads(out)["report"]["isomorphic"] is False
    M = lifts[-1]
    assert all(M.is_flat(M.proj.preimages[F]) for F in M.base.flats()) == (r == 4)


def test_no_cli_path_enumerates_the_lift_flats(tmp_path, capsys, monkeypatch):
    # the isomorphism is decided from the covers of P's flats, so neither
    # command fills the lift's "flats" memo
    built = []

    def build(data, _original=cli_module.build_polymatroid):
        built.append(_original(data))
        return built[-1]

    monkeypatch.setattr(cli_module, "build_polymatroid", build)
    for data in (LADDER[-1], {"rank": K324}, {"rank": boolean_table((1, 1, 2))}):
        path = write_instance(tmp_path, data)
        for argv in (["verify-all", "--trials", "200"], ["geometric-flats"]):
            run(capsys, argv[:1] + ["--instance", path] + argv[1:])
            assert "flats" not in built[-1]._memo["lift"]._memo, (data, argv)


def count_verify_all_builds(tmp_path, capsys, monkeypatch, data):
    """verify-all on `data`, counting lifts, nested-set fans and Groebner runs."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MultisymMatroid, "__init__",
                        counted("lift", MultisymMatroid.__init__))
    nested_set_fan = counted("nested_set_fan", fan_module.nested_set_fan)
    monkeypatch.setattr(fan_module, "nested_set_fan", nested_set_fan)
    monkeypatch.setattr(kahler_module, "nested_set_fan", nested_set_fan)
    monkeypatch.setattr(chow_module, "_groebner", counted("groebner", chow_module._groebner))
    path = write_instance(tmp_path, data)
    code, _, _ = run(capsys, ["verify-all", "--instance", path, "--trials", "50"])
    assert code == 0
    return calls


def test_verify_all_builds_each_structure_once(tmp_path, capsys, monkeypatch):
    calls = count_verify_all_builds(tmp_path, capsys, monkeypatch,
                                    {"rank": boolean_table((1, 1, 2))})
    # one lift; the lift is free, so the Bergman fan is kahler's ambient
    # fan and is built once; DP and FY once each
    assert calls == {"lift": 1, "nested_set_fan": 1, "groebner": 2}


def test_verify_all_builds_the_ambient_fan_apart_when_the_lift_is_not_free(
        tmp_path, capsys, monkeypatch):
    calls = count_verify_all_builds(tmp_path, capsys, monkeypatch,
                                    {"rank": U34, "building_set": U34_MIN_BUILDING})
    # U(3,4) is its own lift, of rank 3 on 4 elements, so kahler's ambient
    # fan is built apart from the Bergman fan of G; the support-refinement
    # section adds the Bergman fan of the maximal building set
    assert calls == {"lift": 1, "nested_set_fan": 3, "groebner": 2}


def count_fan_certificates(tmp_path, capsys, monkeypatch, data):
    """verify-all on `data`: its exit code, fan section and the calls of the
    Boolean fan, the normal-fan check, the complete-fan certificate and the
    circuit search."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.update([name]) or fn(*args))

    counted(cli_module, "boolean_bergman_fan")
    counted(cli_module, "normal_fan_equals")
    counted(fan_module, "complete_fan_certificate")
    counted(fan_module, "pairwise_faces_by_circuits")
    path = write_instance(tmp_path, data)
    code, out, _ = run(capsys, ["verify-all", "--trials", "200", "--seed", "1", "--instance", path])
    return code, json.loads(out)["report"]["sections"]["fan"], calls


def test_verify_all_reads_pairwise_faces_from_the_certified_normal_fan(
        tmp_path, capsys, monkeypatch):
    # U(3,5): each chain-of-flats cone is a cone of the braid fan that the
    # polyperm section certifies, so neither the 190-pair circuit search nor
    # a complete-fan certificate runs, and that fan is built and checked once
    code, fan, calls = count_fan_certificates(tmp_path, capsys, monkeypatch, LADDER[-1])
    assert code == 1 and fan["status"] == "pass"
    assert calls == {"boolean_bergman_fan": 1, "normal_fan_equals": 1}


@pytest.mark.parametrize("data, fallback", [
    (LADDER[3], {"complete_fan_certificate": 1, "pairwise_faces_by_circuits": 1}),
    ({"rank": boolean_table((2, 2, 1)), "building_set": [1, 2, 4, 7]},
     {"complete_fan_certificate": 1}),
    (B112_C0, {"complete_fan_certificate": 1})],
    ids=["U(3,4)/G=singletons+E", "B(2,2,1)/G=[1,2,4,7]", "B(1,1,2)/c=(0,1,2)"])
def test_verify_all_falls_back_where_the_normal_fan_does_not_decide(
        tmp_path, capsys, monkeypatch, data, fallback):
    # coarser building sets have cones outside the Boolean fan; at
    # c = (0, 1, 2) the Boolean fan is not the normal fan of Q
    code, fan, calls = count_fan_certificates(tmp_path, capsys, monkeypatch, data)
    assert code == (1 if data is B112_C0 else 0) and fan["status"] == "pass"
    assert calls == {"boolean_bergman_fan": 1, "normal_fan_equals": 1, **fallback}


def count_boolean_fans(monkeypatch):
    """The Boolean fans the CLI builds from now on, one entry each."""
    builds = []
    real = cli_module.boolean_bergman_fan
    monkeypatch.setattr(cli_module, "boolean_bergman_fan",
                        lambda proj: builds.append(proj) or real(proj))
    return builds


def test_standalone_fan_check_builds_the_boolean_fan_when_the_limits_admit_it(
        tmp_path, capsys, monkeypatch):
    # B(2,2) needs 27 Boolean fan loops: at the limit 26 fan --check builds
    # no Boolean fan and decides pairwise faces without it, to the same bytes
    builds = count_boolean_fans(monkeypatch)
    path = write_instance(tmp_path, LADDER[0])
    for flags in ([], ["--verify-fan"]):
        admitted = run(capsys, ["fan", "--check", "--instance", path] + flags)
        assert admitted[0] == 0 and len(builds) == 1
        builds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "MAX_FAN_LOOPS", 26)
            assert run(capsys, ["fan", "--check", "--instance", path] + flags) == admitted
        assert builds == []


# U(4,6), rank(S) = min(|S|, 4): its fan is not complete, so without the
# Boolean fan the circuit search decides
U46 = [min(bin(S).count("1"), 4) for S in range(64)]


@pytest.mark.parametrize("data", LADDER + [{"rank": K425}, {"rank": U46}],
                         ids=["B(2,2)", "P(2,2;r=4)", "B(1,1,2)", "U(3,4)/G=singletons+E",
                              "B(1,1,1,1)", "B(2,2,1)", "U(3,5)", "K(4,2,5)", "U(4,6)"])
def test_fan_check_prints_the_same_bytes_without_the_boolean_fan(
        tmp_path, capsys, monkeypatch, data):
    # the certified ambient, the complete-fan certificate and the circuit
    # search are exact, so the route the cost predicate picks changes no byte
    builds = count_boolean_fans(monkeypatch)
    path = write_instance(tmp_path, data)
    admitted = run(capsys, ["fan", "--check", "--instance", path])
    assert admitted[0] == 0 and len(builds) == 1
    monkeypatch.setattr(cli_module, "polyperm_refusal", lambda *args: "refused")
    assert run(capsys, ["fan", "--check", "--instance", path]) == admitted
    assert len(builds) == 1


def test_fan_check_is_fast_where_the_boolean_fan_decides(tmp_path):
    # K(4,2,7) (1,944 transversals, 6,075 Boolean fan loops) ran the circuit
    # search for over a minute; its cones all lie in the certified Boolean fan
    table = [min(2 * bin(S).count("1"), 7) for S in range(1 << 4)]
    path = write_instance(tmp_path, {"rank": table})
    out = subprocess.run([sys.executable, "-m", "polychow.cli", "fan", "--check",
                          "--instance", path],
                         capture_output=True, text=True, timeout=5,
                         env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap_address_space)
    assert out.returncode == 0 and json.loads(out.stdout)["report"]["checks"]["pairwise_faces"]


INVALID_C = ('{"error": "invalid c: c must be a strictly increasing nonnegative '
             'sequence of length n"}\n')


def test_fan_check_refuses_an_invalid_c_at_any_size(tmp_path, capsys, monkeypatch):
    # fan --check reads c as polyperm and verify-all do, and exits 2 with
    # their error whether or not the polyperm limits admit Q; fan without
    # --check reads no c and prints what it prints without c
    invalid = write_instance(tmp_path, {"rank": boolean_table((1, 1)), "c": [2, 1]}, "c.json")
    valid = write_instance(tmp_path, {"rank": boolean_table((1, 1))})
    for command in (["polyperm"], ["fan", "--check"]):
        assert run(capsys, command + ["--instance", invalid]) == (2, "", INVALID_C)
    assert run(capsys, ["fan", "--instance", invalid]) == run(capsys, ["fan", "--instance", valid])
    code, out, err = run(capsys, ["fan", "--check", "--instance", valid])
    assert code == 0 and err == "" and hashlib.sha256(out.encode()).hexdigest() == (
        "7fa09c85cc9f3c3018d7c69a513df6faf952bb9130b4f58ac7be424798f5826b")
    builds = count_boolean_fans(monkeypatch)
    monkeypatch.setattr(cli_module, "polyperm_refusal", lambda *args: "refused")
    assert run(capsys, ["fan", "--check", "--instance", invalid]) == (2, "", INVALID_C)
    assert run(capsys, ["fan", "--check", "--instance", valid])[0] == 0 and builds == []


def test_verify_all_refuses_an_invalid_c_as_before(tmp_path, capsys):
    # verify-all runs the polyperm section first, so Q is built and c
    # refused there; the exit code and stderr are those recorded before
    path = write_instance(tmp_path, {"rank": boolean_table((1, 1)), "c": [2, 1]})
    code, out, err = run(capsys, ["verify-all", "--trials", "200", "--seed", "1",
                                  "--instance", path])
    assert (code, out, err) == (2, "", INVALID_C)
