import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from fdsc import cli
from fdsc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestGen:
    def test_edges_d2(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--d", "2", "--format", "edges")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "# fdsc d=2 n=4 variant=fdsc"
        assert len(lines) == 1 + 32

    def test_dot_d1(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--d", "1", "--format", "dot")
        assert code == 0
        assert out.count("--") == 6  # one per edge of the 4-vertex graph

    def test_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--d", "5", "--format", "edges")
        assert code == 3
        assert "cap" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        code, out, _ = run_cli(capsys, "gen", "--d", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("# fdsc d=1 n=2")


class TestCut:
    def test_k1m_verify(self, capsys):
        code, obj, _ = run_json(
            capsys, "cut", "--d", "2", "--pattern", "k1m", "--m", "2", "--verify"
        )
        assert code == 0
        assert obj["family_size"] == 2
        assert obj["u"] == "1100"
        assert obj["report"]["is_cut"] is True
        assert obj["report"]["isolated"] == "1100"

    def test_k11_verify(self, capsys):
        code, obj, _ = run_json(
            capsys, "cut", "--d", "3", "--pattern", "k11",
            "--u", "00000000", "--verify",
        )
        assert code == 0
        assert obj["family_size"] == 4
        assert obj["report"]["is_cut"] is True

    def test_k1m_label_level_d6(self, capsys):
        code, obj, _ = run_json(capsys, "cut", "--d", "6", "--pattern", "k1m", "--m", "3")
        assert code == 0
        assert obj["family_size"] == 4
        assert obj["validated"] is True
        assert "report" not in obj

    def test_k1m_verify_beyond_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "cut", "--d", "6", "--pattern", "k1m", "--m", "3", "--verify"
        )
        assert code == 3

    def test_bad_module_address(self, capsys):
        code, _, err = run_cli(
            capsys, "cut", "--d", "3", "--pattern", "k1m", "--m", "2",
            "--module", "0110",
        )
        assert code == 2
        assert "equal" in err

    def test_missing_m(self, capsys):
        code, _, err = run_cli(capsys, "cut", "--d", "2", "--pattern", "k1m")
        assert code == 2

    def test_flag_of_another_pattern_exits_2(self, capsys):
        for pattern, flag, value in (
            ("k1", "--m", "3"),
            ("k11", "--module", "01"),
            ("k1m --m 2", "--u", "0000"),
        ):
            argv = ["cut", "--d", "2", "--pattern", *pattern.split(), flag, value]
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert f"{flag} does not apply" in err

    def test_empty_label_exits_2(self, capsys):
        # an empty --u / --module is a malformed label, not the all-zero default
        for argv, message in (
            (("--pattern", "k1", "--u", ""), "label must be exactly 4 characters"),
            (("--pattern", "k11", "--u", ""), "label must be exactly 4 characters"),
            (("--pattern", "k1m", "--m", "2", "--module", ""), "module address must be"),
        ):
            code, out, err = run_cli(capsys, "cut", "--d", "2", *argv)
            assert code == 2 and out == ""
            assert message in err

    def test_deterministic_output(self, capsys):
        _, a, _ = run_cli(capsys, "cut", "--d", "3", "--pattern", "k11", "--verify")
        _, b, _ = run_cli(capsys, "cut", "--d", "3", "--pattern", "k11", "--verify")
        assert a == b


class TestOracle:
    def test_d2_m2(self, capsys):
        code, obj, _ = run_json(
            capsys, "oracle", "--d", "2", "--m", "2", "--mode", "structure",
            "--budget", "3",
        )
        assert code == 0
        assert obj["value"] == 2
        assert obj["expected"] == 2
        assert obj["consistent"] is True
        assert obj["certificate"] is not None

    def test_inconclusive_budget_is_consistent(self, capsys):
        code, obj, _ = run_json(
            capsys, "oracle", "--d", "2", "--m", "2", "--mode", "structure",
            "--budget", "1",
        )
        assert code == 0
        assert obj["value"] is None
        assert obj["lower_bound"] == 2
        assert obj["consistent"] is True

    def test_deterministic_except_elapsed(self, capsys):
        _, a, _ = run_json(capsys, "oracle", "--d", "1", "--m", "1", "--budget", "2")
        _, b, _ = run_json(capsys, "oracle", "--d", "1", "--m", "1", "--budget", "2")
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_report_has_no_seed(self, capsys):
        _, obj, _ = run_json(
            capsys, "oracle", "--d", "2", "--m", "2", "--mode", "structure",
            "--budget", "3",
        )
        assert list(obj) == [
            "n", "d", "m", "mode", "value", "lower_bound", "certificate",
            "candidates", "examined", "pruned", "connectivity_checks",
            "elapsed_ms", "notes", "version", "config", "expected", "consistent",
        ]
        assert obj["config"] == {
            "command": "oracle", "d": 2, "m": 2, "mode": "structure", "budget": 3,
        }


class TestLemmas:
    def test_d3_passes(self, capsys):
        code, obj, _ = run_json(capsys, "lemmas", "--d", "3")
        assert code == 0
        assert obj["overall"] is True

    def test_d2_boundary_failure_exits_1(self, capsys):
        code, obj, _ = run_json(capsys, "lemmas", "--d", "2")
        assert code == 1
        assert obj["overall"] is False
        failing = [c for c in obj["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in failing] == ["apex-no-common-neighbor"]

    def test_broken_cross_edge_rule_exits_1_with_json(self, capsys, no_apex_cross_edge_n8):
        code, obj, _ = run_json(capsys, "lemmas", "--d", "3")
        assert code == 1
        assert obj["overall"] is False
        rule = next(c for c in obj["checks"] if c["name"] == "cross-edge-pair-rule")
        assert rule["status"] == "fail"
        assert "modules 0x0,0xf" in rule["detail"] and "(0, 255)" in rule["detail"]


class TestVerify:
    def test_valid_family(self, capsys, tmp_path):
        fam = {
            "mode": "structure",
            "m": 2,
            "elements": [{"center": "0000", "leaves": ["1111", "0100"]}],
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam))
        code, obj, _ = run_json(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 0
        assert obj["validated"] is True
        assert obj["report"]["is_cut"] is False

    def test_invalid_family_exits_1(self, capsys, tmp_path):
        fam = {
            "mode": "structure",
            "m": 1,
            "elements": [{"center": "0000", "leaves": ["0011"]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fam))
        code, obj, _ = run_json(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 1
        assert obj["validated"] is False
        assert "not adjacent" in obj["violation"]

    def test_cut_family_reports_isolation(self, capsys, tmp_path):
        fam = {
            "mode": "structure",
            "m": 0,
            "elements": [
                {"center": "1000", "leaves": []},
                {"center": "1100", "leaves": []},
                {"center": "1111", "leaves": []},
                {"center": "0100", "leaves": []},
            ],
        }
        path = tmp_path / "k1.json"
        path.write_text(json.dumps(fam))
        code, obj, _ = run_json(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 0
        assert obj["report"]["is_cut"] is True
        assert obj["report"]["isolated"] == "0000"

    def test_malformed_family_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "structure", "m": 0, "elements": [{"leaves": []}]}))
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "fdsc", "verify", "--d", "2", "--family", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "malformed family JSON" in proc.stderr

    def test_misspelled_leaves_key_exits_2(self, capsys, tmp_path):
        fam = {"mode": "substructure", "m": 1, "elements": [{"center": "0000", "leafs": ["1000"]}]}
        path = tmp_path / "leafs.json"
        path.write_text(json.dumps(fam))
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 2
        assert out == ""
        assert "malformed family JSON" in err and "'leafs'" in err

    @pytest.mark.parametrize(
        "element",
        [
            {"center": ["0", "0", "0", "0"], "leaves": [["0", "0", "0", "1"]]},
            {"center": ["0", "0", "0", "0"], "leaves": [["0", "1", "0", "0"]]},
        ],
        ids=["not-adjacent", "adjacent"],
    )
    def test_label_lists_exit_2(self, capsys, tmp_path, element):
        # lists of digits are not labels: refused whether the family they
        # spell is valid (0000-0100) or not (0000-0001)
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"mode": "substructure", "m": 1, "elements": [element]}))
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 2
        assert out == ""
        assert "malformed family JSON" in err and "is not a string" in err

    @pytest.mark.parametrize("raw", [b'{"mode": ', b"\xff\xfe"], ids=["truncated", "not-utf8"])
    def test_unreadable_family_exits_2(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--family", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: family file is not valid JSON")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--d", "2", "--family", str(tmp_path / "nope.json")
        )
        assert code == 2


class TestUsage:
    def test_interrupt_exits_130_without_traceback(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_lemmas", interrupted)
        code, out, err = run_cli(capsys, "lemmas", "--d", "3")
        assert code == 130
        assert out == ""
        assert err == "error: interrupted\n"

    def test_unknown_pattern(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cut", "--d", "2", "--pattern", "k12"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_readme_example_golden_bytes(capsysbinary, case):
    """The README CLI examples print these exact bytes and exit codes;
    only ``elapsed_ms`` values may differ.  To record a deliberate output
    change, write ``python -m fdsc <argv>`` to ``golden/<name>.out`` with
    each ``elapsed_ms`` set to 0."""
    code = main(case["argv"].split())
    out = re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', capsysbinary.readouterr().out)
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()
