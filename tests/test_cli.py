"""Command-line interface: subcommands, exit codes, output formats."""

from __future__ import annotations

import json

import pytest

import flockpp as fp
from flockpp.cli import main


def test_no_arguments_is_usage_error(capsys) -> None:
    assert main([]) == 2
    assert capsys.readouterr().err != ""


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys) -> None:
    assert main(["frobnicate"]) == 2


# -- gen -----------------------------------------------------------------------


def test_gen_stdout_round_trips(capsys) -> None:
    assert main(["gen", "--family", "b", "--d", "7"]) == 0
    out = capsys.readouterr().out
    p = fp.protocol_from_json(out)
    assert p == fp.build_protocol_b(7)


def test_gen_to_file(tmp_path, capsys) -> None:
    path = tmp_path / "proto.json"
    assert main(["gen", "--family", "a", "--d", "11", "--out", str(path)]) == 0
    assert fp.protocol_from_json(path.read_text()) == fp.build_protocol_a(11)


def test_gen_invalid_threshold_exit_2(capsys) -> None:
    assert main(["gen", "--family", "b", "--d", "4"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidThreshold"
    assert "d=4" in err["detail"]


def test_gen_nonpositive_d_exit_2(capsys) -> None:
    assert main(["gen", "--family", "a", "--d", "0"]) == 2


# -- verify ----------------------------------------------------------------------


def test_verify_b7_ok(capsys) -> None:
    assert main(["verify", "--family", "b", "--d", "7"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: all checks hold" in out
    # one progress line per population size 1..d+3
    assert sum(1 for line in out.splitlines() if line.startswith("n=")) == 10


def test_verify_json_report(capsys) -> None:
    assert main(["verify", "--family", "b", "--d", "7", "--n-hi", "8", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"): out.rindex("}") + 1])
    assert payload["protocol"] == "b(d=7)"
    assert [r["n"] for r in payload["reports"]] == list(range(1, 9))
    assert [r["nodes_explored"] for r in payload["reports"]] == [1, 2, 2, 4, 5, 6, 18, 32]
    assert all(r["error"] is None for r in payload["reports"])


def test_verify_json_to_file(tmp_path, capsys) -> None:
    path = tmp_path / "report.json"
    assert main(["verify", "--family", "b", "--d", "7", "--n-hi", "7", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["reports"][-1]["complete"]["status"] == "holds"


def test_verify_node_cap_exit_3(capsys) -> None:
    assert main(["verify", "--family", "b", "--d", "7", "--node-cap", "20"]) == 3
    out = capsys.readouterr().out
    assert "CAP EXCEEDED" in out
    assert "RESULT: incomplete" in out
    args = ["verify", "--family", "b", "--d", "7", "--n-lo", "10", "--n-hi", "10"]
    assert main([*args, "--node-cap", "10", "--json", "-"]) == 3
    out = capsys.readouterr().out
    (report,) = json.loads(out[out.index("{"): out.rindex("}") + 1])["reports"]
    assert report["error"] is not None
    assert report["nodes_explored"] == 10
    assert report["bottom_sccs"] is None


def test_verify_failure_exit_1_with_trace(tmp_path, capsys) -> None:
    # A protocol whose accepting set includes the initial state is unsound
    # at n = 1; exercised through check-file to also cover parsing.
    p = fp.make_protocol("eager", ["A", "B"], "A", ["A"], {("A", "A"): [("A", "B")]})
    path = tmp_path / "eager.json"
    path.write_text(fp.protocol_to_json(p))
    rc = main(["check-file", str(path), "--d", "2", "--trace"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "sound=FAILS [1*A]" in out
    assert "RESULT: some checks FAILED" in out


def test_verify_failure_beats_cap_in_exit_code(capsys) -> None:
    # Both a failing check and a capped size: failures win the exit code.
    import tempfile, os

    p = fp.make_protocol("eager", ["A", "B"], "A", ["A"], {("A", "A"): [("A", "B")], ("B", "B"): [("A", "A")]})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w") as fh:
            fh.write(fp.protocol_to_json(p))
        rc = main(["check-file", path, "--d", "2", "--n-lo", "1", "--n-hi", "9", "--node-cap", "4"])
    assert rc == 1


# -- table -----------------------------------------------------------------------


def test_table_csv_stdout(capsys) -> None:
    assert main(["table", "--d-lo", "2", "--d-hi", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,e,z,q_angluin,q_a,q_b,q_pow2,q_best,bound_upper,bound_lower"
    assert lines[1] == "2,1,0,3,4,,3,3,3,2"
    assert len(lines) == 4


def test_table_to_file(tmp_path) -> None:
    path = tmp_path / "table.csv"
    assert main(["table", "--d-lo", "2", "--d-hi", "12", "--csv", str(path)]) == 0
    assert len(path.read_text().splitlines()) == 12


def test_table_bad_range_exit_2(capsys) -> None:
    assert main(["table", "--d-lo", "5", "--d-hi", "2"]) == 2


# -- fmap ------------------------------------------------------------------------


def test_fmap_a7(capsys) -> None:
    assert main(["fmap", "--family", "a", "--d", "7"]) == 0
    out = capsys.readouterr().out
    for line in (
        "f(NB(1)) = 1", "f(NB(2)) = 2", "f(NB(4)) = 4",
        "f(B(0)) = 2", "f(B(1)) = 4", "f(B(2)) = 6", "f(FINAL) = 7",
    ):
        assert line in out
    assert "doubling gaps: holds" in out
    assert "state lower bound 2^(|Q|-1) >= d: holds" in out


def test_fmap_json(capsys) -> None:
    assert main(["fmap", "--family", "a", "--d", "7", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"): out.rindex("}") + 1])
    assert payload["f"] == {
        "NB(1)": 1, "NB(2)": 2, "NB(4)": 4, "B(0)": 2,
        "B(1)": 4, "B(2)": 6, "FINAL": 7,
    }
    assert payload["doubling_gaps"] == {"status": "holds"}
    assert payload["state_lower_bound"] == {"status": "holds"}


def test_fmap_cap_exit_3(capsys) -> None:
    assert main(["fmap", "--family", "a", "--d", "7", "--node-cap", "3"]) == 3


def test_fmap_past_population_limit_exit_3(capsys) -> None:
    # COINS(0) never occurs in angluin(2), so the sweep runs to n = 255.
    assert main(["fmap", "--family", "angluin", "--d", "2", "--n-cap", "300"]) == 3
    out = capsys.readouterr().out
    assert "f(COINS(0)) = unknown (> 255)" in out
    assert "CAP EXCEEDED" in out and "population limit n=255" in out


# -- sim -------------------------------------------------------------------------


def test_sim_json_fields(capsys) -> None:
    assert main([
        "sim", "--family", "b", "--d", "7", "--n", "7",
        "--seed", "3", "--steps", "5000", "--json", "-",
    ]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"): out.rindex("}") + 1])
    assert payload == {
        "protocol_name": "b(d=7)",
        "n": 7,
        "seed": 3,
        "max_steps": 5000,
        "steps_taken": 5000,
        "converged": True,
        "convergence_step": 82,
        "converged_value": 1,
        "ever_emitted_q1": True,
        "final_configuration": "7*FINAL",
        "rng": "cpython-random-mt19937",
    }


def test_sim_seed_reproducible_via_cli(capsys) -> None:
    args = ["sim", "--family", "b", "--d", "7", "--n", "9", "--seed", "42", "--steps", "20000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_sim_bad_population_exit_2(capsys) -> None:
    assert main(["sim", "--family", "b", "--d", "7", "--n", "0", "--seed", "1"]) == 2


# -- check-file --------------------------------------------------------------------


def test_check_file_round_trip(tmp_path, capsys) -> None:
    path = tmp_path / "b7.json"
    assert main(["gen", "--family", "b", "--d", "7", "--out", str(path)]) == 0
    assert main(["check-file", str(path), "--d", "7"]) == 0
    assert "RESULT: all checks hold" in capsys.readouterr().out


def test_check_file_parse_error_exit_2(tmp_path, capsys) -> None:
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-file", str(path), "--d", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ProtocolError"


def test_check_file_missing_file_exit_2(tmp_path, capsys) -> None:
    assert main(["check-file", str(tmp_path / "absent.json"), "--d", "7"]) == 2


# -- environment override ------------------------------------------------------------


def test_env_node_cap_override(monkeypatch, capsys) -> None:
    monkeypatch.setenv("FLOCKPP_NODE_CAP", "10")
    assert main(["verify", "--family", "b", "--d", "7"]) == 3
    assert "CAP EXCEEDED" in capsys.readouterr().out


def test_env_node_cap_flag_beats_env(monkeypatch, capsys) -> None:
    monkeypatch.setenv("FLOCKPP_NODE_CAP", "10")
    assert main(["verify", "--family", "b", "--d", "7", "--node-cap", "1000000"]) == 0


def test_env_node_cap_garbage_exit_2(monkeypatch, capsys) -> None:
    monkeypatch.setenv("FLOCKPP_NODE_CAP", "alot")
    # The override is validated up front, so every subcommand fails fast.
    assert main(["verify", "--family", "b", "--d", "7"]) == 2
    assert main(["gen", "--family", "b", "--d", "7"]) == 2


def test_env_node_cap_nonpositive_exit_2(monkeypatch) -> None:
    monkeypatch.setenv("FLOCKPP_NODE_CAP", "0")
    assert main(["verify", "--family", "b", "--d", "7"]) == 2
