"""Command-line interface: subcommands, exit codes, output formats."""

from __future__ import annotations

import json

import pytest

import flockpp as fp
from flockpp import core
from flockpp.cli import _build_parser, main
from mutations import MUTATIONS, build_mutant


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


def test_verify_range_past_the_population_limit_exit_2(capsys) -> None:
    args = ["verify", "--family", "b", "--d", "7", "--n-lo", "250", "--n-hi", "256"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert not any(line.startswith("n=") for line in captured.out.splitlines())
    assert json.loads(captured.err)["error"] == "ValueError"


def test_default_n_hi_stops_at_the_population_limit(tmp_path, capsys) -> None:
    # d + 3 = 256 lies past the limit; the default range ends at 255, and
    # the one size left runs into the node cap.
    args = ["--d", "253", "--n-lo", "255", "--node-cap", "10"]
    assert main(["verify", "--family", "b", *args]) == 3
    assert "verifying n in [255, 255]" in capsys.readouterr().out
    path = tmp_path / "b253.json"
    assert main(["gen", "--family", "b", "--d", "253", "--out", str(path)]) == 0
    assert main(["check-file", str(path), *args]) == 3
    out = capsys.readouterr().out
    assert "verifying n in [255, 255]" in out
    assert "n=255  CAP EXCEEDED" in out


def test_verify_cap_error_says_how_far_it_got(capsys) -> None:
    args = ["verify", "--family", "b", "--d", "7", "--n-lo", "10", "--n-hi", "10"]
    assert main([*args, "--node-cap", "10"]) == 3
    with pytest.raises(fp.CapExceeded) as exc:
        fp.reach(fp.build_protocol_b(7), 10, node_cap=10)
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "CapExceeded",
        "detail": str(exc.value),
        "nodes": exc.value.nodes,
        "levels": exc.value.levels,
    }
    assert (err["nodes"], err["levels"]) == (11, 6)


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


def test_json_failing_verdicts_carry_traces(tmp_path, capsys) -> None:
    p = fp.make_protocol("eager", ["A", "B"], "A", ["A"], {("A", "A"): [("A", "B")]})
    path = tmp_path / "eager.json"
    path.write_text(fp.protocol_to_json(p))
    assert main(["check-file", str(path), "--d", "2", "--n-hi", "2", "--json", "-"]) == 1
    out = capsys.readouterr().out
    r1, r2 = json.loads(out[out.index("{"): out.rindex("}") + 1])["reports"]
    # I_1 is the witness of both failures, reached by no step.
    assert r1["sound"] == {"status": "fails", "witness": "1*A", "trace": []}
    assert r1["consensus"] == r1["sound"]
    assert r1["complete"] == {"status": "na"}
    assert r2["consensus"] == {
        "status": "fails",
        "witness": "1*A + 1*B",
        "trace": [{"pair": ["A", "A"], "result": ["A", "B"], "after": "1*A + 1*B"}],
    }


def test_trace_explores_each_n_once(tmp_path, monkeypatch, capsys) -> None:
    # Traces are read off the search each verdict ran; none searches again.
    sizes = []
    init = core._LevelSearch.__init__

    def counted(self, p, n_max, roots, edges):
        sizes.append(n_max)
        init(self, p, n_max, roots, edges)

    monkeypatch.setattr(core._LevelSearch, "__init__", counted)
    path = tmp_path / "mutant.json"
    path.write_text(fp.protocol_to_json(build_mutant(MUTATIONS[0])))
    assert main(["check-file", str(path), "--d", "7", "--trace"]) == 1
    assert "trace from I_7" in capsys.readouterr().out
    assert sizes == list(range(1, 11))
    sizes.clear()
    assert main(["verify", "--family", "b", "--d", "7", "--trace"]) == 0
    assert sizes == list(range(1, 11))


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
    om = fp.occurrence_thresholds(fp.build_protocol_a(7), 9, node_cap=3)
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "CapExceeded", "detail": om.cap_error}
    assert "exceeds node cap 3" in err["detail"]


def test_fmap_past_population_limit_exit_3(capsys) -> None:
    # COINS(0) never occurs in angluin(2), so the sweep runs to n = 255.
    assert main(["fmap", "--family", "angluin", "--d", "2", "--n-cap", "300"]) == 3
    captured = capsys.readouterr()
    assert "f(COINS(0)) = unknown (> 255)" in captured.out
    assert "CAP EXCEEDED" in captured.out and "population limit n=255" in captured.out
    assert json.loads(captured.err) == {
        "error": "CapExceeded",
        "detail": f"population limit n={fp.MAX_POPULATION} reached with states unknown",
    }


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


def test_check_file_ill_typed_field_exit_2(tmp_path, capsys) -> None:
    # Valid JSON whose q_init is a list, not a state name.
    obj = json.loads(fp.protocol_to_json(fp.build_protocol_b(7)))
    obj["q_init"] = [obj["q_init"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check-file", str(path), "--d", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ProtocolError"


def test_check_file_missing_file_exit_2(tmp_path, capsys) -> None:
    assert main(["check-file", str(tmp_path / "absent.json"), "--d", "7"]) == 2


def _sweep_options(command: str) -> set[str]:
    (sub,) = (a for a in _build_parser(1)._actions if a.dest == "command")
    return {s for a in sub.choices[command]._actions for s in a.option_strings}


@pytest.mark.parametrize("fam,d", [("b", 7), ("a", 5), ("best", 11)])
def test_check_file_sweeps_as_verify_does(fam, d, tmp_path, capsys) -> None:
    # One sweep path: a file written by gen gets verify's reports for every
    # sweep option, and both commands list the same sweep options.
    assert _sweep_options("verify") - {"--family"} == _sweep_options("check-file")
    path = tmp_path / "p.json"
    assert main(["gen", "--family", fam, "--d", str(d), "--out", str(path)]) == 0

    def reports() -> list[dict]:
        out = capsys.readouterr().out
        reps = json.loads(out[out.index("{"): out.rindex("}") + 1])["reports"]
        return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in reps]

    for extra in ([], ["--n-lo", "3", "--n-hi", "6"], ["--node-cap", "10"], ["--trace"]):
        args = ["--d", str(d), *extra, "--json", "-"]
        code = main(["verify", "--family", fam, *args])
        want = reports()
        assert main(["check-file", str(path), *args]) == code
        assert reports() == want


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
