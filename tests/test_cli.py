import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmarkov

from qmarkov import cli
from qmarkov import serialize as ser
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import Channel, identity_channel, transpose_channel
from qmarkov.cli import main
from qmarkov.state import state_from_density


@pytest.fixture
def files(tmp_path):
    m2 = AlgebraShape((2,))
    out = {}

    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        out[name] = str(path)

    dump("identity.json", ser.channel_to_json(identity_channel(m2)))
    dump("transpose2.json", ser.channel_to_json(transpose_channel(m2)))
    rho = AlgElement(m2, (np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex),))
    dump("state.json", ser.state_to_json(state_from_density(rho)))
    corner = AlgElement(m2, (np.diag([1.0, 0.0]).astype(complex),))
    dump("corner.json", ser.state_to_json(state_from_density(corner)))
    dump("kernel.json", {"rows": 2, "cols": 2,
                         "entries": [["1/2", "1/3"], ["1/2", "2/3"]]})
    dump("func.json", {"rows": 2, "cols": 3,
                       "entries": [["1", "0", "1"], ["0", "1", "0"]]})
    dump("p3.json", {"prob": ["1/2", "1/4", "1/4"]})
    dump("p2.json", {"prob": ["1/4", "3/4"]})
    out["dir"] = str(tmp_path)
    return out


def test_check_passes_on_identity(files, capsys):
    code = main(["check", files["identity.json"], "--props", "cp,unital,det"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_check_fails_on_transpose_schwarz(files, capsys):
    code = main(["check", files["transpose2.json"], "--props", "schwarz"])
    assert code == 1
    assert "witness" in capsys.readouterr().out


def test_check_decides_a_huge_finite_channel(tmp_path, capsys):
    """1e200 id of M_2 is finite: the exact checks and the Schwarz gap decide it on
    scaled operands, with finite JSON, instead of reporting NaN or Inf entries."""
    m2 = AlgebraShape((2,))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(ser.channel_to_json(Channel(m2, m2, 1e200 * np.eye(4)))))
    code = main(["check", str(path), "--props", "star,cp,det,pos,schwarz", "--format", "json"])
    assert code == 1
    out = capsys.readouterr().out
    verdicts = {c["property"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert verdicts == {"star-preserving": "pass", "cp": "pass", "deterministic": "fail",
                        "positive": "sampled-pass", "schwarz": "fail"}
    assert "Infinity" not in out and "NaN" not in out


def test_check_state_properties(files):
    assert main(["check", files["identity.json"], "--props", "ae-det,ae-unital",
                 "--state", files["state.json"]]) == 0
    assert main(["check", files["identity.json"], "--props", "ae-det"]) == 2


def test_check_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check", str(bad), "--props", "cp"]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({
        "domain": {"blocks": [2]}, "codomain": {"blocks": [2]},
        "kind": "matrix", "matrix": [[[1, 0]], [[0, 0]]],
    }))
    assert main(["check", str(ragged), "--props", "cp"]) == 2
    assert main(["check", str(tmp_path / "missing.json"), "--props", "cp"]) == 2


def test_check_json_format_is_machine_readable(files, capsys):
    code = main(["check", files["transpose2.json"], "--props", "cp,unital",
                 "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    verdicts = {c["property"]: c["verdict"] for c in payload["checks"]}
    assert verdicts == {"cp": "fail", "unital": "pass"}


def test_bayes_command_writes_candidate(files, tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["bayes", "--channel", files["identity.json"],
                 "--state", files["state.json"], "--out", str(out)])
    assert code == 0
    candidate = ser.channel_from_json(json.loads(out.read_text()))
    assert np.allclose(candidate.matrix, np.eye(4), atol=1e-9)


def test_petz_commands(files, capsys):
    assert main(["petz", "--channel", files["identity.json"],
                 "--state", files["state.json"]]) == 0
    # deficient support is an unmet precondition, not a failed check
    assert main(["petz", "--channel", files["identity.json"],
                 "--state", files["corner.json"]]) == 2


def test_disint_verify_runs_modularity(files, tmp_path, capsys):
    code = main(["disint", "verify", "--channel", files["identity.json"],
                 "--state", files["state.json"],
                 "--candidate", files["identity.json"], "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "modularity" in payload and not payload["modularity"]["violations"]


def test_disint_verify_runs_no_modularity_chain_for_a_map_that_is_not_cpu(files, capsys):
    # the transpose of M_2 disintegrates itself under the prior but is not CP: the
    # verification passes and the chain's preconditions are unmet
    code = main(["disint", "verify", "--channel", files["transpose2.json"],
                 "--state", files["state.json"],
                 "--candidate", files["transpose2.json"], "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "modularity" not in payload
    assert [c["verdict"] for c in payload["checks"]] == ["pass"]


def test_disint_verify_reports_failure(files, capsys):
    # the transpose is not state-preserving as a section of the identity
    code = main(["disint", "verify", "--channel", files["identity.json"],
                 "--state", files["state.json"],
                 "--candidate", files["transpose2.json"]])
    assert code == 1


def test_disint_construct_on_noncommutative_codomain_fails(files, tmp_path, capsys):
    # identity on M_2 has a noncommutative codomain: construction must refuse
    code = main(["disint", "construct", "--channel", files["identity.json"],
                 "--state", files["state.json"]])
    assert code == 2
    assert "NotCommutative" in capsys.readouterr().err


def test_disint_construct_on_embedded_function(files, tmp_path, capsys):
    func_chan = ser.channel_to_json(
        __import__("qmarkov.finstoch", fromlist=["embed"]).embed(
            ser.stochastic_from_json(json.loads(open(files["func.json"]).read()))
        )
    )
    chan_path = tmp_path / "func_chan.json"
    chan_path.write_text(json.dumps(func_chan))
    state_payload = {"shape": {"blocks": [1, 1, 1]},
                     "density": [[[[0.5, 0]]], [[[0.25, 0]]], [[[0.25, 0]]]]}
    state_path = tmp_path / "p_state.json"
    state_path.write_text(json.dumps(state_payload))
    code = main(["disint", "construct", "--channel", str(chan_path),
                 "--state", str(state_path)])
    assert code == 0


def test_disint_construct_on_a_map_vanishing_at_a_supported_point(tmp_path, capsys):
    # F(b) = (b_0, b_1, 0): the pullback of a prior that weighs the third point is short
    f = Channel(AlgebraShape((1, 1)), AlgebraShape((1, 1, 1)),
                np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    chan = _write(tmp_path, "vanishing.json", ser.channel_to_json(f))
    state = _write(tmp_path, "p3_state.json", {
        "shape": {"blocks": [1, 1, 1]},
        "density": [[[[0.5, 0.0]]], [[[0.25, 0.0]]], [[[0.25, 0.0]]]]})
    assert main(["disint", "construct", "--channel", chan, "--state", state]) == 2
    assert capsys.readouterr().err.startswith("error: PullbackNotPSD: ")


def test_disint_verify_on_an_overflowing_composite_gives_no_verdict(tmp_path, capsys):
    # F = G with F(E_22) = 1e300 E_22: G o F overflows, which is no verdict, not a crash
    m2 = AlgebraShape((2,))
    mat = np.eye(4)
    mat[3, 3] = 1e300
    chan = _write(tmp_path, "huge.json", ser.channel_to_json(Channel(m2, m2, mat)))
    corner = AlgElement(m2, (np.diag([1.0, 0.0]).astype(complex),))
    state = _write(tmp_path, "corner.json", ser.state_to_json(state_from_density(corner)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["disint", "verify", "--channel", chan, "--state", state,
                     "--candidate", chan])
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert err.startswith("error: ") and "Traceback" not in err and "Warning" not in err


def test_classical_commands(files, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["classical", "bayes", "--kernel", files["kernel.json"],
                 "--prob", files["p2.json"], "--out", str(out)]) == 0
    g = ser.stochastic_from_json(json.loads(out.read_text()))
    assert g.exact
    assert main(["classical", "check", "--kernel", files["kernel.json"]]) == 0
    assert main(["classical", "disint", "--kernel", files["func.json"],
                 "--prob", files["p3.json"]]) == 0
    # random kernel has no disintegration formula
    assert main(["classical", "disint", "--kernel", files["kernel.json"],
                 "--prob", files["p2.json"]]) == 1


def test_classical_commands_reject_non_finite_entries(files, tmp_path, capsys):
    # json.loads reads Infinity and NaN as floats
    kernel = tmp_path / "inf_kernel.json"
    kernel.write_text('{"rows": 2, "cols": 1, "entries": [[Infinity], [0.0]]}')
    prob = tmp_path / "nan_prob.json"
    prob.write_text('{"prob": [NaN, 1.0]}')
    capsys.readouterr()
    assert main(["classical", "check", "--kernel", str(kernel)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert main(["classical", "bayes", "--kernel", str(kernel),
                 "--prob", files["p2.json"]]) == 2
    assert main(["classical", "bayes", "--kernel", files["kernel.json"],
                 "--prob", str(prob)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, what", [
    (["bayes", "--channel", "identity.json", "--state", "state.json"], "candidate", "candidate"),
    (["petz", "--channel", "identity.json", "--state", "state.json"], "recovery", "recovery"),
    (["disint", "construct", "--channel", "func_chan.json", "--state", "p_state.json"],
     "candidate", "disintegration"),
    (["classical", "bayes", "--kernel", "kernel.json", "--prob", "p2.json"], "inverse", "inverse"),
])
def test_out_moves_the_artifact_from_the_payload_to_the_file(files, tmp_path, capsys,
                                                            command, key, what):
    from qmarkov.finstoch import embed

    func = ser.stochastic_from_json(json.loads(open(files["func.json"]).read()))
    (tmp_path / "func_chan.json").write_text(json.dumps(ser.channel_to_json(embed(func))))
    (tmp_path / "p_state.json").write_text(json.dumps(
        {"shape": {"blocks": [1, 1, 1]}, "density": [[[[0.5, 0]]], [[[0.25, 0]]], [[[0.25, 0]]]]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    capsys.readouterr()
    assert main(argv + ["--format", "json"]) == 0
    full = json.loads(capsys.readouterr().out)
    out = tmp_path / "artifact.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    rest = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == full.pop(key)
    assert rest == full
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"{what} written to {out}\n")


def test_channel_with_a_nan_entry_exits_2(files, tmp_path, capsys):
    payload = json.loads(open(files["identity.json"]).read())
    payload["matrix"][0][3] = [float("nan"), 0.0]
    chan = tmp_path / "nan_chan.json"
    chan.write_text(json.dumps(payload))   # json.dumps writes NaN, json.loads reads it
    capsys.readouterr()
    assert main(["check", str(chan), "--props", "cp"]) == 2
    assert capsys.readouterr().err == "error: matrix contains NaN or Inf entries\n"
    assert main(["bayes", "--channel", str(chan), "--state", files["state.json"]]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_state_with_a_non_finite_entry_exits_2(files, tmp_path, capsys, bad):
    payload = json.loads(open(files["state.json"]).read())
    payload["density"][0][0][1] = [bad, 0.0]
    state = tmp_path / "bad_state.json"
    state.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check", files["identity.json"], "--props", "ae-det",
                 "--state", str(state)]) == 2
    assert capsys.readouterr().err == "error: matrix contains NaN or Inf entries\n"
    assert main(["bayes", "--channel", files["identity.json"], "--state", str(state)]) == 2


def test_bayes_command_on_embedded_classical_problem(files, tmp_path):
    kernel = ser.stochastic_from_json(json.loads(open(files["kernel.json"]).read()))
    from qmarkov.finstoch import embed

    chan_path = tmp_path / "embedded.json"
    chan_path.write_text(json.dumps(ser.channel_to_json(embed(kernel))))
    state_path = tmp_path / "p_state.json"
    state_path.write_text(json.dumps({
        "shape": {"blocks": [1, 1]},
        "density": [[[[0.25, 0]]], [[[0.75, 0]]]],
    }))
    out = tmp_path / "g.json"
    assert main(["bayes", "--channel", str(chan_path), "--state", str(state_path),
                 "--out", str(out)]) == 0
    assert out.exists()


def test_corpus_commands(capsys):
    assert main(["corpus", "list"]) == 0
    assert "hamming-7-4" in capsys.readouterr().out
    assert main(["corpus", "run", "mu-norm"]) == 0
    assert main(["corpus", "run", "nosuch"]) == 2


def test_corpus_run_all(capsys):
    assert main(["corpus", "run", "--all", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["fixtures"]) == 13


def test_props_command(capsys):
    assert main(["props", "--trials", "8", "--seed", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 0 and payload["trials"] == 8


@pytest.mark.parametrize("argv", [
    ["corpus", "run", "--all", "--tol", "1e-12"],
    ["corpus", "run", "epr", "--rank-tol", "1e-9"],
    ["corpus", "run", "epr", "--seed", "1"],
    ["corpus", "run", "--all", "--trials", "8"],
    ["corpus", "list", "--out", "names.json"],
    ["props", "--tol", "1e-12"],
    ["props", "--rank-tol", "1e-9"],
    ["props", "--out", "suites.json"],
])
def test_commands_reject_options_they_do_not_read(argv, capsys):
    # corpus reads no tolerance, seed or trial count, and props no tolerance: each
    # registers only what it reads, so an option it would ignore is a usage error
    assert main(argv) == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["corpus", "run", "epr", "--all"], "corpus run takes either a fixture name or --all"),
    (["corpus", "run"], "corpus run takes either a fixture name or --all"),
    (["corpus", "list", "epr"], "corpus list takes no fixture name and no --all"),
    (["corpus", "list", "--all"], "corpus list takes no fixture name and no --all"),
])
def test_corpus_rejects_arguments_it_would_ignore(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_props_rejects_fewer_than_one_trial(trials, capsys):
    # rejected before any suite runs: no suite reports a vacuous pass
    assert main(["props", "--trials", trials, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "trials must be >= 1" in captured.err and captured.out == ""


@pytest.mark.parametrize("props", [",", "", " , "])
def test_check_rejects_an_empty_property_list(files, props, capsys):
    assert main(["check", files["identity.json"], "--props", props, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "no property requested" in captured.err and captured.out == ""


def test_constructions_reject_sampling_options(files, capsys):
    for argv in (["bayes", "--channel", files["identity.json"], "--state", files["state.json"]],
                 ["classical", "check", "--kernel", files["kernel.json"]]):
        for extra in (["--seed", "1"], ["--trials", "8"]):
            assert main(argv + extra) == 2
            assert "unrecognized arguments: " + extra[0] in capsys.readouterr().err
        assert main(argv + ["--tol", "1e-9", "--rank-tol", "1e-9"]) == 0


def test_seed_env_fallback(files, monkeypatch, capsys):
    monkeypatch.setenv("QMARKOV_SEED", "3")
    assert main(["props", "--trials", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 3


def test_reproducible_outputs(files, capsys):
    main(["check", files["transpose2.json"], "--props", "schwarz", "--format", "json"])
    first = capsys.readouterr().out
    main(["check", files["transpose2.json"], "--props", "schwarz", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_corpus_json_is_byte_identical_across_runs(capsys):
    main(["corpus", "run", "knill-laflamme", "--format", "json"])
    first = capsys.readouterr().out
    main(["corpus", "run", "knill-laflamme", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code():
    assert main(["check"]) == 2
    assert main([]) == 2


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr("qmarkov.props.run_all", lambda seed, trials: seen.append(trials) or [])
    calls = [["corpus", "run", "epr", "--format", "json"], ["corpus", "run", "epr"],
             ["nosuch"], ["props", "--trials", "3"], ["props"]]

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    json.loads(reused[0][1])
    assert reused[1][1].startswith("epr ")   # text: no --format leaks from the first call
    assert seen == [3, 64, 3, 64]


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _shift_channel(n: int, t: float):
    """X |-> X - t tr(X) / n 1 on M_n: not positive for t > 1 / n on a corner."""
    from qmarkov import algebra as alg
    from qmarkov.channel import Channel
    s = AlgebraShape((n,))
    u = alg.vec(alg.unit(s))
    return Channel(s, s, np.eye(s.coord_dim) - t / n * np.outer(u, u))


def _triggers(files, tmp_path):
    """(error class name, argv) for every library error a command line can reach."""
    from qmarkov import finstoch
    shift = _write(tmp_path, "shift.json", ser.channel_to_json(_shift_channel(2, 0.5)))
    m3 = AlgebraShape((3,))
    state3 = _write(tmp_path, "state3.json", ser.state_to_json(state_from_density(
        AlgElement(m3, (np.eye(3, dtype=complex) / 3,)))))
    skew = _write(tmp_path, "skew.json", {"shape": {"blocks": [2]}, "density": [
        [[[0.5, 0.0], [0.0, 0.1]], [[0.0, 0.0], [0.5, 0.0]]]]})
    kernel = finstoch.stochastic([["1/2", "1/3"], ["1/2", "2/3"]])
    mixing = _write(tmp_path, "mixing.json", ser.channel_to_json(finstoch.embed(kernel)))
    return [
        ("SupportNotFull", ["petz", "--channel", files["identity.json"],
                            "--state", files["corner.json"]]),
        ("PullbackNotPSD", ["bayes", "--channel", shift, "--state", files["corner.json"]]),
        ("ShapeMismatch", ["bayes", "--channel", files["identity.json"], "--state", state3]),
        ("ShapeMismatch", ["classical", "bayes", "--kernel", files["kernel.json"],
                           "--prob", files["p3.json"]]),
        ("UnknownFixture", ["corpus", "run", "nosuch"]),
        ("NotSelfAdjoint", ["petz", "--channel", files["identity.json"], "--state", skew]),
        ("NotCommutative", ["disint", "construct", "--channel", files["identity.json"],
                            "--state", files["state.json"]]),
        ("NotAeDeterministic", ["disint", "construct", "--channel", mixing,
                                "--state", _write(tmp_path, "p2_state.json", {
                                    "shape": {"blocks": [1, 1]},
                                    "density": [[[[0.25, 0.0]]], [[[0.75, 0.0]]]]})]),
    ]


def test_reachable_library_errors_exit_2(files, tmp_path, capsys):
    raised = set()
    for name, argv in _triggers(files, tmp_path):
        capsys.readouterr()
        assert main(argv) == 2, (name, argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (name in err or name == "UnknownFixture"), (name, err)
        raised.add(name)
    assert len(raised) == 7


def _library_errors():
    from qmarkov.errors import QmarkovError
    return sorted(QmarkovError.__subclasses__(), key=lambda c: c.__name__)


@pytest.mark.parametrize("error", _library_errors(), ids=lambda c: c.__name__)
def test_every_library_error_exits_2(error, monkeypatch, capsys):
    """Errors are never verdicts: each QmarkovError subclass exits 2, as usage errors do."""
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setitem(cli._HANDLERS, "corpus", handler)
    assert main(["corpus", "list"]) == 2
    err = capsys.readouterr().err
    assert "raised by the handler" in err and err.startswith("error: ")


def test_the_error_classes_are_the_documented_ones():
    names = {c.__name__ for c in _library_errors()}
    assert names == {"NotSelfAdjoint", "NotPSD", "ShapeMismatch", "Singular",
                     "PullbackNotPSD", "SupportNotFull", "NotCommutative", "NotAeDeterministic",
                     "PreconditionsUnmet", "UnknownFixture"}
    doc = cli.__doc__
    assert all(name in doc for name in names)


_COMMANDS = [["corpus", "list"], ["corpus", "run", "--all", "--format", "json"]]


def _cli_process(args, stdout):
    env = dict(os.environ, PYTHONPATH=str(Path(qmarkov.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "qmarkov", *args], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("args", _COMMANDS)
def test_a_reader_that_stops_after_one_line_leaves_no_traceback(args):
    proc = _cli_process(args, subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b"" and proc.returncode == 0


@pytest.mark.parametrize("args", _COMMANDS)
def test_a_closed_stdout_leaves_no_traceback(args):
    # the read end is closed before the CLI writes, so every write it makes fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(args, write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert err == b"" and proc.returncode == 0


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
                                    ["--tol=-1e-9"], ["--rank-tol", "1"],
                                    ["--rank-tol", "nan"]])
def test_an_out_of_range_tolerance_is_a_usage_error(files, capsys, option):
    # a NaN or infinite threshold passed every check of the transpose; Tolerance
    # refuses it, and the command reaches no verdict
    code = main(["check", files["transpose2.json"]] + option)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tolerance ")


@pytest.mark.parametrize("option", [["--tol", "-1e-9"], ["--tol=-1e-9"],
                                    ["--rank-tol", "-0.5"], ["--rank-tol=-0.5"],
                                    ["--rank-tol", "-1e-9"]])
def test_a_negative_tolerance_reaches_tolerance_in_either_form(files, capsys, option):
    # argparse reads "-1e-9" as an option, not as the value of --tol: main joins a
    # space-separated number to its option, so Tolerance gives the error
    assert main(["check", files["transpose2.json"]] + option) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance ") and "must be finite and positive" in err


def test_only_tolerance_values_before_the_option_terminator_are_joined():
    assert cli._joined_tolerances(["check", "--tol", "-1e-9", "--rank-tol", "x", "--",
                                   "--tol", "-1"]) == [
        "check", "--tol=-1e-9", "--rank-tol", "x", "--", "--tol", "-1"]


@pytest.mark.parametrize("command, option", [("check", "--rank"), ("check", "--r"),
                                             ("check", "--to"), ("bayes", "--t")])
def test_a_prefix_of_a_tolerance_option_reaches_tolerance(files, capsys, command, option):
    # argparse reads an unambiguous prefix as its option (bayes has no --trials for --t
    # to match), so the joined --rank=-1e-9 is --rank-tol=-1e-9, in process and from argv
    argv = ([command, files["transpose2.json"]] if command == "check" else
            [command, "--channel", files["identity.json"], "--state", files["state.json"]])
    argv += [option, "-1e-9"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: tolerance ")
    proc = _cli_process(argv, subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2 and err.startswith(b"error: tolerance "), err


def test_an_ambiguous_prefix_stays_a_usage_error(files, capsys):
    # check has --tol and --trials: argparse refuses --t, joined or not
    assert main(["check", files["transpose2.json"], "--t", "-1e-9"]) == 2
    assert "ambiguous option" in capsys.readouterr().err
    assert cli._joined_tolerances(["check", "--t", "-1e-9", "--r", "1", "--", "-1"]) == [
        "check", "--t=-1e-9", "--r=1", "--", "-1"]


def test_tolerance_refuses_fields_out_of_range():
    from qmarkov.tolerances import Tolerance
    for field in ("eq", "psd", "herm", "rank"):
        for bad in (float("nan"), float("inf"), 0.0, -1e-9):
            with pytest.raises(ValueError, match=field):
                Tolerance(**{field: bad})
    with pytest.raises(ValueError, match="rank"):
        Tolerance(rank=1.0)
    assert Tolerance(herm=10.0, psd=0.5).herm == 10.0


def test_channels_near_the_float_max_end_in_a_verdict_or_an_error(tmp_path, capsys):
    # the M_2 map with entries 0.65e308 (+-1 - i) and the all-ones 1.7e308 map of M_3:
    # their pullbacks are decided scaled, and refused for the reason the unscaled one has
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = m[3, 1] = 0.65e308 - 0.65e308j
    m[0, 2] = m[3, 2] = -0.65e308 - 0.65e308j
    cases = {}
    for n, mat in ((2, m), (3, 1.7e308 * np.ones((9, 9)))):
        s = AlgebraShape((n,))
        chan, st = tmp_path / f"chan{n}.json", tmp_path / f"state{n}.json"
        chan.write_text(json.dumps(ser.channel_to_json(Channel(s, s, mat))))
        rho = AlgElement(s, (np.eye(n, dtype=complex) / n,))
        st.write_text(json.dumps(ser.state_to_json(state_from_density(rho))))
        cases[n] = ["--channel", str(chan), "--state", str(st)]
    for n, reason in ((2, "anti-self-adjoint part"), (3, "trace")):
        for argv in (["bayes"], ["petz"], ["disint", "verify", "--candidate", cases[n][1]]):
            assert main(argv + cases[n]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: PullbackNotPSD: ") and reason in err, err
    # a.e. unitality on the scaled operands: F(1) 2^-e against 1 2^-e under the support
    assert main(["check", cases[3][1], "--props", "ae-unital", "--state", cases[3][3],
                 "--format", "json"]) == 1
    (rep,) = json.loads(capsys.readouterr().out)["checks"]
    assert rep["verdict"] == "fail" and rep["witness"]["scale_exponent"] < 0


def test_importing_the_cli_leaves_the_corpus_and_the_suites_unloaded():
    """Only `corpus` and `props` import those modules, so `check` and `--help` start faster."""
    env = dict(os.environ, PYTHONPATH=str(Path(qmarkov.__file__).resolve().parents[1]))
    code = ("import sys, qmarkov.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('qmarkov')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    loaded = out.stdout.strip()
    assert "qmarkov.cli" in loaded
    assert "qmarkov.props" not in loaded and "qmarkov.corpus" not in loaded
