import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbatl

from rbatl import (
    WitnessError,
    dump_model,
    dump_net,
    load_model,
    load_witness,
    loads_model,
    model_check,
    parse_formula,
    validate_witness,
)
from rbatl import cli
from rbatl.cli import main
from rbatl.petri import PetriNet

import modelgen


@pytest.fixture
def fig1_path(fig1, tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(dump_model(fig1))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sat_exit_zero(fig1_path, capsys):
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1}: 3,1> (true U p)", "--state", "s_I")
    assert code == 0
    assert "state s_I: SAT" in out
    assert "satisfying: s_I" in out


def test_check_unsat_exit_one(fig1_path, capsys):
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1}: 2,1> (true U p)", "--state", "s_I")
    assert code == 1
    assert "state s_I: UNSAT" in out


def test_check_without_state_exits_zero(fig1_path, capsys):
    code, out, _ = run(capsys, "check", fig1_path, "<{a1}: 3,1> (true U p)")
    assert code == 0


def test_check_malformed_model_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", bad, "p")
    assert code == 2
    assert "error:" in err


def test_check_bad_formula_exit_two(fig1_path, capsys):
    code, _, err = run(capsys, "check", fig1_path, "<{a1}: -1> X p")
    assert code == 2


def test_check_unknown_state_exit_two(fig1_path, capsys):
    code, _, err = run(capsys, "check", fig1_path, "p", "--state", "zz")
    assert code == 2


def test_check_unknown_flag_exit_two(fig1_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(fig1_path), "p", "--frobnicate"])
    assert exc.value.code == 2


def test_check_json_output(fig1_path, capsys):
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1,a2}: 0,1> (true U p)", "--state", "s_I",
                       "--json", "--trace", "--all-labels")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["satisfying"] == ["s_I", "s_prime"]
    assert payload["trace"]["nodes"] > 0
    assert payload["trace"]["cache_hits"] == 0
    assert any("inf" in k or "U" in k for k in payload["labels"])
    _, _, err = run(capsys, "check", fig1_path, "<{a1,a2}: 0,1> (true U p)",
                    "--trace")
    assert "cache_hits=0" in err


def test_check_symbolic_engine(chain, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(dump_model(chain))
    code, out, _ = run(capsys, "check", path, "<{a}: 2> (true U p)",
                       "--state", "c0", "--engine", "symbolic")
    assert code == 0
    code, _, _ = run(capsys, "check", path, "<{a}: 1> (true U p)",
                     "--state", "c0", "--engine", "symbolic")
    assert code == 1


def test_check_long_literal_formula(chain, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(dump_model(chain))
    text = " | ".join(["<{a}: 2> (true U p)"] * 25)
    assert len(text.encode()) >= 400  # longer than a file name may be
    code, out, _ = run(capsys, "check", path, text, "--state", "c0")
    assert code == 0
    assert "state c0: SAT" in out


def test_internal_error_exits_three(chain, tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain.json"
    path.write_text(dump_model(chain))

    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "model_check", broken)
    code, out, err = run(capsys, "check", path, "p", "--state", "c0")
    assert code == 3
    assert "Traceback" in err and "RuntimeError: engine fault" in err
    assert "UNSAT" not in out


@pytest.mark.parametrize("text", [
    "!" * 100000 + "p",
    "<{a}: 1> X " * 100000 + "p",
    "(" * 100000 + "p" + ")" * 100000,
], ids=["not", "next", "parens"])
def test_deep_formulas_get_a_verdict(chain, tmp_path, capsys, text):
    path = tmp_path / "chain.json"
    path.write_text(dump_model(chain))
    deep = tmp_path / "deep.txt"
    deep.write_text(text)
    code, out, err = run(capsys, "check", path, f"@{deep}", "--state", "c0")
    assert code in (0, 1)
    assert err == ""
    assert "state c0: " in out


def test_keyboard_interrupt_is_not_caught(fig1_path, monkeypatch):
    import rbatl.cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(rbatl.cli, "cmd_check", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", str(fig1_path), "p"])


def test_check_symbolic_rejects_production(fig1_path, capsys):
    code, _, err = run(capsys, "check", fig1_path, "p",
                       "--engine", "symbolic")
    assert code == 2
    assert "consumption-only" in err


def test_check_symbolic_rejects_other_semantics(fig1_path, capsys):
    code, _, err = run(capsys, "check", fig1_path, "p",
                       "--engine", "symbolic", "--semantics", "nt")
    assert code == 2


def test_check_semantics_flag(fig4, tmp_path, capsys):
    path = tmp_path / "fig4.json"
    path.write_text(dump_model(fig4))
    code, _, _ = run(capsys, "check", path, "<{a,b}: 0> X p", "--state", "s",
                     "--semantics", "nt")
    assert code == 0
    code, _, _ = run(capsys, "check", path, "<{a,b}: 0> X p", "--state", "s",
                     "--semantics", "ral-finite")
    assert code == 1


def test_check_witness_emission(fig1, fig1_path, tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1,a2}: 0,1> (true U p)", "--state", "s_I",
                       "--witness", out_path)
    assert code == 0
    assert "validated" in out
    tree = load_witness(out_path)
    f = parse_formula("<{a1,a2}: 0,1> (true U p)")
    labels = model_check(fig1, f)
    assert validate_witness(fig1, tree, phi_states=labels[f.hold],
                            psi_states=labels[f.goal])


def test_check_witness_for_a_deep_certificate(fig1, tmp_path, capsys):
    # at gamma 300 the certificate is about 600 nodes deep: it is written
    # and validated, and reading it back is refused by name, not crashed on
    model_path = tmp_path / "fig300.json"
    model_path.write_text(dump_model(modelgen.fig1_with_gamma(fig1, 300)))
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check", model_path,
                       "<{a1,a2}: 0,1> (true U p)", "--state", "s_I",
                       "--witness", out_path)
    assert code == 0
    assert f"witness: {out_path} (validated)" in out
    with pytest.raises(WitnessError, match="nests deeper"):
        load_witness(out_path)


def test_check_witness_needs_state(fig1_path, tmp_path, capsys):
    code, _, err = run(capsys, "check", fig1_path,
                       "<{a1}: 3,1> (true U p)", "--witness",
                       tmp_path / "w.json")
    assert code == 2


def test_check_oracle_flag(fig1_path, capsys):
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1,a2}: 0,1> (true U p)", "--state", "s_I",
                       "--oracle", "depth=12")
    assert code == 0
    assert "oracle: true" in out
    code, out, _ = run(capsys, "check", fig1_path,
                       "<{a1,a2}: 0,1> (true U p)", "--state", "s_I",
                       "--oracle", "depth=3")
    assert code == 0
    assert "oracle: unknown" in out


def test_formula_from_file(fig1_path, tmp_path, capsys):
    fpath = tmp_path / "formula.txt"
    fpath.write_text("<{a1}: 3,1> (true U p)\n")
    code, _, _ = run(capsys, "check", fig1_path, f"@{fpath}",
                     "--state", "s_I")
    assert code == 0
    code, _, _ = run(capsys, "check", fig1_path, fpath, "--state", "s_I")
    assert code == 0


UNREADABLE = pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "too-deep"])


@UNREADABLE
def test_check_unreadable_model_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, "check", bad, "p")
    assert code == 2
    assert "error: model file" in err and "Traceback" not in err


@UNREADABLE
def test_petri_unreadable_net_exits_two(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, "petri", bad, "--target", "1")
    assert code == 2
    assert "error: net file" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "translate"])
def test_formula_file_not_utf8_exits_two(fig1_path, tmp_path, capsys,
                                         command):
    bad = tmp_path / "formula.txt"
    bad.write_bytes(b"\xff\xfep")
    argv = [fig1_path] if command == "check" else []
    code, _, err = run(capsys, command, *argv, f"@{bad}")
    assert code == 2
    assert "error: formula file" in err and "Traceback" not in err


def test_check_symbolic_all_labels_lists_the_general_keys(chain, tmp_path,
                                                          capsys):
    # the symbolic engine labels what the tree engine labels: the
    # subformulas and the unbounded guard, not the bound ladder
    path = tmp_path / "chain.json"
    path.write_text(dump_model(chain))
    printed = {}
    for engine in ("tree", "symbolic"):
        code, out, _ = run(capsys, "check", path, "<{a}: 2> (true U p)",
                           "--engine", engine, "--all-labels", "--json")
        assert code == 0
        printed[engine] = json.loads(out)["labels"]
    labels = printed["symbolic"]
    assert list(labels) == list(printed["tree"]) == [
        "true", "p", "<{a}: inf> (true U p)", "<{a}: 2> (true U p)"]
    assert labels == printed["tree"]
    assert labels["<{a}: 2> (true U p)"] == ["c0", "c1", "c2"]


def test_model_round_trip_is_byte_identical(fig1, tmp_path):
    text = dump_model(fig1)
    assert dump_model(loads_model(text)) == text


def test_petri_subcommand_pipeline(tmp_path, capsys):
    net = PetriNet(places=("p1",), transitions=("t",),
                   arcs_in={("p1", "t"): 1}, arcs_out={("t", "p1"): 2},
                   marking=(1,))
    net_path = tmp_path / "net.json"
    net_path.write_text(dump_net(net))
    model_path = tmp_path / "reduced.json"
    formula_path = tmp_path / "formula.txt"
    code, out, _ = run(capsys, "petri", net_path, "--target", "3",
                       "--model-out", model_path,
                       "--formula-out", formula_path)
    assert code == 0
    formula_text = formula_path.read_text().strip()
    assert formula_text == out.strip()
    code, _, _ = run(capsys, "check", model_path, formula_text,
                     "--state", "start")
    assert code == 0
    # an uncoverable target must flip the verdict
    code, _, _ = run(capsys, "petri", net_path, "--target", "0",
                     "--model-out", model_path,
                     "--formula-out", formula_path)
    assert code == 0


def test_petri_bad_target(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text(dump_net(PetriNet(
        places=("p1",), transitions=(), arcs_in={}, arcs_out={},
        marking=(0,))))
    code, _, err = run(capsys, "petri", net_path, "--target", "x")
    assert code == 2


def test_translate_subcommand(capsys):
    code, out, _ = run(capsys, "translate", "<{a:1; b:2}> X p")
    assert code == 0
    assert out.strip() == "<{a,b}: 3> X p"
    code, _, err = run(capsys, "translate", "<{a; b:2}> X p")
    assert code == 2
    assert "no endowment row" in err


def test_main_reuses_one_parser_without_leaking_options(fig1_path, capsys,
                                                        monkeypatch):
    built = []
    build = cli.build_arg_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_arg_parser", counted)
    cli._parser.cache_clear()
    query = [fig1_path, "<{a1}: 3,1> (true U p)", "--state", "s_I"]
    env = dict(os.environ, PYTHONPATH=str(Path(rbatl.__file__).parents[1]))
    for argv in (["check", *query, "--json"],
                 ["translate", "<{a:1; b:2}> X p"],
                 ["check", *query]):
        argv = [str(a) for a in argv]
        fresh = subprocess.run([sys.executable, "-m", "rbatl", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr)
    assert len(built) == 1
