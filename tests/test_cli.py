"""CLI: dispatch, exit codes, manifests, byte-stable CSV artifacts."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qrollout import cli
from qrollout.circuit import loads
from qrollout import emulator as em


def run_to_file(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = cli.run(argv + ["--out", str(path)])
    return code, path.read_text()


def test_readme_cli_commands_parse():
    # every `qrollout ...` line of README's CLI block, continuations joined,
    # parses (and is not run), so a flag dropped from cli.py fails here
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("qrollout ")]
    assert lines, "README's CLI block lists no qrollout command"
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["ranksel", "validate", "--n", "4", "--frob"])
    assert exc.value.code == 2


_DOMAIN = ["--domain", "sway", "--m", "2", "--H", "1"]


@pytest.mark.parametrize("argv", [
    ["ranksel", "validate", "--n", "0"],
    ["domain", "mc", "--domain", "sway", "--m", "0", "--H", "1",
     "--seed", "1"],
    ["domain", "mc", *_DOMAIN, "--shots", "0", "--seed", "1"],
    ["domain", "exact", "--domain", "sway", "--m", "2", "--H", "-1"],
    ["oracle", "validate", *_DOMAIN, "--seeds", "0", "--seed", "1"],
    ["bestarm", "separate", "--k", "4,8", "--eps", "0.1,0.05", "--trials",
     "0", "--seed", "1"],
    ["bounds", "lifting", *_DOMAIN, "--samples", "-3", "--seed", "1"],
    ["tables", "correctness", "--seed", "1", "--ref-shots", "0"],
    ["ranksel", "validate", "--n", "four"],
    ["bounds", "lifting", *_DOMAIN, "--arms", "0", "--seed", "1"],
    ["bounds", "lifting", *_DOMAIN, "--arms", "1", "--seed", "1"],
    ["bounds", "decay", "--kappa", "0", "--p", "0.1", "--H", "2",
     "--d-max", "2"],
    ["bounds", "decay", "--kappa", "4", "--p", "1.5", "--H", "2",
     "--d-max", "2"],
    ["bounds", "decay", "--kappa", "4", "--p", "0.1", "--H", "2",
     "--d-max", "-1"],
    ["domain", "exact", "--domain", "epi", "--m", "2", "--H", "1",
     "--T", "-1"],
    ["bestarm", "separate", "--k", "1,4", "--eps", "0.1,0.05", "--seed",
     "1"],
    ["bestarm", "separate", "--k", "4,8", "--eps", "0,0.1", "--seed", "1"],
    ["ranksel", "costs", "--n-max", "0"],
    ["bestarm", "separate", "--k", "4", "--eps", "0.1", "--trials", "2",
     "--seed", "1"],
    ["bestarm", "separate", "--k", "4,8", "--eps", "0.1,0.10", "--trials",
     "2", "--seed", "1"],
    ["domain", "exact", "--domain", "epi", "--m", "2", "--H", "1",
     "--rho", "9"],
])
def test_bad_count_values_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--T", "3"), ("--rho", "7")])
@pytest.mark.parametrize("argv", [
    ["oracle", "build", *_DOMAIN, "--out", "o.json"],
    ["oracle", "counts", *_DOMAIN],
    ["oracle", "validate", *_DOMAIN, "--seeds", "2", "--seed", "1"],
    ["domain", "exact", *_DOMAIN],
    ["domain", "mc", *_DOMAIN, "--shots", "5", "--seed", "1"],
    ["bounds", "lifting", *_DOMAIN, "--seed", "1"],
], ids=lambda argv: "-".join(argv[:2]))
def test_epi_flags_with_sway_exit_2(argv, flag, value, tmp_path, monkeypatch,
                                    capsys):
    # Sway has no payoff threshold and no recovery threshold: the flag
    # would change nothing but the manifest
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + [flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: --domain sway has no {flag}" \
        in captured.err
    assert captured.out == "" and not list(tmp_path.iterdir())


def _usage_error(err: str, command: str) -> str:
    """The message of a usage error that ``command``'s own parser
    reported: its usage line first, its error line last."""
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: qrollout {command} [-h]")
    prefix = f"qrollout {command}: error: "
    assert lines[-1].startswith(prefix)
    return lines[-1][len(prefix):]


def test_arms_beyond_the_valid_cells_exit_2(capsys):
    for argv, message in (
            (["--domain", "epi", "--m", "3", "--H", "1", "--arms", "9"],
             "9 arms need 9 valid cells, the initial board has 8"),
            (["--domain", "sway", "--m", "1", "--H", "1", "--samples", "1"],
             "2 arms need 2 valid cells, the initial board has 1")):
        with pytest.raises(SystemExit) as exc:
            cli.run(["bounds", "lifting", *argv, "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (_usage_error(err, "bounds lifting")
                == f"argument --arms: {message}")


_EPI3 = ["domain", "exact", "--domain", "epi", "--m", "3", "--H", "1"]


@pytest.mark.parametrize("text,message", [
    ("SSSS\nSIS\nSSS\n", "holds 10 cells, not --m 3 squared (9)"),
    ("SS\nSI\n", "holds 4 cells, not --m 3 squared (9)"),
    ("SSX\nSIS\nSSS\n", "cell symbol 'X' is not one of 'SIR'"),
], ids=["ten-cells", "four-cells", "unknown-symbol"])
def test_bad_board_files_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "board.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.run(_EPI3 + ["--board", str(path)])
    assert exc.value.code == 2
    err = _usage_error(capsys.readouterr().err, "domain exact")
    assert err.startswith(f"argument --board: {path}") and message in err


@pytest.mark.parametrize("argv,option", [
    (_EPI3 + ["--board", "{missing}/board.txt"], "--board"),
    (["oracle", "build", "--domain", "epi", "--m", "2", "--H", "1",
      "--out", "{missing}/o.json"], "--out"),
    (["domain", "mc", *_DOMAIN, "--seed", "1", "--out", "{missing}/x.csv"],
     "--out"),
], ids=["board", "oracle-build-out", "emit-out"])
def test_files_that_cannot_be_opened_exit_2(argv, option, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    path = argv[argv.index(option) + 1]
    err = capsys.readouterr().err
    assert f"argument {option}: {path}: No such file or directory" in err


def test_a_board_file_that_is_not_text_exits_2(tmp_path, capsys):
    path = tmp_path / "board.bin"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SystemExit) as exc:
        cli.run(_EPI3 + ["--board", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --board: {path}: not " in err
    assert "text (byte 0)" in err


def test_oracle_build_opens_out_before_composing(tmp_path, capsys,
                                                 monkeypatch):
    def compose(spec):
        raise AssertionError("composed before --out was opened")

    monkeypatch.setattr(cli.orc, "compose", compose)
    build = ["oracle", "build", "--domain", "epi", "--m", "2", "--H", "1",
             "--out"]
    out = tmp_path / "missing" / "o.json"
    with pytest.raises(SystemExit) as exc:
        cli.run(build + [str(out)])
    assert exc.value.code == 2
    assert f"argument --out: {out}: No such file or directory" in \
        capsys.readouterr().err
    # a writable --out is left as it was when the build fails
    out = tmp_path / "o.json"
    with pytest.raises(AssertionError, match="composed before"):
        cli.run(build + [str(out)])
    assert not out.exists()
    out.write_text("kept\n")
    with pytest.raises(AssertionError, match="composed before"):
        cli.run(build + [str(out)])
    assert out.read_text() == "kept\n"


def test_board_file_of_the_default_board(tmp_path, capsys):
    path = tmp_path / "board.txt"
    path.write_text("SSS\nSIS\nSSS\n")
    assert cli.run(_EPI3 + ["--board", str(path)]) == 0
    assert cli.run(_EPI3) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == lines[5] == "exact_value,0.9461364746"


def test_missing_required_seed_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["domain", "mc", "--domain", "epi", "--m", "2", "--H", "1"])
    assert exc.value.code == 2


def test_ranksel_validate_pass(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["ranksel", "validate", "--n", "4"])
    assert code == 0
    assert text.startswith("# manifest: ")
    assert "PASS" in text and "FAIL" not in text


def test_ranksel_validate_reports_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.rs, "exhaustive_check",
                        lambda c: cli.rs.SweepCheck(64, 3, 1))
    code, text = run_to_file(tmp_path, ["ranksel", "validate", "--n", "4",
                                        "--variant", "scan"])
    assert code == 1
    assert text.splitlines()[1] == ("scan n=4: 64 (mask,rank) pairs, 3 "
                                    "mismatches, 1 dirty-ancilla inputs: "
                                    "FAIL")


def test_ranksel_validate_over_the_row_budget_exits_2(monkeypatch, capsys):
    # n = 20 sweeps 2^25 rows, over the 2^24 budget: refused before any
    # batch is made or emulated
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(cli.rs, "counting_batch", no_sweep)
    monkeypatch.setattr(cli.rs, "apply_batch", no_sweep)
    with pytest.raises(SystemExit) as exc:
        cli.run(["ranksel", "validate", "--n", "20"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: argument --n: exhaustive sweep of n=20: 33554432 "
            "(mask,rank) rows exceed the budget of 16777216 rows"
            in captured.err)


def test_ranksel_costs_csv(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["ranksel", "costs", "--n-max", "16"])
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,w,variant,gates,depth,qubits"
    assert len(lines) == 1 + 2 * 3   # n in {4, 8, 16} x two variants


def test_manifest_reproducible_byte_identical(tmp_path):
    argv = ["bestarm", "separate", "--k", "4,8", "--eps", "0.08,0.04",
            "--trials", "10", "--seed", "99"]
    _, text1 = run_to_file(tmp_path, argv, "a.csv")
    _, text2 = run_to_file(tmp_path, argv, "b.csv")
    assert text1.replace("a.csv", "") == text2.replace("b.csv", "")
    manifest = json.loads(text1.splitlines()[0].split("# manifest: ")[1])
    assert manifest["seed"] == 99


GOLDEN_RUNS = {
    "bestarm_separate_seed1.csv": "bestarm separate --k 4,8,16 "
                                  "--eps 0.08,0.04 --trials 40 --seed 1",
    "domain_exact_sway_m3_H4.csv": "domain exact --domain sway --m 3 --H 4",
    "domain_exact_epi_m3_H2.csv": "domain exact --domain epi --m 3 --H 2 "
                                  "--T 2 --rho 2",
    "oracle_counts_sway_m3_H2.csv": "oracle counts --domain sway --m 3 "
                                    "--H 2",
    "oracle_counts_epi_m3_H2.csv": "oracle counts --domain epi --m 3 --H 2 "
                                   "--T 2",
    "oracle_validate_epi_m2_H1.csv": "oracle validate --domain epi --m 2 "
                                     "--H 1 --T 1 --seeds 50 --seed 1",
    # 72-bit config registers, wider than an int64
    "oracle_validate_sway_m6_H1.csv": "oracle validate --domain sway --m 6 "
                                      "--H 1 --seeds 20 --seed 1",
    "ranksel_validate_n6.txt": "ranksel validate --n 6",
    "tables_scaling.csv": "tables scaling",
    # these three print depths
    "ranksel_costs_n1024.csv": "ranksel costs --n-max 1024",
    "ranksel_costs_n4096.csv": "ranksel costs --n-max 4096",
    "tables_correctness_seed3.csv": "tables correctness --seed 3 "
                                    "--shots 2000 --ref-shots 20000",
    # the classical sampler: w = 5, 4 and, past int8 selectors, 8
    "domain_mc_sway_m5_H3.csv": "domain mc --domain sway --m 5 --H 3 "
                                "--shots 20000 --seed 3",
    "domain_mc_epi_m3_H2.csv": "domain mc --domain epi --m 3 --H 2 --T 2 "
                               "--shots 20000 --seed 3",
    "domain_mc_sway_m12_H2.csv": "domain mc --domain sway --m 12 --H 2 "
                                 "--shots 3000 --seed 3",
}


@pytest.mark.parametrize("golden", GOLDEN_RUNS)
def test_cli_output_matches_its_golden_file(golden, capsys):
    path = Path(__file__).parent / "golden" / golden
    assert cli.run(GOLDEN_RUNS[golden].split()) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_oracle_build_dump_roundtrips(tmp_path):
    path = tmp_path / "c.json"
    code = cli.run(["oracle", "build", "--domain", "epi", "--m", "2",
                    "--H", "1", "--out", str(path)])
    assert code == 0
    c = loads(path.read_text())
    assert c.total_qubits > 0
    assert em.check_bijective(c, samples=500).passed


def test_oracle_counts_formula_consistency(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["oracle", "counts", "--domain", "sway",
                              "--m", "3", "--H", "2"])
    assert code == 0
    rows = dict(l.split(",") for l in text.splitlines()
                if not l.startswith("#") and "," in l and
                not l.startswith("quantity"))
    assert float(rows["g_call_predicted"]) == float(rows["g_call_measured"])
    assert int(rows["qubits_total"]) == 205


def test_oracle_validate_pass(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["oracle", "validate", "--domain", "epi",
                              "--m", "2", "--H", "1", "--seeds", "25",
                              "--seed", "5"])
    assert code == 0
    assert "PASS" in text


def test_domain_exact_and_budget_failure(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["domain", "exact", "--domain", "epi",
                              "--m", "3", "--H", "2", "--T", "2",
                              "--rho", "2"])
    assert code == 0
    value = float(text.splitlines()[-1].split(",")[1])
    assert 0.86 < value < 0.88
    code, text = run_to_file(tmp_path,
                             ["domain", "exact", "--domain", "sway",
                              "--m", "5", "--H", "2"])
    assert code == 1
    assert "error" in text


def test_domain_mc(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["domain", "mc", "--domain", "sway", "--m", "2",
                              "--H", "1", "--shots", "500", "--seed", "3"])
    assert code == 0
    assert "mc_value," in text


def test_bounds_decay_values(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["bounds", "decay", "--kappa", "4", "--p",
                              "0.125", "--H", "5", "--d-max", "3"])
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith(("#", "d,"))]
    first = lines[0].split(",")
    assert first[0] == "1" and float(first[1]) == 0.5


def test_bounds_peripheral(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["bounds", "peripheral", "--m", "10", "--H", "2"])
    assert code == 0
    assert "q_size,75" in text


def test_bounds_lifting_pass(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["bounds", "lifting", "--domain", "epi",
                              "--m", "3", "--H", "1", "--T", "1",
                              "--arms", "2", "--samples", "5", "--seed", "1"])
    assert code == 0
    assert "result,PASS" in text


def test_bounds_lifting_failed_gap_reports_the_family(tmp_path):
    # radius H+1 = 2 from the centre covers the 3x3 grid: no peripheral
    # cell, so the family is the base configuration alone
    code, text = run_to_file(tmp_path,
                             ["bounds", "lifting", "--domain", "sway",
                              "--m", "3", "--H", "1", "--seed", "1",
                              "--samples", "5"])
    assert code == 1
    lines = text.splitlines()
    assert "family_size,1" in lines and "result,FAIL" in lines
    assert lines[-1].startswith("reason,base gap violated at arm 1")


def test_bounds_lifting_over_the_dp_budget_exits_1(tmp_path):
    # 16 cells: the arm means' DP refuses 3^16 states, as domain exact does
    code, text = run_to_file(tmp_path,
                             ["bounds", "lifting", "--domain", "epi",
                              "--m", "4", "--H", "1", "--T", "1",
                              "--seed", "1"])
    assert code == 1
    lines = text.splitlines()
    assert len(lines) == 2 and lines[0].startswith("# manifest: ")
    assert lines[1] == "error: state space 3^16 exceeds budget 19683"


def test_tables_correctness_smoke(tmp_path):
    code, text = run_to_file(tmp_path,
                             ["tables", "correctness", "--seed", "8",
                              "--shots", "400", "--ref-shots", "2000"])
    assert code == 0
    rows = [l for l in text.splitlines() if l.startswith(("sway", "epi"))]
    assert len(rows) == 3
    assert rows[0].split(",")[1] == "3x3 H=2"
    assert "dp-exact" in rows[0] and "mc-ref" in rows[1]


def test_tables_scaling_grid(tmp_path):
    code, text = run_to_file(tmp_path, ["tables", "scaling"])
    assert code == 0
    rows = [l for l in text.splitlines() if l.startswith(("sway", "epi"))]
    assert len(rows) == 10
    for row in rows:
        ratio = float(row.split(",")[-1])
        assert ratio <= 1.25
