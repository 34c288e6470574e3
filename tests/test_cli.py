"""End-to-end CLI checks through main(argv) — no subprocesses needed."""
from __future__ import annotations

import json

import pytest

from mallows import __version__
from mallows.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def test_sample_two_sided_jsonl(capsys):
    code, out, err = run_cli(
        capsys,
        ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5",
         "--count", "3", "--seed", "9"],
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 samples
    header = json.loads(lines[0])
    assert set(header) == {"q", "seed", "mode", "window", "eps_tv", "version"}
    assert header["window"] == [-2, 2]
    assert header["eps_tv"] is None  # interlacing sampler is exact
    assert header["version"] == __version__
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["lo"] == -2 and rec["hi"] == 2
        assert len(set(rec["values"])) == 5


def test_sample_negative_window_with_space(capsys):
    # "--window -2:2" (separate token) must parse despite the leading dash
    code, out, _ = run_cli(
        capsys,
        ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5",
         "--count", "1", "--seed", "0"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["window"] == [-2, 2]


def test_sample_inversion_reports_eps(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--mode", "two-sided", "--window", "0:2", "--q", "0.5",
         "--count", "1", "--seed", "4", "--sampler", "inversion",
         "--eps-tv", "1e-6"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["eps_tv"] == 1e-6


def test_sample_finite_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--mode", "finite", "--n", "4", "--q", "0.5",
         "--count", "5", "--seed", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,p3,p4"
    assert len(lines) == 6
    for line in lines[1:]:
        row = sorted(int(v) for v in line.split(","))
        assert row == [1, 2, 3, 4]


def test_sample_one_sided(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--mode", "one-sided", "--n", "6", "--q", "0.5",
         "--count", "4", "--seed", "11"],
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        rec = json.loads(line)
        assert len(rec["values"]) == 6
        assert all(v >= 1 for v in rec["values"])
        assert len(set(rec["values"])) == 6


def test_sample_byte_deterministic(capsys):
    argv = ["sample", "--mode", "two-sided", "--window", "-3:3", "--q", "0.5",
            "--count", "10", "--seed", "123"]
    _, out_a, _ = run_cli(capsys, argv)
    _, out_b, _ = run_cli(capsys, list(argv))
    assert out_a == out_b


def test_sample_seed_from_environment(capsys, monkeypatch):
    argv = ["sample", "--mode", "finite", "--n", "3", "--q", "0.5", "--count", "2"]
    monkeypatch.setenv("MALLOWS_SEED", "77")
    _, out_env, _ = run_cli(capsys, argv)
    monkeypatch.delenv("MALLOWS_SEED")
    _, out_default, _ = run_cli(capsys, argv)
    assert json.loads(out_env.splitlines()[0])["seed"] == 77
    assert json.loads(out_default.splitlines()[0])["seed"] == 0
    _, out_explicit, _ = run_cli(capsys, argv + ["--seed", "77"])
    assert out_explicit == out_env


def test_sample_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("MALLOWS_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys,
        ["sample", "--mode", "finite", "--n", "3", "--q", "0.5", "--count", "1"],
    )
    assert code == 2
    assert "error[" in err


# --------------------------------------------------------------------------
# pmf
# --------------------------------------------------------------------------

def test_pmf_displacement_csv(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "displacement", "--q", "0.5",
                                    "--radius", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,probability"
    assert len(lines) == 23  # header + 21 rows + tail_bound trailer
    assert lines[-1] == f"tail_bound,{2.0 * 0.5 ** 10!r}"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:-1]}
    assert rows[0] == pytest.approx(0.220643036097, abs=5e-10)
    assert rows[-4] == rows[4]


def test_pmf_joint_rl_json(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "joint-rl", "--q", "0.5",
                                    "--r", "0", "--ell", "0"])
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.1443940475433012, abs=1e-13)


def test_pmf_fdd_json(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "fdd", "--q", "0.5", "--d", "-1,1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["query"] == [-1, 1]
    assert rec["value"] == pytest.approx(0.0324822696, abs=1e-9)
    assert rec["error_bound"] < 1e-12


def test_pmf_fdd_requires_d(capsys):
    code, _, err = run_cli(capsys, ["pmf", "fdd", "--q", "0.5"])
    assert code == 2
    assert "error[" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_passing_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "displacement", "--q", "0.5", "--seed", "1",
         "--sizes", "20000"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("CASE chi-square-d0 ")
    assert lines[-1].startswith("OVERALL PASS")


def test_verify_lln_exits_nonzero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "lln", "--q", "0.5", "--seed", "1",
         "--sizes", "5000"],
    )
    assert code == 1
    assert "FAIL" in out
    assert out.strip().splitlines()[-1].startswith("OVERALL FAIL")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suite", "bogus", "--q", "0.5"])
    assert code == 2
    assert "error[" in err


# --------------------------------------------------------------------------
# misc
# --------------------------------------------------------------------------

def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.strip() == f"mallows {__version__}"


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, ["sample", "--mode", "nonsense", "--q", "0.5"])
    assert code == 2


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2
