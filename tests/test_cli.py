"""End-to-end CLI checks through main(argv) — no subprocesses needed."""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mallows import GeomStream, QParam, __version__
from mallows.cli import _KERNEL_WORD_MAX, main
from mallows.samplers import (
    _BLOCK_ROWS,
    batch_inversion_windows,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
    sample_two_sided_inversion,
)
from mallows.verify import SUITE_NAMES


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


INVERSION = ["sample", "--mode", "two-sided", "--sampler", "inversion", "--q", "0.5"]


def test_sample_inversion_count_one_is_the_scalar_sampler(capsys):
    for seed in range(1, 21):
        code, out, err = run_cli(
            capsys, INVERSION + ["--window", "-5:5", "--count", "1", "--seed", str(seed)]
        )
        w = sample_two_sided_inversion(-5, 5, QParam(0.5), GeomStream(seed, 0.5), 1e-9)
        header = {"q": 0.5, "seed": seed, "mode": "two-sided", "window": [-5, 5],
                  "eps_tv": 1e-9, "version": __version__}
        assert code == 0 and err == ""
        assert out == json.dumps(header) + "\n" + json.dumps(w.to_json()) + "\n"


def test_sample_inversion_draws_kernel_blocks(capsys):
    count = _BLOCK_ROWS + 3
    code, out, _ = run_cli(
        capsys, INVERSION + ["--window", "-2:2", "--count", str(count), "--seed", "5"]
    )
    assert code == 0
    rows = [json.loads(line)["values"] for line in out.splitlines()[1:]]
    s, p = GeomStream(5, 0.5), QParam(0.5)
    blocks = [batch_inversion_windows(-2, 2, p, s, n, 1e-9)[0] for n in (_BLOCK_ROWS, 3)]
    assert rows == np.vstack(blocks).tolist()


def test_sample_inversion_csv(capsys):
    code, out, _ = run_cli(
        capsys, INVERSION + ["--window", "-1:2", "--count", "6", "--seed", "8",
                             "--eps-tv", "1e-6", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p-1,p0,p1,p2"
    values, _ = batch_inversion_windows(-1, 2, QParam(0.5), GeomStream(8, 0.5), 6, 1e-6)
    assert [[int(v) for v in line.split(",")] for line in lines[1:]] == values.tolist()


WORD_SCALARS = {
    "finite": lambda n, p, s: sample_finite_mallows(n, p, s).values,
    "one-sided": q_shuffle_prefix,
}


@pytest.mark.parametrize("mode", list(WORD_SCALARS))
def test_sample_words_are_the_scalar_twins(capsys, mode):
    # kernel blocks print what one scalar call per window printed, for
    # every count: the first `count` windows of one stream
    n, counts = 6, (1, 250, _BLOCK_ROWS + 3)
    for seed in range(1, 21):
        s, p = GeomStream(seed, 0.5), QParam(0.5)
        words = [WORD_SCALARS[mode](n, p, s) for _ in range(max(counts))]
        header = {"q": 0.5, "seed": seed, "mode": mode, "window": [1, n],
                  "eps_tv": None, "version": __version__}
        jsonl = [json.dumps(header)] + [
            json.dumps({"lo": 1, "hi": n, "values": list(w)}) for w in words]
        csv = [",".join(f"p{i}" for i in range(1, n + 1))] + [
            ",".join(map(str, w)) for w in words]
        for count, (fmt, lines) in itertools.product(counts, (("jsonl", jsonl), ("csv", csv))):
            code, out, err = run_cli(capsys, [
                "sample", "--mode", mode, "--n", str(n), "--q", "0.5", "--count", str(count),
                "--seed", str(seed), "--format", fmt])
            assert code == 0 and err == ""
            assert out == "".join(line + "\n" for line in lines[: count + 1]), (seed, count, fmt)


def test_sample_interlacing_is_successive_scalar_calls(capsys):
    # `count` windows print what `count` successive scalar calls on one
    # stream return, for counts below, at and past one block
    lo, hi, counts = -2, 2, (1, 5, _BLOCK_ROWS + 3)
    for seed in range(1, 6):
        s, p = GeomStream(seed, 0.5), QParam(0.5)
        windows = [sample_two_sided_interlacing(lo, hi, p, s)[0].values
                   for _ in range(max(counts))]
        header = {"q": 0.5, "seed": seed, "mode": "two-sided", "window": [lo, hi],
                  "eps_tv": None, "version": __version__}
        jsonl = [json.dumps(header)] + [
            json.dumps({"lo": lo, "hi": hi, "values": list(w)}) for w in windows]
        csv = [",".join(f"p{i}" for i in range(lo, hi + 1))] + [
            ",".join(map(str, w)) for w in windows]
        for count, (fmt, lines) in itertools.product(counts, (("jsonl", jsonl), ("csv", csv))):
            code, out, err = run_cli(capsys, [
                "sample", "--mode", "two-sided", "--window", f"{lo}:{hi}", "--q", "0.5",
                "--count", str(count), "--seed", str(seed), "--format", fmt])
            assert code == 0 and err == ""
            assert out == "".join(line + "\n" for line in lines[: count + 1]), (seed, count, fmt)


@pytest.mark.parametrize("mode", list(WORD_SCALARS))
@pytest.mark.parametrize("n", [_KERNEL_WORD_MAX, _KERNEL_WORD_MAX + 1])
def test_sample_words_either_side_of_the_kernel_limit(capsys, mode, n):
    # the longest kernel word and the shortest scalar one print the same
    # words as the scalar sampler
    count = 300
    code, out, _ = run_cli(capsys, ["sample", "--mode", mode, "--n", str(n), "--q", "0.8",
                                    "--count", str(count), "--seed", "3", "--format", "csv"])
    s, p = GeomStream(3, 0.8), QParam(0.8)
    assert code == 0
    assert out.splitlines()[1:] == [
        ",".join(map(str, WORD_SCALARS[mode](n, p, s))) for _ in range(count)]


@pytest.mark.parametrize(
    "argv",
    [INVERSION + ["--window", "-2:2", "--eps-tv", "0"],
     INVERSION + ["--window", "-2:2", "--eps-tv", "nan"],
     INVERSION + ["--window", "-2:2", "--eps-tv", "inf"],
     ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.999"],
     ["sample", "--mode", "finite", "--n", "0", "--q", "0.5"],
     ["sample", "--mode", "one-sided", "--n", "0", "--q", "0.5"],
     ["sample", "--mode", "finite", "--q", "0.5"]],
)
def test_refused_sample_prints_nothing(capsys, argv):
    for fmt in ("jsonl", "csv"):
        code, out, err = run_cli(capsys, argv + ["--format", fmt])
        assert code == 2
        assert out == ""
        assert "error[" in err


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


@pytest.mark.parametrize("law", [["displacement"], ["fdd", "--d", "0,1"]])
def test_pmf_near_one_is_a_domain_error(capsys, law):
    code, out, err = run_cli(capsys, ["pmf", *law, "--q", "0.997"])
    assert code == 2
    assert out == ""
    assert err.startswith("error[DOMAIN]")


def test_pmf_fdd_nan_tolerance_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, ["pmf", "fdd", "--q", "0.5", "--d", "0", "--tol", "nan"])
    assert code == 2
    assert out == ""
    assert err.startswith("error[DOMAIN]")


PMF_OUTPUT = {
    "displacement": (["displacement", "--radius", "1"], "csv",
                     "d,probability\n-1,0.16903544585520072\n0,0.22064303609653282\n"
                     "1,0.16903544585520072\ntail_bound,1.0\n"),
    "joint-rl": (["joint-rl", "--r", "2", "--ell", "1"], "json",
                 '{"r": 2, "ell": 1, "value": 0.0240656745905502}\n'),
    "fdd": (["fdd", "--d", "0"], "json",
            '{"query": [0], "value": 0.22064303609653282, '
            '"error_bound": 1.9676864930063477e-19}\n'),
}


@pytest.mark.parametrize("law", list(PMF_OUTPUT))
def test_pmf_writes_its_one_format(capsys, law):
    argv, fmt, want = PMF_OUTPUT[law]
    for extra in ([], ["--format", fmt]):
        code, out, err = run_cli(capsys, ["pmf", *argv, "--q", "0.5", *extra])
        assert (code, out, err) == (0, want, "")


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


@pytest.mark.parametrize(
    "suite, sizes",
    [("displacement", "abc"), ("displacement", "1000,x"), ("displacement", "0"),
     ("displacement", "1000,2000"), ("exchangeability", "5"),
     ("finite-oracle", "0"), ("two-sampler", "0"), ("lln", "0"), ("lln", "-5")],
)
def test_verify_bad_sizes_are_domain_errors(capsys, suite, sizes):
    # exit 1 is kept for a failed verification; bad input is exit 2
    code, out, err = run_cli(
        capsys, ["verify", "--suite", suite, "--q", "0.5", "--sizes", sizes])
    assert code == 2
    assert out == ""
    assert err.startswith("error[DOMAIN]")


@pytest.mark.parametrize(
    "suite, q, sizes, seed",
    [("inversion-invariance", "0.8", "3000", "1"), ("displacement", "0.5", "1", "0"),
     ("finite-oracle", "0.5", "1", "0"), ("one-sided-left-counts", "0.9", "2", "0"),
     ("lln", "0.05", "2", "2"), ("lln", "0.5", "1", "0")],
)
def test_verify_case_that_cannot_test_is_a_domain_error(capsys, suite, q, sizes, seed):
    # too few draws for a statistic: neither a traceback (exit 1) nor a PASS
    code, out, err = run_cli(
        capsys, ["verify", "--suite", suite, "--q", q, "--sizes", sizes, "--seed", seed])
    assert code == 2
    assert out == ""
    assert err.startswith("error[DOMAIN]")


def test_verify_help_lists_the_suites(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # no wrapping inside a suite name
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert code == 0
    assert f"one of: {', '.join(SUITE_NAMES)}" in out


def test_cli_import_loads_no_scipy():
    # scipy is imported by the first statistical case, not by the CLI
    import mallows

    code = ("import sys, mallows.cli; from mallows import QParam; "
            "from mallows.verify import run_suite; "
            "assert 'scipy' not in sys.modules; "
            "assert run_suite('exchangeability', (), QParam(0.5), 0).overall_pass; "
            "assert 'scipy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mallows.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suite", "bogus", "--q", "0.5"])
    assert code == 2
    assert "error[" in err


# --------------------------------------------------------------------------
# misc
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [["sample", "--mode", "two-sided", "--window", "3", "--q", "0.5"],
     ["sample", "--mode", "two-sided", "--window", "a:b", "--q", "0.5"],
     ["sample", "--mode", "two-sided", "--window", "2:1", "--q", "0.5"],
     ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5", "--count", "0"],
     ["sample", "--mode", "two-sided", "--q", "0.5"],
     ["pmf", "displacement", "--q", "0.5", "--radius", "-1"],
     ["pmf", "fdd", "--q", "0.5", "--d", "1,x"],
     ["pmf", "displacement", "--q", "0.5", "--format", "json"],
     ["pmf", "joint-rl", "--q", "0.5", "--format", "csv"],
     ["pmf", "fdd", "--q", "0.5", "--d", "0", "--format", "csv"],
     ["pmf", "fdd", "--q", "1e-200", "--d", "0,1"],
     ["pmf", "displacement", "--q", "1e-310"]],
    ids=["window-one-number", "window-not-integers", "window-reversed", "count-zero",
         "no-window", "negative-radius", "d-not-integers", "displacement-json",
         "joint-rl-csv", "fdd-csv", "fdd-overflow", "displacement-overflow"],
)
def test_domain_refusals(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error[DOMAIN]")


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
