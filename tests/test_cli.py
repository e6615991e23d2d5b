import argparse
import errno
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from levy_groups import WitnessCertificate, __version__, canonical, cli, kernel_lab, lapack, rng
from levy_groups.cli import (COMMANDS, EXIT_NEGATIVE_FINDING, EXIT_OK, EXIT_USAGE, RunConfig,
                             build_parser, main, run)


def load_schema(kind: str) -> dict:
    ref = resources.files("levy_groups") / "schemas" / f"{kind}.schema.json"
    return json.loads(ref.read_text())


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def validate(kind: str, text: str) -> dict:
    doc = json.loads(text)
    jsonschema.validate(doc, load_schema(kind))
    return doc


# ---------------------------------------------------------------------------
# happy paths + schemas
# ---------------------------------------------------------------------------

def test_coeffs_json_schema_and_values(tmp_path):
    code, text = run_cli(
        ["coeffs", "--group", "so3", "--lmax", "4", "--mc-n", "20000", "--seed", "5"],
        tmp_path,
    )
    assert code == EXIT_OK
    doc = validate("coeffs", text)
    row2 = doc["rows"][2]
    target = 2.0 / (9.0 * math.pi)
    assert row2["closed"] == pytest.approx(target, abs=1e-12)
    assert row2["quadrature"] == pytest.approx(target, abs=1e-9)
    assert abs(row2["monte_carlo"] - target) <= 4.0 * row2["stderr"]
    assert doc["rows"][0]["dim"] == 1 and doc["rows"][1]["dim"] == 3


def test_coeffs_csv_round_trips_floats(tmp_path):
    code, text = run_cli(
        ["coeffs", "--group", "su2", "--lmax", "2", "--mc-n", "0", "--format", "csv",
         "--no-meta"],
        tmp_path, "out.csv",
    )
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "l,dim,closed,quadrature,monte_carlo,stderr"
    cells = lines[2].split(",")
    assert cells[0] == "1"
    assert float(cells[2]) == pytest.approx(-16.0 / (9.0 * math.pi), abs=1e-15)
    assert cells[4] == "" and cells[5] == ""  # mc disabled


def test_check_su2_passes(tmp_path):
    code, text = run_cli(
        ["check", "--group", "su2", "--points", "200", "--seed", "1"], tmp_path
    )
    assert code == EXIT_OK
    doc = validate("check", text)
    assert doc["kernel_psd"] is True
    assert doc["restricted_negative"] is True
    assert doc["equivalence_ok"] is True
    assert doc["max_centered_eig"] <= 1e-8
    # K is positive definite: the ends come from its Cholesky factor
    assert doc["method"] == ("cholesky" if lapack.available() else "reduction")


def test_check_so3_states_the_reduction_where_k_is_indefinite(tmp_path):
    # ROADMAP item 1's set: the sum-zero block factors, K does not
    code, text = run_cli(
        ["check", "--group", "so3", "--points", "10", "--seed", "5"], tmp_path
    )
    assert code == EXIT_NEGATIVE_FINDING
    assert validate("check", text)["method"] == "reduction"


def test_check_so3_reports_negative_finding(tmp_path, capsys):
    code, text = run_cli(
        ["check", "--group", "so3", "--points", "60", "--seed", "1"], tmp_path
    )
    assert code == EXIT_NEGATIVE_FINDING
    doc = validate("check", text)
    assert doc["kernel_psd"] is False
    assert doc["max_centered_eig"] > 1e-8
    assert "not positive semidefinite" in capsys.readouterr().err


def test_check_son_direct(tmp_path):
    code, text = run_cli(
        ["check", "--group", "son", "--n", "4", "--points", "40", "--seed", "3"],
        tmp_path,
    )
    doc = validate("check", text)
    assert doc["n"] == 4
    assert code in (EXIT_OK, EXIT_NEGATIVE_FINDING)


def test_check_son_defaults_to_four_d_points_and_refutes_so10(tmp_path):
    # d = n(n+1)/2 - 1 = 54 at n = 10: this Haar set of the old default 100
    # points does not refute K, and one of 4 d = 216 points, the default, does
    assert [RunConfig("check", group="son", n=n).points for n in (4, 6, 7, 10, 16)] == \
        [100, 100, 108, 216, 540]
    assert RunConfig("check", group="so3").points == RunConfig("check").points == 100
    argv = ["check", "--group", "son", "--n", "10", "--seed", "0"]
    code, text = run_cli(argv, tmp_path)
    doc = validate("check", text)
    assert (code, doc["points"], doc["kernel_psd"]) == (EXIT_NEGATIVE_FINDING, 216, False)
    code, text = run_cli(argv + ["--points", "100"], tmp_path)
    assert (code, validate("check", text)["kernel_psd"]) == (EXIT_OK, True)


def test_check_haar_and_witness_state_the_same_n_for_so3(tmp_path):
    # n is the descriptor's, as the certificate states it: SO(3) is SO(n) at n = 3
    for argv in (["check"], ["haar"], ["witness", "--trials", "1"]):
        _, text = run_cli(argv + ["--group", "so3", "--points", "20"], tmp_path)
        assert validate(argv[0], text)["n"] == 3, argv[0]


def test_witness_so3_certificate(tmp_path):
    code, text = run_cli(
        ["witness", "--group", "so3", "--points", "100", "--seed", "7"], tmp_path
    )
    assert code == EXIT_OK
    doc = validate("witness", text)
    assert doc["value"] > 1e-6
    cert = WitnessCertificate.from_json(text)
    assert cert.verify(tol=1e-10)


def test_witness_son_via_transfer(tmp_path):
    code, text = run_cli(
        ["witness", "--group", "son", "--n", "4", "--points", "100", "--seed", "7"],
        tmp_path,
    )
    assert code == EXIT_OK
    doc = validate("witness", text)
    assert doc["n"] == 4
    assert doc["method"] == "transfer"
    assert len(doc["points"][0]) == 16
    cert = WitnessCertificate.from_json(text)
    assert cert.verify(tol=1e-10)


def test_witness_su2_not_found(tmp_path, capsys):
    code, text = run_cli(
        ["witness", "--group", "su2", "--points", "50", "--trials", "2", "--seed", "0"],
        tmp_path,
    )
    assert code == EXIT_NEGATIVE_FINDING
    assert text == ""
    assert "no witness" in capsys.readouterr().err


def test_run_reports_a_raised_finding_and_creates_no_output(tmp_path, capsys, monkeypatch):
    def not_found(*args, **kwargs):
        raise kernel_lab.WitnessNotFoundError("x")

    monkeypatch.setattr(kernel_lab, "find_witness", not_found)
    out = tmp_path / "cert.json"
    code = run(RunConfig("witness", group="so3", out=str(out)))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_NEGATIVE_FINDING, "", "witness: x\n")
    assert not out.exists()


def test_run_lets_a_fault_that_is_no_finding_propagate(tmp_path, monkeypatch):
    # a RuntimeError that is not a negative finding is a fault, not an exit 1
    def broken(*args, **kwargs):
        raise RuntimeError("y")

    monkeypatch.setattr(kernel_lab, "find_witness", broken)
    with pytest.raises(RuntimeError, match="y"):
        run(RunConfig("witness", group="so3", out=str(tmp_path / "cert.json")))


def test_simulate_su2_variogram_csv(tmp_path):
    code, text = run_cli(
        ["simulate", "--points", "10", "--realizations", "500", "--seed", "4",
         "--format", "csv", "--no-meta"],
        tmp_path, "out.csv",
    )
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "pair_i,pair_j,distance,estimate,stderr"
    assert len(lines) == 1 + 11 * 10 // 2
    first = lines[1].split(",")
    assert first[:2] == ["0", "1"]
    assert all(math.isfinite(float(x)) for x in first[2:])


def test_simulate_json_schema(tmp_path):
    code, text = run_cli(
        ["simulate", "--points", "8", "--realizations", "400", "--seed", "4"], tmp_path
    )
    assert code == EXIT_OK
    doc = validate("simulate", text)
    assert doc["realizations"] == 400
    assert doc["jitter_used"] > 0.0


def test_simulate_so3_diagnostic_fails(tmp_path, capsys):
    code, text = run_cli(
        ["simulate", "--group", "so3", "--points", "30", "--realizations", "200",
         "--seed", "3"],
        tmp_path,
    )
    assert code == EXIT_NEGATIVE_FINDING
    assert "kernel not PSD" in capsys.readouterr().err


def test_haar_su2_json_and_csv(tmp_path):
    code, text = run_cli(["haar", "--group", "su2", "--points", "5", "--seed", "9"], tmp_path)
    assert code == EXIT_OK
    doc = validate("haar", text)
    assert len(doc["samples"]) == 5
    for row in doc["samples"]:
        assert sum(x * x for x in row) == pytest.approx(1.0, abs=1e-12)
    code, text = run_cli(
        ["haar", "--group", "son", "--n", "4", "--points", "3", "--format", "csv",
         "--no-meta", "--seed", "9"],
        tmp_path, "out.csv",
    )
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0].startswith("r0c0,r0c1")
    assert len(lines) == 4
    m = np.array([float(x) for x in lines[1].split(",")]).reshape(4, 4)
    assert np.abs(m.T @ m - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("args", [
    ["coeffs", "--group", "so3", "--lmax", "4", "--mc-n", "2000"],
    ["simulate", "--points", "10", "--realizations", "200"],
    ["haar", "--group", "son", "--n", "4", "--points", "5"],
    ["witness", "--group", "so3", "--points", "100", "--seed", "7"],
], ids=lambda args: args[0])
def test_numeric_tables_are_written_from_their_columns(args, tmp_path, monkeypatch):
    # no subcommand makes a row object of a numeric table on its way out
    def refuse(table):
        raise AssertionError(f"a Table of {table.row.__name__} was iterated row by row")

    monkeypatch.setattr(canonical.Table, "__iter__", refuse)
    for fmt in COMMANDS[args[0]].formats:
        code, text = run_cli(args + ["--format", fmt, "--no-meta"], tmp_path, f"out.{fmt}")
        assert code == EXIT_OK and text


# ---------------------------------------------------------------------------
# reproducibility and meta handling
# ---------------------------------------------------------------------------

def test_no_meta_runs_are_byte_identical(tmp_path):
    args = ["coeffs", "--group", "so3", "--lmax", "2", "--mc-n", "2000",
            "--seed", "11", "--no-meta"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b
    assert "meta" not in json.loads(a)


def test_meta_differs_only_in_generated_at(tmp_path):
    # identical command lines, rerun to the same path
    args = ["haar", "--group", "su2", "--points", "3", "--seed", "11"]
    _, a = run_cli(args, tmp_path, "same.json")
    _, b = run_cli(args, tmp_path, "same.json")
    da, db = json.loads(a), json.loads(b)
    da["meta"].pop("generated_at")
    db["meta"].pop("generated_at")
    assert da == db
    assert da["meta"]["command"].startswith("levy-groups haar")


@pytest.mark.parametrize("args", [
    ["coeffs", "--group", "su2", "--lmax", "2", "--mc-n", "0"],
    ["check", "--group", "su2", "--points", "10"],
    ["simulate", "--points", "4", "--realizations", "100"],
    ["haar", "--group", "so3", "--points", "2"],
])
def test_csv_meta_lines_precede_the_header(args, tmp_path):
    _, text = run_cli(args + ["--format", "csv", "--seed", "3"], tmp_path, "meta.csv")
    lines = text.splitlines()
    assert lines[0] == f"# tool_version: {__version__}"
    assert lines[1] == "# command: levy-groups " + " ".join(
        args + ["--format", "csv", "--seed", "3", "--out", str(tmp_path / "meta.csv")])
    assert lines[2].startswith("# generated_at: ")
    assert lines[3].startswith("# blas_core: ") and lines[4].startswith("# blas_threads: ")
    _, bare = run_cli(args + ["--format", "csv", "--seed", "3", "--no-meta"], tmp_path,
                      "bare.csv")
    assert not bare.startswith("#")
    assert bare.splitlines() == lines[5:]


def test_csv_meta_line_of_an_out_path_with_a_line_break_stays_one_line(tmp_path):
    args = ["haar", "--group", "su2", "--points", "2", "--format", "csv", "--seed", "3"]
    code, text = run_cli(args, tmp_path, "a\nb.csv")
    assert code == EXIT_OK
    lines = text.splitlines()
    out = str(tmp_path / "a\nb.csv").replace("\n", "\\n")
    assert lines[1] == "# command: levy-groups " + " ".join(args + ["--out", out])
    assert [line.startswith("#") for line in lines] == [True] * 5 + [False] * 3
    assert lines[5] == "a1,a2,b1,b2"


def test_seed_random_is_accepted(tmp_path):
    code, text = run_cli(
        ["haar", "--group", "su2", "--points", "2", "--seed", "random"], tmp_path
    )
    assert code == EXIT_OK
    validate("haar", text)


def test_seed_random_draws_a_new_seed_on_each_call(tmp_path):
    # main's parser is built once a process; its seed type runs at each parse
    args = ["haar", "--group", "su2", "--points", "1", "--seed", "random", "--no-meta"]
    seeds = {json.loads(run_cli(args, tmp_path)[1])["seed"] for _ in range(3)}
    assert len(seeds) == 3


def test_main_parses_with_one_parser_a_process():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("args", [
    ["witness", "--group", "son", "--n", "5", "--points", "30"],
    ["check", "--group", "so3", "--points", "20"],
    ["simulate", "--points", "5", "--realizations", "100", "--format", "csv"],
    ["coeffs", "--group", "su2", "--lmax", "2", "--mc-n", "1000"],
])
def test_repeated_in_process_runs_write_identical_bytes(args, tmp_path):
    texts = [run_cli(args + ["--seed", "4", "--no-meta"], tmp_path)[1] for _ in range(3)]
    assert texts[0] and texts[0] == texts[1] == texts[2]


def test_meta_names_the_blas_core_and_the_runs_one_thread(tmp_path, monkeypatch):
    args = ["haar", "--group", "su2", "--points", "1"]
    before = lapack.threads()
    meta = json.loads(run_cli(args, tmp_path)[1])["meta"]
    assert lapack.threads() == before  # restored after the run
    if lapack.available():
        assert meta["blas_core"] == lapack.core_name() and meta["blas_threads"] == 1
    monkeypatch.setattr(lapack, "_library", lambda: None)
    meta = validate("haar", run_cli(args, tmp_path)[1])["meta"]
    assert (meta["blas_core"], meta["blas_threads"]) == ("unknown", "unpinned")


@pytest.mark.parametrize("argv", [["check", "--group", "su2", "--points", "1000"],
                                  ["simulate", "--points", "200", "--realizations", "2000"]])
def test_output_bytes_do_not_depend_on_the_blas_thread_count(argv):
    import levy_groups

    src = os.path.dirname(os.path.dirname(os.path.abspath(levy_groups.__file__)))
    outs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "levy_groups.cli", *argv, "--seed", "3", "--no-meta"],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


def test_seeds_and_streams_span_64_bits(tmp_path):
    top = (1 << 64) - 1
    code, text = run_cli(["haar", "--group", "su2", "--points", "2", "--seed", str(top),
                          "--stream", "0", "--no-meta"], tmp_path)
    assert code == EXIT_OK
    doc = validate("haar", text)
    assert doc["seed"] == top
    for key, bad in (("seed", -5), ("stream", 1 << 64)):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**doc, key: bad}, load_schema("haar"))


def test_float_cells_have_17_significant_digits(tmp_path):
    _, text = run_cli(
        ["coeffs", "--group", "so3", "--lmax", "0", "--mc-n", "0", "--format", "csv",
         "--no-meta"],
        tmp_path, "out.csv",
    )
    closed = text.splitlines()[1].split(",")[2]
    assert closed == "2.2074160991624781"
    assert float(closed) == math.pi / 2.0 + 2.0 / math.pi


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args,needle",
    [
        (["check", "--group", "su2", "--n", "4"], "--n"),
        (["check", "--group", "son"], "--n"),
        (["witness", "--group", "son", "--n", "3"], "--n"),
        (["witness", "--group", "so3", "--format", "csv"], "--format"),
        (["witness", "--group", "so3", "--points", "3"], "--points"),
        (["coeffs", "--group", "so3", "--mc-n", "500"], "--mc-n"),
        (["coeffs", "--group", "so3", "--lmax", "-1"], "--lmax"),
        (["coeffs", "--group", "so3", "--seed", "pi"], "--seed"),
        (["coeffs", "--group", "so3", "--threads", "2"], "--threads"),  # no such flag
        (["coeffs", "--group", "so3", "--tol", "-1"], "--tol"),
        (["simulate", "--realizations", "50"], "--realizations"),
        (["simulate", "--jitter", "0"], "--jitter"),
        (["witness", "--group", "so3", "--trials", "0"], "--trials"),
        (["witness", "--group", "so3", "--margin", "0"], "--margin"),
        (["check", "--group", "su2", "--points", "1"], "--points"),
        (["haar", "--group", "su2", "--bins", "8"], "--bins"),  # no such flag
        # --tol belongs to coeffs and check only
        (["haar", "--group", "su2", "--tol", "5"], "--tol"),
        (["simulate", "--tol", "7"], "--tol"),
        (["witness", "--group", "so3", "--tol", "3"], "--tol"),
        (["haar", "--group", "so3", "--tol", "-1"], "--tol"),
        # non-finite values: nan <= 0 is False, so each needs its own test
        (["coeffs", "--group", "so3", "--lmax", "2", "--mc-n", "0", "--tol", "nan"], "--tol"),
        (["coeffs", "--group", "su2", "--tol", "inf"], "--tol"),
        (["check", "--group", "su2", "--points", "10", "--tol", "nan"], "--tol"),
        (["simulate", "--points", "5", "--realizations", "100", "--jitter", "nan"],
         "--jitter"),
        (["simulate", "--jitter", "inf"], "--jitter"),
        (["witness", "--group", "so3", "--points", "10", "--margin", "nan"], "--margin"),
        (["witness", "--group", "so3", "--margin", "inf"], "--margin"),
        # a tolerance the adaptive rule cannot reach within its depth cap
        (["coeffs", "--group", "su2", "--lmax", "2", "--mc-n", "0", "--tol", "1e-300"], "--tol"),
        # jitter is a fraction of K's largest diagonal entry; 1e200 overflows the variogram
        (["simulate", "--points", "3", "--realizations", "100", "--jitter", "1e200"],
         "--jitter"),
        (["haar", "--group", "su2", "--out", ""], "--out"),
        # RngStream keeps 64 bits: -5 and 2^64 - 5 would draw the same stream
        (["haar", "--group", "su2", "--seed", "-5"], "--seed"),
        (["check", "--group", "so3", "--seed", str(1 << 64)], "--seed"),
        (["witness", "--group", "so3", "--stream", "-1"], "--stream"),
        (["coeffs", "--group", "su2", "--stream", str(1 << 64)], "--stream"),
        (["densities", "--group", "su2"], "invalid choice: 'densities'"),  # retired
        # every metric on 4 points has negative type: the search would run and exit 1
        (["witness", "--group", "so3", "--points", "4", "--trials", "20"], "--points"),
    ],
)
def test_invalid_flag_combinations(args, needle, capsys):
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert needle in err


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    # returns before sampling: nothing is written, and no traceback
    for path in (out, tmp_path):  # a directory is not a file to write either
        code = main(["check", "--group", "su2", "--points", "10", "--out", str(path)])
        assert code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("points", [3, 20000])  # fails at close, and at a write before it
def test_an_unwritable_out_is_a_usage_error(points, capsys):
    code = main(["haar", "--group", "su2", "--points", str(points), "--out", "/dev/full"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --out '/dev/full': {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("args", [
    ["check", "--group", "su2"],
    ["witness", "--group", "so3"],
    ["simulate"],
])
def test_points_beyond_physical_memory_are_usage_errors(args, capsys):
    # returns from the size check, before anything is sampled or allocated
    assert main(args + ["--points", "1000000"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--points 1000000" in err and "GB" in err


@pytest.mark.parametrize("args,sizes", [
    (["check", "--group", "son", "--n", "1000000", "--points", "100"],
     "--points 100 --n 1000000"),
    (["witness", "--group", "son", "--n", "1000000", "--points", "100"],
     "--points 100 --n 1000000"),
    (["haar", "--group", "son", "--n", "1000000", "--points", "1"], "--points 1 --n 1000000"),
    (["haar", "--group", "su2", "--points", "10000000000000"], "--points 10000000000000"),
    (["haar", "--group", "son", "--n", "1000000"], "--points 10 --n 1000000"),  # default --points
    (["coeffs", "--group", "so3", "--lmax", "1000000000000"], "--lmax 1000000000000"),
    (["simulate", "--points", "1000000"], "--points 1000000"),  # not --realizations
])
def test_sizes_beyond_physical_memory_name_their_flags(args, sizes, capsys):
    # returns from the size check, before anything is sampled or allocated
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {sizes} needs about " in err and "GB" in err


# VmHWM in bytes, as a fresh interpreter reads it
READ_HWM = """def hwm():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) * 1024 for l in f if l.startswith("VmHWM:"))
"""


def fresh(code):
    """The stdout of READ_HWM then ``code`` in a fresh interpreter, which must exit 0."""
    import levy_groups

    src = os.path.dirname(os.path.dirname(os.path.abspath(levy_groups.__file__)))
    done = subprocess.run([sys.executable, "-c", READ_HWM + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def grown_and_charged(argv, setup="", error=None):
    """VmHWM growth of one CLI run in a fresh interpreter, after ``setup``
    (one line of Python), and the run's charge, in bytes.  With ``error``
    the run must exit 2 with that text on stderr."""
    argv = argv + ["--out", os.devnull]
    done = fresh(f"""if True:
        from levy_groups import cli
        {setup}
        argv = {argv!r}
        before = hwm()
        code = cli.main(argv)
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv), argv)
        print(hwm() - before, cli.charge(cfg, cli._validate(cfg)), code)
    """)
    grown, charged, code = map(int, done.stdout.split())
    assert error is None or (code == EXIT_USAGE and error in done.stderr), done.stderr
    return grown, charged


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("path", ["in-place", "fallback"])
def test_check_grows_no_more_than_its_charge(path):
    # small SO(n) matrices, where the fixed BLAS and LAPACK scratch outweighs
    # them, and the benchmark's largest SU(2) audit
    setup = ("from levy_groups import lapack; lapack.available = lambda: False"
             if path == "fallback" else "")
    for argv in (["check", "--group", "son", "--n", "10", "--points", "500"],
                 ["check", "--group", "su2", "--points", "2000"]):
        grown, charged = grown_and_charged(argv, setup)
        assert grown <= charged, argv


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
def test_su2_check_grows_by_half_a_matrix():
    # the factor path holds H K H's block in packed storage, m (m - 1) / 2
    # floats, and never the whole (m, m) matrix
    m = 2000
    grown, _ = grown_and_charged(["check", "--group", "su2", "--points", str(m)])
    assert grown < 0.6 * 8 * m * m + lapack.SCRATCH_BYTES + rng.IMPORT_BYTES


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
def test_su2_packed_factor_grows_nothing_over_its_rfp_array():
    # VmHWM once the packed build is done, and after the factor's panels:
    # LAPACK's dpftrf grew it by 2.8 MiB here; the panels grew it by 0 bytes
    # in each of 8 readings at m = 2,000, and at 1,000, 1,500 and 3,000
    done = fresh("""if True:
        import os
        from levy_groups import cli, lapack
        factor, grown = lapack._factor_packed, []
        def spied(r):
            before = hwm()
            pivot = factor(r)
            grown.append(hwm() - before)
            return pivot
        lapack._factor_packed = spied
        cli.main(["check", "--group", "su2", "--points", "2000", "--out", os.devnull])
        print(*grown)
    """)
    [grown] = map(int, done.stdout.split())
    assert grown <= 2 ** 18  # 0.25 MiB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_witness_grows_no_more_than_its_charge():
    # the benchmark's SO(6) search, where the BLAS and LAPACK scratch
    # outweighs the matrix, and SO(3) searches where the matrix dominates
    for argv in (["witness", "--group", "son", "--n", "6", "--points", "100"],
                 ["witness", "--group", "so3", "--points", "1000"],
                 ["witness", "--group", "so3", "--points", "3000"]):
        grown, charged = grown_and_charged(argv)
        assert grown <= charged, argv


def test_witness_and_its_charge_never_ask_for_the_lapack_backend(monkeypatch):
    # the search is numpy only, so its charge has one formula on either backend
    def refuse():
        raise AssertionError("lapack.available() was read")

    monkeypatch.setattr(lapack, "available", refuse)
    from levy_groups import RngStream, SO3

    assert kernel_lab.witness_bytes(SO3, 1000) > 8 * 1000 ** 2
    cert = kernel_lab.find_witness(SO3, m=40, trials=2, rng=RngStream(5))
    assert cert.verify() and cert.value > 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("group", ["su2", "so3"])
def test_coeffs_grows_no_more_than_its_charge(group):
    # a full Monte Carlo chunk, and a tolerance no interval reaches, which
    # walks the quadrature's widest blocks down to its depth cap
    grown, charged = grown_and_charged(["coeffs", "--group", group, "--lmax", "50",
                                        "--mc-n", "1000000"])
    assert grown <= charged
    grown, charged = grown_and_charged(["coeffs", "--group", group, "--mc-n", "0",
                                        "--tol", "1e-300"], error="--tol 1e-300 ")
    assert grown <= charged


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_coeffs_growth_with_lmax_stays_within_the_charge_of_its_rows():
    # 100,000 rows more, with the closed forms and the quadrature, O(lmax^2) in
    # time, stubbed by a new float a row: the table's lists and columns alone
    setup = ("from levy_groups import harmonic; harmonic.alpha_closed = "
             "harmonic.alpha_quadrature = lambda group, l, tol=None: l * 0.5")
    runs = [grown_and_charged(["coeffs", "--group", "so3", "--lmax", lmax, "--mc-n", "1000"],
                              setup) for lmax in ("100000", "200000")]
    (small, small_charge), (large, large_charge) = runs
    assert small <= small_charge and large <= large_charge
    assert large - small <= large_charge - small_charge


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_benchmark_coeffs_grows_no_more_than_its_charge():
    # coeffs-so3's run: 100,000 pairs, whole Monte Carlo blocks and a short last one
    grown, charged = grown_and_charged(["coeffs", "--group", "so3", "--lmax", "50",
                                        "--mc-n", "100000"])
    assert grown <= charged


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_haar_grows_no_more_than_its_charge(fmt):
    # SO(n) rows far wider than a chunk of cells, each written in one pass,
    # and a sampler block of one n x n draw
    for argv in (["haar", "--group", "son", "--n", "400", "--points", "2"],
                 ["haar", "--group", "son", "--n", "300", "--points", "3"]):
        grown, charged = grown_and_charged(argv + ["--format", fmt])
        assert grown <= charged, argv


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv", [
    ["haar", "--group", "so3", "--points", "1000"],
    ["haar", "--group", "su2", "--points", "10"],
], ids=["haar-so3", "haar"])
def test_small_run_grows_no_more_than_its_charge(argv):
    # small arrays, where numpy.random's import at the first RngStream is most of the growth
    grown, charged = grown_and_charged(argv)
    assert grown <= charged


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_memory_does_not_grow_with_realizations():
    # 400,000 realizations of 21 values would be a 67 MB value matrix
    few, _ = grown_and_charged(["simulate", "--points", "20", "--realizations", "4000"])
    grown, charged = grown_and_charged(["simulate", "--points", "20", "--realizations", "400000"])
    assert grown <= charged
    assert grown <= few + 4 * 2 ** 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_at_1500_points_holds_at_most_five_matrices():
    # the factor, S and Bartlett's F of 100 columns, and one pass of pair
    # terms a block of rows at a time: 4.34 (m + 1)^2 matrices grown, bounded
    # here with 0.66 of a matrix to spare, less than a matrix held again
    grown, charged = grown_and_charged(["simulate", "--points", "1500", "--realizations", "100"])
    assert grown <= charged
    assert grown <= 5 * 8 * 1501 ** 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_with_a_whole_bartlett_factor_grows_no_more_than_its_charge():
    # r >= m: F is a whole (m + 1)^2 matrix, held through the pair pass
    grown, charged = grown_and_charged(["simulate", "--points", "1500", "--realizations", "3000"])
    assert grown <= charged


def test_simulate_time_does_not_grow_with_realizations(tmp_path):
    # ten million realizations: their Gram matrix is drawn from 20 x 20
    # variates, and the rows pass the benchmark's 3-sigma coverage
    argv = ["simulate", "--points", "20", "--realizations", "10000000", "--seed", "3"]
    start = time.perf_counter()
    code, text = run_cli(argv, tmp_path)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_OK
    rows = validate("simulate", text)["rows"]
    z = [(row["estimate"] - row["distance"]) / row["stderr"] for row in rows]
    assert len(z) == 21 * 20 // 2
    assert np.mean(np.abs(z) <= 3.0) >= 0.95


def test_unknown_group_rejected_by_argparse(capsys):
    assert main(["coeffs", "--group", "son"]) == EXIT_USAGE


def test_missing_command_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_run_config_direct_invocation(tmp_path):
    out = tmp_path / "direct.json"
    cfg = RunConfig(command="check", group="su2", points=50, seed=1,
                    tol=1e-8, out=str(out))
    assert run(cfg) == EXIT_OK
    doc = validate("check", out.read_text())
    assert doc["points"] == 50


def test_run_config_defaults_match_the_cli():
    from levy_groups.cli import config_from_args

    for argv in (["check", "--group", "su2"], ["witness", "--group", "so3"],
                 ["simulate"], ["haar", "--group", "su2"], ["coeffs", "--group", "su2"]):
        cfg = config_from_args(build_parser().parse_args(argv), argv)
        direct = RunConfig(command=argv[0], group=cfg.group)
        assert (cfg.points, cfg.tol, cfg.seed) == (direct.points, direct.tol, direct.seed)
    assert RunConfig(command="check").tol == 1e-8
    assert RunConfig(command="coeffs").tol == 1e-10
    assert RunConfig(command="simulate").points == 50


def test_cli_import_does_not_load_scipy():
    import levy_groups

    src = os.path.dirname(os.path.dirname(os.path.abspath(levy_groups.__file__)))
    code = "import sys, levy_groups.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kwargs,needle", [
    *(pytest.param({"command": name, "group": g, "n": 4 if g == "son" else None}, "--group",
                   id=f"{name}-{g}")
      for name, spec in COMMANDS.items() for g in ("su2", "so3", "son") if g not in spec.groups),
    pytest.param({"command": "check", "group": "bogus"}, "--group", id="unknown-group"),
    pytest.param({"command": "bogus"}, "bogus", id="unknown-command"),
    pytest.param({"command": "densities"}, "unknown command 'densities'", id="retired-command"),
    pytest.param({"command": "haar", "format": "xml"}, "--format", id="unknown-format"),
    pytest.param({"command": "witness", "group": "so3", "format": "csv"}, "--format",
                 id="witness-csv"),
])
def test_run_config_refuses_what_the_parser_would(kwargs, needle, tmp_path, capsys):
    # the library entry point checks the table as argparse's choices do: exit 2, no traceback
    out = tmp_path / "out"
    assert run(RunConfig(**kwargs, out=str(out))) == EXIT_USAGE
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_each_subparser_is_built_from_its_entry():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    # the flags each subcommand took before its entry held them
    own = {"coeffs": ["--lmax", "--tol", "--mc-n"], "check": ["--n", "--points", "--tol"],
           "witness": ["--n", "--points", "--trials", "--margin"],
           "simulate": ["--points", "--realizations", "--jitter"], "haar": ["--n", "--points"]}
    common = ["--help", "--seed", "--stream", "--format", "--out", "--no-meta", "--group"]
    for name, spec in COMMANDS.items():
        p = sub.choices[name]
        group = p._option_string_actions["--group"]
        assert list(group.choices) == list(spec.groups)
        assert group.required == spec.group_required
        assert [a.option_strings[-1] for a in p._actions] == common + own[name]


def test_the_schemas_are_one_per_command():
    # a retired command leaves no schema behind, and a new one ships with its own
    schemas = (resources.files("levy_groups") / "schemas").iterdir()
    assert sorted(p.name for p in schemas if p.name.endswith(".schema.json")) == \
        sorted(f"{name}.schema.json" for name in COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_entrys_groups_are_its_schemas_group_enum(name):
    # witness takes su2 only to exit 1 without a certificate
    groups = [g for g in COMMANDS[name].groups if (name, g) != ("witness", "su2")]
    assert groups == load_schema(name)["properties"]["group"]["enum"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_growth_with_points_stays_within_a_charge_of_no_text_per_row():
    # the variogram streams out a chunk of rows at a time: doubling the
    # points quadruples the pairs, and the charge grows by the field's
    # matrices alone
    from levy_groups import field_sim

    r = 1000
    small, small_charge = grown_and_charged(["simulate", "--points", "200", "--realizations",
                                             str(r)])
    large, large_charge = grown_and_charged(["simulate", "--points", "400", "--realizations",
                                             str(r)])
    assert small <= small_charge and large <= large_charge
    assert large_charge - small_charge == (field_sim.variogram_bytes(400, r)
                                           - field_sim.variogram_bytes(200, r))


# each subcommand once, small, with both formats it takes
STREAMED = [
    ["coeffs", "--group", "su2", "--lmax", "3", "--mc-n", "1000"],
    ["check", "--group", "son", "--n", "4", "--points", "20"],
    ["witness", "--group", "so3", "--points", "40"],
    ["simulate", "--points", "30", "--realizations", "200"],
    ["haar", "--group", "son", "--n", "3", "--points", "700"],
]


@pytest.mark.parametrize("args, fmt", [(a, f) for a in STREAMED for f in COMMANDS[a[0]].formats],
                         ids=lambda v: v if isinstance(v, str) else v[0])
def test_out_and_stdout_get_the_same_bytes(args, fmt, tmp_path, capsysbinary):
    argv = args + ["--seed", "5", "--no-meta", "--format", fmt]
    out = tmp_path / "out"
    main(argv + ["--out", str(out)])
    capsysbinary.readouterr()
    main(argv)
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert len(out.read_bytes()) > 100


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["column", "scalar"])
def test_a_non_finite_value_raises_before_any_byte_reaches_out(where, fmt, tmp_path,
                                                                monkeypatch):
    from dataclasses import replace

    from levy_groups import field_sim, kernel_lab

    if where == "column":  # the last estimate of 20,100 pairs
        variogram = field_sim.empirical_variogram

        def planted(*args, **kwargs):
            table = variogram(*args, **kwargs)
            table.estimate[-1] = math.nan
            return table
        monkeypatch.setattr(field_sim, "empirical_variogram", planted)
        argv = ["simulate", "--points", "200", "--realizations", "100"]
    else:  # min_K_eig, a field of the document's head and a CSV row
        audit = kernel_lab.gram_audit
        monkeypatch.setattr(kernel_lab, "gram_audit",
                            lambda *a, **k: replace(audit(*a, **k), min_K_eig=math.nan))
        argv = ["check", "--group", "su2", "--points", "10"]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="non-finite"):
        main(argv + ["--format", fmt, "--out", str(out)])
    assert not out.exists()
