import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from zenoanneal import anneal, cli, experiments, problems, propagator, timebin
from zenoanneal.cli import _parse_grid, main
from zenoanneal.timebin import compile_graph_program

from test_anneal import leaky_gadget, trace_breaking_gadget


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(FINITE, min_size=1, max_size=8))
def test_grid_literals_round_trip(values):
    assert _parse_grid(" , ".join(map(repr, values)) + ",") == values


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["lin", "log"]), lo=st.floats(1e-6, 1e6), hi=st.floats(1e-6, 1e6),
       sign=st.sampled_from([1.0, -1.0]), num=st.integers(1, 60))
def test_lin_and_log_grids_keep_their_count_and_endpoints(kind, lo, hi, sign, num):
    if kind == "lin":  # a lin grid may cross 0
        lo *= sign
    grid = _parse_grid(f"{kind}:{lo!r}:{hi!r}:{num}")
    assert len(grid) == num and grid[0] == lo
    assert num == 1 or grid[-1] == hi


def test_zeno_onset_csv(tmp_path, capsys):
    out = tmp_path / "onset.csv"
    code = run(["zeno-onset", "--variant", "tpa", "--tpa-ratios", "0,5",
                "--tpa-truncation", "8", "--nt", "11", "--out", out])
    assert code == 0
    lines = read_lines(out)
    assert lines[0].startswith("# config: command=zeno-onset")
    assert lines[1] == "variant,gamma_over_c,t,p0,p1,p_higher"
    assert len(lines) == 2 + 2 * 11


def test_zeno_onset_deterministic(tmp_path):
    out = tmp_path / "a.csv"
    args = ["zeno-onset", "--variant", "sfg", "--sfg-ratios", "0,2",
            "--sfg-truncation", "5", "--nt", "7", "--out", out]
    assert run(args) == 0
    first = open(out, "rb").read()
    assert run(args) == 0
    assert open(out, "rb").read() == first


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZENOANNEAL_OUT", str(tmp_path / "sub"))
    code = run(["mitigate", "--n-copies", "1", "--out", "mit.csv"])
    assert code == 0
    assert os.path.exists(tmp_path / "sub" / "mit.csv")


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[zeno-onset]\nvariant = tpa\ntpa-ratios = 0\n"
                   "tpa-truncation = 6\nnt = 5\n")
    out = tmp_path / "o.csv"
    code = run(["zeno-onset", "--config", cfg, "--nt", "9", "--out", out])
    assert code == 0
    lines = read_lines(out)
    assert "nt=9" in lines[0]
    assert len(lines) == 2 + 9


def test_config_error_exit_code(tmp_path):
    assert run(["zeno-onset", "--config", tmp_path / "missing.ini"]) == 1
    assert run(["constraint-sweep", "--graph", tmp_path / "missing.txt"]) == 1
    assert run(["zeno-onset", "--variant", "bogus", "--out", tmp_path / "x.csv"]) == 1
    assert run(["zeno-onset", "--nt", "1", "--out", tmp_path / "x.csv"]) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["anneal", "--help"])
    assert exc.value.code == 0
    assert "--r-grid" in capsys.readouterr().out


BAD_FILES = {"BAD_GRAPH": "0 1\n0 x\n", "NAN_QUBO": "1 nan\nnan 1\n",
             "HUGE_QUBO": "1e308 1e308\n1e308 1e308\n", "EMPTY_QUBO": "",
             "RAGGED_QUBO": "1 2 3\n"}

# Non-finite rates, times and integer grids, and oversized counts, once
# printed a traceback, a misleading message, or a RuntimeWarning before the
# config error.  Warnings go through pytest's capture in-process, so these
# cases also run in a fresh interpreter.
NON_FINITE_CASES = [
    ["oracle-check", "--eta-ratios", "inf"],
    ["oracle-check", "--eta-ratios", "nan"],
    ["zeno-onset", "--variant", "tpa", "--tpa-ratios", "inf"],
    ["zeno-onset", "--t-max", "inf"],
    ["drive-sweep", "--eta-ratios", "inf", "--gammas", "1", "--markov-ratios", "4",
     "--gamma-tpas", "1"],
    ["mitigate", "--n-copies", "inf"],
    ["constraint-sweep", "--n-cycles", "inf"],
    ["anneal", "--n-cycles", "1e400"],
    # grid bounds reach numpy only once finite, and no count asks for a float
    # array over the run byte bound
    ["drive-sweep", "--gammas", "log:1:inf:3"],
    ["drive-sweep", "--gammas", "lin:-inf:inf:3"],
    ["drive-sweep", "--gammas", "lin:-1e308:1e308:3"],
    ["constraint-sweep", "--n-cycles", "log:16:inf:3"],
    ["drive-sweep", "--gammas", "lin:1:2:100000000000"],
    ["zeno-onset", "--nt", "100000000000"],
    ["oracle-check", "--nt", "100000000000"],
    # counts that reach the run, whose arrays would pass the byte bound:
    # (3e6, 66^2) complex trajectory rows, and the schedule of 1e12 cycles
    ["zeno-onset", "--variant", "sfg", "--sfg-ratios", "1", "--nt", "3000000"],
    ["anneal", "--n-cycles", "1e12", "--r-grid", "4"],
]

# A small valid drive sweep; a later repeat of a flag overrides its value.
DRIVE_SWEEP_SMALL = ["drive-sweep", "--eta-ratios", "0", "--gammas", "1",
                     "--markov-ratios", "4", "--gamma-tpas", "1", "--gamma99-iters", "1"]


@pytest.mark.parametrize("args", [
    ["anneal", "--n-cycles", "0"],
    ["anneal", "--r-grid", "0,1"],
    ["qubo", "--n-cycle", "0"],
    ["wmis", "--w0-grid", "0,1"],
    ["constraint-sweep", "--n-cycles", "0"],
    ["timebin-compile", "--graph", "BAD_GRAPH"],
    ["anneal", "--bogus", "1"],
    [],
    ["frobnicate"],
    ["anneal", "--threads", "x"],
    ["wmis", "--threads", "2"],
    ["drive-sweep", "--threads", "2"],
    ["constraint-sweep", "--threads", "2"],
    ["anneal", "--seed", "1"],
    ["anneal", "--r-grid", "nan"],
    ["qubo", "--r-tot", "nan"],
    ["constraint-sweep", "--r-tot", "nan"],
    ["wmis", "--r-tot", "inf"],
    ["zeno-onset", "--variant", "tpa", "--tpa-ratios", "-1"],
    ["drive-sweep", "--eta-ratios", "-1"],
    ["oracle-check", "--gammas", "0"],
    ["anneal", "--phi-q", "nan"],
    ["constraint-sweep", "--phi-q", "nan"],
    ["constraint-sweep", "--gamma-ts", "inf"],
    ["wmis", "--phi-q", "nan"],
    ["wmis", "--w0-grid", "nan", "--n-cycle", "20"],
    ["qubo", "--qubo", "NAN_QUBO"],
    ["qubo", "--qubo", "HUGE_QUBO"],
    ["qubo", "--qubo", "EMPTY_QUBO"],
    ["qubo", "--qubo", "RAGGED_QUBO"],
    ["anneal", "--tol", "nan", "--n-cycles", "8", "--r-grid", "1,2"],
    ["anneal", "--tol", "-1", "--n-cycles", "8", "--r-grid", "1,2"],
    *NON_FINITE_CASES,
    [*DRIVE_SWEEP_SMALL, "--gamma-tpas", "inf"],
    [*DRIVE_SWEEP_SMALL, "--gammas", "inf"],
    [*DRIVE_SWEEP_SMALL, "--gamma-tpas", "0"],
    [*DRIVE_SWEEP_SMALL, "--markov-ratios", "0"],
    [*DRIVE_SWEEP_SMALL, "--markov-ratios", "3"],
    ["oracle-check", "--gammas", "inf"],
], ids=["anneal-zero-cycles", "anneal-zero-rotation", "qubo-zero-cycles",
        "wmis-zero-weight", "constraint-sweep-zero-cycles", "timebin-bad-graph",
        "unknown-flag", "no-subcommand", "unknown-subcommand",
        "anneal-threads-removed", "threads-not-read", "drive-sweep-threads-removed",
        "constraint-sweep-threads-removed", "seed-removed", "anneal-nan-rotation",
        "qubo-nan-rotation",
        "constraint-sweep-nan-rotation", "wmis-inf-rotation",
        "zeno-onset-negative-tpa-rate", "drive-sweep-negative-eta",
        "oracle-check-zero-gamma", "anneal-nan-pump-phase",
        "constraint-sweep-nan-pump-phase", "constraint-sweep-inf-gamma-t",
        "wmis-nan-pump-phase", "wmis-nan-weight", "qubo-nan-entry",
        "qubo-energy-overflow", "qubo-empty", "qubo-not-square", "anneal-nan-tol",
        "anneal-negative-tol", "oracle-check-inf-eta-ratio", "oracle-check-nan-eta-ratio",
        "zeno-onset-inf-tpa-rate", "zeno-onset-inf-t-max", "drive-sweep-inf-eta-ratio",
        "mitigate-inf-copies", "constraint-sweep-inf-cycles", "anneal-overflowing-cycles",
        "drive-sweep-inf-log-bound", "drive-sweep-inf-lin-bounds",
        "drive-sweep-overflowing-lin-span", "constraint-sweep-inf-log-bound",
        "drive-sweep-grid-over-byte-bound", "zeno-onset-nt-over-byte-bound",
        "oracle-check-nt-over-byte-bound", "zeno-onset-trajectory-over-byte-bound",
        "anneal-cycles-over-byte-bound",
        "drive-sweep-inf-tpa-gamma", "drive-sweep-inf-gamma", "drive-sweep-zero-tpa-gamma",
        "drive-sweep-zero-markov-ratio", "drive-sweep-unreachable-markov-ratio",
        "oracle-check-inf-gamma"])
def test_domain_input_errors_are_config_errors(tmp_path, capsys, args):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    args = [tmp_path / a if a in BAD_FILES else a for a in args]
    assert run(args + ["--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "x.csv")
    if args in NON_FINITE_CASES:
        src = os.path.dirname(os.path.dirname(os.path.abspath(anneal.__file__)))
        proc = subprocess.run([sys.executable, "-m", "zenoanneal.cli", *args,
                               "--out", str(tmp_path / "x.csv")],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
        assert not os.path.exists(tmp_path / "x.csv")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, seen", [({}, ["1", "1", "1"]),
                                          ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["unset", "explicit-setting-wins"])
def test_package_import_pins_blas_threads(preset, seen):
    # a fresh process, since this one's BLAS variables are set by conftest
    src = os.path.dirname(os.path.dirname(os.path.abspath(anneal.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", "import os, zenoanneal; "
         f"print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"],
        env={**env, "PYTHONPATH": src, **preset}, capture_output=True, text=True,
        timeout=120, check=True)
    assert proc.stdout.split() == seen


@pytest.mark.parametrize("command", ["timebin-compile", "constraint-sweep"])
def test_bad_graph_file_error_names_the_file(tmp_path, capsys, command):
    gfile = tmp_path / "bad.txt"
    gfile.write_text(BAD_FILES["BAD_GRAPH"])
    assert run([command, "--graph", gfile, "--out", tmp_path / "x.csv"]) == 1
    assert capsys.readouterr().err == (f"config error: bad graph file {gfile}: line 2: "
                                       "invalid literal for int() with base 10: 'x'\n")


def test_qubo_file_over_24_variables_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_table(n, index=None):
        raise AssertionError(f"bit table for n = {n} built")

    monkeypatch.setattr(problems, "_bit_table", no_table)
    qfile = tmp_path / "wide.txt"
    qfile.write_text(("0 " * 25 + "\n") * 25)
    assert run(["qubo", "--qubo", qfile, "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: exhaustive search over 2^n patterns is guarded "
                   "to n <= 24, got n = 25\n")
    assert not os.path.exists(tmp_path / "x.csv")


@pytest.mark.parametrize("command, what", [
    (["anneal", "--n-cycles", "4", "--r-grid", "1"], "the ideal mixer"),
    (["constraint-sweep", "--n-cycles", "4", "--gamma-ts", "1"], "the final density states"),
], ids=["anneal-ideal", "constraint-sweep-density"])
def test_graph_over_the_run_byte_bound_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         command, what):
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", 1000)
    gfile = tmp_path / "line.txt"
    gfile.write_text("0 1\n1 2\n2 3\n")
    assert run([*command, "--graph", gfile, "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {what} would take ") and err.count("\n") == 1
    assert err.endswith("bytes, over the 1000-byte bound\n")
    assert not os.path.exists(tmp_path / "x.csv")


def test_anneal_over_the_pure_block_bound_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the ideal mixer of the default five-node graph takes 6,600 bytes; the
    # 140 rows (two cycle counts, 70 r_tot) of 2^5 amplitudes take far more
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", 100_000)
    assert run(["anneal", "--n-cycles", "4,8", "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the pure-state block would take ")
    assert err.count("\n") == 1 and err.endswith("bytes, over the 100000-byte bound\n")
    assert not os.path.exists(tmp_path / "x.csv")


def test_eight_node_constraint_sweep_runs_in_its_qubit_block(tmp_path):
    # five 256 x 256 block states take 5 MB; embedded in the 3^8 space they
    # were 3.4 GB, over the run byte bound
    gfile, out = tmp_path / "path8.txt", tmp_path / "x.csv"
    gfile.write_text("".join(f"{j} {j + 1}\n" for j in range(7)))
    assert run(["constraint-sweep", "--graph", gfile, "--n-cycles", "4", "--out", out]) == 0
    rows = read_lines(out)[2:]
    assert len(rows) == 5 and all(row.endswith(",0.00390625") for row in rows)


@pytest.mark.parametrize("args", [
    ["qubo", "--qubo", "DIR"],
    ["constraint-sweep", "--graph", "DIR"],
    ["qubo", "--config", "DIR"],
    ["qubo", "--n-cycle", "4", "--out", "DIR"],
    ["timebin-compile", "--complete", "3", "--out", "DIR"],
], ids=["qubo-file", "graph-file", "config-file", "out-file", "timebin-out-file"])
def test_paths_that_are_not_readable_files_are_config_errors(tmp_path, capsys, args):
    folder = tmp_path / "folder"
    folder.mkdir()
    args = [folder if a == "DIR" else a for a in args]
    if "--out" not in args:
        args += ["--out", tmp_path / "x.csv"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f" {folder}: " in err
    assert not os.path.exists(tmp_path / "x.csv")


@pytest.mark.parametrize("text, needle", [
    ("[wmis]\nn-cyle = 20\n", "'n-cyle'"),
    ("[wmis]\nconfig = other.ini\n", "'config'"),
    ("[DEFAULT]\nn-cycle = 20\n[wmis]\nw0-grid = 1\n", "[DEFAULT]"),
    ("[DEFAULT]\nn-cycle = 20\n", "[DEFAULT]"),
    ("n-cycle = 20\n", "no section headers"),
    ("[wmis]\nn-cycle = 20%\n", "'20%'"),
], ids=["misspelled-key", "config-key", "default-section", "default-only",
        "no-section", "percent"])
def test_bad_config_files_are_config_errors(tmp_path, capsys, text, needle):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run(["wmis", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and needle in err
    assert not os.path.exists(tmp_path / "x.csv")


def test_config_file_for_other_commands_is_accepted(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\n[wmis]\nw0-grid = 1\nn-cycle = 20\n[qubo]\nbogus = 1\n")
    out = tmp_path / "w.csv"
    assert run(["wmis", "--config", cfg, "--out", out]) == 0
    assert "n-cycle=20 " in read_lines(out)[0]


def test_wmis_command(tmp_path):
    out = tmp_path / "wmis.csv"
    code = run(["wmis", "--w0-grid", "0.5,1.5", "--n-cycle", "200",
                "--r-tot", "40pi", "--out", out])
    assert code == 0
    lines = read_lines(out)
    assert lines[1] == "w0,p00,p01,p10,p11,success"
    rows = [ln.split(",") for ln in lines[2:]]
    assert float(rows[0][2]) > 0.8   # w0 = 0.5 ends in 01
    assert float(rows[1][3]) > 0.8   # w0 = 1.5 ends in 10


def test_qubo_command_builtin(tmp_path):
    out = tmp_path / "qubo.csv"
    code = run(["qubo", "--n-cycle", "600", "--r-tot", "60pi", "--out", out])
    assert code == 0
    lines = read_lines(out)
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert float(rows["01"][3]) == 1 and float(rows["10"][3]) == 1
    assert float(rows["01"][4]) > 0.99


def test_qubo_command_from_file(tmp_path):
    qfile = tmp_path / "q.txt"
    qfile.write_text("-1 0\n0 -1\n")
    out = tmp_path / "qubo.csv"
    assert run(["qubo", "--qubo", qfile, "--n-cycle", "400",
                "--r-tot", "40pi", "--out", out]) == 0
    lines = read_lines(out)
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert float(rows["11"][2]) > 0.99


def test_mitigate_command(tmp_path):
    out = tmp_path / "mit.csv"
    assert run(["mitigate", "--n-copies", "1,2", "--out", out]) == 0
    lines = read_lines(out)
    assert lines[1].startswith("n_copy,pattern_index")
    # every decoded set independent
    assert all(ln.split(",")[4] == "1" for ln in lines[2:])


def test_mitigate_starts_from_the_graphs_own_optimum(tmp_path):
    # K5 at five copies encodes 25 vertices, past the 2^n search's n <= 24,
    # but its optimum is the five photons of vertex 0
    gfile = tmp_path / "k5.txt"
    gfile.write_text("".join(f"{u} {v}\n" for u, v in combinations(range(5), 2)))
    out = tmp_path / "mit.csv"
    assert run(["mitigate", "--graph", gfile, "--n-copies", "5", "--out", out]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 32
    assert [r[3] for r in rows] == ["1"] * 31 + ["0"]  # lost only with all five
    assert [r[5] for r in rows] == ["0"] * 31 + ["-"]


def test_mitigate_names_each_decoded_set_by_one_string(tmp_path):
    # from 13 vertices on, labels joined without a separator read "12" for both
    # {1, 2} and {12}; the optimum {1, ..., 12} loses support[b] at bit b
    gfile = tmp_path / "star.txt"
    gfile.write_text("0 12\n0 1\n0 2\n")
    out = tmp_path / "mit.csv"
    assert run(["mitigate", "--graph", gfile, "--n-copies", "1", "--out", out]) == 0
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert len(rows) == 1 << 12
    sets = {}
    for row in rows:
        index = int(row[1])
        kept = frozenset(v for b, v in enumerate(range(1, 13)) if not (index >> b) & 1)
        sets.setdefault(row[5], set()).add(kept)
    assert all(len(named) == 1 for named in sets.values())
    assert sets["1+2"] == {frozenset({1, 2})} and sets["12"] == {frozenset({12})}


def test_loss_study_over_the_run_byte_bound_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_bit_table", mock.Mock(side_effect=AssertionError))
    gfile = tmp_path / "edge.txt"
    gfile.write_text("0 1\n")
    assert run(["mitigate", "--graph", gfile, "--n-copies", "24",
                "--out", tmp_path / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the 24-photon loss study would take ")
    assert err.count("\n") == 1 and not os.path.exists(tmp_path / "x.csv")


def test_timebin_command(tmp_path, capsys):
    out = tmp_path / "prog.txt"
    assert run(["timebin-compile", "--complete", "5", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "verification: ok" in text
    assert "10/10 edges covered" in text


def test_timebin_failed_verification_exits_2_and_still_writes(tmp_path, capsys, monkeypatch):
    def corrupted(graph, n_bins):
        program = compile_graph_program(graph, n_bins)
        for rnd in program.rounds[:2]:
            rnd.delays = [0] * n_bins
        return program

    monkeypatch.setattr(cli, "compile_graph_program", corrupted)
    out = tmp_path / "prog.txt"
    assert run(["timebin-compile", "--complete", "3", "--out", out]) == 2
    assert read_lines(out)[1:3] == ["# time-bin switch program", "# n_bins 3"]
    assert capsys.readouterr().out.splitlines() == [
        str(out),
        "verification: FAILED; 3/3 edges covered; 2 violations",
        "  violation: round 0: recorded reordering does not follow from the recorded delays",
        "  violation: round 1: recorded reordering does not follow from the recorded delays"]


def test_timebin_guard_counts_its_peak(tmp_path, monkeypatch):
    # the complete graph's edges, then the program's bin events, each counted
    # before they are built; the events' count covers the whole run
    counted, guard = [], cli._guard_bytes
    monkeypatch.setattr(cli, "_guard_bytes",
                        lambda nbytes, what: counted.append(nbytes) or guard(nbytes, what))
    args = ["timebin-compile", "--complete", "120", "--out", tmp_path / "prog.txt"]
    assert run(args) == 0
    counted.clear()
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == [cli.COMPLETE_EDGE_BYTES * 120 * 119 // 2,
                       cli.PROGRAM_EVENT_BYTES * 120 ** 2] and peak <= counted[1]


@pytest.mark.parametrize("args, what", [
    (["--graph", "LINE", "--n-bins", "100000"], "the switch program of 100000 bins"),
    (["--graph", "FAR"], "the switch program of 100000 bins"),
    (["--complete", "100000"], "the complete graph on 100000 vertices"),
], ids=["n-bins", "graph-file-vertex", "complete"])
def test_timebin_over_the_run_byte_bound_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           args, what):
    monkeypatch.setattr(timebin, "all_pairs_shuffle", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(cli, "complete_graph", mock.Mock(side_effect=AssertionError))
    (tmp_path / "LINE").write_text("0 1\n1 2\n")
    (tmp_path / "FAR").write_text("0 99999\n")
    args = [tmp_path / a if a in ("LINE", "FAR") else a for a in args]
    assert run(["timebin-compile", *args, "--out", tmp_path / "x.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {what} would take ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "x.txt")


def test_point_counts_follow_the_run_byte_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", 8000)
    assert run(["oracle-check", "--gammas", "1", "--eta-ratios", "0", "--nt", "1001",
                "--out", tmp_path / "x.csv"]) == 1
    assert capsys.readouterr().err == "config error: nt needs 2 to 1000 points, got 1001\n"
    assert not os.path.exists(tmp_path / "x.csv")


def test_timebin_command_graph_file(tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n1 2\n")
    out = tmp_path / "prog.txt"
    assert run(["timebin-compile", "--graph", gfile, "--out", out]) == 0
    lines = read_lines(out)
    assert lines[1] == "# time-bin switch program"


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oc.csv"
    assert run(["oracle-check", "--gammas", "1.0", "--eta-ratios", "0,1",
                "--nt", "41", "--out", out]) == 0
    lines = read_lines(out)
    rows = [ln.split(",") for ln in lines[2:]]
    assert rows[0][2] == "underdamped" and rows[1][2] == "critical"
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_constraint_sweep_gadget_leaving_the_qubit_block_exits_2(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(anneal, "constraint_superop", leaky_gadget)
    code = run(["constraint-sweep", "--gamma-ts", "1.0", "--n-cycles", "16",
                "--out", tmp_path / "cs.csv"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("numerical guard: edge gadget moves")
    assert not os.path.exists(tmp_path / "cs.csv")


def test_constraint_sweep_gadget_breaking_the_trace_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(anneal, "constraint_superop", trace_breaking_gadget)
    code = run(["constraint-sweep", "--gamma-ts", "1.0", "--n-cycles", "16",
                "--out", tmp_path / "cs.csv"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("numerical guard: final density state")
    assert not os.path.exists(tmp_path / "cs.csv")


def test_constraint_sweep_command(tmp_path):
    out = tmp_path / "cs.csv"
    code = run(["constraint-sweep", "--gamma-ts",
                "lin:0.5553603672697958:1.1107207345395915:2",
                "--n-cycles", "16,64", "--r-tot", "20pi", "--out", out])
    assert code == 0
    lines = read_lines(out)
    assert "threads=" not in lines[0] and "seed=" not in lines[0]
    assert lines[1].startswith("gamma_t,n_cycle,success")
    assert len(lines) == 2 + 4


def test_anneal_command(tmp_path, capsys):
    out = tmp_path / "anneal.csv"
    code = run(["anneal", "--n-cycles", "16,32", "--r-grid", "lin:2pi:12pi:4",
                "--out", out])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[0] == str(out)
    assert printed[1].startswith("critical r_tot per n_cycle: [(16, ")
    assert printed[2].startswith("linear fit: slope=")
    lines = read_lines(out)
    kinds = {ln.split(",")[0] for ln in lines[2:]}
    assert kinds == {"point", "critical", "fit"}


def test_anneal_one_cycle_count_reports_no_fit(tmp_path, capsys):
    out = tmp_path / "anneal.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["anneal", "--n-cycles", "16", "--r-grid", "lin:2pi:12pi:4",
                    "--out", out]) == 0
    assert "linear fit: slope=nan intercept=nan r2=nan" in capsys.readouterr().out
    assert read_lines(out)[-1] == "fit,0,nan,nan,nan,0.01"


def test_drive_sweep_command(tmp_path):
    out = tmp_path / "ds.csv"
    cfg = tmp_path / "ds.ini"
    cfg.write_text("[drive-sweep]\n"
                   "eta-ratios = 0\n"
                   "gammas = log:1:64:4\n"
                   "markov-ratios = 8\n"
                   "gamma-tpas = log:0.5:8:3\n"
                   "gamma99-lo = 1\ngamma99-hi = 64\ngamma99-iters = 8\n")
    assert run(["drive-sweep", "--config", cfg, "--out", out]) == 0
    lines = read_lines(out)
    kinds = {ln.split(",")[0] for ln in lines[2:]}
    assert {"sweep", "markov", "tpa_ref", "gamma99"} <= kinds


def test_drive_sweep_gamma99_flags(tmp_path):
    out = tmp_path / "ds.csv"
    assert run(["drive-sweep", "--eta-ratios", "0", "--gammas", "2",
                "--markov-ratios", "8", "--gamma-tpas", "1",
                "--gamma99-lo", "1", "--gamma99-hi", "16", "--gamma99-iters", "3",
                "--out", out]) == 0
    lines = read_lines(out)
    assert "gamma99-hi=16 gamma99-iters=3 gamma99-lo=1" in lines[0]
    gamma99 = [ln.split(",") for ln in lines[2:] if ln.startswith("gamma99")]
    # three halvings of [log 1, log 16] leave the upper end on a 2^(1/2) grid
    assert len(gamma99) == 1
    assert min(abs(float(gamma99[0][2]) - 2 ** (k / 2)) for k in range(1, 9)) < 1e-8


@pytest.mark.parametrize("flag, value", [("--gamma99-lo", "0"), ("--gamma99-iters", "0")])
def test_drive_sweep_rejects_bad_gamma99_settings(tmp_path, capsys, flag, value):
    out = tmp_path / "ds.csv"
    assert run(["drive-sweep", "--eta-ratios", "0", "--gammas", "2",
                "--markov-ratios", "8", "--gamma-tpas", "1",
                flag, value, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: gamma99")
    assert not out.exists()
