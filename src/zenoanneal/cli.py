"""Command-line experiment runner.

Every subcommand reads an optional INI config file (section named after the
command), applies flag overrides on top, runs the experiment, and writes a
CSV whose first line records the resolved configuration.  Output is
deterministic: identical invocations produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 numerical-guard violation.
The environment variable ZENOANNEAL_OUT, when set, prefixes relative output
paths.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import anneal, experiments
from .gadgets import GAMMA_T_COHERENT, GAMMA_T_INCOHERENT
from .problems import (complete_graph, five_node_example, parse_edge_list,
                       parse_qubo, three_node_line)
from .propagator import NonConvergenceError
from .timebin import compile_graph_program, render_program, verify_program

OUT_DIR_ENV = "ZENOANNEAL_OUT"


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


def _parse_float(text: str) -> float:
    """Float literal with an optional 'pi' suffix, e.g. '20pi'."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        return (float(head) if head else 1.0) * math.pi
    return float(s)


def _point_count(num: int, least: int, what: str) -> int:
    """``num`` if at least ``least`` and its floats fit ``anneal.RUN_BYTES_MAX``."""
    if not least <= num <= anneal.RUN_BYTES_MAX // 8:
        raise ConfigError(f"{what} needs {least} to {anneal.RUN_BYTES_MAX // 8} points, "
                          f"got {num}")
    return num


def _parse_grid(text: str) -> list[float]:
    """Grids: 'a,b,c' literals, 'lin:lo:hi:n', or 'log:lo:hi:n'."""
    s = str(text).strip()
    if s.startswith("lin:") or s.startswith("log:"):
        kind, lo, hi, num = s.split(":")
        lo, hi = _parse_float(lo), _parse_float(hi)
        if not math.isfinite(hi - lo):  # a bound or the span is not finite
            raise ConfigError(f"grid bounds and their span must be finite: {text!r}")
        num = _point_count(int(num), 1, f"grid {text!r}")
        if kind == "lin":
            return [float(x) for x in np.linspace(lo, hi, num)]
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"log grid needs positive bounds: {text!r}")
        return [float(x) for x in np.geomspace(lo, hi, num)]
    values = [_parse_float(tok) for tok in s.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"empty grid: {text!r}")
    return values


def _parse_ints(text: str) -> list[int]:
    return [int(round(v)) for v in _parse_grid(text)]


class Settings:
    """Flag-over-config-over-default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.cfg = configparser.ConfigParser(interpolation=None)  # '%' is literal
        self.section = section
        self.args = args
        self.resolved: dict[str, str] = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    self.cfg.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"bad config file {path}: {str(exc).splitlines()[0]}") from exc
            if self.cfg.defaults():
                raise ConfigError(f"config file {path}: keys under [DEFAULT] are not read")
            known = {k.replace("_", "-") for k in vars(args)} - {"command", "config"}
            for key in self.cfg.options(section) if self.cfg.has_section(section) else ():
                if key not in known:  # the subcommand's flags, minus --config
                    raise ConfigError(f"config file {path}: unknown key {key!r} in [{section}]")

    def get(self, key: str, default, cast=str):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif self.cfg.has_option(self.section, key):
            value = self.cfg.get(self.section, key)
        else:
            value = default
        try:
            out = cast(value) if not (cast is str and value is None) else value
        except (TypeError, ValueError, OverflowError) as exc:  # int(round(inf)) overflows
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
        self.resolved[key] = str(value)
        return out

    def config_line(self) -> str:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(self.resolved.items()))
        return f"# config: command={self.section} {pairs}"


def _open_out(path: str):
    """``path`` opened for writing, under ZENOANNEAL_OUT when that is set and
    the path is relative; a path that cannot be written is a config error."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str, config_line: str, header, rows) -> str:
    with _open_out(path) as fh:
        fh.write(config_line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return fh.name


def _read_input(settings: Settings, key: str, what: str, parse):
    """parse() of the text of the file the ``key`` setting names, or None
    when it names none."""
    path = settings.get(key, None)
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}") from exc


def _load_graph(settings: Settings, default_factory):
    graph = _read_input(settings, "graph", "graph", parse_edge_list)
    if graph is None:
        graph = default_factory()
        settings.resolved["graph"] = "<builtin>"
    return graph


# ------------------------------------------------------------- subcommands

def cmd_zeno_onset(args) -> int:
    s = Settings(args, "zeno-onset")
    variant = s.get("variant", "both")
    if variant not in ("tpa", "sfg", "both"):
        raise ConfigError("variant must be tpa, sfg, or both")
    nt = _point_count(s.get("nt", 201, int), 2, "nt")
    t_max = s.get("t-max", 2 * math.pi, _parse_float)
    out = s.get("out", "zeno_onset.csv")
    rows = []
    header = None
    if variant in ("tpa", "both"):
        ratios = s.get("tpa-ratios", "0,2,10,150", _parse_grid)
        trunc = s.get("tpa-truncation", 31, int)
        header, r = experiments.zeno_onset_rows("tpa", ratios, trunc, t_max, nt)
        rows += r
    if variant in ("sfg", "both"):
        ratios = s.get("sfg-ratios", "0,1,3,10", _parse_grid)
        trunc = s.get("sfg-truncation", 11, int)
        header, r = experiments.zeno_onset_rows("sfg", ratios, trunc, t_max, nt)
        rows += r
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_drive_sweep(args) -> int:
    s = Settings(args, "drive-sweep")
    ratios = s.get("eta-ratios", "0,0.25,0.5,0.75,1", _parse_grid)
    gammas = s.get("gammas", "log:0.5:2048:25", _parse_grid)
    markov = s.get("markov-ratios", "4,12,40,120,400", _parse_grid)
    gamma_tpas = s.get("gamma-tpas", "log:0.05:200:19", _parse_grid)
    lo = s.get("gamma99-lo", 0.2, _parse_float)
    hi = s.get("gamma99-hi", 4096.0, _parse_float)
    iters = s.get("gamma99-iters", 40, int)
    out = s.get("out", "drive_sweep.csv")
    header, rows = experiments.drive_sweep_rows(
        ratios, gammas, markov, gamma_tpas,
        gamma99_lo=lo, gamma99_hi=hi, gamma99_iters=iters)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_constraint_sweep(args) -> int:
    s = Settings(args, "constraint-sweep")
    graph = _load_graph(s, three_node_line)
    gamma_ts = s.get("gamma-ts",
                     f"lin:{GAMMA_T_INCOHERENT}:{GAMMA_T_COHERENT}:5", _parse_grid)
    n_cycles = s.get("n-cycles", "log:16:8192:10", _parse_ints)
    r_tot = s.get("r-tot", 20 * math.pi, _parse_float)
    phi_q = s.get("phi-q", experiments.DEFAULT_PHI_Q, _parse_float)
    out = s.get("out", "constraint_sweep.csv")
    header, rows = experiments.constraint_sweep_rows(
        graph, gamma_ts, n_cycles, r_tot, phi_q=phi_q)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_anneal(args) -> int:
    s = Settings(args, "anneal")
    graph = _load_graph(s, five_node_example)
    n_cycles = s.get("n-cycles", "512,1024,2048", _parse_ints)
    r_grid = s.get("r-grid", "lin:4:1400:70", _parse_grid)
    phi_q = s.get("phi-q", experiments.DEFAULT_PHI_Q, _parse_float)
    tol = s.get("tol", 0.01, float)
    out = s.get("out", "ideal_vs_phase.csv")
    header, rows, criticals, fit = experiments.ideal_vs_phase_rows(
        graph, n_cycles, r_grid, phi_q=phi_q, tol=tol)
    print(write_csv(out, s.config_line(), header, rows))
    slope, intercept, r2 = fit
    print(f"critical r_tot per n_cycle: {criticals}")
    print(f"linear fit: slope={slope:.6g} intercept={intercept:.6g} r2={r2:.6g}")
    return 0


def cmd_wmis(args) -> int:
    s = Settings(args, "wmis")
    w0_grid = s.get("w0-grid", "lin:0.4:1.6:13", _parse_grid)
    n_cycle = s.get("n-cycle", 1000, int)
    r_tot = s.get("r-tot", 200 * math.pi, _parse_float)
    phi_q = s.get("phi-q", experiments.DEFAULT_PHI_Q, _parse_float)
    out = s.get("out", "wmis_crossover.csv")
    header, rows = experiments.wmis_rows(w0_grid, n_cycle, r_tot, phi_q=phi_q)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_qubo(args) -> int:
    s = Settings(args, "qubo")
    q = _read_input(s, "qubo", "QUBO", parse_qubo)
    if q is None:
        q = np.array([[-1.0, 3.0], [3.0, -1.0]])
        s.resolved["qubo"] = "<builtin>"
    n_cycle = s.get("n-cycle", 1500, int)
    r_tot = s.get("r-tot", 60 * math.pi, _parse_float)
    out = s.get("out", "qubo.csv")
    header, rows = experiments.qubo_rows(q, n_cycle, r_tot)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_mitigate(args) -> int:
    s = Settings(args, "mitigate")
    graph = _load_graph(s, three_node_line)
    n_copies = s.get("n-copies", "1,2,3", _parse_ints)
    out = s.get("out", "mitigation.csv")
    header, rows = experiments.mitigation_rows(graph, n_copies)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


def cmd_timebin_compile(args) -> int:
    s = Settings(args, "timebin-compile")
    graph = _read_input(s, "graph", "graph", parse_edge_list)
    if graph is None:
        n = s.get("complete", 5, int)
        graph = complete_graph(n)
        s.resolved["graph"] = f"<complete:{n}>"
    n_bins = s.get("n-bins", graph.n_vertices, int)
    out = s.get("out", "timebin_program.txt")
    program = compile_graph_program(graph, n_bins)
    report = verify_program(program, graph)
    with _open_out(out) as fh:
        fh.write(s.config_line() + "\n")
        fh.write(render_program(program))
    print(fh.name)
    print(f"verification: {'ok' if report.ok else 'FAILED'}; "
          f"{len(report.edges_covered)}/{len(graph.edges)} edges covered; "
          f"{len(report.violations)} violations")
    for v in report.violations:
        print(f"  violation: {v}")
    return 0 if report.ok else 2


def cmd_oracle_check(args) -> int:
    s = Settings(args, "oracle-check")
    gammas = s.get("gammas", "lin:0.6:1.4:5", _parse_grid)
    ratios = s.get("eta-ratios", "0,0.5,1,2,4", _parse_grid)
    nt = _point_count(s.get("nt", 201, int), 2, "nt")
    out = s.get("out", "oracle_check.csv")
    header, rows = experiments.oracle_check_rows(gammas, ratios, n_t=nt)
    print(write_csv(out, s.config_line(), header, rows))
    return 0


COMMANDS = {
    "zeno-onset": cmd_zeno_onset,
    "drive-sweep": cmd_drive_sweep,
    "constraint-sweep": cmd_constraint_sweep,
    "anneal": cmd_anneal,
    "wmis": cmd_wmis,
    "qubo": cmd_qubo,
    "mitigate": cmd_mitigate,
    "timebin-compile": cmd_timebin_compile,
    "oracle-check": cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on bad command-line input, so it exits 1, not 2.

    Subparsers are built with the same class, so they raise it too.
    """

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zenoanneal",
        description="Zeno-constrained optical annealing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output path")
        for flag in flags:
            p.add_argument(f"--{flag}")
        return p

    add("zeno-onset", ["variant", "tpa-ratios", "sfg-ratios", "tpa-truncation",
                       "sfg-truncation", "t-max", "nt"])
    add("drive-sweep", ["eta-ratios", "gammas", "markov-ratios", "gamma-tpas",
                        "gamma99-lo", "gamma99-hi", "gamma99-iters"])
    add("constraint-sweep", ["graph", "gamma-ts", "n-cycles", "r-tot", "phi-q"])
    add("anneal", ["graph", "n-cycles", "r-grid", "phi-q", "tol"])
    add("wmis", ["w0-grid", "n-cycle", "r-tot", "phi-q"])
    add("qubo", ["qubo", "n-cycle", "r-tot"])
    add("mitigate", ["graph", "n-copies"])
    add("timebin-compile", ["graph", "complete", "n-bins"])
    add("oracle-check", ["gammas", "eta-ratios", "nt"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except NonConvergenceError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, or an experiment's own input check
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
