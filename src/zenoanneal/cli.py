"""Command-line experiment runner.

Each subcommand is one ``COMMANDS`` entry: its flags with their defaults, its
default output and its run.  ``main`` resolves each setting from its flag, an
optional INI config file (section named after the command) or its default,
runs the experiment, and writes its text after a first line that records the
resolved configuration.  Identical invocations write byte-identical files.

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

from . import experiments, propagator
from .gadgets import GAMMA_T_COHERENT, GAMMA_T_INCOHERENT
from .problems import (complete_graph, five_node_example, parse_edge_list,
                       parse_qubo, three_node_line)
from .propagator import NonConvergenceError, _guard_bytes
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
    """``num`` if at least ``least`` and its floats fit ``propagator.RUN_BYTES_MAX``."""
    most = propagator.RUN_BYTES_MAX // 8
    if not least <= num <= most:
        raise ConfigError(f"{what} needs {least} to {most} points, got {num}")
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
    """Flag-over-config-over-default resolution for one subcommand, whose
    ``flags`` map each setting to its (default, cast)."""

    def __init__(self, args: argparse.Namespace, section: str, flags: dict):
        self.cfg = configparser.ConfigParser(interpolation=None)  # '%' is literal
        self.section = section
        self.args = args
        self.flags = flags
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
            for key in self.cfg.options(section) if self.cfg.has_section(section) else ():
                if key not in flags:  # the subcommand's flags, minus --config
                    raise ConfigError(f"config file {path}: unknown key {key!r} in [{section}]")

    def get(self, key: str, default=None):
        """``key``'s flag, else its config value, else ``default`` or its
        declared default, by its declared cast."""
        declared, cast = self.flags[key]
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif self.cfg.has_option(self.section, key):
            value = self.cfg.get(self.section, key)
        else:
            value = declared if default is None else default
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


def _csv(header, rows) -> str:
    return "".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in line)
                   + "\n" for line in [header, *rows])


def _read_input(settings: Settings, key: str, builtin=None):
    """The graph or QUBO in the file the ``key`` setting names; when it names
    none, ``builtin()``, recorded as "<builtin>", or None without one."""
    what, parse = {"graph": ("graph", parse_edge_list), "qubo": ("QUBO", parse_qubo)}[key]
    path = settings.get(key)
    if path is None:
        if builtin is None:
            return None
        settings.resolved[key] = "<builtin>"
        return builtin()
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}") from exc


# ------------------------------------------------------------- subcommands
# Each run takes its subcommand's Settings and returns the text written after
# the config line, the lines printed after the output path, and the exit status.

def _zeno_onset(s: Settings):
    variant = s.get("variant")
    if variant not in ("tpa", "sfg", "both"):
        raise ConfigError("variant must be tpa, sfg, or both")
    nt = _point_count(s.get("nt"), 2, "nt")
    t_max = s.get("t-max")
    rows = []
    for kind in ("tpa", "sfg"):
        if variant in (kind, "both"):
            header, r = experiments.zeno_onset_rows(
                kind, s.get(f"{kind}-ratios"), s.get(f"{kind}-truncation"), t_max, nt)
            rows += r
    return _csv(header, rows), [], 0


def _drive_sweep(s: Settings):
    return _csv(*experiments.drive_sweep_rows(
        s.get("eta-ratios"), s.get("gammas"), s.get("markov-ratios"), s.get("gamma-tpas"),
        gamma99_lo=s.get("gamma99-lo"), gamma99_hi=s.get("gamma99-hi"),
        gamma99_iters=s.get("gamma99-iters"))), [], 0


def _constraint_sweep(s: Settings):
    return _csv(*experiments.constraint_sweep_rows(
        _read_input(s, "graph", three_node_line), s.get("gamma-ts"), s.get("n-cycles"),
        s.get("r-tot"), phi_q=s.get("phi-q"))), [], 0


def _anneal(s: Settings):
    header, rows, criticals, (slope, intercept, r2) = experiments.ideal_vs_phase_rows(
        _read_input(s, "graph", five_node_example), s.get("n-cycles"), s.get("r-grid"),
        phi_q=s.get("phi-q"), tol=s.get("tol"))
    return _csv(header, rows), [
        f"critical r_tot per n_cycle: {criticals}",
        f"linear fit: slope={slope:.6g} intercept={intercept:.6g} r2={r2:.6g}"], 0


def _wmis(s: Settings):
    return _csv(*experiments.wmis_rows(s.get("w0-grid"), s.get("n-cycle"), s.get("r-tot"),
                                       phi_q=s.get("phi-q"))), [], 0


def _qubo(s: Settings):
    q = _read_input(s, "qubo", lambda: np.array([[-1.0, 3.0], [3.0, -1.0]]))
    return _csv(*experiments.qubo_rows(q, s.get("n-cycle"), s.get("r-tot"))), [], 0


def _mitigate(s: Settings):
    return _csv(*experiments.mitigation_rows(_read_input(s, "graph", three_node_line),
                                             s.get("n-copies"))), [], 0


# Bytes per edge of a complete graph while it is built, and per bin event of
# a switch program compiled, verified, rendered and written: tracemalloc saw
# at most 275 and 316 (graph included) at 30 to 1,000 vertices.
COMPLETE_EDGE_BYTES = 320
PROGRAM_EVENT_BYTES = 416


def _timebin_compile(s: Settings):
    graph = _read_input(s, "graph")
    if graph is None:
        n = s.get("complete")
        _guard_bytes(COMPLETE_EDGE_BYTES * max(n, 0) * (n - 1) // 2,
                     f"the complete graph on {n} vertices")
        graph = complete_graph(n)
        s.resolved["graph"] = f"<complete:{n}>"
    n_bins = s.get("n-bins", graph.n_vertices)
    _guard_bytes(PROGRAM_EVENT_BYTES * max(n_bins, 0) ** 2,
                 f"the switch program of {n_bins} bins")
    program = compile_graph_program(graph, n_bins)
    report = verify_program(program, graph)
    return render_program(program), [
        f"verification: {'ok' if report.ok else 'FAILED'}; "
        f"{len(report.edges_covered)}/{len(graph.edges)} edges covered; "
        f"{len(report.violations)} violations",
        *(f"  violation: {v}" for v in report.violations)], 0 if report.ok else 2


def _oracle_check(s: Settings):
    return _csv(*experiments.oracle_check_rows(
        s.get("gammas"), s.get("eta-ratios"), n_t=_point_count(s.get("nt"), 2, "nt"))), [], 0


GRAPH = {"graph": (None, str)}  # an edge-list file; each run names its builtin graph

# subcommand: ({flag besides --config and --out: (default, cast)}, in --help
# order; the default output; the run)
COMMANDS = {
    "zeno-onset": ({"variant": ("both", str), "tpa-ratios": ("0,2,10,150", _parse_grid),
                    "sfg-ratios": ("0,1,3,10", _parse_grid), "tpa-truncation": (31, int),
                    "sfg-truncation": (11, int), "t-max": (2 * math.pi, _parse_float),
                    "nt": (201, int)},
                   "zeno_onset.csv", _zeno_onset),
    "drive-sweep": ({"eta-ratios": ("0,0.25,0.5,0.75,1", _parse_grid),
                     "gammas": ("log:0.5:2048:25", _parse_grid),
                     "markov-ratios": ("4,12,40,120,400", _parse_grid),
                     "gamma-tpas": ("log:0.05:200:19", _parse_grid),
                     "gamma99-lo": (0.2, _parse_float), "gamma99-hi": (4096.0, _parse_float),
                     "gamma99-iters": (40, int)},
                    "drive_sweep.csv", _drive_sweep),
    "constraint-sweep": ({**GRAPH,
                          "gamma-ts": (f"lin:{GAMMA_T_INCOHERENT}:{GAMMA_T_COHERENT}:5",
                                       _parse_grid),
                          "n-cycles": ("log:16:8192:10", _parse_ints),
                          "r-tot": (20 * math.pi, _parse_float),
                          "phi-q": (experiments.DEFAULT_PHI_Q, _parse_float)},
                         "constraint_sweep.csv", _constraint_sweep),
    "anneal": ({**GRAPH, "n-cycles": ("512,1024,2048", _parse_ints),
                "r-grid": ("lin:4:1400:70", _parse_grid),
                "phi-q": (experiments.DEFAULT_PHI_Q, _parse_float), "tol": (0.01, float)},
               "ideal_vs_phase.csv", _anneal),
    "wmis": ({"w0-grid": ("lin:0.4:1.6:13", _parse_grid), "n-cycle": (1000, int),
              "r-tot": (200 * math.pi, _parse_float),
              "phi-q": (experiments.DEFAULT_PHI_Q, _parse_float)},
             "wmis_crossover.csv", _wmis),
    "qubo": ({"qubo": (None, str), "n-cycle": (1500, int), "r-tot": (60 * math.pi, _parse_float)},
             "qubo.csv", _qubo),
    "mitigate": ({**GRAPH, "n-copies": ("1,2,3", _parse_ints)}, "mitigation.csv", _mitigate),
    "timebin-compile": ({**GRAPH, "complete": (5, int), "n-bins": (None, int)},
                        "timebin_program.txt", _timebin_compile),
    "oracle-check": ({"gammas": ("lin:0.6:1.4:5", _parse_grid),
                      "eta-ratios": ("0,0.5,1,2,4", _parse_grid), "nt": (201, int)},
                     "oracle_check.csv", _oracle_check),
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
    for name, (flags, _, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output path")
        for flag in flags:
            p.add_argument(f"--{flag}")
    return parser


def main(argv=None) -> int:
    """Resolve the subcommand's settings, run it, and write the config line
    and its text to its output; print the path and the run's lines."""
    try:
        args = build_parser().parse_args(argv)
        flags, out, run = COMMANDS[args.command]
        settings = Settings(args, args.command, {**flags, "out": (out, str)})
        text, printed, status = run(settings)
        with _open_out(settings.get("out")) as fh:
            fh.write(settings.config_line() + "\n")
            fh.write(text)
        print("\n".join([fh.name, *printed]))
        return status
    except NonConvergenceError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, or an experiment's own input check
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
