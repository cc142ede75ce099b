"""Command-line front end: reproducible data files for every observable.

Subcommands return their tables and ``main`` writes them once all are computed
and every output path is open:
CSV with '#' header lines or JSON lines, with full provenance in the header and
17-significant-digit floats, so identical invocations give byte-identical files.

Every option and its default is declared once, in ``COMMANDS``; argparse is
generated from that table, and a ``--config`` file is read by turning its
``key = value`` lines into flags, which the command line's own flags override.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import struct
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, fractal, oracle, spectral, survival, universal
from .errors import QuadratureConvergenceError, TruncationCapError, WellQuenchError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

#: rulers of the ``fractal --sigma`` rows
SIGMA_EPSILONS = [1e-6, 1e-5, 1e-4, 1e-3]
#: ruler multiples of the base spacing for the ``fractal`` length measurement
LENGTH_STRIDES = [1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70,
                  100, 150, 200, 300, 500, 700, 1000]
#: fewest values after a CSV row's first for which the writer shares the text
#: of repeated bodies; below, keying a body costs 20-80% of formatting it
_SHARED_BODY_MIN = 32


def _render_table(header: dict, columns: list[str], rows, fmt: str) -> str:
    """One table as '#'-header CSV or JSON lines, deterministic formatting.

    A CSV row body of _SHARED_BODY_MIN values or more, the values after the
    first, is formatted once for each distinct bits, so the mirrored half of
    ``evolve`` reuses its partner's text and the bytes are those of
    formatting every row.  A body is known by a 128-bit BLAKE2b digest of its
    bits (two bodies collide with odds 2^-128), so no 4 kB block of bits per
    ``evolve`` row stays on the C heap to fragment it.
    """
    if fmt != "csv":
        lines = [json.dumps({"meta": header}, sort_keys=True)]
        # np.float64 is a float and encodes with float's repr
        lines.extend(json.dumps(dict(zip(columns, row)), sort_keys=True)
                     for row in rows)
        return "\n".join(lines) + "\n"
    # %.17g prints an integer below 1e17 as its digits and any float so
    # that it reads back to the same bits
    parts = [f"# {key} = " + (value if isinstance(value, str) else "%.17g" % value)
             + "\n" for key, value in header.items()]
    parts.append("# columns: " + ",".join(columns) + "\n")
    body_format = ",%.17g" * (len(columns) - 1) + "\n"
    if len(columns) - 1 < _SHARED_BODY_MIN:
        row_format = "%.17g" + body_format
        parts.extend(row_format % tuple(row) for row in rows)
        return "".join(parts)
    bits = struct.Struct(f"{len(columns) - 1}d").pack
    texts = {}
    for row in rows:
        key = hashlib.blake2b(bits(*row[1:]), digest_size=16).digest()
        if key not in texts:
            texts[key] = body_format % tuple(row[1:])
        parts += ("%.17g" % row[0], texts[key])
    return "".join(parts)


def _write_tables(tables, fmt: str):
    """Write every table, or no file at all: all texts are rendered and every
    output path is opened before the first byte is written, and when a path
    cannot be opened the files created for the earlier ones are removed.  Two
    tables sent to one regular or new file are a ValueError, raised first."""
    files = [os.path.realpath(path) for path, *_ in tables if path is not None
             and (os.path.isfile(path) or not os.path.exists(path))]
    if len(set(files)) < len(files):
        raise ValueError("two tables would be written to one file")
    texts = [(path, _render_table(header, columns, rows, fmt))
             for path, header, columns, rows in tables]
    with contextlib.ExitStack() as stack:
        handles, created = [], []
        try:
            for path, _ in texts:
                if path is not None:
                    existed = os.path.lexists(path)
                    # append mode leaves an existing file's bytes alone
                    handles.append(stack.enter_context(open(path, "a")))
                    if not existed:
                        created.append(path)
        except OSError:
            for path in created:
                os.remove(path)
            raise
        handles = iter(handles)
        for path, text in texts:
            if path is None:
                sys.stdout.write(text)
                continue
            handle = next(handles)
            if os.path.isfile(path):  # not a pipe or a device
                handle.truncate(0)
            handle.write(text)
            handle.close()  # before a later table reopens the same path


def _resolve_modes(args, well: spectral.WellConfig, observable: str) -> int:
    if args.tol is None:
        return args.n
    return spectral.truncation_for_tolerance(well, observable, args.tol)


def _base_header(well: spectral.WellConfig | None = None, **fields) -> dict:
    """Provenance header: the version, the well's geometry when there is one,
    then ``fields`` in order; a field set to None (an unset --tol) is left out."""
    header = {"artifact_version": __version__}
    if well is not None:
        header.update(delta=well.delta, width=well.width, period=well.period)
    header.update((key, value) for key, value in fields.items() if value is not None)
    return header


def cmd_coeffs(args) -> list:
    well = spectral.WellConfig(args.delta)
    n_modes = _resolve_modes(args, well, "coefficients")
    coeffs = spectral.mode_coefficients(well, n_modes)
    header = _base_header(well, n_modes=n_modes, tolerance=args.tol,
                          completeness_deficit=coeffs.completeness_deficit)
    return [(args.out, header, ["n", "a_n"], list(enumerate(coeffs.values, 1)))]


def cmd_evolve(args) -> list:
    well = spectral.WellConfig(args.delta)
    n_modes, nx, nt = args.n, args.nx, args.nt
    x_grid = np.linspace(0.0, well.width, nx)
    t_grid = np.linspace(0.0, well.period, nt)
    coeffs = spectral.mode_coefficients(well, n_modes)
    density = spectral.density_field(well, coeffs, x_grid, t_grid)
    header = _base_header(well, n_modes=n_modes, nx=nx, nt=nt,
                          x_min=0.0, x_max=well.width,
                          t_min=0.0, t_max=well.period)
    rows = ([t] + row.tolist() for t, row in zip(t_grid.tolist(), density))
    return [(args.out, header, ["t"] + [f"x{i}" for i in range(nx)], rows)]


def cmd_escape(args) -> list:
    well = spectral.WellConfig(args.delta)
    n_modes = _resolve_modes(args, well, "survival")
    t_min, t_max, points = args.t_min, args.t_max, args.points
    if points < 2 or t_max <= t_min:
        raise ValueError("need points >= 2 and --t-max > --t-min")
    if args.spacing == "log":
        if t_min <= 0:
            raise ValueError("--t-min must be positive for log spacing")
        times = np.logspace(math.log10(t_min), math.log10(t_max), points)
    else:
        times = np.linspace(t_min, t_max, points)
    exact = survival.escape_probability_exact(well, times, n_modes)
    small = survival.escape_small_delta(well, times, n_modes)
    integral = np.array([survival.escape_integral(well.delta, float(t))
                         for t in times])
    free = survival.asymptote_free(times)
    confined = survival.asymptote_confined(well.delta, times)
    header = _base_header(well, n_modes=n_modes, tolerance=args.tol,
                          crossover_time=survival.crossover_time(well.delta),
                          spacing=args.spacing)
    rows = zip(times, exact, small, integral, free, confined)
    return [(args.out, header, ["t", "exact", "small_delta", "integral",
                                "asymptote_free", "asymptote_confined"], rows)]


def cmd_universal(args) -> list:
    n_modes, xi_min, xi_max, points = args.n, args.xi_min, args.xi_max, args.points
    if points < 2 or xi_max <= xi_min:
        raise ValueError("need points >= 2 and --xi-max > --xi-min")
    xi = np.linspace(xi_min, xi_max, points)
    values = universal.universal_function(xi, n_modes)
    tail = universal.universal_tail_bound(n_modes)
    header = _base_header(n_modes=n_modes, xi_min=xi_min, xi_max=xi_max,
                          points=points, tail_bound=tail)
    tables = [(args.out, header, ["xi", "F", "tail_bound"],
               ((x, v, tail) for x, v in zip(xi, values)))]
    if args.valleys_out:
        valley_modes = min(n_modes, universal.DEFAULT_MODES)
        valleys = universal.valley_locations(args.p_max, n_modes=valley_modes)
        vrows = [(e.numerator, e.denominator_root, e.location, e.depth)
                 for e in valleys.entries]
        tables.append((args.valleys_out, _base_header(p_max=args.p_max, n_modes=valley_modes),
                       ["q", "p", "location", "depth"], vrows))
    return tables


def cmd_fractal(args) -> list:
    if args.selftest + args.histogram + args.sigma > 1:
        raise ValueError("choose at most one of --selftest, --histogram and --sigma")
    if args.selftest:
        eps = np.logspace(-5, -2, 10)
        fit = fractal.dimension_fit(eps, eps**-0.25)
        print(f"selftest dimension = {fit.dimension:.6f}")
        if not abs(fit.dimension - 1.25) < 1e-9:
            raise WellQuenchError(f"selftest dimension {fit.dimension!r} != 1.25")
        return []
    if args.histogram:
        sample = fractal.phase_sum_samples(args.epsilon)
        report = fractal.normality_diagnostics(sample, bins=args.bins)
        header = _base_header(epsilon=args.epsilon, cutoff=sample.cutoff,
                              count=sample.values.size, mean=sample.mean,
                              std=sample.std, skewness=report.skewness,
                              excess_kurtosis=report.excess_kurtosis)
        rows = zip(report.bin_edges[:-1], report.bin_edges[1:],
                   report.counts.tolist())
        return [(args.out, header, ["bin_left", "bin_right", "count"], rows)]
    if args.sigma:
        slope, samples = fractal.phase_sum_scaling(SIGMA_EPSILONS)
        return [(args.out, _base_header(sigma_slope=slope), ["epsilon", "sigma"],
                 [(s.epsilon, s.std) for s in samples])]
    fit, lengths = fractal.profile_dimension(
        LENGTH_STRIDES, base_intervals=args.base_intervals, n_modes=args.n)
    header = _base_header(n_modes=args.n, base_intervals=args.base_intervals,
                          dimension=fit.dimension, slope=fit.slope,
                          residual=fit.residual)
    rows = [(m.ruler, m.chord, m.variation) for m in lengths]
    return [(args.out, header, ["epsilon", "l_chord", "l_variation"], rows)]


def cmd_oracle_check(args) -> list:
    checks = oracle.invariant_checks(args.coarse)
    failed = [c["name"] for c in checks if not c["ok"]]
    if args.json:
        sys.stdout.write(json.dumps({"ok": not failed, "checks": checks},
                                    sort_keys=True) + "\n")
    else:
        for c in checks:
            print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e} "
                  f"(threshold {c['threshold']:.1e})")
        print("oracle checks:", "FAILED" if failed else "all passed")
    if failed:
        raise WellQuenchError("oracle checks failed: " + ", ".join(failed))
    return []


class Opt(NamedTuple):
    """One option and its single default; ``type=bool`` makes a switch."""

    default: object = None
    type: type = str
    help: str | None = None
    choices: list | None = None


_IO = {
    "--config": Opt(help="flat key = value file; flags override"),
    "--out": Opt(help="output path (default stdout)"),
    "--format": Opt("csv", choices=["csv", "jsonl"]),
}


def _delta(default: float) -> dict:
    return {"--delta": Opt(default, float, "wall shift")}


def _modes(n: int | None = None, tol: float | None = None) -> dict:
    """--n, plus --tol where a tail bound can be inverted; an explicit --n
    replaces the default tolerance."""
    options = {"--n": Opt(n, int, "mode count")}
    if tol is not None:
        options["--tol"] = Opt(tol, float, "truncation tolerance")
    return options


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], list]  # the tables, written by main
    help: str
    options: dict[str, Opt]


COMMANDS = {
    "coeffs": Command(cmd_coeffs, "expansion coefficient table",
                      {**_IO, **_delta(0.0), **_modes(tol=1e-6)}),
    "evolve": Command(cmd_evolve, "probability density over one period", {
        **_IO, **_delta(0.2), **_modes(800),
        "--nx": Opt(512, int), "--nt": Opt(512, int)}),
    "escape": Command(cmd_escape, "escape probability time series", {
        **_IO, **_delta(0.003), **_modes(tol=1e-12),
        "--t-min": Opt(1e-8, float), "--t-max": Opt(1e-2, float),
        "--points": Opt(121, int), "--spacing": Opt("log", choices=["log", "linear"])}),
    "universal": Command(cmd_universal, "limit profile samples and valleys", {
        **_IO, **_modes(universal.DEFAULT_MODES),
        "--xi-min": Opt(0.0, float), "--xi-max": Opt(1.0, float),
        "--points": Opt(512, int),
        "--valleys-out": Opt(help="also write the valley list here"),
        "--p-max": Opt(4, int)}),
    "fractal": Command(cmd_fractal, "curve lengths, dimension, phase sums", {
        **_IO, **_modes(universal.DEFAULT_MODES),
        "--base-intervals": Opt(10**5, int),
        "--histogram": Opt(False, bool,
                           "emit the phase-sum histogram instead of lengths"),
        "--epsilon": Opt(1e-5, float, "ruler for --histogram"),
        "--bins": Opt(61, int),
        "--sigma": Opt(False, bool,
                       "emit (epsilon, sigma) rows instead of lengths"),
        "--selftest": Opt(False, bool, "fit a synthetic eps^-1/4 law and exit")}),
    "oracle-check": Command(cmd_oracle_check, "run the independent-oracle suite", {
        "--coarse": Opt(False, bool,
                        "deliberately coarse grids (expected to fail)"),
        "--json": Opt(False, bool)}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of ``COMMANDS``, built on first use.  A parse leaves it
    unchanged: every parse fills a namespace of its own, with only the flags
    it was given (parse_args applies the defaults)."""
    parser = _Parser(
        prog="wellquench",
        description="Sudden wall-shift dynamics: escape laws, the universal "
                    "limit profile, and its fractal dimension.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        # argparse cannot format an empty group, so only a command with --n has one
        modes = p.add_mutually_exclusive_group() if "--n" in command.options else p
        for flag, opt in command.options.items():
            kind = ({"action": "store_true"} if opt.type is bool
                    else {"type": opt.type, "choices": opt.choices})
            (modes if flag in ("--n", "--tol") else p).add_argument(
                flag, help=opt.help, **kind)
    return parser


def _dest(flag: str) -> str:
    """The namespace attribute of a long flag, as argparse names it (--t-min: t_min)."""
    return flag[2:].replace("-", "_")


def _config_tokens(path: str, options: dict) -> list[str]:
    """A flat ``key = value`` file as flag tokens; '#' starts a comment.

    Keys are flag names without the dashes (``t-min`` or ``t_min``); a switch
    is set by a true value (1, true, yes, on) and left alone otherwise.
    """
    flags = {_dest(flag): flag for flag in options}
    tokens = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            flag = flags.get(_dest("--" + key))
            if not sep:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            if flag is None:  # argparse would accept an abbreviation
                raise ValueError(f"unknown config key {key!r}")
            if options[flag].type is not bool:
                tokens += [flag, value]
            elif value.lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
    return tokens


def parse_args(argv=None) -> argparse.Namespace:
    """Parsed options of one invocation, config file and defaults applied.
    Command-line flags win over the file's, and a command-line --n or --tol
    replaces both of the file's n and tol."""
    parser = _build_parser()
    given = vars(parser.parse_args(sys.argv[1:] if argv is None else argv))
    options = COMMANDS[given["command"]].options
    if given.get("config"):
        from_file = vars(parser.parse_args(
            [given["command"], *_config_tokens(given["config"], options)]))
        if {"n", "tol"} & given.keys():
            from_file = {k: v for k, v in from_file.items() if k not in ("n", "tol")}
        given = {**from_file, **given}
    values = {_dest(flag): opt.default for flag, opt in options.items()}
    values.update(given)
    if "--tol" in options and "n" in given:
        values["tol"] = None  # an explicit mode count replaces the default tolerance
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        # an overflow or NaN is an error here, not a warning and a bad number
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tables = COMMANDS[args.command].run(args)
            if tables:
                _write_tables(tables, args.format)
        return EXIT_OK
    except ArithmeticError as exc:
        print(f"usage error: input out of floating-point range: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"usage error: input too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError, TruncationCapError) as exc:
        # a TruncationCapError is a --tol no mode count within the cap meets
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WellQuenchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
