"""How each job kind runs, what it outputs, and how that output is checked.

``run`` is the timed part: one CLI invocation through ``cli.main`` or one
library call.  Every call goes through a module attribute looked up at call
time, so the wrappers that ``tracing.py`` installs see it.  ``output`` and
``check`` run outside the timed region.

Each check compares a seeded subsample of the output with an independent
route that the test suite already pins to it: exact against continuum
escape, FFT against direct profile sums, plain reference loops, the
Crank-Nicolson propagator against the spectral wavefunction, and survival
amplitudes against overlap quadrature.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from wellquench import cli, oracle, spectral, survival, universal

_REFERENCE_BLOCK = 2**20  # elements per block in the reference loops


class JobFailed(Exception):
    """The job exited with a non-zero code."""


# ---------------------------------------------------------------- references

def profile_reference(xi, n_modes: int, denominator: int | None = None) -> np.ndarray:
    """F(xi) by plain summation over n = 2..n_modes, one point at a time.

    With ``denominator`` K, ``xi`` holds integer numerators j of the points
    j/K and the phases are reduced exactly as (n^2 j mod K) / K.
    """
    n = np.arange(2, n_modes + 1, dtype=np.int64)
    nsq = (n * n).astype(float)
    weights = nsq / (1.0 - nsq) ** 2
    if denominator is None:
        turns = [nsq * x for x in np.atleast_1d(np.asarray(xi, dtype=float))]
    else:
        turns = [((n * n) * int(j) % denominator) / denominator for j in xi]
    return np.array([math.fsum(weights * (1.0 - np.cos(2.0 * math.pi * turn)))
                     for turn in turns])


def aligned_escape_reference(delta: float, t, n_modes: int) -> np.ndarray:
    """1 - |1 + sum_{n>=2} a_n^2 (e^{-i E_n t} - 1)|^2 from the closed-form a_n."""
    width = 1.0 + delta
    n = np.arange(2, n_modes + 1, dtype=float)
    u = n / width
    a = (2.0 / (math.pi * math.sqrt(width))) * np.sin(math.pi * u) / (1.0 - u * u)
    energies = (math.pi * u) ** 2
    out = []
    for time in np.atleast_1d(np.asarray(t, dtype=float)):
        z = 1.0 + np.sum(a * a * (np.exp(-1j * energies * time) - 1.0))
        out.append(1.0 - abs(z) ** 2)
    return np.array(out)


def phase_sum_reference(epsilon: float) -> np.ndarray:
    """xi_m = sum_n sin(2 pi n^2 m eps) for m = 1..floor(1/eps), by plain loop."""
    cutoff = int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))
    n = np.arange(2, cutoff + 1, dtype=float)
    count = int(math.floor(1.0 / epsilon))
    block = max(1, _REFERENCE_BLOCK // n.size)
    values = np.empty(count)
    for start in range(0, count, block):
        m = np.arange(start + 1, min(start + block, count) + 1, dtype=float)
        values[start:start + m.size] = np.sin(
            2.0 * math.pi * np.outer(m * epsilon, n * n)).sum(axis=1)
    return values


# ------------------------------------------------------------------- parsing

def parse_table(text: str, rows=None):
    """Header dict, column names and float rows of a '#'-header CSV.

    ``rows`` selects data rows by index (all when None), so a large file can
    be checked on a subsample without converting every line.
    """
    header, columns, data = {}, [], []
    for line in text.splitlines():
        if line.startswith("# columns:"):
            columns = line.split(":", 1)[1].strip().split(",")
        elif line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        else:
            data.append(line)
    chosen = data if rows is None else [data[i] for i in rows]
    values = np.array([[float(v) for v in line.split(",")] for line in chosen])
    return header, columns, values, len(data)


def _finite(array) -> bool:
    return bool(np.all(np.isfinite(np.asarray(array, dtype=float))))


def _close(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol


# --------------------------------------------------------------- job kinds

@dataclasses.dataclass(frozen=True)
class Kind:
    """``argv(params, workdir)`` -> (argv, output files) for CLI kinds;
    ``call(params)`` -> value for library kinds; ``check(params, result, rng)``
    -> list of failure messages, where ``result`` is the dict of output texts
    (CLI) or the returned value (library)."""

    check: object
    argv: object = None
    call: object = None


def _escape_argv(p, workdir):
    out = workdir / "escape.csv"
    return (["escape", "--delta", repr(p["delta"]), "--t-min", repr(p["t_min"]),
             "--t-max", repr(p["t_max"]), "--points", str(p["points"]),
             "--tol", "1e-12", "--out", str(out)], [out])


def _check_escape(p, texts, rng):
    _, columns, rows, count = parse_table(texts["escape.csv"])
    if count != p["points"] or not _finite(rows):
        return [f"escape table has {count} rows or non-finite values"]
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    fails = []
    if col["exact"].min() < 0.0 or col["exact"].max() > 1.0:
        fails.append("exact escape outside [0, 1]")
    # the continuum form is the short-time limit; the suite pins it within
    # 1% over t <= 1e-3, 2% covers the wider delta range drawn here
    short = [i for i in range(count) if col["t"][i] <= 1e-3]
    for i in rng.sample(short, min(3, len(short))):
        ratio = col["integral"][i] / col["exact"][i]
        if not abs(ratio - 1.0) < 0.02:
            fails.append(f"continuum/exact escape {ratio:.6f} at t={col['t'][i]:.3e}")
    return fails


def _regime_call(p):
    return survival.regime_report(p["delta"], tuple(p["early"]), tuple(p["late"]))


def _check_regime(p, report, rng):
    delta = p["delta"]
    early = report.prefactor_early / survival.FREE_LAW_COEFFICIENT
    late = report.prefactor_late / (survival.CONFINED_LAW_COEFFICIENT * delta * delta)
    fails = []
    if not _close(report.fitted_slope_early, 1.5, 0.02):
        fails.append(f"early slope {report.fitted_slope_early}")
    if not _close(early, 1.0, 0.01):
        fails.append(f"early prefactor / closed form {early}")
    # 30..300 crossover times out the O(delta/sqrt(t)) correction still
    # steepens the late slope by up to about 0.06
    if not _close(report.fitted_slope_late, 0.5, 0.1):
        fails.append(f"late slope {report.fitted_slope_late}")
    if not 0.9 < late < 1.05:
        fails.append(f"late prefactor / closed form {late}")
    return fails


def _universal_argv(p, workdir):
    out = workdir / "profile.csv"
    argv = ["universal", "--xi-min", repr(p["xi_min"]), "--xi-max", repr(p["xi_max"]),
            "--points", str(p["points"]), "--n", str(p["n_modes"]), "--out", str(out)]
    files = [out]
    if "p_max" in p:
        valleys = workdir / "valleys.csv"
        argv += ["--valleys-out", str(valleys), "--p-max", str(p["p_max"])]
        files.append(valleys)
    return argv, files


def _check_universal(p, texts, rng):
    _, _, rows, count = parse_table(texts["profile.csv"])
    xi, values = rows[:, 0], rows[:, 1]
    fails = []
    if count != p["points"] or not _finite(rows):
        return [f"profile has {count} rows or non-finite values"]
    if not np.array_equal(xi, np.linspace(p["xi_min"], p["xi_max"], p["points"])):
        fails.append("xi column differs from the requested grid")
    if values.min() < 0.0 or values.max() > universal.UPPER_BOUND:
        fails.append("profile outside [0, UPPER_BOUND]")
    picks = sorted(rng.sample(range(count), 4))
    direct = profile_reference(xi[picks], p["n_modes"])
    for i, ref in zip(picks, direct):
        if not _close(values[i], ref, 1e-9):
            fails.append(f"F({xi[i]!r}) = {values[i]!r}, direct sum {ref!r}")
    if p["xi_min"] == 0.0 and p["xi_max"] == 1.0:
        fft = universal.universal_curve(p["points"] - 1, p["n_modes"]).values
        for i in picks:
            if not _close(values[i], fft[i], 1e-9):
                fails.append(f"F({xi[i]!r}) = {values[i]!r}, residue FFT {fft[i]!r}")
    if "p_max" in p:
        _, _, valleys, found = parse_table(texts["valleys.csv"])
        fails += _check_valley_rows(valleys, found, p["p_max"], min(p["n_modes"], 10**5),
                                    None, rng)
    return fails


def _check_valley_rows(rows, count, p_max, n_modes, spacing, rng):
    """Rows of (q, p, location, depth): rational locations, direct-sum depths."""
    if count == 0 or not _finite(rows):
        return ["valley list empty or non-finite"]
    fails = []
    for q, p, location, _ in rows:
        if not 2 <= p <= p_max or location != float(Fraction(int(q), int(p) ** 2)):
            fails.append(f"valley {q:g}/{p:g}^2 at {location!r}")
    for i in rng.sample(range(count), min(3, count)):
        location, depth = rows[i, 2], rows[i, 3]
        probes = [location] if spacing is None else [location, location - spacing,
                                                     location + spacing]
        ref = profile_reference(probes, n_modes)
        if not _close(depth, ref[0], 1e-9):
            fails.append(f"valley depth {depth!r} at {location!r}, direct sum {ref[0]!r}")
        if spacing is not None and not (ref[0] < ref[1] and ref[0] < ref[2]):
            fails.append(f"valley at {location!r} is not a local minimum")
    return fails


def _valleys_call(p):
    return universal.valley_locations(p["p_max"], spacing=p["spacing"],
                                      n_modes=p["n_modes"])


def _check_valleys(p, valleys, rng):
    rows = np.array([[e.numerator, e.denominator_root, e.location, e.depth]
                     for e in valleys.entries])
    return _check_valley_rows(rows, len(valleys.entries), p["p_max"], p["n_modes"],
                              p["spacing"], rng)


def _scaled_call(p):
    xi = np.linspace(0.0, 1.0, p["intervals"] + 1)
    return universal.scaled_escape_limit(p["delta"], xi, p["n_modes"])


def _check_scaled(p, curve, rng):
    delta, values = p["delta"], curve.values
    if values.size != p["intervals"] + 1 or not _finite(values):
        return ["scaled escape has the wrong size or non-finite values"]
    fails = []
    picks = sorted(rng.sample(range(values.size), 4))
    period = 2.0 * (1.0 + delta) ** 2 / math.pi
    direct = aligned_escape_reference(delta, curve.xi_grid[picks] * period,
                                      p["n_modes"]) / (8.0 * delta * delta)
    for i, ref in zip(picks, direct):
        if not _close(values[i], ref, 1e-8):
            fails.append(f"scaled escape {values[i]!r} at xi={curve.xi_grid[i]!r}, "
                         f"plain sum {ref!r}")
    # the delta -> 0 limit is the profile; the measured gap is about 2.9 delta
    profile = universal.universal_curve(p["intervals"], p["n_modes"]).values
    gap = float(np.abs(values - profile[:values.size]).max())
    if not gap < 4.0 * delta:
        fails.append(f"scaled escape is {gap:.3e} from the FFT profile")
    return fails


def _lengths_argv(p, workdir):
    out = workdir / "lengths.csv"
    return (["fractal", "--base-intervals", str(p["base_intervals"]),
             "--out", str(out)], [out])


def _check_lengths(p, texts, rng):
    header, _, rows, count = parse_table(texts["lengths.csv"])
    if count != 18 or not _finite(rows):
        return [f"length table has {count} rows or non-finite values"]
    fails = []
    if not 1.2 < float(header["dimension"]) < 1.3:
        fails.append(f"dimension {header['dimension']}")
    # recompute the coarsest ruler from direct sums on its own grid points
    base, stride = p["base_intervals"], 1000
    steps = base // stride
    values = profile_reference(np.arange(steps + 2) * stride, int(header["n_modes"]),
                               denominator=base)
    diffs = values[2:] - values[:-2]
    eps = stride / base
    chord = float(np.sum(np.sqrt(eps * eps + diffs * diffs)) / 4.0)
    variation = float(0.5 * np.sum(np.abs(diffs)))
    coarse = rows[np.argmax(rows[:, 0])]
    if not (_close(coarse[1], chord, 1e-8 * chord)
            and _close(coarse[2], variation, 1e-8 * variation)):
        fails.append(f"lengths {coarse[1:]!r} at eps={eps!r}, direct sums "
                     f"{chord!r} {variation!r}")
    return fails


def _sigma_argv(p, workdir):
    out = workdir / "sigma.csv"
    return ["fractal", "--sigma", "--out", str(out)], [out]


def _check_sigma(p, texts, rng):
    header, _, rows, count = parse_table(texts["sigma.csv"])
    if count != 4 or not _finite(rows):
        return [f"sigma table has {count} rows or non-finite values"]
    fails = []
    if not -0.35 < float(header["sigma_slope"]) < -0.15:
        fails.append(f"sigma slope {header['sigma_slope']}")
    for eps, sigma in rows:
        if eps >= 1e-4:  # the plain loop is cheap at the two coarse rulers
            ref = float(phase_sum_reference(eps).std())
            if not _close(sigma, ref, 1e-9 * ref):
                fails.append(f"sigma {sigma!r} at eps={eps!r}, plain loop {ref!r}")
    return fails


def _histogram_argv(p, workdir):
    out = workdir / "histogram.csv"
    return (["fractal", "--histogram", "--epsilon", repr(1.0 / p["inverse_epsilon"]),
             "--out", str(out)], [out])


def _check_histogram(p, texts, rng):
    header, _, rows, count = parse_table(texts["histogram.csv"])
    eps = 1.0 / p["inverse_epsilon"]
    ref = phase_sum_reference(eps)
    fails = []
    if count != 61 or not _finite(rows) or int(rows[:, 2].sum()) != ref.size:
        fails.append(f"histogram has {count} bins or counts that miss {ref.size} samples")
    if int(header["count"]) != ref.size:
        fails.append(f"count {header['count']}, expected {ref.size}")
    std = float(ref.std())
    if not (_close(float(header["mean"]), float(ref.mean()), 1e-9 * std)
            and _close(float(header["std"]), std, 1e-9 * std)):
        fails.append(f"moments {header['mean']} {header['std']}, plain loop "
                     f"{ref.mean()!r} {std!r}")
    return fails


def _evolve_argv(p, workdir):
    out = workdir / "density.csv"
    return (["evolve", "--delta", repr(p["delta"]), "--nx", str(p["nx"]),
             "--nt", str(p["nt"]), "--out", str(out)], [out])


def _check_evolve(p, texts, rng):
    picks = sorted(rng.sample(range(p["nt"]), 2))
    header, columns, rows, count = parse_table(texts["density.csv"], picks)
    if count != p["nt"] or len(columns) != p["nx"] + 1 or not _finite(rows):
        return [f"density table is {count} x {len(columns)} or non-finite"]
    well = spectral.WellConfig(p["delta"])
    coeffs = spectral.mode_coefficients(well, int(header["n_modes"]))
    x = np.linspace(0.0, well.width, p["nx"])
    fails = []
    for row in rows:
        ref = np.abs(spectral.wavefunction(well, coeffs, x, row[0])) ** 2
        gap = float(np.abs(row[1:] - ref).max())
        if not gap < 1e-9:
            fails.append(f"density at t={row[0]!r} is {gap:.3e} from the wavefunction")
    return fails


def _oracle_argv(p, workdir):
    return ["oracle-check", "--json"], []


def _check_oracle(p, texts, rng):
    payload = json.loads(texts["stdout"])
    checks = payload.get("checks", [])
    if payload.get("ok") is not True or len(checks) != 6:
        return [f"oracle-check reported {payload}"]
    return [f"oracle check {c['name']} = {c['value']}" for c in checks
            if not (c["ok"] and math.isfinite(c["value"]))]


def _propagator_call(p):
    """Crank-Nicolson to t, then the spectral and overlap cross-checks."""
    well = spectral.WellConfig(p["delta"])
    start = oracle.initial_state(well, p["n_points"])
    t = p["t"]
    steps = int(math.ceil(t / (8.0 * start.dx**2)))
    moved = oracle.propagate(start, t / steps, steps)
    coeffs = spectral.mode_coefficients(well, 2000)
    reference = spectral.wavefunction(well, coeffs, moved.x_grid, t)
    l2 = math.sqrt(moved.dx * float(np.sum(np.abs(moved.amplitudes - reference) ** 2)))
    amplitude = survival.survival_amplitude(well, t, 2000)
    quadrature = oracle.overlap(start, oracle.from_samples(moved.x_grid, reference, t))
    return {"l2": l2, "norm_drift": abs(moved.norm - start.norm),
            "amplitude": amplitude, "overlap": quadrature,
            "survival_gap": abs(amplitude - quadrature)}


def _check_propagator(p, result, rng):
    limits = {"l2": 2e-3, "norm_drift": 1e-10, "survival_gap": 1e-6}
    return [f"propagator {name} = {result[name]!r} (limit {limit:g})"
            for name, limit in limits.items()
            if not (math.isfinite(result[name]) and result[name] < limit)]


KINDS = {
    "cli_escape": Kind(argv=_escape_argv, check=_check_escape),
    "regime_report": Kind(call=_regime_call, check=_check_regime),
    "cli_universal": Kind(argv=_universal_argv, check=_check_universal),
    "scaled_escape_limit": Kind(call=_scaled_call, check=_check_scaled),
    "valley_locations": Kind(call=_valleys_call, check=_check_valleys),
    "cli_fractal_lengths": Kind(argv=_lengths_argv, check=_check_lengths),
    "cli_fractal_sigma": Kind(argv=_sigma_argv, check=_check_sigma),
    "cli_fractal_histogram": Kind(argv=_histogram_argv, check=_check_histogram),
    "cli_evolve": Kind(argv=_evolve_argv, check=_check_evolve),
    "cli_oracle_check": Kind(argv=_oracle_argv, check=_check_oracle),
    "propagator": Kind(call=_propagator_call, check=_check_propagator),
}


# --------------------------------------------------------------- interface

def run(job, workdir: Path):
    """Run one job (the timed part).  Returns the library value, or None."""
    kind = KINDS[job.kind]
    if kind.call is not None:
        return kind.call(job.params)
    argv, _ = kind.argv(job.params, workdir)
    code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"{argv[0]} exited with code {code}")
    return None


def output(job, workdir: Path, value, stdout: str):
    """The job's result for checking, the bytes that identify it, and the
    number of bytes the CLI wrote.

    CLI jobs yield ``{file name: text, "stdout": text}``; library jobs yield
    their return value, encoded exactly (arrays by their raw bytes).
    """
    kind = KINDS[job.kind]
    if kind.call is not None:
        return value, _encode(value), 0
    _, files = kind.argv(job.params, workdir)
    texts = {path.name: path.read_text() for path in files}
    texts["stdout"] = stdout
    written = sum(len(text.encode()) for text in texts.values())
    return texts, json.dumps(texts, sort_keys=True).encode(), written


def check(job, result, rng: random.Random) -> list[str]:
    """Failure messages for one job's result; empty when it passes.

    ``rng`` picks the subsample that is compared with the reference route.
    """
    return KINDS[job.kind].check(job.params, result, rng)


def _encode(value) -> bytes:
    if dataclasses.is_dataclass(value):
        return b"|".join(_encode(getattr(value, f.name))
                         for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return str(value.dtype).encode() + str(value.shape).encode() + value.tobytes()
    if isinstance(value, dict):
        return b"|".join(k.encode() + b"=" + _encode(v) for k, v in sorted(value.items()))
    if isinstance(value, (tuple, list)):
        return b"[" + b",".join(_encode(v) for v in value) + b"]"
    return repr(value).encode()
