"""Seeded job lists, one per workload.

A job is a JSON-serialisable ``(kind, params)`` pair; ``jobs.py`` knows how to
run and check each kind.  Only the standard library's ``random`` is used, so a
seed gives the same jobs on every platform and numpy version.

Continuous inputs are drawn one per stratum (``_strata``) and sizes are tied
together (points x modes held near a constant), so the work in a job list, and
hence the run time, moves little from seed to seed while every input value
still changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-uniform draws, one in each of ``count`` equal log-strata."""
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * (i + rng.random()) / count)
            for i in range(count)]


def escape_sweep(rng: random.Random) -> list[Job]:
    # Windows sit at fixed multiples of the crossover time 3 delta^2, so the
    # quadrature's oscillation rate delta/sqrt(t) spans the same range for
    # every delta and a job's cost does not move with the seed; randomly
    # placed windows made the per-seed cost of the job list vary by up to 30%.
    jobs = []
    for delta in _strata(rng, 1e-3, 1e-2, 4):
        crossover = 3.0 * delta * delta
        jobs.append(Job("cli_escape", {
            "delta": delta,
            "t_min": crossover * 10.0 ** -1.75,
            "t_max": crossover * 10.0 ** 1.75,
            "points": 20,
        }))
    # below delta = 2e-3 the early window reaches escape values the mode sum
    # cannot resolve, so the fits draw from [2e-3, 1e-2]
    for delta in _strata(rng, 2e-3, 1e-2, 2):
        crossover = 3.0 * delta * delta
        jobs.append(Job("regime_report", {
            "delta": delta,
            "early": [crossover / 1e3, crossover / 1e2],
            "late": [crossover * 30.0, crossover * 300.0],
        }))
    return jobs


def period_grid(rng: random.Random) -> list[Job]:
    # Every input sits on a uniform j/K grid over one period.  The dense sums
    # come as four jobs and the phase sums as three, so the median job is a
    # dense sum: a 70 ms phase-sum job in the middle read 13-16% apart
    # between runs.
    jobs = [Job("cli_universal", {"xi_min": 0.0, "xi_max": 1.0, "points": points,
                                  "n_modes": round(1.1e7 / points)})
            for points in (rng.randrange(150, 201) for _ in range(2))]
    jobs += [Job("scaled_escape_limit", {"delta": _log_uniform(rng, 1e-3, 3e-3),
                                         "intervals": intervals,
                                         "n_modes": round(5e6 / (intervals + 1))})
             for intervals in (rng.randrange(128, 193) for _ in range(2))]
    return jobs + [
        Job("cli_fractal_lengths", {"base_intervals": rng.randrange(60000, 100001)}),
        Job("cli_fractal_sigma", {}),
        Job("cli_fractal_histogram", {"inverse_epsilon": float(rng.randrange(20000, 50001))}),
    ]


def _non_integer(rng: random.Random, around: float) -> float:
    """A value within 1% of ``around`` whose fractional part is in [0.25, 0.75]."""
    whole = math.floor(around * rng.uniform(0.99, 1.01))
    return whole + rng.uniform(0.25, 0.75)


def offgrid_zoom(rng: random.Random) -> list[Job]:
    # Zoom windows have random widths, so no evaluated xi lies on a j/K grid;
    # 1/eps is never an integer, so phase sums take the direct route.
    p = rng.randrange(2, 7)
    center = rng.randrange(1, p * p) / (p * p)
    half_width = _log_uniform(rng, 10**-3.5, 10**-2.5)
    points = rng.randrange(220, 291)
    return [
        Job("cli_universal", {"xi_min": center - half_width,
                              "xi_max": center + half_width,
                              "points": points,
                              "n_modes": round(2.5e7 / points),
                              "p_max": 4}),
        Job("valley_locations", {"p_max": 5,
                                 "spacing": _log_uniform(rng, 10**-4.5, 10**-3.5),
                                 "n_modes": 50000}),
    ] + [Job("cli_fractal_histogram", {"inverse_epsilon": _non_integer(rng, size)})
         for size in (2e4, 4e4, 8e4)]


def grid_dynamics(rng: random.Random) -> list[Job]:
    nx = rng.randrange(384, 641)
    # The propagator steps at dt = 8 dx^2 with dx = (1 + delta) / (points - 1),
    # so its cost, points x steps, goes as points^3 t / (1 + delta)^2.  t is
    # scaled to hold that constant; it stays below 0.0095.
    n_points = rng.randrange(3000, 4098)
    delta = rng.uniform(0.1, 0.3)
    return [
        Job("cli_evolve", {"delta": _log_uniform(rng, 0.05, 0.5), "nx": nx,
                           "nt": round(2**18 / nx)}),
        Job("cli_oracle_check", {}),
        Job("propagator", {"delta": delta, "n_points": n_points,
                           "t": 0.0037 * (4097.0 / n_points) ** 3
                           * ((1.0 + delta) / 1.3) ** 2}),
    ]


WORKLOADS = {
    "escape_sweep": escape_sweep,
    "period_grid": period_grid,
    "offgrid_zoom": offgrid_zoom,
    "grid_dynamics": grid_dynamics,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; raises KeyError if unknown."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def job_list_digest(jobs: list[Job]) -> str:
    text = json.dumps([[job.kind, job.params] for job in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
