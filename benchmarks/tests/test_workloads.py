import json
import math

import numpy as np
import pytest

from benchmarks import jobs
from benchmarks.tracing import on_uniform_grid
from benchmarks.workloads import WORKLOADS, job_list_digest, make_jobs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_job_list(workload):
    first, again = make_jobs(workload, 3), make_jobs(workload, 3)
    assert first == again
    assert job_list_digest(first) == job_list_digest(again)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_gives_another_job_list(workload):
    assert job_list_digest(make_jobs(workload, 3)) != job_list_digest(make_jobs(workload, 4))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_jobs_are_known_kinds_with_json_inputs(workload):
    for job in make_jobs(workload, 1):
        assert job.kind in jobs.KINDS
        assert json.loads(json.dumps(job.params)) == job.params


def test_unknown_workload_is_rejected():
    with pytest.raises(KeyError):
        make_jobs("no_such_workload", 1)


@pytest.mark.parametrize("seed", range(1, 21))
def test_grid_property_holds_on_one_workload_and_not_the_other(seed):
    for job in make_jobs("period_grid", seed):
        if job.kind == "cli_universal":
            p = job.params
            assert on_uniform_grid(np.linspace(p["xi_min"], p["xi_max"], p["points"]))
        if job.kind == "cli_fractal_histogram":
            assert job.params["inverse_epsilon"] == int(job.params["inverse_epsilon"])
    for job in make_jobs("offgrid_zoom", seed):
        if job.kind == "cli_universal":
            p = job.params
            assert not on_uniform_grid(np.linspace(p["xi_min"], p["xi_max"], p["points"]))
        if job.kind == "cli_fractal_histogram":
            fraction = job.params["inverse_epsilon"] % 1.0
            assert 0.25 <= fraction <= 0.75


def test_propagator_work_does_not_move_with_the_seed():
    # points x steps at dt = 8 dx^2, dx = (1 + delta) / (points - 1)
    work = []
    for seed in range(1, 21):
        p = make_jobs("grid_dynamics", seed)[-1].params
        dx = (1.0 + p["delta"]) / (p["n_points"] - 1)
        work.append((p["n_points"] - 2) * math.ceil(p["t"] / (8.0 * dx * dx)))
        assert p["t"] <= 0.01
    assert max(work) / min(work) < 1.001
