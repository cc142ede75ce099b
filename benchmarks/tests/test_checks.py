import random

from benchmarks import jobs, run
from benchmarks.workloads import Job


def _run(job, workdir):
    value = jobs.run(job, workdir)
    result, _, _ = jobs.output(job, workdir, value, "")
    return result


def test_histogram_check_passes_and_flags_a_perturbed_moment(tmp_path):
    job = Job("cli_fractal_histogram", {"inverse_epsilon": 2000.5})
    texts = _run(job, tmp_path)
    assert jobs.check(job, texts, random.Random(0)) == []
    lines = texts["histogram.csv"].splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("# std = "))
    lines[i] = "# std = " + repr(float(lines[i].split("=")[1]) * (1 + 1e-6))
    texts["histogram.csv"] = "\n".join(lines) + "\n"
    assert jobs.check(job, texts, random.Random(0))


def test_scaled_limit_check_flags_a_perturbed_value(tmp_path):
    job = Job("scaled_escape_limit", {"delta": 2e-3, "intervals": 64, "n_modes": 2000})
    curve = _run(job, tmp_path)
    assert jobs.check(job, curve, random.Random(0)) == []
    values = curve.values.copy()
    values[17] += 0.1
    bad = type(curve)(xi_grid=curve.xi_grid, values=values,
                      truncation=curve.truncation, tail_bound=curve.tail_bound)
    assert jobs.check(job, bad, random.Random(0))


def test_non_finite_output_is_flagged(tmp_path):
    job = Job("cli_fractal_histogram", {"inverse_epsilon": 2000.5})
    texts = _run(job, tmp_path)
    lines = [("# mean = nan" if line.startswith("# mean = ") else line)
             for line in texts["histogram.csv"].splitlines()]
    texts["histogram.csv"] = "\n".join(lines) + "\n"
    assert jobs.check(job, texts, random.Random(0))


def test_raising_and_failing_jobs_count_as_failed(tmp_path):
    job_list = [
        Job("cli_fractal_histogram", {"inverse_epsilon": 2000.5}),
        # an inverted fit window: the library raises ValueError
        Job("regime_report", {"delta": 3e-3, "early": [1e-6, 1e-7], "late": [1e-3, 1e-2]}),
        # an inverted time window: the CLI exits with the usage code
        Job("cli_escape", {"delta": 3e-3, "t_min": 1e-3, "t_max": 1e-4, "points": 5}),
    ]
    passes, _, first = run.run_passes(job_list, 0.0, tmp_path, None)
    assert len(passes) == run.MIN_PASSES
    assert all(ex[0].error is None for ex in passes)
    assert len({ex[0].digest for ex in passes}) == 1
    assert "ValueError" in passes[0][1].error
    assert "JobFailed" in passes[0][2].error
    failures = run.check_outputs(job_list, passes, first, "test", 1)
    assert sorted(failures) == [1, 2]
