"""The benchmark's calls into the package still bind, run and pass.

``benchmarks/`` calls the package by name, by position and by keyword, and
its tracer counts work from the arguments it binds.  A counter that can no
longer bind them records nothing and raises nothing, and a changed signature
fails only the benchmark run.  So one job of each kind runs here through
``jobs.run``, ``jobs.output`` and ``jobs.check`` with the tracer installed.
"""

import contextlib
import io
import random

from benchmarks import jobs, tracing, workloads


def first_job_of_each_kind(seed=1):
    kinds = {}
    for workload in sorted(workloads.WORKLOADS):
        for job in workloads.make_jobs(workload, seed):
            kinds.setdefault(job.kind, job)
    return kinds


def test_one_job_of_each_kind_passes_and_is_counted(tmp_path):
    kinds = first_job_of_each_kind()
    assert sorted(kinds) == sorted(jobs.KINDS)
    tracer = tracing.Tracer()
    tracer.install()
    failures = {}
    try:
        for kind, job in kinds.items():
            tracer.job = kind
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                value = jobs.run(job, tmp_path)
            result, _, _ = jobs.output(job, tmp_path, value, stdout.getvalue())
            failures[kind] = jobs.check(job, result, random.Random(kind))
    finally:
        tracer.uninstall()
    assert {kind: messages for kind, messages in failures.items() if messages} == {}
    counted = [span for span in tracer.spans if span.name in tracing.COUNTERS]
    assert {span.name for span in counted} == set(tracing.COUNTERS)
    assert [span.name for span in counted if not span.counts] == []
