"""Run one seeded workload of the wellquench benchmark and print its metrics.

    python3 benchmarks/run.py --workload escape_sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
exits with code 2 when that is missing.  It writes only under ``.bench_out/``.

One run is one fresh process:

1. ``setup_s``: the time a fresh interpreter takes to import ``wellquench``
   and ``wellquench.cli``, the cost every CLI call pays (skipped in traced
   runs).  Each child times its own import.  On a shared host the speed of
   an import swings by tens of percent over minutes, so each sample is
   paired with a fresh interpreter that imports a fixed set of the same
   third-party modules (``SETUP_REFERENCE``), run right next to it.  ``setup_s`` is the median
   ratio of the pairs times ``SETUP_REFERENCE_S``, the reference import's
   typical time on the tuning machine.  Work added to or removed from the
   package's import moves the ratio; the host's speed moves both sides.
2. Passes over the seeded job list (``workloads.py``) until ``--seconds`` is
   used up, at least three.  Only the job calls are timed.  ``wall_s`` and
   ``cpu_s`` are the median per-pass sums of job wall and process CPU time,
   ``job_p50_s`` the median job latency over all passes, ``peak_rss_mb`` the
   peak resident set of this process.

   Job times are reported at a reference machine speed.  On a shared host
   the speed of the same work drifts by 10-20% over tens of seconds, which
   is longer than a run.  ``Calibration`` times a fixed kernel of the
   benchmark's own between jobs; a job's time is multiplied by
   ``CALIBRATION_REFERENCE_S`` over the mean of the calibrations right
   before and after it.  The one after waits ``SETTLE_S`` first, so that
   what the job leaves running (spinning BLAS threads) has stopped.  On the
   tuning machine the calibration after the wait and one without it agree
   to 3% in the median for every job kind.  A window of calibrations taken
   only before the job follows the host's speed too slowly: in a test on one
   seed it made the spread of ``period_grid`` several times wider.  The raw medians and the speed factors are in
   the details line.
3. Checks, outside the timed region: each job's first output is compared
   with an independent route (``jobs.py``), and every later pass must
   reproduce its digest.  A job execution fails if it raises, exits non-zero,
   produces non-finite values, misses a tolerance or changes its digest.
   The output digest of each (package source, workload, seed, job list) is
   kept in ``.bench_out/digests.json`` and must match across runs.

With ``--trace 1`` the layer functions are wrapped (``tracing.py``) and the
per-layer metrics are the medians over passes; the spans are written to
``.bench_out/spans-<workload>-<seed>.json`` at the end.

Standard output: a details line (environment, digests, counts, failures),
then the result line ``{"correct", "attempted", "failed", "metrics"}``.
BLAS and OpenMP threads are capped at the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from benchmarks.workloads import WORKLOADS, job_list_digest, make_jobs  # noqa: E402

SETUP_PAIRS = 6
#: the third-party modules the package imported when the benchmark was written
SETUP_REFERENCE = "import numpy, scipy.special, scipy.sparse, scipy.sparse.linalg"
#: median in-child time of ``SETUP_REFERENCE`` on the 2-CPU x86-64 virtual
#: machine the benchmark was tuned on
SETUP_REFERENCE_S = 0.36
MIN_PASSES = 3
#: median of ``Calibration.measure()`` on the same machine; reported job
#: times are at that machine's typical speed
CALIBRATION_REFERENCE_S = 6.0e-3
SETTLE_S = 0.05
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass
class Execution:
    latency: float              # raw seconds
    cpu: float
    scale: float = 1.0          # reference speed over the speed around the job
    digest: str | None = None   # None when the job raised
    error: str | None = None
    bytes_out: int = 0


def cap_threads() -> int:
    """Cap the BLAS/OpenMP pools at the usable CPUs before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


class Calibration:
    """A fixed kernel of the benchmark's own, timed to follow the host's speed.

    Five parts of about a millisecond each: cosines of small arguments,
    cosines of huge arguments (libm's slow range reduction, like the mode
    sums), an in-place multiply and sum streaming through 4 MB, small numpy
    calls and an interpreter loop.  When the host's speed drifts, each job
    kind follows a different part, so the sum is used for all of them.  The
    arrays (under 5 MB) are allocated once, so they add a constant to the
    peak resident set instead of setting it between jobs.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.linspace(0.0, 1234.5, 2**15)
        self._huge = np.linspace(0.0, 6.1e10, 2**14)
        self._big = np.ones(2**19)

    def _cosines(self):
        for _ in range(5):
            self._np.cos(self._small).sum()

    def _slow_cosines(self):
        self._np.cos(self._huge).sum()

    def _stream(self):
        self._np.multiply(self._big, 1.0, out=self._big).sum()

    def _calls(self):
        for _ in range(140):
            self._np.linspace(0.0, 1.0, 9).sum()

    @staticmethod
    def _loop():
        total = 0
        for i in range(16000):
            total += i * i

    def measure(self) -> float:
        """Sum over the parts of each part's best-of-three time."""
        spent = 0.0
        for part in (self._cosines, self._slow_cosines, self._stream, self._calls,
                     self._loop):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            spent += best
        return spent


def import_time(statement: str) -> float:
    """Seconds a fresh interpreter spends on ``statement``, timed inside it."""
    code = ("import time\nstart = time.perf_counter()\n" + statement
            + "\nprint(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    return float(done.stdout)


def measure_setup() -> list[tuple[float, float]]:
    """(package import, reference import) pairs, alternating which runs first."""
    samples = []
    for pair in range(SETUP_PAIRS):
        order = ("package", "reference") if pair % 2 == 0 else ("reference", "package")
        seconds = {side: import_time("import wellquench, wellquench.cli"
                                     if side == "package" else SETUP_REFERENCE)
                   for side in order}
        samples.append((seconds["package"], seconds["reference"]))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wellquench").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit; None outside a git clone or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": threads,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "source_digest": source_digest()}


def run_passes(job_list, seconds, workdir, tracer):
    """Repeat the job list until ``seconds`` would be exceeded (>= MIN_PASSES).

    Returns the executions per pass, the spans per pass and the first pass's
    results for checking.
    """
    from benchmarks import jobs

    passes, spans, first = [], [], {}
    calibration = Calibration()
    started = time.perf_counter()
    before = calibration.measure()
    while True:
        executions = []
        if tracer is not None:
            tracer.spans = []
            spans.append(tracer.spans)
        for index, job in enumerate(job_list):
            if tracer is not None:
                tracer.job = f"{len(passes)}:{index}"
            stdout = io.StringIO()
            value, error = None, None
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(stdout):
                    value = jobs.run(job, workdir)
            except (Exception, SystemExit) as exc:  # a failed job, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            time.sleep(SETTLE_S)
            after = calibration.measure()
            execution = Execution(wall, cpu, 2.0 * CALIBRATION_REFERENCE_S / (before + after),
                                  error=error)
            before = after
            if error is None:
                result, blob, execution.bytes_out = jobs.output(job, workdir, value,
                                                                stdout.getvalue())
                execution.digest = hashlib.sha256(blob).hexdigest()
                if not passes:
                    first[index] = result
            executions.append(execution)
        passes.append(executions)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes, spans, first


def check_outputs(job_list, passes, first, workload, seed):
    """Failure messages per job index; covers checks and digest changes."""
    from benchmarks import jobs

    failures = {}
    for index, job in enumerate(job_list):
        head = passes[0][index]
        if head.error is not None:
            failures[index] = [head.error]
            continue
        rng = random.Random(f"check:{workload}:{seed}:{index}")
        try:
            messages = jobs.check(job, first[index], rng)
        except Exception as exc:  # a malformed output is a failed check
            messages = [f"check raised {type(exc).__name__}: {exc}"]
        for later in passes[1:]:
            if later[index].digest != head.digest:
                messages.append(later[index].error or "output changed between passes")
                break
        if messages:
            failures[index] = messages
    return failures


def compare_digest(source: str, workload: str, seed: int, job_digest: str,
                   digest: str) -> str | None:
    """Record the run's output digest; return a message if an earlier run of
    the same source and job list differs."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}/{seed}/{job_digest[:16]}"
    previous = known.setdefault(source, {}).setdefault(key, digest)
    if previous != digest:
        return f"output digest {digest[:12]} differs from an earlier run's {previous[:12]}"
    scratch = store.with_suffix(".tmp")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    scratch.replace(store)
    return None


def _median(values) -> float:
    return float(statistics.median(values))


def times(passes, scaled=True) -> dict:
    """Median pass wall and CPU time and median job latency."""
    def at(e, value):
        return value * e.scale if scaled else value

    return {
        "wall_s": _median([sum(at(e, e.latency) for e in ex) for ex in passes]),
        "job_p50_s": _median([at(e, e.latency) for ex in passes for e in ex]),
        "cpu_s": _median([sum(at(e, e.cpu) for e in ex) for ex in passes]),
    }


def end_to_end(passes, setup) -> dict:
    metrics = {"setup_s": (SETUP_REFERENCE_S * _median([a / b for a, b in setup]), "s")}
    metrics.update((name, (value, "s")) for name, value in times(passes).items())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    return metrics


def per_layer(passes, spans) -> dict:
    from benchmarks import tracing

    rows = []
    for p, pass_spans in enumerate(spans):
        scale = {f"{p}:{i}": e.scale for i, e in enumerate(passes[p])}
        rows.append(tracing.layer_metrics(pass_spans, scale))
    out = {}
    for key in rows[0]:
        unit = "s" if key.endswith("_s") else ("ratio" if key.endswith("_share")
                                               else "count")
        out[key] = (_median([row[key] for row in rows]), unit)
    out["cli.bytes_out"] = (_median([sum(e.bytes_out for e in ex) for ex in passes]),
                            "bytes")
    out["trace.wall_s"] = (times(passes)["wall_s"], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wellquench" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'wellquench'}; run from a "
              "wellquench checkout", file=sys.stderr)
        return 2

    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    job_list = make_jobs(args.workload, args.seed)
    setup = [] if args.trace else measure_setup()

    import wellquench

    if Path(wellquench.__file__).resolve().parent != (SRC / "wellquench").resolve():
        print(f"benchmark: imported {wellquench.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    from benchmarks import tracing

    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            passes, spans, first = run_passes(job_list, args.seconds, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        metrics = per_layer(passes, spans) if args.trace else end_to_end(passes, setup)
        failures = check_outputs(job_list, passes, first, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(threads)
    head = [e.digest or "" for e in passes[0]]
    output_digest = hashlib.sha256("".join(head).encode()).hexdigest()
    mismatch = compare_digest(env["source_digest"], args.workload, args.seed,
                              job_list_digest(job_list), output_digest)
    attempted = sum(len(ex) for ex in passes)
    failed = sum(1 for ex in passes for index, e in enumerate(ex)
                 if index in failures or e.error is not None or e.digest != head[index])
    if tracer is not None:
        records = [record for pass_spans in spans for record in tracing.span_records(pass_spans)]
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(records))

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "job_list_digest": job_list_digest(job_list), "jobs": len(job_list),
        "passes": len(passes), "error_rate": failed / attempted,
        "output_digest": output_digest, "job_digests": head,
        "raw": times(passes, scaled=False),
        "setup_samples": setup,
        "pass_wall_s": [sum(e.latency for e in ex) for ex in passes],
        "job_median_s": [_median([ex[i].latency for ex in passes])
                         for i in range(len(job_list))],
        "speed_factors": [[e.scale for e in ex] for ex in passes],
        "failures": {str(i): m for i, m in failures.items()},
        "digest_mismatch": mismatch,
    }
    for index, messages in failures.items():
        print(f"benchmark: job {index} ({job_list[index].kind}) failed: "
              + "; ".join(messages), file=sys.stderr)
    if mismatch:
        print(f"benchmark: {mismatch}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and mismatch is None,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
