"""Golden header blocks of every table-writing subcommand.

Each case runs one tiny invocation in CSV and in JSON lines and compares the
full header block (key order and formatted values) and the column list with
text recorded from an earlier release of the CLI.  For CSV the block is every
'#' line; for JSON lines it is the meta line plus the sorted keys of the first
row.  A change here changes the bytes of every output file.  The fractal and
fractal-histogram blocks are as written since the origin-0 lattice takes a
real-input FFT and the moments are products.
"""

import json

import pytest

from wellquench.cli import main

VALLEYS = "{valleys}"

CASES = {
    "coeffs": ["coeffs", "--delta", "0.2", "--tol", "1e-4"],
    "evolve": ["evolve", "--delta", "0.2", "--n", "40", "--nx", "5", "--nt", "3"],
    "escape": ["escape", "--delta", "0.003", "--n", "300", "--t-min", "1e-6",
               "--t-max", "1e-4", "--points", "4"],
    "universal": ["universal", "--n", "500", "--points", "9", "--p-max", "3",
                  "--valleys-out", VALLEYS],
    "fractal": ["fractal", "--n", "3000", "--base-intervals", "4000"],
    "fractal-sigma": ["fractal", "--sigma"],
    "fractal-histogram": ["fractal", "--histogram", "--epsilon", "1e-3", "--bins", "11"],
}

GOLDEN = {
    "coeffs.csv": (
        "# artifact_version = 0.1.0\n"
        "# delta = 0.20000000000000001\n"
        "# width = 1.2\n"
        "# period = 0.91673247220931708\n"
        "# n_modes = 14\n"
        "# tolerance = 0.0001\n"
        "# completeness_deficit = 4.3719079697801533e-05\n"
        "# columns: n,a_n\n"
    ),
    "coeffs.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"completeness_deficit\": 4.371907969780153e-05, \"delta\": 0.2, \"n_modes\": 14, \"period\": 0.9167324722093171, \"tolerance\": 0.0001, \"width\": 1.2}}\n"
        "a_n,n\n"
    ),
    "evolve.csv": (
        "# artifact_version = 0.1.0\n"
        "# delta = 0.20000000000000001\n"
        "# width = 1.2\n"
        "# period = 0.91673247220931708\n"
        "# n_modes = 40\n"
        "# nx = 5\n"
        "# nt = 3\n"
        "# x_min = 0\n"
        "# x_max = 1.2\n"
        "# t_min = 0\n"
        "# t_max = 0.91673247220931708\n"
        "# columns: t,x0,x1,x2,x3,x4\n"
    ),
    "evolve.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"delta\": 0.2, \"n_modes\": 40, \"nt\": 3, \"nx\": 5, \"period\": 0.9167324722093171, \"t_max\": 0.9167324722093171, \"t_min\": 0.0, \"width\": 1.2, \"x_max\": 1.2, \"x_min\": 0.0}}\n"
        "t,x0,x1,x2,x3,x4\n"
    ),
    "escape.csv": (
        "# artifact_version = 0.1.0\n"
        "# delta = 0.0030000000000000001\n"
        "# width = 1.0029999999999999\n"
        "# period = 0.64044522057973796\n"
        "# n_modes = 300\n"
        "# crossover_time = 2.7000000000000002e-05\n"
        "# spacing = log\n"
        "# columns: t,exact,small_delta,integral,asymptote_free,asymptote_confined\n"
    ),
    "escape.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"crossover_time\": 2.7000000000000002e-05, \"delta\": 0.003, \"n_modes\": 300, \"period\": 0.640445220579738, \"spacing\": \"log\", \"width\": 1.003}}\n"
        "asymptote_confined,asymptote_free,exact,integral,small_delta,t\n"
    ),
    "universal.csv": (
        "# artifact_version = 0.1.0\n"
        "# n_modes = 500\n"
        "# xi_min = 0\n"
        "# xi_max = 1\n"
        "# points = 9\n"
        "# tail_bound = 0.0039960133014120755\n"
        "# columns: xi,F,tail_bound\n"
    ),
    "universal-valleys.csv": (
        "# artifact_version = 0.1.0\n"
        "# p_max = 3\n"
        "# n_modes = 500\n"
        "# columns: q,p,location,depth\n"
    ),
    "universal.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"n_modes\": 500, \"points\": 9, \"tail_bound\": 0.0039960133014120755, \"xi_max\": 1.0, \"xi_min\": 0.0}}\n"
        "F,tail_bound,xi\n"
    ),
    "universal-valleys.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"n_modes\": 500, \"p_max\": 3}}\n"
        "depth,location,p,q\n"
    ),
    "fractal.csv": (
        "# artifact_version = 0.1.0\n"
        "# n_modes = 3000\n"
        "# base_intervals = 4000\n"
        "# dimension = 1.3950154623227702\n"
        "# slope = -0.39501546232277018\n"
        "# residual = 0.4311911184445259\n"
        "# columns: epsilon,l_chord,l_variation\n"
    ),
    "fractal.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"base_intervals\": 4000, \"dimension\": 1.3950154623227702, \"n_modes\": 3000, \"residual\": 0.4311911184445259, \"slope\": -0.3950154623227702}}\n"
        "epsilon,l_chord,l_variation\n"
    ),
    "fractal-sigma.csv": (
        "# artifact_version = 0.1.0\n"
        "# sigma_slope = -0.25436322228167862\n"
        "# columns: epsilon,sigma\n"
    ),
    "fractal-sigma.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"sigma_slope\": -0.2543632222816786}}\n"
        "epsilon,sigma\n"
    ),
    "fractal-histogram.csv": (
        "# artifact_version = 0.1.0\n"
        "# epsilon = 0.001\n"
        "# cutoff = 22\n"
        "# count = 1000\n"
        "# mean = 2.8421709430404008e-17\n"
        "# std = 3.2403703492039302\n"
        "# skewness = 1.4210854715202004e-17\n"
        "# excess_kurtosis = -0.0034013605442178019\n"
        "# columns: bin_left,bin_right,count\n"
    ),
    "fractal-histogram.jsonl": (
        "{\"meta\": {\"artifact_version\": \"0.1.0\", \"count\": 1000, \"cutoff\": 22, \"epsilon\": 0.001, \"excess_kurtosis\": -0.003401360544217802, \"mean\": 2.842170943040401e-17, \"skewness\": 1.4210854715202004e-17, \"std\": 3.24037034920393}}\n"
        "bin_left,bin_right,count\n"
    ),
}


def header_block(text: str, fmt: str) -> str:
    lines = text.splitlines()
    if fmt == "csv":
        return "\n".join(line for line in lines if line.startswith("#")) + "\n"
    return lines[0] + "\n" + ",".join(sorted(json.loads(lines[1]))) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", list(CASES))
def test_header_block_and_columns(name, fmt, tmp_path):
    out, valleys = tmp_path / "out", tmp_path / "valleys"
    argv = [str(valleys) if a == VALLEYS else a for a in CASES[name]]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert header_block(out.read_text(), fmt) == GOLDEN[f"{name}.{fmt}"]
    if valleys.exists():
        assert header_block(valleys.read_text(), fmt) == GOLDEN[f"{name}-valleys.{fmt}"]
