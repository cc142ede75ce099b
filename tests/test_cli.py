import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellquench
from wellquench import cli, spectral
from wellquench.cli import (COMMANDS, _build_parser, _render_table, main,
                            parse_args)
from wellquench.errors import QuadratureConvergenceError


def run_cli(args):
    return main(args)


def run_python(*args):
    """``python ARGS`` with the package these tests import on its path."""
    paths = [str(Path(wellquench.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=600, env=env)


def run_module(*args):
    """``python -m wellquench.cli ARGS`` on the package these tests import."""
    return run_python("-m", "wellquench.cli", *args)


def parse_csv(path):
    header, rows = {}, []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("# columns:"):
            columns = line.split(":", 1)[1].strip().split(",")
        elif line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


class TestCoeffs:
    def test_no_shift_is_identity(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["coeffs", "--delta", "0", "--n", "8",
                        "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["n", "a_n"]
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rows[1:, 1]).max() < 1e-12

    def test_quadrature_anchored_value(self, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["coeffs", "--delta", "0.2", "--n", "3", "--out", str(out)])
        _, _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(0.950975481489623, abs=1e-12)

    def test_tolerance_choice_echoed_in_header(self, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["coeffs", "--delta", "0.2", "--tol", "1e-6",
                 "--out", str(out)])
        header, _, rows = parse_csv(out)
        assert float(header["tolerance"]) == 1e-6
        assert int(header["n_modes"]) == rows.shape[0]
        assert float(header["completeness_deficit"]) < 1e-6


class TestEvolve:
    def test_density_file(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(["evolve", "--delta", "0.2", "--n", "400",
                        "--nx", "129", "--nt", "9", "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert float(header["period"]) == pytest.approx(0.9167, abs=1e-4)
        assert columns[0] == "t" and len(columns) == 130
        density = rows[:, 1:]
        assert density.min() >= -1e-12
        # the t = 0 maximum is exactly 2; fractional revivals overshoot a bit
        assert density[0].max() == pytest.approx(2.0, abs=1e-2)
        assert density.max() == pytest.approx(2.0, abs=0.15)
        # first row is the initial state: 2 sin^2(pi x) inside, 0 beyond
        x = np.linspace(0.0, 1.2, 129)
        expected = np.where(x <= 1.0, 2.0 * np.sin(np.pi * x) ** 2, 0.0)
        assert np.abs(rows[0, 1:] - expected).max() < 5e-3
        # the t = P row in a call of its own (in the file it is a copy of
        # the first row) revives the first row
        w = wellquench.WellConfig(0.2)
        revived = wellquench.density_field(
            w, wellquench.mode_coefficients(w, 400), x, [w.period])[0]
        assert np.abs(revived - rows[0, 1:]).max() < 1e-8


class TestEscape:
    def test_columns_and_zero_row(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run_cli(["escape", "--delta", "0.003", "--n", "4000",
                        "--t-min", "0", "--t-max", "1e-4", "--points", "5",
                        "--spacing", "linear", "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["t", "exact", "small_delta", "integral",
                           "asymptote_free", "asymptote_confined"]
        assert float(header["crossover_time"]) == pytest.approx(2.7e-5)
        assert np.abs(rows[0]).max() < 1e-9  # all-zero row at t = 0

    def test_asymptote_columns_cross_at_transition(self, tmp_path):
        out = tmp_path / "e.csv"
        run_cli(["escape", "--delta", "0.003", "--n", "2000",
                 "--t-min", "1e-6", "--t-max", "1e-3", "--points", "61",
                 "--out", str(out)])
        _, columns, rows = parse_csv(out)
        t = rows[:, 0]
        gap = rows[:, columns.index("asymptote_free")] - \
            rows[:, columns.index("asymptote_confined")]
        sign_change = np.where(np.diff(np.sign(gap)) != 0)[0]
        assert sign_change.size == 1
        crossing = math.sqrt(t[sign_change[0]] * t[sign_change[0] + 1])
        assert crossing == pytest.approx(2.7e-5, rel=0.1)

    def test_exact_and_integral_columns_agree(self, tmp_path):
        out = tmp_path / "e.csv"
        run_cli(["escape", "--delta", "0.003", "--tol", "1e-12",
                 "--t-min", "1e-7", "--t-max", "1e-3", "--points", "9",
                 "--out", str(out)])
        _, columns, rows = parse_csv(out)
        exact = rows[:, columns.index("exact")]
        integral = rows[:, columns.index("integral")]
        assert np.abs(integral / exact - 1.0).max() < 0.10

    def test_log_spacing_needs_positive_start(self, tmp_path):
        rc = run_cli(["escape", "--delta", "0.003", "--n", "100",
                      "--t-min", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestUniversal:
    def test_profile_file_and_valleys(self, tmp_path):
        out = tmp_path / "f.csv"
        valleys = tmp_path / "v.csv"
        assert run_cli(["universal", "--n", "20000", "--points", "33",
                        "--valleys-out", str(valleys), "--p-max", "3",
                        "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["xi", "F", "tail_bound"]
        assert rows[0][0] == 0.0 and abs(rows[0][1]) < 1e-12
        assert float(header["tail_bound"]) == pytest.approx(1e-4, rel=0.01)
        _, vcolumns, vrows = parse_csv(valleys)
        assert vcolumns == ["q", "p", "location", "depth"]
        locations = vrows[:, 2]
        assert np.any(np.abs(locations - 0.25) < 1e-12)
        assert np.any(np.abs(locations - 1.0 / 9.0) < 1e-12)

    def test_zoom_window(self, tmp_path):
        out = tmp_path / "z.csv"
        run_cli(["universal", "--n", "5000", "--xi-min", "0.24",
                 "--xi-max", "0.26", "--points", "11", "--out", str(out)])
        _, _, rows = parse_csv(out)
        assert rows[0][0] == pytest.approx(0.24)
        assert rows[-1][0] == pytest.approx(0.26)
        assert rows.shape[0] == 11

    def test_subnormal_step_is_summed_directly(self, tmp_path, capsys):
        # 1 / the subnormal first step used to overflow in the lattice test,
        # exit 2 with an out-of-range usage error although F is 0 there
        out = tmp_path / "s.csv"
        assert run_cli(["universal", "--xi-min", "0", "--xi-max", "4.45e-313",
                        "--points", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = parse_csv(out)
        assert rows.shape == (3, 3) and np.all(rows[:, 1] == 0.0)


class TestFractal:
    def test_lengths_and_dimension_header(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run_cli(["fractal", "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["epsilon", "l_chord", "l_variation"]
        assert abs(float(header["dimension"]) - 1.25) < 0.05
        assert rows[:, 0].min() == pytest.approx(1e-5)
        assert rows[:, 0].max() == pytest.approx(1e-2)

    def test_histogram(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["fractal", "--histogram", "--epsilon", "1e-3",
                        "--bins", "21", "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["bin_left", "bin_right", "count"]
        assert rows[:, 2].sum() == 1000  # histogram area equals sample count
        assert "std" in header and "excess_kurtosis" in header

    def test_sigma_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["fractal", "--sigma", "--out", str(out)]) == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["epsilon", "sigma"]
        assert abs(float(header["sigma_slope"]) + 0.25) < 0.07

    @pytest.mark.parametrize("flag, digest", [
        ("--sigma", "06703cb56a292df77ba0cc01efb67989cc2cecfbcac037f130b6bda39d610011"),
        ("--histogram", "9a51fd73b2cca373ae56c6746b9094eb46082080efefe2e1bcbb18d4c8e8e90c"),
    ])
    def test_phase_sum_files_unchanged(self, flag, digest, tmp_path):
        # SHA-256 of the default files as written before the phase sums
        # moved onto the shared residue engine; the histogram's as written
        # since the origin-0 lattice takes a real-input FFT and the moments
        # are products; it was
        # 0d2eea3fe0854f36baaf8081f5117c8140a89e620bc370ca6cc0ef1c4505a50a,
        # and only the mean (6.4e-17 -> 9.1e-18), the skewness (-3.6e-17 ->
        # 0) and the excess kurtosis (by 9e-16) moved
        out = tmp_path / "p.csv"
        assert run_cli(["fractal", flag, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_profile_and_length_files_unchanged(self, tmp_path):
        # SHA-256 of the default universal file, its valleys file and the
        # default fractal lengths file as written since the origin-0 lattice
        # takes a real-input FFT; the valleys file kept its bytes, the
        # profile moved by at most 4.4e-16 and the lengths by at most 1.4e-14
        # (they were, in order,
        # 2d885f11b7c3796393736ef981827fca1b886b38b37e2b46e0dbe2bde366e394 and
        # 1352cb646611ce686edceacb8ff49b6734e35cfae3e634820b013592a66e41db)
        files = {name: tmp_path / f"{name}.csv" for name in ("u", "v", "l")}
        assert run_cli(["universal", "--out", str(files["u"]),
                        "--valleys-out", str(files["v"])]) == 0
        assert run_cli(["fractal", "--out", str(files["l"])]) == 0
        assert {name: hashlib.sha256(f.read_bytes()).hexdigest()
                for name, f in files.items()} == {
            "u": "fb4a104402b55352d48a9a7226553efcbc36819cec7055e8f400d59433aa02ad",
            "v": "db4a7e7857f68077195ced0cbdd7a7c106cf45587c9067166a431cf58e968162",
            "l": "fc103e3165e9222a9729a5f5fdf142038df3bfb4c619f5ac34e42eead0ff6c6c",
        }


class TestDefaultOutputs:
    # SHA-256 of each default file and stdout as written before main became
    # the only writer of every command's tables; oracle-check's as written
    # since the spectral wavefunction sums its lattice by residue FFT; escape's
    # since the continuum escape is a power series below alpha = 2 and a
    # cancellation-free bracket from 2 on; evolve's since
    # density_field copies the mirrored half period and sums by a real product;
    # universal's and oracle-check's since the origin-0 lattice takes a
    # real-input FFT: F moved by at most 4.4e-16 and one check value by
    # 1.7e-18 (they were, in order,
    # db46a3dfde51bb4b7ceea626319e8b8058115de69cfd98c10da693f8a5e66ec7 and
    # 6289d5d25f5c523031fcb42372e3d61766cab3b7820e0a4ac92d25f995740efa);
    # evolve's since density_field sums the lattice rows by stacked residue
    # FFTs: a value moved by at most 1.5e-14 (it was
    # 9c32d324917d07e2b1a51dc9d3a39be65770a46d8c2828f0a5837ed6e7ec699e)

    @pytest.mark.parametrize("argv, digest", [
        (["coeffs"], "d9ca7f4ea6dc97c3e87a3122e0f6c2fe072b2c5ccd5275fe669be663640414cf"),
        (["evolve"], "36ebb3b22702794d7a44df4cfadfc6a972b371ce0c82ed0683a95134aa312402"),
        (["escape"], "d4349fa72285e53a45d7d4006cabb584913fc3a7127ff361ca9eb4111584f1da"),
        (["universal", "--format", "jsonl"],
         "3cb7b2fea345bbca622a00a203d63f8accfdf3345dbc40d687a97fe2204eddec"),
    ], ids=["coeffs", "evolve", "escape", "universal-jsonl"])
    def test_default_files_unchanged(self, argv, digest, tmp_path):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_default_evolve_takes_no_direct_sum(self, tmp_path, monkeypatch):
        # x = linspace(0, L, nx) is a lattice: every row comes from the
        # residue FFT, none from the direct product _mode_sums
        calls = []
        monkeypatch.setattr(spectral, "_mode_sums", lambda *args: calls.append(args))
        assert run_cli(["evolve", "--out", str(tmp_path / "out")]) == 0
        assert calls == []

    @pytest.mark.parametrize("argv, digest", [
        (["oracle-check", "--json"],
         "689dffbbbf63d1a43622aa883b7e31871309af05e944b110d1cef3aef1899a4c"),
    ], ids=["oracle-check-json"])
    def test_stdout_unchanged(self, argv, digest, capsys):
        assert run_cli(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def per_row_csv(header, columns, rows):
    """The CSV text of formatting every row with '%.17g'."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append("# columns: " + ",".join(columns))
    lines += [",".join("%.17g" % value for value in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestRenderTable:
    """A CSV row whose values after the first repeat an earlier row's bits
    shares its text once the rows are wide; the bytes stay those of
    formatting every row."""

    @staticmethod
    def table(bodies, order):
        """Rows t, *bodies[k] for the indices k in ``order``."""
        columns = ["t"] + [f"x{i}" for i in range(len(bodies[0]))]
        return columns, [[float(t)] + list(bodies[k]) for t, k in enumerate(order)]

    @pytest.mark.parametrize("width", [1, 5, cli._SHARED_BODY_MIN - 1,
                                       cli._SHARED_BODY_MIN, 512])
    def test_repeated_rows_match_per_row_formatting(self, width):
        bodies = np.random.default_rng(width).standard_normal((4, width)).tolist()
        columns, rows = self.table(bodies, [0, 1, 2, 1, 0, 3, 3, 0])
        rows.append([8] + list(range(width)))  # integers print as their digits
        rows.append(np.array([9.5] + bodies[2]))
        header = {"source": "test"}
        assert (_render_table(header, columns, rows, "csv")
                == per_row_csv(header, columns, rows))

    @pytest.mark.parametrize("width", [2, cli._SHARED_BODY_MIN])
    def test_signed_zeros_keep_their_signs(self, width):
        zero, negative = [0.0] * width, [0.0] * (width - 1) + [-0.0]
        columns, rows = self.table([zero, negative], [0, 1, 0, 1])
        text = _render_table({}, columns, rows, "csv")
        assert text == per_row_csv({}, columns, rows)
        lasts = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert lasts == ["0", "-0", "0", "-0"]

    @pytest.mark.parametrize("width", [2, cli._SHARED_BODY_MIN])
    def test_nan_rows_match_per_row_formatting(self, width):
        bodies = [[math.nan] * width, [-math.nan] * width, [1.0] * width]
        columns, rows = self.table(bodies, [0, 0, 1, 2, 1])
        assert (_render_table({}, columns, rows, "csv")
                == per_row_csv({}, columns, rows))

    def test_evolve_rows_mirror_in_the_file(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(["evolve", "--n", "100", "--nx", "17", "--nt", "9",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[-9:]
        bodies = [line.partition(",")[2] for line in lines]
        assert bodies == bodies[::-1]
        assert len(set(bodies)) == 5


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["escape", "--delta", "0.003", "--n", "500", "--t-min", "1e-6",
                "--t-max", "1e-4", "--points", "7"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "e.jsonl"
        run_cli(["escape", "--delta", "0.003", "--n", "300", "--t-min", "1e-6",
                 "--t-max", "1e-5", "--points", "3", "--format", "jsonl",
                 "--out", str(out)])
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["delta"] == 0.003
        row = json.loads(lines[1])
        assert set(row) == {"t", "exact", "small_delta", "integral",
                            "asymptote_free", "asymptote_confined"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.2\nn = 3\n# comment\n")
        out = tmp_path / "c.csv"
        run_cli(["coeffs", "--config", str(cfg), "--out", str(out)])
        _, _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(0.950975481489623, abs=1e-12)
        # explicit flag wins over the file
        run_cli(["coeffs", "--config", str(cfg), "--delta", "0",
                 "--out", str(out)])
        _, _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        # a command-line --n or --tol replaces both of the file's n and tol,
        # while n and tol together in one place stay a usage error
        for command in ("coeffs", "escape"):
            cfg.write_text("tol = 1e-8\n")
            args = parse_args([command, "--config", str(cfg), "--n", "5"])
            assert (args.n, args.tol) == (5, None)
            cfg.write_text("n = 7\n")
            args = parse_args([command, "--config", str(cfg), "--tol", "1e-3"])
            assert (args.n, args.tol) == (None, 1e-3)
            cfg.write_text("n = 7\ntol = 1e-3\n")
            assert run_for_exit([command, "--config", str(cfg)]) == 2
            assert run_for_exit([command, "--n", "5", "--tol", "1e-3"]) == 2
        cfg.write_text("delta = 0.2\ntol = 1e-8\n")
        assert run_cli(["coeffs", "--config", str(cfg), "--n", "3",
                        "--out", str(out)]) == 0
        header, _, rows = parse_csv(out)
        assert int(header["n_modes"]) == 3 and "tolerance" not in header
        assert rows[0][1] == pytest.approx(0.950975481489623, abs=1e-12)


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero(command, capsys):
    # every command's help formats, oracle-check's too, which has neither
    # --n nor --tol and so no group of the two
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["escape", "--n", "10", "--tol", "1e-6"])
        assert info.value.code == 2

    def test_oracle_check_passes(self):
        result = run_module("oracle-check", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert all(c["ok"] for c in payload["checks"])

    def test_oracle_check_coarse_fails(self):
        result = run_module("oracle-check", "--coarse")
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_oracle_check_coarse_says_why_on_one_line(self, capsys):
        # the PASS/FAIL table keeps its bytes; the exit 1 used to be silent
        assert run_cli(["oracle-check", "--coarse"]) == 1
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == \
            "b8a886d9f949538ff3e44afd7d822b1dd38250ccb49b5433724bbe8ab69c0ecb"
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("verification failure: ")

    def test_nonconvergence_exits_3_with_one_line(self, capsys, monkeypatch):
        # oracle-check's quadratures have fixed arguments, so no argv reaches it
        def diverging(*args, **kwargs):
            raise QuadratureConvergenceError("did not converge: panels=8")

        monkeypatch.setattr(cli.oracle, "kernel_integral", diverging)
        assert run_cli(["oracle-check", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("non-convergence: ")

    def test_failing_command_writes_no_file(self, tmp_path, capsys):
        # the profile file used to be written before --p-max 1 was rejected
        out, valleys = tmp_path / "U", tmp_path / "V"
        assert run_cli(["universal", "--p-max", "1", "--valleys-out", str(valleys),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists() and not valleys.exists()

    def test_unopenable_later_path_writes_no_file(self, tmp_path, capsys):
        # the profile file used to be written before the valleys path failed
        out, valleys = tmp_path / "U", tmp_path / "missing" / "V"
        argv = ["universal", "--n", "1000", "--points", "9", "--out", str(out),
                "--valleys-out", str(valleys)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []
        # an existing file keeps its bytes
        out.write_text("kept\n")
        assert run_cli(argv) == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("switches", [["--histogram", "--sigma"]],
                             ids=["histogram-sigma"])
    def test_fractal_modes_exclude_each_other(self, switches, tmp_path, capsys):
        # each switch picks what fractal writes, so two of them are ambiguous
        out = tmp_path / "F"
        argv = ["fractal", *switches, "--epsilon", "1e-3", "--out", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: ")
        assert not out.exists()

    def test_memory_error_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli.spectral, "mode_coefficients", too_large)
        out = tmp_path / "c.csv"
        assert run_cli(["coeffs", "--n", "1000000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: input too large for memory: ")
        assert not out.exists()

    @pytest.mark.parametrize("alias", ["F", "link"])
    def test_two_tables_to_one_file_write_nothing(self, alias, tmp_path, capsys):
        # the valleys table would replace the profile table in the one file
        out = tmp_path / "F"
        (tmp_path / "link").symlink_to(out)
        argv = ["universal", "--points", "40", "--n", "2000", "--out", str(out),
                "--valleys-out", str(tmp_path / alias)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
        assert not out.exists()
        out.write_text("kept\n")
        assert run_cli(argv) == 2
        assert out.read_text() == "kept\n"
        # a device takes both tables, as before
        assert run_cli(argv[:-4] + ["--out", os.devnull, "--valleys-out", os.devnull]) == 0

    def test_cli_loads_no_scipy_module(self, tmp_path):
        # scipy is a test-only dependency: neither the import nor any
        # command at its defaults may load a scipy module
        names = ["coeffs", "evolve", "escape", "universal", "fractal"]
        commands = [[name, "--out", str(tmp_path / name)] for name in names]
        commands.append(["oracle-check", "--json"])
        code = ("import json, sys, wellquench.cli\n"
                "def scipy_modules():\n"
                "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                "seen = [['import', 0, scipy_modules()]]\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    seen.append([argv[0], wellquench.cli.main(argv), scipy_modules()])\n"
                "print(json.dumps(seen))")
        result = run_python("-c", code, json.dumps(commands))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [
            [name, 0, []] for name in ["import", *names, "oracle-check"]]


def run_for_exit(argv):
    """Exit code of one invocation, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


class TestErrorContract:
    @pytest.mark.parametrize("argv, config", [
        (["escape", "--delta", "nan"], None),
        (["universal", "--n", "1"], None),
        (["fractal", "--histogram", "--epsilon", "0.7"], None),
        (["evolve", "--config", "{cfg}"], "nx = abc\n"),
        (["coeffs", "--n", "3", "--out", "{dir}/missing/x.csv"], None),
        (["coeffs", "--config", "{dir}/missing.cfg"], None),
        (["coeffs", "--config", "{cfg}"], "bogus = 3\n"),
        (["coeffs", "--config", "{cfg}"], "format = xml\n"),
        (["coeffs", "--config", "{cfg}"], "n 3\n"),
        (["escape", "--n", "10", "--tol", "1e-6"], None),
        (["evolve", "--tol", "1e-6"], None),
        (["universal", "--tol", "1e-6"], None),
        (["fractal", "--tol", "1e-6"], None),
        (["universal", "--delta", "0.1"], None),
        (["fractal", "--delta", "0.1"], None),
        (["fractal", "--base-intervals", "100"], None),
        (["fractal", "--histogram", "--epsilon", "nan"], None),
        (["coeffs", "--delta", "1e200"], None),
        (["escape", "--delta", "1e300", "--n", "16"], None),
        (["escape", "--t-max", "1e300", "--n", "16"], None),
        (["escape", "--tol", "nan"], None),
        (["universal", "--xi-max", "inf", "--n", "16"], None),
        # a --tol the mode cap cannot meet used to exit 1
        (["coeffs", "--tol", "1e-30"], None),
        (["escape", "--tol", "1e-30"], None),
        # the synthetic eps^-1/4 fit is gone; TestDimensionFit keeps its check
        (["fractal", "--selftest"], None),
    ])
    def test_usage_errors_exit_2_with_one_line(self, argv, config, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        if config is not None:
            cfg.write_text(config)
        argv = [a.format(cfg=cfg, dir=tmp_path) for a in argv]
        assert run_for_exit(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and "Traceback" not in err


#: values a flag may receive; no int above 64, so no draw allocates much
EDGE_TOKENS = ["nan", "inf", "-1", "0", "1e300", "x", ""]
VALID_TOKENS = {int: ["1", "2", "16", "64"], float: ["1e-3", "0.5"]}


def fuzzed_argv(command, directory):
    """One command with a drawn subset of its flags, each set to a drawn
    token; --n and --base-intervals are pinned small unless drawn."""
    options = COMMANDS[command].options

    def value(flag):
        opt = options[flag]
        if opt.choices:
            return st.sampled_from(EDGE_TOKENS + opt.choices)
        if opt.type is str:  # --out, --valleys-out, --config
            return st.sampled_from([str(directory / "file"),
                                    str(directory / "missing" / "file"), ""])
        return st.sampled_from(EDGE_TOKENS + VALID_TOKENS[opt.type])

    @st.composite
    def draw_argv(draw):
        argv = [command]
        flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
        for flag in flags:
            argv += ([flag] if options[flag].type is bool
                     else [flag, draw(value(flag))])
        if "--n" in options and not {"--n", "--tol"} & set(flags):
            argv += ["--n", "16"]
        if "--base-intervals" in options and "--base-intervals" not in flags:
            argv += ["--base-intervals", "1000"]
        return argv

    return draw_argv()


class TestFuzzedArgv:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_with_a_code_and_at_most_one_line(
            self, data, tmp_path_factory):
        command = data.draw(st.sampled_from(sorted(COMMANDS)))
        argv = data.draw(fuzzed_argv(command, tmp_path_factory.mktemp("argv")))
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run_for_exit(argv)
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
        assert "Traceback" not in err.getvalue()


def sample_value(opt):
    """A non-default value for an option, as command-line text."""
    if opt.choices:
        return opt.choices[-1]
    return {int: "7", float: "0.25", str: "x.out"}[opt.type]


def option_cases():
    for command, spec in COMMANDS.items():
        for flag, opt in spec.options.items():
            if "--config" in spec.options and flag != "--config":
                yield pytest.param(command, flag, opt, id=f"{command}{flag}")


class TestConfigParity:
    @pytest.mark.parametrize("command, flag, opt", option_cases())
    @pytest.mark.parametrize("spelling", ["dash", "underscore"])
    def test_config_key_parses_like_its_flag(self, command, flag, opt, spelling,
                                             tmp_path):
        key = flag[2:] if spelling == "dash" else flag[2:].replace("-", "_")
        if opt.type is bool:
            flag_argv, line = [flag], f"{key} = true\n"
        else:
            value = sample_value(opt)
            flag_argv, line = [flag, value], f"{key} = {value}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line)
        from_flag = vars(parse_args([command, *flag_argv]))
        from_file = vars(parse_args([command, "--config", str(cfg)]))
        from_file.pop("config", None)
        from_flag.pop("config", None)
        assert from_file == from_flag
        assert from_flag != vars(parse_args([command]))

    def test_false_switch_in_config_leaves_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = no\n")
        assert parse_args(["fractal", "--config", str(cfg)]).sigma is False

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_parses_do_not_leak_into_each_other(self, tmp_path):
        parse_args(["coeffs", "--n", "5"])
        args = parse_args(["coeffs"])
        assert (args.tol, args.n) == (1e-6, None)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.2\nn = 3\nformat = jsonl\n")
        parse_args(["coeffs", "--config", str(cfg)])
        assert vars(parse_args(["coeffs"])) == {
            "command": "coeffs", "config": None, "out": None, "format": "csv",
            "delta": 0.0, "n": None, "tol": 1e-6}

    def test_explicit_mode_count_replaces_default_tolerance(self):
        assert parse_args(["coeffs"]).tol == 1e-6
        args = parse_args(["coeffs", "--n", "5"])
        assert (args.n, args.tol) == (5, None)
