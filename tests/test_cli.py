"""CLI: config parsing, run/tables/check round trips, exit codes."""
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import struct
import time

from orthoflow import cli, cpm_surface
from orthoflow.cli import (EXIT_NUMERICAL, cmd_check, cmd_run, cmd_tables, main,
                           parse_config)
from orthoflow.errors import ConfigurationError, NumericalHealthError
from orthoflow.field import (GridSpec, MatrixField, field_report, plus_volume, read_snapshot,
                             write_snapshot)
from orthoflow.scenarios import SCENARIO_NAMES, TORUS_SCENARIOS, torus_initial


def write_config(path, text):
    path.write_text(text)
    return str(path)


def with_line(base, line):
    """base config text with line in place of any line setting the same key."""
    key = line.split("=", 1)[0].strip()
    kept = [k for k in base.splitlines() if k.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


class TestParseConfig:
    def test_basic(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.txt", """
            # comment
            scenario.name = torus_disk_n1
            run.tau = 0.0078125   # inline comment
            grid.size = 64
        """))
        assert cfg == {"scenario.name": "torus_disk_n1",
                       "run.tau": "0.0078125", "grid.size": "64"}

    def test_rejects_bad_line(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(write_config(tmp_path / "c.txt", "no equals sign\n"))

    def test_misspelled_key_exit_one(self, tmp_path, capsys):
        # a key outside the README schema would otherwise run with defaults
        cfg = write_config(tmp_path / "c.txt", """
            scenario.name = torus_star_defect
            grid.size = 32
            run.max_iter = 2
            run.stop_tol = 1e-3
            ouput.snapshot_every = 0
        """)
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == "error: unknown config key 'ouput.snapshot_every', 'run.max_iter'\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_key_exit_one(self, tmp_path, capsys):
        # the second value would otherwise override the first without a word
        cfg = write_config(tmp_path / "c.txt", "scenario.name = torus_star_defect\n"
                           "grid.size = 32\nrun.max_iters = 3\nrun.stop_tol = 0\n"
                           "run.max_iters = 5\n")
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:5: key 'run.max_iters' repeats line 3\n"
        assert not (tmp_path / "o").exists()

    def test_schema_keys_match_readme(self):
        # the scenarios column names all, a family (torus or surface) or one scenario
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z_.]+)` \|.*\| `?([a-z_0-9]+)`? \|$", schema, re.M)
        assert {key for key, _ in rows} == cli.CONFIG_KEYS
        assert set(cli.SCENARIO_KEYS) == set(SCENARIO_NAMES)
        for name in SCENARIO_NAMES:
            family = "torus" if name in TORUS_SCENARIOS else "surface"
            read = {key for key, column in rows if column in ("all", family, name)}
            assert read == cli.SCENARIO_KEYS[name], name
        assert {column for _, column in rows} == {"all", "torus", "surface",
                                                  "torus_disk_n1", "torus_winding"}

    @pytest.mark.parametrize("scenario, line", [
        ("torus_star_defect", "surface.dx = 0.3"),
        ("torus_disk_n1", "surface.eps = 1e-3"),
        ("torus_winding", "surface.dx = 0.25"),
        ("torus_volume_star", "surface.eps = 1e-6"),
        ("torus_parallel_defects", "surface.dx = 0.2"),
        ("sphere_volume", "grid.size = 16"),
        ("sphere_two_patches", "scenario.disk_radius = 0.3"),
        ("peanut_two_patches", "scenario.winding_index = 1"),
        ("torus_star_defect", "scenario.disk_radius = 0.2"),
        ("torus_star_defect", "scenario.winding_index = 2"),
        ("torus_winding", "scenario.disk_radius = 0.2"),
        ("torus_disk_n1", "scenario.winding_index = 2"),
    ])
    def test_key_of_the_other_scenario_family_exit_one(self, tmp_path, capsys, scenario, line):
        # a key of the other family, or of another torus scenario, is checked
        # before any set-up: the run would otherwise ignore it
        key = line.split(" =", 1)[0]
        cfg = write_config(tmp_path / "c.txt", f"scenario.name = {scenario}\n{line}\n"
                           "run.max_iters = 2\n")
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: config key {key!r} does not apply to scenario {scenario!r}\n"
        assert not (tmp_path / "o").exists()


class TestTables:
    def test_all_entries_match(self, capsys):
        assert cmd_tables() == 0
        out = capsys.readouterr().out
        assert "all 32 entries match" in out
        assert "0.7823" in out and " 34" in out


class TestRunAndCheck:
    def run_small_disk(self, tmp_path):
        tmp_path.mkdir(parents=True, exist_ok=True)
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_disk_n1
            scenario.disk_radius = 0.1
            grid.size = 64
            run.tau = 0.03125
            run.max_iters = 200
            output.snapshot_every = 2
        """)
        out_dir = tmp_path / "out"
        code = cmd_run(cfg, out_dir=out_dir)
        return code, out_dir

    def test_run_converges_and_writes_outputs(self, tmp_path, capsys):
        code, out_dir = self.run_small_disk(tmp_path)
        assert code == 0
        summary = capsys.readouterr().out
        assert summary.startswith("converged")
        assert (out_dir / "energy_log.csv").exists()
        assert (out_dir / "final.mbof").exists()
        assert any(out_dir.glob("snapshot_*.mbof"))
        header = (out_dir / "energy_log.csv").read_text().splitlines()[0]
        assert header == "iter,energy,plus_volume,max_change,sign_flips"

    def test_energy_column_monotone(self, tmp_path, capsys):
        _, out_dir = self.run_small_disk(tmp_path)
        capsys.readouterr()
        rows = (out_dir / "energy_log.csv").read_text().splitlines()[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-7 for a, b in zip(energies, energies[1:]))

    def test_check_round_trip(self, tmp_path, capsys):
        _, out_dir = self.run_small_disk(tmp_path)
        capsys.readouterr()
        assert cmd_check(out_dir / "final.mbof") == 0
        out = capsys.readouterr().out
        assert "flavor=grid" in out
        # the disk dies: constant field, no interface
        assert "interface_cells=0" in out

    def test_check_reports_winding_for_n2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_star_defect
            grid.size = 64
            run.tau = 0.0078125
            run.max_iters = 400
        """)
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 0
        capsys.readouterr()
        assert cmd_check(tmp_path / "o" / "final.mbof") == 0
        out = capsys.readouterr().out
        assert "winding=(0,0)" in out

    def test_check_rejects_corrupt_magic(self, tmp_path, capsys):
        _, out_dir = self.run_small_disk(tmp_path)
        capsys.readouterr()
        snap = out_dir / "final.mbof"
        blob = bytearray(snap.read_bytes())
        blob[:4] = b"XXXX"
        bad = tmp_path / "bad.mbof"
        bad.write_bytes(bytes(blob))
        assert cmd_check(bad) == 1

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", "scenario.name = not_a_thing\n")
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 1

    def test_snapshot_identical_across_runs(self, tmp_path, capsys):
        code1, dir1 = self.run_small_disk(tmp_path / "a")
        code2, dir2 = self.run_small_disk(tmp_path / "b")
        capsys.readouterr()
        assert (dir1 / "final.mbof").read_bytes() == (dir2 / "final.mbof").read_bytes()

    def test_final_plus_volume_matches_final_snapshot(self, tmp_path, capsys):
        code, out_dir = self.run_small_disk(tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        printed = out.split("final_plus_volume=")[1].split()[0]
        final = read_snapshot(out_dir / "final.mbof")
        assert printed == f"{plus_volume(final):.6f}"


class TestMain:
    def test_tables_subcommand(self, capsys):
        assert main(["tables"]) == 0
        capsys.readouterr()

    def test_threads_flag_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_disk_n1
            scenario.disk_radius = 0.1
            grid.size = 64
            run.tau = 0.03125
        """)
        code = main(["--threads", "4", "run", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0

    def test_threads_env_value_is_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("MBO_THREADS", "abc")
        assert main(["tables"]) == 0
        capsys.readouterr()

    def test_volume_target_initial_keyword(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_volume_star
            grid.size = 64
            run.tau = 0.0078125
            run.max_iters = 30
            run.volume_target = initial
        """)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--snapshot-every", "10"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        # volume-preserving: final plus volume equals the initial star area
        pv = float(out.split("final_plus_volume=")[1].split()[0])
        rows = (tmp_path / "o" / "energy_log.csv").read_text().splitlines()[1:]
        first_pv = float(rows[0].split(",")[2])
        assert pv == pytest.approx(first_pv, abs=2 * (1 / 64) ** 2)


class TestFailureExitCodes:
    def volume_config(self, tmp_path, target):
        return write_config(tmp_path / "cfg.txt", f"""
            scenario.name = torus_volume_star
            grid.size = 64
            run.tau = 0.0078125
            run.max_iters = 5
            run.volume_target = {target}
        """)

    @pytest.mark.parametrize("target", ["5.0", "0.0", "-0.1", "1.0", "nan"])
    def test_volume_target_outside_measure_exit_one(self, tmp_path, capsys, target):
        code = cmd_run(self.volume_config(tmp_path, target), out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run.volume_target") and err.count("\n") == 1

    def test_volume_target_at_grid_weight_sum_exit_one(self, tmp_path, capsys):
        # on 14^2 the cell weights sum to 1 - 2^-52, below this target
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_volume_star
            grid.size = 14
            run.max_iters = 3
            run.volume_target = 0.9999999999999999
        """)
        code = cmd_run(cfg, out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run.volume_target") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("error", [NumericalHealthError])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def failing_run(initial, cfg):
            raise error("synthetic failure")

        monkeypatch.setattr(cli, "mbo_run", failing_run)
        code = cmd_run(self.volume_config(tmp_path, "initial"), out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL == 4
        assert err == "error: numerical failure during the run: synthetic failure\n"
        assert not (tmp_path / "o" / "final.mbof").exists()

    @pytest.mark.parametrize("config, call", [
        ("scenario.name = torus_disk_n1\ngrid.size = 1000000\n", "TorusDiffuser"),
        ("scenario.name = sphere_two_patches\nsurface.dx = 0.0001\n", "build_band")])
    def test_arrays_beyond_memory_exit_one(self, tmp_path, capsys, monkeypatch, config, call):
        # the set-up call fails as numpy does, without allocating anything
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.64 TiB for an array")

        monkeypatch.setattr(cli, call, out_of_memory)
        code = cmd_run(write_config(tmp_path / "cfg.txt", config), out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: Unable to allocate 3.64 TiB for an array\n"

    def test_band_mesh_beyond_available_memory_exit_one(self, tmp_path, capsys, monkeypatch):
        # the machine reports 1 MiB available: the refusal comes before the mesh
        monkeypatch.setattr(cpm_surface, "_available_memory", lambda: 2.0**20)
        monkeypatch.setattr(cpm_surface.np, "meshgrid", None)
        cfg = write_config(tmp_path / "cfg.txt", "scenario.name = sphere_two_patches\n"
                           "surface.dx = 0.25\nrun.max_iters = 1\n")
        code = cmd_run(cfg, out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: the band's bounding-box mesh of 9261 points needs at least "
                       "0.0011 GiB, more than the 0.000977 GiB available\n")

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        # the run succeeds, but energy_log.csv is a directory
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_disk_n1
            grid.size = 32
            run.max_iters = 3
        """)
        (tmp_path / "o" / "energy_log.csv").mkdir(parents=True)
        code = cmd_run(cfg, out_dir=tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write the run's output: ")
        assert err.count("\n") == 1 and "energy_log.csv" in err


class TestCheckReport:
    def test_reports_defect_and_det_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", """
            scenario.name = torus_volume_star
            grid.size = 64
            run.tau = 0.0078125
            run.max_iters = 3
            run.volume_target = initial
        """)
        assert cmd_run(cfg, out_dir=tmp_path / "o") == 2
        capsys.readouterr()
        assert cmd_check(tmp_path / "o" / "final.mbof") == 0
        out = capsys.readouterr().out
        fields = dict(item.split("=", 1) for item in out.split() if "=" in item)
        assert float(fields["orthogonality_defect"]) <= 1e-10
        assert float(fields["det_min"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(fields["det_max"]) == pytest.approx(1.0, abs=1e-12)

    def test_one_check_and_one_determinant_pass(self, tmp_path, capsys, monkeypatch):
        f = torus_initial("torus_star_defect", GridSpec((32, 32)))
        path = tmp_path / "s.mbof"
        write_snapshot(f, path)
        calls = {"orthogonality_defect": 0, "dets": 0}
        for name in calls:
            original = getattr(MatrixField, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MatrixField, name, counted)
        assert cmd_check(path) == 0
        out = capsys.readouterr().out
        assert calls == {"orthogonality_defect": 1, "dets": 1}
        report = field_report(f)
        assert calls == {"orthogonality_defect": 2, "dets": 2}
        monkeypatch.undo()
        # check prints the report, whose plus volume is the public one
        ix, iy = report.winding
        assert f"plus_volume={plus_volume(f):.6f} " in out
        assert f"interface_cells={len(report.interface_cells)}\n" in out
        assert f"area={report.plus_volume:.6f} perimeter={report.perimeter:.6f} " in out
        assert f"winding=({ix},{iy})\n" in out

    def test_anisotropic_grid_perimeter_per_axis(self, tmp_path, capsys):
        # a 3 x 4 block of plus cells on spacings (1/8, 1/4): N_0 = 8 sign
        # changes along axis 0 and N_1 = 6 along axis 1
        data = -np.ones((8, 8, 1, 1))
        data[2:5, 1:5] = 1.0
        path = tmp_path / "a.mbof"
        write_snapshot(MatrixField.grid_field(GridSpec((8, 8), (1.0, 2.0)), data), path)
        assert cmd_check(path) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        perimeter = (np.pi / 4.0) * (8 * 0.25 + 6 * 0.125)
        assert f"area=0.375000 perimeter={perimeter:.6f} " in captured.out

    def test_large_n_one_point_snapshot_is_fast(self, tmp_path, capsys):
        n = 400
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
        path = tmp_path / "big.mbof"
        write_snapshot(MatrixField.cloud_field(np.zeros((1, 3)), np.ones(1), q[None]), path)
        start = time.perf_counter()
        assert cmd_check(path) == 0
        assert time.perf_counter() - start < 10.0
        assert f"n={n} points=1" in capsys.readouterr().out

    @pytest.mark.parametrize("blob", [
        b"MBOF" + struct.pack("<IIBI2Q2d", 1, 2, 0, 2, 2**31, 2**31, 1.0, 1.0) + b"\0" * 64,
        b"MBOF" + struct.pack("<IIBI2Q2d", 1, 0, 0, 2, 8, 8, 1.0, 1.0),
        b"MBOF" + struct.pack("<IIBQ", 1, 1, 1, 1) + struct.pack("<4d", 0, 0, 0, np.nan)
        + struct.pack("<d", 1.0),
        b"MBOF" + struct.pack("<IIBI2Q2d", 1, 2, 0, 2, 8, 8, 1e308, 1e308)
        + struct.pack("<256d", *np.tile(np.eye(2).ravel(), 64)),
        b"MBOF" + struct.pack("<IIBI2Q2d", 1, 2, 0, 2, 8, 8, 1e-300, 1e-300)
        + struct.pack("<256d", *np.tile(np.eye(2).ravel(), 64)),
        # a finite cell weight of 2.85e306 on 64 cells: the total measure overflows
        b"MBOF" + struct.pack("<IIBI2Q2d", 1, 2, 0, 2, 8, 8, 1.35e154, 1.35e154)
        + struct.pack("<256d", *np.tile(np.eye(2).ravel(), 64)),
        b"MBOF" + struct.pack("<IIBQ", 1, 1, 1, 2) + struct.pack("<8d", 0, 0, 0, 1e308,
                                                                 1, 0, 0, 1e308)
        + struct.pack("<2d", 1.0, 1.0),
    ], ids=["huge_grid", "n_zero", "nan_weight", "infinite_cell_weight", "zero_cell_weight",
            "infinite_grid_measure", "infinite_cloud_measure"])
    def test_hostile_snapshot_exit_one(self, tmp_path, capsys, blob):
        path = tmp_path / "h.mbof"
        path.write_bytes(blob)
        assert cmd_check(path) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestNonFiniteRunParameters:
    TORUS = """
        scenario.name = torus_disk_n1
        scenario.disk_radius = 0.1
        grid.size = 32
        run.max_iters = 3
    """
    SPHERE = """
        scenario.name = sphere_two_patches
        surface.dx = 0.25
        run.max_iters = 1
    """
    WINDING = """
        scenario.name = torus_winding
        grid.size = 32
        run.max_iters = 3
    """
    OVERFLOW = "1" + "0" * 400      # an int beyond any float

    @pytest.mark.parametrize("base, line", [
        (TORUS, "run.tau = nan"),
        (TORUS, "run.tau = inf"),
        (TORUS, "run.tau = -inf"),
        (SPHERE, "run.tau = nan"),
        (SPHERE, "run.tau = inf"),
        (TORUS, "run.stop_tol = nan"),
        (TORUS, "run.stop_tol = inf"),
        (TORUS, "output.snapshot_every = -5"),
        (TORUS, "scenario.disk_radius = nan"),
        (TORUS, "scenario.disk_radius = -1"),
        (TORUS, "scenario.disk_radius = 0"),
        (TORUS, f"grid.size = {OVERFLOW}"),
        (WINDING, f"scenario.winding_index = {OVERFLOW}"),
        (TORUS, "scenario.disk_radius = 1e200"),
    ], ids=["torus_tau_nan", "torus_tau_inf", "torus_tau_neg_inf", "sphere_tau_nan",
            "sphere_tau_inf", "stop_tol_nan", "stop_tol_inf", "snapshot_every_negative",
            "disk_radius_nan", "disk_radius_negative", "disk_radius_zero",
            "grid_size_overflow", "winding_index_overflow", "disk_radius_overflow"])
    def test_exit_one_with_one_error_line(self, tmp_path, capsys, base, line):
        cfg = write_config(tmp_path / "cfg.txt", with_line(base, line))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cmd_run(cfg, out_dir=tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "error:" not in captured.out
        if line in (f"grid.size = {self.OVERFLOW}", f"scenario.winding_index = {self.OVERFLOW}",
                    "scenario.disk_radius = 1e200"):
            # an overflow in set-up names the key whose value caused it
            assert f"'{line.split(' = ')[0]}'" in captured.err

    def test_negative_snapshot_flag_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", self.TORUS)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--snapshot-every", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: snapshot_every must be >= 0 (0 writes no snapshots)\n"
        assert not (tmp_path / "o").exists()

    def test_default_band_width_accepted_at_coarse_eps(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", with_line(self.SPHERE, "surface.eps = 1e-3"))
        code = cmd_run(cfg, out_dir=tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""

    # every value reaches band_width, which sets w_b, before BandSpec (at 0.3, w_b < dx)
    @pytest.mark.parametrize("value", ["0.1", "1e-13", "0.3", "0.7", "0.5", "nan", "inf", "-1",
                                       "0"])
    def test_eps_outside_plan_range_named(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "cfg.txt", with_line(self.SPHERE, f"surface.eps = {value}"))
        code = cmd_run(cfg, out_dir=tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: eps must lie in [1e-12, 0.01], got {float(value)!r}\n"

    @pytest.mark.parametrize("key, value", [("dx", "nan"), ("dx", "inf")])
    def test_non_finite_band_parameter_named(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.txt",
                           with_line(self.SPHERE, f"surface.{key} = {value}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cmd_run(cfg, out_dir=tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {key} must be positive and finite")
        assert captured.err.count("\n") == 1
