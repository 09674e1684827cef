"""Config parsing, command driver, exit codes, and output determinism."""

import ctypes
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from pinchlab import acceptance, blas, geometry, spectral
from pinchlab.cli import COMMANDS, main
from pinchlab.configfile import parse_config, parse_grid
from pinchlab.errors import ConvergenceError, ValidationError
from pinchlab.geometry import build_chain
from pinchlab.nodeintegral import parse_eta

BASE_CFG = """
[family]
n_components = 2

[density.alpha]
fat.0 = 2.0
fat.1 = -2.0

[density.beta]
fat.0 = 2.0
fat.1 = -2.0

[solver]
resolution = 24
m_max = 4
k_per_mode = 16
seed = 99

[sweep]
L = 80
L_grid = 50, 80, 120, 200
fit_window = 50, 200

[output]
directory = {out}
precision = 17
"""


def write_cfg(tmp_path, text=None, name="exp.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text((text or BASE_CFG).format(out=out))
    return str(path), out


class TestConfigParsing:
    def test_round_trip_values(self):
        cfg = parse_config(BASE_CFG.format(out="out"))
        fam = cfg.family()
        assert fam.n_components == 2
        assert cfg.get_int("solver", "resolution") == 24
        np.testing.assert_allclose(cfg.get_grid("sweep", "L_grid"),
                                   [50, 80, 120, 200])

    def test_geometric_grid(self):
        grid = parse_grid("50:200:3")
        np.testing.assert_allclose(grid, [50, 100, 200])

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_config("[banana]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("[family]\nn_components = 2\ncolor = red\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config("[family]\nn_components = 2\nn_components = 3\n")

    def test_density_builder(self):
        cfg = parse_config(BASE_CFG.format(out="out"))
        chain = build_chain(cfg.family(), 80.0, resolution=16)
        dens = cfg.density_builder("alpha")(chain)
        np.testing.assert_allclose(dens.component_integrals, [1.0, -1.0],
                                   atol=1e-12)

    def test_hash_ignores_formatting(self):
        a = parse_config("[family]\nn_components = 2\n")
        b = parse_config("# comment\n[family]\nn_components = 2\n\n")
        assert a.hash() == b.hash()

    def test_missing_seed_detected(self):
        cfg = parse_config("[solver]\nresolution = 16\n")
        with pytest.raises(ValidationError, match="seed"):
            cfg.require_seed()


class TestEtaParsing:
    def test_constant(self):
        eta = parse_eta("22:1:0,0,0,0")
        assert eta.evaluate(2, 2, 0.3, 0.1) == pytest.approx(1.0)

    def test_multi_term(self):
        eta = parse_eta("22:1:0,0,0,0;11:0.5:0,0,0,0")
        assert eta.evaluate(1, 1, 0.0, 0.0) == pytest.approx(0.5)

    def test_bad_slot(self):
        with pytest.raises(ValidationError):
            parse_eta("33:1:0,0,0,0")

    def test_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            parse_eta("12:1:1,0,0,0")


class TestCommands:
    def test_kodaira(self, capsys):
        assert main(["kodaira", "--type", "I_4"]) == 0
        out = capsys.readouterr().out
        assert "pseudoinverse" in out and "passed=True" in out

    def test_kodaira_unknown_type(self, capsys):
        assert main(["kodaira", "--type", "X_9"]) == 2

    def test_spectrum_columns(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path)
        assert main(["spectrum", "--config", cfg_path]) == 0
        text = (out / "spectrum.csv").read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "L,s,k,m,lambda,lambda_times_L,gap,certified"

    def test_pairing_summary(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path)
        assert main(["pairing", "--config", cfg_path]) == 0
        stdout = capsys.readouterr().out
        assert "c_fit=" in stdout and "c_predicted=" in stdout
        text = (out / "pairing.csv").read_text()
        assert "L,s,value,fitted,residual" in text

    def test_pairing_deterministic_bytes(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path)
        main(["pairing", "--config", cfg_path])
        first = (out / "pairing.csv").read_bytes()
        main(["pairing", "--config", cfg_path])
        assert (out / "pairing.csv").read_bytes() == first

    def test_verify_missing_seed_exits_2(self, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, "[solver]\nresolution = 16\n"
                                          "[output]\ndirectory = {out}\n")
        assert main(["verify", "--config", cfg_path]) == 2

    def test_model_validity_error_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_cfg(tmp_path)
        assert main(["spectrum", "--config", cfg_path, "--L", "3"]) == 2
        assert "model validity" in capsys.readouterr().err

    def test_node_integral_inline_eta(self, tmp_path, capsys):
        cfg_path, out = write_cfg(tmp_path)
        rc = main(["node-integral", "--config", cfg_path,
                   "--eta", "22:1:0,0,0,0", "--t-grid", "1e-6:1e-2:7"])
        assert rc == 0
        stdout = capsys.readouterr().out
        a_fit = float([l for l in stdout.splitlines() if "A_fit" in l][0]
                      .split()[0].split("=")[1])
        assert a_fit == pytest.approx(math.pi, rel=0.01)

    def test_green_csv(self, tmp_path):
        cfg_path, out = write_cfg(tmp_path)
        assert main(["green", "--config", cfg_path,
                     "--L-grid", "30,60,120"]) == 0
        text = (out / "green.csv").read_text()
        assert "green_min" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3

    def test_dynamics_growth(self, tmp_path, capsys):
        cfg = """
[dynamics]
t_poly = 0, 1
s0 = 1
fiber_n = 32
n_list = 64, 256

[solver]
seed = 1

[output]
directory = {out}
"""
        cfg_path, out = write_cfg(tmp_path, cfg)
        assert main(["dynamics", "growth", "--config", cfg_path]) == 0
        stdout = capsys.readouterr().out
        assert "exponent=2.000" in stdout

    def test_limit_potential_omitted_rho_is_cosx_01(self, tmp_path):
        # one default per [dynamics] key: flat-identity and limit-potential share rho's
        tables = []
        for name, rho in (("omitted", ""), ("set", "rho_preset = cosx\nrho_amplitude = 0.1\n")):
            (tmp_path / name).mkdir()
            cfg_path, out = write_cfg(tmp_path / name, "[dynamics]\nfiber_n = 16\n" + rho
                                      + "[output]\ndirectory = {out}\n")
            assert main(["dynamics", "limit-potential", "--config", cfg_path]) == 0
            # all but the first line, which carries the config hash
            tables.append((out / "limit_potential.csv").read_text().splitlines()[1:])
        assert tables[0] == tables[1]


class TestExitContract:
    @pytest.mark.parametrize("command, edit, extra, named", [
        ("spectrum", ("resolution = 24", "resolution = abc"), [], "[solver] resolution"),
        ("spectrum", ("n_components = 2", "n_components = 2\nneck_length = nan"), [],
         "[family] neck_length"),
        ("spectrum", None, ["--L", "nan"], "--L"),
        ("spectrum", None, ["--L", "inf"], "--L"),
        ("pairing", None, ["--fit-window", "50"], "--fit-window"),
        ("spectrum", ("k_per_mode = 16", "k_per_mode = 0"), [], "k_per_mode"),
        ("spectrum", ("precision = 17", "precision = -3"), [], "[output] precision"),
        # the Green tail is 24 pairs
        ("green", ("k_per_mode = 16", "k_per_mode = 16\ntail_count = -3"), [],
         "'tail_count' in [solver]"),
        ("spectrum", ("precision = 17", "precision = 17\n[node]\nsplit_factor = 5.0"), [],
         "split_factor"),
        ("spectrum", ("fit_window = 50, 200", "fit_window = 50, 200\nt_grid = 1e-3:1e-1:3"), [],
         "'t_grid' in [sweep]"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\nphi_preset = banana"),
         ["birkhoff"], "[dynamics] phi_preset"),
        ("node-integral", None, ["--eta", "22:abc:0,0,0,0"], "eta term"),
        ("node-integral", None, ["--eta", "22:1:0,x,0,0"], "eta term"),
        # the Green tail sets the cutoff, the estimate grid is 20:200:4, and
        # every density is projected to zero mean
        ("green", ("k_per_mode = 16", "k_per_mode = 16\ngreen_cutoff = 500"), [],
         "'green_cutoff' in [solver]"),
        ("potential", ("fit_window = 50, 200", "fit_window = 50, 200\nestimate_L_grid = 20:200:4"),
         [], "'estimate_L_grid' in [sweep]"),
        ("pairing", ("[density.alpha]", "[density.alpha]\nproject = false"), [],
         "'project' in [density.alpha]"),
        ("node-integral", ("precision = 17", "precision = 17\n[node]\nangular = 0"), [],
         "angular node count must be at least 1, got 0"),
        ("node-integral", ("precision = 17", "precision = 17\n[node]\nangular = -4"), [],
         "angular node count must be at least 1, got -4"),
        ("node-integral", ("precision = 17", "precision = 17\n[node]\nradial_per_decade = 0"), [],
         "radial_per_decade must be at least 1, got 0"),
        ("node-integral", ("precision = 17", "precision = 17\n[node]\nradial_per_decade = -3"),
         [], "radial_per_decade must be at least 1, got -3"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\nbase_n_r = -1"),
         ["growth"], "n_r=-1"),
        # the chain is sharp: c is constant on each segment
        ("spectrum", ("n_components = 2", "n_components = 2\nsmoothing_width = 0.05"), [],
         "'smoothing_width' in [family]"),
        # every fat segment has circumference 1/(2*pi)
        ("spectrum", ("n_components = 2", "n_components = 2\nfat_circumference = 0.2"), [],
         "'fat_circumference' in [family]"),
        # non-finite complex inputs
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\nt_poly = nan, 1"),
         ["growth"], "[dynamics] t_poly"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\ns0 = inf"),
         ["growth"], "[dynamics] s0"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\nt_poly = 0, inf"),
         ["birkhoff"], "[dynamics] t_poly"),
        ("node-integral", None, ["--eta", "22:nan:0,0,0,0"], "eta term"),
        # the flat torus is built in code only
        ("spectrum", ("n_components = 2", "n_components = 2\nno_neck = true"), [],
         "'no_neck' in [family]"),
        # s0 is one base point, and T(s) must vary
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\ns0 ="),
         ["growth"], "[dynamics] s0"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\ns0 = 1, 2"),
         ["growth"], "[dynamics] s0"),
        ("dynamics", ("precision = 17", "precision = 17\n[dynamics]\nt_poly ="),
         ["growth"], "[dynamics] t_poly"),
        # |t|^2 underflows below sqrt of the smallest normal float
        ("node-integral", None, ["--t-grid", "1e-200:1e-2:9"],
         "|t| = 5.62e-176 is below 1.49e-154"),
        # the low/high split needs the zero pair and the N-1 collapsing ones of mode 0
        ("potential", ("k_per_mode = 16", "k_per_mode = 1"), [],
         "k_per_mode = 1 is below n_components = 2"),
        # a cell length squared below the smallest normal float divides the gradient form
        ("spectrum", ("n_components = 2", "n_components = 2\nareas = 1e-300, 1"), [],
         "degenerate segment length"),
        ("modelfns", None, ["--out", "/dev/null/out"], "cannot write /dev/null/out/"),
    ])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, command, edit, extra, named):
        text = BASE_CFG.replace(*edit) if edit else BASE_CFG
        cfg_path, _ = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum", "pairing", "potential", "modelfns"])
    def test_a_grid_past_the_node_cap_exits_2_before_any_node_is_built(
            self, tmp_path, capsys, monkeypatch, command):
        # the node count is summed from Python ints: neither a per-node loop nor an
        # array of nodes is started, either of which would run until the memory ran out
        def fail(*args, **kwargs):
            raise AssertionError("a node was built")
        monkeypatch.setattr(geometry, "range", fail, raising=False)
        for name in ("arange", "repeat", "concatenate"):
            monkeypatch.setattr(np, name, fail)
        text = BASE_CFG.replace("resolution = 24", "resolution = 1000000000000")
        cfg_path, _ = write_cfg(tmp_path, text)
        start = time.perf_counter()
        assert main([command, "--config", cfg_path]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert ("[solver] resolution = 1000000000000 lays out 3000000000000 nodes, "
                "above the cap of 1048576") in err and "Traceback" not in err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"# \xff\xfe\n" + BASE_CFG.format(out=tmp_path / "out").encode())
        assert main(["spectrum", "--config", str(path)]) == 2
        assert f"cannot read config {path}" in capsys.readouterr().err

    OVERFLOW = r"reduced mode matrix is not finite mode=1 n=144 L=1e\+"

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--L", "1e200"], OVERFLOW + "200"),
        (["spectrum", "--L", "1e300"], OVERFLOW + "300"),
        # potential solves mode 0 alone, so the Poisson residual fails first
        (["potential", "--L", "1e200"],
         r"direct solve residual beyond tolerance residual=inf tolerance=1\.44e-06 n=144"),
        (["green", "--L-grid", "1e200"], OVERFLOW + "200"),
        (["pairing", "--L-grid", "1e150:1e300:6", "--fit-window", "1e150,1e300"],
         r"direct solve residual beyond tolerance residual=\S+ tolerance=\S+ n=144"),
        (["spectrum", "--L", "1.7e308"],
         r"eigen residual bound is not finite mode=0 n=144 L=1\.7e\+308"),
        # green solves modes 0-2 only (see test_green_reads_no_mode_beyond_its_reach)
        (["green", "--L-grid", "2e4"],
         r"eigen residual beyond tolerance mode=2 worst_residual=\S+ n=144"),
    ], ids=["spectrum-1e200", "spectrum-1e300", "potential-1e200", "green-1e200",
            "pairing-poisson-residual", "spectrum-residual-bound-1.7e308",
            "green-2e4-mode-2"])
    def test_numerical_failure_exits_3_naming_it(self, tmp_path, capsys, argv, message):
        # huge L overflows the reduced potential form, the Poisson residual and,
        # at 1.7e308, the residual bound RESIDUAL_TOL * max(1, ||v||) of mode 0
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg")
        assert main([argv[0], "--config", cfg, "--out", str(tmp_path), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(f"numerical non-convergence: {message}\n", err), err

    def test_green_reads_no_mode_beyond_its_reach(self, tmp_path, capsys):
        # at L = 5e3 mode 6's eigenvectors fail their residual gate, but no mode
        # above 2 can hold a pair below green's cutoff: it is only counted
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg")
        assert main(["green", "--config", cfg, "--out", str(tmp_path), "--L-grid", "5e3"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_spectrum_at_large_L_matches_scipy(self, tmp_path, capsys):
        # the values alone pass their inertia certificate where mode 6's vectors
        # fail the residual gate (5e3) and mode 2's too (2e4, green-2e4-mode-2)
        import scipy.linalg

        root = Path(__file__).resolve().parents[1]
        family = parse_config((root / "configs" / "i2_step.cfg").read_text()).family()
        argv = ["sweep-spectrum", "--config", str(root / "configs" / "i2_step.cfg"),
                "--out", str(tmp_path), "--L-grid", "5e3,2e4"]
        assert main(argv) == 0 and capsys.readouterr().err == ""
        rows = np.loadtxt(tmp_path / "sweep_spectrum.csv", delimiter=",", skiprows=2,
                          usecols=(0, 3, 4))
        for L, rtol in ((5e3, 3.4e-9), (2e4, 4.1e-8)):
            ops = build_chain(family, L, resolution=48).operators
            for m in range(9):
                want = scipy.linalg.eigh(ops.stiffness(m).toarray(), ops.mass.toarray(),
                                         eigvals_only=True)[:32]
                got = np.unique(rows[(rows[:, 0] == L) & (rows[:, 1] == m), 2])
                assert got.size == 32
                big = np.abs(want) > 1e-9
                np.testing.assert_allclose(got[big], want[big], rtol=rtol, atol=0)

    def test_values_the_count_rejects_take_the_vector_path_and_its_gate(self, tmp_path, capsys,
                                                                       monkeypatch):
        monkeypatch.setattr(spectral, "_negative_count", lambda S, M, shift: -1)
        monkeypatch.setattr(spectral, "_residuals",
                            lambda S, M, lam, vecs: (np.ones(lam.size), np.zeros(lam.size)))
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numerical non-convergence: eigen residual beyond "
                                           "tolerance mode=0 worst_residual=1.0 n=144\n")

    def test_nan_residual_exits_3(self, tmp_path, capsys, monkeypatch):
        # NaN passes no comparison, so a gate written as "fail if above the
        # bound" would let it through and write NaN eigenvalues; potential reads
        # mode 0's vectors, so its solve meets the gate
        monkeypatch.setattr(spectral, "_residuals",
                            lambda S, M, lam, vecs: (np.full(lam.size, np.nan), np.ones(lam.size)))
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg")
        assert main(["potential", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical non-convergence: eigen residual beyond tolerance "
                       "mode=0 worst_residual=nan n=144\n")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--L", "1e100"],
        ["spectrum", "--L", "1.7e308"],
        ["sweep-spectrum", "--L-grid", "100,1e100"],  # solved in the worker pool
    ], ids=["spectrum-1e100", "spectrum-1.7e308", "sweep-pool-1e100"])
    def test_overflowing_residuals_exit_3_with_one_line(self, tmp_path, argv):
        # the residual norms overflow to infinity: no numpy warning may reach
        # stderr ahead of the one-line message
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "pinchlab.cli", argv[0], "--config",
             str(root / "configs" / "i2_step.cfg"), "--out", str(tmp_path), *argv[1:]],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical non-convergence:"), proc.stderr

    def test_convergence_error_prints_key_value(self):
        exc = ConvergenceError("eigen residual beyond tolerance", {"mode": 3, "n": 576})
        assert str(exc) == "eigen residual beyond tolerance mode=3 n=576"


def test_cli_import_skips_scipy_optimize():
    code = "import sys, pinchlab.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def run_python(*args) -> subprocess.CompletedProcess:
    """A child Python that imports this checkout's pinchlab, output captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_set_up_path_loads_neither_numpy_polynomial_nor_hashlib():
    # the benchmark's set-up: import the CLI, load a config and build the first chain
    code = ("import sys, pinchlab.cli\nfrom pinchlab import configfile, geometry\n"
            "cfg = configfile.load_config(sys.argv[1])\n"
            "geometry.build_chain(cfg.family(), 100.0, resolution=48)\n"
            "print(sorted({'numpy.polynomial', 'hashlib'} & set(sys.modules)))")
    config = Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg"
    proc = run_python("-c", code, str(config))
    assert proc.stdout.strip() == "[]", proc.stderr


@pytest.mark.parametrize("code, expected", [
    ("import gc, pinchlab", "False True"),
    ("import gc, pinchlab.cli", "True True"),
    ("import gc; gc.disable(); import pinchlab.cli", "True False"),
], ids=["package", "cli", "cli-collector-off"])
def test_cli_import_freezes_the_import_time_heap(code, expected):
    # the CLI moves its import-time heap out of the collector's reach; a plain
    # package import keeps the default collector, and neither switches it on or off
    proc = run_python("-c", f"{code}; print(gc.get_freeze_count() > 0, gc.isenabled())")
    assert proc.stdout.strip() == expected, proc.stderr


def test_frozen_heap_leaves_command_output_unchanged():
    frozen = run_python("-m", "pinchlab.cli", "kodaira", "--type", "I_4")
    unfrozen = run_python("-c", "import gc, sys; from pinchlab.cli import main; gc.unfreeze(); "
                                "sys.exit(main(['kodaira', '--type', 'I_4']))")
    assert frozen.returncode == unfrozen.returncode == 0, frozen.stderr + unfrozen.stderr
    assert frozen.stdout == unfrozen.stdout and "passed=True" in frozen.stdout


def test_node_integral_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process about 18 ms to import; np.median imports it
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "node.cfg")
    proc = run_python("-c", "import sys; from pinchlab.cli import main; "
                            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)",
                      "node-integral", "--config", cfg, "--out", str(tmp_path))
    assert proc.stdout.splitlines()[-1] == "False", proc.stderr


# every section a table command reads, at sizes that keep each command well under a second
TABLE_CFG = BASE_CFG + """
[dynamics]
fiber_n = 16
k_max = 100
n_list = 64, 128

[node]
t_grid = 1e-6:1e-2:7
radial_per_decade = 8
angular = 16
"""


def readme_schemas() -> dict:
    """command -> {file: header row} from the README "CSV schemas" table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### CSV schemas", 1)[1].split("\n## ", 1)[0]
    schemas = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1].startswith("`"):
            header = cells[2].split("`")[1].replace(" ", "")
            schemas.setdefault(cells[0], {})[cells[1].strip("`")] = header
    return schemas


@pytest.mark.parametrize("name", [name for name in COMMANDS if name != "verify"])
def test_command_table_writes_readme_schemas(tmp_path, capsys, name):
    expected = readme_schemas()[name]
    cfg_path, _ = write_cfg(tmp_path, TABLE_CFG)
    out = tmp_path / "table_out"
    assert main([*name.split(), "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for filename, header in expected.items():
        lines = (out / filename).read_text().splitlines()
        assert [ln for ln in lines if not ln.startswith("#")][0] == header
    stdout = capsys.readouterr().out.splitlines()
    wrote = [f"wrote {os.path.join(str(out), filename)}" for filename in expected]
    assert stdout[:len(wrote)] == wrote
    assert not any(ln.startswith("wrote ") for ln in stdout[len(wrote):])


def test_verify_csv_is_readme_schema_and_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", acceptance.ALL_CRITERIA[:2])
    # every interval of this clock differs, so a wall time written to the CSV
    # would differ between the two runs
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) ** 2)
    monkeypatch.setattr(acceptance, "time", clock)
    cfg_path, _ = write_cfg(tmp_path, "[solver]\nseed = 5\n")
    written = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
        written.append((out / "verify.csv").read_bytes())
    lines = written[0].decode().splitlines()
    assert lines[1] == readme_schemas()["verify"]["verify.csv"]
    assert len(lines) == 2 + 2
    assert written[0] == written[1]
    summary = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[PASS]")]
    assert len(summary) == 4 and all(ln.endswith(" s)") for ln in summary)


# Run in a child process: every loaded OpenBLAS, scipy's included, is first
# set to 2 threads, then one spectrum (i2_step, n = 144) runs through an
# in-process main, and the thread counts are read before, inside (when the
# spectra are asked for) and after the command.
BLAS_PROBE = """
import json, sys
import scipy.linalg
from pinchlab import cli, spectral
spectral.blas_threads(2)
before = spectral.blas_threads()
inside = []
full_spectra = spectral.full_spectra
def probe(*args, **kwargs):
    inside.append(spectral.blas_threads())
    return full_spectra(*args, **kwargs)
spectral.full_spectra = probe
code = cli.main(["spectrum", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "before": before, "inside": inside,
                  "after": spectral.blas_threads(),
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""


# "NAME" sets NAME=2; "NAME=" sets it empty, which OpenBLAS reads as unset
@pytest.mark.parametrize("variable", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS=", "OMP_NUM_THREADS="])
def test_cli_runs_one_blas_thread_unless_the_user_set_a_count(tmp_path, variable):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")}
    name, empty, _ = (variable or "").partition("=")
    if name:
        env[name] = "" if empty else "2"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    config = str(Path(__file__).resolve().parents[1] / "configs" / "i2_step.cfg")
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, config, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0 and not seen["multiprocessing"]
    if seen["before"] is None or set(seen["before"].values()) == {1}:
        pytest.skip("no OpenBLAS that runs more than one thread here")
    assert seen["after"] == seen["before"]  # restored when main returns
    if name and not empty:
        assert seen["inside"] == [seen["before"]]  # the user's count is left alone
    else:
        assert seen["inside"] == [dict.fromkeys(seen["before"], 1)]


# Run in a child process that has not loaded scipy: one spectrum (i2_step at
# n = 576, k = 32, so every mode takes the shift-invert path, which loads
# scipy) through an in-process main on one CPU, with the thread counts read
# before the command and after each shift-invert solve inside it.
LATE_BLAS_PROBE = """
import json, sys
from pinchlab import cli, spectral
loaded = "scipy" in sys.modules
before = spectral.blas_threads()
inside = []
spectral._usable_cpus = lambda: 1  # no pool: the solves run in this process
shift_invert = spectral._shift_invert
def probe(*args, **kwargs):
    found = shift_invert(*args, **kwargs)
    inside.append(spectral.blas_threads())
    return found
spectral._shift_invert = probe
code = cli.main(["spectrum", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "loaded": loaded, "before": before, "inside": inside}))
"""


@pytest.mark.parametrize("variable", [None, "OPENBLAS_NUM_THREADS"])
def test_openblas_mapped_by_the_first_solve_runs_the_commands_threads(tmp_path, variable):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")}
    if variable:
        env[variable] = "2"
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
    config = tmp_path / "fine.cfg"
    config.write_text((root / "configs" / "i2_step.cfg").read_text()
                      .replace("resolution = 48", "resolution = 192")
                      .replace("m_max = 8", "m_max = 2"))
    proc = subprocess.run([sys.executable, "-c", LATE_BLAS_PROBE, str(config), str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0 and not seen["loaded"] and seen["inside"]
    if seen["before"] is None or not set(seen["inside"][0]) - set(seen["before"]):
        pytest.skip("no OpenBLAS of scipy's own that the first solve maps here")
    if variable and set(seen["before"].values()) != {2}:
        pytest.skip("no OpenBLAS that runs two threads here")
    want = 2 if variable else 1  # the user's count is left alone
    assert all(set(counts.values()) == {want} for counts in seen["inside"])


# Run in a child process, so that no earlier test has shaped its heap: the
# minor page faults of the second of two eighs of one 576x576 matrix, in a
# pool worker and in this process after an in-process main.
FAULTS_PROBE = """
import json, resource
import numpy as np
from pinchlab import spectral
from pinchlab.cli import main

def second_eigh_faults():
    a = np.random.default_rng(0).standard_normal((576, 576))
    a = a + a.T
    np.linalg.eigh(a)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.linalg.eigh(a)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

pool = spectral._pool()
worker = None if pool is None else pool.submit(second_eigh_faults).result()
code = main(["kodaira", "--type", "I_4"])
print(json.dumps({"code": code, "worker": worker, "cli": second_eigh_faults()}))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_cli_and_pool_workers_keep_lapack_work_arrays_in_the_heap():
    # glibc would otherwise unmap eigh's work arrays after each call, and the
    # next call would fault them in again (about 2,000 faults at n = 576)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", FAULTS_PROBE], capture_output=True,
                          text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0 and seen["cli"] < 100
    assert seen["worker"] is None or seen["worker"] < 100


def test_keep_freed_memory_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert blas.keep_freed_memory() is None


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no mapped-library list")
def test_numpy_1x_ilp64_openblas_is_pinned(monkeypatch):
    # numpy 1.22-1.26 wheels map an ILP64 libopenblas64_p-*.so, whose thread calls end in 64_
    count = [4]
    lib = types.SimpleNamespace(openblas_set_num_threads64_=lambda n: count.__setitem__(0, n),
                                openblas_get_num_threads64_=lambda: count[0])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    before = blas.blas_threads(1)
    assert before and set(before.values()) == {4}
    assert count == [1]


NO_SCIPY_PROBE = """
import contextlib, io, json, sys
import pinchlab.cli
seen = [("import pinchlab.cli", "scipy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert pinchlab.cli.main(argv) == 0, argv
    seen.append((" ".join(argv[:2]), "scipy" in sys.modules))
import pinchlab
pinchlab.build_chain
linalg = "scipy.linalg" in sys.modules
from pinchlab import full_spectrum
print(json.dumps({"seen": seen, "linalg": linalg,
                  "full_spectrum": full_spectrum is pinchlab.spectral.full_spectrum}))
"""


def test_commands_that_never_solve_load_no_scipy(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = ["--out", str(tmp_path)]
    commands = [["kodaira", "--type", "I_4"]]
    commands += [name.split() + ["--config", str(root / "configs" / "dynamics.cfg"), *out]
                 for name in COMMANDS if name.startswith("dynamics ")]
    commands += [["node-integral", "--config", str(root / "configs" / "node.cfg"), *out]]
    env = {**os.environ,
           "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert len(seen["seen"]) == 7 and not [name for name, loaded in seen["seen"] if loaded]
    assert seen["linalg"]  # one access to the package API loads it
    assert seen["full_spectrum"]


def test_commands_on_the_shipped_configs_load_no_scipy(tmp_path):
    # n <= 384 everywhere: forms, dense modes and Poisson solves are numpy's
    root = Path(__file__).resolve().parents[1]
    out = ["--out", str(tmp_path)]
    commands = [[name, "--config", str(root / "configs" / f"{cfg}.cfg"), *out]
                for cfg in ("i2_step", "i3_bump")
                for name in ("spectrum", "sweep-spectrum", "green", "potential", "pairing",
                             "modelfns")]
    commands += [["verify", "--config", str(root / "configs" / "verify.cfg"), *out]]
    env = {**os.environ,
           "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])["seen"]
    assert len(seen) == 14 and not [name for name, loaded in seen if loaded]


# Run in a fresh process: import the CLI, run one command in it (none when no
# arguments are given), then list the pinchlab modules registered and those
# that have run (a registered module that has not run is a lazy module).
LAYERS_PROBE = """
import contextlib, io, json, sys, types
import pinchlab, pinchlab.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert pinchlab.cli.main(sys.argv[1:]) == 0, sys.argv
modules = {name.partition(".")[2]: module for name, module in sys.modules.items()
           if name.startswith("pinchlab.")}
print(json.dumps({
    "registered": sorted(name for name, module in modules.items()
                         if getattr(pinchlab, name) is module),
    "run": sorted(name for name, module in modules.items()
                  if type(module) is types.ModuleType),
}))
"""
LAYERS = ["acceptance", "configfile", "dualgraph", "dynamics", "geometry", "nodeintegral",
          "pairing", "potential", "reporting", "spectral"]
SOLVE_LAYERS = ["configfile", "geometry", "reporting", "spectral"]
# layers each command runs besides cli, blas and errors
COMMAND_LAYERS = {
    "": [],
    "kodaira": ["dualgraph"],
    "dynamics": ["configfile", "dynamics", "reporting"],
    "node-integral": ["configfile", "geometry", "nodeintegral", "reporting"],
    "spectrum": SOLVE_LAYERS, "sweep-spectrum": SOLVE_LAYERS, "green": SOLVE_LAYERS,
    "modelfns": SOLVE_LAYERS,
    "potential": SOLVE_LAYERS + ["potential"],
    "pairing": ["configfile", "dualgraph", "geometry", "pairing", "potential", "reporting"],
    "verify": LAYERS,
}


@pytest.mark.parametrize("command", ["", "kodaira", *COMMANDS])
def test_a_command_runs_only_the_layers_it_reads(tmp_path, command):
    root = Path(__file__).resolve().parents[1]
    cfg_path, _ = write_cfg(tmp_path, TABLE_CFG)
    config = str(root / "configs" / "verify.cfg") if command == "verify" else cfg_path
    argv = {"": [], "kodaira": ["kodaira", "--type", "I_4"]}.get(
        command, [*command.split(), "--config", config, "--out", str(tmp_path / "out")])
    proc = run_python("-c", LAYERS_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["registered"] == sorted(["blas", "cli", "errors", *LAYERS])
    expected = COMMAND_LAYERS[command.partition(" ")[0]]
    assert seen["run"] == sorted(["blas", "cli", "errors", *expected])


def test_tracer_finds_every_layer_after_the_cli_import():
    # perfbench/tracer.py looks each layer up in sys.modules right after
    # ``import pinchlab.cli`` and wraps the functions it reads there
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "import pinchlab.cli\n"
            "from tracer import CRITERIA, LAYER_FUNCTIONS\n"
            "for module, name in LAYER_FUNCTIONS:\n"
            "    assert callable(getattr(sys.modules['pinchlab.' + module], name))\n"
            "assert len(sys.modules['pinchlab.acceptance'].ALL_CRITERIA) == CRITERIA\n")
    proc = run_python("-c", code, str(perfbench))
    assert proc.returncode == 0, proc.stderr


def test_package_api_binds_without_the_cli():
    # after the CLI's import the same holds (NO_SCIPY_PROBE)
    proc = run_python("-c", "import pinchlab, pinchlab.geometry as g; "
                            "print(pinchlab.build_chain is g.build_chain)")
    assert proc.stdout.strip() == "True", proc.stderr
