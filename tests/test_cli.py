"""Command-line interface: config layering, CSV output, exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

import dunkldyn
from dunkldyn import cli
from dunkldyn.cli import (
    _COMMANDS,
    _CONFIG_OPTIONS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    ExperimentConfig,
    _roundtrip_check,
    load_config,
    main,
    read_config_file,
    run,
)
from dunkldyn.construct import read_plan, verify_orbit_hits
from dunkldyn.dunkl import ALPHA_BOUNDARY_GAP, DunklWeights, apply_dunkl
from dunkldyn.growth import lemma3_on_grid
from dunkldyn.series import TruncatedSeries, read_series, write_series


def _child_env():
    """The environment of a child process that imports this dunkldyn."""
    src = str(Path(dunkldyn.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _main_in_child(*args, timeout):
    """cli.main(args) in a child process: (exit code, stderr, the child's peak RSS in MB)."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; from dunkldyn.cli import main; code = main(sys.argv[1:]); "
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)", *args],
        capture_output=True, text=True, timeout=timeout, env=_child_env())
    return proc.returncode, proc.stderr, int(proc.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], lines[1], [ln.split(",") for ln in lines[2:]]


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_alpha_domain(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(alpha="-0.75").validate()
        assert "alpha" in str(exc.value)

    def test_alpha_inside_boundary_gap_exits_one(self, tmp_path, capsys):
        # passes alpha > -1/2 but not the weight table's gap: no traceback
        out = tmp_path / "w.csv"
        rc = main(["weights", "--alpha", "-0.49999999999999", "--n", "4", "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha" in err
        assert not out.exists()

    def test_p_inf_accepted(self):
        cfg = ExperimentConfig(p="inf")
        cfg.validate()
        assert cfg.p_mp() == mpf("inf")

    @pytest.mark.parametrize("p", ["1e400", "Infinity", "nan", "INF"])
    def test_p_checked_is_p_computed(self, p):
        # validate and p_mp read p with one function: only the text 'inf' is inf
        for check in (ExperimentConfig(p=p).validate, ExperimentConfig(p=p).p_mp):
            with pytest.raises(ConfigError) as exc:
                check()
            assert exc.value.field == "p"

    def test_p_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p="0.5").validate()

    @pytest.mark.parametrize("field,value", [("alpha", "inf"), ("alpha", "nan"),
                                             ("r_min", "nan"), ("r_max", "inf"),
                                             ("r_max", "1e400")])
    def test_non_finite_number_names_its_field(self, field, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{field: value}).validate()
        assert exc.value.field == field and "finite" in str(exc.value)

    def test_read_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha = 1  # with a comment\n\ntrunc_degree=512\n")
        assert read_config_file(str(path)) == {"alpha": "1", "trunc_degree": 512}

    def test_unknown_key_carries_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=1\nbogus=2\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(str(path))
        assert "line 2" in str(exc.value)
        assert "bogus" in str(exc.value)

    def test_bad_integer_carries_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("precision_bits=many\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(str(path))
        assert "line 1" in str(exc.value)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha 1\n")
        with pytest.raises(ConfigError):
            read_config_file(str(path))

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=1\nseed=7\n")
        cfg = load_config(str(path), {"alpha": "0.5"})
        assert cfg.alpha == "0.5"
        assert cfg.seed == 7

    def test_subcommand_grid_is_the_default_layer(self, tmp_path):
        # verify-barnes has its own radius grid, below the file and the flags
        def grid(cfg):
            return cfg.r_min, cfg.r_max, cfg.r_points

        assert grid(load_config(None, {}, "verify-barnes")) == ("10000", "100000", 8)
        assert grid(load_config(None, {}, "means")) == ("0.01", "400", 256)
        path = tmp_path / "c.cfg"
        path.write_text("r_min=20\nr_max=40\nr_points=4\n")
        assert grid(load_config(str(path), {}, "verify-barnes")) == ("20", "40", 4)
        assert grid(load_config(str(path), {"r_max": "50"}, "verify-barnes")) == ("20", "50", 4)
        assert grid(load_config(None, {"r_points": 3}, "verify-barnes")) == ("10000", "100000", 3)

    def test_config_file_beats_subcommand_grid(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("r_min=20\nr_max=40\nr_points=4\n")
        out = tmp_path / "b.csv"
        assert main(["verify-barnes", "--config", str(path), "-o", str(out)]) == EXIT_OK
        banner, _, rows = _read_csv(out)
        assert " r_max=40 " in banner and " r_min=20 " in banner
        assert " r_points=4 " in banner
        assert len(rows) == 4 and (float(rows[0][0]), float(rows[-1][0])) == (20.0, 40.0)


class TestWeightsCommand:
    def test_golden_table(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--n", "4", "-o", str(out)]) == EXIT_OK
        banner, header, rows = _read_csv(out)
        assert header == "n,d_n,log_d_n"
        got = [(int(r[0]), float(r[1])) for r in rows]
        assert got == [(0, 1.0), (1, 2.0), (2, 4.0), (3, 16.0), (4, 64.0)]
        assert abs(float(rows[3][2]) - math.log(16)) < 1e-12

    def test_banner_shape(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["weights", "--n", "2", "-o", str(out)])
        banner, _, _ = _read_csv(out)
        assert banner.startswith("# config: ")
        keys = [item.split("=")[0] for item in banner[len("# config: "):].split()]
        assert keys == sorted(keys)
        assert "alpha" in keys and "output" in keys and "n" in keys

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["weights", "--n", "32", "--alpha", "0.5", "-o", str(out)])
        first = out.read_bytes()
        main(["weights", "--n", "32", "--alpha", "0.5", "-o", str(out)])
        assert out.read_bytes() == first

    def test_config_file_alpha(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha=0.5\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--config", str(path), "--n", "2",
                     "-o", str(out)]) == EXIT_OK
        _, _, rows = _read_csv(out)
        assert [float(r[1]) for r in rows] == [1.0, 3.0, 6.0]

    def test_n_out_of_range(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--n", "-3", "-o", str(out)]) == EXIT_CONFIG


class TestSeriesCommands:
    def _write_input(self, tmp_path, coeffs, alpha="0"):
        f = TruncatedSeries({n: mpf(c) for n, c in coeffs.items()}, trunc_degree=16)
        path = tmp_path / "in.series"
        write_series(f, str(path), mpf(alpha), precision_bits=256)
        return str(path)

    def test_apply_one_step(self, tmp_path):
        inp = self._write_input(tmp_path, {2: 1})
        out = tmp_path / "a.csv"
        assert main(["apply", "--input", inp, "--k", "1", "-o", str(out)]) == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "n,re_c_n,im_c_n"
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in rows] == [(1, 2.0, 0.0)]
        g, alpha, _ = read_series(str(tmp_path / "a.series"))
        assert alpha == 0
        assert abs(g.coeff(1) - 2) < mpf("1e-70")

    @pytest.mark.parametrize("bits", [128, 512])
    @pytest.mark.parametrize("k", [0, 1])
    def test_apply_at_other_precision_than_input(self, tmp_path, bits, k):
        # a 256-bit input applied at another precision: the output is written
        # at the precision it was computed at, so it reads back unchanged
        inp = self._write_input(tmp_path, {1: mpf(1) / 3, 4: mpf(2) / 7}, alpha="0.5")
        out = tmp_path / "a.csv"
        rc = main(["apply", "--input", inp, "--k", str(k), "--precision-bits", str(bits),
                   "-o", str(out)])
        assert rc == EXIT_OK
        g, _, file_bits = read_series(str(tmp_path / "a.series"))
        assert file_bits == bits
        # at alpha = 1/2, a_1 = 3 and a_4 = 4: L(z/3 + 2z^4/7) = 1 + 8z^3/7
        want = {1: mpf(1) / 3, 4: mpf(2) / 7} if k == 0 else {0: mpf(1), 3: mpf(8) / 7}
        assert sorted(n for n, _ in g.items() if n < g.trunc_degree) == sorted(want)
        for n, c in want.items():
            assert abs(g.coeff(n) - c) <= abs(c) * mpf(2) ** (2 - min(bits, 256))

    def test_means_quadratic(self, tmp_path):
        inp = self._write_input(tmp_path, {2: 1})
        out = tmp_path / "m.csv"
        rc = main(["means", "--input", inp, "-o", str(out),
                   "--r-min", "0.5", "--r-max", "2", "--r-points", "4"])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "r,M_p,richardson_err"
        for r_s, m_s, _ in rows:
            assert abs(float(m_s) - float(r_s) ** 2) < 1e-12

    def test_roundtrip_check_catches_edited_coefficient(self, tmp_path):
        f = TruncatedSeries({0: 1, 3: mpf("0.25"), 7: -2}, trunc_degree=16)
        path = tmp_path / "f.series"
        write_series(f, str(path), mpf(0), precision_bits=256)
        _roundtrip_check(f, str(path))
        lines = path.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("3 "))
        lines[row] = "3 0.25000000000000000001 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RuntimeError):
            _roundtrip_check(f, str(path))

    def test_missing_input_is_config_error(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(["apply", "--input", str(tmp_path / "nope.series"),
                   "-o", str(out)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("subcommand", ["means", "orbit"])
    def test_series_alpha_inside_boundary_gap_exits_one(self, tmp_path, capsys, subcommand):
        # the file header passes alpha > -1/2 but not the weight table's gap
        inp = self._write_input(tmp_path, {0: 1, 2: 1}, alpha="-0.4999999999999999")
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--input", inp, "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha" in err and "'input'" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["means", "orbit"])
    def test_malformed_series_exits_one(self, tmp_path, capsys, subcommand):
        inp = self._write_input(tmp_path, {0: 1, 2: 1})
        lines = Path(inp).read_text().splitlines()
        assert lines[3].startswith("n_coeffs=")
        lines[3] = "n_coeffs=99"
        Path(inp).write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--input", inp, "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'input'" in err
        assert f"{inp}: n_coeffs=99 but 3 coefficient lines" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["means", "orbit"])
    def test_malformed_decimal_exits_one(self, tmp_path, capsys, subcommand):
        # a coefficient decimal the reader cannot parse names the file in one line
        inp = self._write_input(tmp_path, {0: 1, 2: 1})
        lines = Path(inp).read_text().splitlines()
        assert lines[4] == "0 1.0 0.0"
        lines[4] = "0 1.5x 0.0"
        Path(inp).write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--input", inp, "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'input'" in err
        assert f"{inp}: could not convert string to float: '1.5x'" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["means", "apply"])
    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_series_precision_below_8_exits_one(self, tmp_path, capsys, subcommand, bits):
        inp = self._write_input(tmp_path, {0: 1, 2: 1})
        lines = Path(inp).read_text().splitlines()
        assert lines[2].startswith("precision_bits=")
        lines[2] = f"precision_bits={bits}"
        Path(inp).write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--input", inp, "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'input'" in err
        assert f"{inp}: precision_bits must be >= 8, got {bits}" in err
        assert not out.exists()


class TestVerifyCommands:
    def test_lemma1_band(self, tmp_path):
        out = tmp_path / "l1.csv"
        rc = main(["verify-lemma1", "--n", "1200", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "n,ratio,reciprocal"
        assert len(rows) == 1201

    @pytest.mark.parametrize("ratio,want", [
        (lambda n: 1 + mpf(n % 7) / 100, EXIT_OK),  # both halves span [1, 1.06]
        (lambda n: mpf("1.01") if n == 64 else mpf(1), EXIT_OK),  # late max at the bound
        (lambda n: mpf("1.0101") if n == 64 else mpf(1), EXIT_VERIFY),  # and just past it
        (lambda n: 1 + mpf(n) / 1000, EXIT_VERIFY),  # the band drifts up
        (lambda n: 1 - mpf(n) / 100, EXIT_VERIFY),  # and down
        (lambda n: mpf(-1) if n == 3 else mpf(1), EXIT_VERIFY),
        (lambda n: mpmath.inf if n == 40 else mpf(1), EXIT_VERIFY),
        (lambda n: mpmath.nan if n == 40 else mpf(1), EXIT_VERIFY),
    ])
    def test_lemma1_band_verdict(self, tmp_path, monkeypatch, ratio, want):
        # n = 64 splits into the early ratios 0..32 and the late ones 32..64
        monkeypatch.setattr(cli, "lemma1_ratio", lambda n, w: ratio(n))
        assert main(["verify-lemma1", "--n", "64", "-o", str(tmp_path / "l1.csv")]) == want

    def test_lemma3_grid(self, tmp_path):
        out = tmp_path / "l3.csv"
        rc = main(["verify-lemma3", "--q", "1.5", "-o", str(out),
                   "--r-min", "0.5", "--r-max", "50", "--r-points", "6",
                   "--trunc-degree", "256"])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "r,ratio"
        assert all(float(r[1]) >= 0 for r in rows)

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_lemma3_table_lets_every_sum_settle(self, prec):
        # q = 1 and alpha at the boundary, where a_n ~ n, decay the slowest; the
        # sums read the weight ratios, not the table, so n_max 0 serves them all
        alpha = mpf(-0.5) + 2 * ALPHA_BOUNDARY_GAP
        with mp.workprec(prec):
            for r_max in ("0.01", "1", "200", "3000"):
                w = DunklWeights(alpha, 0)
                assert mpmath.isfinite(lemma3_on_grid([mpf(r_max)], 1, w)[0])

    def test_lemma3_far_radius_is_cheap(self, tmp_path):
        # r = 1e7 is summed from its peak: about 1.2e5 terms and no table sized by r
        code, err, rss_mb = _main_in_child(
            "verify-lemma3", "--r-min", "1", "--r-max", "1e7", "--r-points", "4",
            "-o", str(tmp_path / "l3.csv"), timeout=10)
        assert code == EXIT_OK and err == ""
        assert rss_mb < 100

    def test_lemma3_walk_past_the_cap_exits_one(self, tmp_path):
        out = tmp_path / "l3.csv"
        code, err, _ = _main_in_child("verify-lemma3", "--r-min", "1", "--r-max", "1e15",
                                      "--r-points", "4", "-o", str(out), timeout=5)
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("verify-lemma3: ") and "r=" in err
        assert not out.exists()

    def test_lemma3_table_does_not_follow_trunc_degree(self, tmp_path):
        out = tmp_path / "l3.csv"
        rc = main(["verify-lemma3", "--trunc-degree", "1", "--precision-bits", "1024",
                   "--r-max", "200", "-o", str(out)])
        assert rc == EXIT_OK

    def test_hy_margins(self, tmp_path):
        out = tmp_path / "hy.csv"
        rc = main(["verify-hy", "--count", "5", "--max-degree", "16",
                   "--p", "1.5", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "poly,r,lhs,rhs,margin"
        assert len(rows) == 15

    @staticmethod
    def _barnes_refused_at_once(tmp_path, *flags):
        # in a child process, so that a sum that does start walking fails on the timeout
        out = tmp_path / "b.csv"
        code, err, _ = _main_in_child("verify-barnes", *flags, "-o", str(out), timeout=5)
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("verify-barnes: ")
        assert "ml_alpha" in err and "Traceback" not in err
        assert not out.exists()

    def test_barnes_tiny_ml_alpha_exits_one_at_once(self, tmp_path):
        # the terms peak near n = 1e9 at r = 1, and the walk around them passes the cap
        self._barnes_refused_at_once(tmp_path, "--ml-alpha", "1e-9", "--r-min", "1",
                                     "--r-max", "2", "--r-points", "2")

    def test_barnes_wide_peak_exits_one_at_once(self, tmp_path):
        # the terms peak near n = 9.7e5 at r = 1.0069, under the cap, but the
        # walk around the peak would pass it
        self._barnes_refused_at_once(tmp_path, "--ml-alpha", "0.001", "--r-min", "1.0069",
                                     "--r-max", "2", "--r-points", "2")

    def test_barnes_slow_fall_from_zero_exits_one_at_once(self, tmp_path):
        # at r = 0.9999 the terms peak at n = 0 and fall like 0.9999^n, past the cap
        self._barnes_refused_at_once(tmp_path, "--ml-alpha", "1e-9", "--r-min", "0.5",
                                     "--r-max", "0.9999", "--r-points", "2")

    def test_barnes_far_peak_behind_a_dip_exits_one_at_once(self, tmp_path):
        # at r = 3 the (n + 1)^-200 weight makes the terms dip after n = 0 and
        # rise again toward a peak near n = 5e49; a sum stopped in the dip
        # would write 1.0
        self._barnes_refused_at_once(tmp_path, "--ml-alpha", "0.01", "--beta", "200",
                                     "--r-min", "1", "--r-max", "3", "--r-points", "2")

    def test_barnes_ratio(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["verify-barnes", "-o", str(out),
                   "--r-min", "10000", "--r-max", "20000", "--r-points", "2"])
        assert rc == EXIT_OK
        _, _, rows = _read_csv(out)
        for r in rows:
            assert 0.95 <= float(r[3]) <= 1.05


@pytest.fixture(scope="module")
def hc_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("hc")
    out = base / "build.csv"
    rc = main(["build-hc", "--targets", "2", "-o", str(out)])
    assert rc == EXIT_OK
    return base


@pytest.fixture(scope="module")
def fhc_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("fhc")
    out = base / "build.csv"
    rc = main(["build-fhc", "--targets", "3", "--alpha", "1", "-o", str(out)])
    assert rc == EXIT_OK
    return base


def _tight_plan(base, tmp_path, r_build="2.0"):
    """The hc plan in base with every eps_k set to 1e-300 and the given build radius."""
    lines = (base / "build.plan").read_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("target "):
            cells = ln.split()
            cells[3] = "1e-300"  # target <index> <m_k> <eps_k> <coefficients>
            lines[i] = " ".join(cells)
        elif ln.startswith("r_build="):
            lines[i] = f"r_build={r_build}"
    path = tmp_path / "tight.plan"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBuildAndDiagnose:
    def test_hc_outputs(self, hc_artifacts):
        out = hc_artifacts / "build.csv"
        _, header, rows = _read_csv(out)
        assert header == "k,target_index,m_k,eps_k,target"
        assert len(rows) == 2
        assert (hc_artifacts / "build.series").exists()
        assert (hc_artifacts / "build.plan").exists()

    def test_orbit_plain(self, hc_artifacts, tmp_path):
        out = tmp_path / "orb.csv"
        rc = main(["orbit", "--input", str(hc_artifacts / "build.series"),
                   "--n", "512", "-o", str(out)])
        assert rc == EXIT_OK
        banner, header, rows = _read_csv(out)
        assert header == "n,log_abs_orbit"
        assert len(rows) == 513
        assert "sup_index=" in banner and "bounded=" in banner

    def test_orbit_plan_verifies(self, hc_artifacts, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["orbit", "--input", str(hc_artifacts / "build.series"),
                   "--plan", str(hc_artifacts / "build.plan"), "-o", str(out)])
        assert rc == EXIT_OK

    def test_orbit_plan_over_budget_exits_three(self, hc_artifacts, tmp_path, capsys):
        # block 1's budget is now far below the shadow block 2 casts on it
        rc = main(["orbit", "--input", str(hc_artifacts / "build.series"),
                   "--plan", str(_tight_plan(hc_artifacts, tmp_path)), "--n", "64",
                   "-o", str(tmp_path / "v.csv")])
        assert rc == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "block 1 residual" in err

    def test_orbit_verifier_samples_the_plan_radius(self, hc_artifacts, tmp_path):
        f, alpha, _ = read_series(str(hc_artifacts / "build.series"))
        plan = read_plan(str(_tight_plan(hc_artifacts, tmp_path, r_build="1.5")))
        assert verify_orbit_hits(f, plan, DunklWeights(alpha, f.trunc_degree)).r == mpf("1.5")

    def test_orbit_windows(self, hc_artifacts, tmp_path):
        out = tmp_path / "win.csv"
        rc = main(["orbit", "--input", str(hc_artifacts / "build.series"),
                   "--windows", "50,100", "--r-points", "64", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "rmax,C_star"
        vals = [float(r[1]) for r in rows]
        assert len(vals) == 2 and vals[1] > vals[0] > 0

    @pytest.mark.parametrize("subcommand,damage", [
        *((sub, damage) for sub in ("orbit", "frequency")
          for damage in ("truncated", "missing key", "short target line", "zero denominator",
                         "missing file", "precision_bits=0", "precision_bits=-5")),
        ("frequency", "block_width=0"),
        # an intact plan with an empty window
        ("frequency", "--n-window 0"),
    ])
    def test_malformed_plan_exits_one(self, hc_artifacts, fhc_artifacts, tmp_path,
                                      capsys, subcommand, damage):
        base = hc_artifacts if subcommand == "orbit" else fhc_artifacts
        lines = (base / "build.plan").read_text().splitlines()
        if damage == "truncated":
            lines = lines[:2]
        elif damage == "missing key":
            lines = [ln for ln in lines if not ln.startswith("trunc_degree=")]
        elif damage in ("short target line", "zero denominator"):
            row = next(i for i, ln in enumerate(lines) if ln.startswith("target "))
            lines[row] = "target" if damage == "short target line" else lines[row] + " 1/0"
        elif "=" in damage:  # one header line replaced
            key = damage.partition("=")[0] + "="
            lines = [damage if ln.startswith(key) else ln for ln in lines]
        plan = tmp_path / "bad.plan"
        if damage != "missing file":
            plan.write_text("\n".join(lines) + "\n")
        short = ["--n", "64"] if subcommand == "orbit" else ["--n-window", "64"]
        bad_option = damage.split() if damage.startswith("--") else []
        out = tmp_path / "x.csv"
        rc = main([subcommand, "--input", str(base / "build.series"), "--plan", str(plan),
                   *short, *bad_option, "-o", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if bad_option:
            assert f"'{bad_option[0][2:].replace('-', '_')}'" in err
        else:
            assert "'plan'" in err and str(plan) in err
        if damage.startswith("precision_bits="):
            assert "precision_bits must be >= 8" in err
        if damage == "block_width=0":
            assert "block_width must be >= 1" in err
        assert not out.exists()

    def test_fhc_schedule_rows(self, fhc_artifacts):
        _, header, rows = _read_csv(fhc_artifacts / "build.csv")
        assert header == "j,target_index,first_n,period,nominal_density,target"
        assert [(r[2], r[3]) for r in rows] == [("191", "16"), ("199", "32"), ("215", "64")]
        assert [r[5] for r in rows] == ["1", "-1", "z"]

    def test_frequency_passes(self, fhc_artifacts, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["frequency", "--input", str(fhc_artifacts / "build.series"),
                   "--plan", str(fhc_artifacts / "build.plan"),
                   "--n-window", "1024", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "j,hit_count,density,nominal_density"
        for r in rows:
            assert float(r[2]) >= float(r[3]) / 2

    def test_frequency_tiny_eps_fails(self, fhc_artifacts, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["frequency", "--input", str(fhc_artifacts / "build.series"),
                   "--plan", str(fhc_artifacts / "build.plan"),
                   "--eps", "1e-30", "--n-window", "512", "-o", str(out)])
        assert rc == EXIT_VERIFY

    def test_decay_on_fhc_build(self, fhc_artifacts, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["decay", "--input", str(fhc_artifacts / "build.series"),
                   "--m", "512", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "m,sigma_m,event_density"

    def test_build_infeasible_exit(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["build-hc", "--trunc-degree", "64", "-o", str(out)])
        assert rc == EXIT_INFEASIBLE

    # the radius grid in the banner is the one the builders place blocks on;
    # on the default 256-point grid these builds give (361, 420, 431, 445)
    # and m_0 = 183
    def test_build_hc_uses_the_config_grid(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["build-hc", "--targets", "4", "--r-points", "64", "-o", str(out)]) == EXIT_OK
        banner, _, rows = _read_csv(out)
        assert " r_points=64 " in banner
        assert [r[2] for r in rows] == ["361", "364", "368", "445"]
        assert read_plan(str(tmp_path / "h.plan")).positions == (361, 364, 368, 445)

    def test_build_fhc_uses_the_config_grid(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["build-fhc", "--alpha", "1", "--r-points", "64", "-o", str(out)])
        assert rc == EXIT_OK
        banner, _, _ = _read_csv(out)
        assert " m_0=136 " in banner and " r_points=64 " in banner
        assert read_plan(str(tmp_path / "g.plan")).m_0 == 136


class TestRunApi:
    def test_unknown_subcommand(self, tmp_path):
        cfg = ExperimentConfig(output=str(tmp_path / "o.csv"))
        assert run("no-such-thing", cfg) == EXIT_CONFIG

    def test_invalid_config_caught(self, tmp_path):
        cfg = ExperimentConfig(alpha="-0.9", output=str(tmp_path / "o.csv"))
        assert run("weights", cfg, {"n": 4}) == EXIT_CONFIG

    def test_option_validation_caught(self, tmp_path):
        cfg = ExperimentConfig(trunc_degree=16, output=str(tmp_path / "o.csv"))
        assert run("weights", cfg, {"n": 32}) == EXIT_CONFIG

    def test_ok_path(self, tmp_path):
        cfg = ExperimentConfig(output=str(tmp_path / "o.csv"))
        assert run("weights", cfg, {"n": 4}) == EXIT_OK

    def test_argparse_error_exits_one(self):
        # a flag without its value is one of the few errors argparse still owns
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--n"])
        assert exc.value.code == EXIT_CONFIG

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_CONFIG


def _option_cases():
    """A non-numeric value for each number-valued config field (given to
    weights) and option of every subcommand, and a value just outside its
    range where the row declares one that names no field."""
    rows = [("weights", o) for o in _CONFIG_OPTIONS]
    rows += [(sub, o) for sub, (_, _, table) in _COMMANDS.items() for o in table]
    for sub, o in rows:
        if o.parse is str:
            continue
        yield sub, o.flag, "abc"
        if o.lo is not None and not isinstance(o.lo, str):
            yield sub, o.flag, str(o.lo if o.open_lo else o.lo - 1)
        elif o.hi is not None and not isinstance(o.hi, str):
            yield sub, o.flag, str(o.hi + 1)


class TestBadInputExitsOne:
    """Every bad input exits 1 with one stderr line and writes nothing."""

    @staticmethod
    def _exits_one(capsys, argv, out):
        assert main([*argv, "-o", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: ")
        assert not out.exists()
        return err

    @pytest.mark.parametrize("sub,flag,value", list(_option_cases()))
    def test_option_from_the_table(self, tmp_path, capsys, sub, flag, value):
        # required files need not exist: options are checked before any is read
        required = [arg for o in _COMMANDS[sub][2] if o.required
                    for arg in (o.flag, str(tmp_path / o.name))]
        self._exits_one(capsys, [sub, *required, flag, value], tmp_path / "x.csv")

    @pytest.mark.parametrize("argv", [
        ["verify-lemma3", "--q", "abc"],
        ["verify-barnes", "--beta", "x"],
        ["decay", "--input", "{fhc}", "--q", "abc"],
        ["verify-hy", "--radii", "a,b"],
        ["verify-hy", "--radii", "-1", "--count", "1"],
        ["verify-hy", "--p", "3", "--count", "1"],
        ["decay", "--input", "{small}", "--m", "0"],
        ["decay", "--input", "{small}", "--m", "999999"],
        ["frequency", "--input", "{fhc}", "--plan", "{fhc_plan}", "--r", "1000"],
        ["means", "--input", "{small}", "--r-max", "inf"],
        ["orbit", "--input", "{small}", "--windows", "inf"],
        ["verify-barnes", "--beta", "nan"],
    ], ids=" ".join)
    def test_inputs_that_raised_tracebacks(self, fhc_artifacts, tmp_path, capsys, argv):
        small = tmp_path / "small.series"
        write_series(TruncatedSeries({0: 1, 3: 2}, trunc_degree=64), str(small), mpf(0),
                     precision_bits=256)
        paths = {"fhc": fhc_artifacts / "build.series", "fhc_plan": fhc_artifacts / "build.plan",
                 "small": small}
        argv = [arg.format(**paths) for arg in argv]
        self._exits_one(capsys, argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("option,value", [("windows", "50,inf"), ("beta", "nan"),
                                              ("radii", "1,-inf"), ("eps", "inf")])
    def test_non_finite_option_names_its_field(self, option, value):
        o = next(o for _, _, table in _COMMANDS.values() for o in table if o.name == option)
        with pytest.raises(ConfigError) as exc:
            o.resolve(value, ExperimentConfig())
        assert exc.value.field == option and "finite" in str(exc.value)

    @pytest.mark.parametrize("argv", [
        ["weights", "--n", "4", "--bogus", "1"],
        # abbreviations of --precision-bits and --n-window
        ["weights", "--n", "4", "--precision-bit", "64"],
        ["frequency", "--input", "f.series", "--plan", "f.plan", "--n", "100"],
        # a removed flag; the files need not exist, as it is refused before any is read
        ["frequency", "--input", "f.series", "--plan", "f.plan", "--samples", "64"],
    ], ids=" ".join)
    def test_unrecognized_arguments(self, tmp_path, capsys, argv):
        assert "unrecognized arguments" in self._exits_one(capsys, argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("argv,want", [
        (["weights", "--precision-bits", "1.5"], "--precision-bits: not an integer: '1.5'"),
        (["weights", "--n", "2.0"], "--n: not an integer: '2.0'"),
        (["weights", "--trunc-degree", "abc"], "--trunc-degree: not an integer: 'abc'"),
        (["weights", "--alpha", "x"], "--alpha: not a number: 'x'"),
        (["verify-lemma3", "--q", "abc"], "--q: not a number: 'abc'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_unparsable_value_names_what_was_expected(self, tmp_path, capsys, argv, want):
        assert want in self._exits_one(capsys, argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("p", ["1e400", "Infinity"])
    def test_p_neither_inf_nor_a_finite_float64(self, tmp_path, capsys, p):
        # 1e400 once passed the check as inf and ran as mpf 1e400; Infinity passed
        # it and failed later.  The file need not exist: p is refused before it is read.
        err = self._exits_one(capsys, ["means", "--input", "f.series", "--p", p],
                              tmp_path / "x.csv")
        assert "--p must be a finite float64 number or inf" in err

    def test_missing_or_empty_required_value(self, tmp_path, capsys):
        err = self._exits_one(capsys, ["means"], tmp_path / "x.csv")
        assert "--input is required" in err
        assert main(["weights", "--n", "4", "-o", ""]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--output is required" in err

    def test_unwritable_output(self, tmp_path, capsys):
        self._exits_one(capsys, ["weights", "--n", "4"], tmp_path / "missing" / "w.csv")

    def test_run_reports_unknown_and_missing_options(self, tmp_path, capsys):
        cfg = ExperimentConfig(output=str(tmp_path / "o.csv"))
        assert run("weights", cfg, {"N": 4}) == EXIT_CONFIG
        assert run("means", cfg, {}) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "'N'" in err[0] and "--input is required" in err[1]
        assert not (tmp_path / "o.csv").exists()


class TestModuleEntryPoint:
    def test_python_m_runs_without_runtime_warning(self, tmp_path):
        # the package loads cli on first use, so runpy finds dunkldyn.cli not yet imported
        out, want = tmp_path / "x.csv", tmp_path / "want.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "dunkldyn.cli",
             "weights", "--n", "4", "-o", str(out)],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["weights", "--n", "4", "-o", str(want)]) == EXIT_OK
        assert out.read_text().splitlines()[1:] == want.read_text().splitlines()[1:]

    def test_package_still_exports_run(self):
        assert dunkldyn.run is run and dunkldyn.ExperimentConfig is ExperimentConfig
        assert {"run", "ExperimentConfig"} <= set(dunkldyn.__all__)
        with pytest.raises(AttributeError):
            dunkldyn.no_such_name


class TestPrecisionScope:
    @pytest.mark.parametrize("ambient", [53, 512])
    def test_main_and_run_leave_precision_as_found(self, tmp_path, ambient):
        out = str(tmp_path / "w.csv")
        mp.prec = ambient
        assert main(["weights", "--n", "4", "-o", out]) == EXIT_OK
        assert mp.prec == ambient
        assert main(["weights", "--n", "4", "--precision-bits", "512", "-o", out]) == EXIT_OK
        assert mp.prec == ambient
        assert run("weights", ExperimentConfig(output=out), {"n": 4}) == EXIT_OK
        assert mp.prec == ambient
        assert run("weights", ExperimentConfig(output=out), {"n": -1}) == EXIT_CONFIG
        assert mp.prec == ambient

    def test_outputs_do_not_depend_on_ambient_precision(self, tmp_path):
        inp = tmp_path / "in.series"
        write_series(TruncatedSeries({0: 1, 2: mpf("0.3"), 5: -2}, trunc_degree=16), str(inp),
                     mpf("0.5"), precision_bits=256)
        jobs = [["weights", "--n", "64"],
                ["verify-lemma3", "--q", "1.5", "--r-min", "0.5", "--r-max", "20",
                 "--r-points", "4", "--trunc-degree", "64"],
                ["means", "--input", str(inp), "--p", "1", "--r-min", "0.5", "--r-max", "3",
                 "--r-points", "4"]]
        outputs = {}
        for ambient in (53, 512):
            mp.prec = ambient
            for i, argv in enumerate(jobs):
                out = tmp_path / f"{i}.csv"
                assert main([*argv, "-o", str(out)]) == EXIT_OK
                outputs[ambient, i] = out.read_bytes()
        assert all(outputs[53, i] == outputs[512, i] for i in range(len(jobs)))

    def test_tables_at_two_precisions_interleave(self, tmp_path):
        # 128- and 512-bit tables used alternately at ambient 256 give the
        # values apply writes at --precision-bits 128 and 512
        inp = tmp_path / "in.series"
        write_series(TruncatedSeries({1: mpf(1) / 3, 4: mpf("0.7"), 9: -mpf(2) / 7},
                                     trunc_degree=16), str(inp), mpf("0.5"), precision_bits=256)
        f, alpha, _ = read_series(str(inp))
        tables = {}
        for bits in (128, 512):
            with mp.workprec(bits):
                tables[bits] = DunklWeights(alpha, f.trunc_degree)
        library = {bits: [] for bits in tables}
        for _ in range(2):
            for bits, w in tables.items():
                library[bits].append(apply_dunkl(f, w, 2))
        assert mp.prec == 256
        for bits, (g, again) in library.items():
            assert g == again
            out = tmp_path / f"a{bits}.csv"
            assert main(["apply", "--input", str(inp), "--k", "2", "--precision-bits", str(bits),
                         "-o", str(out)]) == EXIT_OK
            _, _, rows = _read_csv(out)
            with mp.workprec(bits):
                cli_values = [(int(n), mpf(re), mpf(im)) for n, re, im in rows]
            assert cli_values == [(n, c.real, c.imag) for n, c in g.items()]


# the smallest alpha the weight table accepts, and a little above it
_NEAR_BOUNDARY = st.sampled_from([-0.5 + 2 * ALPHA_BOUNDARY_GAP, -0.5 + 1e-9, -0.49])


class TestMeansBoundaryProperty:
    """means at the edges of its domain: a finite nonnegative M_p or exit 1."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=_NEAR_BOUNDARY,
           p=st.sampled_from(["1", "2", "1000", "inf"]),
           r_min=st.sampled_from(["1e-300", "1e-12", "0.001"]),
           r_max=st.sampled_from(["2", "1e6", "1e15"]),
           full_degree=st.booleans(),
           coeffs=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=17))
    def test_exit_zero_with_finite_means_or_one_line(self, tmp_path, capsys, alpha, p, r_min,
                                                     r_max, full_degree, coeffs):
        trunc = 16
        # degree 0, or degree = trunc with the drawn coefficients below it
        cs = dict(enumerate(coeffs[:trunc])) if full_degree else {0: coeffs[0] or 1.0}
        if full_degree:
            cs[trunc] = coeffs[-1] or 1.0
        inp = tmp_path / "in.series"
        write_series(TruncatedSeries({n: mpf(c) for n, c in cs.items()}, trunc_degree=trunc),
                     str(inp), mpf(alpha), precision_bits=256)
        out = tmp_path / "m.csv"
        out.unlink(missing_ok=True)
        rc = main(["means", "--input", str(inp), "--alpha", repr(alpha), "--p", p,
                   "--r-min", r_min, "--r-max", r_max, "--r-points", "3",
                   "--trunc-degree", str(trunc), "-o", str(out)])
        err = capsys.readouterr().err
        if rc == EXIT_OK:
            _, _, rows = _read_csv(out)
            values = [mpf(row[1]) for row in rows]
            assert len(values) == 3
            assert all(mpmath.isfinite(v) and v >= 0 for v in values), values
        else:
            assert rc == EXIT_CONFIG and err.count("\n") == 1, err
