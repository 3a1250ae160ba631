"""Command-line interface: config layering, CSV output, exit codes."""

import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

from dunkldyn.cli import (
    _COMMANDS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY,
    PRECISION_ENV_VAR,
    ConfigError,
    ExperimentConfig,
    _roundtrip_check,
    load_config,
    main,
    read_config_file,
    run,
)
from dunkldyn.dunkl import ALPHA_BOUNDARY_GAP
from dunkldyn.series import TruncatedSeries, read_series, write_series


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

    def test_env_sets_precision(self, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "192")
        assert load_config(None, {}).precision_bits == 192

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "192")
        assert load_config(None, {"precision_bits": 128}).precision_bits == 128

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "lots")
        with pytest.raises(ConfigError):
            load_config(None, {})

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


class TestVerifyCommands:
    def test_lemma1_band(self, tmp_path):
        out = tmp_path / "l1.csv"
        rc = main(["verify-lemma1", "--n", "1200", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "n,ratio,reciprocal"
        assert len(rows) == 1201

    def test_lemma3_grid(self, tmp_path):
        out = tmp_path / "l3.csv"
        rc = main(["verify-lemma3", "--q", "1.5", "-o", str(out),
                   "--r-min", "0.5", "--r-max", "50", "--r-points", "6",
                   "--trunc-degree", "256"])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "r,ratio"
        assert all(float(r[1]) >= 0 for r in rows)

    def test_hy_margins(self, tmp_path):
        out = tmp_path / "hy.csv"
        rc = main(["verify-hy", "--count", "5", "--max-degree", "16",
                   "--p", "1.5", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "poly,r,lhs,rhs,margin"
        assert len(rows) == 15

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
        # an intact plan with an empty circle or window
        ("frequency", "--samples 0"), ("frequency", "--samples -3"),
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
        elif damage.startswith("precision_bits="):
            lines = [damage if ln.startswith("precision_bits=") else ln for ln in lines]
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
                   "--n-window", "1024", "--samples", "32", "-o", str(out)])
        assert rc == EXIT_OK
        _, header, rows = _read_csv(out)
        assert header == "j,hit_count,density,nominal_density"
        for r in rows:
            assert float(r[2]) >= float(r[3]) / 2

    def test_frequency_tiny_eps_fails(self, fhc_artifacts, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["frequency", "--input", str(fhc_artifacts / "build.series"),
                   "--plan", str(fhc_artifacts / "build.plan"),
                   "--eps", "1e-30", "--n-window", "512", "--samples", "16",
                   "-o", str(out)])
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
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--precision-bits", "many"])
        assert exc.value.code == EXIT_CONFIG

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_CONFIG


def _option_cases():
    """A non-numeric value for each number-valued option of every subcommand,
    and a value just outside its range where the option declares one."""
    for sub, (_, _, table) in _COMMANDS.items():
        for o in table:
            if o.parse is str:
                continue
            yield sub, o.flag, "abc"
            if o.lo is not None:
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

    def test_unwritable_output(self, tmp_path, capsys):
        self._exits_one(capsys, ["weights", "--n", "4"], tmp_path / "missing" / "w.csv")

    def test_run_reports_unknown_and_missing_options(self, tmp_path, capsys):
        cfg = ExperimentConfig(output=str(tmp_path / "o.csv"))
        assert run("weights", cfg, {"N": 4}) == EXIT_CONFIG
        assert run("means", cfg, {}) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "'N'" in err[0] and "--input is required" in err[1]
        assert not (tmp_path / "o.csv").exists()


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
