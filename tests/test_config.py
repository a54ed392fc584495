"""YAML run-configuration schema: defaults, overrides, and rejection paths."""

import dataclasses
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lwrvsl.cli as cli_module
import lwrvsl.params as params_module
import lwrvsl.scenario as scenario_module
from lwrvsl import ConfigError, parse_config, reference_scenario
from lwrvsl.config import _SCHEMA
from lwrvsl.params import MAX_FRAME_VALUES, MAX_N_CELLS


def _parse(text):
    return parse_config(textwrap.dedent(text))


class TestDefaults:
    def test_empty_document_yields_reference_setup(self):
        config = parse_config("")
        reference = reference_scenario()
        s = config.scenario
        assert s.params == reference.params
        assert s.grid.n_cells == 400
        assert s.q0 == 5e-5
        assert s.r0 == 1.0
        assert s.model == "linear"
        assert s.control_enabled
        assert s.clamp == (0.1, 2.0)
        assert s.ic_amplitude == 10.0
        assert s.bc_osc_amplitude == 5.0
        assert s.bc_osc_period == 20.0
        assert s.bc_decay_rate == reference.bc_decay_rate
        assert s.bc_growth_rate == reference.bc_growth_rate
        assert config.cfl == 0.9
        assert config.output_dir == "out"
        assert config.output_cadence == 0.5
        assert config.formats == ("csv", "json", "svg")

    def test_comment_only_document(self):
        config = parse_config("# nothing to override\n")
        assert config.scenario.q0 == 5e-5


class TestOverrides:
    def test_scalar_overrides(self):
        config = _parse(
            """
            params:
              rho_0_per_km: 40
              sim_time_s: 60
            control:
              q0: 1.0e-5
              enabled: false
            numerics:
              n_cells: 100
              cfl: 0.5
            output:
              dir: results
              cadence_s: 2.0
            """
        )
        assert config.scenario.params.rho_0 == 0.04
        assert config.scenario.params.sim_time == 60.0
        assert config.scenario.q0 == 1e-5
        assert not config.scenario.control_enabled
        assert config.scenario.grid.n_cells == 100
        assert config.cfl == 0.5
        assert config.output_dir == "results"
        assert config.output_cadence == 2.0

    def test_bc_reading_is_an_unknown_key(self):
        # the ramp rates default to the road length read in km; any other
        # ramp is given by its two rates
        with pytest.raises(ConfigError, match="unknown config key: scenario.bc_reading"):
            _parse("scenario: {bc_reading: m}\n")

    def test_explicit_rates_reproduce_the_negligible_ramp(self):
        # the ramp of the road length read in meters: 2e-3 1/s, 1.25e-4 cars/km/s
        config = _parse(
            """
            scenario:
              bc_decay_rate_per_s: 2.0e-3
              bc_growth_rate_per_km_s: 1.25e-4
            """
        )
        negligible = dataclasses.replace(
            reference_scenario(), bc_decay_rate=2e-3, bc_growth_rate=1.25e-4
        )
        assert config.scenario == negligible
        growth_only = _parse("scenario: {bc_growth_rate_per_km_s: 0.0}\n")
        assert growth_only.scenario.bc_decay_rate == 2e-6
        assert growth_only.scenario.bc_growth_rate == 0.0

    def test_clamp_override(self):
        config = _parse("control: {b_min: 0.5, b_max: 1.5}\n")
        assert config.scenario.clamp == (0.5, 1.5)

    def test_formats_string_and_deduplication(self):
        single = _parse("output: {formats: csv}\n")
        assert single.formats == ("csv",)
        config = _parse("output: {formats: [svg, csv, svg]}\n")
        assert config.formats == ("svg", "csv")

    def test_non_unit_r0_accepted(self):
        config = _parse("control: {r0: 4.0}\n")
        assert config.scenario.r0 == 4.0

    def test_nonlinear_model_selection(self):
        config = _parse("scenario: {model: nonlinear}\n")
        assert config.scenario.model == "nonlinear"


class TestRejection:
    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("params: [unclosed\n")

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- a\n- b\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section: boundary"):
            _parse("boundary: {value: 1}\n")

    def test_unknown_key_carries_full_path(self):
        with pytest.raises(ConfigError, match="unknown config key: numerics.solver"):
            _parse("numerics: {solver: upwind}\n")

    def test_unit_suffix_mismatch_hint(self):
        with pytest.raises(ConfigError, match="unit-suffix mismatch at params.sim_time"):
            _parse("params: {sim_time: 120}\n")
        with pytest.raises(
            ConfigError, match="did you mean 'bc_osc_period_s'"
        ):
            _parse("scenario: {bc_osc_period: 20}\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="must be a number"):
            _parse("params: {u_max_kph: fast}\n")
        with pytest.raises(ConfigError, match="must be an integer"):
            _parse("numerics: {n_cells: 10.5}\n")
        with pytest.raises(ConfigError, match="must be true or false"):
            _parse("control: {enabled: maybe}\n")
        with pytest.raises(ConfigError, match="must be one of"):
            _parse("scenario: {model: quantum}\n")

    def test_physical_validation_is_wrapped(self):
        with pytest.raises(ConfigError, match="congested equilibrium"):
            _parse("params: {rho_0_per_km: 90}\n")
        with pytest.raises(ConfigError, match="straddle"):
            _parse("control: {b_min: 1.5}\n")
        with pytest.raises(ConfigError, match="straddle"):
            _parse("control: {b_min: -0.5}\n")
        with pytest.raises(ConfigError, match="finite and straddle"):
            _parse("control: {b_max: .inf}\n")
        with pytest.raises(ConfigError, match="free-flow band"):
            _parse("scenario: {ic_amplitude_per_km: 50}\n")
        with pytest.raises(ConfigError, match="q0"):
            _parse("control: {q0: 0}\n")
        with pytest.raises(ConfigError, match="r0"):
            _parse("control: {r0: 0}\n")
        with pytest.raises(ConfigError, match="q0"):
            _parse("control: {q0: .nan}\n")
        with pytest.raises(ConfigError, match="r0"):
            _parse("control: {r0: .inf}\n")

    def test_numerics_validation(self):
        with pytest.raises(ConfigError, match="n_cells"):
            _parse("numerics: {n_cells: 1}\n")
        for bad in (".inf", ".nan"):
            with pytest.raises(ConfigError, match="numerics.n_cells must be an integer"):
                _parse(f"numerics: {{n_cells: {bad}}}\n")
        with pytest.raises(ConfigError, match="cfl"):
            _parse("numerics: {cfl: 1.5}\n")

    @pytest.mark.parametrize("n_cells", ["1.0e+15", str(MAX_N_CELLS + 1)])
    def test_grid_above_the_ceiling_allocates_nothing(
        self, n_cells, tmp_path, monkeypatch, capsys
    ):
        class NoAllocation:
            def __getattr__(self, name):
                raise AssertionError(f"make_grid reached numpy.{name}")

        monkeypatch.setattr(params_module, "np", NoAllocation())
        text = f"numerics: {{n_cells: {n_cells}}}\n"
        with pytest.raises(ConfigError, match=f"n_cells must be between 2 and {MAX_N_CELLS}"):
            parse_config(text)
        path = tmp_path / "huge.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_module.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert "config error: n_cells must be between" in capsys.readouterr().err
        assert not out.exists()

    def test_output_validation(self):
        with pytest.raises(ConfigError, match="formats"):
            _parse("output: {formats: [png]}\n")
        with pytest.raises(ConfigError, match="formats"):
            _parse("output: {formats: []}\n")
        with pytest.raises(ConfigError, match="dir"):
            _parse("output: {dir: ''}\n")
        with pytest.raises(ConfigError, match="cadence"):
            _parse("output: {cadence_s: 0}\n")
        with pytest.raises(ConfigError, match="cadence"):
            _parse("output: {cadence_s: .nan}\n")

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            _parse("params: 5\n")

    def test_frame_count_above_the_ceiling_allocates_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        class NoAllocation:
            def __getattr__(self, name):
                raise AssertionError(f"run_simulation reached numpy.{name}")

        # 120,000,001 frames of 401 values: parse_config takes it, run_simulation refuses
        monkeypatch.setattr(scenario_module, "np", NoAllocation())
        path = tmp_path / "dense.yaml"
        path.write_text("output: {cadence_s: 1.0e-6}\n")
        out = tmp_path / "out"
        assert cli_module.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: frame_interval=1e-06 s over sim_time=120.0 s")
        assert f"n_cells=400 asks for more than {MAX_FRAME_VALUES} values" in err
        assert not out.exists()
        argv = ["sweep", "--config", str(path), "--out", str(out), "--q0", "1e-5", "--q0", "5e-5"]
        assert cli_module.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": frame_interval=")[0] for line in err] == [
            "sweep member q0=1e-05 failed", "sweep member q0=5e-05 failed"
        ]
        assert not out.exists()

    def test_integer_beyond_the_float_range(self):
        huge = "1" + "0" * 400
        for path in ("control.q0", "numerics.n_cells"):
            section, key = path.split(".")
            with pytest.raises(ConfigError, match=f"^{path} must be a finite number$"):
                _parse(f"{section}: {{{key}: {huge}}}\n")


SCHEMA_PATHS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]


class TestTypedSchema:
    """Each key takes the type of its default, checked before any range."""

    @pytest.mark.parametrize("path", SCHEMA_PATHS)
    def test_wrong_type_names_the_key(self, path):
        section, key = path.split(".")
        default = _SCHEMA[section][key]
        # a bare string is a one-entry list, so lists and strings are given a number
        wrong = ["5"] if isinstance(default, (str, list)) else ["fast"]
        if default is not None:
            wrong.append("null")
        for value in wrong:
            with pytest.raises(ConfigError, match=f"^{path} must be "):
                _parse(f"{section}: {{{key}: {value}}}\n")

    def test_only_n_cells_is_integer_typed(self):
        # a float default written as an int literal would retype its key
        integer_typed = {
            f"{section}.{key}"
            for section, keys in _SCHEMA.items()
            for key, default in keys.items()
            if isinstance(default, int) and not isinstance(default, bool)
        }
        assert integer_typed == {"numerics.n_cells"}

    def test_values_take_their_default_type(self):
        # an int is widened for a float key, and an integral float narrowed for n_cells
        config = _parse("params: {sim_time_s: 60}\nnumerics: {n_cells: 100.0}\n")
        assert type(config.scenario.params.sim_time) is float
        assert type(config.scenario.n_cells) is int
        assert config.scenario.n_cells == 100

    def test_null_means_the_derived_number(self):
        config = _parse("scenario: {bc_decay_rate_per_s: null}\n")
        assert config.scenario.bc_decay_rate == 2e-6
        with pytest.raises(ConfigError, match="^params.b_0 must be a number, got None$"):
            _parse("params: {b_0: null}\n")

    def test_every_type_is_checked_before_any_range(self):
        # rho_0 = 90 cars/km is a congested equilibrium, but the n_cells type error comes first
        with pytest.raises(ConfigError, match="^numerics.n_cells must be an integer, got 10.5$"):
            _parse("params: {rho_0_per_km: 90}\nnumerics: {n_cells: 10.5}\n")

    def test_declared_messages(self):
        with pytest.raises(ConfigError, match="^output.dir must be a non-empty string, got ''$"):
            _parse("output: {dir: ''}\n")
        with pytest.raises(ConfigError, match="^scenario.model must be a non-empty string, got 3$"):
            _parse("scenario: {model: 3}\n")
        with pytest.raises(ConfigError, match="must be one of"):
            _parse("scenario: {model: quantum}\n")



# the amplitudes that the amplitude scale multiplies, in the units of their keys
SCALED_DATA = {
    "ic_amplitude_per_km": 10.0,
    "bc_osc_amplitude_per_km": 5.0,
    "bc_growth_rate_per_km_s": 0.125,
}
DATA_KEYS = (*SCALED_DATA, "bc_decay_rate_per_s")


class TestGeneratedRejections:
    """Scenario data that is not finite, or leaves the free-flow band, is a configuration error."""

    @settings(
        max_examples=40, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        model=st.sampled_from(["linear", "nonlinear"]),
        # either one data key set to a non-finite value, or an amplitude scale
        # outside the band: rho_0 + the largest surplus (50 + 20 s cars/km over
        # 120 s) reaches rho_max / 2 = 80 at s = 1.5, the deepest deficit 0 at s = -2.5
        case=st.tuples(st.sampled_from(DATA_KEYS), st.sampled_from([".nan", ".inf", "-.inf"]))
        | st.floats(min_value=1.51, max_value=40.0)
        | st.floats(min_value=-40.0, max_value=-2.51),
    )
    def test_rejected_before_any_run(self, model, case, tmp_path, monkeypatch, capsys):
        scale = 1.0 if isinstance(case, tuple) else case
        # a mantissa with a '.' keeps PyYAML from reading 5e-05 as a string
        fields = {key: format(value * scale, ".17e") for key, value in SCALED_DATA.items()}
        if isinstance(case, tuple):
            fields[case[0]] = case[1]
        text = f"scenario:\n  model: {model}\n" + "".join(
            f"  {key}: {value}\n" for key, value in fields.items()
        )
        with pytest.raises(ConfigError):
            parse_config(text)
        runs = []
        monkeypatch.setattr(cli_module, "run_simulation", lambda *args: runs.append(args))
        path = tmp_path / "generated.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_module.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()
