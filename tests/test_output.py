"""Artifact writers: wide CSV, deterministic JSON, and self-contained SVG."""

import json

import numpy as np
import pytest

from lwrvsl import (
    absolute_density,
    assemble_problem,
    feedback_gain,
    phi_closed_form,
    reference_scenario,
    run_simulation,
    sweep_q0,
    write_riccati_artifacts,
    write_run_artifacts,
)
from lwrvsl import output as output_module
from lwrvsl.output import (
    PALETTE,
    fmt_float,
    run_summary,
    svg_heatmap,
    svg_lineplot,
    write_json,
    write_sweep_artifacts,
    write_wide_csv,
)


@pytest.fixture(scope="module")
def linear_run():
    scenario = reference_scenario(model="linear", n_cells=16, sim_time=4.0)
    return run_simulation(scenario, frame_interval=1.0)


@pytest.fixture(scope="module")
def nonlinear_run():
    scenario = reference_scenario(model="nonlinear", n_cells=16, sim_time=4.0)
    return run_simulation(scenario, frame_interval=1.0)


def _reference_rects(matrix):
    """The <rect> lines of a 720 x 520 heatmap, one colour index per value as first written."""
    left, top, plot_w, plot_h = 80, 50, 510, 410
    stride_t = max(1, int(np.ceil(matrix.shape[0] / 240)))
    stride_z = max(1, int(np.ceil(matrix.shape[1] / 240)))
    m_sub = matrix[::stride_t, ::stride_z]
    vmin, vmax = float(m_sub.min()), float(m_sub.max())
    span = vmax - vmin
    cell_w = plot_w / m_sub.shape[1]
    cell_h = plot_h / m_sub.shape[0]
    rects = []
    for i in range(m_sub.shape[0]):
        y = top + plot_h - (i + 1) * cell_h
        for j in range(m_sub.shape[1]):
            index = 0 if span == 0.0 else int((m_sub[i, j] - vmin) / span * (len(PALETTE) - 1))
            index = min(max(index, 0), len(PALETTE) - 1)
            rects.append(
                f'<rect x="{left + j * cell_w:.2f}" y="{y:.2f}" '
                f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" '
                f'fill="{PALETTE[index]}"/>'
            )
    return rects


class TestFloatFormatting:
    def test_round_trips_doubles_exactly(self):
        for value in (0.1, 1.0 / 3.0, 115.0 / 3.6, 1e-17, -2.5e300):
            assert float(fmt_float(value)) == value

    def test_integral_values_stay_short(self):
        assert fmt_float(120.0) == "120"
        assert fmt_float(0.0) == "0"


class TestPalette:
    def test_shape_and_format(self):
        assert len(PALETTE) == 64
        assert all(
            c.startswith("#") and len(c) == 7 and set(c[1:]) <= set("0123456789abcdef")
            for c in PALETTE
        )

    def test_anchors(self):
        assert PALETTE[0] == "#440154"
        assert PALETTE[-1] == "#fde725"


def _read_table(path):
    """Header cells and the float matrix of a CSV written by write_wide_csv."""
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


class TestCsvWriters:
    def test_wide_csv_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        table = np.array(
            [[0.0, 1.0 / 3.0, 2.0 / 7.0], [0.5, 50.1234, 0.0], [1e-17, -0.0, -2.5e300]]
        )
        write_wide_csv(path, ["t_s/value", "z_m=0", "z_m=12.5"], table)
        header, parsed = _read_table(path)
        assert header == ["t_s/value", "z_m=0", "z_m=12.5"]
        assert parsed.tobytes() == table.tobytes()

    def test_total_cars_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_wide_csv(path, ["t_s", "total_cars"], np.array([[0.0, 100.0], [1.0, 101.5]]))
        lines = path.read_text().splitlines()
        assert lines == ["t_s,total_cars", "0,100", "1,101.5"]
        write_wide_csv(path, ["t_s", "a[q0=1]", "b"], np.array([[0.0, 2.0, 0.5]]))
        assert path.read_text() == "t_s,a[q0=1],b\n0,2,0.5\n"


class TestJsonWriter:
    def test_sorted_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        payload = {"zeta": 1, "alpha": {"b": 2.5, "a": None}}
        write_json(a, payload)
        write_json(b, dict(reversed(payload.items())))
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.endswith("}\n")
        assert text.index('"alpha"') < text.index('"zeta"')
        assert json.loads(text) == payload


class TestRunSummary:
    def test_linear_summary_fields(self, linear_run):
        history = linear_run
        summary = run_summary(history)
        assert summary["model"] == "linear"
        assert summary["control_enabled"] is True
        assert summary["q0"] == 5e-5
        assert summary["n_cells"] == 16
        assert summary["frames"] == 5
        assert summary["params"]["rho_max_per_km"] == pytest.approx(160.0, rel=1e-12)
        assert summary["params"]["u_max_kph"] == pytest.approx(115.0, rel=1e-12)
        assert summary["scenario"]["ic_amplitude_per_km"] == 10.0
        assert summary["target_cars"] == 100.0
        assert summary["initial_total_cars"] == history.total_cars_series[0]
        assert summary["final_total_cars"] == history.total_cars_series[-1]
        assert summary["min_density_per_km"] < summary["max_density_per_km"]
        assert "mass_balance" not in summary
        # 4 s is too short to regulate back to the 5% band
        assert summary["time_to_target_s"] is None or summary["time_to_target_s"] >= 0.0

    def test_nonlinear_summary_reports_mass_balance(self, nonlinear_run):
        history = nonlinear_run
        summary = run_summary(history)
        balance = summary["mass_balance"]
        assert balance["inflow_cars"] > 0.0
        assert balance["outflow_cars"] > 0.0
        assert balance["defect_relative"] < 1e-9

    def test_summary_is_json_serializable(self, linear_run, tmp_path):
        history = linear_run
        write_json(tmp_path / "s.json", run_summary(history))
        loaded = json.loads((tmp_path / "s.json").read_text())
        assert loaded["params"]["road_length_m"] == 2000.0


class TestSvgWriters:
    def test_heatmap_structure(self, tmp_path):
        path = tmp_path / "h.svg"
        times = np.linspace(0.0, 4.0, 5)
        positions = np.linspace(62.5, 1937.5, 16)
        matrix = np.outer(np.linspace(50.0, 55.0, 5), np.ones(16))
        svg_heatmap(path, times, positions, matrix, title="Density", value_label="cars/km")
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "<svg xmlns=" in text
        assert text.endswith("</svg>\n")
        assert "Density" in text
        assert text.count("<rect") > 16

    def test_heatmap_constant_field(self, tmp_path):
        path = tmp_path / "c.svg"
        svg_heatmap(
            path,
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.full((2, 2), 7.0),
            title="Flat",
            value_label="-",
        )
        assert "Flat" in path.read_text()

    @pytest.mark.parametrize(
        "case",
        [
            "nonlinear_history",
            "stride_2_by_3",  # 479 x 719
            "stride_3_by_4",  # 481 x 721
            "constant",
            "maximum_hit",
            "single_row",
        ],
    )
    def test_heatmap_rects_match_the_per_rect_loop(self, case, nonlinear_run, tmp_path):
        rng = np.random.default_rng(7)
        if case == "nonlinear_history":
            history = nonlinear_run
            matrix = absolute_density(history) * 1000.0
        elif case == "stride_2_by_3":
            matrix = rng.normal(50.0, 5.0, (479, 719))
        elif case == "stride_3_by_4":
            matrix = rng.normal(50.0, 5.0, (481, 721))
        elif case == "constant":
            matrix = np.full((3, 5), 7.0)
        elif case == "maximum_hit":
            # values on every palette boundary k * span / 63, the last one the maximum
            matrix = (np.arange(64.0) * 0.1).reshape(4, 16)
        else:
            matrix = np.linspace(-1.0, 3.0, 37).reshape(1, 37)
        path = tmp_path / "h.svg"
        times = np.linspace(0.0, 120.0, matrix.shape[0])
        positions = np.linspace(0.0, 2000.0, matrix.shape[1])
        svg_heatmap(path, times, positions, matrix, title="T", value_label="-")
        expected = _reference_rects(matrix)
        lines = path.read_text().splitlines()
        # after the XML header, the <svg> tag, the background and the title
        assert lines[4:4 + len(expected)] == expected
        assert 'fill="none"' in lines[4 + len(expected)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_heatmap_rejects_non_finite_values(self, bad, tmp_path):
        matrix = np.full((3, 4), 5.0)
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            svg_heatmap(
                tmp_path / "h.svg", np.arange(3.0), np.arange(4.0), matrix,
                title="T", value_label="-",
            )

    def test_lineplot_structure(self, tmp_path):
        path = tmp_path / "l.svg"
        x = np.linspace(0.0, 2000.0, 21)
        series = [("q0=1e-06", np.linspace(1.0, 0.0, 21)), ("q0=0.0005", x / 2000.0)]
        svg_lineplot(path, x, series, title="Gain", x_label="z [m]", y_label="K0")
        text = path.read_text()
        assert text.startswith("<?xml")
        assert text.endswith("</svg>\n")
        assert text.count("<polyline") == 2
        assert "q0=1e-06" in text
        assert "q0=0.0005" in text
        assert "Gain" in text


class TestRunArtifacts:
    def test_full_format_set(self, linear_run, tmp_path):
        history = linear_run
        out = tmp_path / "run"
        written = write_run_artifacts(out, history, ("csv", "json", "svg"))
        names = sorted(p.name for p in written)
        assert names == [
            "control.csv",
            "density.csv",
            "density.svg",
            "speed.csv",
            "speed.svg",
            "summary.json",
            "total_cars.csv",
            "vsl.csv",
            "vsl.svg",
        ]
        assert all(p.exists() for p in written)

    def test_density_csv_contents(self, linear_run, tmp_path):
        history = linear_run
        written = write_run_artifacts(tmp_path / "run", history, ("csv",))
        density_path = next(p for p in written if p.name == "density.csv")
        lines = density_path.read_text().splitlines()
        assert lines[0].startswith("t_s/density_cars_per_km,z_m=62.5,z_m=187.5")
        assert len(lines) == 1 + len(history.times)
        first_row = [float(cell) for cell in lines[1].split(",")]
        assert first_row[0] == 0.0
        expected = absolute_density(history)[0] * 1000.0
        assert np.array_equal(np.array(first_row[1:]), expected)

    def test_speed_csv_contents(self, nonlinear_run, tmp_path):
        # per frame: b averaged to the cells times the Greenshield speed, in km/h
        history = nonlinear_run
        p = history.scenario.params
        written = write_run_artifacts(tmp_path / "run", history, ("csv",))
        speed_path = next(path for path in written if path.name == "speed.csv")
        lines = speed_path.read_text().splitlines()
        assert lines[0].startswith("t_s/speed_kph,z_m=62.5,")
        for line, rho, b in zip(lines[1:], history.density_frames, history.vsl_frames):
            b_cells = 0.5 * (b[:-1] + b[1:])
            expected = b_cells * (p.u_max * (1.0 - rho / p.rho_max)) * 3.6
            assert np.array_equal([float(cell) for cell in line.split(",")[1:]], expected)
        assert any(np.any(b != 1.0) for b in history.vsl_frames)

    def test_vsl_csv_covers_interfaces(self, linear_run, tmp_path):
        history = linear_run
        written = write_run_artifacts(tmp_path / "run", history, ("csv",))
        vsl_path = next(p for p in written if p.name == "vsl.csv")
        header = vsl_path.read_text().splitlines()[0]
        assert header.startswith("t_s/vsl_rate,z_m=0,")
        assert header.endswith("z_m=2000")
        assert len(header.split(",")) == 1 + 17

    def test_csv_only(self, linear_run, tmp_path):
        history = linear_run
        written = write_run_artifacts(tmp_path / "run", history, ("csv",))
        assert sorted(p.name for p in written) == [
            "control.csv",
            "density.csv",
            "speed.csv",
            "total_cars.csv",
            "vsl.csv",
        ]

    def test_json_only_builds_no_frame_matrices(self, nonlinear_run, tmp_path, monkeypatch):
        # the speed matrix feeds only speed.csv and speed.svg
        def boom(*args, **kwargs):
            raise AssertionError("vsl_speed called for a json-only write")

        monkeypatch.setattr(output_module, "vsl_speed", boom)
        written = write_run_artifacts(tmp_path / "run", nonlinear_run, ("json",))
        assert [p.name for p in written] == ["summary.json"]
        assert json.loads(written[0].read_text()) == run_summary(nonlinear_run)

    def test_partial_failure_removes_files(self, linear_run, tmp_path, monkeypatch):
        history = linear_run

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(output_module, "svg_heatmap", boom)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="disk full"):
            write_run_artifacts(out, history, ("csv", "svg"))
        assert list(out.iterdir()) == []


class TestSweepArtifacts:
    def test_total_cars_sweep_csv_reads_back_bitwise(self, tmp_path):
        scenario = reference_scenario(model="nonlinear", n_cells=16, sim_time=4.0)
        members, failures = sweep_q0(scenario, [1e-5, 5e-4], frame_interval=1.0)
        write_sweep_artifacts(tmp_path, members, failures, ("csv",))
        header, table = _read_table(tmp_path / "total_cars_sweep.csv")
        assert header == ["t_s", "total_cars[q0=1e-05]", "total_cars[q0=0.0005]"]
        assert table[:, 0].tobytes() == members[0].times.tobytes()
        for column, member in zip(table[:, 1:].T, members):
            assert column.tobytes() == member.total_cars_series.tobytes()


class TestRiccatiArtifacts:
    def test_csv_and_json(self, tmp_path):
        scenario = reference_scenario(n_cells=10)
        written = write_riccati_artifacts(
            tmp_path, scenario, [5e-5, 5e-4], ("csv", "json")
        )
        assert sorted(p.name for p in written) == [
            "riccati.csv",
            "riccati_summary.json",
        ]
        header, table = _read_table(tmp_path / "riccati.csv")
        assert header == [
            "z_m", "phi[q0=5e-05]", "k0_per_m[q0=5e-05]", "phi[q0=0.0005]", "k0_per_m[q0=0.0005]"
        ]
        z = scenario.grid.interfaces
        assert table.shape == (11, 5)
        assert table[:, 0].tobytes() == z.tobytes()
        for k, q0 in enumerate((5e-5, 5e-4)):
            problem = assemble_problem(scenario.params, q0, scenario.r0)
            assert table[:, 1 + 2 * k].tobytes() == phi_closed_form(z, problem).tobytes()
            assert table[:, 2 + 2 * k].tobytes() == feedback_gain(z, problem).tobytes()
        assert table[-1, 0] == 2000.0
        assert np.all(table[-1, 1:] == 0.0)
        payload = json.loads((tmp_path / "riccati_summary.json").read_text())
        assert payload["q0_values"] == [5e-5, 5e-4]
        assert payload["road_length_m"] == 2000.0
        assert payload["phi_at_0"]["5e-05"] == pytest.approx(
            0.005542950940357987, rel=1e-13
        )
        assert payload["gain_at_0_per_m"]["0.0005"] == pytest.approx(
            0.022348386950996963, rel=1e-13
        )

    def test_svg_curves(self, tmp_path):
        scenario = reference_scenario(n_cells=10)
        written = write_riccati_artifacts(tmp_path, scenario, [1e-5], ("svg",))
        assert sorted(p.name for p in written) == [
            "riccati_gain.svg",
            "riccati_phi.svg",
        ]
        for path in written:
            assert path.read_text().endswith("</svg>\n")
