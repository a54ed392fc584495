"""Artifact writers: wide CSV series, JSON summaries, and static SVG plots.

All emitted quantities use road units at the file boundary: densities in
cars/km, speeds in km/h, positions in m, times in s, as labeled in the
headers. Every CSV file is one header line and one matrix, written by
write_wide_csv: '.' decimals, ',' separators, LF line endings, the time
(or position) in the first column and every value printed with 17
significant digits, so parsing recovers the emitted values exactly. The
bytes are those of '%.17g': numpy computes them for blocks of rows at
once, and each value whose exact digits it cannot prove (zero, NaN, inf,
a decimal exponent outside [-11, 16] or next to a power of ten, a
near-tie, or any value where np.longdouble has fewer than 64 mantissa
bits) is formatted by '%.17g' itself. SVG output is self-contained with
a fixed 64-step colormap.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from .fundamental import vsl_speed
from .params import KMH_PER_MPS, M_PER_KM
from .riccati import assemble_problem, feedback_gain, phi_closed_form
from .scenario import (
    Scenario,
    SimulationHistory,
    mass_balance_defect,
    q0_label,
    q0_members,
    target_cars,
    time_to_target,
)

_COLORMAP_ANCHORS = (
    (68, 1, 84),
    (72, 40, 120),
    (62, 74, 137),
    (49, 104, 142),
    (38, 130, 142),
    (31, 158, 137),
    (53, 183, 121),
    (109, 205, 89),
    (180, 222, 44),
    (253, 231, 37),
)

_PALETTE_SIZE = 64  # colors of the heatmap scale
_TICK_COUNT = 5  # labelled ticks per plot axis


def _build_palette() -> tuple[str, ...]:
    colors = []
    for i in range(_PALETTE_SIZE):
        x = i / (_PALETTE_SIZE - 1) * (len(_COLORMAP_ANCHORS) - 1)
        j = min(int(x), len(_COLORMAP_ANCHORS) - 2)
        frac = x - j
        rgb = tuple(
            round(a + (b - a) * frac)
            for a, b in zip(_COLORMAP_ANCHORS[j], _COLORMAP_ANCHORS[j + 1])
        )
        colors.append("#%02x%02x%02x" % rgb)
    return tuple(colors)


PALETTE = _build_palette()
_LINE_COLORS = ("#440154", "#31688e", "#35b779", "#b4de2c", "#d1495b", "#17bebb")


_FLOAT = "%.17g"  # enough digits to round-trip every double


def fmt_float(value: float) -> str:
    return _FLOAT % value


# The CSV body formatter. With E the decimal exponent of |v|, the 17 digits of
# '%.17g' are the integer nearest to y = |v| * 10**(16 - E), in [10**16, 10**17).
# With 64 or more mantissa bits, a long double holds 10**k exactly for 0 <= k <= 27
# (5**27 < 2**63) and rounds the product y once, by less than 2**-8 since
# y < 2**57, so the nearest integer is exact unless frac(y) lies within that
# error of 1/2. Every value outside these bounds (zero, NaN, inf, E outside
# [-11, 16], E missed by log10, frac(y) within _TIE of 1/2, or every value where
# long double has fewer than 64 mantissa bits) is formatted by '%.17g' itself.
_EXACT_TENS = np.finfo(np.longdouble).nmant >= 63
_TENS = np.array([10**k for k in range(28)], dtype=np.longdouble)
_LOW_E, _HIGH_E = -11, 16  # the exponents whose scaling is exact
_STDLIB = _HIGH_E - _LOW_E + 1  # layout key of the values '%.17g' formats
_TIE = 0.006  # above the 2**-8 bound on the rounding of y
_FIELD = 25  # bytes per value: the longest '%.17g' text (24) and its separator
_BLOCK_VALUES = 8192  # values formatted at once; bounds the working memory (~2 MB)


def _quad_table() -> np.ndarray:
    """The ASCII digits of 0000..9999 as little-endian uint32, then with trailing '0's NUL."""
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    trailing = np.flip(np.logical_and.accumulate(np.flip(digits == 0, 1), 1), 1)
    ascii_ = 48 + digits
    return np.concatenate((ascii_, np.where(trailing, 0, ascii_))).view("<u4").ravel()


_QUADS = _quad_table()


def _digits(mantissa: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each integer in [10**16, 10**17), trailing '0's as NUL."""
    lead = mantissa // 10**16
    low = mantissa - lead * 10**16
    head = low // 10**8
    tail = low - head * 10**8
    quads = np.empty((mantissa.size, 4), np.intp)
    quads[:, 0] = head // 10**4
    quads[:, 1] = head - quads[:, 0] * 10**4
    quads[:, 2] = tail // 10**4
    quads[:, 3] = tail - quads[:, 2] * 10**4
    # a quad is stripped if every quad after it is zero; the last one always is
    stripped = quads[:, 3] == 0
    quads[:, 3] += 10000
    quads[:, 2] += 10000 * stripped
    stripped &= quads[:, 2] == 10000
    quads[:, 1] += 10000 * stripped
    stripped &= quads[:, 1] == 10000
    quads[:, 0] += 10000 * stripped
    digits = np.empty((mantissa.size, 17), np.uint8)
    digits[:, 0] = 48 + lead
    digits[:, 1:] = _QUADS.take(quads).view(np.uint8)
    return digits


def _lay_out(fields: np.ndarray, digits: np.ndarray, exponent: int) -> None:
    """Write the '%.17g' text of digits with one exponent after each field's sign byte."""
    if 0 <= exponent <= 16:
        point = exponent + 1
        np.maximum(digits[:, :point], 48, out=fields[:, 1:point + 1])  # integer '0's stay
        if point < 17:
            fields[:, point + 1] = (digits[:, point] != 0) * np.uint8(46)
            fields[:, point + 2:19] = digits[:, point:]
    elif -4 <= exponent < 0:
        fields[:, 1:2 - exponent] = np.frombuffer(b"0.000"[:1 - exponent], np.uint8)
        fields[:, 2 - exponent:19 - exponent] = digits
    else:
        fields[:, 1] = digits[:, 0]
        fields[:, 2] = (digits[:, 1] != 0) * np.uint8(46)
        fields[:, 3:19] = digits[:, 1:]
        fields[:, 19:23] = np.frombuffer(b"e%+03d" % exponent, np.uint8)


def _csv_fields(values: np.ndarray) -> np.ndarray:
    """The '%.17g' bytes of each value of a 1-D float64 array, NUL-padded to _FIELD."""
    size = values.size
    magnitude = np.abs(values)
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(magnitude))
    exact = (exponent >= _LOW_E) & (exponent <= _HIGH_E) & _EXACT_TENS
    magnitude = np.where(exact, magnitude, 1.0)
    exponent = np.where(exact, exponent, 0).astype(np.intp)
    scaled = magnitude * _TENS[16 - exponent]
    mantissa = scaled.astype(np.int64)
    frac = (scaled - mantissa).astype(np.float64)
    mantissa += frac > 0.5
    # next to a power of ten log10 can miss E by one: scaled then leaves
    # [10**16, 10**17), or rounds to 10**17, and the value goes to '%.17g'
    exact &= (scaled >= 1e16) & (mantissa < 10**17) & (np.abs(frac - 0.5) >= _TIE)

    key = np.where(exact, exponent - _LOW_E, _STDLIB).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=_STDLIB + 1))
    fast = order[:ends[-2]]
    fields = np.zeros((size, _FIELD), np.uint8)
    fields[:fast.size, 0] = (values[fast] < 0) * np.uint8(45)
    digits = _digits(mantissa[fast])
    start = 0
    for k in np.flatnonzero(np.diff(ends[:-1], prepend=0)):
        _lay_out(fields[start:ends[k]], digits[start:ends[k]], k + _LOW_E)
        start = ends[k]
    slow = order[fast.size:]
    if slow.size:
        text = np.array([fmt_float(v) for v in values[slow].tolist()], dtype=f"S{_FIELD - 1}")
        fields[fast.size:, :-1] = text.view(np.uint8).reshape(slow.size, _FIELD - 1)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(size)
    return fields.take(inverse, axis=0)


def write_wide_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """One header line, then each row of the 2-D table, one '%.17g' text per value.

    The bytes are those of ','.join(['%.17g'] * len(header)) % row per row. numpy
    computes them for blocks of rows at once, in np.longdouble, which needs 64 or
    more mantissa bits; each value whose digits it cannot prove exact, and every
    value where np.longdouble is shorter, is formatted by '%.17g' itself. A table
    that is not 2-D, has no columns, or whose column count differs from the
    header's raises ValueError before the file is opened.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or not header or table.shape[1] != len(header):
        raise ValueError(
            f"a table of shape {table.shape} does not fit a header of {len(header)} columns"
        )
    n_cols = table.shape[1]
    step = max(1, _BLOCK_VALUES // n_cols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, table.shape[0], step):
            block = table[start:start + step]
            fields = _csv_fields(block.ravel()).reshape(block.shape[0], n_cols, _FIELD)
            fields[:, :, -1] = ord(",")
            fields[:, -1, -1] = ord("\n")
            fh.write(fields.tobytes().translate(None, b"\0"))


def write_json(path: Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_summary(history: SimulationHistory) -> dict:
    """Stable-keyed summary of one run, in road units."""
    scenario = history.scenario
    p = scenario.params
    low, high = float(history.density_frames.min()), float(history.density_frames.max())
    target = target_cars(p)
    summary = {
        "model": scenario.model,
        "control_enabled": scenario.control_enabled,
        "q0": scenario.q0,
        "r0": scenario.r0,
        "n_cells": scenario.grid.n_cells,
        "cfl": history.cfl,
        "output_cadence_s": history.frame_interval,
        "frames": int(history.times.size),
        "params": {
            "rho_max_per_km": p.rho_max * M_PER_KM,
            "u_max_kph": p.u_max * KMH_PER_MPS,
            "rho_0_per_km": p.rho_0 * M_PER_KM,
            "b_0": p.b_0,
            "road_length_m": p.road_length,
            "sim_time_s": p.sim_time,
        },
        "scenario": {
            "ic_amplitude_per_km": scenario.ic_amplitude,
            "bc_osc_amplitude_per_km": scenario.bc_osc_amplitude,
            "bc_osc_period_s": scenario.bc_osc_period,
            "bc_decay_rate_per_s": scenario.bc_decay_rate,
            "bc_growth_rate_per_km_s": scenario.bc_growth_rate,
            "b_min": scenario.clamp[0],
            "b_max": scenario.clamp[1],
        },
        "target_cars": target,
        "initial_total_cars": float(history.total_cars_series[0]),
        "final_total_cars": float(history.total_cars_series[-1]),
        "min_density_per_km": low * M_PER_KM,
        "max_density_per_km": high * M_PER_KM,
        "time_to_target_s": time_to_target(history.times, history.total_cars_series, target),
    }
    if scenario.model == "nonlinear":
        defect, relative = mass_balance_defect(history)
        summary["mass_balance"] = {
            "inflow_cars": history.inflow_cars,
            "outflow_cars": history.outflow_cars,
            "defect_cars": defect,
            "defect_relative": relative,
        }
    return summary


def _svg_open(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _text(x: float, y: float, content: str, anchor: str = "middle", extra: str = "") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'fill="#222222"{extra}>{content}</text>'
    )


def _ticks(low: float, high: float) -> np.ndarray:
    return np.linspace(low, high, _TICK_COUNT)


def svg_heatmap(
    path: Path,
    times: np.ndarray,
    positions: np.ndarray,
    matrix: np.ndarray,
    *,
    title: str,
    value_label: str,
) -> None:
    """Self-contained (z, t) heatmap: position across, time upward.

    Raises ValueError if the matrix holds a NaN or an infinite value.
    """
    width, height = 720, 520
    left, right, top, bottom = 80, 130, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom

    stride_t = max(1, int(np.ceil(times.size / 240)))
    stride_z = max(1, int(np.ceil(positions.size / 240)))
    m_sub = matrix[::stride_t, ::stride_z]

    vmin, vmax = float(m_sub.min()), float(m_sub.max())
    span = vmax - vmin
    if not np.isfinite(span):
        raise ValueError(f"heatmap {title!r} needs finite values, got range [{vmin}, {vmax}]")
    parts = _svg_open(width, height)
    parts.append(_text(width / 2, 24, f"{title} [{value_label}]"))

    # int((v - vmin) / span * 63) per value, the same IEEE operations and truncation;
    # a flat matrix (span 0) has v - vmin = 0 everywhere, so it maps to colour 0
    index = ((m_sub - vmin) / (span or 1.0) * (len(PALETTE) - 1)).astype(np.intp)
    fills = np.array(PALETTE, dtype=object)[np.clip(index, 0, len(PALETTE) - 1)].tolist()
    cell_w = plot_w / m_sub.shape[1]
    cell_h = plot_h / m_sub.shape[0]
    heads = [f'<rect x="{left + j * cell_w:.2f}" y="' for j in range(m_sub.shape[1])]
    size = f'" width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" fill="'
    for i, row in enumerate(fills):
        # time increases upward: row 0 sits at the bottom of the plot
        middle = f"{top + plot_h - (i + 1) * cell_h:.2f}{size}"
        parts.extend([f'{head}{middle}{fill}"/>' for head, fill in zip(heads, row)])

    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#222222"/>'
    )
    for z in _ticks(float(positions[0]), float(positions[-1])):
        x = left + (z - positions[0]) / max(positions[-1] - positions[0], 1e-300) * plot_w
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 5}" stroke="#222222"/>')
        parts.append(_text(x, top + plot_h + 20, f"{z:.6g}"))
    for t in _ticks(float(times[0]), float(times[-1])):
        y = top + plot_h - (t - times[0]) / max(times[-1] - times[0], 1e-300) * plot_h
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="#222222"/>')
        parts.append(_text(left - 10, y + 4, f"{t:.6g}", anchor="end"))
    parts.append(_text(left + plot_w / 2, height - 16, "z [m]"))
    parts.append(
        _text(24, top + plot_h / 2, "t [s]",
              extra=f' transform="rotate(-90 24 {top + plot_h / 2:.2f})"')
    )

    bar_x = width - right + 30
    bar_h = plot_h / len(PALETTE)
    for k, color in enumerate(PALETTE):
        y = top + plot_h - (k + 1) * bar_h
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="18" height="{bar_h + 0.5:.2f}" '
            f'fill="{color}"/>'
        )
    parts.append(
        f'<rect x="{bar_x}" y="{top}" width="18" height="{plot_h}" '
        'fill="none" stroke="#222222"/>'
    )
    parts.append(_text(bar_x + 26, top + plot_h + 4, f"{vmin:.6g}", anchor="start"))
    parts.append(_text(bar_x + 26, top + 10, f"{vmax:.6g}", anchor="start"))
    parts.append(
        _text(bar_x + 26, top + plot_h / 2 + 4, f"{(vmin + vmax) / 2:.6g}", anchor="start")
    )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_lineplot(
    path: Path,
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Self-contained family-of-curves plot with a simple legend."""
    width, height = 720, 480
    left, right, top, bottom = 90, 40, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom

    y_min = min(float(np.min(y)) for _, y in series)
    y_max = max(float(np.max(y)) for _, y in series)
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_lo, y_hi = y_min - pad, y_max + pad
    x_lo, x_hi = float(x[0]), float(x[-1])

    def sx(value: float) -> float:
        return left + (value - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return top + plot_h - (value - y_lo) / (y_hi - y_lo) * plot_h

    parts = _svg_open(width, height)
    parts.append(_text(width / 2, 24, title))
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#222222"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(tick):.2f}" y1="{top + plot_h}" '
                     f'x2="{sx(tick):.2f}" y2="{top + plot_h + 5}" stroke="#222222"/>')
        parts.append(_text(sx(tick), top + plot_h + 20, f"{tick:.6g}"))
    for tick in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{left - 5}" y1="{sy(tick):.2f}" '
                     f'x2="{left}" y2="{sy(tick):.2f}" stroke="#222222"/>')
        parts.append(_text(left - 10, sy(tick) + 4, f"{tick:.4g}", anchor="end"))
    parts.append(_text(left + plot_w / 2, height - 16, x_label))
    parts.append(
        _text(26, top + plot_h / 2, y_label,
              extra=f' transform="rotate(-90 26 {top + plot_h / 2:.2f})"')
    )
    for k, (label, y) in enumerate(series):
        color = _LINE_COLORS[k % len(_LINE_COLORS)]
        points = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = top + 16 + 16 * k
        parts.append(f'<line x1="{left + plot_w - 120}" y1="{legend_y - 4}" '
                     f'x2="{left + plot_w - 96}" y2="{legend_y - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(_text(left + plot_w - 90, legend_y, label, anchor="start"))
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


@contextlib.contextmanager
def _artifact_set(out_dir: Path | str):
    """Yield (written, reserve): reserve(name) adds out_dir/name to written.

    out_dir is created first; on failure every reserved file is removed.
    A reserved name that is not a removable file, such as a directory that
    was in the way, is left as it is.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def reserve(name: str) -> Path:
        written.append(out / name)
        return written[-1]

    try:
        yield written, reserve
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise


def write_run_artifacts(
    out_dir: Path | str, history: SimulationHistory, formats: tuple[str, ...]
) -> list[Path]:
    """Write the per-run file set; on failure remove partial files.

    The density is the recorded one, absolute on both plants. The speed
    per cell is b u_max (1 - rho/rho_max), with b averaged from the two
    interfaces of the cell. The density and speed matrices in road units
    are built only for the csv and svg formats, which write them.
    """
    grid = history.scenario.grid
    vsl = history.vsl_frames
    if "csv" in formats or "svg" in formats:
        density = history.density_frames * M_PER_KM
        b_cells = 0.5 * (vsl[:, :-1] + vsl[:, 1:])
        speed = vsl_speed(history.density_frames, b_cells, history.scenario.params) * KMH_PER_MPS

    with _artifact_set(out_dir) as (written, reserve):
        if "csv" in formats:
            cells = [f"z_m={fmt_float(z)}" for z in grid.cell_centers]
            interfaces = [f"z_m={fmt_float(z)}" for z in grid.interfaces]
            for name, header, matrix in (
                ("density.csv", ["t_s/density_cars_per_km", *cells], density),
                ("speed.csv", ["t_s/speed_kph", *cells], speed),
                ("vsl.csv", ["t_s/vsl_rate", *interfaces], vsl),
                ("control.csv", ["t_s/dbdz_per_m", *interfaces], history.control_frames),
                ("total_cars.csv", ["t_s", "total_cars"], history.total_cars_series),
            ):
                write_wide_csv(reserve(name), header, np.column_stack((history.times, matrix)))
        if "json" in formats:
            write_json(reserve("summary.json"), run_summary(history))
        if "svg" in formats:
            svg_heatmap(
                reserve("density.svg"), history.times, grid.cell_centers, density,
                title="Density", value_label="cars/km",
            )
            svg_heatmap(
                reserve("speed.svg"), history.times, grid.cell_centers, speed,
                title="Speed", value_label="km/h",
            )
            svg_heatmap(
                reserve("vsl.svg"), history.times, grid.interfaces, vsl,
                title="VSL rate b", value_label="-",
            )
    return written


def write_sweep_artifacts(
    out_dir: Path | str,
    times: np.ndarray,
    members: list[tuple[Scenario, np.ndarray]],
    failures: dict[str, str],
    formats: tuple[str, ...],
) -> list[Path]:
    """The combined sweep files over the member runs; on failure remove partial files.

    members holds (scenario, total_cars_series) per member written, in
    sweep order; the scenarios differ only in q0, and every series has
    one total per entry of the shared times. failures maps the q0 label
    of each member left out to its message.
    """
    target = target_cars(members[0][0].params)
    by_label = {q0_label(scenario.q0): series for scenario, series in members}
    with _artifact_set(out_dir) as (written, reserve):
        if "csv" in formats:
            write_wide_csv(
                reserve("total_cars_sweep.csv"),
                ["t_s", *(f"total_cars[q0={label}]" for label in by_label)],
                np.column_stack((times, *by_label.values())),
            )
        if "json" in formats:
            payload = {
                "q0_values": [scenario.q0 for scenario, _ in members],
                "target_cars": target,
                "final_total_cars": {
                    label: float(series[-1]) for label, series in by_label.items()
                },
                "time_to_target_s": {
                    label: time_to_target(times, series, target)
                    for label, series in by_label.items()
                },
                "failures": failures,
            }
            write_json(reserve("sweep_summary.json"), payload)
        if "svg" in formats:
            svg_lineplot(
                reserve("total_cars_sweep.svg"), times,
                [(f"q0={label}", series) for label, series in by_label.items()],
                title="Total cars on the road section", x_label="t [s]", y_label="total cars",
            )
    return written


def write_riccati_artifacts(
    out_dir: Path | str,
    scenario: Scenario,
    q0_values: list[float],
    formats: tuple[str, ...],
) -> list[Path]:
    """Phi and gain profiles per q0: CSV columns, JSON endpoints, SVG curves.

    q0_members checks q0_values before anything is written.
    """
    z = scenario.grid.interfaces
    profiles = []
    for member in q0_members(scenario, q0_values):
        problem = assemble_problem(member.params, member.q0, member.r0)
        label = q0_label(member.q0)
        profiles.append((label, phi_closed_form(z, problem), feedback_gain(z, problem)))

    with _artifact_set(out_dir) as (written, reserve):
        if "csv" in formats:
            header = ["z_m"]
            columns = [z]
            for label, phi, gain in profiles:
                header += [f"phi[q0={label}]", f"k0_per_m[q0={label}]"]
                columns += [phi, gain]
            write_wide_csv(reserve("riccati.csv"), header, np.column_stack(columns))
        if "json" in formats:
            payload = {
                "q0_values": list(q0_values),
                "phi_at_0": {label: float(phi[0]) for label, phi, _ in profiles},
                "gain_at_0_per_m": {label: float(g[0]) for label, _, g in profiles},
                "road_length_m": scenario.params.road_length,
            }
            write_json(reserve("riccati_summary.json"), payload)
        if "svg" in formats:
            svg_lineplot(
                reserve("riccati_phi.svg"), z,
                [(f"q0={label}", phi) for label, phi, _ in profiles],
                title="State feedback function Phi(z)", x_label="z [m]", y_label="Phi",
            )
            svg_lineplot(
                reserve("riccati_gain.svg"), z,
                [(f"q0={label}", gain) for label, _, gain in profiles],
                title="Feedback gain K0(z)", x_label="z [m]", y_label="K0 [1/m]",
            )
    return written
