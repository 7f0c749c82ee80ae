import numpy as np
import pytest

from harmonic_sc import Panel, PanelDataError, load_csv, split


def write_csv(path, rows, header="unit,time,outcome"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


BASIC_ROWS = [
    "HK,1991,1.0",
    "HK,1992,1.1",
    "HK,1993,1.2",
    "HK,1994,1.3",
    "AUS,1991,2.0",
    "AUS,1992,2.1",
    "AUS,1993,2.2",
    "AUS,1994,2.3",
    "NZ,1991,3.0",
    "NZ,1992,3.1",
    "NZ,1993,3.2",
    "NZ,1994,3.3",
]


def test_load_csv_shapes_and_labels(tmp_path):
    panel = load_csv(write_csv(tmp_path / "p.csv", BASIC_ROWS), "HK", t0=3)
    assert panel.t0 == 3
    assert panel.t_post == 1
    assert panel.n_donors == 2
    assert panel.unit_labels == ["HK", "AUS", "NZ"]
    assert panel.donor_labels == ["AUS", "NZ"]
    assert panel.time_labels == ["1991", "1992", "1993", "1994"]
    np.testing.assert_array_equal(panel.outcomes[:, 0], [1.0, 1.1, 1.2, 1.3])


def test_load_csv_treated_moves_to_column_zero(tmp_path):
    # Treated unit appears last in the file but must land in column 0.
    rows = BASIC_ROWS[4:] + BASIC_ROWS[:4]
    panel = load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=2)
    assert panel.unit_labels[0] == "HK"
    np.testing.assert_array_equal(panel.outcomes[:, 0], [1.0, 1.1, 1.2, 1.3])
    assert panel.donor_labels == ["AUS", "NZ"]


def test_load_csv_names_a_bad_cell_by_its_labels(tmp_path):
    # NZ is the treated unit, third in the file and column 0 of the panel;
    # the message names the file's unit and time, not matrix positions.
    rows = [r.replace("NZ,1993,3.2", "NZ,1993,nan") for r in BASIC_ROWS]
    with pytest.raises(PanelDataError, match=r"nan at \(time='1993', unit='NZ'\)"):
        load_csv(write_csv(tmp_path / "p.csv", rows), "NZ", t0=3)


def test_load_csv_skips_blank_lines_and_reads_any_column_order(tmp_path):
    rows = [",".join(reversed(r.split(","))) for r in BASIC_ROWS]
    rows.insert(5, "")
    path = write_csv(tmp_path / "p.csv", rows, header="outcome,time,unit")
    panel = load_csv(path, "HK", t0=3)
    assert panel.unit_labels == ["HK", "AUS", "NZ"]
    np.testing.assert_array_equal(panel.outcomes[:, 1], [2.0, 2.1, 2.2, 2.3])
    short = write_csv(tmp_path / "s.csv", BASIC_ROWS[:5] + ["", "AUS,1992"])
    with pytest.raises(PanelDataError, match="short row at line 7"):
        load_csv(short, "HK", t0=3)


def test_load_csv_duplicate_row(tmp_path):
    rows = BASIC_ROWS + ["AUS,1992,9.9"]
    with pytest.raises(PanelDataError, match="duplicate observation"):
        load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=3)


def test_load_csv_missing_cell_names_the_gap(tmp_path):
    rows = [r for r in BASIC_ROWS if r != "NZ,1993,3.2"]
    with pytest.raises(PanelDataError, match=r"unit='NZ', time='1993'"):
        load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=3)


def test_load_csv_unknown_treated_label(tmp_path):
    with pytest.raises(PanelDataError, match="'CH' not found"):
        load_csv(write_csv(tmp_path / "p.csv", BASIC_ROWS), "CH", t0=3)


def test_load_csv_t0_consumes_all_periods(tmp_path):
    with pytest.raises(PanelDataError, match="no post-treatment periods"):
        load_csv(write_csv(tmp_path / "p.csv", BASIC_ROWS), "HK", t0=4)


def test_load_csv_unparseable_outcome_names_line(tmp_path):
    rows = BASIC_ROWS.copy()
    rows[5] = "AUS,1992,not_a_number"
    with pytest.raises(PanelDataError, match="line 7"):
        load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=3)


def test_load_csv_missing_header_column(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["HK,1991,1.0"], header="unit,year,outcome")
    with pytest.raises(PanelDataError, match="missing: time"):
        load_csv(path, "HK", t0=1)


def test_load_csv_inconsistent_time_order(tmp_path):
    rows = BASIC_ROWS.copy()
    rows[8], rows[9] = rows[9], rows[8]  # NZ's 1992 before its 1991
    with pytest.raises(PanelDataError, match="different\\s+order"):
        load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=3)


def test_load_csv_extra_time_for_one_unit(tmp_path):
    rows = [r for r in BASIC_ROWS if r != "NZ,1994,3.3"] + ["NZ,1990,0.5"]
    with pytest.raises(PanelDataError):
        load_csv(write_csv(tmp_path / "p.csv", rows), "HK", t0=2)


def test_panel_rejects_nan():
    y = np.ones((4, 3))
    y[2, 1] = np.nan
    with pytest.raises(PanelDataError, match=r"\(time=2, unit='b'\)"):
        Panel(outcomes=y, t0=2, unit_labels=["a", "b", "c"])


def test_panel_rejects_overflowing_levels():
    y = np.ones((4, 3))
    y[3, 2] = -2e100
    with pytest.raises(PanelDataError, match=r"-2e\+100 at \(time=3, unit='c'\)"):
        Panel(outcomes=y, t0=2, unit_labels=["a", "b", "c"])
    y[3, 2] = 1e100  # the largest accepted magnitude
    Panel(outcomes=y, t0=2, unit_labels=["a", "b", "c"])


def test_panel_rejects_single_donor():
    with pytest.raises(PanelDataError, match="at least 2 donors"):
        Panel(outcomes=np.ones((4, 2)), t0=2, unit_labels=["a", "b"])


def test_panel_rejects_bad_t0():
    y = np.ones((4, 3))
    labels = ["a", "b", "c"]
    for bad in (0, 4, 5, -1):
        with pytest.raises(PanelDataError, match="t0"):
            Panel(outcomes=y, t0=bad, unit_labels=labels)


def test_split_shapes():
    y = np.arange(20.0).reshape(5, 4)
    panel = Panel(outcomes=y, t0=3, unit_labels=list("abcd"))
    view = split(panel)
    assert view.y_pre.shape == (3,)
    assert view.x_pre.shape == (3, 3)
    assert view.y_post.shape == (2,)
    assert view.x_post.shape == (2, 3)
    assert (view.t0, view.t_post, view.n_donors) == (3, 2, 3)


def test_split_roundtrip_is_lossless():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(7, 5))
    panel = Panel(outcomes=y, t0=4, unit_labels=list("abcde"))
    view = split(panel)
    rebuilt = np.empty_like(y)
    rebuilt[:4, 0] = view.y_pre
    rebuilt[4:, 0] = view.y_post
    rebuilt[:4, 1:] = view.x_pre
    rebuilt[4:, 1:] = view.x_post
    np.testing.assert_array_equal(rebuilt, y)


def test_split_donor_columns_align_across_blocks(tmp_path):
    # Donors deliberately interleaved in the file; column j of x_pre and
    # x_post must track the same unit, verified against direct indexing.
    rng = np.random.default_rng(42)
    units = ["w", "treated", "k", "b"]
    times = [str(t) for t in range(6)]
    data = {(u, t): rng.normal() for u in units for t in times}
    rows = [f"{u},{t},{data[(u, t)]!r}" for t in times for u in units]
    panel = load_csv(write_csv(tmp_path / "p.csv", rows), "treated", t0=4)
    view = split(panel)
    assert panel.donor_labels == ["w", "k", "b"]
    for j, lab in enumerate(panel.donor_labels):
        np.testing.assert_array_equal(
            view.x_pre[:, j], [data[(lab, t)] for t in times[:4]]
        )
        np.testing.assert_array_equal(
            view.x_post[:, j], [data[(lab, t)] for t in times[4:]]
        )


def test_split_treated_column_matches_outcomes():
    y = np.arange(12.0).reshape(4, 3)
    panel = Panel(outcomes=y, t0=2, unit_labels=list("abc"))
    view = split(panel)
    np.testing.assert_array_equal(view.y_pre, y[:2, 0])
    np.testing.assert_array_equal(view.y_post, y[2:, 0])
