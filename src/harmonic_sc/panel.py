"""Balanced-panel data model and long-format CSV ingestion.

A :class:`Panel` holds the outcome paths of one treated unit and its donor
pool over a common time grid, together with the number of pre-treatment
periods.  :class:`PrePostView` exposes the four array blocks every estimator
in this package consumes: the treated unit's pre/post outcome vectors and the
donors' pre/post outcome matrices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


#: Largest outcome magnitude accepted: the estimators sum squares of levels
#: (the weight program's gram, ``zeta**2 * t0``, squared CV errors), and
#: 1e100 keeps each sum far below the float64 overflow at 1.8e308.
MAX_LEVEL = 1e100


def check_levels(**arrays) -> None:
    """Reject an array holding a non-finite value or a level beyond
    :data:`MAX_LEVEL`, naming it: ``ValueError("<name> must be finite and
    within 1e+100")``."""
    for name, value in arrays.items():
        if not (np.abs(value) <= MAX_LEVEL).all():  # NaN compares false
            raise ValueError(f"{name} must be finite and within {MAX_LEVEL:.0e}")


class PanelDataError(ValueError):
    """Raised when panel input fails validation (shape, gaps, duplicates)."""


@dataclass(frozen=True)
class Panel:
    """A balanced outcome panel with the treated unit in column 0.

    Parameters
    ----------
    outcomes : ndarray of shape (T0 + Tpost, N0 + 1)
        Outcome levels; column 0 belongs to the treated unit, the remaining
        columns to the donors.
    t0 : int
        Number of pre-treatment periods (the treatment starts at period
        ``t0 + 1`` in 1-based time).
    unit_labels : list of str
        Column labels; ``unit_labels[0]`` names the treated unit.
    time_labels : list
        Row labels (years, quarters, or plain integers).
    """

    outcomes: np.ndarray
    t0: int
    unit_labels: list[str]
    time_labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        y = np.asarray(self.outcomes, dtype=float)
        if y.ndim != 2:
            raise PanelDataError("outcomes must be a 2-D array")
        t_total, n_units = y.shape
        if n_units < 3:
            raise PanelDataError(
                f"need at least 2 donors (got {n_units - 1}); a donor pool of "
                "one column cannot form a nondegenerate simplex"
            )
        if len(self.unit_labels) != n_units:
            raise PanelDataError("unit_labels length does not match outcomes")
        if self.time_labels and len(self.time_labels) != t_total:
            raise PanelDataError("time_labels length does not match outcomes")
        if not np.all(np.abs(y) <= MAX_LEVEL):  # NaN compares false
            t, j = np.argwhere(~(np.abs(y) <= MAX_LEVEL))[0]
            time = self.time_labels[t] if self.time_labels else int(t)
            raise PanelDataError(
                f"outcome {y[t, j]:.6g} at (time={time!r}, "
                f"unit={self.unit_labels[j]!r}) is not finite "
                f"or exceeds {MAX_LEVEL:.0e} in magnitude"
            )
        if not 0 < self.t0 < t_total:
            raise PanelDataError(
                f"t0={self.t0} must leave at least one pre- and one "
                f"post-treatment period within {t_total} total periods"
            )
        object.__setattr__(self, "outcomes", y)

    @property
    def n_donors(self) -> int:
        return self.outcomes.shape[1] - 1

    @property
    def t_post(self) -> int:
        return self.outcomes.shape[0] - self.t0

    @property
    def donor_labels(self) -> list[str]:
        return list(self.unit_labels[1:])


@dataclass(frozen=True)
class PrePostView:
    """The four array blocks of a panel split at the treatment date.

    Attributes
    ----------
    y_pre, y_post : ndarray
        Treated unit's outcomes, pre (length T0) and post (length Tpost).
    x_pre, x_post : ndarray
        Donor outcomes, pre (T0 × N0) and post (Tpost × N0); columns are in
        the same donor order in both blocks.
    """

    y_pre: np.ndarray
    x_pre: np.ndarray
    y_post: np.ndarray
    x_post: np.ndarray

    @property
    def t0(self) -> int:
        return self.y_pre.shape[0]

    @property
    def t_post(self) -> int:
        return self.y_post.shape[0]

    @property
    def n_donors(self) -> int:
        return self.x_pre.shape[1]


def split(panel: Panel) -> PrePostView:
    """Slice a panel into its treated/donor × pre/post blocks.

    The slices are plain views re-assembled from ``panel.outcomes`` without
    any arithmetic, so reassembling them reproduces the source exactly.
    """
    y = panel.outcomes
    return PrePostView(
        y_pre=y[: panel.t0, 0].copy(),
        x_pre=y[: panel.t0, 1:].copy(),
        y_post=y[panel.t0 :, 0].copy(),
        x_post=y[panel.t0 :, 1:].copy(),
    )


def load_csv(path: str, treated_label: str, t0: int) -> Panel:
    """Read a long-format outcome CSV into a :class:`Panel`.

    Parameters
    ----------
    path : str
        CSV file with header ``unit,time,outcome`` (UTF-8, '.' decimal
        separator).  Every (unit, time) pair must appear exactly once.
    treated_label : str
        The ``unit`` value of the treated series.
    t0 : int
        Number of pre-treatment periods.

    Returns
    -------
    Panel
        Treated unit in column 0, donors following in stable label order
        (first appearance in the file).  Time follows each unit's appearance
        order after verifying all units share an identical time sequence.

    Raises
    ------
    PanelDataError
        On missing header columns, duplicate or missing (unit, time) cells,
        unparseable outcomes, an unknown ``treated_label``, or a ``t0`` that
        leaves no post-treatment period.
    """
    times_by_unit: dict[str, list[str]] = {}
    values_by_unit: dict[str, list[float]] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        column = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in ("unit", "time", "outcome") if c not in column]
        if missing:
            raise PanelDataError(
                f"CSV header must contain unit,time,outcome (missing: "
                f"{', '.join(missing)})"
            )
        i_unit, i_time, i_outcome = column["unit"], column["time"], column["outcome"]
        width = max(i_unit, i_time, i_outcome) + 1
        # Blank lines are skipped and not counted, as csv.DictReader does.
        for lineno, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                raise PanelDataError(f"short row at line {lineno}")
            unit, time, text = row[i_unit], row[i_time], row[i_outcome]
            key = (unit, time)
            if key in seen:
                raise PanelDataError(
                    f"duplicate observation for unit={unit!r}, time={time!r}"
                )
            seen.add(key)
            try:
                value = float(text)
            except ValueError as exc:
                raise PanelDataError(
                    f"unparseable outcome {text!r} at line {lineno}"
                ) from exc
            if unit not in times_by_unit:
                times_by_unit[unit] = []
                values_by_unit[unit] = []
            times_by_unit[unit].append(time)
            values_by_unit[unit].append(value)

    units = list(times_by_unit)  # first-appearance order
    if not units:
        raise PanelDataError("CSV contains no data rows")
    if treated_label not in times_by_unit:
        raise PanelDataError(
            f"treated unit {treated_label!r} not found among "
            f"{len(units)} units"
        )

    time_seq = times_by_unit[units[0]]
    time_set = set(time_seq)
    for unit in units:
        seq = times_by_unit[unit]
        if seq != time_seq:
            missing_t = sorted(time_set - set(seq), key=time_seq.index)
            extra_t = [t for t in seq if t not in time_set]
            if missing_t:
                raise PanelDataError(
                    f"missing observation for unit={unit!r}, "
                    f"time={missing_t[0]!r}"
                )
            if extra_t:
                raise PanelDataError(
                    f"unit {unit!r} has time {extra_t[0]!r} absent from "
                    f"unit {units[0]!r}"
                )
            raise PanelDataError(
                f"unit {unit!r} observes the shared times in a different "
                "order; reorder the file consistently"
            )

    if t0 >= len(time_seq):
        raise PanelDataError(
            f"t0={t0} leaves no post-treatment periods "
            f"(panel has {len(time_seq)} periods)"
        )

    # Every unit observes time_seq in file order (checked above), so its
    # values in file order are its column.
    ordered_units = [treated_label] + [u for u in units if u != treated_label]
    outcomes = np.column_stack([values_by_unit[unit] for unit in ordered_units])

    return Panel(
        outcomes=outcomes,
        t0=t0,
        unit_labels=ordered_units,
        time_labels=list(time_seq),
    )
