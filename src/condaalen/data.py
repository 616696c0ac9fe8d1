"""Data model and long-format CSV input/output.

An observed subject is the triplet of a covariate vector, a finite-state
path followed up to its end time, and the reason follow-up ended (the
path was censored, or it was absorbed). Paths are right-continuous with
strictly increasing jump times.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CENSORED = "censored"
ABSORBED = "absorbed"


class ParseError(ValueError):
    """Malformed CSV content; carries the offending line number."""


class ValidationError(ValueError):
    """Structurally parsed data that violates the path invariants."""


@dataclass(frozen=True)
class StateSpace:
    """Ordered distinct integer state labels plus the absorbing subset."""

    states: tuple[int, ...]
    absorbing: frozenset[int] = frozenset()

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        if len(set(states)) != len(states):
            raise ValueError("state labels must be distinct")
        absorbing = frozenset(int(s) for s in self.absorbing)
        if not absorbing <= set(states):
            raise ValueError("absorbing states must be state labels")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "absorbing", absorbing)

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, state: int) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise KeyError(f"unknown state label {state}") from None


@dataclass(frozen=True)
class ObservedPath:
    """One subject: covariates, initial state, jumps, and end of follow-up.

    ``jumps`` lists ``(time, new_state)`` pairs with strictly increasing
    times; ``end_time`` is the minimum of the absorption and censoring
    times and ``end_reason`` says which one was attained.
    """

    covariates: tuple[float, ...]
    initial_state: int
    jumps: tuple[tuple[float, int], ...]
    end_time: float
    end_reason: str

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(float(c) for c in self.covariates))
        object.__setattr__(
            self, "jumps", tuple((float(t), int(s)) for t, s in self.jumps)
        )

    @property
    def final_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.initial_state

    def state_at(self, t: float) -> int:
        """State occupied at time ``t`` (right-continuous)."""
        state = self.initial_state
        for time, new in self.jumps:
            if time > t:
                break
            state = new
        return state

    def state_before(self, t: float) -> int:
        """State occupied just before time ``t``."""
        state = self.initial_state
        for time, new in self.jumps:
            if time >= t:
                break
            state = new
        return state


@dataclass(frozen=True)
class Sample:
    """A collection of observed paths over a common state space."""

    paths: tuple[ObservedPath, ...]
    state_space: StateSpace

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def covariate_dim(self) -> int:
        return len(self.paths[0].covariates) if self.paths else 0

    @cached_property
    def table(self) -> EventTable:
        """Columnar form of the sample, built on first use."""
        return EventTable.build(self)


@dataclass(frozen=True)
class EventTable:
    """The sample as read-only arrays over one shared event-time grid.

    ``grid`` is the sorted union of all recorded jump and censoring
    times. States are axis indices into ``state_space.states``; ``pos``,
    ``end_pos``, ``soj_entry`` and ``soj_exit`` are indices into ``grid``.
    Per subject: ``covariates`` (n, d), ``init``, ``final``, ``end_time``,
    ``end_pos`` (last grid index at or before it) and ``censored``.

    Jump rows ``subj, pos, src, dst`` run subject by subject, in time
    order within a subject. A jump recorded after its subject's end of
    follow-up keeps its grid time but is dropped from the rows; this is
    the only place that clips. Stay rows ``soj_*`` list each sojourn in
    the same order, one more per subject than it has jumps: entered at
    ``soj_entry`` (-1 from time 0), left at ``soj_exit`` (the last grid
    index once absorbed) into ``soj_next`` (-1 at the end of follow-up).
    The jump rows are the stays with ``soj_next >= 0``.
    """

    grid: np.ndarray
    subj: np.ndarray
    pos: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    covariates: np.ndarray
    init: np.ndarray
    final: np.ndarray
    end_time: np.ndarray
    end_pos: np.ndarray
    censored: np.ndarray
    soj_subj: np.ndarray
    soj_state: np.ndarray
    soj_entry: np.ndarray
    soj_exit: np.ndarray
    soj_next: np.ndarray

    @classmethod
    def build(cls, sample: Sample) -> EventTable:
        index = {s: i for i, s in enumerate(sample.state_space.states)}
        times: list[float] = []
        # (subject, state, entry time, exit time, next state); an absorbed
        # subject's last stay never ends
        stays: list[tuple[int, int, float, float, int]] = []
        init, censored = [], []
        for ell, p in enumerate(sample.paths):
            state = index[p.initial_state]
            init.append(state)
            entry = 0.0
            for t, label in p.jumps:
                times.append(t)
                if t <= p.end_time:
                    stays.append((ell, state, entry, t, index[label]))
                    state, entry = index[label], t
            censored.append(p.end_reason == CENSORED)
            if censored[-1]:
                times.append(p.end_time)
            stays.append((ell, state, entry, p.end_time if censored[-1] else math.inf, -1))

        grid = np.unique(np.array(times, dtype=float))
        cols = np.array(stays, dtype=float).reshape(-1, 5).T
        subj, state, nxt = cols[[0, 1, 4]].astype(np.intp)
        entry, leave = np.searchsorted(grid, cols[2:4], side="right") - 1
        end_time = np.array([p.end_time for p in sample.paths], dtype=float)
        jump = nxt >= 0
        table = cls(
            grid=grid,
            subj=subj[jump],
            pos=leave[jump],
            src=state[jump],
            dst=nxt[jump],
            covariates=np.array([p.covariates for p in sample.paths], dtype=float),
            init=np.array(init, dtype=np.intp),
            final=state[~jump],
            end_time=end_time,
            end_pos=np.searchsorted(grid, end_time, side="right") - 1,
            censored=np.array(censored, dtype=bool),
            soj_subj=subj,
            soj_state=state,
            soj_entry=entry,
            soj_exit=leave,
            soj_next=nxt,
        )
        for column in vars(table).values():
            column.setflags(write=False)
        return table


@dataclass(frozen=True)
class EvalPoint:
    """Covariate point at which conditional estimates are requested.

    ``atom_flags[i]`` must be true exactly when ``coords[i]`` lies in the
    declared atom set of dimension ``i``.
    """

    coords: tuple[float, ...]
    atom_flags: tuple[bool, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        flags = tuple(bool(f) for f in self.atom_flags)
        if len(coords) != len(flags):
            raise ValueError("coords and atom_flags must have equal length")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "atom_flags", flags)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def d_continuous(self) -> int:
        return sum(1 for f in self.atom_flags if not f)


def counting_increments(path: ObservedPath) -> list[tuple[float, int, int]]:
    """Enumerate the jump increments of a path as ``(time, from, to)``.

    >>> p = ObservedPath((0.0,), 1, ((0.5, 2), (0.9, 1), (1.4, 2)), 1.4, ABSORBED)
    >>> counting_increments(p)
    [(0.5, 1, 2), (0.9, 2, 1), (1.4, 1, 2)]
    """
    out = []
    current = path.initial_state
    for time, new in path.jumps:
        out.append((time, current, new))
        current = new
    return out


def validate(sample: Sample, labels=None) -> list[str]:
    """Check every path invariant; returns violation messages, empty if clean.

    Violations name the offending subject by its entry in ``labels``, one
    string per path, or else by its position in the sample.
    """
    problems: list[str] = []
    space = sample.state_space
    known = set(space.states)
    dim = sample.covariate_dim
    if labels is None:
        labels = [f"subject {idx}" for idx in range(len(sample))]
    for where, path in zip(labels, sample.paths, strict=True):
        if len(path.covariates) != dim:
            problems.append(f"{where}: covariate dimension {len(path.covariates)} != {dim}")
        if not all(math.isfinite(c) for c in path.covariates):
            problems.append(f"{where}: non-finite covariate in {path.covariates}")
        if not 0 < path.end_time < math.inf:
            problems.append(f"{where}: end_time must be positive and finite, got {path.end_time}")
        if path.end_reason not in (CENSORED, ABSORBED):
            problems.append(f"{where}: unknown end_reason {path.end_reason!r}")
        if path.initial_state not in known:
            problems.append(f"{where}: unknown state label {path.initial_state}")
        if path.initial_state in space.absorbing:
            problems.append(f"{where}: initial state {path.initial_state} is absorbing")
        prev_time = 0.0
        prev_state = path.initial_state
        for time, state in path.jumps:
            if state not in known:
                problems.append(f"{where}: unknown state label {state}")
            if not prev_time < time < math.inf:
                problems.append(f"{where}: jump times must be positive, finite and strictly increasing, got t={time}")
            if time > path.end_time:
                problems.append(f"{where}: jump at t={time} after end_time={path.end_time}")
            if state == prev_state:
                problems.append(f"{where}: self-transition into {state} at t={time}")
            if prev_state in space.absorbing:
                problems.append(f"{where}: jump out of absorbing state {prev_state} at t={time}")
            prev_time, prev_state = time, state
        if path.end_reason == ABSORBED:
            if path.final_state not in space.absorbing:
                problems.append(f"{where}: absorbed in non-absorbing state {path.final_state}")
            if not path.jumps or path.jumps[-1][0] != path.end_time:
                problems.append(f"{where}: absorbed path must end at its last jump time")
    return problems


def load_sample(path, schema: dict | None = None) -> Sample:
    """Read a long-format CSV into a :class:`Sample`.

    One row per observed state entry, grouped by subject and sorted by
    time. The first row of each subject sits at time 0, carries the
    covariate columns, and gives the initial state. The last row carries
    the ``end`` flag: 1 for censored, 0 for absorbed. A censored subject
    whose follow-up outlasts its final jump repeats the current state in
    a terminal marker row at the censoring time.

    Parameters
    ----------
    path : str or pathlib.Path
        CSV file with a header row.
    schema : dict, optional
        Column-name overrides for ``id``, ``time``, ``state``, ``end``,
        an explicit ``covariates`` column list, and optional ``states`` /
        ``absorbing`` label declarations. By default covariate columns
        are those named ``x1, x2, ...`` and the state space is inferred
        from the data.

    Raises
    ------
    ParseError
        Malformed rows, non-finite times or covariates, duplicate
        (id, time) pairs, missing columns.
    ValidationError
        Parsed paths that violate the path invariants, each named by its
        subject id and the line of its time-0 row.
    """
    schema = schema or {}
    cols = {key: schema.get(key, key) for key in ("id", "time", "state", "end")}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header") from None
        header = [h.strip() for h in header]
        position = {name: i for i, name in enumerate(header)}
        for key in ("id", "time", "state"):
            if cols[key] not in position:
                raise ParseError(f"missing required column {cols[key]!r}")
        if schema.get("covariates") is not None:
            covar_cols = list(schema["covariates"])
            for name in covar_cols:
                if name not in position:
                    raise ParseError(f"missing covariate column {name!r}")
        else:
            covar_cols = []
            k = 1
            while f"x{k}" in position:
                covar_cols.append(f"x{k}")
                k += 1
        if not covar_cols:
            raise ParseError("no covariate columns found (expected x1, x2, ...)")
        end_col = position.get(cols["end"])

        rows_by_id: dict[str, list[tuple[float, int, str, int, tuple[str, ...]]]] = {}
        order: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            sid = row[position[cols["id"]]].strip()
            if not sid:
                raise ParseError(f"line {lineno}: empty subject id")
            raw_time = row[position[cols["time"]]]
            try:
                time = float(raw_time)
            except ValueError:
                raise ParseError(f"line {lineno}: unparsable time {raw_time!r}") from None
            if not math.isfinite(time):
                raise ParseError(f"line {lineno}: non-finite time {raw_time!r}")
            raw_state = row[position[cols["state"]]].strip()
            try:
                state = int(raw_state)
            except ValueError:
                raise ParseError(f"line {lineno}: unparsable state {raw_state!r}") from None
            end_flag = row[end_col].strip() if end_col is not None else ""
            cells = tuple(row[position[name]].strip() for name in covar_cols)
            if sid not in rows_by_id:
                rows_by_id[sid] = []
                order.append(sid)
            rows_by_id[sid].append((time, state, end_flag, lineno, cells))

        if not order:
            raise ParseError("no subjects in file")

    paths, labels = [], []
    for sid in order:
        rows = sorted(rows_by_id[sid], key=lambda r: r[0])
        for (t_a, *_), (t_b, _, _, line_b, _) in zip(rows, rows[1:]):
            if t_b <= t_a:
                raise ParseError(f"duplicate time for id {sid!r} at t={t_b} (line {line_b})")
        first_time, first_state, _, first_line, first_cells = rows[0]
        if first_time != 0.0:
            raise ValidationError(f"id {sid!r}: first row must be at time 0 (line {first_line})")
        if len(rows) == 1:
            raise ValidationError(f"id {sid!r}: no row after the time-0 row (line {first_line})")
        covariates = []
        for name, cell in zip(covar_cols, first_cells):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"line {first_line}: covariate {name}={cell!r} is not a finite number")
            covariates.append(value)
        last_time, last_state, last_flag, last_line, _ = rows[-1]
        if last_flag not in ("0", "1"):
            raise ValidationError(
                f"id {sid!r}: terminal row needs end flag 0 or 1 (line {last_line})"
            )
        for time, state, flag, lineno, _ in rows[1:-1]:
            if flag not in ("", "0"):
                raise ValidationError(f"id {sid!r}: end flag on non-terminal row (line {lineno})")
        censored = last_flag == "1"
        jumps = []
        current = first_state
        for time, state, _, lineno, _ in rows[1:]:
            if state != current:
                jumps.append((time, state))
                current = state
            elif (time, state) != (last_time, last_state) or not censored:
                raise ValidationError(
                    f"id {sid!r}: repeated state {state} outside a censoring marker (line {lineno})"
                )
        paths.append(
            ObservedPath(
                covariates=tuple(covariates),
                initial_state=first_state,
                jumps=tuple(jumps),
                end_time=last_time,
                end_reason=CENSORED if censored else ABSORBED,
            )
        )
        labels.append(f"id {sid!r} (line {first_line})")

    if schema.get("states") is not None:
        space = StateSpace(tuple(schema["states"]), frozenset(schema.get("absorbing") or ()))
    else:
        seen: set[int] = set()
        terminal: set[int] = set()
        for p in paths:
            seen.add(p.initial_state)
            seen.update(s for _, s in p.jumps)
            if p.end_reason == ABSORBED:
                terminal.add(p.final_state)
        space = StateSpace(tuple(sorted(seen)), frozenset(terminal))

    sample = Sample(tuple(paths), space)
    problems = validate(sample, labels)
    if problems:
        raise ValidationError("; ".join(problems))
    return sample


def _fmt(value: float) -> str:
    """17 significant digits, enough to round-trip; every CSV writer uses it."""
    return format(value, ".17g")


def write_sample(sample: Sample, path) -> None:
    """Write a sample to long-format CSV; inverse of :func:`load_sample`."""
    dim = sample.covariate_dim
    header = ["id", "time", "state", "end"] + [f"x{k}" for k in range(1, dim + 1)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for idx, p in enumerate(sample.paths):
            covars = [_fmt(c) for c in p.covariates]
            blanks = [""] * dim
            rows = [["0", _fmt(0.0), str(p.initial_state), ""]]
            for time, state in p.jumps:
                rows.append(["0", _fmt(time), str(state), ""])
            if p.end_reason == CENSORED:
                if not p.jumps or p.jumps[-1][0] != p.end_time:
                    rows.append(["0", _fmt(p.end_time), str(p.final_state), ""])
                rows[-1][3] = "1"
            else:
                rows[-1][3] = "0"
            for rownum, row in enumerate(rows):
                row[0] = f"s{idx}"
                writer.writerow(row + (covars if rownum == 0 else blanks))
