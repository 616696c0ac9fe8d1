"""Data model and long-format CSV input/output.

An observed subject is the triplet of a covariate vector, a finite-state
path followed up to its end time, and the reason follow-up ended (the
path was censored, or it was absorbed). Paths are right-continuous with
strictly increasing jump times.

A sample has two forms: its paths, and its columns (flat arrays per
subject and per recorded jump), from which its :class:`EventTable` is
built. A sample built from paths flattens them on first use of its
table or by :func:`write_sample`. A sample read by :func:`load_sample`
is parsed straight into columns and builds its table at once, and one
drawn by ``simulate_sample`` streams its draws into columns and builds
its table on first use; both build their paths only when asked.

Every sample obeys the same path rules, whatever made it: paths and
draws share one intake (:meth:`_Columns.of`), which checks the columns
it makes.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np

CENSORED = "censored"
ABSORBED = "absorbed"

# rows of the sample CSV formatted and written at a time
_BLOCK_ROWS = 4096
# the ``end`` cell of a row, stripped: "" and "0"/"1"; anything else is 3
_FLAG_CODES = {"": 0, "0": 1, "1": 2}
_FLAG_TEXT = np.array(["", "0", "1"], dtype=object)
# the ``array.array`` typecode of ``np.intp``, so index buffers read as ``np.intp``
_INDEX = np.dtype(np.intp).char


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array of ints or finite floats.

    ``np.unique(values)`` by a sort and a mask: in numpy 2 that call asks
    ``np.ma.is_masked`` first, which imports ``numpy.ma``.
    """
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class ParseError(ValueError):
    """Malformed CSV content; carries the offending line number."""


class ValidationError(ValueError):
    """A sample, parsed or built, that violates the path invariants."""


# the path rules, named as ``_Columns.of`` names their masks, with the wording
# of a broken one about path ``p``: a subject's own, each jump's, its end's
_SUBJECT_RULES = {
    "dimension": "covariate dimension {length} != {dim}",
    "covariate": "non-finite covariate in {p.covariates}",
    "end time": "end_time must be positive and finite, got {p.end_time}",
    "reason": "unknown end_reason {p.end_reason!r}",
    "initial label": "unknown state label {p.initial_state}",
    "initial absorbing": "initial state {p.initial_state} is absorbing",
}
_JUMP_RULES = {
    "label": "unknown state label {label}",
    "time": "jump times must be positive, finite and strictly increasing, got t={t}",
    "late": "jump at t={t} after end_time={p.end_time}",
    "self-transition": "self-transition into {label} at t={t}",
    "escape": "jump out of absorbing state {before} at t={t}",
}
_END_RULES = {
    "absorbed in": "absorbed in non-absorbing state {p.final_state}",
    "absorbed at": "absorbed path must end at its last jump time",
}


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


class Sample:
    """A collection of observed paths over a common state space.

    ``Sample(paths, state_space)`` only stores the paths. A sample made
    from columns, as :func:`load_sample` and ``simulate_sample`` make
    theirs, holds its columns instead and builds ``paths`` (a tuple of
    :class:`ObservedPath`) on first access.
    """

    def __init__(self, paths, state_space: StateSpace):
        self.paths = tuple(paths)
        self.state_space = state_space
        self._size = len(self.paths)
        self.covariate_dim = len(self.paths[0].covariates) if self.paths else 0

    @classmethod
    def _from_columns(cls, columns: _Columns, state_space: StateSpace) -> Sample:
        sample = cls.__new__(cls)
        sample.state_space = state_space
        sample._size, sample.covariate_dim = columns.covariates.shape
        sample._columns = columns
        return sample

    def __len__(self) -> int:
        return self._size

    @cached_property
    def paths(self) -> tuple[ObservedPath, ...]:
        return self._columns.paths(self.state_space.states)

    @cached_property
    def _columns(self) -> _Columns:
        fields = attrgetter("covariates", "initial_state", "jumps", "end_time", "end_reason")
        subjects = map(fields, self.paths)
        return _Columns.of(subjects, self.state_space, self.covariate_dim, self.paths.__getitem__)

    @cached_property
    def table(self) -> EventTable:
        """Columnar form of the sample, built on first use."""
        return EventTable.build(self._columns)


@dataclass(frozen=True)
class _Columns:
    """A sample's subjects and recorded jumps as flat arrays.

    Per subject: ``covariates`` (n, d), ``init`` (a state index),
    ``end_time`` and ``censored``. Per recorded jump, subject by subject
    and in path order within a subject: ``subj``, ``time`` and ``state``,
    the index of the state entered. States index ``state_space.states``.
    """

    covariates: np.ndarray
    init: np.ndarray
    end_time: np.ndarray
    censored: np.ndarray
    subj: np.ndarray
    time: np.ndarray
    state: np.ndarray

    @classmethod
    def of(cls, subjects, space: StateSpace, dim: int, path) -> _Columns:
        """Columns of ``subjects``, an iterable of tuples of an :class:`ObservedPath`'s fields.

        ``subjects`` is read once, each subject's fields appended to typed
        buffers that become the columns without a copy; no subject is kept.
        The columns are checked against the path rules: a broken one raises
        ``ValidationError``, naming the first subject that breaks a rule by
        its index, and the first rule it breaks. ``path(s)`` gives subject
        ``s`` as an :class:`ObservedPath` for the message.
        """
        index = {s: i for i, s in enumerate(space.states)}
        covariates, time, end_time = array("d"), array("d"), array("d")
        init, count, state = array(_INDEX), array(_INDEX), array(_INDEX)
        misfit, reason, ends = array("b"), array("b"), []  # reason: 0 censored, 1 absorbed, 2 other
        for x, initial, jumps, end, why in subjects:
            misfit.append(len(x) != dim)  # a row of the right size stands in for the array
            covariates.extend((0.0,) * dim if misfit[-1] else x)
            init.append(index.get(initial, -1))
            count.append(len(jumps))
            for t, label in jumps:
                time.append(t)
                state.append(index.get(label, -1))
            reason.append(0 if why == CENSORED else 1 if why == ABSORBED else 2)
            ends.append(end)
            if len(ends) == _BLOCK_ROWS:  # converted as numpy converts them
                end_time.frombytes(np.array(ends, float).tobytes())
                ends.clear()
        end_time.frombytes(np.array(ends, float).tobytes())
        init, count, state = (np.frombuffer(a, np.intp) for a in (init, count, state))
        misfit, reason = np.frombuffer(misfit, bool), np.frombuffer(reason, np.int8)
        n = len(init)
        columns = cls(
            covariates=np.frombuffer(covariates, float).reshape(n, dim),
            init=init,
            end_time=np.frombuffer(end_time, float),
            censored=reason == 0,
            subj=np.repeat(np.arange(n), count),
            time=np.frombuffer(time, float),
            state=state,
        )
        absorbing = np.array([s in space.absorbing for s in space.states] + [False])
        broken = {**columns.broken(absorbing), "dimension": misfit, "reason": reason == 2}
        bad = np.logical_or.reduce([broken[rule] for rule in (*_SUBJECT_RULES, *_END_RULES)])
        bad[columns.subj[np.logical_or.reduce([broken[rule] for rule in _JUMP_RULES])]] = True
        if not bad.any():
            return columns
        # the first rule the first bad subject breaks: its own, each jump's, its end's
        s = int(np.flatnonzero(bad)[0])
        lo, hi = np.searchsorted(columns.subj, [s, s + 1]).tolist()
        path = path(s)
        steps = [(_SUBJECT_RULES, s), *((_JUMP_RULES, j) for j in range(lo, hi)), (_END_RULES, s)]
        rules, rule, at = next((g, r, at) for g, at in steps for r in g if broken[r][at])
        # a jump's earlier ones passed every rule: their times increase to its own
        t, label = path.jumps[at - lo] if rules is _JUMP_RULES else (math.nan, None)
        before = path.state_before(t)
        length = len(path.covariates)
        message = rules[rule].format(p=path, dim=dim, length=length, t=t, label=label, before=before)
        raise ValidationError(f"subject {s}: {message}")

    def broken(self, absorbing: np.ndarray) -> dict[str, np.ndarray]:
        """Masks of the subjects or jumps that break each path rule the columns show.

        ``absorbing`` flags each state index, and one more, False, for the
        index -1 of an unknown label.
        """
        opens = np.ones(self.subj.size, dtype=bool)  # a subject's first jump
        opens[1:] = self.subj[1:] != self.subj[:-1]
        since, before = np.roll(self.time, 1), np.roll(self.state, 1)
        since[opens], before[opens] = 0.0, self.init[self.subj[opens]]
        _, final, last_time = self.last_jumps()
        return {
            "covariate": ~np.isfinite(self.covariates).all(axis=1),
            "end time": ~((0.0 < self.end_time) & (self.end_time < math.inf)),
            "initial label": self.init < 0,
            "initial absorbing": absorbing[self.init],
            "label": self.state < 0,
            "time": ~((since < self.time) & (self.time < math.inf)),
            "late": self.time > self.end_time[self.subj],
            "self-transition": self.state == before,
            "escape": absorbing[before],
            "absorbed in": ~self.censored & ~absorbing[final],
            "absorbed at": ~self.censored & (last_time != self.end_time),
        }

    def last_jumps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per subject: its recorded jump count, final state and last jump time (NaN if none)."""
        count = np.bincount(self.subj, minlength=len(self.init))
        has = count > 0
        last = (np.cumsum(count) - 1)[has]
        final, last_time = self.init.copy(), np.full_like(self.end_time, math.nan)
        final[has], last_time[has] = self.state[last], self.time[last]
        return count, final, last_time

    def paths(self, states) -> tuple[ObservedPath, ...]:
        labels = np.array(states, dtype=object)
        bounds = np.searchsorted(self.subj, np.arange(len(self.init) + 1)).tolist()
        jumps = list(zip(self.time.tolist(), labels[self.state].tolist()))
        return tuple(
            ObservedPath(tuple(x), s, tuple(jumps[lo:hi]), end, CENSORED if c else ABSORBED)
            for x, s, lo, hi, end, c in zip(
                self.covariates.tolist(),
                labels[self.init].tolist(),
                bounds,
                bounds[1:],
                self.end_time.tolist(),
                self.censored.tolist(),
            )
        )


@dataclass(frozen=True)
class EventTable:
    """The sample as read-only arrays over one shared event-time grid.

    ``grid`` is the sorted union of all recorded jump and censoring
    times. States are axis indices into ``state_space.states``; ``pos``,
    ``end_pos``, ``soj_entry`` and ``soj_exit`` are indices into ``grid``.
    Per subject: ``covariates`` (n, d), ``init``, ``final``, ``end_time``,
    ``end_pos`` (last grid index at or before it) and ``censored``.

    Jump rows ``subj, pos, src, dst`` run subject by subject, in time
    order within a subject. Stay rows ``soj_*`` list each sojourn in
    the same order, one more per subject than it has jumps: entered at
    ``soj_entry`` (-1 from time 0), left at ``soj_exit`` (the last grid
    index once absorbed) into ``soj_next`` (-1 at the end of follow-up).
    The jump rows are the stays with ``soj_next >= 0``.

    :meth:`build` makes the table from a sample's columns in whole-array
    steps, whether they were parsed from a CSV or flattened from paths.
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
    def build(cls, columns: _Columns) -> EventTable:
        n = len(columns.init)
        grid = _distinct(np.concatenate([columns.time, columns.end_time[columns.censored]]))
        subj, time, dst = columns.subj, columns.time, columns.state
        # subject l's stays are rows first[l] .. last[l]: one per jump
        # (the stay that jump ends), then the stay follow-up ends
        first = np.searchsorted(subj, np.arange(n)) + np.arange(n)
        last = np.searchsorted(subj, np.arange(n), side="right") + np.arange(n)
        ends = np.arange(subj.size) + subj
        size = subj.size + n
        state = np.empty(size, dtype=np.intp)
        state[first] = columns.init
        state[ends + 1] = dst
        entry = np.zeros(size)
        entry[ends + 1] = time
        leave = np.empty(size)
        leave[ends] = time
        leave[last] = np.where(columns.censored, columns.end_time, math.inf)
        nxt = np.full(size, -1, dtype=np.intp)
        nxt[ends] = dst
        entry, leave = np.searchsorted(grid, [entry, leave], side="right") - 1
        table = cls(
            grid=grid,
            subj=subj,
            pos=leave[ends],
            src=state[ends],
            dst=dst,
            covariates=columns.covariates,
            init=columns.init,
            final=state[last],
            end_time=columns.end_time,
            end_pos=np.searchsorted(grid, columns.end_time, side="right") - 1,
            censored=columns.censored,
            soj_subj=np.repeat(np.arange(n), last - first + 1),
            soj_state=state,
            soj_entry=entry,
            soj_exit=leave,
            soj_next=nxt,
        )
        for column in vars(table).values():
            column.setflags(write=False)
        return table


def load_sample(path) -> Sample:
    """Read a long-format CSV into a :class:`Sample`.

    One row per observed state entry, grouped by subject and sorted by
    time. The first row of each subject sits at time 0, carries the
    covariate columns, and gives the initial state. The last row carries
    the ``end`` flag: 1 for censored, 0 for absorbed. A censored subject
    whose follow-up outlasts its final jump repeats the current state in
    a terminal marker row at the censoring time; every other row leaves
    ``end`` empty. The covariate columns are ``x1, x2, ...``; the state
    space is inferred from the data, its absorbing states being those
    some subject is absorbed in.

    The file is read in one ``csv`` pass and converted column by column
    with Python's ``float`` and ``int``. Subjects are numbered by first
    appearance and their rows put in time order by one stable sort; the
    rules are checked on whole columns, and the returned sample holds its
    :class:`EventTable` from the start, building ``paths`` only if asked.
    Only a rule that fails sends the code back to the rows, to report the
    first offending row or subject as a row-by-row reading would.

    Parameters
    ----------
    path : str or pathlib.Path
        UTF-8 CSV file with a header row, a leading byte-order mark allowed.

    Raises
    ------
    ParseError
        Malformed rows, non-finite times or covariates, duplicate
        (id, time) pairs, missing or repeated columns, cells longer than
        ``csv.field_size_limit()``.
    ValidationError
        Parsed paths that violate the path invariants, each named by its
        subject id and the line of its time-0 row.

    Line numbers are physical lines of the file, counting the header as
    line 1; a row whose quoted cell spans lines is named by its first.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put before the header
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header") from None
        except csv.Error as err:
            raise ParseError(f"line {reader.line_num}: {err}") from None
        header = [h.strip() for h in header]
        position = {}
        for i, name in enumerate(header):
            if name in position:
                raise ParseError(f"duplicate column {name!r} in header")
            position[name] = i
        for name in ("id", "time", "state"):
            if name not in position:
                raise ParseError(f"missing required column {name!r}")
        covar_cols = []
        while f"x{len(covar_cols) + 1}" in position:
            covar_cols.append(f"x{len(covar_cols) + 1}")
        if not covar_cols:
            raise ParseError("no covariate columns found (expected x1, x2, ...)")
        first_line = reader.line_num + 1
        errors: list[ParseError] = []
        rows = list(_records(reader, errors))
    return _Rows(rows, first_line, position, covar_cols, errors).sample()


class _Rows:
    """The data rows of a sample CSV, checked and turned into a :class:`Sample`."""

    def __init__(self, rows, first_line, position, covar_cols, errors):
        self.rows, self.first_line, self.position = rows, first_line, position
        self.covar_cols = covar_cols
        self.end_col = position.get("end")
        self.errors = errors

    @cached_property
    def lines(self) -> np.ndarray:
        """The physical line on which each row starts.

        A row spans one line, plus one for each line break inside its
        quoted cells (``\\r\\n``, ``\\r`` or ``\\n``, as the file is read).
        """
        breaks = (
            sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row) for row in self.rows
        )
        spans = 1 + np.fromiter(breaks, np.int64, len(self.rows))
        return self.first_line + np.cumsum(spans) - spans

    def sample(self) -> Sample:
        """The sample, or the error a row-by-row reading would raise first."""
        sids, subj, time, labels, state, flag, at = self._sorted()
        first = np.flatnonzero(np.diff(subj, prepend=-1))
        last = np.append(first[1:], subj.size) - 1
        starts = np.zeros(subj.size, dtype=bool)
        starts[first] = True
        ends = np.zeros(subj.size, dtype=bool)
        ends[last] = True
        censored = flag[last] == _FLAG_CODES["1"]
        covariates = self._covariates(at[first])
        repeated = ~starts & (state == np.roll(state, 1))
        jumps = np.flatnonzero(~starts & ~repeated)
        columns = _Columns(
            covariates=covariates,
            init=state[first],
            end_time=time[last],
            censored=censored,
            subj=subj[jumps],
            time=time[jumps],
            state=state[jumps],
        )
        absorbing = np.zeros(len(labels) + 1, dtype=bool)
        absorbing[state[last[~censored]]] = True
        broken = columns.broken(absorbing)

        # the subject rules, as masks over rows and subjects
        dup_time = ~starts & (time <= np.roll(time, 1))
        early_flag = ~ends & (flag != _FLAG_CODES[""])
        bad_repeat = repeated & ~(ends & censored[subj])
        bad = (time[first] != 0.0) | (first == last) | broken["covariate"]
        bad |= (flag[last] != _FLAG_CODES["0"]) & ~censored
        for rule in (dup_time, early_flag, bad_repeat):
            bad[subj[rule]] = True
        if bad.any():
            # the first subject that breaks one, and the first rule it breaks
            s = np.flatnonzero(bad)[0]
            lo, hi, sid = first[s], last[s], sids[s]
            rows = slice(lo, hi + 1)

            def line(r: int) -> int:
                return self.lines[at[r]]

            if dup_time[rows].any():
                r = lo + np.flatnonzero(dup_time[rows])[0]
                raise ParseError(
                    f"duplicate time for id {sid!r} at t={time[r].tolist()} (line {line(r)})"
                )
            if time[lo] != 0.0:
                raise ValidationError(f"id {sid!r}: first row must be at time 0 (line {line(lo)})")
            if lo == hi:
                raise ValidationError(f"id {sid!r}: no row after the time-0 row (line {line(lo)})")
            nonfinite = np.flatnonzero(~np.isfinite(covariates[s]))
            if nonfinite.size:
                name = self.covar_cols[nonfinite[0]]
                cell = self.rows[at[lo]][self.position[name]].strip()
                raise ParseError(f"line {line(lo)}: covariate {name}={cell!r} is not a finite number")
            if not censored[s] and flag[hi] != _FLAG_CODES["0"]:
                raise ValidationError(
                    f"id {sid!r}: terminal row needs end flag 0 or 1 (line {line(hi)})"
                )
            if early_flag[rows].any():
                r = lo + np.flatnonzero(early_flag[rows])[0]
                raise ValidationError(f"id {sid!r}: end flag on non-terminal row (line {line(r)})")
            r = lo + np.flatnonzero(bad_repeat[rows])[0]
            raise ValidationError(
                f"id {sid!r}: repeated state {labels[state[r]]} outside a censoring marker "
                f"(line {line(r)})"
            )

        # what is left of the path rules: no subject may start in, or jump
        # out of, a state that some subject is absorbed in
        starts_absorbed, escape = broken["initial absorbing"], broken["escape"]
        if starts_absorbed.any() or escape.any():
            problems = []
            bad = np.concatenate([np.flatnonzero(starts_absorbed), columns.subj[escape]])
            for s in _distinct(bad).tolist():
                where = f"id {sids[s]!r} (line {self.lines[at[first[s]]]})"
                if starts_absorbed[s]:
                    problems.append(f"{where}: initial state {labels[state[first[s]]]} is absorbing")
                for r in jumps[escape & (columns.subj == s)].tolist():
                    left, t = labels[state[r - 1]], time[r].tolist()
                    problems.append(f"{where}: jump out of absorbing state {left} at t={t}")
            raise ValidationError("; ".join(problems))

        space = StateSpace(tuple(labels), frozenset(labels[i] for i in np.flatnonzero(absorbing[:-1])))
        sample = Sample._from_columns(columns, space)
        sample.table  # noqa: B018 -- a loaded sample holds its table from the start
        return sample

    def _sorted(self):
        """The rows that pass the row rules, blank rows dropped, grouped and in time order.

        Returns the subject ids in order of first appearance, then per row
        the subject number, time, state index (into the sorted state
        labels, also returned), ``end`` flag code, and index in ``rows``.
        """
        rows, position = self.rows, self.position
        width = len(position)
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        full = np.flatnonzero(widths == width)
        picked = rows if full.size == len(rows) else [rows[i] for i in full.tolist()]
        cols = list(zip(*picked)) or [()] * width
        ids = list(map(str.strip, cols[position["id"]]))
        times, bad_time = _converted(float, cols[position["time"]], math.nan)
        states, bad_state = _converted(int, list(map(str.strip, cols[position["state"]])), 0)
        times = np.array(times, dtype=float)

        # rows some row rule may reject, and the blank rows that are skipped
        suspect = ~np.isfinite(times)
        suspect[bad_time + bad_state] = True
        if "" in ids:
            suspect |= np.fromiter(map(len, ids), np.intp, len(ids)) == 0
        odd = np.concatenate([np.flatnonzero(widths != width), full[suspect]])
        for i in _distinct(odd).tolist():
            row = rows[i]
            if not row or all(not cell.strip() for cell in row):
                continue
            problem = _row_problem(row, width, position)
            if problem:
                raise ParseError(f"line {self.lines[i]}: {problem}")
        if self.errors:
            raise self.errors[0]
        # the rows left in ``suspect`` passed every rule: they are blank
        keep = np.flatnonzero(~suspect)
        if keep.size < len(ids):
            ids = [ids[i] for i in keep.tolist()]
            states = [states[i] for i in keep.tolist()]
        if not ids:
            raise ParseError("no subjects in file")
        if self.end_col is None:
            flags = np.zeros(len(ids), dtype=np.int8)
        else:
            cells = map(str.strip, cols[self.end_col])
            flags = np.fromiter(map(_FLAG_CODES.get, cells, repeat(3)), np.int8, full.size)[keep]

        times, at = times[keep], full[keep]
        number = {sid: k for k, sid in enumerate(dict.fromkeys(ids))}
        subj = np.fromiter(map(number.__getitem__, ids), np.intp, len(ids))
        labels = sorted(set(states))
        index = {s: i for i, s in enumerate(labels)}
        state = np.fromiter(map(index.__getitem__, states), np.intp, len(states))
        order = np.lexsort((times, subj))
        return list(number), subj[order], times[order], labels, state[order], flags[order], at[order]

    def _covariates(self, at: np.ndarray) -> np.ndarray:
        """The covariates (n, d) of the rows ``at``, NaN where a cell is not a number."""
        values = []
        for name in self.covar_cols:
            col = self.position[name]
            cells = [self.rows[i][col].strip() for i in at.tolist()]
            values.append(_converted(float, cells, math.nan)[0])
        return np.array(values, dtype=float).T.copy()


def _records(reader, errors: list):
    """The rows of a ``csv.reader`` up to its first error, which goes into ``errors``."""
    try:
        yield from reader
    except csv.Error as err:
        errors.append(ParseError(f"line {reader.line_num}: {err}"))


def _converted(convert, cells, fill) -> tuple[list, list[int]]:
    """``convert`` of each cell, ``fill`` where it raises ``ValueError``, and those positions."""
    try:
        return list(map(convert, cells)), []
    except ValueError:
        values, failed = [], []
        for i, cell in enumerate(cells):
            try:
                values.append(convert(cell))
            except ValueError:
                values.append(fill)
                failed.append(i)
        return values, failed


def _row_problem(row: list[str], width: int, position: dict[str, int]) -> str | None:
    """The first rule a non-blank row breaks, or None."""
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    if not row[position["id"]].strip():
        return "empty subject id"
    raw_time = row[position["time"]]
    try:
        time = float(raw_time)
    except ValueError:
        return f"unparsable time {raw_time!r}"
    if not math.isfinite(time):
        return f"non-finite time {raw_time!r}"
    raw_state = row[position["state"]].strip()
    try:
        int(raw_state)
    except ValueError:
        return f"unparsable state {raw_state!r}"
    return None


def _fmt(value: float) -> str:
    """17 significant digits, enough to round-trip; every CSV writer uses it."""
    return format(value, ".17g")


def _json_float(value: float) -> str:
    """A float as ``json`` writes it, non-finite values included."""
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


# builtins that format every finite float as the writers' formats do,
# without a Python frame per value
_FINITE_FORMAT = {_fmt: "%.17g".__mod__, _json_float: float.__repr__}


def _format_distinct(values: np.ndarray, fmt=_fmt) -> np.ndarray:
    """``fmt`` of every entry of a float array, as an object array of its shape.

    Each distinct bit pattern is formatted once and its string shared.
    Keying on bits rather than ``==`` keeps ``-0.0`` apart from ``0.0``.
    Finite values go through ``fmt``'s builtin in ``_FINITE_FORMAT``
    where it has one, NaN and infinities through ``fmt`` itself.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    unique = bits.view(float)
    strings = np.array(list(map(_FINITE_FORMAT.get(fmt, fmt), unique.tolist())), dtype=object)
    special = ~np.isfinite(unique)
    if special.any():
        strings[special] = [fmt(v) for v in unique[special].tolist()]
    return strings[inverse.reshape(values.shape)]


def write_sample(sample: Sample, path) -> None:
    """Write a sample to long-format CSV; inverse of :func:`load_sample`.

    Subject ``l`` is written as ``s<l>``: its time-0 row with the
    covariates, one row per recorded jump, and, when it is censored after
    its last jump, a marker row repeating its final state. Its last row
    carries the ``end`` flag. Lines end in CRLF, as ``csv.writer`` ends
    them; no cell needs quoting. The rows are built from the sample's
    columns and written in blocks of ``_BLOCK_ROWS``, each distinct float
    formatted once. A sample with no subjects is refused with ``ValueError``,
    since its file would hold no covariate column for :func:`load_sample`.
    """
    if not len(sample):
        raise ValueError("cannot write a sample with no subjects")
    cols = sample._columns
    n = len(cols.init)
    count, final, last_time = cols.last_jumps()
    jump_start = np.cumsum(count) - count  # each subject's first jump row in ``cols``
    marker = cols.censored & (last_time != cols.end_time)

    per_subject = 1 + count + marker
    first = np.cumsum(per_subject) - per_subject
    subject = np.repeat(np.arange(n), per_subject)
    time = np.zeros(subject.size)
    state = np.empty(subject.size, dtype=np.intp)
    state[first] = cols.init
    jump_row = first[cols.subj] + 1 + np.arange(cols.subj.size) - jump_start[cols.subj]
    time[jump_row], state[jump_row] = cols.time, cols.state
    marker_row = (first + 1 + count)[marker]
    time[marker_row], state[marker_row] = cols.end_time[marker], final[marker]
    flag = np.zeros(subject.size, dtype=np.intp)
    flag[first + per_subject - 1] = np.where(cols.censored, _FLAG_CODES["1"], _FLAG_CODES["0"])
    starts = np.zeros(subject.size, dtype=bool)
    starts[first] = True

    ids = np.array([f"s{ell}" for ell in range(n)], dtype=object)
    labels = np.array([str(s) for s in sample.state_space.states], dtype=object)
    covariates = _format_distinct(cols.covariates)
    dim = covariates.shape[1]
    header = ["id", "time", "state", "end"] + [f"x{k}" for k in range(1, dim + 1)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, subject.size, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            who, opening = subject[rows], starts[rows]
            cells = np.full((who.size, dim), "", dtype=object)
            cells[opening] = covariates[who[opening]]
            times = _format_distinct(time[rows])
            fields = [ids[who], times, labels[state[rows]], _FLAG_TEXT[flag[rows]]]
            lines = map(",".join, zip(*(f.tolist() for f in fields), *cells.T.tolist()))
            handle.write("\r\n".join(lines) + "\r\n")
