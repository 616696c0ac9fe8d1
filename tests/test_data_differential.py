"""The columnar loader, writer and event-table builder against literal references.

The references are the row-by-row code they replaced: a loader that
builds one ``ObservedPath`` per subject from per-row tuples and checks
the paths one by one, a writer that passes each row to ``csv.writer``,
and a table builder that walks every path's jumps. The path check also
gives the wording of the rule a hand-built sample breaks first. The
reference loader numbers CSV records, which are lines in the files drawn
here, since none of them has a line break inside a cell.

Times come from a coarse lattice, so jumps and censorings of different
subjects coincide. Subjects are censored in a repeated state or at a
jump into a new one, or absorbed at their last jump, and the covariates
include -0.0, the smallest subnormal and 1e300. The written rows are
shuffled, so a subject's rows need not be contiguous or in time order.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_cli_fuzz import csv_mutants

from condaalen.data import (
    ABSORBED,
    CENSORED,
    ObservedPath,
    ParseError,
    Sample,
    StateSpace,
    ValidationError,
    _Rows,
    load_sample,
    write_sample,
)

SPACE = StateSpace((1, 2, 3), frozenset({3}))
TICK = 0.25
COVARIATES = (0.0, -0.0, 5e-324, 1e300, 0.5)
TABLE_COLUMNS = (
    "grid", "subj", "pos", "src", "dst", "covariates", "init", "final", "end_time",
    "end_pos", "censored", "soj_subj", "soj_state", "soj_entry", "soj_exit", "soj_next",
)  # fmt: skip


def _literal_validate(sample: Sample, labels=None) -> list[str]:
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


def _literal_load_sample(path) -> Sample:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = _literal_rows(csv.reader(handle))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header") from None
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
        end_col = position.get("end")

        rows_by_id = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            sid = row[position["id"]].strip()
            if not sid:
                raise ParseError(f"line {lineno}: empty subject id")
            raw_time = row[position["time"]]
            try:
                time = float(raw_time)
            except ValueError:
                raise ParseError(f"line {lineno}: unparsable time {raw_time!r}") from None
            if not math.isfinite(time):
                raise ParseError(f"line {lineno}: non-finite time {raw_time!r}")
            raw_state = row[position["state"]].strip()
            try:
                state = int(raw_state)
            except ValueError:
                raise ParseError(f"line {lineno}: unparsable state {raw_state!r}") from None
            end_flag = row[end_col].strip() if end_col is not None else ""
            cells = tuple(row[position[name]].strip() for name in covar_cols)
            rows_by_id.setdefault(sid, []).append((time, state, end_flag, lineno, cells))

        if not rows_by_id:
            raise ParseError("no subjects in file")

    paths, labels = [], []
    seen = set()
    terminal = set()
    for sid, rows in rows_by_id.items():
        rows = sorted(rows, key=lambda r: r[0])
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
        for _, _, flag, lineno, _ in rows[:-1]:
            if flag:
                raise ValidationError(f"id {sid!r}: end flag on non-terminal row (line {lineno})")
        censored = last_flag == "1"
        jumps = []
        current = first_state
        seen.add(first_state)
        for time, state, _, lineno, _ in rows[1:]:
            if state != current:
                jumps.append((time, state))
                seen.add(state)
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
        if not censored:
            terminal.add(current)
    space = StateSpace(tuple(sorted(seen)), frozenset(terminal))

    sample = Sample(tuple(paths), space)
    problems = _literal_validate(sample, labels)
    if problems:
        raise ValidationError("; ".join(problems))
    return sample


def _literal_rows(reader):
    try:
        yield from reader
    except csv.Error as err:
        raise ParseError(f"line {reader.line_num}: {err}") from None


def _fmt(value):
    return format(value, ".17g")


def _literal_write_sample(sample: Sample, path) -> None:
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


def _literal_table(sample: Sample) -> dict[str, np.ndarray]:
    index = {s: i for i, s in enumerate(sample.state_space.states)}
    times = []
    stays = []
    init, censored = [], []
    for ell, p in enumerate(sample.paths):
        state = index[p.initial_state]
        init.append(state)
        entry = 0.0
        for t, label in p.jumps:
            times.append(t)
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
    return dict(
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


@st.composite
def paths(draw, dim, late_jump=False):
    covariates = tuple(draw(st.sampled_from(COVARIATES)) for _ in range(dim))
    ticks = sorted(draw(st.sets(st.integers(1, 8), max_size=3)))
    state = draw(st.sampled_from((1, 2)))
    initial, jumps = state, []
    for tick in ticks:
        state = draw(st.sampled_from([s for s in SPACE.states if s != state]))
        jumps.append((tick * TICK, state))
        if state == 3:
            # absorbed at its last jump
            return ObservedPath(covariates, initial, tuple(jumps), tick * TICK, ABSORBED)
    # censored at its last jump, which enters a new state, or in a repeated state
    end = draw(st.integers(ticks[-1] if ticks else 1, 10)) * TICK
    if late_jump and draw(st.booleans()):
        # a jump recorded after the end of follow-up, which the path rules refuse
        jumps.append((end + TICK, draw(st.sampled_from([s for s in (1, 2) if s != state]))))
    return ObservedPath(covariates, initial, tuple(jumps), end, CENSORED)


@st.composite
def samples(draw, late_jump=False):
    dim = draw(st.integers(1, 2))
    return Sample(tuple(draw(st.lists(paths(dim, late_jump), min_size=1, max_size=8))), SPACE)


def _hex_paths(sample: Sample) -> list:
    return [
        (
            tuple(c.hex() for c in p.covariates),
            p.initial_state,
            tuple((t.hex(), s) for t, s in p.jumps),
            float(p.end_time).hex(),
            p.end_reason,
        )
        for p in sample.paths
    ]


def _assert_table(table, literal: dict[str, np.ndarray]) -> None:
    assert sorted(vars(table)) == sorted(TABLE_COLUMNS)
    for name in TABLE_COLUMNS:
        got, want = getattr(table, name), literal[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        if got.dtype == float:
            got, want = got.view(np.int64), want.view(np.int64)
        assert np.array_equal(got, want), name


@given(samples(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_loader_matches_literal_on_shuffled_rows(tmp_path_factory, sample, rng):
    tmp = tmp_path_factory.mktemp("load")
    written = tmp / "written.csv"
    _literal_write_sample(sample, written)
    with open(written, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    rng.shuffle(rows)
    shuffled = tmp / "shuffled.csv"
    with open(shuffled, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])

    for path in (written, shuffled):
        fast, literal = load_sample(path), _literal_load_sample(path)
        assert "paths" not in vars(fast)
        assert _hex_paths(fast) == _hex_paths(literal)
        assert fast.state_space == literal.state_space
        assert (len(fast), fast.covariate_dim) == (len(literal), literal.covariate_dim)
        _assert_table(fast.table, _literal_table(literal))
        write_sample(fast, tmp / "fast.csv")
        _literal_write_sample(literal, tmp / "literal.csv")
        assert (tmp / "fast.csv").read_bytes() == (tmp / "literal.csv").read_bytes()
    write_sample(load_sample(written), tmp / "again.csv")
    assert (tmp / "again.csv").read_bytes() == written.read_bytes()


@given(samples(late_jump=True))
@settings(max_examples=150, deadline=None)
def test_path_built_table_and_writer_match_literal(tmp_path_factory, sample):
    tmp = tmp_path_factory.mktemp("paths")
    assert not {"table", "_columns"} & set(vars(sample))
    problems = _literal_validate(sample)
    if problems:
        # a late jump: the table and the writer name its subject, and build nothing
        for build in (lambda: sample.table, lambda: write_sample(sample, tmp / "fast.csv")):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == problems[0]
        assert not (tmp / "fast.csv").exists()
        return
    _assert_table(sample.table, _literal_table(sample))
    write_sample(sample, tmp / "fast.csv")
    _literal_write_sample(sample, tmp / "literal.csv")
    assert (tmp / "fast.csv").read_bytes() == (tmp / "literal.csv").read_bytes()


# values an edit puts in a path's fields, valid and not
EDIT_FLOATS = (0.0, -0.25, 0.5, 1.0, 2.5, math.inf, -math.inf, math.nan)
EDIT_LABELS = (1, 2, 3, 4)


@st.composite
def edited_samples(draw):
    """A sample of valid paths, one to three fields of which are replaced."""
    dim = draw(st.integers(1, 2))
    paths_ = [list(vars(p).values()) for p in draw(st.lists(paths(dim), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(1, 3))):
        fields = paths_[draw(st.integers(0, len(paths_) - 1))]
        covariates, _, jumps, _, _ = fields
        edit = draw(
            st.sampled_from(("covariate", "dim", "init", "time", "label", "absorb", "add", "end", "reason"))
        )
        if edit == "covariate":
            fields[0] = (draw(st.sampled_from(EDIT_FLOATS)), *covariates[1:])
        elif edit == "dim":
            fields[0] = covariates[:-1] if draw(st.booleans()) else (*covariates, 0.5)
        elif edit == "init":
            fields[1] = draw(st.sampled_from(EDIT_LABELS))
        elif edit in ("time", "label", "absorb") and jumps:
            i = draw(st.integers(0, len(jumps) - 1))
            t, label = jumps[i]
            if edit == "time":
                t = draw(st.sampled_from(EDIT_FLOATS))
            else:
                label = 3 if edit == "absorb" else draw(st.sampled_from(EDIT_LABELS))
            fields[2] = (*jumps[:i], (t, label), *jumps[i + 1 :])
        elif edit == "add":
            t = draw(st.sampled_from(EDIT_FLOATS + (3.0,)))
            fields[2] = (*jumps, (t, draw(st.sampled_from(EDIT_LABELS))))
        elif edit == "end":
            fields[3] = draw(st.sampled_from(EDIT_FLOATS))
        else:
            fields[4] = draw(st.sampled_from((CENSORED, ABSORBED, "lost")))
    return Sample(tuple(ObservedPath(*fields) for fields in paths_), SPACE)


@given(edited_samples())
@settings(max_examples=400, deadline=None)
def test_hand_built_samples_break_rules_as_the_literal_check_says(sample):
    problems = _literal_validate(sample)
    if not problems:
        _assert_table(sample.table, _literal_table(sample))
        return
    with pytest.raises(ValidationError) as err:
        sample.table  # noqa: B018
    assert str(err.value) == problems[0]


def _outcome(load, path):
    try:
        sample = load(path)
    except ValueError as err:
        return type(err), str(err)
    return _hex_paths(sample), sample.state_space


@seed(20262)
@given(csv_mutants())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_loader_matches_literal_on_fuzzed_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "sample.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_sample, path) == _outcome(_literal_load_sample, path)


# rows that a row-by-row reading skips as blank
BLANKS = ([], [""], [" ", ""], ["", "", "", "", ""], ["  "] * 6)
EDITS = {
    "state": (2, ("1", "2", "3", " 3 ")),
    "end": (3, ("", "0", "1", "2", " 1")),
    "time": (1, ("0", "-0", "0.25", "0.5", "2.5")),
}


@given(samples(), st.data())
@settings(max_examples=300, deadline=None)
def test_loader_matches_literal_on_edited_files(tmp_path_factory, sample, data):
    path = tmp_path_factory.mktemp("edit") / "sample.csv"
    _literal_write_sample(sample, path)
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(("state", "end", "time", "widen", "narrow", "blank", "move")))
        i = data.draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if action in EDITS:
            col, values = EDITS[action]
            if col < len(row):
                row[col] = data.draw(st.sampled_from(values))
        elif action == "widen":
            row.append("")
        elif action == "narrow":
            del row[-1:]
        elif action == "blank":
            rows.insert(i, list(data.draw(st.sampled_from(BLANKS))))
        else:
            rows.insert(data.draw(st.integers(0, len(rows) - 1)), rows.pop(i))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])
    assert _outcome(load_sample, path) == _outcome(_literal_load_sample, path)


# cells that break lines inside quotes, next to ordinary ones
CELLS = ("a", "", " ", "a\nb", "\r\n", "x\ry", "\n\n", '"q"', "b,c", "\n\r")


@given(
    st.lists(st.lists(st.sampled_from(CELLS), max_size=4), max_size=8),
    st.sampled_from(("\r\n", "\n", "\r")),
)
@settings(max_examples=200, deadline=None)
def test_row_lines_match_the_readers_line_count(rows, terminator):
    text = io.StringIO()
    csv.writer(text, lineterminator=terminator).writerows([["h"], *rows])
    reader = csv.reader(io.StringIO(text.getvalue(), newline=""))
    next(reader)
    first, records, lines = reader.line_num + 1, [], []
    previous = reader.line_num
    for record in reader:
        records.append(record)
        lines.append(previous + 1)
        previous = reader.line_num
    assert _Rows(records, first, {}, [], []).lines.tolist() == lines
