import math

import numpy as np
import pytest

from condaalen.data import (
    ABSORBED,
    CENSORED,
    ObservedPath,
    ParseError,
    Sample,
    StateSpace,
    ValidationError,
    load_sample,
    write_sample,
)
from condaalen.estimators import fit

BASIC = """id,time,state,end,x1
a,0,1,,0.3
a,0.5,2,,
a,1.2,3,0,
b,0,1,,0.8
b,0.9,2,,
b,1.5,2,1,
c,0,2,,0.1
c,0.4,3,0,
"""


def _write(tmp_path, text, name="sample.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_load_basic(tmp_path):
    s = load_sample(_write(tmp_path, BASIC))
    assert len(s) == 3
    assert s.covariate_dim == 1
    a, b, c = s.paths
    assert a.covariates == (0.3,)
    assert a.initial_state == 1
    assert a.jumps == ((0.5, 2), (1.2, 3))
    assert a.end_time == 1.2
    assert a.end_reason == ABSORBED
    assert b.end_reason == CENSORED
    assert b.end_time == 1.5
    assert b.jumps == ((0.9, 2),)
    assert c.initial_state == 2
    assert s.state_space.states == (1, 2, 3)
    assert s.state_space.absorbing == frozenset({3})


def test_load_unsorted_rows(tmp_path):
    text = """id,time,state,end,x1
a,0.5,2,,
a,0,1,,0.3
a,1.2,3,0,
"""
    s = load_sample(_write(tmp_path, text))
    assert s.paths[0].covariates == (0.3,)
    assert s.paths[0].jumps == ((0.5, 2), (1.2, 3))


def test_duplicate_id_time_rejected(tmp_path):
    text = """id,time,state,end,x1
a,0,1,,0.3
a,0.5,2,,
a,0.5,3,0,
"""
    with pytest.raises(ParseError, match=r"'a'.*t=0\.5"):
        load_sample(_write(tmp_path, text))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ParseError, match="empty file"):
        load_sample(_write(tmp_path, ""))
    with pytest.raises(ParseError, match="no subjects"):
        load_sample(_write(tmp_path, "id,time,state,end,x1\n"))


def test_missing_time_zero_row(tmp_path):
    text = """id,time,state,end,x1
a,0.5,1,,0.3
a,1.0,2,0,
"""
    with pytest.raises(ValidationError, match="time 0"):
        load_sample(_write(tmp_path, text))


def test_bad_end_flag(tmp_path):
    text = """id,time,state,end,x1
a,0,1,,0.3
a,1.0,2,yes,
"""
    with pytest.raises(ValidationError, match="end flag"):
        load_sample(_write(tmp_path, text))


def test_missing_terminal_flag(tmp_path):
    text = """id,time,state,end,x1
a,0,1,,0.3
a,1.0,2,,
"""
    with pytest.raises(ValidationError, match="end flag"):
        load_sample(_write(tmp_path, text))


@pytest.mark.parametrize(
    "rows, line",
    [
        # an absorbed-looking flag mid-path: it would load as a censored
        # path that jumps on out of state 3
        (["a,0,1,,0.3", "a,1,3,0,", "a,2,2,1,"], 3),
        (["a,0,1,0,0.3", "a,1,2,0,"], 2),
        (["a,0,1,,0.3", "a,1,2,1,", "a,2,3,0,"], 3),
    ],
    ids=["zero-mid-path", "zero-on-time-0-row", "one-mid-path"],
)
def test_end_flag_on_non_terminal_row_rejected(tmp_path, rows, line):
    text = "id,time,state,end,x1\n" + "\n".join(rows) + "\n"
    message = rf"^id 'a': end flag on non-terminal row \(line {line}\)$"
    with pytest.raises(ValidationError, match=message):
        load_sample(_write(tmp_path, text))


def test_duplicate_column_rejected(tmp_path):
    text = """id,time,state,end,x1,x1
a,0,1,,0.3,0.9
a,1.0,2,0,,
"""
    with pytest.raises(ParseError, match=r"^duplicate column 'x1' in header$"):
        load_sample(_write(tmp_path, text))


def test_repeated_state_outside_marker(tmp_path):
    text = """id,time,state,end,x1
a,0,1,,0.3
a,0.5,1,,
a,1.0,2,0,
"""
    with pytest.raises(ValidationError, match="repeated state"):
        load_sample(_write(tmp_path, text))


def test_missing_covariate_columns(tmp_path):
    text = """id,time,state,end
a,0,1,
a,1.0,2,0
"""
    with pytest.raises(ParseError, match="covariate"):
        load_sample(_write(tmp_path, text))


def test_oversize_cell_is_a_parse_error_naming_its_line(tmp_path):
    # csv refuses a field over csv.field_size_limit() (131072 characters)
    text = BASIC.replace("b,0,1,,0.8", "b,0,1,," + "9" * 200_000)
    with pytest.raises(ParseError, match=r"^line 5: field larger than field limit"):
        load_sample(_write(tmp_path, text))


def test_error_lines_are_physical_lines(tmp_path):
    # the id "a\nb" spans two lines on both of its rows, so c's time-0 row is line 6
    text = 'id,time,state,end,x1\n"a\nb",0,1,,0.3\n"a\nb",1.0,2,1,\nc,0,1,,nan\nc,1.0,2,1,\n'
    with pytest.raises(ParseError, match=r"^line 6: covariate x1='nan' is not a finite number$"):
        load_sample(_write(tmp_path, text))


def test_loaded_sample_builds_its_paths_on_first_use(tmp_path):
    s = load_sample(_write(tmp_path, BASIC))
    assert "table" in vars(s) and "paths" not in vars(s)
    assert (len(s), s.covariate_dim) == (3, 1)
    assert s.paths is s.paths
    assert s.paths[1] == ObservedPath((0.8,), 1, ((0.9, 2),), 1.5, CENSORED)


def test_byte_order_mark_before_header_is_ignored(tmp_path):
    # spreadsheet exports write a UTF-8 byte-order mark before the header
    marked = load_sample(_write(tmp_path, "\ufeff" + BASIC, "marked.csv"))
    plain = load_sample(_write(tmp_path, BASIC))
    assert marked.paths == plain.paths
    assert marked.state_space == plain.state_space


def test_round_trip_bit_exact(tmp_path, sim_sample):
    f1 = tmp_path / "one.csv"
    f2 = tmp_path / "two.csv"
    write_sample(sim_sample, f1)
    again = load_sample(f1)
    assert len(again) == len(sim_sample)
    for p, q in zip(sim_sample.paths, again.paths):
        assert p.covariates == q.covariates
        assert p.jumps == q.jumps
        assert p.end_time == q.end_time
        assert p.end_reason == q.end_reason
    write_sample(again, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_final_state():
    q = ObservedPath((0.0,), 3, (), 2.0, CENSORED)
    assert q.final_state == 3


def test_state_queries():
    p = ObservedPath((0.0,), 1, ((0.5, 2), (1.0, 3)), 1.0, ABSORBED)
    assert p.state_at(0.4) == 1
    assert p.state_at(0.5) == 2
    assert p.state_at(2.0) == 3
    assert p.state_before(0.5) == 1
    assert p.state_before(1.0) == 2
    assert p.state_before(1.5) == 3


def _space():
    return StateSpace((1, 2, 3), frozenset({3}))


def test_validate_clean():
    p = ObservedPath((0.1,), 1, ((1.0, 3),), 1.0, ABSORBED)
    assert Sample((p,), _space()).table.grid.tolist() == [1.0]


@pytest.mark.parametrize(
    "path,needle",
    [
        (ObservedPath((0.1,), 1, (), -1.0, CENSORED), "end_time"),
        (ObservedPath((0.1,), 1, ((0.5, 2), (0.5, 3)), 0.5, ABSORBED), "strictly increasing"),
        (ObservedPath((0.1,), 1, ((0.5, 1),), 1.0, CENSORED), "self-transition"),
        (ObservedPath((0.1,), 1, ((0.5, 3), (0.8, 1)), 1.0, CENSORED), "absorbing"),
        (ObservedPath((0.1,), 3, (), 1.0, CENSORED), "absorbing"),
        (ObservedPath((0.1,), 1, ((0.5, 2),), 1.0, ABSORBED), "non-absorbing"),
        (ObservedPath((0.1,), 1, ((0.5, 3),), 1.0, ABSORBED), "last jump"),
        (ObservedPath((0.1,), 1, ((2.0, 3),), 1.0, ABSORBED), "after end_time"),
        (ObservedPath((0.1,), 1, (), 1.0, "lost"), "end_reason"),
        (ObservedPath((0.1,), 4, (), 1.0, CENSORED), "unknown state"),
        (ObservedPath((float("nan"),), 1, (), 1.0, CENSORED), "non-finite covariate"),
        (ObservedPath((0.1,), 1, (), float("inf"), CENSORED), "positive and finite"),
        (ObservedPath((0.1,), 1, ((float("nan"), 2),), 1.0, CENSORED), "finite and strictly increasing"),
        # absorbed without a jump: the only path that put no time on the grid
        (ObservedPath((0.1,), 1, (), 1.0, ABSORBED), "non-absorbing"),
    ],
)
def test_validate_flags_violation(path, needle):
    # a hand-built sample is checked when its columns are first built
    with pytest.raises(ValidationError, match=f"^subject 0: .*{needle}"):
        Sample((path,), _space()).table  # noqa: B018


def test_validate_covariate_dim_mismatch():
    p = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    q = ObservedPath((0.1, 0.2), 1, (), 1.0, CENSORED)
    with pytest.raises(ValidationError, match=r"^subject 1: covariate dimension 2 != 1$"):
        Sample((p, q), _space()).table  # noqa: B018


def test_end_time_and_reason_are_read_as_numpy_reads_them():
    # an end time converts as numpy converts it: None to NaN, which the end-time
    # rule refuses, a numeric string to its number; a reason is tested by ==
    ok = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    none = ObservedPath((0.1,), 1, (), None, CENSORED)
    with pytest.raises(ValidationError) as err:
        Sample((ok, none), _space()).table  # noqa: B018
    assert str(err.value) == "subject 1: end_time must be positive and finite, got None"
    text = ObservedPath((0.1,), 1, ((0.5, 2),), "1.0", np.str_(CENSORED))
    table = Sample((ok, text), _space()).table
    assert table.end_time.tolist() == [1.0, 1.0]
    assert table.censored.tolist() == [True, True]


def test_write_sample_refuses_a_sample_with_no_subjects(tmp_path):
    # its file would be a bare header, which load_sample refuses
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="^cannot write a sample with no subjects$"):
        write_sample(Sample((), _space()), out)
    assert not out.exists()


def test_validate_names_subjects_by_label(tmp_path):
    # a hand-built sample names a subject by its index, the first one that breaks a rule
    p = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    q = ObservedPath((0.1,), 4, (), 1.0, CENSORED)
    r = ObservedPath((0.1,), 3, (), 1.0, CENSORED)
    with pytest.raises(ValidationError, match=r"^subject 1: unknown state label 4$"):
        Sample((p, q, r), _space()).table  # noqa: B018
    # load_sample labels each subject by its id and the line of its time-0 row
    text = BASIC.replace("b,0.9,2,,", "b,0.9,3,,")  # b leaves the absorbing state 3
    with pytest.raises(ValidationError, match=r"^id 'b' \(line 5\): jump out of absorbing state 3"):
        load_sample(_write(tmp_path, text))


@pytest.mark.parametrize("initial,jumps", [(4, ()), (1, ((0.5, 2), (0.7, 4)))])
@pytest.mark.parametrize("entry", ["fit", "table", "write_sample"])
def test_unknown_state_label_names_subject(tmp_path, entry, initial, jumps):
    ok = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    bad = ObservedPath((0.2,), initial, jumps, 1.0, CENSORED)
    sample = Sample((ok, bad), _space())
    calls = {
        "fit": lambda: fit(sample, (0.1,)),
        "table": lambda: sample.table,
        "write_sample": lambda: write_sample(sample, tmp_path / "out.csv"),
    }
    with pytest.raises(ValueError, match=r"^subject 1: unknown state label 4$"):
        calls[entry]()


@pytest.mark.parametrize(
    "path,message",
    [
        (
            ObservedPath((0.1,), 1, ((2.0, 2), (1.0, 1)), 2.5, CENSORED),
            "jump times must be positive, finite and strictly increasing, got t=1.0",
        ),
        (
            ObservedPath((0.1,), 1, ((0.5, 3), (0.8, 1)), 1.0, CENSORED),
            "jump out of absorbing state 3 at t=0.8",
        ),
        (ObservedPath((math.nan,), 1, (), 1.0, CENSORED), "non-finite covariate in (nan,)"),
    ],
    ids=["out-of-order", "out-of-absorbing", "nan-covariate"],
)
@pytest.mark.parametrize("entry", ["fit", "table", "write_sample"])
def test_hand_built_sample_is_refused_naming_subject_0(tmp_path, entry, path, message):
    ok = ObservedPath((0.1,), 1, ((0.5, 2),), 1.0, CENSORED)
    sample = Sample((path, ok), _space())
    calls = {
        "fit": lambda: fit(sample, (0.1,)),
        "table": lambda: sample.table,
        "write_sample": lambda: write_sample(sample, tmp_path / "out.csv"),
    }
    with pytest.raises(ValidationError) as err:
        calls[entry]()
    assert str(err.value) == f"subject 0: {message}"
    assert not (tmp_path / "out.csv").exists()


def test_state_space_validation():
    with pytest.raises(ValueError, match="distinct"):
        StateSpace((1, 1, 2))
    with pytest.raises(ValueError, match="absorbing"):
        StateSpace((1, 2), frozenset({9}))


def test_event_table_rows_and_clip():
    a = ObservedPath((0.2,), 1, ((0.5, 2), (1.0, 3)), 1.0, ABSORBED)
    # a jump recorded after the end of follow-up is refused, not clipped
    late = ObservedPath((0.4,), 2, ((2.0, 1),), 1.5, CENSORED)
    with pytest.raises(ValidationError, match=r"^subject 1: jump at t=2.0 after end_time=1.5$"):
        Sample((a, late), _space()).table  # noqa: B018
    b = ObservedPath((0.4,), 2, (), 1.5, CENSORED)
    sample = Sample((a, b), _space())
    tab = sample.table
    assert sample.table is tab
    np.testing.assert_array_equal(tab.grid, [0.5, 1.0, 1.5])
    assert (tab.subj.tolist(), tab.pos.tolist()) == ([0, 0], [0, 1])
    assert (tab.src.tolist(), tab.dst.tolist()) == ([0, 1], [1, 2])
    assert (tab.init.tolist(), tab.final.tolist()) == ([0, 1], [2, 1])
    assert (tab.end_pos.tolist(), tab.censored.tolist()) == ([1, 2], [False, True])
    np.testing.assert_array_equal(tab.covariates, [[0.2], [0.4]])
    assert tab.soj_subj.tolist() == [0, 0, 0, 1]
    assert tab.soj_state.tolist() == [0, 1, 2, 1]
    assert tab.soj_entry.tolist() == [-1, 0, 1, -1]
    assert tab.soj_exit.tolist() == [0, 1, 2, 2]
    assert tab.soj_next.tolist() == [1, 2, -1, -1]
    assert not any(col.flags.writeable for col in vars(tab).values())
