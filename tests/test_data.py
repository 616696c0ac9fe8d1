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
    counting_increments,
    load_sample,
    validate,
    write_sample,
)

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


def test_schema_overrides(tmp_path):
    text = """subj,t,st,stop,age
a,0,1,,44
a,1.0,2,0,
"""
    s = load_sample(
        _write(tmp_path, text),
        schema={"id": "subj", "time": "t", "state": "st", "end": "stop", "covariates": ["age"]},
    )
    assert s.paths[0].covariates == (44.0,)


def test_schema_state_declaration(tmp_path):
    s = load_sample(
        _write(tmp_path, BASIC),
        schema={"states": [1, 2, 3, 4], "absorbing": [3, 4]},
    )
    assert s.state_space.states == (1, 2, 3, 4)
    assert s.state_space.absorbing == frozenset({3, 4})


def test_schema_state_declaration_rejects_unknown(tmp_path):
    with pytest.raises(ValidationError, match="unknown state"):
        load_sample(_write(tmp_path, BASIC), schema={"states": [1, 2], "absorbing": []})


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


def test_counting_increments_enumeration():
    p = ObservedPath((0.0,), 1, ((0.5, 2), (0.9, 1), (1.4, 2)), 1.4, ABSORBED)
    assert counting_increments(p) == [(0.5, 1, 2), (0.9, 2, 1), (1.4, 1, 2)]
    q = ObservedPath((0.0,), 3, (), 2.0, CENSORED)
    assert counting_increments(q) == []
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
    assert validate(Sample((p,), _space())) == []


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
    ],
)
def test_validate_flags_violation(path, needle):
    msgs = validate(Sample((path,), _space()))
    assert any(needle in m for m in msgs), msgs


def test_validate_covariate_dim_mismatch():
    p = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    q = ObservedPath((0.1, 0.2), 1, (), 1.0, CENSORED)
    msgs = validate(Sample((p, q), _space()))
    assert any("covariate dimension" in m for m in msgs)


def test_validate_names_subjects_by_label(tmp_path):
    p = ObservedPath((0.1,), 1, (), 1.0, CENSORED)
    q = ObservedPath((0.1,), 4, (), 1.0, CENSORED)
    sample = Sample((p, q), _space())
    assert validate(sample) == ["subject 1: unknown state label 4"]
    labels = ["id 'p' (line 2)", "id 'q' (line 3)"]
    assert validate(sample, labels) == ["id 'q' (line 3): unknown state label 4"]
    with pytest.raises(ValueError):
        validate(sample, labels[:1])
    # load_sample labels each subject by its id and the line of its time-0 row
    with pytest.raises(ValidationError, match=r"; id 'b' \(line 5\): unknown state label 2;"):
        load_sample(_write(tmp_path, BASIC), schema={"states": [1, 3], "absorbing": [3]})


def test_state_space_validation():
    with pytest.raises(ValueError, match="distinct"):
        StateSpace((1, 1, 2))
    with pytest.raises(ValueError, match="absorbing"):
        StateSpace((1, 2), frozenset({9}))
    sp = _space()
    assert sp.index(2) == 1
    with pytest.raises(KeyError):
        sp.index(7)


def test_event_table_rows_and_clip():
    a = ObservedPath((0.2,), 1, ((0.5, 2), (1.0, 3)), 1.0, ABSORBED)
    # a jump recorded after the end of follow-up stays on the grid only
    b = ObservedPath((0.4,), 2, ((2.0, 1),), 1.5, CENSORED)
    sample = Sample((a, b), _space())
    tab = sample.table
    assert sample.table is tab
    np.testing.assert_array_equal(tab.grid, [0.5, 1.0, 1.5, 2.0])
    assert (tab.subj.tolist(), tab.pos.tolist()) == ([0, 0], [0, 1])
    assert (tab.src.tolist(), tab.dst.tolist()) == ([0, 1], [1, 2])
    assert (tab.init.tolist(), tab.final.tolist()) == ([0, 1], [2, 1])
    assert (tab.end_pos.tolist(), tab.censored.tolist()) == ([1, 2], [False, True])
    np.testing.assert_array_equal(tab.covariates, [[0.2], [0.4]])
    assert tab.soj_subj.tolist() == [0, 0, 0, 1]
    assert tab.soj_state.tolist() == [0, 1, 2, 1]
    assert tab.soj_entry.tolist() == [-1, 0, 1, -1]
    assert tab.soj_exit.tolist() == [0, 1, 3, 2]
    assert tab.soj_next.tolist() == [1, 2, -1, -1]
    assert not any(col.flags.writeable for col in vars(tab).values())
