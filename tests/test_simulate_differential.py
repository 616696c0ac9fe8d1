"""The sampler against the literal per-jump sampler it must reproduce bit for bit.

The oracle below is the sampler as first written: each subject's streams
are ``np.random.default_rng([seed, index, k])``, each jump target is a
``Generator.choice`` draw, and each rate is an ``eval`` of the checked
expression over a fresh dict of names. A path of the fast sampler must
equal the oracle's in every bit, so a change to how the streams are
built, how a target is chosen or how a rate is computed fails here
rather than drifting. Numpy's own ``choice`` is also probed at crafted
uniforms: on a cumulative-table entry and in the gap a missing
normalisation opens. The batched seeding is checked against
``default_rng`` state by state, so a change to numpy's ``SeedSequence``
or PCG64 seeding fails here loudly.
"""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaalen import simulate
from condaalen.data import ABSORBED, CENSORED, ObservedPath
from condaalen.simulate import (
    _ALLOWED_FUNCS,
    MARKOV,
    SEMI_MARKOV,
    IntensitySpec,
    _choice_cdf,
    _choose,
    _load,
    _pcg64_states,
    _words,
    compile_expression,
    default_scenario_json,
    load_scenario,
    simulate_path,
    simulate_sample,
)

# --- the literal sampler -----------------------------------------------------


def _literal_compile(text: str, dim: int):
    code = compile(ast.parse(text, mode="eval"), "<rate>", "eval")

    def evaluate(t, duration, x):
        env = {"t": t, "duration": duration, "x": x[0]}
        for i, xi in enumerate(x, start=1):
            env[f"x{i}"] = xi
        return float(eval(code, {"__builtins__": {}, **_ALLOWED_FUNCS}, env))

    return evaluate


def _literal_scenario(raw: dict):
    """Intensity and censoring of a scenario dict, drawn the literal way."""
    dim = len(raw["covariates"])
    rates = {}
    for key, text in raw["rates"].items():
        j, _, k = key.partition("->")
        rates[(int(j), int(k))] = _literal_compile(text, dim)

    def rate(j, k, t, duration, x):
        fn = rates.get((j, k))
        return fn(t, duration, x) if fn else 0.0

    def covariates(rng):
        out = []
        for law in raw["covariates"]:
            if law["law"] == "uniform":
                out.append(rng.uniform(law["low"], law["high"]))
            elif law["law"] == "normal":
                out.append(rng.normal(law["mean"], law["sd"]))
            else:
                out.append(float(rng.choice(law["values"], p=law["probs"])))
        return tuple(out)

    cens = raw["censoring"]
    if cens["law"] == "exponential":
        cens_rate = _literal_compile(cens["rate"], dim)

        def censor(rng, x):
            return rng.exponential(1.0 / cens_rate(0.0, 0.0, x))

    elif cens["law"] == "uniform":

        def censor(rng, x):
            return rng.uniform(float(cens["low"]), float(cens["high"]))

    else:

        def censor(rng, x):
            return float(cens["value"])

    # the time_constant flag comes from the fast loader: it picks the sampler
    fast = load_scenario(raw)["intensity"]
    intensity = IntensitySpec(
        kind=raw.get("kind", MARKOV),
        rate=rate,
        covariate_law=covariates,
        state_space=fast.state_space,
        initial_state=int(raw["initial_state"]),
        time_constant=fast.time_constant,
        thinning_window=float(raw.get("thinning_window", 0.25)),
    )
    return intensity, censor


def _literal_rate(intensity, j, k, t, duration, x):
    value = intensity.rate(j, k, t, duration, x)
    assert value >= 0
    return value


def _literal_constant(intensity, x, censor_time, rng):
    space = intensity.state_space
    state = intensity.initial_state
    t = 0.0
    jumps = []
    while True:
        if state in space.absorbing:
            return jumps, True, t
        targets = [k for k in space.states if k != state]
        rates = [_literal_rate(intensity, state, k, t, 0.0, x) for k in targets]
        total = sum(rates)
        if total == 0.0:
            return jumps, False, censor_time
        t = t + rng.exponential(1.0 / total)
        if t > censor_time:
            return jumps, False, censor_time
        state = int(rng.choice(targets, p=np.asarray(rates) / total))
        jumps.append((t, state))


def _literal_thinning(intensity, x, censor_time, rng):
    space = intensity.state_space
    state = intensity.initial_state
    t = 0.0
    entry = 0.0
    h = intensity.thinning_window
    jumps = []
    while True:
        if state in space.absorbing:
            return jumps, True, t
        if t > censor_time:
            return jumps, False, censor_time
        window_end = t + h
        targets = [k for k in space.states if k != state]
        probes = np.linspace(t, window_end, 17)
        total_at = [
            sum(_literal_rate(intensity, state, k, s, s - entry, x) for k in targets)
            for s in probes
        ]
        majorant = max(total_at) * 1.25
        if majorant == 0.0:
            t = window_end
            continue
        s = t
        jumped = False
        while True:
            s = s + rng.exponential(1.0 / majorant)
            if s > window_end or s > censor_time:
                break
            rates = [_literal_rate(intensity, state, k, s, s - entry, x) for k in targets]
            total = sum(rates)
            assert total <= majorant
            if rng.uniform() * majorant <= total:
                state = int(rng.choice(targets, p=np.asarray(rates) / total))
                jumps.append((s, state))
                t = s
                entry = s
                jumped = True
                break
        if not jumped:
            if window_end > censor_time:
                return jumps, False, censor_time
            t = window_end


def _literal_path(intensity, censoring, seed, index):
    rng_jump = np.random.default_rng([seed, index, 0])
    rng_cens = np.random.default_rng([seed, index, 1])
    x = tuple(float(v) for v in np.atleast_1d(intensity.covariate_law(rng_jump)))
    censor_time = float(censoring(rng_cens, x))
    sampler = _literal_constant if intensity.time_constant else _literal_thinning
    jumps, absorbed, end = sampler(intensity, x, censor_time, rng_jump)
    return ObservedPath(
        x, intensity.initial_state, tuple(jumps), end, ABSORBED if absorbed else CENSORED
    )


# --- paths -------------------------------------------------------------------


def _bits(path):
    return (
        [c.hex() for c in path.covariates],
        [(t.hex(), s) for t, s in path.jumps],
        path.end_time.hex(),
    )


def _scenarios():
    base = default_scenario_json(n=25, seed=1)
    return {
        "default": base,
        "semi-markov": {
            **base,
            "kind": SEMI_MARKOV,
            "rates": {
                "1->2": "0.8*(1+x1)*(1+duration)",
                "1->3": "0.4*(1+x)",
                "2->3": "0.6*(1+0.5*duration)",
            },
        },
        "thinning": {**base, "rates": {k: v + " + 0*t" for k, v in base["rates"].items()}},
        "discrete": {
            **base,
            "covariates": [
                {"law": "uniform", "low": 0.0, "high": 1.0},
                # sums to 1 - 2e-9, inside numpy's tolerance: the table's
                # normalisation moves its entries
                {"law": "discrete", "values": [0.0, 1.0, 2.5], "probs": [0.2, 0.5, 0.3 - 2e-9]},
            ],
            "rates": {
                "1->2": "0.8*(1+x1) + 0.2*x2",
                "1->3": "0.4*(1+x1)",
                "2->3": "0.6*(1+x2)",
            },
        },
        "reversible": {
            **base,
            "states": [1, 2],
            "absorbing": [],
            "rates": {"1->2": "1.5*(1+x1)", "2->1": "0.9"},
            "censoring": {"law": "uniform", "low": 1.0, "high": 5.0},
        },
    }


SEEDS = [0, 3, 2**32 - 1, 2**32, 2**64 + 5]
INDICES = [0, 1, 2999, 2**32 - 1, 2**32, 2**40 + 3]


@pytest.mark.parametrize("name", list(_scenarios()))
def test_sampler_matches_literal_sampler(name, monkeypatch):
    raw = _scenarios()[name]
    fast = load_scenario(raw)
    intensity, censoring = _literal_scenario(raw)
    assert intensity.time_constant == (name not in ("semi-markov", "thinning"))
    jumps = 0
    for seed in SEEDS:
        wants = [_literal_path(intensity, censoring, seed, index) for index in range(25)]
        # 7 seeds the 25 subjects in four chunks, the last one ragged; 1024 is the default
        for chunk in (7, 1024):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            sample = simulate_sample(fast["intensity"], fast["censoring"], 25, seed)
            for index, (path, want) in enumerate(zip(sample.paths, wants, strict=True)):
                assert path == want, (seed, index, chunk)
                assert _bits(path) == _bits(want), (seed, index, chunk)
        for index, want in enumerate(wants[:3]):
            assert simulate_path(fast["intensity"], fast["censoring"], seed, index) == want
        jumps += sum(len(want.jumps) for want in wants)
        for index in (2**32, 2**40 + 3):
            path = simulate_path(fast["intensity"], fast["censoring"], seed, index)
            want = _literal_path(intensity, censoring, seed, index)
            assert path == want and _bits(path) == _bits(want), (seed, index)
    assert jumps > 50


def _generator(row) -> np.random.Generator:
    bit_generator = np.random.PCG64(0)
    _load(bit_generator, row)
    return np.random.Generator(bit_generator)


def _draws(rng) -> list:
    return [rng.random(5), rng.integers(0, 2**63, 3), rng.random(3, dtype=np.float32), rng.random(2)]


def test_batched_states_are_default_rng_states():
    keys = [(seed, index, k) for seed in SEEDS for index in INDICES for k in (0, 1)]
    by_length: dict[int, list] = {}
    for key in keys:
        words = _words(key[0]) + _words(key[1]) + [key[2]]
        by_length.setdefault(len(words), []).append((key, words))
    assert sorted(by_length) == [3, 4, 5, 6]
    for group in by_length.values():
        # one call per word length, as simulate_sample seeds a chunk
        rows = _pcg64_states(np.array([words for _, words in group], dtype=np.uint32))
        assert rows.dtype == np.uint64 and rows.shape == (len(group), 4)
        for (key, _), row in zip(group, rows.tolist()):
            want = np.random.default_rng(list(key))
            got = _generator(row)
            assert got.bit_generator.state == want.bit_generator.state, key
            for a, b in zip(_draws(got), _draws(want)):
                assert np.array_equal(a, b), key


def test_reused_generators_start_each_subject_fresh():
    # a float32 draw leaves half a 64-bit output buffered in the bit generator;
    # the next subject must not see it
    intensity = IntensitySpec(
        kind=MARKOV,
        rate=lambda j, k, t, duration, x: 0.5,
        covariate_law=lambda rng: (float(rng.random(dtype=np.float32)),),
        state_space=load_scenario(default_scenario_json())["intensity"].state_space,
        initial_state=1,
        time_constant=True,
    )

    def censoring(rng, x):
        return 0.5 + float(rng.random(dtype=np.float32))

    sample = simulate_sample(intensity, censoring, 40, 11)
    for index, path in enumerate(sample.paths):
        want = _literal_path(intensity, censoring, 11, index)
        assert path == want, index


@pytest.mark.parametrize("value", [0, 1, 3, 2**32 - 1, 2**32, 2**33 + 7, 2**64 + 5, 10**30])
def test_words_are_seed_sequence_entropy(value):
    want = np.random.SeedSequence([value]).generate_state(4)
    got = np.random.SeedSequence(np.array(_words(value), dtype=np.uint32)).generate_state(4)
    assert np.array_equal(got, want)
    assert len(_words(value)) == max(1, math.ceil(value.bit_length() / 32))


# --- the choice table ----------------------------------------------------------


def _drawing(u: float) -> np.random.Generator:
    """A generator whose next ``random()`` is ``u``, a multiple of 2**-53 in [0, 1)."""
    # random() is (next_uint64 >> 11) * 2**-53, and PCG64 outputs a state
    # whose high word is 0 as its low word; step back once from that state
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": round(u * 2**53) << 11, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(-1)
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("u", [0.0, 2**-53, 0.25, 0.5, (2**53 // 3) / 2**53, 1.0 - 2**-53])
def test_drawing_draws_u(u):
    assert _drawing(u).random() == u


def _probes(p) -> list[float]:
    """Uniforms on and around each entry of the table, raw and normalised."""
    raw = np.cumsum(p)
    out = set()
    for c in np.concatenate([raw, raw / raw[-1]]):
        k = math.floor(float(c) * 2**53)
        out.update(k + d for d in (-1, 0, 1) if 0 <= k + d < 2**53)
    return [k / 2**53 for k in sorted(out)]


RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0 / 3.0, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@given(
    rates=st.lists(RATES, min_size=2, max_size=6).filter(lambda r: sum(r) > 0.0),
    scale=st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]),
    seed=st.integers(0, 2**64),
)
@settings(max_examples=300, deadline=None)
def test_choose_matches_generator_choice(rates, scale, seed):
    total = sum(rates)
    # as the samplers form it, or a law's probabilities off 1 by numpy's slack
    p = [r / total * scale for r in rates]
    cdf = _choice_cdf(p)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert _choose(cdf, a) == b.choice(len(p), p=np.asarray(p))
    assert a.random() == b.random()
    for u in _probes(p):
        assert _choose(cdf, _drawing(u)) == _drawing(u).choice(len(p), p=np.asarray(p)), u


def test_choose_at_a_table_entry_goes_right():
    # u == 0.5 equals the first entry: searchsorted(side="right") passes it
    assert _drawing(0.5).choice(2, p=[0.5, 0.5]) == 1
    assert _choose(_choice_cdf([0.5, 0.5]), _drawing(0.5)) == 1


# --- compiled rate expressions --------------------------------------------------

EXPRESSIONS = [
    "t + duration",
    "t - x1",
    "x * x2",
    "duration / (0.5 + x2)",
    "x1 ** 2.5",
    "2 ** 3 - -x2",
    "+t - -duration",
    "exp(-t) * x1",
    "log(1 + duration)",
    "sqrt(abs(x2 - t))",
    "min(t, x1, 0.3)",
    "max(duration, x2)",
    "0.1 + 0.2 * x",
    "3",
    "1e308 * 1e308",
    "0.8*(1+x1)*(1+0.5*t) / (1 + duration**2)",
]
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e-300, 1e300]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (ArithmeticError, TypeError, ValueError) as err:
        return type(err)


@pytest.mark.parametrize("text", EXPRESSIONS)
@given(t=VALUES, duration=VALUES, x1=VALUES, x2=VALUES)
@settings(max_examples=40, deadline=None)
def test_compiled_expression_matches_eval(text, t, duration, x1, x2):
    fast, _ = compile_expression(text, 2)
    literal = _literal_compile(text, 2)
    assert _outcome(fast, t, duration, (x1, x2)) == _outcome(literal, t, duration, (x1, x2))


def test_expressions_cover_the_grammar():
    used = {type(node).__name__ for text in EXPRESSIONS for node in ast.walk(ast.parse(text))}
    assert {"Add", "Sub", "Mult", "Div", "Pow", "USub", "UAdd"} <= used
    names = {n.id for text in EXPRESSIONS for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)}
    assert set(_ALLOWED_FUNCS) | {"t", "duration", "x", "x1", "x2"} <= names
