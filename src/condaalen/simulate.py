"""Sample generation, closed-form oracles, and a brute-force estimator.

Paths are generated state by state: constant-rate specifications use
exact competing exponentials, time- or duration-varying rates use
thinning against a piecewise-constant majorant refreshed on a short
window. The censoring time is drawn from its own RNG substream so the
censoring mechanism is conditionally independent of the jump process by
construction, and changing the censoring law never perturbs the
underlying trajectory.

Stream contract: subject ``index`` of a sample with seed ``seed`` draws
its covariates, jump times and jump targets from
``np.random.default_rng([seed, index, 0])`` and its censoring time from
``np.random.default_rng([seed, index, 1])``, in the order the samplers
below consume them. A path is a function of ``(seed, index)`` alone.
The streams are exactly those, but numpy does not build them. The entropy
is the ``uint32`` words ``SeedSequence`` makes of that list: each integer
split into 32-bit little-endian words, 0 as one word (:func:`_words`).
:func:`_pcg64_states` turns rows of such words into PCG64 states in one
vectorised pass: ``SeedSequence``'s hash of the words into four
``uint64``, then PCG64's seeding step, both fixed integer arithmetic.
:func:`simulate_sample` seeds its subjects in chunks this way and loads
each subject's two states into two reused generators, so no generator is
constructed per subject; :func:`simulate_path` seeds its one subject the
same way. The tests check the states against ``default_rng`` itself, so
a change to numpy's seeding fails there. A jump target is drawn as
``Generator.choice(targets, p=p)`` draws it, bit for bit, with no array
built per jump (:func:`_choose`).

Scenario files are JSON; rate expressions use a restricted arithmetic
grammar over ``t``, ``duration``, and the covariates ``x1 .. xd`` (``x``
aliases ``x1``). Each expression is checked against the grammar once and
compiled to a Python function.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import expm
from scipy.integrate import solve_ivp

from .data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace
from .estimators import HazardEstimate, OccupationEstimate
from .kernels import KernelSpec, NoKernelMass, kernel_eval
from .stepfun import StepCurve, StepMatrix

MARKOV = "markov"
SEMI_MARKOV = "semi_markov"

_MAX_JUMPS = 100_000
_MAJORANT_POINTS = 17
_MAJORANT_SLACK = 1.25
# how far from 1 ``Generator.choice`` lets probabilities sum
_PROBS_ATOL = math.sqrt(np.finfo(np.float64).eps)

_ALLOWED_FUNCS = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "min": min,
    "max": max,
}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Load,
)


class ExpressionError(ValueError):
    """Rate or law expression outside the restricted grammar."""


def compile_expression(text: str, dim: int):
    """Compile a restricted arithmetic expression to a callable.

    The callable takes ``(t, duration, x)`` with ``x`` a coordinate
    sequence. Returns the callable and the set of variable names used.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ExpressionError(f"cannot parse expression {text!r}: {err}") from None
    allowed_names = {"t", "duration", "x"} | {f"x{i}" for i in range(1, dim + 1)}
    used: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"disallowed syntax in {text!r}: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ExpressionError(f"disallowed function call in {text!r}")
            if node.keywords:
                raise ExpressionError(f"keyword arguments not allowed in {text!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_FUNCS:
            if node.id not in allowed_names:
                raise ExpressionError(f"unknown variable {node.id!r} in {text!r}")
            used.add(node.id)
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant in {text!r}")
    # lambda t, duration, x: float(<expression>), with ``x`` and ``xi`` read
    # as x[0] and x[i - 1]: the arithmetic nodes, hence every bit, are the
    # checked expression's own
    body = _Coordinates().visit(tree.body)
    params = ast.arguments(
        posonlyargs=[],
        args=[ast.arg(name) for name in ("t", "duration", "x")],
        kwonlyargs=[],
        kw_defaults=[],
        defaults=[],
    )
    call = ast.Call(ast.Name("float", ast.Load()), [body], [])
    lam = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, call)))
    evaluate = eval(
        compile(lam, "<rate>", "eval"), {"__builtins__": {}, "float": float, **_ALLOWED_FUNCS}
    )
    return evaluate, used


class _Coordinates(ast.NodeTransformer):
    """Rewrites the covariate names ``x`` and ``xi`` as ``x[0]`` and ``x[i - 1]``."""

    def visit_Name(self, node: ast.Name):
        if node.id == "x" or (node.id[:1] == "x" and node.id[1:].isdigit()):
            pos = int(node.id[1:] or 1) - 1
            sub = ast.Subscript(ast.Name("x", ast.Load()), ast.Constant(pos), ast.Load())
            return ast.copy_location(sub, node)
        return node


@dataclass(frozen=True)
class IntensitySpec:
    """Transition intensities of the jump process.

    ``rate`` is a callable ``(j, k, t, duration, x) -> float`` giving the
    intensity of a jump from ``j`` to ``k`` at time ``t`` after spending
    ``duration`` in ``j``; Markov specifications ignore the duration.
    ``time_constant`` marks rates free of both ``t`` and ``duration``,
    unlocking exact simulation and the matrix-exponential oracle path.
    ``covariate_law`` draws a covariate vector from an RNG.
    """

    kind: str
    rate: callable
    covariate_law: callable
    state_space: StateSpace
    initial_state: int
    time_constant: bool = False
    thinning_window: float = 0.25

    def __post_init__(self):
        if self.kind not in (MARKOV, SEMI_MARKOV):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.initial_state in self.state_space.absorbing:
            raise ValueError("initial state must not be absorbing")


def _check_rate(value: float, j: int, k: int, t: float) -> float:
    if value < 0:
        raise ValueError(f"negative rate {value} for {j}->{k} at t={t}")
    if not value < math.inf:
        raise ValueError(f"non-finite rate {value} for {j}->{k} at t={t}")
    return value


def _check_total(total: float, j: int, t: float) -> float:
    if total == math.inf:
        raise ValueError(f"total rate out of state {j} overflows near t={t}")
    return total


def _targets(space: StateSpace, j: int) -> list[int]:
    return [k for k in space.states if k != j]


def _choice_cdf(p) -> list[float]:
    """The table ``Generator.choice(a, p=p)`` searches, bit for bit.

    numpy takes the running sum of ``p`` in order and divides it by its
    last entry; one draw is then ``a[searchsorted(cdf, rng.random(),
    side="right")]``, which consumes one double.
    """
    cdf = list(accumulate(p))
    last = cdf[-1]
    return [c / last for c in cdf]


def _choose(cdf: list[float], rng) -> int:
    """Index of one ``Generator.choice`` draw from ``cdf = _choice_cdf(p)``."""
    return bisect_right(cdf, rng.random())


def _simulate_jumps_constant(intensity, x, censor_time, rng):
    """Exact competing-exponential path up to absorption or censoring."""
    space = intensity.state_space
    state = intensity.initial_state
    t = 0.0
    jumps = []
    while len(jumps) < _MAX_JUMPS:
        if state in space.absorbing:
            return jumps, True, t
        targets = _targets(space, state)
        rates = [_check_rate(intensity.rate(state, k, t, 0.0, x), state, k, t) for k in targets]
        total = _check_total(sum(rates), state, t)
        if total == 0.0:
            return jumps, False, censor_time
        t = t + rng.exponential(1.0 / total)
        if t > censor_time:
            return jumps, False, censor_time
        state = targets[_choose(_choice_cdf([r / total for r in rates]), rng)]
        jumps.append((t, state))
    raise RuntimeError(f"path exceeded {_MAX_JUMPS} jumps; rates look explosive")


def _simulate_jumps_thinning(intensity, x, censor_time, rng):
    """Thinning against a sampled piecewise-constant majorant.

    The majorant on each window is the largest total rate over a fixed
    set of probe points, inflated by a slack factor. Rates that spike
    strictly between probes can exceed it, which raises instead of
    silently biasing the draw.
    """
    space = intensity.state_space
    state = intensity.initial_state
    t = 0.0
    entry = 0.0
    h = intensity.thinning_window
    jumps = []
    while len(jumps) < _MAX_JUMPS:
        if state in space.absorbing:
            return jumps, True, t
        if t > censor_time:
            return jumps, False, censor_time
        window_end = t + h
        if not window_end > t:
            raise ValueError(f"thinning window {h} makes no progress at t={t}")
        targets = _targets(space, state)
        probes = np.linspace(t, window_end, _MAJORANT_POINTS)
        total_at = [
            sum(_check_rate(intensity.rate(state, k, s, s - entry, x), state, k, s) for k in targets)
            for s in probes
        ]
        majorant = _check_total(max(total_at) * _MAJORANT_SLACK, state, t)
        if majorant == 0.0:
            t = window_end
            continue
        s = t
        jumped = False
        while True:
            s = s + rng.exponential(1.0 / majorant)
            if s > window_end or s > censor_time:
                break
            rates = [
                _check_rate(intensity.rate(state, k, s, s - entry, x), state, k, s)
                for k in targets
            ]
            total = sum(rates)
            if total > majorant:
                raise RuntimeError(
                    f"majorant violated at t={s}: rate {total} > bound {majorant}; "
                    "shrink thinning_window"
                )
            if rng.uniform() * majorant <= total:
                state = targets[_choose(_choice_cdf([r / total for r in rates]), rng)]
                jumps.append((s, state))
                t = s
                entry = s
                jumped = True
                break
        if not jumped:
            if window_end > censor_time:
                return jumps, False, censor_time
            t = window_end
    raise RuntimeError(f"path exceeded {_MAX_JUMPS} jumps; rates look explosive")


def _words(value) -> list[int]:
    """The 32-bit little-endian words ``SeedSequence`` makes of a non-negative int."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


# numpy's SeedSequence: O'Neill's seed_seq_fe hash over a pool of four words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, as 32-bit limbs, least significant first
_PCG_MULT = [np.uint64(0x2360ED051FC65DA44385DF649FCCF645 >> 32 * i & 0xFFFFFFFF) for i in range(4)]
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# subjects seeded per pass of simulate_sample
_CHUNK = 1024


def _hashmix(init: int, mult: int):
    """seed_seq_fe's ``hashmix``, whose constant advances by ``mult`` each call."""
    const = init

    def hashmix(value):
        nonlocal const
        xor, const = const, const * mult & 0xFFFFFFFF
        value = (value ^ np.uint32(xor)) * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _carry(limbs):
    """Sums of 32-bit limbs, held in ``uint64``, carried into limbs mod 2**128."""
    out, carry = [], 0
    for limb in limbs:
        limb = limb + carry
        out.append(limb & _LOW32)
        carry = limb >> _SHIFT32
    return out


def _pcg64_states(entropy) -> np.ndarray:
    """The PCG64 state ``default_rng(row)`` starts from, for each row of ``entropy``.

    ``entropy`` is an (N, L) ``uint32`` array of ``SeedSequence`` entropy
    words. Returns an (N, 4) ``uint64`` array of the 128-bit ``state`` and
    ``inc`` as (state high, state low, inc high, inc low). This is
    ``SeedSequence(row).generate_state(4, np.uint64)`` and PCG64's
    ``srandom`` step, vectorised over rows in wrapping integer arithmetic.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, length = entropy.shape
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[:, i] if i < length else np.zeros(rows, np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    # eight 32-bit words, pairs of them the uint64 words v0..v3 (low word first)
    w = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # initstate = v0 << 64 | v1 and inc = (v2 << 64 | v3) << 1 | 1, as limbs
    initstate = [w[2], w[3], w[0], w[1]]
    seq = [w[6], w[7], w[4], w[5]]
    inc = [(seq[0] << np.uint64(1) | np.uint64(1)) & _LOW32] + [
        (seq[i] << np.uint64(1) | seq[i - 1] >> np.uint64(31)) & _LOW32 for i in range(1, 4)
    ]
    # state = ((inc + initstate) * M + inc) mod 2**128
    a = _carry([x + y for x, y in zip(inc, initstate)])
    acc = [np.zeros(rows, np.uint64) for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * _PCG_MULT[j]
            acc[i + j] += product & _LOW32
            if i + j < 3:
                acc[i + j + 1] += product >> _SHIFT32
    state = _carry([x + y for x, y in zip(acc, inc)])
    return np.stack(
        [state[2] | state[3] << _SHIFT32, state[0] | state[1] << _SHIFT32,
         inc[2] | inc[3] << _SHIFT32, inc[0] | inc[1] << _SHIFT32],
        axis=1,
    )


def _load(bit_generator, row) -> None:
    """Put ``bit_generator`` (a PCG64) where ``default_rng`` starts the stream of a states row."""
    state_hi, state_lo, inc_hi, inc_lo = row
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _simulate_subject(intensity: IntensitySpec, censoring, rng_jump, rng_cens) -> ObservedPath:
    """One subject from its jump and censoring streams."""
    x = tuple(float(v) for v in np.atleast_1d(intensity.covariate_law(rng_jump)))
    censor_time = float(censoring(rng_cens, x))
    if not censor_time > 0:
        raise ValueError(f"censoring law produced non-positive time {censor_time}")
    if intensity.time_constant:
        jumps, absorbed, end = _simulate_jumps_constant(intensity, x, censor_time, rng_jump)
    else:
        jumps, absorbed, end = _simulate_jumps_thinning(intensity, x, censor_time, rng_jump)
    return ObservedPath(
        covariates=x,
        initial_state=intensity.initial_state,
        jumps=tuple(jumps),
        end_time=end,
        end_reason=ABSORBED if absorbed else CENSORED,
    )


def simulate_path(intensity: IntensitySpec, censoring, seed, index: int) -> ObservedPath:
    """Simulate one subject with the RNG streams ``[seed, index, 0]`` and ``[seed, index, 1]``.

    ``censoring(rng, x)`` draws the subject's positive censoring time.
    """
    key = _words(seed) + _words(index)
    states = _pcg64_states(np.array([key + [0], key + [1]], dtype=np.uint32)).tolist()
    rngs = []
    for row in states:
        bit_generator = np.random.PCG64(0)
        _load(bit_generator, row)
        rngs.append(np.random.Generator(bit_generator))
    return _simulate_subject(intensity, censoring, *rngs)


def simulate_sample(
    intensity: IntensitySpec, censoring, n: int, seed
) -> Sample:
    """Simulate ``n`` independent subjects, deterministic given ``seed``.

    Subject ``i`` is ``simulate_path(intensity, censoring, seed, i)``. The
    streams of a chunk of subjects are seeded in one pass and loaded, one
    subject at a time, into two reused generators.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    key = _words(seed)
    jump, cens = np.random.PCG64(0), np.random.PCG64(0)
    rng_jump, rng_cens = np.random.Generator(jump), np.random.Generator(cens)
    paths = []
    for lo in range(0, n, _CHUNK):
        # rows key + [index, k]: an index below n fits one 32-bit word
        index = np.arange(lo, min(n, lo + _CHUNK), dtype=np.uint32)
        entropy = np.empty((len(index), 2, len(key) + 2), dtype=np.uint32)
        entropy[:, :, :-2] = key
        entropy[:, :, -2] = index[:, None]
        entropy[:, :, -1] = (0, 1)
        states = _pcg64_states(entropy.reshape(2 * len(index), -1)).tolist()
        for row_jump, row_cens in zip(states[::2], states[1::2]):
            _load(jump, row_jump)
            _load(cens, row_cens)
            paths.append(_simulate_subject(intensity, censoring, rng_jump, rng_cens))
    return Sample(tuple(paths), intensity.state_space)


def markov_occupation_oracle(intensity: IntensitySpec, x, grid) -> np.ndarray:
    """True occupation probabilities of a Markov specification at ``x``.

    Returns a ``(len(grid), S)`` array: row ``i`` is the distribution at
    ``grid[i]``, column ``a`` the state ``intensity.state_space.states[a]``.
    Solves the forward equation ``p' = p Q(t)``; a time-constant
    generator is handled exactly through the matrix exponential, the
    general case with an adaptive fourth-order integrator.
    """
    if intensity.kind != MARKOV:
        raise ValueError("oracle requires a markov intensity")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nondecreasing and nonnegative")
    x = tuple(float(v) for v in np.atleast_1d(x))
    space = intensity.state_space
    states = space.states
    size = len(states)
    index = {s: i for i, s in enumerate(states)}

    def generator(t: float) -> np.ndarray:
        q = np.zeros((size, size))
        for j in states:
            if j in space.absorbing:
                continue
            for k in states:
                if k != j:
                    q[index[j], index[k]] = _check_rate(
                        intensity.rate(j, k, t, 0.0, x), j, k, t
                    )
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    p0 = np.zeros(size)
    p0[index[intensity.initial_state]] = 1.0

    if intensity.time_constant:
        q = generator(0.0)
        values = np.array([p0 @ expm(t * q) for t in grid])
    else:
        def rhs(t, p):
            return p @ generator(t)

        sol = solve_ivp(
            rhs,
            (0.0, float(grid[-1]) if grid[-1] > 0 else 1e-12),
            p0,
            method="RK45",
            t_eval=grid,
            rtol=1e-10,
            atol=1e-12,
        )
        if not sol.success:
            raise RuntimeError(f"forward equation solve failed: {sol.message}")
        values = sol.y.T
    return values


def brute_force_estimator(
    sample: Sample, x, spec: KernelSpec, a: float, epsilon: float
) -> tuple[HazardEstimate, OccupationEstimate]:
    """Literal re-derivation of the full estimator stack at ``x``, for testing.

    Every quantity is recomputed from its defining formula with plain
    loops: weights dimension by dimension, counts and exposure by
    rescanning all paths at every grid time, and occupations by a fresh
    ordered matrix product per time point. Deliberately quadratic; keep
    samples small.
    """
    n = len(sample)
    states = sample.state_space.states
    size = len(states)
    index = {s: i for i, s in enumerate(states)}

    factors = []
    for p in sample.paths:
        f = 1.0
        for i in range(len(x)):
            xi = x[i]
            xl = p.covariates[i]
            if xi in spec.atoms[i]:
                f *= 1.0 if xl == xi else 0.0
            else:
                if xl in spec.atoms[i]:
                    f *= 0.0
                else:
                    f *= kernel_eval(spec.kernels[i], (xi - xl) / a) / a
        factors.append(f)
    total = sum(factors)
    if total <= 0:
        raise NoKernelMass(f"no kernel mass at x={tuple(x)}")
    w = [f / total for f in factors]

    times = set()
    for p in sample.paths:
        times.update(t for t, _ in p.jumps)
        if p.end_reason == CENSORED:
            times.add(p.end_time)
    grid = sorted(times)
    m = len(grid)

    def state_at(p: ObservedPath, t: float) -> int:
        s = p.initial_state
        for jt, js in p.jumps:
            if jt <= t:
                s = js
        return s

    def state_strictly_before(p: ObservedPath, t: float) -> int:
        s = p.initial_state
        for jt, js in p.jumps:
            if jt < t:
                s = js
        return s

    def counts_at(t: float) -> np.ndarray:
        c = np.zeros((size, size))
        for wl, p in zip(w, sample.paths):
            prev = p.initial_state
            for jt, js in p.jumps:
                if jt <= t and jt <= p.end_time:
                    c[index[prev], index[js]] += wl
                prev = js
        return c

    def exposure_at(t: float) -> np.ndarray:
        e = np.zeros(size)
        for wl, p in zip(w, sample.paths):
            under_observation = p.end_reason == ABSORBED or t < p.end_time
            if under_observation:
                e[index[state_at(p, t)]] += wl
        return e

    def exposure_left_at(t: float) -> np.ndarray:
        e = np.zeros(size)
        for wl, p in zip(w, sample.paths):
            under_observation = p.end_reason == ABSORBED or t <= p.end_time
            if under_observation:
                e[index[state_strictly_before(p, t)]] += wl
        return e

    def censoring_at(t: float) -> np.ndarray:
        c = np.zeros(size)
        for wl, p in zip(w, sample.paths):
            if p.end_reason == CENSORED and p.end_time <= t:
                c[index[p.final_state]] += wl
        return c

    counts_values = np.array([counts_at(t) for t in grid]).reshape(m, size, size)
    counts = StepMatrix(np.array(grid), counts_values)

    cens_values = np.array([censoring_at(t) for t in grid]).reshape(m, size)
    censoring = {
        s: StepCurve(np.array(grid), cens_values[:, i], 0.0) for i, s in enumerate(states)
    }

    initial = exposure_at(0.0)
    exposure_values = np.array([exposure_at(t) for t in grid]).reshape(m, size)
    exposure = {
        s: StepCurve(np.array(grid), exposure_values[:, i], float(initial[i]))
        for i, s in enumerate(states)
    }

    hazard_values = np.zeros((m, size, size))
    floor_hits: dict[int, list[float]] = {s: [] for s in states}
    previous_counts = np.zeros((size, size))
    running = np.zeros((size, size))
    for pos, t in enumerate(grid):
        left = exposure_left_at(t)
        now = counts_values[pos]
        delta = now - previous_counts
        previous_counts = now
        step = np.zeros((size, size))
        for j in range(size):
            if left[j] < epsilon:
                floor_hits[states[j]].append(t)
            for k in range(size):
                if j != k:
                    step[j, k] = delta[j, k] / max(left[j], epsilon)
            step[j, j] = -sum(step[j, k] for k in range(size) if k != j)
        running = running + step
        hazard_values[pos] = running
    hazard = StepMatrix(np.array(grid), hazard_values)

    estimate = HazardEstimate(
        hazard=hazard,
        epsilon=float(epsilon),
        exposure=exposure,
        counts=counts,
        floor_active={s: tuple(v) for s, v in floor_hits.items()},
        states=states,
    )

    occ_values = np.zeros((m, size))
    increments = [hazard_values[0]] + [
        hazard_values[i] - hazard_values[i - 1] for i in range(1, m)
    ]
    for pos in range(m):
        product = np.eye(size)
        for i in range(pos + 1):
            product = product @ (np.eye(size) + increments[i])
        occ_values[pos] = initial @ product
    occupation = OccupationEstimate(np.array(grid), occ_values, initial, states)
    return estimate, occupation


def _covariate_sampler(laws: list[dict]):
    draws = [_covariate_draw(law) for law in laws]

    def draw(rng):
        return tuple([one(rng) for one in draws])

    return draw


def _covariate_draw(law: dict):
    """One coordinate's draw from an RNG, its parameters checked once here."""
    kind = law["law"]
    if kind == "uniform":
        low, high = law["low"], law["high"]
        return lambda rng: rng.uniform(low, high)
    if kind == "normal":
        mean, sd = law["mean"], law["sd"]
        return lambda rng: rng.normal(mean, sd)
    if kind == "discrete":
        values, cdf = _discrete_law(law["values"], law["probs"])
        return lambda rng: values[_choose(cdf, rng)]
    raise ValueError(f"unknown covariate law {kind!r}")


def _discrete_law(values, probs) -> tuple[list[float], list[float]]:
    """Support and choice table of a discrete law, checked by ``Generator.choice``'s rules."""
    try:
        support = [float(v) for v in values]
        p = [float(v) for v in probs]
    except (TypeError, ValueError):
        raise ValueError(
            f"discrete law needs lists of numbers, got values={values!r}, probs={probs!r}"
        ) from None
    if not support:
        raise ValueError("discrete law needs at least one value")
    if len(p) != len(support):
        raise ValueError(f"discrete law has {len(support)} values but {len(p)} probs")
    if any(math.isnan(v) for v in p):
        raise ValueError(f"discrete law probs contain NaN: {probs!r}")
    if any(v < 0 for v in p):
        raise ValueError(f"discrete law probs are not non-negative: {probs!r}")
    if not abs(math.fsum(p) - 1.0) <= _PROBS_ATOL:
        raise ValueError(f"discrete law probs do not sum to 1: {probs!r}")
    return support, _choice_cdf(p)


def _censoring_sampler(law: dict, dim: int):
    kind = law["law"]
    if kind == "exponential":
        rate_expr = str(law["rate"])
        rate_fn, used = compile_expression(rate_expr, dim)
        if used & {"t", "duration"}:
            # the censoring time is drawn once, at t = 0 and duration 0
            raise ValueError(f"censoring rate {rate_expr!r} must not read t or duration")

        def draw(rng, x):
            try:
                rate = rate_fn(0.0, 0.0, x)
            except (ArithmeticError, TypeError, ValueError) as err:
                raise ValueError(f"censoring rate: {err}") from None
            if rate <= 0:
                raise ValueError(f"censoring rate must be positive, got {rate}")
            return rng.exponential(1.0 / rate)

    elif kind == "uniform":
        low, high = float(law["low"]), float(law["high"])
        if not 0 <= low < high:
            raise ValueError("uniform censoring needs 0 <= low < high")

        def draw(rng, x):
            return rng.uniform(low, high)

    elif kind == "fixed":
        value = float(law["value"])
        if not value > 0:
            raise ValueError("fixed censoring time must be positive")

        def draw(rng, x):
            return value

    else:
        raise ValueError(f"unknown censoring law {kind!r}")
    return draw


def _integer(value, field: str) -> int:
    """A scenario's integer field: a JSON integer, never a float, string, bool or null."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"scenario field {field!r} must be an integer, got {value!r}")
    return int(value)


def _integers(values, field: str) -> list[int]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"scenario field {field!r} must be a list of integers, got {values!r}")
    return [_integer(v, field) for v in values]


def load_scenario(source) -> dict:
    """Parse a scenario JSON file or mapping.

    Returns a dict with keys ``intensity``, ``censoring``, ``n`` and
    ``seed`` ready for :func:`simulate_sample`; ``censoring(rng, x)``
    draws a censoring time.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, encoding="utf-8") as handle:
            raw = json.load(handle)
    try:
        states = tuple(_integers(raw["states"], "states"))
        absorbing = frozenset(_integers(raw.get("absorbing", []), "absorbing"))
        space = StateSpace(states, absorbing)
        kind = raw.get("kind", MARKOV)
        initial = _integer(raw["initial_state"], "initial_state")
        laws = list(raw["covariates"])
        dim = len(laws)
        rate_exprs = dict(raw["rates"])
        censoring_law = dict(raw["censoring"])
        n = _integer(raw["n"], "n")
        seed = _integer(raw["seed"], "seed")
        window = raw.get("thinning_window", 0.25)
        if type(window) not in (int, float) or not 0 < window < math.inf:
            raise ValueError(
                f"scenario field 'thinning_window' must be a finite number > 0, got {window!r}"
            )
        covariate_law = _covariate_sampler(laws)
        censoring = _censoring_sampler(censoring_law, dim)
    except KeyError as err:
        raise ValueError(f"scenario missing field {err.args[0]!r}") from None

    compiled: dict[tuple[int, int], callable] = {}
    time_constant = True
    for key, expr in rate_exprs.items():
        j_txt, _, k_txt = key.partition("->")
        try:
            j, k = int(j_txt), int(k_txt)
        except ValueError:
            raise ValueError(f"bad rate key {key!r}, expected 'j->k'") from None
        if j not in states or k not in states or j == k:
            raise ValueError(f"bad rate key {key!r} for states {states}")
        fn, used = compile_expression(str(expr), dim)
        if "duration" in used and kind == MARKOV:
            raise ValueError(f"rate {j}->{k} reads duration, which needs kind {SEMI_MARKOV!r}")
        compiled[(j, k)] = fn
        if used & {"t", "duration"}:
            time_constant = False

    def rate(j, k, t, duration, x):
        fn = compiled.get((j, k))
        if fn is None:
            return 0.0
        try:
            return fn(t, duration, x)
        except (ArithmeticError, TypeError, ValueError) as err:
            raise ValueError(f"rate {j}->{k} at t={t}: {err}") from None

    intensity = IntensitySpec(
        kind=kind,
        rate=rate,
        covariate_law=covariate_law,
        state_space=space,
        initial_state=initial,
        time_constant=time_constant,
        thinning_window=float(window),
    )
    return {"intensity": intensity, "censoring": censoring, "n": n, "seed": seed}


def default_scenario_json(n: int = 500, seed: int = 1) -> dict:
    """JSON form of the default scenario, ready to serialize or load."""
    return {
        "states": [1, 2, 3],
        "absorbing": [3],
        "initial_state": 1,
        "kind": MARKOV,
        "covariates": [{"law": "uniform", "low": 0.0, "high": 1.0}],
        "rates": {
            "1->2": "0.8*(1+x1)",
            "1->3": "0.4*(1+x1)",
            "2->3": "0.6*(1+x1)",
        },
        "censoring": {"law": "exponential", "rate": "0.3"},
        "n": n,
        "seed": seed,
    }


def default_scenario(n: int = 500, seed: int = 1) -> dict:
    """Irreversible three-state illness-death model used by the checks.

    Transitions 1->2, 1->3 and 2->3 at base rates 0.8, 0.4, 0.6 scaled
    by ``1 + x`` with a uniform covariate on the unit interval, censored
    at an independent exponential with rate 0.3.
    """
    return load_scenario(default_scenario_json(n, seed))
