"""Acceptance checks runnable from the CLI and from the test suite.

Each check takes no arguments and returns (passed, detail). It pins its
own scenario, sample size, seed and tolerances, so the suite always runs
on the same built-in fixtures. The comparison targets are recomputed
here from first principles with plain loops, independent of the
estimator code paths they exercise.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .covariance import (
    default_surface_grid,
    hazard_covariance,
    occupation_covariance,
    zeta_values,
)
from .data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace
from .estimators import fit, product_integral
from .kernels import KernelSpec
from .simulate import (
    brute_force_estimator,
    default_scenario,
    default_scenario_json,
    load_scenario,
    markov_occupation_oracle,
    simulate_sample,
)
from .stepfun import StepMatrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    skipped: bool = False


def check_conservation() -> tuple[bool, str]:
    """Occupation mass is conserved at every event time, 1e-12."""
    sc = default_scenario(n=500, seed=11)
    sample = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
    worst = 0.0
    for coord in (0.25, 0.5, 0.75):
        res = fit(sample, (coord,))
        total0 = float(res.occupation.initial.sum())
        totals = res.occupation.values.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(totals - total0))) if totals.size else 0.0)
    return worst <= 1e-12, f"max |sum p(t) - sum p(0)| = {worst:.3e}"


def _direct_exposure(sample, weights, t: float, left: bool) -> dict[int, float]:
    vals = {s: 0.0 for s in sample.state_space.states}
    for wl, p in zip(weights, sample.paths):
        if p.end_reason == ABSORBED:
            under = True
        elif left:
            under = t <= p.end_time
        else:
            under = t < p.end_time
        if not under:
            continue
        s = p.initial_state
        for jt, js in p.jumps:
            if (jt < t) if left else (jt <= t):
                s = js
        vals[s] += wl
    return vals


def check_exposure_identity() -> tuple[bool, str]:
    """Flow-decomposition exposure equals direct indicator sums, 1e-12."""
    worst = 0.0
    checked = 0
    for rep in range(100):
        n = 2 + rep % 9
        sc = default_scenario(n=n, seed=40_000 + rep)
        sample = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
        coord = 0.2 + 0.006 * rep
        try:
            res = fit(sample, (coord,))
        except ValueError:
            continue
        checked += 1
        w = res.weights.weights
        for t in res.hazard.times:
            direct = _direct_exposure(sample, w, float(t), left=False)
            direct_left = _direct_exposure(sample, w, float(t), left=True)
            for s in sample.state_space.states:
                worst = max(worst, abs(res.hazard.exposure[s](float(t)) - direct[s]))
                worst = max(worst, abs(res.hazard.exposure[s].left(float(t)) - direct_left[s]))
    ok = worst <= 1e-12 and checked >= 90
    return ok, f"{checked}/100 samples, max abs diff = {worst:.3e}"


def check_beran_reduction() -> tuple[bool, str]:
    """Two-state occupation equals the weighted product-limit, 1e-12."""
    sc = load_scenario(
        {
            "states": [1, 2],
            "absorbing": [2],
            "initial_state": 1,
            "covariates": [{"law": "uniform", "low": 0.0, "high": 1.0}],
            "rates": {"1->2": "1.0*(1+x1)"},
            "censoring": {"law": "exponential", "rate": "0.4"},
            "n": 400,
            "seed": 7,
        }
    )
    sample = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
    res = fit(sample, (0.5,), epsilon=1e-12)
    w = res.weights.weights
    worst = 0.0
    pl = float(res.occupation.initial[res.occupation.states.index(1)])
    for t in res.hazard.times:
        t = float(t)
        jump_mass = 0.0
        at_risk = 0.0
        for wl, p in zip(w, sample.paths):
            state = p.initial_state
            for jt, js in p.jumps:
                if jt < t:
                    state = js
                elif jt == t and state == 1 and js == 2:
                    jump_mass += wl
            under = p.end_reason == ABSORBED or t <= p.end_time
            if under and state == 1:
                at_risk += wl
        if at_risk > 0.0:
            pl *= 1.0 - jump_mass / at_risk
        worst = max(worst, abs(res.occupation.curve(1)(t) - pl))
    return worst <= 1e-12, f"max |p1 - product-limit| = {worst:.3e}"


def check_landmark_reduction() -> tuple[bool, str]:
    """Fit at an atom equals the unconditional estimator on the subsample."""
    sc = load_scenario(
        {
            "states": [1, 2, 3],
            "absorbing": [3],
            "initial_state": 1,
            "covariates": [{"law": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]}],
            "rates": {"1->2": "0.5*(1+x1)", "1->3": "0.3*(1+x1)", "2->3": "0.4*(1+x1)"},
            "censoring": {"law": "exponential", "rate": "0.3"},
            "n": 300,
            "seed": 17,
        }
    )
    sample = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
    spec = KernelSpec.for_dims(1, atoms=((0.0, 1.0),))
    res = fit(sample, (1.0,), spec)

    sub = [p for p in sample.paths if p.covariates[0] == 1.0]
    msub = len(sub)
    states = sample.state_space.states
    size = len(states)
    index = {s: i for i, s in enumerate(states)}
    sub_times = sorted(
        {t for p in sub for t, _ in p.jumps}
        | {p.end_time for p in sub if p.end_reason == CENSORED}
    )
    p_row = np.zeros(size)
    for p in sub:
        p_row[index[p.initial_state]] += 1.0 / msub
    reference = []
    for t in sub_times:
        moved = np.zeros((size, size))
        at_risk = np.zeros(size)
        for p in sub:
            state = p.initial_state
            for jt, js in p.jumps:
                if jt < t:
                    state = js
                elif jt == t:
                    moved[index[state], index[js]] += 1.0
            under = p.end_reason == ABSORBED or t <= p.end_time
            if under:
                at_risk[index[state]] += 1.0
        step = np.zeros((size, size))
        for j in range(size):
            if at_risk[j] > 0:
                for k in range(size):
                    if j != k:
                        step[j, k] = moved[j, k] / at_risk[j]
            step[j, j] = -step[j].sum()
        p_row = p_row + p_row @ step
        reference.append(p_row.copy())

    worst = 0.0
    eval_times = sorted(set(sub_times) | set(float(t) for t in res.hazard.times))
    for t in eval_times:
        pos = np.searchsorted(sub_times, t, side="right") - 1
        ref = reference[pos] if pos >= 0 else np.array(
            [sum(1.0 / msub for p in sub if p.initial_state == s) for s in states]
        )
        for s in states:
            worst = max(worst, abs(res.occupation.curve(s)(t) - ref[index[s]]))
    return worst <= 1e-12, f"subsample size {msub}, max abs diff = {worst:.3e}"


def check_consistency() -> tuple[bool, str]:
    """Median sup-error against the forward-equation oracle shrinks with n."""
    sc = default_scenario(n=250, seed=0)
    intensity = sc["intensity"]
    censoring = sc["censoring"]
    theta = 2.0
    dense = np.linspace(0.0, theta, 201)
    oracle = markov_occupation_oracle(intensity, (0.5,), dense)
    medians = []
    for block, n in enumerate((250, 1000, 4000)):
        errs = []
        for rep in range(20):
            sample = simulate_sample(intensity, censoring, n, 7_000 + 100 * block + rep)
            res = fit(sample, (0.5,), epsilon=1e-4, theta=theta)
            sup = 0.0
            for i, s in enumerate(intensity.state_space.states):
                est = res.occupation.curve(s)(dense)
                sup = max(sup, float(np.max(np.abs(est - oracle[:, i]))))
            errs.append(sup)
        medians.append(float(np.median(errs)))
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and medians[2] < 0.05
    detail = "median sup-errors " + ", ".join(f"{m:.4f}" for m in medians)
    return ok, detail


def check_product_integral_order() -> tuple[bool, str]:
    """First-order convergence of the product integral to the matrix exponential."""
    q = np.array([[-0.9, 0.6, 0.3], [0.2, -0.7, 0.5], [0.0, 0.0, 0.0]])
    horizon = 1.0
    target = expm(horizon * q)
    errors = []
    for h in (1e-2, 1e-3):
        steps = int(round(horizon / h))
        grid = np.arange(1, steps + 1) * h
        cumulative = grid[:, None, None] * q
        sm = StepMatrix(grid, cumulative)
        approx = product_integral(sm, 0.0, horizon)
        errors.append(float(np.max(np.abs(approx - target))))
    ratio = errors[0] / errors[1]
    ok = errors[0] < 5e-2 and errors[1] < 5e-3 and 5.0 <= ratio <= 20.0
    return ok, f"errors {errors[0]:.2e}, {errors[1]:.2e}, ratio {ratio:.1f}"


def check_covariance_sanity() -> tuple[bool, str]:
    """Plug-in hazard variance tracks the Monte Carlo variance within 2x."""
    sc = default_scenario(n=1000, seed=0)
    intensity = sc["intensity"]
    censoring = sc["censoring"]
    n = 1000
    t_eval = 1.0
    hazards = []
    sigmas = []
    bandwidth_value = None
    for rep in range(200):
        sample = simulate_sample(intensity, censoring, n, 50_000 + rep)
        res = fit(sample, (0.5,), epsilon=1e-4)
        bandwidth_value = res.bandwidth
        hazards.append(res.hazard.hazard.at(t_eval)[0, 1])
        z = zeta_values(sample, res.hazard, res.phi, (1, 2), np.array([t_eval]))
        sigmas.append(float(np.sum(res.weights.weights * z[:, 0] ** 2)))
    var_mc = float(np.var(hazards, ddof=1))
    sigma_med = float(np.median(sigmas))
    ratio = n * bandwidth_value * var_mc / sigma_med
    ok = 0.5 <= ratio <= 2.0
    return ok, f"scaled MC var / median plug-in = {ratio:.3f}"


def check_surface_shape() -> tuple[bool, str]:
    """Covariance surfaces are symmetric and positive semidefinite."""
    sc = default_scenario(n=80, seed=21)
    sample = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
    res = fit(sample, (0.5,))
    grid = default_surface_grid(res.hazard.times, 25)
    surfaces = [
        hazard_covariance(sample, res.weights, res.hazard, res.phi, (1, 2), grid),
        hazard_covariance(sample, res.weights, res.hazard, res.phi, (2, 3), grid),
    ]
    surfaces.extend(
        occupation_covariance(
            sample, res.weights, res.hazard, res.occupation, res.phi, grid
        ).values()
    )
    asym = 0.0
    min_eig = np.inf
    for surface in surfaces:
        asym = max(asym, float(np.max(np.abs(surface.values - surface.values.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(surface.values).min()))
    ok = asym <= 1e-12 and min_eig >= -1e-10
    return ok, f"max asymmetry {asym:.2e}, min eigenvalue {min_eig:.2e}"


def _floor_sample() -> Sample:
    space = StateSpace((1, 2, 3), frozenset({3}))
    paths = (
        ObservedPath((0.5,), 1, ((1.0, 3),), 1.0, ABSORBED),
        ObservedPath((0.5,), 1, ((2.0, 3),), 2.0, ABSORBED),
        ObservedPath((0.5,), 1, ((3.0, 3),), 3.0, ABSORBED),
        ObservedPath((0.5,), 1, ((2.5, 2), (4.0, 3)), 4.0, ABSORBED),
    )
    return Sample(paths, space)


def check_floor_behavior() -> tuple[bool, str]:
    """Floored increments and floor flags match the brute-force oracle."""
    sample = _floor_sample()
    epsilon = 0.3
    spec = KernelSpec.for_dims(1)
    x = spec.eval_point((0.5,))
    res = fit(sample, x, spec, explicit_bandwidth=1.0, epsilon=epsilon)
    ref_hazard, ref_occupation = brute_force_estimator(sample, x, spec, 1.0, epsilon)

    expected_floor = {
        1: (3.0, 4.0),
        2: (1.0, 2.0, 2.5, 3.0, 4.0),
        3: (1.0, 2.0),
    }
    flags_ok = res.hazard.floor_active == expected_floor
    flags_match_oracle = res.hazard.floor_active == ref_hazard.floor_active

    floored_increment = res.hazard.hazard.at(3.0)[0, 2] - res.hazard.hazard.at(2.5)[0, 2]
    increment_ok = abs(floored_increment - 0.25 / epsilon) <= 1e-12

    hazard_diff = float(
        np.max(np.abs(res.hazard.hazard.values - ref_hazard.hazard.values))
    )
    occ_diff = float(np.max(np.abs(res.occupation.values - ref_occupation.values)))
    ok = (
        flags_ok
        and flags_match_oracle
        and increment_ok
        and hazard_diff <= 1e-12
        and occ_diff <= 1e-12
    )
    detail = (
        f"flags {'ok' if flags_ok else 'WRONG'}, "
        f"hazard diff {hazard_diff:.2e}, occupation diff {occ_diff:.2e}"
    )
    return ok, detail


def check_determinism() -> tuple[bool, str]:
    """Identical fit invocations produce byte-identical outputs."""
    from .cli import main

    with tempfile.TemporaryDirectory() as tmp:
        scenario_file = os.path.join(tmp, "scenario.json")
        with open(scenario_file, "w", encoding="utf-8") as handle:
            json.dump(default_scenario_json(n=200, seed=3), handle)
        sample_file = os.path.join(tmp, "sample.csv")
        outs = [os.path.join(tmp, run) for run in ("a", "b")]
        runs = [["simulate", "--scenario", scenario_file, "--out", sample_file]]
        runs += [
            ["fit", "--input", sample_file, "--x", "0.5", "--json", "--out", out] for out in outs
        ]
        for argv in runs:
            # the report is all ``check`` prints: keep the runs' messages,
            # and show the last one if a run fails
            messages = io.StringIO()
            with contextlib.redirect_stderr(messages):
                code = main(argv)
            if code != 0:
                last = (messages.getvalue().splitlines() or [""])[-1]
                return False, f"{argv[0]} exited {code}: {last}"
        names = sorted(os.listdir(outs[0]))
        if names != sorted(os.listdir(outs[1])):
            return False, "output file sets differ"
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        ok = not mismatch and not errors
        return ok, f"{len(match)} files byte-identical" if ok else f"differs: {mismatch or errors}"


_CHECKS = (
    ("conservation", check_conservation, False),
    ("exposure-identity", check_exposure_identity, False),
    ("beran-reduction", check_beran_reduction, False),
    ("landmark-reduction", check_landmark_reduction, False),
    ("consistency", check_consistency, True),
    ("product-integral-order", check_product_integral_order, False),
    ("covariance-sanity", check_covariance_sanity, True),
    ("surface-shape", check_surface_shape, False),
    ("floor-behavior", check_floor_behavior, False),
    ("determinism", check_determinism, False),
)


def check_names(quick: bool = False) -> list[str]:
    return [name for name, _, slow in _CHECKS if not (quick and slow)]


def run_check(name: str) -> CheckResult:
    for cname, fn, _ in _CHECKS:
        if cname == name:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as err:  # a check that raises fails by name
                passed, detail = False, f"{type(err).__name__}: {err}"
            return CheckResult(name, passed, detail, time.perf_counter() - start)
    raise KeyError(f"unknown check {name!r}")


def run_suite(quick: bool = False) -> list[CheckResult]:
    results = []
    for name, _, slow in _CHECKS:
        if quick and slow:
            results.append(CheckResult(name, True, "skipped in quick mode", 0.0, True))
            continue
        results.append(run_check(name))
    return results
