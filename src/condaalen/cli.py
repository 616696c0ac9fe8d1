"""Command-line front end.

Four subcommands: ``simulate`` draws a sample from a scenario file,
``fit`` estimates conditional hazards and occupations at one or more
covariate points, ``covariance`` adds plug-in covariance surfaces, and
``check`` runs the acceptance suite on its built-in fixtures. Numeric
CSV output uses 17 significant digits so every value round-trips
exactly; runs with the same configuration and seed are byte-identical.

The writers work from the result arrays. Step curves repeat their
values, so each distinct float (by bit pattern) is formatted once, and
lines are built from precomputed label strings. Files are written in
blocks of ``_BLOCK_ROWS`` grid rows, which keeps memory flat in the grid
size. JSON output is ``json.dump(indent=1, sort_keys=True)`` text: the
``json`` module renders everything but the arrays, whose text is
spliced in.

Exit codes: 0 on success, 2 when an evaluation point carries no kernel
mass, 1 on any other failure, usage errors included. Numeric options are
range-checked while the command line is parsed, before any file is read
or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .covariance import default_surface_grid, hazard_covariance, occupation_covariance
from .data import ParseError, Sample, ValidationError, _fmt, load_sample, write_sample
from .estimators import FitResult, fit
from .kernels import KernelSpec, NoKernelMass
# simulate_path is unused here, but bench/run.py wraps cli.simulate_path by name
from .simulate import load_scenario, simulate_path, simulate_sample  # noqa: F401

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_NO_MASS = 2

# grid rows (or JSON array items) formatted and written at a time
_BLOCK_ROWS = 256
# stands in for each array while ``json`` renders the rest of a document
_SLOT = "\0"


def _checked(convert, ok, requirement: str):
    """An argparse ``type`` that converts a value and range-checks it."""

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {raw!r}")
        return value

    # argparse reports a ValueError as "invalid <__name__> value: ..."
    parse.__name__ = convert.__name__
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_unit_open = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")


def _parse_x(raw: str, dim: int) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    try:
        coords = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad --x value {raw!r}") from None
    if not all(math.isfinite(c) for c in coords):
        raise ValueError(f"--x {raw!r} has a non-finite coordinate")
    if len(coords) != dim:
        raise ValueError(f"--x {raw!r} has {len(coords)} coordinates, data has {dim}")
    return coords


def _parse_atoms(entries, dim: int) -> tuple[tuple[float, ...], ...]:
    atom_sets: list[tuple[float, ...]] = [() for _ in range(dim)]
    for entry in entries or ():
        head, sep, tail = entry.partition(":")
        if not sep:
            raise ValueError(f"bad --atoms entry {entry!r}, expected i:v1,v2")
        try:
            pos = int(head)
        except ValueError:
            raise ValueError(f"bad --atoms dimension {head!r}") from None
        if not 1 <= pos <= dim:
            raise ValueError(f"--atoms dimension {pos} outside 1..{dim}")
        if atom_sets[pos - 1]:
            raise ValueError(f"--atoms dimension {pos} given more than once")
        try:
            values = tuple(float(v) for v in tail.split(","))
        except ValueError:
            raise ValueError(f"bad --atoms values {tail!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"--atoms {entry!r} has a non-finite value")
        atom_sets[pos - 1] = values
    return tuple(atom_sets)


def _load_and_fit(args) -> tuple[Sample, list[FitResult]]:
    """Load the input, fit every ``--x`` point, warn, create the output dir."""
    sample = load_sample(args.input)
    dim = sample.covariate_dim
    atoms = _parse_atoms(args.atoms, dim)
    spec = KernelSpec.for_dims(dim, kernel=args.kernel, atoms=atoms)
    points = [_parse_x(raw, dim) for raw in args.x]
    options = dict(
        eta=args.eta, explicit_bandwidth=args.bandwidth, epsilon=args.epsilon, theta=args.theta
    )
    results = [fit(sample, coords, spec, **options) for coords in points]
    for i, result in enumerate(results):
        _warn_flags(result, f"x[{i}]=({', '.join(_fmt(c) for c in result.x)})")
    os.makedirs(args.out, exist_ok=True)
    return sample, results


def _warn_flags(result: FitResult, label: str) -> None:
    hazard = result.hazard
    outflow = hazard.counts.increments().sum(axis=2)
    # the floor changed a hazard increment only where some weight left the state
    changed = sorted(
        (t, s)
        for a, s in enumerate(hazard.states)
        for t in hazard.floor_active[s]
        if outflow[np.searchsorted(hazard.times, t), a] > 0.0
    )
    if changed:
        t, s = changed[0]
        print(
            f"warning: {label}: denominator floor engaged at {len(changed)} state-time "
            f"pairs with outgoing events, first in state {s} at t={_fmt(t)}",
            file=sys.stderr,
        )
    beyond = result.beyond_theta()
    if beyond.size:
        print(
            f"warning: {label}: {beyond.size} event times beyond horizon "
            f"theta={_fmt(result.theta)}; values there are extrapolations",
            file=sys.stderr,
        )


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


def _write_rows(handle, times, labels, values, keep=None) -> None:
    """Write the CSV line ``times[i] + labels[c] + values[i, c]`` for each row i, label c.

    ``times`` holds the formatted times. ``keep``, shaped like ``values``,
    drops lines. Lines end in CRLF, as ``csv.writer`` ends them; none of
    them needs quoting.
    """
    labels = np.array(labels, dtype=object)
    for lo in range(0, len(times), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        lines = times[rows, None] + labels + _format_distinct(values[rows])
        if keep is not None:
            lines = lines[keep[rows]]
        text = "\r\n".join(lines.ravel().tolist())
        if text:
            handle.write(text + "\r\n")


def _write_hazard_csv(result: FitResult, path: str, grid: np.ndarray) -> None:
    """Write the hazard CSV; ``grid`` is the formatted event grid."""
    states = result.hazard.states
    off = ~np.eye(len(states), dtype=bool)  # the (j, k) pairs with j != k, row-major
    pairs = [f"{states[a]},{states[b]}" for a, b in zip(*np.nonzero(off))]
    labels = (
        [f",hazard,{pair}," for pair in pairs]
        + [f",count,{pair}," for pair in pairs]
        + [f",exposure,{s},," for s in states]
    )
    counts = result.hazard.counts.values[:, off]
    exposure = np.column_stack([result.hazard.exposure[s].values for s in states])
    values = np.hstack([result.hazard.hazard.values[:, off], counts, exposure])
    # a count line is written only where the cumulative count is nonzero
    keep = np.ones(values.shape, dtype=bool)
    keep[:, len(pairs) : 2 * len(pairs)] = counts != 0.0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("time,quantity,j,k,value\r\n")
        _write_rows(handle, grid, labels, values, keep)


def _write_occupation_csv(result: FitResult, path: str, grid: np.ndarray) -> None:
    """Write the occupation CSV; ``grid`` is the formatted event grid."""
    occupation = result.occupation
    # the initial distribution is the row at time 0
    times = np.concatenate([[_fmt(0.0)], grid])
    values = np.vstack([occupation.initial, occupation.values])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("time,j,value\r\n")
        _write_rows(handle, times, [f",{s}," for s in occupation.states], values)


def _write_surface(surface, path: str) -> None:
    grid = _format_distinct(surface.grid)
    labels = [f",{t}," for t in grid.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("s,t,value\r\n")
        _write_rows(handle, grid, labels, surface.values)


def _write_json_array(handle, values: np.ndarray, indent: int) -> None:
    """Write a 1-d array as ``json`` lays out a list ``indent`` spaces in.

    A float array is formatted here; an object array holds the items'
    JSON text already.
    """
    if not values.size:
        handle.write("[]")
        return
    sep = ",\n" + " " * (indent + 1)
    lead = "[" + sep[1:]  # no comma before the first item
    for lo in range(0, values.size, _BLOCK_ROWS):
        items = values[lo : lo + _BLOCK_ROWS]
        if items.dtype != object:
            items = _format_distinct(items, _json_float)
        items = items.tolist()
        handle.write(lead + sep.join(items))
        lead = sep
    handle.write("\n" + " " * indent + "]")


def _write_json(body: dict, path: str) -> None:
    """Write ``body`` as ``json.dump(body, indent=1, sort_keys=True)`` and a newline.

    The numpy arrays in ``body`` become lists of floats (an object array
    holds its items' JSON text, see :func:`_write_json_array`). ``json`` renders
    the rest with a slot in each array's place; every slot is then
    replaced by its array's text, indented like the line it sits on.
    """
    arrays = []

    def slot(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return _SLOT

    text = json.dumps(body, indent=1, sort_keys=True, default=slot)
    pieces = text.split(json.dumps(_SLOT))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pieces[0])
        for values, before, after in zip(arrays, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]
            _write_json_array(handle, values, len(line) - len(line.lstrip(" ")))
            handle.write(after)
        handle.write("\n")
    # json's encoder holds ``slot`` in a reference cycle until the next
    # garbage collection; emptying the list frees the arrays now
    arrays.clear()


def _fit_json(result: FitResult, n: int, grid: np.ndarray) -> dict:
    """The ``fit`` JSON body; ``grid`` is the event grid's JSON text."""
    states = result.hazard.states
    hazard = result.hazard.hazard.values
    counts = result.hazard.counts.values
    body = {
        "x": list(result.x),
        "atom_flags": list(result.spec.atom_flags(result.x)),
        "kernel": list(result.spec.kernels),
        "atoms": [list(a) for a in result.spec.atoms],
        "n": n,
        "bandwidth": result.bandwidth,
        "epsilon": result.hazard.epsilon,
        "theta": result.theta,
        "density": result.weights.density_value,
        "phi": result.phi,
        "states": list(states),
        "grid": grid,
        "initial": {str(s): float(v) for s, v in zip(states, result.occupation.initial)},
        "hazard": {},
        "counts": {},
        "exposure": {},
        "occupation": {},
        "floor_active": {
            str(s): np.array(v, dtype=float) for s, v in result.hazard.floor_active.items()
        },
        "beyond_theta": result.beyond_theta(),
    }
    for a, sa in enumerate(states):
        for b, sb in enumerate(states):
            if a != b:
                body["hazard"][f"{sa}->{sb}"] = hazard[:, a, b]
                body["counts"][f"{sa}->{sb}"] = counts[:, a, b]
        curve = result.hazard.exposure[sa]
        body["exposure"][str(sa)] = {"initial": float(curve.initial), "values": curve.values}
        body["occupation"][str(sa)] = {
            "initial": float(result.occupation.initial[a]),
            "values": result.occupation.values[:, a],
        }
    return body


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    n = args.n if args.n is not None else scenario["n"]
    seed = args.seed if args.seed is not None else scenario["seed"]
    if n < 1 or seed < 0:
        raise ValueError(f"scenario needs n >= 1 and seed >= 0, got n={n}, seed={seed}")
    sample = simulate_sample(scenario["intensity"], scenario["censoring"], n, seed)
    write_sample(sample, args.out)
    print(f"wrote {n} paths to {args.out}", file=sys.stderr)
    return _EXIT_OK


def cmd_fit(args) -> int:
    sample, results = _load_and_fit(args)
    # every point's estimates live on the sample's event grid: format it once
    grid = _format_distinct(sample.table.grid)
    grid_json = _format_distinct(sample.table.grid, _json_float) if args.json else None
    for i, result in enumerate(results):
        _write_hazard_csv(result, os.path.join(args.out, f"hazard_{i}.csv"), grid)
        _write_occupation_csv(result, os.path.join(args.out, f"occupation_{i}.csv"), grid)
        if args.json:
            body = _fit_json(result, len(sample), grid_json)
            _write_json(body, os.path.join(args.out, f"fit_{i}.json"))
    return _EXIT_OK


def cmd_covariance(args) -> int:
    sample, results = _load_and_fit(args)
    for i, result in enumerate(results):
        grid = default_surface_grid(result.hazard.times, args.grid)
        states = result.hazard.states
        final_counts = result.hazard.counts.values[-1]
        pairs = []
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                if a != b and final_counts[a, b] > 0:
                    pairs.append((sa, sb))
        for sa, sb in pairs:
            surface = hazard_covariance(
                sample, result.weights, result.hazard, result.phi, (sa, sb), grid
            )
            _write_surface(surface, os.path.join(args.out, f"cov_hazard_{sa}_{sb}_{i}.csv"))
        occ = occupation_covariance(
            sample, result.weights, result.hazard, result.occupation, result.phi, grid
        )
        for s, surface in occ.items():
            _write_surface(surface, os.path.join(args.out, f"cov_occupation_{s}_{i}.csv"))
        meta = {
            "x": list(result.x),
            "grid": grid,
            "pairs": [f"{a}->{b}" for a, b in pairs],
            "states": list(states),
            "bandwidth": result.bandwidth,
            "phi": result.phi,
        }
        _write_json(meta, os.path.join(args.out, f"cov_meta_{i}.json"))
    return _EXIT_OK


def cmd_check(args) -> int:
    from .checks import run_suite

    results = run_suite(quick=args.quick)
    failed = 0
    for r in results:
        if r.skipped:
            status = "SKIP"
        elif r.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        print(f"{status} {r.name}: {r.detail} ({r.seconds:.1f}s)")
    return _EXIT_OK if failed == 0 else _EXIT_ERROR


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="long-format sample CSV")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--x",
        action="append",
        required=True,
        help="evaluation point, comma-separated coordinates; repeatable",
    )
    parser.add_argument(
        "--atoms",
        action="append",
        help="declared atoms per dimension as i:v1,v2 (1-based); repeatable",
    )
    parser.add_argument(
        "--kernel",
        default="epanechnikov",
        choices=["epanechnikov", "triangular", "uniform"],
    )
    parser.add_argument("--eta", type=_unit_open, default=0.75, help="bandwidth exponent in (0,1)")
    parser.add_argument(
        "--bandwidth", type=_positive, default=None, help="explicit bandwidth override"
    )
    parser.add_argument("--epsilon", type=_positive, default=1e-4, help="denominator floor")
    parser.add_argument("--theta", type=_nonnegative, default=None, help="estimation horizon")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1; 2 means no kernel mass."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="condaalen",
        description="Conditional hazard and occupation estimation for jump processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a sample from a scenario file")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="sample CSV to write")
    p_sim.add_argument("--n", type=_count, default=None, help="override scenario n")
    p_sim.add_argument("--seed", type=_seed, default=None, help="override scenario seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="conditional hazard and occupation estimates")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--json", action="store_true", help="also write full JSON output")
    p_fit.set_defaults(func=cmd_fit)

    p_cov = sub.add_parser("covariance", help="plug-in covariance surfaces")
    _add_fit_flags(p_cov)
    p_cov.add_argument("--grid", type=_count, default=50, help="surface grid size")
    p_cov.set_defaults(func=cmd_covariance)

    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.add_argument("--quick", action="store_true", help="skip the slow Monte Carlo checks")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # usage errors (exit 1) and --help (exit 0) return like any command
        return stop.code
    try:
        return args.func(args)
    except NoKernelMass as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_NO_MASS
    except (ParseError, ValidationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
