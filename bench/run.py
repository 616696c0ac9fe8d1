"""Benchmark of condaalen: three closed-loop workloads, one layer each.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all                # every workload

One client, one process, one thread. Each workload builds its inputs
from ``--seed`` (set-up, timed on its own), runs one untimed warm-up
round, then repeats timed rounds until ``--seconds`` of timed work have
passed. A correctness gate runs after each round, outside the timed
region; a round that fails it counts all its ops as failed. Each op is
followed by a fixed reference computation, and the median round time
is reported in units of that computation (see ``Reference``). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. See ``bench/README.md`` for what each workload stresses.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported; the benchmark is single threaded.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
MIN_ROUNDS = 3
REF_SHARE = 0.25


def import_package():
    """Import condaalen from this checkout's ``src``, never an installed copy."""
    if not (SRC / "condaalen" / "__init__.py").is_file():
        sys.exit(f"bench: no condaalen sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import condaalen

    if Path(condaalen.__file__).resolve().parent != SRC / "condaalen":
        sys.exit(f"bench: imported condaalen from {condaalen.__file__}, expected {SRC}")
    return condaalen


def digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


class Reference:
    """Fixed work timed beside the program, to express its time in units.

    The benchmark host is shared, and its speed drifts by up to half
    within minutes, which moves every wall time of a run together. After
    each op, :meth:`follow` runs reference units for about ``REF_SHARE``
    of the op's time. A run's ``wall_ref`` is its median round wall time
    over the mean time of one unit across the run's untraced rounds, so
    the drift cancels while a change to condaalen does not: a unit uses
    no condaalen code. Units run between ops, so they bracket every op.
    A unit mixes what condaalen's loops do: integer arithmetic, a loop
    over tuples with dict lookups, and 3x3 numpy products.
    """

    def __init__(self):
        self.rows = [(i, float(i)) for i in range(1500)]
        self.index = {i: i for i in range(1500)}
        self.step = np.full((3, 3), 1e-3)
        self.seconds = 0.0
        self.units = 0

    def unit(self):
        total = 0
        for i in range(3000):
            total += i * i
        acc = 0.0
        for i, value in self.rows:
            acc += self.index[i] * value
        prod = np.eye(3)
        for _ in range(75):
            prod = prod @ (np.eye(3) + self.step)
        return total, acc, prod

    def follow(self, op_seconds: float) -> None:
        """Run whole units, at least one, for ``REF_SHARE`` of ``op_seconds``."""
        spent, units = 0.0, self.units
        while self.units == units or spent < REF_SHARE * op_seconds:
            t0 = time.perf_counter()
            self.unit()
            spent += time.perf_counter() - t0
            self.units += 1
        self.seconds += spent

    @property
    def unit_seconds(self) -> float:
        return self.seconds / self.units


def run_cli(argv: list[str], tracer) -> int:
    """One in-process CLI invocation; stderr warnings are swallowed."""
    from condaalen import cli

    with contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main"):
            return cli.main(argv)


class Sweep:
    """Library-level covariate sweep: 16 fits at n = 20000, no I/O."""

    fits_per_round = 16
    ops_per_round = 16
    n = 20000

    def __init__(self, pkg, seed: int, work: Path):
        self.pkg, self.seed = pkg, seed
        self.spec = pkg.KernelSpec.for_dims(2, atoms=((), (0.0, 1.0)))
        self.points = [((i + 0.5) / 8, x2) for x2 in (0.0, 1.0) for i in range(8)]
        self.reference: list[str] | None = None
        self.cli_dir = None

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raw = self.pkg.default_scenario_json(self.n, self.seed)
        raw["covariates"].append({"law": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]})
        raw["rates"] = {k: f"{v}*(1+0.5*x2)" for k, v in raw["rates"].items()}
        sc = self.pkg.load_scenario(raw)
        self.sample = self.pkg.simulate_sample(sc["intensity"], sc["censoring"], self.n, self.seed)

    def ops(self, tracer):
        fit = self.pkg.estimators.fit
        return [functools.partial(fit, self.sample, x, self.spec) for x in self.points]

    def check(self, results) -> int:
        """Failed fits of one round: mass, monotone hazards, same bits as round one."""
        digests = [self._digest(r) for r in results]
        if self.reference is None:
            self.reference = digests
        failed = 0
        for r, d, ref in zip(results, digests, self.reference):
            occ = r.occupation
            mass = occ.values.sum(axis=1) - occ.initial.sum()
            haz = r.hazard.hazard.values
            off = haz[:, ~np.eye(haz.shape[1], dtype=bool)]
            ok = (
                mass.size > 0
                and float(abs(mass).max()) <= 1e-12
                and bool((np.diff(off, axis=0, prepend=0.0) >= 0.0).all())
                and d == ref
            )
            failed += not ok
        return failed

    def final_check(self) -> bool:
        """``fit`` equals the literal brute-force estimator on a subsample."""
        sub = self.pkg.Sample(self.sample.paths[:150], self.sample.state_space)
        for x in ((0.5, 0.0), (0.5, 1.0)):
            r = self.pkg.fit(sub, x, self.spec)
            slow_h, slow_o = self.pkg.brute_force_estimator(
                sub, self.spec.eval_point(x), self.spec, r.bandwidth, r.hazard.epsilon
            )
            if not (
                np.array_equal(r.hazard.times, slow_h.times)
                and np.abs(r.hazard.hazard.values - slow_h.hazard.values).max() <= 1e-12
                and np.abs(r.occupation.values - slow_o.values).max() <= 1e-12
            ):
                return False
        return True

    @staticmethod
    def _digest(r) -> str:
        h = hashlib.sha256()
        for arr in (r.hazard.hazard.values, r.hazard.counts.values, r.occupation.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


class CliWorkload:
    """Shared round logic of the two CLI workloads: fresh output dir, digest."""

    def __init__(self, pkg, seed: int, work: Path):
        self.pkg, self.seed, self.work = pkg, seed, work
        self.out = work / "round"
        self.reference: str | None = None
        self.reference_ok = False

    def ops(self, tracer):
        return [functools.partial(run_cli, argv, tracer) for argv in self.argvs()]

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def check(self, codes) -> int:
        if any(code != 0 for code in codes):
            return self.ops_per_round
        digest = digest_tree(self.out)
        if self.reference is None:
            self.reference = digest
            self.reference_ok = self.first_round_ok()
        return 0 if digest == self.reference and self.reference_ok else self.ops_per_round

    def final_check(self) -> bool:
        return True


class Pipeline(CliWorkload):
    """``simulate --n 3000`` then ``fit --x 0.25 --x 0.5 --x 0.75 --json``."""

    fits_per_round = 3
    ops_per_round = 2
    n = 3000
    xs = ("0.25", "0.5", "0.75")

    def setup(self) -> None:
        self.scenario = self.work / "scenario.json"
        self.scenario.write_text(json.dumps(self.pkg.default_scenario_json(self.n, self.seed)))
        sc = self.pkg.load_scenario(str(self.scenario))
        self.expected = self.pkg.simulate_sample(sc["intensity"], sc["censoring"], self.n, self.seed)

    @property
    def cli_dir(self) -> Path:
        return self.out / "fit"

    def argvs(self):
        sample = str(self.out / "sample.csv")
        sim = ["simulate", "--scenario", str(self.scenario), "--out", sample,
               "--n", str(self.n), "--seed", str(self.seed)]
        fit = ["fit", "--input", sample, "--out", str(self.cli_dir), "--json"]
        for x in self.xs:
            fit += ["--x", x]
        return [sim, fit]

    def first_round_ok(self) -> bool:
        """The CSV round-trips the library sample and holds a library ``fit``."""
        sample = self.pkg.load_sample(self.out / "sample.csv")
        if sample.paths != self.expected.paths:
            return False
        for i, x in enumerate(self.xs):
            r = self.pkg.fit(sample, (float(x),))
            if not (
                hazard_csv_matches(r, self.cli_dir / f"hazard_{i}.csv")
                and occupation_csv_matches(r, self.cli_dir / f"occupation_{i}.csv")
            ):
                return False
        return True


class Covariance(CliWorkload):
    """``covariance --x 0.5 --grid 50`` on a default-scenario sample, n = 400."""

    fits_per_round = 1
    ops_per_round = 1
    n = 400

    def setup(self) -> None:
        sc = self.pkg.default_scenario(self.n, self.seed)
        sample = self.pkg.simulate_sample(sc["intensity"], sc["censoring"], self.n, self.seed)
        self.sample_csv = self.work / "sample.csv"
        self.pkg.write_sample(sample, self.sample_csv)

    @property
    def cli_dir(self) -> Path:
        return self.out

    def argvs(self):
        return [["covariance", "--input", str(self.sample_csv), "--out", str(self.out),
                 "--x", "0.5", "--grid", "50"]]

    def first_round_ok(self) -> bool:
        """Every surface is symmetric with a non-negative diagonal."""
        meta = json.loads((self.out / "cov_meta_0.json").read_text())
        size = len(meta["grid"])
        names = [f"cov_hazard_{p.replace('->', '_')}_0.csv" for p in meta["pairs"]]
        names += [f"cov_occupation_{s}_0.csv" for s in meta["states"]]
        for name in names:
            rows = read_csv(self.out / name)
            values = np.array([float(r[2]) for r in rows]).reshape(size, size)
            if not (np.array_equal(values, values.T) and (np.diag(values) >= 0.0).all()):
                return False
        return len(names) == len(list(self.out.glob("cov_*.csv")))


WORKLOADS = {"sweep": Sweep, "pipeline": Pipeline, "covariance": Covariance}


def hazard_csv_matches(r, path: Path) -> bool:
    """Rows of ``hazard_{i}.csv`` equal the arrays of the library fit."""
    rows = read_csv(path)
    states = r.hazard.states
    pairs = [(a, b) for a in range(len(states)) for b in range(len(states)) if a != b]
    grid = r.hazard.times
    got = {q: [row for row in rows if row[1] == q] for q in ("hazard", "count", "exposure")}

    def check(kind, times, labels, values) -> bool:
        sel = got[kind]
        return (
            len(sel) == len(values)
            and [float(row[0]) for row in sel] == list(times)
            and [(row[2], row[3]) for row in sel] == labels
            and [float(row[4]) for row in sel] == list(values)
        )

    idx_a, idx_b = zip(*pairs)
    haz = r.hazard.hazard.values[:, idx_a, idx_b]
    cnt = r.hazard.counts.values[:, idx_a, idx_b]
    pair_labels = [(str(states[a]), str(states[b])) for a, b in pairs]
    expo = np.column_stack([r.hazard.exposure[s].values for s in states])
    nz = cnt != 0.0
    return (
        check("hazard", np.repeat(grid, len(pairs)), pair_labels * len(grid), haz.ravel())
        and check(
            "count",
            np.repeat(grid, nz.sum(axis=1)),
            [pair_labels[c] for c in np.nonzero(nz)[1]],
            cnt[nz],
        )
        and check(
            "exposure",
            np.repeat(grid, len(states)),
            [(str(s), "") for s in states] * len(grid),
            expo.ravel(),
        )
    )


def occupation_csv_matches(r, path: Path) -> bool:
    occ = r.occupation
    rows = read_csv(path)
    times = np.concatenate([np.zeros(len(occ.states)), np.repeat(occ.times, len(occ.states))])
    values = np.concatenate([occ.initial, occ.values.ravel()])
    labels = [str(s) for s in occ.states] * (occ.times.size + 1)
    return (
        [float(row[0]) for row in rows] == list(times)
        and [row[1] for row in rows] == labels
        and [float(row[2]) for row in rows] == list(values)
    )


# --- tracing -------------------------------------------------------------

PER_LAYER = (
    ("kernels.nw_weights.s", "s"),
    ("kernels.nw_weights.calls", "count"),
    ("kernels.pos_weight_frac", "fraction"),
    ("estimators.fit.s", "s"),
    ("estimators.fit.self_s", "s"),
    ("estimators.nelson_aalen.s", "s"),
    ("estimators.aalen_johansen.s", "s"),
    ("estimators.event_grid.s", "s"),
    ("estimators.event_grid.calls", "count"),
    ("estimators.grid_points", "count"),
    ("covariance.occupation_covariance.s", "s"),
    ("covariance.hazard_covariance.s", "s"),
    ("covariance.zeta_values.s", "s"),
    ("covariance.influence_zeta.calls", "count"),
    ("covariance.influence_gamma.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "count"),
    ("stepfun.lookups", "count"),
    ("data.load_sample.s", "s"),
    ("data.load_sample.rows", "count"),
    ("data.write_sample.s", "s"),
    ("data.write_sample.bytes", "count"),
    ("simulate.simulate_path.calls", "count"),
    ("simulate.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def install_tracing(tracer, files: dict[str, list]) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from condaalen import cli, covariance, estimators, stepfun

    def weights(counts, args, result):
        counts["kernels.positive"] += int(np.count_nonzero(result.weights))
        counts["kernels.subjects"] += result.weights.size

    def grid(counts, args, result):
        counts["estimators.grid_points"] += len(result)

    def remember(key, pos):
        return lambda counts, args, result: files[key].append(Path(args[pos]))

    for owner in (estimators, cli):
        tracer.wrap(owner, "fit", "estimators.fit")
    tracer.wrap(estimators, "nw_weights", "kernels.nw_weights", weights)
    tracer.wrap(estimators, "nelson_aalen", "estimators.nelson_aalen")
    tracer.wrap(estimators, "aalen_johansen", "estimators.aalen_johansen")
    tracer.wrap(estimators, "event_grid", "estimators.event_grid", grid)
    tracer.wrap(cli, "occupation_covariance", "covariance.occupation_covariance")
    tracer.wrap(cli, "hazard_covariance", "covariance.hazard_covariance")
    tracer.wrap(covariance, "zeta_values", "covariance.zeta_values")
    tracer.wrap(covariance, "influence_zeta", "covariance.influence_zeta")
    tracer.wrap(covariance, "influence_gamma", "covariance.influence_gamma")
    tracer.wrap(cli, "load_sample", "data.load_sample", remember("load", 0))
    tracer.wrap(cli, "write_sample", "data.write_sample", remember("write", 1))
    tracer.wrap(cli, "simulate_path", "simulate.simulate_path")
    tracer.count(stepfun.StepCurve, "__call__", "stepfun.lookups")


def layer_metrics(tracer, files, cli_dir: Path | None, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round; file counts are read afterwards."""
    total, own = tracer.totals()
    c = tracer.counts
    written = [p for p in cli_dir.rglob("*") if p.is_file()] if cli_dir else []
    return {
        "kernels.nw_weights.s": total["kernels.nw_weights"],
        "kernels.nw_weights.calls": c["kernels.nw_weights.calls"],
        "kernels.pos_weight_frac": c["kernels.positive"] / max(c["kernels.subjects"], 1),
        "estimators.fit.s": total["estimators.fit"],
        "estimators.fit.self_s": own["estimators.fit"],
        "estimators.nelson_aalen.s": total["estimators.nelson_aalen"],
        "estimators.aalen_johansen.s": total["estimators.aalen_johansen"],
        "estimators.event_grid.s": total["estimators.event_grid"],
        "estimators.event_grid.calls": c["estimators.event_grid.calls"],
        "estimators.grid_points": c["estimators.grid_points"],
        "covariance.occupation_covariance.s": total["covariance.occupation_covariance"],
        "covariance.hazard_covariance.s": total["covariance.hazard_covariance"],
        "covariance.zeta_values.s": total["covariance.zeta_values"],
        "covariance.influence_zeta.calls": c["covariance.influence_zeta.calls"],
        "covariance.influence_gamma.calls": c["covariance.influence_gamma.calls"],
        "cli.self_s": own["cli.main"],
        "cli.rows_written": sum(
            len(read_csv(p)) for p in written if p.suffix == ".csv"
        ),
        "cli.bytes_written": sum(p.stat().st_size for p in written),
        "stepfun.lookups": c["stepfun.lookups"],
        "data.load_sample.s": total["data.load_sample"],
        "data.load_sample.rows": sum(len(read_csv(p)) for p in files["load"]),
        "data.write_sample.s": total["data.write_sample"],
        "data.write_sample.bytes": sum(p.stat().st_size for p in files["write"]),
        "simulate.simulate_path.calls": c["simulate.simulate_path.calls"],
        "simulate.s": total["simulate.simulate_path"],
        "trace.wall_s": wall,
    }


# --- driver --------------------------------------------------------------


def measure(workload, seconds: float, tracer=None):
    """Timed rounds until ``seconds`` of timed work and reference units.

    Returns (walls, ref, failed, layers). Untraced rounds run the
    :class:`Reference` after each op and return it; traced rounds give
    ``layers`` and no reference.
    """
    walls, failed, layers = [], 0, []
    ref = Reference() if tracer is None else None
    files: dict[str, list] = {"load": [], "write": []}
    if tracer is not None:
        install_tracing(tracer, files)
    spent = 0.0
    try:
        while len(walls) < MIN_ROUNDS or spent < seconds:
            workload.prepare()
            if tracer is not None:
                tracer.reset()
                files["load"].clear()
                files["write"].clear()
            wall, out, raised = 0.0, [], False
            for op in workload.ops(tracer):
                t0 = time.perf_counter()
                try:
                    out.append(op())
                except Exception:
                    traceback.print_exc()
                    raised = True
                dt = time.perf_counter() - t0
                wall += dt
                if ref is not None:
                    ref.follow(dt)
                if raised:
                    break
            walls.append(wall)
            spent = sum(walls) + (ref.seconds if ref is not None else 0.0)
            if raised:
                failed += workload.ops_per_round
                continue
            if tracer is not None:
                layers.append(layer_metrics(tracer, files, workload.cli_dir, walls[-1]))
            failed += workload.check(out)
            del out  # two rounds of sweep results would double peak RSS
    finally:
        if tracer is not None:
            tracer.restore()
    return walls, ref, failed, layers


def machine_facts() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "condaalen").glob("*.py"))
        ),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = import_package()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](pkg, seed, work)
        setups = []
        while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS:
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        # warm-up round, untimed and unchecked: lazy imports, allocator arenas
        workload.prepare()
        for op in workload.ops(None):
            op()

        # a traced run splits its time: untraced rounds, then traced rounds
        walls, ref, failed, _ = measure(workload, seconds / 2 if trace else seconds)
        layers = []
        if trace:
            _, _, traced_failed, layers = measure(workload, seconds / 2, Tracer())
            failed += traced_failed
        rounds = len(walls) + len(layers)
        attempted = rounds * workload.ops_per_round
        if not workload.final_check():
            failed = attempted
        wall = statistics.median(walls)
        if trace:
            metrics = summarize_layers(layers, wall)
            units = dict(PER_LAYER)
        else:
            metrics = {
                "wall_ref": wall / ref.unit_seconds,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
        facts = machine_facts()
        facts.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                     rounds=rounds, ops_attempted=attempted, ops_failed=failed,
                     wall_s=wall, fits_per_s=workload.fits_per_round / wall,
                     ref_unit_s=ref.unit_seconds, ref_units=ref.units, round_walls_s=walls)
        print("facts " + json.dumps(facts, sort_keys=True))
        for key, value in metrics.items():
            print(f"{name} {key} = {value:.6g} {units[key]}")
        if trace:
            shares = ", ".join(
                f"{key} {metrics[key] / metrics['trace.wall_s']:.0%}"
                for key in ("estimators.fit.s", "cli.self_s", "covariance.occupation_covariance.s")
            )
            print(f"{name} share of trace.wall_s: {shares}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def summarize_layers(layers: list[dict], untraced_wall: float) -> dict[str, float]:
    """Times are medians over traced rounds; counts must repeat exactly."""
    out = {}
    for key, unit in PER_LAYER:
        if key == "trace.overhead_s":
            continue
        values = [layer[key] for layer in layers]
        if unit == "count":
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between identical rounds: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"{name} ops_attempted = {result['attempted']}  ops_failed = {result['failed']}"
              f"  correct = {result['correct']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
