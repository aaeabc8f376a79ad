"""Scenario benchmark: the paper pipeline, timed end to end and per layer.

Runs the pipeline (profile miss curves, solve the MCKP, program the
partitioned L2, run shared and partitioned, check composition) through
the public ``repro.exp`` API on the ``compiled`` engine, and prints
every metric by name with its unit.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

    python3 perfbench/run.py --workload cold_scenario --seed 20050307 \\
        --seconds 13 --trace 0

Workloads (see README.md beside this file for why each exists):

- ``cold_scenario``: each paper app in turn, from an empty cache.
- ``warm_sweep``: both apps x L2 {512, 1024} KB x solver {dp, greedy}
  from a warm disk cache (filled during set-up).
- ``online_transition``: a JPEG decoder leaves a running JPEG+Canny,
  then MPEG-2 joins (profiles warmed during set-up).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes, then one more pass with every layer's public
entry points wrapped in spans, and prints the per-layer metrics plus
the tracing overhead (traced pass minus the untraced median).

Every run checks correctness (pinned record hashes at the default
seed, invariants at any seed) and exits non-zero on any violation.
Work files live under ``.perfbench/`` at the repository root.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

from spans import (  # noqa: E402
    LAYER_METRICS,
    Patches,
    Tracer,
    count_profiling,
    instrument,
    reduce_pass,
)
from stats import median, summarize  # noqa: E402

DEFAULT_SEED = 20050307
WORKERS = 2
SIZES = [1, 2, 4, 8, 16, 32, 64]
APPS = (
    ("two_jpeg_canny", {"scale": "paper", "frames": 2}),
    ("mpeg2", {"frames": 4}),
)
#: The departing JPEG decoder of the online workload.
LEAVER = {
    "tasks": ("FrontEnd1", "IDCT1", "Raster1", "BackEnd1"),
    "fifos": ("coef1", "pix1", "lines1"),
    "frames": ("jpeg_in1", "jpeg_out1"),
}
T_LEAVE, T_JOIN = 1.0e6, 1.5e6
#: warm_sweep grid axes (256 KB is infeasible: buffers exceed the cache).
GRID_L2_KB = [512, 1024]
GRID_SOLVERS = ["dp", "greedy"]

#: The paper's reported results (shared -> partitioned L2 miss rate, %).
PAPER = {
    "two_jpeg_canny": {"x": 5.0, "shared": 9.46, "partitioned": 2.21},
    "mpeg2": {"x": 6.5, "shared": 5.1, "partitioned": 0.8},
}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PINS_PATH = HERE / "pins.json"


# -- the workloads ------------------------------------------------------------


class Bench:
    """Scenario builders and per-run state shared by the workloads."""

    def __init__(self, seed: int, work: Path):
        from repro.cake import CakeConfig
        from repro.core import MethodConfig
        from repro.exp import Scenario, TransitionSpec, WorkloadSpec, sweep

        self.work = work
        self._caches = 0
        self.specs = {name: WorkloadSpec(name, kw) for name, kw in APPS}
        self.base = {
            name: Scenario(
                workload=spec,
                cake=CakeConfig(seed=seed),
                method=MethodConfig(sizes=SIZES, solver="dp"),
            ).with_engine("compiled")
            for name, spec in self.specs.items()
        }
        self.grid = [
            scenario
            for name in self.specs
            for scenario in sweep(self.base[name], l2_size_kb=GRID_L2_KB,
                                  solver=GRID_SOLVERS)
        ]
        self.online = replace(
            self.base["two_jpeg_canny"],
            transitions=(
                TransitionSpec(at=T_LEAVE, action="leave", **LEAVER),
                TransitionSpec(at=T_JOIN, action="join", group="mpeg2",
                               workload=self.specs["mpeg2"]),
            ),
        )
        self.cache = None

    def fresh_cache(self) -> Path:
        path = self.work / f"cache-{self._caches}"
        self._caches += 1
        path.mkdir(parents=True)
        return path

    def run(self, scenarios, cache: Path):
        from repro.exp import ExperimentRunner, clear_caches

        clear_caches()
        runner = ExperimentRunner(workers=WORKERS, cache=str(cache))
        started = time.perf_counter()
        store = runner.run(scenarios)
        return list(store.records), time.perf_counter() - started


def cold_setup(bench):
    return []


def cold_pass(bench):
    records, detail = [], {}
    for name in bench.specs:
        cache = bench.fresh_cache()
        app_records, wall = bench.run([bench.base[name]], cache)
        shutil.rmtree(cache)
        records += app_records
        detail[f"cold_s.{name}"] = wall
    return records, sum(detail.values()), detail


def warm_setup(bench):
    bench.cache = bench.fresh_cache()
    records, _wall = bench.run(bench.grid, bench.cache)
    return records


def warm_pass(bench):
    records, wall = bench.run(bench.grid, bench.cache)
    return records, wall, {"sweep_s": wall}


def online_setup(bench):
    bench.cache = bench.fresh_cache()
    records, _wall = bench.run(list(bench.base.values()), bench.cache)
    return records


def online_pass(bench):
    records, wall = bench.run([bench.online], bench.cache)
    replan = sum(records[0].payload["timing"]["replan_wall_s"])
    return records, wall, {"online_s": wall, "replan_ms": replan * 1e3}


#: name -> (set-up, one pass, scenarios per pass, profiling passes per
#: pass: None = unchecked)
WORKLOADS = {
    "cold_scenario": (cold_setup, cold_pass, len(APPS), None),
    "warm_sweep": (warm_setup, warm_pass,
                   len(APPS) * len(GRID_L2_KB) * len(GRID_SOLVERS), 0),
    "online_transition": (online_setup, online_pass, 1, 0),
}


# -- the correctness gate ------------------------------------------------------


class Gate:
    """Counts scenario attempts and the ones that violate a check."""

    def __init__(self, seed: int):
        self.pins = None
        if seed == DEFAULT_SEED:
            self.pins = json.loads(PINS_PATH.read_text())["records"]
        self.first = {}
        self.hashes = {}
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def _problems(self, record):
        from repro.exp import content_hash

        payload = record.payload
        sid = record.scenario_id
        digest = content_hash(record.canonical())
        self.hashes[sid] = digest
        problems = []
        if self.pins is not None and self.pins.get(sid) != digest:
            problems.append(
                f"record hash {digest} != pinned {self.pins.get(sid)}"
            )
        if self.first.setdefault(sid, digest) != digest:
            problems.append(
                f"record hash {digest} differs from this run's first "
                f"{self.first[sid]}"
            )
        partitioned = payload["metrics"]["partitioned"]
        if record.mode == "set" and partitioned["cross_evictions"] != 0:
            problems.append(
                f"{partitioned['cross_evictions']} cross-owner evictions "
                f"in a set-partitioned run"
            )
        for outcome in payload.get("transitions", ()):
            if outcome["action"] == "join" and not outcome["admitted"]:
                problems.append(f"join rejected ({outcome['reason']})")
            if outcome["action"] == "leave" and not outcome["freed_units"]:
                problems.append("leave freed no units")
        return problems

    def check(self, where, records, expected, profiled=None,
              expect_profiled=None):
        """Check one batch of records; ``expected`` scenarios were
        attempted (fewer records means some were lost)."""
        batch_problems = []
        if len(records) != expected:
            batch_problems.append(
                f"{len(records)} records for {expected} scenarios"
            )
        if expect_profiled is not None and profiled != expect_profiled:
            batch_problems.append(
                f"{profiled} profiling passes, expected {expect_profiled}"
            )
        attempted = max(expected, len(records))
        self.attempted += attempted
        self.violations.extend(
            f"{where}: {problem}" for problem in batch_problems
        )
        failing = 0
        for record in records:
            problems = self._problems(record)
            failing += bool(problems)
            self.violations.extend(
                f"{where} {record.scenario_id} {record.axes['workload']}: "
                f"{problem}"
                for problem in problems
            )
        # A batch-level problem fails every scenario of the batch.
        self.failed += attempted if batch_problems else failing

    def crashed(self, where, expected, error):
        self.attempted += expected
        self.failed += expected
        self.violations.append(f"{where}: raised {error!r}")


# -- reporting -------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def loaded_walker_path() -> str:
    """Path of the walker shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                if "/_walker_" in line:
                    return line.split()[-1]
    except OSError:
        pass
    return "unknown"


def miss_reductions(records):
    """Shared/partitioned miss ratio and miss rates of each app's
    paper-default point (512 KB, dp, static)."""
    out = {}
    for record in records:
        axes = record.axes
        if record.payload.get("transitions") or axes["l2_kb"] != 512 \
                or axes["solver"] != "dp":
            continue
        out[axes["workload"]] = (
            record.miss_reduction_factor,
            record.shared_miss_rate,
            record.partitioned_miss_rate,
        )
    return out


def print_paper_table(reductions):
    print("paper reference (model outputs; the cache model is not "
          "validated against hardware, no accuracy is claimed):")
    print(f"  {'app':16s} {'model x':>8s} {'paper x':>8s} {'gap':>7s}  "
          f"{'model miss %':>15s}  {'paper miss %':>15s}")
    for name, (factor, shared, part) in sorted(reductions.items()):
        ref = PAPER[name]
        print(f"  {name:16s} {factor:8.2f} {ref['x']:8.1f} "
              f"{factor / ref['x'] - 1:+7.1%}  "
              f"{shared * 100:6.2f} -> {part * 100:5.2f}  "
              f"{ref['shared']:6.2f} -> {ref['partitioned']:5.2f}")


def print_samples(name, values, unit):
    summary = summarize(values)
    line = f"  {name:28s} {summary['median']:12.4f} {unit:6s} " \
           f"median of n={summary['n']}"
    if "tail" in summary:
        line += f", p{summary['tail_p']:g}={summary['tail']:.4f}"
    print(line)


def print_layers(metrics, self_by_name):
    print("per-layer (traced pass):")
    for key, metric in metrics.items():
        print(f"  {key:38s} {metric['value']:14.6g} {metric['unit']}")
    print("self time by span name (sums to trace.parent_self_s + "
          "trace.worker_busy_s):")
    for name, value in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:22s} {value:10.4f} s")


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from repro.mem import cwalker
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Compiler and tempfile scratch stays inside the checkout too.
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        if cwalker.load() is None:
            print("perfbench: repro.mem.cwalker.load() returned None; the "
                  "compiled engine would silently fall back to a slower "
                  "walker", file=sys.stderr)
            return 3
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    setup, one_pass, per_pass, expect_profiled = WORKLOADS[args.workload]
    patches = Patches()
    passes_so_far = count_profiling(
        patches, multiprocessing.get_context("fork").Value("q", 0)
    )
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "walker": loaded_walker_path(),
        "engine": "compiled",
        "workers": WORKERS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    # Flushed before any runner pool forks: a fork copies unflushed
    # output into every worker, which would print it again on exit.
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    gate = Gate(args.seed)
    bench = Bench(args.seed, work)
    setup_records = setup(bench)
    gate.check("setup", setup_records, len(setup_records))
    setup_s = time.perf_counter() - _T0

    walls, details, all_records = [], [], list(setup_records)

    def timed_pass(where):
        before = passes_so_far()
        try:
            records, wall, detail = one_pass(bench)
        except Exception as exc:  # counted as failed scenarios, run goes on
            traceback.print_exc()
            gate.crashed(where, per_pass, exc)
            return None
        gate.check(where, records, per_pass, passes_so_far() - before,
                   expect_profiled)
        all_records.extend(records)
        return wall, detail

    started = time.perf_counter()
    attempts = 0
    while True:
        outcome = timed_pass(f"pass{attempts}")
        attempts += 1
        if outcome is not None:
            walls.append(outcome[0])
            details.append(outcome[1])
        if time.perf_counter() - started >= args.seconds:
            break

    layer = None
    if args.trace and walls:
        tracer = Tracer(work / "spool")
        instrument(tracer, patches)
        root = tracer.open("bench.pass")
        before = passes_so_far()
        outcome = timed_pass("traced")
        tracer.close(root)
        patches.undo()
        spans = tracer.collect()
        if outcome is not None:
            layer, self_by_name = reduce_pass(spans, root[0], os.getpid())
            untraced = median(walls)
            layer["trace.untraced_s"] = untraced
            layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced
            layer["trace.overhead_share"] = layer["trace.overhead_s"] / untraced
            layer["exp.profiling_passes"] = passes_so_far() - before
            layer["exp.replan_ms"] = outcome[1].get("replan_ms", 0.0)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            out = traces / f"{args.workload}-seed{args.seed}.jsonl.gz"
            with gzip.open(out, "wt") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            print(f"spans: {len(spans)} written to {out}")
    else:
        patches.undo()

    # -- report --------------------------------------------------------------
    reductions = miss_reductions(all_records)
    print(f"setup: {setup_s:.3f} s (imports, walker load, "
          f"{len(setup_records)} set-up scenarios)")
    for sid, digest in sorted(gate.hashes.items()):
        print(f"record {sid} {digest}")
    print(f"workload {args.workload}: {len(walls)} timed passes")
    if walls:
        print("per-workload times:")
        for key in details[0]:
            unit = "ms" if key.endswith("_ms") else "s"
            print_samples(key, [d[key] for d in details], unit)
    print_paper_table(reductions)
    failed_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"correctness: {gate.attempted} scenarios attempted, "
          f"{gate.failed} failed, failed_ratio={failed_ratio:.4f}")
    for violation in gate.violations:
        print(f"  VIOLATION {violation}")

    if not walls or (args.trace and layer is None):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if layer is not None:
        for name, _kwargs in APPS:
            # 0.0 only when the app's record is missing, i.e. the gate
            # already failed this run.
            layer[f"model.miss_reduction_x.{name}"] = reductions.get(
                name, (0.0,))[0]
        metrics = {
            key: {"value": layer[key], "unit": unit}
            for key, (unit, _better) in LAYER_METRICS.items()
        }
        print_layers(metrics, self_by_name)
        print(f"tracing overhead: {layer['trace.overhead_s']:+.3f} s "
              f"({layer['trace.overhead_share']:+.1%}) = traced pass "
              f"{layer['trace.wall_s']:.3f} s - untraced median "
              f"{layer['trace.untraced_s']:.3f} s")
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": median(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        print("end-to-end (benchmark metrics):")
        for key, value in values.items():
            n = f"median of n={len(walls)}" if key == "pass_s" else "n=1"
            print(f"  {key:28s} {value:12.4f} {END_TO_END_UNITS[key]:6s} {n}")
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in values.items()
        }

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "setup_s": setup_s, "pass_walls": walls,
         "details": details, "violations": gate.violations,
         "metrics": metrics,
     }, indent=1, sort_keys=True))
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
