"""Benchmark of the infotraj solve -> extract -> validate path.

Run from the repository root:

    python3 perfbench/run.py --workload single_path --seed 0 --seconds 60 --trace 0

It imports the package from ./src and calls the public entry points
infotraj.cli.cmd_solve, cmd_extract and cmd_validate in one process. The loop
is closed with one client: each operation starts after the previous one has
finished, with workers=1 and BLAS pinned to one thread. Workloads:

  single_path    cmd_solve, then cmd_extract, on scenarios/doppler_single_path.json
                 (1 start, characteristic mode). The solver does most of the work.
  validate       cmd_validate on scenarios/validate_suite.json: 21 in-memory
                 solves, classic_solve, brute_force_value, extract_receding,
                 gradient_consistency_check and the toy cascade.

No workload covers dynamics.simulate_open_loop / rk4_step (the CLI never calls
them), --workers > 1, or extraction alone from a stored solution.

Both workloads are fixed by their scenario files: the seed is recorded, and
every seed gives the same inputs.

With --trace 0 the run repeats the operation, stopping before one would end
past --seconds. Its end-to-end metrics are:

  time_to_solution_s  the median operation wall time over the run: solve +
                      extract, or validate
  setup_s             the fastest of the fresh-interpreter start-ups (import,
                      scenario load, system build) sampled at set-up and after
                      each operation
  peak_rss_mb         the process's high-water resident set size

On a shared 2-vCPU VM consecutive operations of one run differ by up to 40%,
and process CPU time varies with them, so the operation time is a median over
the whole run. The set-up time is a minimum because interference from other
processes only adds time, and its median moved by over 20% between sets of
runs. The run also prints, by name with unit, the median of each phase
(solve_s, extract_s, validate_s) and the error rate. With --trace 1 the run
does one untraced and then one traced operation. It reports the per-layer
metrics from the spans of the benchmark's wrappers (perfbench/tracer.py), the
untraced operation's wall time, and the tracing overhead as the difference
between the two. The exact counts must equal those of the first traced run in
the same checkout of the same workload, package source, scenarios and
benchmark files (.perfbench_out/counts-<workload>-<digest>.json), so a change
to the program starts a new record instead of failing.
Every operation's output is checked against perfbench/reference.json; a
raise, a wrong cost, a failed validation or a non-finite field counts as a
failed operation. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pin BLAS before numpy loads: unpinned OpenBLAS threads widen the spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
OUT = os.path.join(ROOT, ".perfbench_out")

SINGLE = os.path.join(SCENARIOS, "doppler_single_path.json")
SUITE = os.path.join(SCENARIOS, "validate_suite.json")

SETUP_SAMPLES = 5  # per batch; a batch runs at set-up and after each operation

# a fresh interpreter: import, scenario load and system build
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); from infotraj import cli; "
    "cli.load_scenario(sys.argv[2]).build_system()"
)

# metric names and units, as BENCHMARK.json declares them
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
# A per-layer name ending in .calls, .s or .self_s reads the span of that name;
# DERIVED maps the others to span counts or parent-child pairs.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# metric -> (field of Tracer.layer_metrics, key); "children" counts spans of
# the second name whose parent span has the first name
DERIVED = {
    "matrixcore.flow.node_updates": ("counts", "matrixcore.flow.node_updates"),
    "matrixcore.flow.bytes_computed": ("counts", "matrixcore.flow.bytes_computed"),
    "hjsolver.steps": ("children", ("hjsolver.hybrid_solve", "matrixcore.flow")),
    "grid.save_array.bytes": ("counts", "grid.save_array.bytes"),
    "grid.load_array.bytes": ("counts", "grid.load_array.bytes"),
    "sensing.suite_fim.points": ("counts", "sensing.suite_fim.points"),
    "trajectories.rk4_steps": ("counts", "trajectories.extract_characteristic.rk4_steps"),
    "trajectories.boundary_exits": (
        "counts", "trajectories.extract_characteristic.boundary_exits",
    ),
    "trajectories.extract_receding.resolves": (
        "children", ("trajectories.extract_receding", "hjsolver.hybrid_solve"),
    ),
    "trajectories.brute_force_value.rollouts": (
        "counts", "trajectories.simulate_control_batch.rollouts",
    ),
    "trajectories.gradient_consistency_check.solves": (
        "children", ("trajectories.gradient_consistency_check", "hjsolver.hybrid_solve"),
    ),
}


class WorkloadError(Exception):
    """An operation produced a wrong, missing or non-finite result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a source checkout."""
    needed = [os.path.join(SRC, "infotraj", "__init__.py"), SINGLE, SUITE]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "llc": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for entry in os.listdir(cache_dir):
            if entry.startswith("index"):
                with open(os.path.join(cache_dir, entry, "level"), encoding="utf-8") as fh:
                    level = int(fh.read())
                with open(os.path.join(cache_dir, entry, "size"), encoding="utf-8") as fh:
                    levels.append((level, f"L{level} {fh.read().strip()}"))
        facts["llc"] = max(levels)[1]
    except (OSError, ValueError):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration", "")
        facts["blas"] = f"{blas['name']} {blas['version']}: {config}"
    except (KeyError, TypeError, ValueError):
        pass
    return facts


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def setup_sample(scenario_path: str) -> float:
    """Wall time of a fresh interpreter that imports, loads and builds."""
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, scenario_path], check=True, cwd=ROOT)
    return time.perf_counter() - start


# -- correctness ------------------------------------------------------------


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


def check_costs(summary: dict, out_dir: str, expected: list, tol: float) -> None:
    rows = summary["trajectories"]
    if len(rows) != len(expected):
        raise WorkloadError(f"{len(rows)} trajectories, expected {len(expected)}")
    for row, ref in zip(rows, expected):
        if not _finite(row):
            raise WorkloadError(f"{row['file']}: non-finite summary fields")
        if abs(row["cost"] - ref) > tol:
            raise WorkloadError(
                f"{row['file']}: cost {row['cost']:.9f} differs from the reference "
                f"{ref:.9f} by more than {tol:g}"
            )
        if os.path.getsize(os.path.join(out_dir, row["file"])) == 0:
            raise WorkloadError(f"{row['file']}: empty trajectory file")


def check_solution(sol_dir: str) -> None:
    """The stored final snapshot must hold finite fields."""
    import numpy as np

    with open(os.path.join(sol_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    last = manifest["snapshots"][-1]
    for key in ("phi", "phi_z"):
        arr = np.fromfile(os.path.join(sol_dir, last[key]), dtype="<f8")
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise WorkloadError(f"{last[key]}: empty or non-finite field")


def check_report(report, ref: dict, tol: float) -> None:
    if report.passed != ref["passed"] or report.violations != ref["violations"]:
        raise WorkloadError(f"validation failed: {', '.join(report.violations)}")
    if not _finite(report.checks):
        raise WorkloadError("non-finite values in the validation report")
    for check, keys in ref["costs"].items():
        for key, value in keys.items():
            got = report.checks[check][key]
            if abs(got - value) > tol:
                raise WorkloadError(
                    f"{check}.{key} = {got:.9f} differs from the reference {value:.9f} "
                    f"by more than {tol:g}"
                )


# -- workloads --------------------------------------------------------------


class Workload:
    """Set-up and one checked operation of a workload."""

    def __init__(self, name: str, work_dir: str, ref: dict):
        from infotraj import cli

        self.cli = cli
        self.name = name
        self.ref = ref
        self.tol = ref["tolerances"]["cost_abs"]
        self.sol_dir = os.path.join(work_dir, "solution")
        self.out_dir = os.path.join(work_dir, "trajectories")
        self.setup_samples = []
        self.sample_setup()
        self.scenario = cli.load_scenario(SINGLE)
        self.expected = [ref["single_path"]["cost"]]

    def sample_setup(self) -> None:
        """Samples spread over the run give the least-disturbed one more chances."""
        self.setup_samples += [setup_sample(SINGLE) for _ in range(SETUP_SAMPLES)]

    def run(self) -> dict:
        """One operation: returns its phase times; raises if it is wrong."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        cli = self.cli
        if self.name == "single_path":
            shutil.rmtree(self.sol_dir, ignore_errors=True)
            _, solve_s = timed(cli.cmd_solve, self.scenario, self.sol_dir)
            summary, extract_s = timed(cli.cmd_extract, self.sol_dir, self.out_dir)
            times = {"solve_s": solve_s, "extract_s": extract_s}
            check_solution(self.sol_dir)
            check_costs(summary, self.out_dir, self.expected, self.tol)
        else:
            report, validate_s = timed(cli.cmd_validate, SUITE)
            times = {"validate_s": validate_s}
            check_report(report, self.ref["validate"], self.tol)
        times["time_to_solution_s"] = sum(times.values())
        return times


def attempt(workload: Workload, log: list) -> None:
    """Run one operation; a raise or a wrong result counts as a failure."""
    start = time.perf_counter()
    try:
        log.append({"ok": True, **workload.run()})
    except Exception:  # the benchmark reports every failure and keeps going
        traceback.print_exc(file=sys.stderr)
        log.append({"ok": False, "time_to_solution_s": time.perf_counter() - start})


# -- reporting --------------------------------------------------------------


def describe(name: str, values: list, unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit} (n={n}"
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} {sorted(values)[n - 11]:.6g} {unit}"
    else:
        text += ", no percentile above the median has 10 samples beyond it"
    return text + ")"


def layer_values(tracer, op_id: int) -> dict:
    data = tracer.layer_metrics(op_id)
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in DERIVED:
            source, key = DERIVED[name]
            out[name] = data[source].get(key, 0)
        elif name == "sensing.fallbacks":
            out[name] = data["fallbacks"]
        else:
            span, field = name.rsplit(".", 1)
            out[name] = data[field].get(span, 0.0 if PER_LAYER[name] == "s" else 0)
    return out


def run_untraced(workload: Workload, seconds: float) -> tuple:
    log = []
    start = time.perf_counter()
    while True:
        attempt(workload, log)
        workload.sample_setup()
        # stop before an operation that would end past the time budget
        if time.perf_counter() - start + log[-1]["time_to_solution_s"] > seconds:
            break
    # failed operations count only when none succeeded
    good = [op for op in log if op["ok"]] or log
    phases = sorted({k for op in good for k in op if k != "ok"})
    lines = [describe(k, [op[k] for op in good], "s") for k in phases]
    lines.append(describe("setup samples", workload.setup_samples, "s"))
    metrics = {
        "time_to_solution_s": statistics.median(op["time_to_solution_s"] for op in good),
        "setup_s": min(workload.setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return log, lines, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def inputs_digest(inputs) -> str:
    """Digest of the workload inputs and of every file a traced run depends
    on: the package source, the scenarios and the benchmark itself."""
    digest = hashlib.sha256(json.dumps(inputs).encode())
    for top in (os.path.join(SRC, "infotraj"), SCENARIOS, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_counts(values: dict, counts_path: str) -> list:
    """The exact counts must repeat: compare with the first traced run of the
    same inputs and files in this checkout, and record them if there is none."""
    counts = {k: v for k, v in values.items() if PER_LAYER[k] != "s" and k != "trace.overhead_pct"}
    if not os.path.exists(counts_path):
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(counts_path, encoding="utf-8") as fh:
        first = json.load(fh)
    return [
        f"count {k} = {v} differs from {first.get(k)} in {os.path.relpath(counts_path, ROOT)}"
        for k, v in counts.items()
        if first.get(k) != v
    ]


def run_traced(workload: Workload, spans_path: str, counts_path: str) -> tuple:
    """One untraced operation, then one traced operation."""
    from tracer import Tracer

    log = []
    attempt(workload, log)
    tracer = Tracer()
    tracer.install()
    tracer.begin(1)
    try:
        attempt(workload, log)
    finally:
        tracer.end()
        tracer.uninstall()
    tracer.dump(spans_path)

    values = layer_values(tracer, 1)
    base, traced = (op["time_to_solution_s"] for op in log)
    values["trace.untraced_op_s"] = base
    values["trace.overhead_s"] = traced - base
    values["trace.overhead_pct"] = 100.0 * (traced - base) / base
    values["trace.spans"] = len(tracer.spans)
    lines = [f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    if all(op["ok"] for op in log):
        mismatches = check_counts(values, counts_path)
        if mismatches:
            log[1]["ok"] = False
            lines += mismatches
    return log, lines, {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        workload = Workload(args.workload, work_dir, ref)
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}.json")
            digest = inputs_digest([args.workload])
            counts_path = os.path.join(OUT, f"counts-{args.workload}-{digest}.json")
            log, lines, metrics = run_traced(workload, spans_path, counts_path)
        else:
            log, lines, metrics = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(log)
    failed = sum(1 for op in log if not op["ok"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
