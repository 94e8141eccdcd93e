"""The logsine benchmark: one seeded workload, measured end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,sweep,scattered,exact} \\
        --seed N --seconds S --trace {0,1}

Runs the package under ``src/`` in fresh worker interpreters, one at a
time (closed loop, one client), for ``--seconds`` of wall time, then
checks every output against reference.py.  The last line of stdout is

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) listed in BENCHMARK.json.  Each run also writes its
record (seed, input digest, machine, raw samples) under
``.perfbench-out/``.  See README.md in this directory for what each
metric means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import Reference, check_call, check_cli, check_exact, check_sweep
from traced_cli import MARKER
from tracer import LAYERS, NODE_CACHE, TABLE_CACHE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
PY = sys.executable
SETUP_SPAWNS = 7
CHILD_TIMEOUT = 120
CLI_BLOCK = 12  # fresh CLI processes per warm worker


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LOGSINE_TOLERANCE", None)  # inputs come from the seed alone
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


ENV = _child_env()


class Child:
    """A finished child process and what it cost."""

    def __init__(self, argv: list[str], stdin: bytes = b""):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
            cwd=ROOT,
        )
        try:
            self.stdout, self.stderr = proc.communicate(stdin, timeout=CHILD_TIMEOUT)
            self.returncode = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            self.stdout, self.stderr = proc.communicate()
            self.returncode = None
        self.wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _worker(job: dict, traced: bool = False) -> tuple[Child, dict | None]:
    """Run worker.py on ``job``; the parsed result is None if it failed."""
    argv = [PY] + (["-X", "importtime"] if traced else []) + [str(HERE / "worker.py")]
    child = Child(argv, json.dumps(job).encode())
    if child.returncode != 0:
        return child, None
    try:
        return child, json.loads(child.stdout)
    except ValueError:
        return child, None


def _import_times(stderr: bytes) -> dict[str, float]:
    """Seconds from a ``-X importtime`` report: the package's start-up, the
    import self time of each layer module, and numpy and mpmath."""
    total = 0.0
    out = {"numpy": 0.0, "mpmath": 0.0}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]) / 1e6, int(fields[1]) / 1e6
        except ValueError:
            continue  # the header line
        name = fields[2].rstrip()
        bare = name.strip()
        top_level = name[1:2] != " "
        if top_level and (bare == "logsine" or bare.startswith("logsine.")):
            total += cumulative
        if bare.startswith("logsine.") and bare[len("logsine."):] in LAYERS:
            out[bare[len("logsine."):]] = own
        if bare in ("numpy", "mpmath") and not out[bare]:
            out[bare] = cumulative
    out["total"] = total
    return out


# ---------------------------------------------------------------------------
# workloads: each returns a list of op records
#   {"lat": s, "cpu": s, "warm": s or None, "check": (kind, input, output),
#    "problems": [...]} plus, under tracing, per-worker trace summaries
# ---------------------------------------------------------------------------


def _op(lat, cpu, check, warm=None, problems=()):
    return {
        "at": time.perf_counter(),
        "lat": lat,
        "cpu": cpu,
        "warm": warm,
        "check": check,
        "problems": list(problems),
    }


def _cli_untraced(units, window):
    ops, used = [], 0
    while used < len(units) and window.open():
        block = []
        while len(block) < CLI_BLOCK and used < len(units) and window.open():
            unit = units[used]
            used += 1
            block.append((unit, Child([PY, "-m", "logsine", *unit["argv"]])))
        child, result = _worker({"workload": "cli", "ops": [u for u, _ in block], "warm": True})
        rows = result["results"] if result else [None] * len(block)
        for (unit, fresh), row in zip(block, rows):
            problems = []
            if row is None:
                problems.append(f"warm worker failed: {child.stderr[-500:]!r}")
            elif not (
                row["warm_same"]
                and row["out"]["code"] == fresh.returncode
                and row["out"]["stdout"].encode() == fresh.stdout
            ):
                problems.append(f"{unit['argv']}: in-process output differs from python -m logsine")
            check = ("cli", unit["argv"], (fresh.returncode, fresh.stdout))
            ops.append(_op(fresh.wall, fresh.cpu, check, row and row["warm_wall"], problems))
    return ops, used, []


def _cli_traced(units, window):
    ops, traced_ops, traces, used = [], [], [], 0
    while used < len(units) and window.open():
        unit = units[used]
        used += 1
        runs = {}
        for traced in _pair_order(used):
            if traced:
                argv = [PY, "-X", "importtime", str(HERE / "traced_cli.py"), *unit["argv"]]
            else:
                argv = [PY, "-m", "logsine", *unit["argv"]]
            runs[traced] = Child(argv)
        plain, traced = runs[False], runs[True]
        problems = []
        if (traced.returncode, traced.stdout) != (plain.returncode, plain.stdout):
            problems.append(f"{unit['argv']}: stdout differs under tracing")
        ops.append(_op(plain.wall, plain.cpu, ("cli", unit["argv"], (plain.returncode, plain.stdout)), None, problems))
        traced_ops.append(_op(traced.wall, traced.cpu, ("cli", unit["argv"], (traced.returncode, traced.stdout))))
        last = traced.stderr.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        if last.startswith(MARKER):
            summary = json.loads(last[len(MARKER):])
            summary["imports"] = _import_times(traced.stderr)
            traces.append(summary)
        else:
            traced_ops[-1]["problems"].append("traced CLI wrote no trace")
    return ops, used, traces, traced_ops


def _pair_order(i: int) -> tuple[bool, bool]:
    """Which of an untraced/traced pair runs first alternates, so that an
    order effect does not show up as tracing overhead."""
    return (False, True) if i % 2 else (True, False)


def _worker_ops(workload, unit, result, child):
    """Op records from one worker run over one schedule unit."""
    inputs = unit["calls"] if workload == "scattered" else [unit]
    if result is None:
        failure = f"worker exit {child.returncode}: {child.stderr[-500:]!r}"
        share = child.wall / len(inputs)
        return [_op(share, child.cpu / len(inputs), None, None, [failure]) for _ in inputs]
    ops = []
    for item, row in zip(inputs, result["results"]):
        problems = [] if row.get("warm_same", True) else [f"warm repeat of {item} differs"]
        ops.append(_op(row["wall"], row["cpu"], (workload, item, row["out"]), row.get("warm_wall"), problems))
    return ops


def _workers_untraced(workload, units, window):
    ops, used = [], 0
    while used < len(units) and window.open():
        unit = units[used]
        used += 1
        job = {"workload": workload, "ops": [unit], "warm": True}
        job["budget_s"] = window.remaining()
        child, result = _worker(job)
        ops.extend(_worker_ops(workload, unit, result, child))
    return ops, used, []


def _workers_traced(workload, units, window):
    ops, traced_ops, traces, used = [], [], [], 0
    while used < len(units) and window.open():
        unit = units[used]
        used += 1
        for traced in _pair_order(used):
            child, result = _worker({"workload": workload, "ops": [unit], "trace": traced}, traced)
            batch = _worker_ops(workload, unit, result, child)
            if not traced:
                ops.extend(batch)
                continue
            traced_ops.extend(batch)
            if result is not None:
                summary = result["trace"]
                summary["imports"] = _import_times(child.stderr)
                traces.append(summary)
    return ops, used, traces, traced_ops


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------


def _check(ref: Reference, ops: list[dict]) -> int:
    """Add reference problems to every op; return the number of failed ops."""
    for op in ops:
        if op["check"] is not None:
            kind, item, out = op["check"]
            if kind == "cli":
                op["problems"] += check_cli(ref, item, *out)
            elif kind == "sweep":
                op["problems"] += check_sweep(ref, item["tol"], out)
            elif kind == "exact":
                op["problems"] += check_exact(ref, item["N"], out)
            else:
                op["problems"] += check_call(ref, item, out)
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print("FAILED:", "; ".join(op["problems"][:3]), file=sys.stderr)
    return len(failed)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _end_to_end(ops, window, setup_s) -> dict[str, tuple[float, str]]:
    lat = [op["lat"] for op in ops]
    warm = [op["warm"] for op in ops if op["warm"] is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (_p90(lat), "s"),
        "ops_per_s": (len(ops) / window, "1/s"),
        "cpu_per_op_s": (sum(op["cpu"] for op in ops) / len(ops), "s"),
        "warm_op_p50_s": (statistics.median(warm) if warm else float("nan"), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _per_layer(traces, ops, traced_ops) -> dict[str, tuple[float, str]]:
    """Per-op layer totals over the traced ops.  A layer's self time counts
    its module's import (from -X importtime) and its spans' own time."""
    n = len(traced_ops)
    m: dict[str, tuple[float, str]] = {}
    imports = [t["imports"] for t in traces]
    layer_imports = sum(i.get(layer, 0.0) for i in imports for layer in LAYERS)
    m["import.calls"] = (len(traces) / n, "count/op")
    m["import.self_s"] = ((sum(i["total"] for i in imports) - layer_imports) / n, "s/op")
    m["import.numpy_s"] = (sum(i["numpy"] for i in imports) / n, "s/op")
    m["import.mpmath_s"] = (sum(i["mpmath"] for i in imports) / n, "s/op")
    for layer in LAYERS:
        calls = sum(t["layers"][layer]["calls"] for t in traces)
        own = sum(t["layers"][layer]["self_s"] for t in traces) + sum(i.get(layer, 0.0) for i in imports)
        m[f"{layer}.calls"] = (calls / n, "count/op")
        m[f"{layer}.self_s"] = (own / n, "s/op")

    def cache(pick):
        hits = misses = 0
        for t in traces:
            for name, (h, mi) in t["caches"].items():
                if pick(name):
                    hits, misses = hits + h, misses + mi
        return hits, misses

    table = cache(lambda name: name == TABLE_CACHE)
    nodes = cache(lambda name: name == NODE_CACHE)
    results = cache(lambda name: name.startswith("quadrature_oracle.") and name != NODE_CACHE)
    m["exact_core.table_builds"] = (table[1] / n, "count/op")
    m["exact_core.table_cache_hit_ratio"] = (_ratio(*table), "1")
    m["zeta_engine.series_evals"] = (sum(t["series_evals"] for t in traces) / n, "count/op")
    m["quadrature_oracle.integrand_evals"] = (sum(t["integrand_evals"] for t in traces) / n, "count/op")
    m["quadrature_oracle.node_table_builds"] = (nodes[1] / n, "count/op")
    m["quadrature_oracle.result_cache_hit_ratio"] = (_ratio(*results), "1")
    plain = statistics.median(op["lat"] for op in ops)
    traced = statistics.median(op["lat"] for op in traced_ops)
    m["trace.untraced_op_p50_s"] = (plain, "s")
    m["trace.traced_op_p50_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - plain, "s")
    return m


def _setup_sample(module: str) -> float:
    """Seconds from spawning an interpreter to ``module`` imported."""
    code = f"import time\nimport {module}\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = Child([PY, "-c", code])
    if child.returncode != 0:
        sys.exit(f"perfbench: cannot import {module}: {child.stderr.decode(errors='replace')}")
    return float(child.stdout) - start


class Window:
    """The measuring window, with the set-up samples spread across it.

    Host speed on a shared machine drifts over seconds, so the set-up
    spawns are spaced evenly through the run rather than taken in one
    burst; their time is excluded from the window."""

    def __init__(self, seconds: float, module: str):
        self.seconds = seconds
        self.module = module
        self.setup = [_setup_sample(module)]  # also proves the package imports
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    def open(self) -> bool:
        """Take a set-up sample if one is due; say whether to go on."""
        if len(self.setup) < SETUP_SPAWNS and self.elapsed() >= len(self.setup) * self.seconds / SETUP_SPAWNS:
            begin = time.perf_counter()
            self.setup.append(_setup_sample(self.module))
            self.paused += time.perf_counter() - begin
        return self.elapsed() < self.seconds

    def close(self) -> tuple[float, float]:
        """(window seconds, median set-up seconds)."""
        length = self.elapsed()
        while len(self.setup) < SETUP_SPAWNS:
            self.setup.append(_setup_sample(self.module))
        return length, statistics.median(self.setup)


def _host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop that does not touch the
    package.  Recorded before and after the window: on a shared host a
    shift in this figure marks a change of host speed, not of the program."""
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(100_000))
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _machine() -> dict:
    import mpmath

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "logsine" / "__init__.py").is_file():
        sys.exit(f"perfbench: no logsine package under {ROOT / 'src'}")

    machine = _machine()
    machine["host_loop_ms_before"] = _host_loop_ms()
    units = workloads.schedule(args.workload, args.seed)
    window = Window(args.seconds, "logsine.cli" if args.workload == "cli" else "logsine")
    if args.workload == "cli":
        runner = _cli_traced if args.trace else _cli_untraced
        ran = runner(units, window)
    else:
        runner = _workers_traced if args.trace else _workers_untraced
        ran = runner(args.workload, units, window)
    length, setup_s = window.close()
    machine["host_loop_ms_after"] = _host_loop_ms()
    ops, used, traces = ran[:3]
    traced_ops = ran[3] if args.trace else []

    failed = _check(Reference(), ops + traced_ops)
    if args.trace:
        metrics = _per_layer(traces, ops, traced_ops)
        attempted = len(ops) + len(traced_ops)
    else:
        metrics = _end_to_end(ops, length, setup_s)
        attempted = len(ops)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "schedule_sha256": workloads.digest(units),
        "units_run": used,
        "inputs_run_sha256": workloads.digest(units[:used]),
        "ops": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "window_s": length,
        "setup_samples": window.setup,
        "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": [[op["at"] - window.start, op["lat"], op["cpu"], op["warm"]] for op in ops + traced_ops],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{name}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [t.pop("spans") for t in traces]
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps(spans))
        missing = sorted({name for t in traces for name in t["missing"]})
        if missing:
            print("missing (not traced):", ", ".join(missing))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:9} {key:42} {value:14.6g} {unit}")
    print(f"{args.workload:9} {'fail_ratio':42} {failed / attempted:14.6g} 1 ({failed}/{attempted})")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "schedule_sha256", "units_run", "inputs_run_sha256", "machine")}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
