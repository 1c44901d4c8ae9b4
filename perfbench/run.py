"""The squeeze benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``):
- ``certify``: ``squeeze build``, ``certify-smoothed`` and ``plot-data`` on a
  44-config grid, plus a ``recheck`` of each written domain and certificate;
- ``estimate``: ``squeeze estimate`` on the README default config;
- ``oracle``: ``monomial_disc_oracle`` for m in 2, 8, 32, two chunks each.

Each run starts fresh child processes (``child.py``) with ``PYTHONPATH`` set
to the checkout's ``src``: several that only set up, to time set-up, and one
that measures for ``--seconds``.  Every op is checked by its gate and against
its own repeat.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
end-to-end times are scaled to a machine of nominal speed (``norm_`` names,
see ``reference.py``); the raw times are printed above the result line.  The
full record (machine, every op, reference samples, artifact hashes) goes to
``perfbench/out/``.

``--tiny`` shrinks every workload to a few quick ops, for the smoke test.
Exits 2 without a result when the checkout holds no squeeze sources or an
op list cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import speed_factor
from tracer import MODULES
from workloads import ORACLE_MS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics read from the traced run: (trace key, stats reported).
LAYER_KEYS = (
    ("estimate.defect", ("calls", "mean_us")),
    ("estimate.kobayashi_upper_search", ("ms",)),
    ("estimate.caratheodory_lower_search", ("ms",)),
    ("domain.eval_many", ("calls", "mean_us")),
    ("domain.exact_slopes", ("calls",)),
    ("domain.boundary_distance_lower", ("ms",)),
    ("smooth.boundary_distance_lower", ("ms",)),
    ("construct.build", ("ms", "calls")),
    ("construct.verify_construction", ("ms",)),
    ("metrics.shear_normalize", ("calls",)),
    ("metrics.kobayashi_lower_shear", ("calls",)),
    ("metrics.squeezing_upper_at_breakpoint", ("ms",)),
    ("smooth.smooth", ("ms",)),
    ("smooth.levi_verify", ("ms",)),
    ("smooth.certify_smoothed", ("ms",)),
    ("domain.domain_from_doc", ("ms",)),
    ("schema.validate_doc", ("calls", "ms")),
    ("cli.main", ("calls",)),
)
SHOWN_ARTIFACTS = ("certificate.json", "smoothed_certificate.json", "levi_report.json",
                   "estimates.json", "min_alpha")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------- machine
def machine_info() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform(), "threads_per_child": 1}


# --------------------------------------------------------------- children
def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(HERE / "out" / "tmp")
    # one numerical thread: the parent waits, so the run uses two threads at most
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_child(root: Path, args, workdir: Path, setup_only: bool,
                result: Path | None, deadline: float) -> tuple[float, str]:
    """Start a child, time it to its ``ready`` line, wait for its exit.

    Returns the set-up time and the child's remaining stdout."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--setup-only"] if setup_only else ["--result", str(result)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout=max(1.0, deadline - time.monotonic()))
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rest = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode} before a result")
    return setup_s, rest


# ---------------------------------------------------------------- metrics
def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_latencies(passes: list[dict], ok_only: bool = False) -> dict[str, float]:
    """Each op's latency in ms: the median of its repeats in ``passes``, the
    same statistic as the reference kernel's speed factor (on five seeds the
    fastest repeat over the median kernel time spread twice as much).  With
    ``ok_only``, ops that failed in any repeat are left out."""
    runs: dict[str, list] = {}
    for p in passes:
        for op in p["ops"]:
            runs.setdefault(op["label"], []).append(op)
    return {label: statistics.median(op["ms"] for op in ops)
            for label, ops in runs.items()
            if not ok_only or all(op["status"] == "ok" for op in ops)}


def latencies(result: dict) -> dict:
    """Raw times of the untraced passes: wall_s sums the op latencies over the
    op list; the latency percentiles run over the ops that succeeded."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    ok_ms = list(op_latencies(untraced, ok_only=True).values())
    if not ok_ms:
        raise BenchError("no op succeeded")
    return {
        "wall_s": (sum(op_latencies(untraced).values()) / 1e3, "s"),
        "op_p50_ms": (statistics.median(ok_ms), "ms"),
        "op_p90_ms": (quantile(ok_ms, 90), "ms"),
    }


def end_to_end(result: dict, setup: list[float], factor: float) -> dict:
    """The ``norm_`` times are the raw times over the run's speed factor
    (``reference.py``); set-up time is raw, the median of the samples."""
    ops = [op for p in result["passes"] for op in p["ops"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        **{f"norm_{name}": (value / factor, unit)
           for name, (value, unit) in latencies(result).items()},
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_ok_ratio": (sum(op["status"] == "ok" for op in ops) / len(ops), "ratio"),
    }


def per_layer(result: dict, spans_file: Path) -> dict:
    """Per-pass figures of the traced passes; a layer the workload does not
    touch reads 0."""
    trace = result["trace"]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    n = len(traced)
    keys = trace["keys"]
    out = {}
    for key, stats in LAYER_KEYS:
        st = keys.get(key, {"calls": 0, "total_s": 0.0})
        for stat in stats:
            if stat == "calls":
                out[f"{key}.calls"] = (st["calls"] / n, "count")
            elif stat == "ms":
                out[f"{key}.ms"] = (st["total_s"] * 1e3 / n, "ms")
            else:
                mean = st["total_s"] * 1e6 / st["calls"] if st["calls"] else 0.0
                out[f"{key}.mean_us"] = (mean, "us")
    for mod in MODULES:
        out[f"{mod}.self_s"] = (trace["modules"][mod]["self_s"] / n, "s")
        out[f"{mod}.errors"] = (trace["modules"][mod]["errors"] / n, "count")

    by_m = {m: 0.0 for m in ORACLE_MS}
    with spans_file.open() as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "estimate.monomial_disc_oracle":
                by_m[int(span["op"].rsplit(":m", 1)[1])] += span["end"] - span["start"]
    for m in ORACLE_MS:
        out[f"estimate.monomial_disc_oracle.m{m}.s"] = (by_m[m] / n, "s")
    oracle_s = sum(by_m.values())
    out["estimate.monomial_disc_oracle.discs_per_s"] = (
        result["discs_per_pass"] * n / oracle_s if oracle_s else 0.0, "1/s")

    out["cli.bytes_written"] = (
        sum(op["bytes_written"] for p in traced for op in p["ops"]) / n, "bytes")
    out["trace.overhead_ratio"] = (
        sum(op_latencies(traced).values()) / sum(op_latencies(untraced).values()), "ratio")
    return out


# ------------------------------------------------------------------- main
def check_checkout(root: Path) -> None:
    for rel in ("src/squeeze/__init__.py", "src/squeeze/cli.py", "src/squeeze/schemas"):
        if not (root / rel).exists():
            raise BenchError(f"{rel} is missing: run from the root of a squeeze checkout")


def print_ops(result: dict) -> None:
    """Artifact hashes of each op's first run, and each op that failed."""
    runs: dict[str, list] = {}
    for p in result["passes"]:
        for op in p["ops"]:
            runs.setdefault(op["label"], []).append(op)
    for label, ops in runs.items():
        shown = sorted((k, v) for k, v in ops[0]["digests"].items() if k in SHOWN_ARTIFACTS)
        if shown:
            print(f"op {label}: " + " ".join(f"{k}={v}" for k, v in shown))
        bad = [op for op in ops if op["status"] != "ok"]
        if bad:
            print(f"op {label}: {bad[0]['status']} in {len(bad)} of {len(ops)} runs: "
                  + "; ".join(bad[0]["problems"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few quick ops (smoke test)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    try:
        check_checkout(root)
        out_dir = HERE / "out"
        workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
        machine = machine_info()
        machine["loadavg_start"] = os.getloadavg()
        result_path = out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        # set-up-only children before and after the measuring one, so the
        # set-up samples span the run rather than one burst of the machine
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        try:
            setup = [start_child(root, args, workdir, True, None, deadline)[0]
                     for _ in range(extra // 2)]
            setup_s, stdout = start_child(root, args, workdir, False, result_path, deadline)
            setup += [setup_s] + [start_child(root, args, workdir, True, None, deadline)[0]
                                  for _ in range(extra - extra // 2)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        sys.stderr.write(stdout)
        result = json.loads(result_path.read_text())
        machine["loadavg_end"] = os.getloadavg()
        machine.update(result.pop("versions"))
        if args.trace:
            metrics = per_layer(result, Path(result["spans_file"]))
        else:
            kernel = WORKLOADS[args.workload].reference_kernel
            factor = speed_factor(kernel, result["reference"])
            result.update(raw=latencies(result), speed_factor=factor)
            metrics = end_to_end(result, setup, factor)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ops = [op for p in result["passes"] for op in p["ops"]]
    failed = sum(op["status"] != "ok" for op in ops)
    correct = not any(op["status"] == "wrong" for op in ops)
    result.update(machine=machine, setup_s=setup, metrics=metrics)
    result_path.write_text(json.dumps(result, indent=1))
    print("machine: " + json.dumps(machine))
    print_ops(result)
    print(f"passes: {len(result['passes'])}, ops attempted: {len(ops)}, failed: {failed}")
    if not args.trace:
        print(f"speed factor: {factor:.4f} from {len(result['reference'])} samples of "
              f"the {kernel} reference kernel")
        for name, (value, unit) in result["raw"].items():
            print(f"raw {name}: {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
