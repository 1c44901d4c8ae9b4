"""One workload in one fresh process; started by ``run.py``, not by hand.

The child imports numpy, jsonschema and squeeze, runs one untimed warm-up
op, and prints ``ready``: the parent times set-up from process start to that
line.  A ``--setup-only`` child exits there.  Otherwise it runs passes over
the workload's op list for ``--seconds`` (at least two passes, so every op
is repeated and compared byte for byte with its first run), samples the
reference kernel (``reference.py``) between ops, writes its result as JSON
to ``--result`` and exits.

With ``--trace 1`` the time is split: untraced passes first, then traced
passes with ``tracer.Tracer`` installed, so the run gives both the per-layer
numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import itertools
import json
import math
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy

from reference import Reference
from tracer import Tracer
from workloads import WORKLOADS, Schemas

# Seconds of the run between samples of the reference kernel (0.05-0.15 s each).
REFERENCE_EVERY_S = 2.0


class Runner:
    """Runs passes over a workload's op list and checks every op against its
    first run in this process."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.first_digests: dict[str, dict] = {}
        self.passes: list[dict] = []

    def run(self, budget: float, min_passes: int, traced: bool = False, on_op=None) -> None:
        """Passes until one as fast as the fastest so far would overrun
        ``budget`` seconds.  (Predicting from the slowest pass would give a
        run that hit a slow spell of the machine fewer repeats.)"""
        start = time.perf_counter()
        fastest = math.inf
        for done in itertools.count(1):
            pass_dir = self.workdir / f"pass{len(self.passes)}"
            t0 = time.perf_counter()
            outcomes = self.workload.run_pass(pass_dir, on_op)
            fastest = min(fastest, time.perf_counter() - t0)
            shutil.rmtree(pass_dir, ignore_errors=True)
            for out in outcomes:
                self._check_repeat(out)
            self.passes.append({"traced": traced, "ops": [asdict(o) for o in outcomes]})
            if done >= min_passes and time.perf_counter() - start + fastest > budget:
                return

    def _check_repeat(self, out) -> None:
        ref = self.first_digests.setdefault(out.label, out.digests)
        if out.digests != ref and out.status != "error":
            changed = sorted(k for k in ref.keys() | out.digests.keys()
                             if ref.get(k) != out.digests.get(k))
            out.status = "wrong"
            out.problems.append(f"differs from its first run in this process: {changed}")


def blas_info() -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return {}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    args = ap.parse_args()

    root = Path(args.root)
    import squeeze
    if Path(squeeze.__file__).resolve().parent != (root / "src" / "squeeze").resolve():
        print(f"squeeze imported from {squeeze.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    schemas = Schemas(root / "src" / "squeeze" / "schemas")
    workload = WORKLOADS[args.workload](args.seed, workdir, schemas, tiny=args.tiny)
    workload.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload, workdir)
    result = {"workload": args.workload}
    if args.trace:
        runner.run(args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            runner.run(args.seconds / 2, 1, traced=True,
                       on_op=functools.partial(setattr, tracer, "op_label"))
        finally:
            tracer.uninstall()
        result["trace"] = {
            "keys": {k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                         "errors": s.errors} for k, s in tracer.stats.items()},
            "modules": tracer.module_totals(),
        }
        spans_path = workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for key, start, end, parent, label in tracer.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent, "op": label}) + "\n")
        result["spans_file"] = str(spans_path)
    else:
        reference = Reference(workload.reference_kernel, REFERENCE_EVERY_S)
        reference.sample_if_due()
        runner.run(args.seconds, 2, on_op=lambda _label: reference.sample_if_due())
        result["reference"] = reference.samples
    result["passes"] = runner.passes
    result["discs_per_pass"] = getattr(workload, "discs_per_pass", 0)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"numpy": numpy.__version__,
                          "jsonschema": importlib.metadata.version("jsonschema"),
                          "blas": blas_info()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
