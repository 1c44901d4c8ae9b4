"""Command-line pipeline: build | certify-smoothed | estimate | plot-data | all.

A run directory is a pure function of the configuration: all randomness is
seeded from the config, floats are serialized as decimal strings or via
their shortest round-trip repr, and JSON keys are sorted, so two runs with
the same config produce byte-identical directories.

Exit codes: 0 success, 2 config/validation error, 3 certification failure,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import estimate as est
from .construct import (
    ConstructionCertificate,
    ConstructionParams,
    MarginSchedule,
    HarmonicSchedule,
    LevelRecord,
    build,  # re-exported: squeeze.cli.build is construct.build
    certify_center,
    certify_levels,
)
from .domain import PointC2, ReinhardtDomain, domain_to_doc, fmt
from .errors import CertificationError, NumericalError, SqueezeError, ValidationError
from .schema import validate_doc
from .metrics import (
    Direction,
    bound_to_record,
    caratheodory_upper_slices,
    shear_normalize,
    squeezing_lower_inclusion,
)
from .smooth import SmoothDomain, _check_smoothing, certify_smoothed, levi_verify, smooth

log = logging.getLogger("squeeze")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_NUMERICAL = 4


@dataclass(frozen=True)
class RunConfig:
    """Reproducible run configuration; round-trips through JSON bit-exactly.

    Exact rationals (``a``, ``margin_u``) are stored as strings.  The stages
    of a run are cached properties, so ``all`` computes each of them once.
    """

    a: str = "2"
    levels: int = 3
    sequence: list | None = None
    schedule: str = "harmonic"
    margin_u: str = "0.05"
    margin_guard: float = 0.01
    smooth_h: float | None = None
    smooth_eps: float = 1e-5
    smooth_kappa: float = 50.0
    distance_resolution: int = 2048
    levi_points: int = 10000
    levi_tolerance: float = 1e-7
    est_degree: int = 6
    est_budget: int = 150
    est_restarts: int = 4
    est_samples: int = 2048
    seed: int = 20240501
    out: str = "run"

    def __post_init__(self):
        # the construction and smoothing parameters and the seed are checked
        # with the config, before any command creates its run directory
        self.construction_params()
        _check_smoothing(self.smooth_h, self.smooth_eps, self.smooth_kappa)
        est._int_at_least("seed", self.seed, 0)

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def construction_params(self) -> ConstructionParams:
        if self.schedule == "harmonic":
            sched = HarmonicSchedule()
        elif self.schedule == "margin":
            sched = MarginSchedule(self.margin_u)
        else:
            raise ValidationError(f"unknown schedule {self.schedule!r}")
        return ConstructionParams(
            a=self.a,
            levels=self.levels,
            a_sequence=list(self.sequence) if self.sequence else None,
            schedule=sched,
            margin_guard=self.margin_guard,
            distance_resolution=self.distance_resolution,
        )

    @cached_property
    def staircase(self) -> tuple[ReinhardtDomain, tuple[LevelRecord, ...]]:
        """The staircase domain and its certified level rows."""
        return certify_levels(self.construction_params())

    @cached_property
    def certificate(self) -> ConstructionCertificate:
        """The level rows with the center bound and the violation verdict."""
        domain, levels = self.staircase
        return certify_center(domain, levels, self.construction_params())

    @cached_property
    def smoothed(self) -> SmoothDomain:
        """The mollified, capped inner approximation of the staircase."""
        return smooth(self.staircase[0], h=self.smooth_h, eps=self.smooth_eps,
                      kappa=self.smooth_kappa)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_floats(path: Path, header: tuple[str, ...], columns) -> None:
    """A csv table of float columns, written in one piece.

    Each column is turned into float64, as ``fmt``'s ``float(x)`` does, and
    the whole table is formatted in one ``%.17g`` pass, the routine behind
    ``fmt``'s ``format(x, ".17g")``, so every field is the text of ``fmt``.
    No field holds a comma or a quote, so none needs csv quoting, and lines
    end in ``\\n`` on every platform, as ``_write_csv``'s do.

    The values come from ``tolist()`` as one list per row, not as one flat
    list.  A list per row, as the per-value writer also held, keeps the
    cyclic collector running as often as before; with a flat list it ran a
    quarter as often, and what only its full collections free (free lists,
    garbage promoted to the oldest generation) raised the peak RSS of a
    long certify run by about 1.5 MB.
    """
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    values = tuple(itertools.chain.from_iterable(table.tolist()))
    path.write_text(",".join(header) + "\n" + (row * table.shape[0]) % values,
                    newline="")


class _RunDir:
    """Output directory with a lock file preventing concurrent runs."""

    def __init__(self, out: str):
        self.path = Path(out)
        self.lock = self.path / ".lock"

    def __enter__(self) -> Path:
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {self.path}: {exc}")
        try:
            self.lock.touch(exist_ok=False)
        except FileExistsError:
            raise ValidationError(
                f"output directory {self.path} is locked by another run"
            )
        return self.path

    def __exit__(self, *exc) -> None:
        self.lock.unlink(missing_ok=True)


def _write_profile(path: Path, domain: ReinhardtDomain, sd: SmoothDomain, ts) -> None:
    """The table ``t, phi, phi_tilde`` of the staircase and smoothed profiles
    at the points ``ts``, evaluated as one array."""
    ts = np.asarray(ts, dtype=float)
    _write_floats(path, ("t", "phi", "phi_tilde"),
                  (ts, domain.profile.eval_many(ts), sd.profile.value(ts)))


def cmd_build(config: RunConfig) -> int:
    with _RunDir(config.out) as out:
        domain, cert = config.staircase[0], config.certificate
        _write_json(out / "domain.json", validate_doc("domain", domain_to_doc(domain)))
        _write_json(out / "certificate.json",
                    validate_doc("construction-certificate", cert.to_doc()))
        _write_csv(out / "certificate.csv", cert.to_csv_rows())
        for rec in cert.levels:
            log.info("level %d: C=%s n=%d s_upper=%.6g target=%s",
                     rec.k, rec.c_k, rec.n_k, rec.s_upper.value, rec.target)
        return EXIT_OK  # certify_levels raises on a level that misses its target


def cmd_certify_smoothed(config: RunConfig) -> int:
    with _RunDir(config.out) as out:
        (domain, levels), sd = config.staircase, config.smoothed
        report = levi_verify(sd, grid_points=config.levi_points,
                             tolerance=config.levi_tolerance)
        smoothed = certify_smoothed(sd, levels, config.margin_guard,
                                    resolution=config.distance_resolution)
        _write_profile(out / "smooth_profile.csv", domain, sd,
                       np.linspace(domain.t_min, domain.t_max, 2001))
        _write_json(out / "levi_report.json",
                    validate_doc("levi-report", report.to_doc()))
        doc = smoothed.to_doc()
        doc["smoothing"] = {
            "h": fmt(sd.h),
            "eps": fmt(sd.eps),
            "kappa": fmt(sd.kappa),
        }
        _write_json(out / "smoothed_certificate.json",
                    validate_doc("construction-certificate", doc))
        log.info("levi min %.3g (tolerance %.3g); violation=%s margin=%s",
                 report.min_value, report.tolerance, smoothed.violation,
                 smoothed.margin)
        if not report.strictly_pseudoconvex_reported:
            return EXIT_CERTIFICATION
        if not smoothed.violation:
            return EXIT_CERTIFICATION
        if smoothed.margin is None or smoothed.margin < config.margin_guard:
            return EXIT_CERTIFICATION
        return EXIT_OK


def _timed(search):
    """A search's result and its wall time in ms."""
    t0 = time.perf_counter()
    result = search()
    return result, (time.perf_counter() - t0) * 1e3


_worker_searches: list = []  # in a pool worker: the run's searches, set through the fork


def _init_worker(searches: list) -> None:
    global _worker_searches
    _worker_searches = searches


def _search_in_worker(i: int):
    return _timed(_worker_searches[i])


def _run_searches(searches: dict) -> dict:
    """The results of the zero-argument calls ``searches``, a dict keyed by
    ``(label, quantity)`` pairs, under the same keys; the DEBUG line names
    each search's wall ms by its key.

    They run on the CPUs ``est._parallel_cpus`` gives them, in process, one
    after another, where that is one CPU or the platform cannot fork.
    Otherwise they run on a pool of one worker per CPU started with
    ``fork``: each worker inherits the searches, closures over the run's
    domain and its cached tables, and the OpenBLAS hold through the fork
    (the initializer's arguments are not pickled), gets only indices and
    sends back pickled results.  The searches share no mutable state and
    each draws from its own seeded generator, so the results are those of
    the in-process run bit for bit.  The pool is shut down, its workers
    joined, before this returns or raises; an error raised in a worker is
    raised here."""
    import multiprocessing

    calls = list(searches.values())
    jobs = len(calls) if "fork" in multiprocessing.get_all_start_methods() else 1
    with est._parallel_cpus(jobs) as workers:
        if workers == 1:
            timed = [_timed(search) for search in calls]
        else:
            from concurrent.futures import ProcessPoolExecutor

            # numpy loads numpy.random on first use; every search draws from
            # it, so it is loaded here once rather than in each worker
            import numpy.random  # noqa: F401

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_init_worker, initargs=(calls,))
            try:
                timed = list(pool.map(_search_in_worker, range(len(calls))))
            finally:
                pool.shutdown(cancel_futures=True)
    log.debug("estimate: %d searches on %d worker(s); wall ms per search: %s", len(calls), workers,
              ", ".join(f"{label} {quantity} {ms:.1f}"
                        for (label, quantity), (_, ms) in zip(searches, timed)))
    return {key: result for key, (result, _) in zip(searches, timed)}


def _estimate_payload(config: RunConfig):
    domain, levels = config.staircase
    p1, zero = PointC2(1.0 + 0.0j, 0.0 + 0.0j), PointC2(0.0 + 0.0j, 0.0 + 0.0j)
    xi1 = Direction(1.0 + 0.0j, 1.0 + 0.0j)
    # the calibration models: name, model, direction at the origin
    cases = [("bidisc", est.PolydiscModel(), xi1), ("ball", est.BallModel(), xi1),
             ("disc", est.PolydiscModel(), Direction(1.0 + 0.0j, 0.0 + 0.0j))]
    # each search's function and options, by the quantity it estimates
    kinds = {"kobayashi": (est.kobayashi_upper_search,
                           dict(degree=config.est_degree, budget=config.est_budget,
                                samples=config.est_samples, restarts=config.est_restarts)),
             "caratheodory": (est.caratheodory_lower_search, dict(budget=config.est_budget))}
    searches = {}  # every search of the run, keyed by the entry it fills

    def add(label, quantities, target, p, xi, seed):
        for quantity in quantities:
            search, options = kinds[quantity]
            searches[label, quantity] = functools.partial(
                search, target, p, xi, seed=seed, **options)

    for rec in levels:
        t_k = math.log(rec.a_k)
        beta = math.exp(domain.profile.eval(t_k))
        if beta > 0.0:
            p = PointC2(complex(rec.a_k, 0.0), 0.0 + 0.0j)
            # direction of the certified bound, pulled back through the shear
            xi = Direction(complex(rec.a_k, 0.0), complex(beta, 0.0))
            add(f"(a_{rec.k},0)", kinds, domain, p, xi, config.seed + rec.k)
        else:
            # profile so deep that exp(phi(t_k)) underflows: the pulled-back
            # direction is not representable, so no estimate is paired
            log.warning("level %d: face height underflows; skipping estimates",
                        rec.k)
    add("(1,0)", ["caratheodory"], domain, p1, xi1, config.seed)
    for name, model, xi in cases:
        add(name, kinds, model, zero, xi, config.seed)
    results = _run_searches(searches)

    points = []
    verdicts = []
    trace_rows = [["point", "quantity", "restart", "objective", "feasibility_margin"]]

    def paired(label, quantity, certified):
        """The entry pairing the estimate of the search ``(label,
        quantity)`` with its certified bound: a Kobayashi estimate must not
        fall below it nor a Carathéodory one rise above it, up to 1e-9
        relative.  Adds the search's trace rows."""
        bound, _candidate, trace = results[label, quantity]
        if quantity == "kobayashi":
            ok = bound.value >= certified * (1.0 - 1e-9)
            keys = "certified_lower", "estimate_upper"
        else:
            ok = bound.value <= certified * (1.0 + 1e-9)
            keys = "certified_upper", "estimate_lower"
        verdicts.append(ok)
        for ridx, objv, marg in trace:
            trace_rows.append([label, quantity, str(ridx), fmt(objv), fmt(marg)])
        return {keys[0]: fmt(certified), keys[1]: bound_to_record(bound), "sandwich_ok": ok}

    for rec in levels:
        label = f"(a_{rec.k},0)"
        entry = {"point": f"(a_{rec.k}, 0)"}
        if (label, "kobayashi") in results:
            entry["kobayashi"] = paired(label, "kobayashi", math.sqrt(rec.m_k / 2.0))
            entry["caratheodory"] = paired(label, "caratheodory", float(rec.c_k))
        else:
            entry["skipped"] = "face height underflows double precision"
        points.append(entry)

    c_up = caratheodory_upper_slices(domain, p1, xi1)
    points.append({"point": "(1, 0)",
                   "caratheodory": paired("(1,0)", "caratheodory", c_up.value)})
    sandwich_ok = all(verdicts)

    calibration = []
    for name, _model, xi in cases:
        k_ref, c_ref = est.reference_metric("bidisc" if name == "disc" else name, zero, xi)
        k_est = results[name, "kobayashi"][0].value
        c_est = results[name, "caratheodory"][0].value
        calibration.append({
            "model": name,
            "reference": fmt(k_ref),
            "kobayashi_estimate": fmt(k_est),
            "caratheodory_estimate": fmt(c_est),
            "kobayashi_within_5pct": abs(k_est - k_ref) <= 0.05 * k_ref,
            "caratheodory_within_5pct": abs(c_est - c_ref) <= 0.05 * c_ref,
        })

    doc = {
        "schema": "estimates/1",
        "certified": False,
        "points": points,
        "calibration": calibration,
        "sandwich_ok": sandwich_ok,
        "seed": config.seed,
    }
    return doc, trace_rows, sandwich_ok


def cmd_estimate(config: RunConfig) -> int:
    with _RunDir(config.out) as out:
        doc, trace_rows, sandwich_ok = _estimate_payload(config)
        _write_json(out / "estimates.json", validate_doc("estimates", doc))
        _write_csv(out / "estimate_traces.csv", trace_rows)
        return EXIT_OK if sandwich_ok else EXIT_CERTIFICATION


def cmd_plotdata(config: RunConfig) -> int:
    with _RunDir(config.out) as out:
        (domain, levels), sd = config.staircase, config.smoothed
        # profile rows: the level breakpoints plus the center (2K + 1 rows)
        ts = sorted({math.log(rec.a_k) for rec in levels}
                    | {-math.log(rec.a_k) for rec in levels} | {0.0})
        _write_profile(out / "profile.csv", domain, sd, ts)

        for rec in levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            image = shear_normalize(domain, idx)[0].profile
            _write_floats(out / f"sheared_profile_level{rec.k}.csv",
                          ("s", "phi_sheared"), (image.breakpoints, image.values))

        rows = [["t", "kind", "value"]]
        for rec in levels:
            for sign in (1.0, -1.0):
                rows.append([fmt(sign * math.log(rec.a_k)),
                             "s_upper", fmt(rec.s_upper.value)])
        for t in np.linspace(domain.t_min * 0.8, domain.t_max * 0.8, 17):
            p = PointC2(complex(math.exp(t), 0.0), 0.0 + 0.0j)
            try:
                b = squeezing_lower_inclusion(domain, p, config.distance_resolution)
                value = b.value
            except CertificationError:
                # domain razor-thin here: 0 is the (trivially valid) lower bound
                value = 0.0
            rows.append([fmt(t), "s_lower", fmt(value)])
        _write_csv(out / "bound_curve.csv", rows)
        return EXIT_OK


def cmd_all(config: RunConfig) -> int:
    for fn in (cmd_build, cmd_certify_smoothed, cmd_estimate, cmd_plotdata):
        code = fn(config)
        if code != EXIT_OK:
            return code
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "certify-smoothed": cmd_certify_smoothed,
    "estimate": cmd_estimate,
    "plot-data": cmd_plotdata,
    "all": cmd_all,
}


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides applied, validated
    as a whole against the run-config schema."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise ValidationError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise ValidationError(f"config {args.config} is not a JSON object")
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.levels is not None:
        overrides["levels"] = args.levels
    if args.margin is not None:
        overrides["schedule"] = "margin"
        overrides["margin_u"] = args.margin
    if args.grid is not None:
        overrides["distance_resolution"] = args.grid
    return RunConfig.from_doc(validate_doc("run-config", {**doc, **overrides}))


def configure_logging() -> None:
    """Log to stderr at the level named by ``SQUEEZE_LOG`` (default WARNING)."""
    level = os.environ.get("SQUEEZE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="squeeze",
        description=(
            "Build staircase Reinhardt domains, certify squeezing-function "
            "bounds, smooth and re-certify, estimate, and export plot data."
        ),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--levels", type=int, default=None)
    parser.add_argument("--margin", default=None,
                        help="margin schedule target u (switches the schedule)")
    parser.add_argument("--grid", type=int, default=None,
                        help="certified distance grid resolution")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    configure_logging()
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](config)
    except ValidationError as exc:
        log.error("validation: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        log.error("certification: %s", exc)
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (NumericalError, SqueezeError, ArithmeticError) as exc:
        log.error("numerical: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
