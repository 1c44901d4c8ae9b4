"""The benchmark's workloads, their op lists and their correctness gates.

A workload turns the benchmark seed into a fixed list of ops.  Each op calls
into squeeze through a module attribute looked up at call time (so a traced
pass sees the tracer's wrappers), is timed alone, and is then checked by a
gate.  Gates are pure functions of what the op returned or wrote; each
returns a list of problems, empty when the op is correct.

An op ends in one of three ways:
- ok: the program answered and every gate passed;
- error: the program refused with exit 2 or 4 and wrote no answer (counted
  as failed, not as a wrong answer);
- wrong: the program answered and a gate failed, or a repeat of the op
  differed from its first run (counted as failed and makes the run incorrect).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jsonschema

EXIT_OK = 0
EXIT_CERTIFICATION = 3

# (distance cells, Levi points): the coarse grid and the fine grid
CERTIFY_GRIDS = ((2048, 10000), (16384, 40000))
CERTIFY_MARGINS = ("0.02", "0.05", "0.1")
CERTIFY_MARGIN_LEVELS = range(1, 7)
CERTIFY_HARMONIC_LEVELS = range(1, 5)

ORACLE_MS = (2, 8, 32)
ORACLE_DEGREE = 6

# README default estimate config (harmonic, 3 levels, degree 6, budget 150,
# 4 restarts, 2048 samples) is the CLI default; only the seed is set.
ESTIMATE_TINY = {"levels": 1, "est_budget": 20, "est_restarts": 1, "est_samples": 256}
ESTIMATE_WARMUP = {"levels": 1, "est_budget": 2, "est_restarts": 1, "est_samples": 256}


@dataclass
class Outcome:
    """What one run of one op produced."""

    label: str
    ms: float
    status: str  # "ok" | "error" | "wrong"
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


def artifacts(out: Path) -> tuple[dict[str, str], int]:
    """sha256 of each file an op wrote to ``out``, and their total size."""
    files = sorted(p for p in out.iterdir() if p.is_file()) if out.exists() else []
    return ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            sum(p.stat().st_size for p in files))


def classify(code: int, problems: list[str] | None) -> tuple[str, list[str]]:
    """Status and problems of an op; ``problems is None`` means no answer."""
    if problems is None:
        return "error", [f"exit {code} with no answer written"]
    return ("wrong" if problems else "ok"), problems


# ------------------------------------------------------------------ schemas
class Schemas:
    """Validators built from the schema files shipped in ``src/squeeze``."""

    FILES = {
        "domain": "domain-1.json",
        "construction-certificate": "construction-certificate-1.json",
        "levi-report": "levi-report-1.json",
        "estimates": "estimates-1.json",
    }

    def __init__(self, schema_dir: Path):
        self._validators = {}
        for kind, name in self.FILES.items():
            schema = json.loads((schema_dir / name).read_text())
            self._validators[kind] = jsonschema.validators.validator_for(schema)(schema)

    def problems(self, kind: str, doc) -> list[str]:
        return [f"{kind} schema: {err.message}"
                for err in self._validators[kind].iter_errors(doc)][:3]


# ------------------------------------------------------------------ certify
@dataclass(frozen=True)
class CertifyConfig:
    schedule: str
    margin_u: str | None
    levels: int
    cells: int
    levi_points: int
    seed: int

    @property
    def name(self) -> str:
        sched = f"u{self.margin_u}" if self.schedule == "margin" else "harmonic"
        return f"{sched}-L{self.levels}-g{self.cells}"

    def to_doc(self) -> dict:
        doc = {"schedule": self.schedule, "levels": self.levels,
               "distance_resolution": self.cells, "levi_points": self.levi_points,
               "seed": self.seed}
        if self.margin_u is not None:
            doc["margin_u"] = self.margin_u
        return doc


CERTIFY_WARMUP = CertifyConfig("margin", "0.05", 1, *CERTIFY_GRIDS[0], 0)


def certify_configs(seed: int, tiny: bool = False) -> list[CertifyConfig]:
    """The config grid in a seed-dependent order; the seed key is derived too."""
    rng = random.Random(f"certify:{seed}")
    specs = [("margin", u, lv) for u in CERTIFY_MARGINS for lv in CERTIFY_MARGIN_LEVELS]
    specs += [("harmonic", None, lv) for lv in CERTIFY_HARMONIC_LEVELS]
    grids = CERTIFY_GRIDS
    if tiny:
        specs, grids = [("margin", "0.05", 2), ("harmonic", None, 4)], grids[:1]
    configs = [CertifyConfig(s, u, lv, cells, pts, rng.randrange(2**31))
               for cells, pts in grids for s, u, lv in specs]
    rng.shuffle(configs)
    return configs


def certify_radii(levels: int) -> list[Fraction]:
    """[a_0, ..., a_{K+1}] of the default radius rule at a = 2."""
    a = Fraction(2)
    return [Fraction(1)] + [a - a / 2 ** (k + 1) for k in range(1, levels + 2)]


def independent_schedule(cfg: CertifyConfig) -> list[tuple[Fraction, int, int, Fraction]]:
    """(C_k, n_k, m_k, target) per level, recomputed from the rules alone.

    Radii ``a_k = a - a 2^-(k+1)`` with ``a = 2`` and ``a_0 = 1``;
    ``C_k = 1/min(1 - a_{k-1}/a_k, a_{k+1}/a_k - 1) + 1``; the exponent grows
    by ``floor(2 k^2 C_k^2) + 1`` (harmonic) or ``floor(2 (C_k/u)^2) + 1``
    (margin u).
    """
    radii = certify_radii(cfg.levels)
    out, n_prev = [], 0
    for k in range(1, cfg.levels + 1):
        gap = min(1 - radii[k - 1] / radii[k], radii[k + 1] / radii[k] - 1)
        c_k = 1 / gap + 1
        if cfg.schedule == "harmonic":
            target = Fraction(1, k)
            inc = math.floor(2 * k * k * c_k * c_k) + 1
        else:
            target = Fraction(cfg.margin_u)
            inc = math.floor(2 * (c_k / target) ** 2) + 1
        out.append((c_k, n_prev + inc, inc, target))
        n_prev += inc
    return out


def schedule_problems(cfg: CertifyConfig, cert: dict) -> list[str]:
    want = independent_schedule(cfg)
    if len(cert["levels"]) != len(want):
        return [f"certificate has {len(cert['levels'])} levels, want {len(want)}"]
    problems = []
    for row, (c_k, n_k, m_k, target) in zip(cert["levels"], want):
        got = (Fraction(row["C_k"]), row["n_k"], row["m_k"], Fraction(row["target"]))
        if got != (c_k, n_k, m_k, target):
            problems.append(f"level {row['k']}: (C_k, n_k, m_k, target) = {got}, "
                            f"want {(c_k, n_k, m_k, target)}")
    return problems


def gate_build(cfg: CertifyConfig, code: int, out: Path, schemas: Schemas) -> list[str] | None:
    cert_path = out / "certificate.json"
    if not cert_path.exists():
        return None
    cert = json.loads(cert_path.read_text())
    problems = schemas.problems("construction-certificate", cert)
    problems += schemas.problems("domain", json.loads((out / "domain.json").read_text()))
    if problems:
        return problems
    problems += schedule_problems(cfg, cert)
    want = EXIT_OK if all(row["target_met"] for row in cert["levels"]) else EXIT_CERTIFICATION
    if code != want:
        problems.append(f"build exit {code} disagrees with target_met (want {want})")
    return problems


def certify_smoothed_verdict(levi: dict, cert: dict) -> tuple[int, list[str]]:
    """The exit code the written Levi report and smoothed certificate imply."""
    problems = []
    levi_ok = float(levi["min_value"]) > float(levi["tolerance"])
    if levi["strictly_pseudoconvex_reported"] != levi_ok:
        problems.append("levi report flag disagrees with min_value > tolerance")
    margin = cert["margin"]
    margin_ok = margin is not None and float(margin) >= float(cert["margin_guard"])
    if cert["violation"] and cert["violation_level"] is None:
        problems.append("violation without a violation level")
    ok = levi_ok and cert["violation"] and margin_ok
    return (EXIT_OK if ok else EXIT_CERTIFICATION), problems


def gate_certify_smoothed(cfg: CertifyConfig, code: int, out: Path,
                          schemas: Schemas) -> list[str] | None:
    try:
        levi = json.loads((out / "levi_report.json").read_text())
        cert = json.loads((out / "smoothed_certificate.json").read_text())
    except FileNotFoundError:
        return None
    problems = schemas.problems("levi-report", levi)
    problems += schemas.problems("construction-certificate", cert)
    if problems:
        return problems
    if levi["grid_points"] < cfg.levi_points:
        problems.append(f"Levi grid {levi['grid_points']} < {cfg.levi_points}")
    if not cert["smoothed"]:
        problems.append("smoothed certificate not marked smoothed")
    problems += schedule_problems(cfg, cert)
    want, verdict_problems = certify_smoothed_verdict(levi, cert)
    problems += verdict_problems
    if code != want:
        problems.append(f"certify-smoothed exit {code} disagrees with the written "
                        f"verdict, margin and Levi minimum (want {want})")
    return problems


def gate_plot_data(cfg: CertifyConfig, code: int, out: Path) -> list[str] | None:
    if code != EXIT_OK:
        return None
    k = cfg.levels
    want = {"profile.csv": 2 * k + 2, "bound_curve.csv": 2 * k + 18}
    want.update({f"sheared_profile_level{j}.csv": 2 * k + 3 for j in range(1, k + 1)})
    problems = []
    for name, lines in want.items():
        path = out / name
        got = len(path.read_text().splitlines()) if path.exists() else None
        if got != lines:
            problems.append(f"{name}: {got} lines, want {lines}")
    return problems


class CertifyWorkload:
    """build, certify-smoothed, plot-data and recheck on each config."""

    name = "certify"
    reference_kernel = "python"

    def __init__(self, seed: int, workdir: Path, schemas: Schemas, tiny: bool = False):
        self.configs = certify_configs(seed, tiny)
        self.workdir = workdir
        self.schemas = schemas
        self.config_paths = {}
        for cfg in self.configs + [CERTIFY_WARMUP]:
            path = workdir / "configs" / f"{cfg.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg.to_doc()))
            self.config_paths[cfg] = path

    def warmup(self) -> None:
        self._run_config(CERTIFY_WARMUP, self.workdir / "warmup")

    def run_pass(self, pass_dir: Path, on_op=None) -> list[Outcome]:
        outcomes = []
        for cfg in self.configs:
            outcomes += self._run_config(cfg, pass_dir / cfg.name, on_op)
        return outcomes

    def _run_config(self, cfg, base: Path, on_op=None) -> list[Outcome]:
        import squeeze.cli as cli

        outcomes = []
        build_dir = base / "build"
        for cmd in ("build", "certify-smoothed", "plot-data"):
            out = base / cmd
            if on_op:
                on_op(f"{cmd}:{cfg.name}")
            t0 = time.perf_counter()
            code = cli.main([cmd, "--config", str(self.config_paths[cfg]), "--out", str(out)])
            ms = (time.perf_counter() - t0) * 1e3
            if cmd == "build":
                problems = gate_build(cfg, code, out, self.schemas)
            elif cmd == "certify-smoothed":
                problems = gate_certify_smoothed(cfg, code, out, self.schemas)
            else:
                problems = gate_plot_data(cfg, code, out)
            status, problems = classify(code, problems)
            outcomes.append(Outcome(f"{cmd}:{cfg.name}", ms, status, problems,
                                    *artifacts(out)))
        if on_op:
            on_op(f"recheck:{cfg.name}")
        outcomes.append(self._recheck(cfg, build_dir))
        return outcomes

    def _recheck(self, cfg: CertifyConfig, build_dir: Path) -> Outcome:
        """Reload domain.json and re-run verify_construction against the
        written certificate; a raise is a wrong answer."""
        import squeeze.construct as construct
        import squeeze.domain as domain
        from types import SimpleNamespace

        label = f"recheck:{cfg.name}"
        radii = certify_radii(cfg.levels)
        t0 = time.perf_counter()
        try:
            doc = json.loads((build_dir / "domain.json").read_text())
            cert = json.loads((build_dir / "certificate.json").read_text())
            dom = domain.domain_from_doc(doc)
            levels = tuple(SimpleNamespace(
                k=row["k"], a_k=float(row["a_k"]), m_k=row["m_k"],
                a_prev=float(radii[row["k"] - 1]), a_next=float(radii[row["k"] + 1]))
                for row in cert["levels"])
            construct.verify_construction(dom, SimpleNamespace(levels=levels))
        except FileNotFoundError:
            return Outcome(label, (time.perf_counter() - t0) * 1e3, "error",
                           ["build wrote no run directory to recheck"])
        except Exception as exc:  # any raise means the certificate does not recheck
            return Outcome(label, (time.perf_counter() - t0) * 1e3, "wrong",
                           [f"recheck raised {type(exc).__name__}: {exc}"])
        return Outcome(label, (time.perf_counter() - t0) * 1e3, "ok")


# ----------------------------------------------------------------- estimate
def gate_estimate(code: int, doc: dict | None, schemas: Schemas) -> list[str] | None:
    if doc is None:
        return None
    problems = schemas.problems("estimates", doc)
    if code != EXIT_OK:
        problems.append(f"estimate exit {code}, want 0")
    for row in doc.get("calibration", []):
        if not (row["kobayashi_within_5pct"] and row["caratheodory_within_5pct"]):
            problems.append(f"calibration {row['model']} outside 5%")
    if len(doc.get("calibration", [])) != 3:
        problems.append("calibration table does not have 3 rows")
    return problems


class EstimateWorkload:
    """``squeeze estimate`` on the README default config."""

    name = "estimate"
    reference_kernel = "python"

    def __init__(self, seed: int, workdir: Path, schemas: Schemas, tiny: bool = False):
        self.seed = random.Random(f"estimate:{seed}").randrange(2**31)
        self.label = f"estimate:seed{self.seed}"
        self.workdir = workdir
        self.schemas = schemas
        self.config_path = workdir / "configs" / "estimate.json"
        self.warmup_path = workdir / "configs" / "estimate-warmup.json"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(ESTIMATE_TINY if tiny else {}))
        self.warmup_path.write_text(json.dumps(ESTIMATE_WARMUP))

    def warmup(self) -> None:
        self._run(self.warmup_path, self.workdir / "warmup")

    def run_pass(self, pass_dir: Path, on_op=None) -> list[Outcome]:
        if on_op:
            on_op(self.label)
        return [self._run(self.config_path, pass_dir / "estimate")]

    def _run(self, config_path: Path, out: Path) -> Outcome:
        import squeeze.cli as cli

        t0 = time.perf_counter()
        code = cli.main(["estimate", "--config", str(config_path), "--out", str(out),
                         "--seed", str(self.seed)])
        ms = (time.perf_counter() - t0) * 1e3
        path = out / "estimates.json"
        doc = json.loads(path.read_text()) if path.exists() else None
        problems = gate_estimate(code, doc, self.schemas)
        status, problems = classify(code, problems)
        return Outcome(self.label, ms, status, problems, *artifacts(out))


# ------------------------------------------------------------------- oracle
def oracle_count(m: int, degree: int = ORACLE_DEGREE) -> int:
    """Two full chunks: the oracle's chunk is max(256, 2**21 // samples)."""
    d_eff = degree * (m + 1)
    samples = 128
    while samples < 5 * d_eff:
        samples *= 2
    return 2 * max(256, (1 << 21) // samples)


def gate_oracle(m: int, min_alpha: float) -> list[str]:
    bound = math.sqrt(m / 2.0)
    if not min_alpha >= bound - 1e-9:
        return [f"m={m}: min_alpha {min_alpha!r} below sqrt(m/2) = {bound!r}"]
    return []


class OracleWorkload:
    """``monomial_disc_oracle(m, degree=6)`` for m in 2, 8, 32."""

    name = "oracle"
    reference_kernel = "numpy"

    def __init__(self, seed: int, workdir: Path, schemas: Schemas, tiny: bool = False):
        self.seed = random.Random(f"oracle:{seed}").randrange(2**31)
        self.counts = {m: 512 if tiny else oracle_count(m) for m in ORACLE_MS}

    @property
    def discs_per_pass(self) -> int:
        return sum(self.counts.values())

    def warmup(self) -> None:
        import squeeze.estimate as est

        for m in ORACLE_MS:
            est.monomial_disc_oracle(m, count=256, degree=ORACLE_DEGREE, seed=self.seed)

    def run_pass(self, pass_dir: Path, on_op=None) -> list[Outcome]:
        import squeeze.estimate as est
        from squeeze.errors import SqueezeError

        outcomes = []
        for m in ORACLE_MS:
            label = f"oracle:m{m}"
            if on_op:
                on_op(label)
            t0 = time.perf_counter()
            try:
                res = est.monomial_disc_oracle(m, count=self.counts[m],
                                               degree=ORACLE_DEGREE, seed=self.seed)
            except SqueezeError as exc:
                outcomes.append(Outcome(label, (time.perf_counter() - t0) * 1e3,
                                        "error", [f"{type(exc).__name__}: {exc}"]))
                continue
            ms = (time.perf_counter() - t0) * 1e3
            problems = gate_oracle(m, res.min_alpha)
            if res.count != self.counts[m]:
                problems.append(f"m={m}: checked {res.count} discs, want {self.counts[m]}")
            outcomes.append(Outcome(label, ms, "wrong" if problems else "ok", problems,
                                    {"min_alpha": repr(res.min_alpha)}))
        return outcomes


WORKLOADS = {w.name: w for w in (CertifyWorkload, EstimateWorkload, OracleWorkload)}
