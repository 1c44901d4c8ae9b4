"""Smoke test of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload once at a tiny size through ``perfbench/run.py``,
checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, and checks that each correctness gate trips on an injected bad result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from child import Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "oracle", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------- gates trip
@pytest.fixture(scope="module")
def schemas():
    return wl.Schemas(ROOT / "src" / "squeeze" / "schemas")


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """A real build and certify-smoothed run directory of the headline config."""
    import squeeze.cli as cli

    cfg = wl.CertifyConfig("margin", "0.05", 2, 2048, 10000, 1)
    base = tmp_path_factory.mktemp("headline")
    (base / "cfg.json").write_text(json.dumps(cfg.to_doc()))
    codes = {cmd: cli.main([cmd, "--config", str(base / "cfg.json"), "--out", str(base / cmd)])
             for cmd in ("build", "certify-smoothed")}
    return cfg, base, codes


def test_oracle_gate_trips_below_bound():
    assert wl.gate_oracle(8, 2.0 - 1e-10) == []
    assert wl.gate_oracle(8, 2.0 - 1e-6) != []


def test_certify_gates_pass_on_real_output(headline, schemas):
    cfg, base, codes = headline
    assert codes == {"build": 0, "certify-smoothed": 0}
    assert wl.gate_build(cfg, 0, base / "build", schemas) == []
    assert wl.gate_certify_smoothed(cfg, 0, base / "certify-smoothed", schemas) == []


def test_certify_gate_trips_on_verdict_exit_mismatch(headline, schemas):
    cfg, base, _codes = headline
    assert wl.gate_certify_smoothed(cfg, 3, base / "certify-smoothed", schemas) != []
    assert wl.gate_build(cfg, 3, base / "build", schemas) != []


def test_certify_gate_trips_on_wrong_schedule(headline, schemas, tmp_path):
    cfg, base, _codes = headline
    shutil.copytree(base / "build", tmp_path / "build")
    path = tmp_path / "build" / "certificate.json"
    cert = json.loads(path.read_text())
    cert["levels"][1]["n_k"] += 1
    path.write_text(json.dumps(cert))
    problems = wl.gate_build(cfg, 0, tmp_path / "build", schemas)
    assert any("level 2" in p for p in problems)


def test_certify_gate_trips_on_schema(headline, schemas, tmp_path):
    cfg, base, _codes = headline
    shutil.copytree(base / "certify-smoothed", tmp_path / "cs")
    path = tmp_path / "cs" / "levi_report.json"
    levi = json.loads(path.read_text())
    del levi["min_value"]
    path.write_text(json.dumps(levi))
    assert wl.gate_certify_smoothed(cfg, 0, tmp_path / "cs", schemas) != []


def test_no_answer_is_an_error_not_a_wrong_result(tmp_path, schemas):
    cfg = wl.CertifyConfig("harmonic", None, 4, 2048, 10000, 1)
    assert wl.gate_certify_smoothed(cfg, 2, tmp_path, schemas) is None
    assert wl.classify(2, None)[0] == "error"


def test_estimate_gate_trips_on_calibration(schemas):
    doc = {"calibration": [{"model": m, "kobayashi_within_5pct": True,
                            "caratheodory_within_5pct": m != "ball"}
                           for m in ("bidisc", "ball", "disc")]}
    assert any("ball" in p for p in wl.gate_estimate(0, doc, schemas))


def test_repeat_that_differs_is_wrong(tmp_path):
    runner = Runner(workload=None, workdir=tmp_path)
    first = wl.Outcome("op", 1.0, "ok", digests={"certificate.json": "aa"})
    again = wl.Outcome("op", 1.0, "ok", digests={"certificate.json": "bb"})
    runner._check_repeat(first)
    runner._check_repeat(again)
    assert first.status == "ok" and again.status == "wrong"


def _bindings():
    """id of every function binding the tracer may patch."""
    import importlib

    from tracer import MODULES

    spaces = [importlib.import_module(n) for n in ["squeeze"] + [f"squeeze.{m}" for m in MODULES]]
    out = {}
    for ns in spaces:
        for name, obj in vars(ns).items():
            out[(ns.__name__, name)] = id(obj)
            if isinstance(obj, dict):
                out.update({(ns.__name__, name, k): id(v) for k, v in obj.items()})
            if isinstance(obj, type):
                out.update({(ns.__name__, name, k): id(v) for k, v in vars(obj).items()})
    return out


def test_tracer_patches_every_binding_and_restores():
    import importlib

    import squeeze.cli as cli
    import squeeze.construct as construct
    import squeeze.domain as domain
    from tracer import Tracer

    smooth = importlib.import_module("squeeze.smooth")  # the package attribute is a function

    before = _bindings()
    build, command = construct.build, cli._COMMANDS["build"]
    shear = construct.kobayashi_lower_shear
    tracer = Tracer()
    tracer.install()
    try:
        # the defining module, a `from .x import name` copy, the CLI's command
        # table and class methods are all wrapped
        assert construct.build is not build and cli.build is construct.build
        assert smooth.kobayashi_lower_shear is construct.kobayashi_lower_shear is not shear
        assert cli._COMMANDS["build"] is not command
        assert domain.RadialProfile.eval_many.__wrapped__ is not None
        # the module-level wrapper delegates to the method of the same key:
        # one call is counted
        domain.boundary_distance_lower(domain.annulus_model_domain(0.8, 1.5, 2),
                                       domain.PointC2(1.0 + 0j, 0j), resolution=64)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert construct.build is build and cli._COMMANDS["build"] is command
    assert tracer.stats["domain.annulus_model_domain"].calls == 1
    assert tracer.stats["domain.boundary_distance_lower"].calls == 1
    assert tracer.module_totals()["domain"]["self_s"] > 0


def test_oracle_count_spans_two_chunks():
    assert [wl.oracle_count(m) for m in wl.ORACLE_MS] == [32768, 8192, 4096]


def test_speed_factor_is_measured_over_nominal():
    from reference import NOMINAL_S, Reference, speed_factor

    assert speed_factor("python", [NOMINAL_S["python"]] * 3) == pytest.approx(1.0)
    slow = 1.5 * NOMINAL_S["numpy"]
    assert speed_factor("numpy", [slow, slow, NOMINAL_S["numpy"]]) == pytest.approx(1.5)
    ref = Reference("numpy", every_s=60.0)
    ref.sample_if_due()
    ref.sample_if_due()  # not due again within the minute
    assert len(ref.samples) == 1 and ref.samples[0] > 0
