"""The names of squeeze that the benchmark in ``perfbench/`` reaches.

The benchmark's files stay fixed while the library changes, and
``perfbench/test_smoke.py`` is not part of this suite: deleting or renaming
one of these names would break the benchmark with every test here passing,
so they are pinned here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

# attributes looked up by perfbench/workloads.py, child.py and test_smoke.py
REACHED = [
    ("squeeze.cli", "main"),
    ("squeeze.cli", "build"),
    ("squeeze.cli", "_COMMANDS"),
    ("squeeze.construct", "build"),
    ("squeeze.construct", "kobayashi_lower_shear"),
    ("squeeze.construct", "verify_construction"),
    ("squeeze.domain", "PointC2"),
    ("squeeze.domain", "RadialProfile"),
    ("squeeze.domain", "annulus_model_domain"),
    ("squeeze.domain", "boundary_distance_lower"),
    ("squeeze.domain", "domain_from_doc"),
    ("squeeze.smooth", "kobayashi_lower_shear"),
    ("squeeze.estimate", "monomial_disc_oracle"),
    ("squeeze.errors", "SqueezeError"),
]

# "<module>.<function or method>" trace keys whose per-layer figures the
# benchmark reports (perfbench/run.py LAYER_KEYS)
LAYER_KEYS = [
    "estimate.defect", "estimate.kobayashi_upper_search",
    "estimate.caratheodory_lower_search", "domain.eval_many", "domain.exact_slopes",
    "domain.boundary_distance_lower", "smooth.boundary_distance_lower",
    "construct.build", "construct.verify_construction", "metrics.shear_normalize",
    "metrics.kobayashi_lower_shear", "metrics.squeezing_upper_at_breakpoint",
    "smooth.smooth", "smooth.levi_verify", "smooth.certify_smoothed",
    "domain.domain_from_doc", "schema.validate_doc", "cli.main",
]

# schema files the benchmark validates run directories against
SCHEMA_FILES = ["domain-1.json", "construction-certificate-1.json",
                "levi-report-1.json", "estimates-1.json"]


@pytest.mark.parametrize("module, name", REACHED)
def test_reached_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_reached_bindings_and_signatures():
    cli = importlib.import_module("squeeze.cli")
    construct = importlib.import_module("squeeze.construct")
    smooth = importlib.import_module("squeeze.smooth")
    estimate = importlib.import_module("squeeze.estimate")
    domain = importlib.import_module("squeeze.domain")
    assert cli.build is construct.build
    assert smooth.kobayashi_lower_shear is construct.kobayashi_lower_shear
    assert {"build", "certify-smoothed", "estimate", "plot-data"} <= set(cli._COMMANDS)
    assert inspect.isfunction(domain.RadialProfile.eval_many)
    oracle = inspect.signature(estimate.monomial_disc_oracle).parameters
    assert {"m", "count", "degree", "seed"} <= set(oracle)
    assert "resolution" in inspect.signature(domain.boundary_distance_lower).parameters
    inspect.signature(domain.domain_from_doc).bind({})  # domain_from_doc(doc)


def _defines(module, name) -> bool:
    """``name`` is a function of ``module`` or a method of a class defined there."""
    if inspect.isfunction(getattr(module, name, None)):
        return True
    return any(inspect.isfunction(vars(cls).get(name))
               for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__)


@pytest.mark.parametrize("key", LAYER_KEYS)
def test_layer_key_is_defined(key):
    module, name = key.split(".")
    assert _defines(importlib.import_module(f"squeeze.{module}"), name)


def test_schema_files_and_domain_format():
    import squeeze
    from squeeze.domain import annulus_model_domain, domain_to_doc

    schemas = Path(squeeze.__file__).parent / "schemas"
    for name in SCHEMA_FILES:
        json.loads((schemas / name).read_text())
    assert domain_to_doc(annulus_model_domain(0.5, 2.0, 1))["version"] == 1
