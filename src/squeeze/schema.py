"""Versioned JSON schemas for every emitted document."""

import json
from functools import lru_cache
from importlib import resources

import jsonschema

from .errors import ValidationError

_KINDS = {
    "domain": "domain-1.json",
    "construction-certificate": "construction-certificate-1.json",
    "levi-report": "levi-report-1.json",
    "estimates": "estimates-1.json",
    "run-config": "run-config-1.json",
}


@lru_cache(maxsize=None)
def load_schema(kind: str) -> dict:
    try:
        name = _KINDS[kind]
    except KeyError:
        raise ValidationError(f"no schema for document kind {kind!r}")
    with resources.files("squeeze.schemas").joinpath(name).open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _validator(kind: str):
    """The schema's validator, built (and the schema checked against its
    metaschema) once per kind, on first use."""
    schema = load_schema(kind)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_doc(kind: str, doc: dict) -> dict:
    """Validate and return ``doc``; raises ValidationError with the schema path."""
    # the error jsonschema.validate would raise, without its per-call
    # metaschema check
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(doc))
    if error is not None:
        raise ValidationError(f"{kind} document fails its schema: {error.message}")
    return doc
