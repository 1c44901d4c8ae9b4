import jsonschema
import pytest

from squeeze import ValidationError
from squeeze.schema import _KINDS, load_schema, validate_doc

# [] fails every schema; the others fail on several keywords at once, so
# which error is reported depends on best_match
DOCS = ([], {}, {"version": 2, "unexpected": None}, {"version": "1"})


def _reference_message(kind: str, doc):
    """What jsonschema.validate (best_match over a fresh validator) reports."""
    try:
        jsonschema.validate(doc, load_schema(kind))
    except jsonschema.ValidationError as exc:
        return f"{kind} document fails its schema: {exc.message}"
    return None


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("doc", DOCS, ids=repr)
def test_messages_match_jsonschema_validate(kind, doc):
    expected = _reference_message(kind, doc)
    if expected is None:
        assert validate_doc(kind, doc) is doc
        return
    with pytest.raises(ValidationError) as exc:
        validate_doc(kind, doc)
    assert str(exc.value) == expected


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_invalid_doc_raises(kind):
    with pytest.raises(ValidationError, match=f"^{kind} document fails its schema: "):
        validate_doc(kind, [])


def test_unknown_kind_raises():
    with pytest.raises(ValidationError, match="no schema for document kind"):
        validate_doc("no-such-kind", {})
