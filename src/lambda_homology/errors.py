"""Exception types shared across the package, and the strict readers of
integers and lists in JSON specs that raise them."""

from __future__ import annotations


class LambdaHomologyError(Exception):
    """Base error carrying a JSON-friendly payload for CLI reporting."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": self.message,
            "details": self.details,
        }


class ValidationError(LambdaHomologyError):
    """Input data violates a required axiom or format (CLI exit code 1)."""


class ResourceCapError(LambdaHomologyError):
    """A configured resource cap was exceeded (CLI exit code 2)."""


class InternalCheckError(LambdaHomologyError):
    """An invariant that should be unbreakable failed; indicates a bug."""


def spec_ints(value, what: str, arity: int = 0):
    """Integers read from a JSON spec, strictly.

    With ``arity`` 0 the value must be one JSON integer, which is returned.
    Otherwise it must be a list of ``arity`` items whose items but the last
    (a scalar literal) are JSON integers; it is returned as a tuple.  Bools,
    floats and strings are not integers here.  Anything else raises a
    ``ValidationError`` naming ``what`` and the value.
    """
    if arity == 0:
        if type(value) is not int:
            raise ValidationError(f"{what} must be an integer", entry=value)
        return value
    if not isinstance(value, list) or len(value) != arity:
        raise ValidationError(
            f"{what} entry must be a list of {arity} items", entry=value
        )
    if any(type(v) is not int for v in value[:-1]):
        raise ValidationError(
            f"{what} entry must start with {arity - 1} integers", entry=value
        )
    return tuple(value)


def spec_of(value, what: str, kind: type = list):
    """A JSON array (``kind`` list) or object (``kind`` dict) read from a
    spec; anything else raises a ``ValidationError`` naming ``what``."""
    if not isinstance(value, kind):
        name = "a list" if kind is list else "a JSON object"
        raise ValidationError(f"{what} must be {name}", entry=value)
    return value
