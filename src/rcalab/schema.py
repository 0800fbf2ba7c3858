"""The subset of JSON Schema (draft 2020-12) that the experiment-config
schema uses, checked in-package so that loading a config does not import a
general validator.

first_error(schema, instance) returns the JSON path and message of one
error, or None.  It interprets only the keywords that _errors names (the
annotations aside) and raises ValueError on any other, so that a schema
edit is never silently ignored.  Against draft 2020-12 it differs in one
way: json.load reads NaN and Infinity, which are not JSON, and "number" and
"integer" admit only finite values, so a non-finite value is refused
wherever a number is required.
"""

from __future__ import annotations

import math
import operator

__all__ = ["first_error"]

_ANNOTATIONS = frozenset({"$schema", "title", "$comment", "$defs"})
_REF_PREFIX = "#/$defs/"
_BOUNDS = {
    "minimum": (operator.ge, "less than the minimum of"),
    "maximum": (operator.le, "greater than the maximum of"),
    "exclusiveMinimum": (operator.gt, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.lt, "greater than or equal to the maximum of"),
}


def _is_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality: true != 1, 1 == 1.0, containers element by element."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if _is_number(a) and _is_number(b):
        return a == b
    return type(a) is type(b) and a == b


def _valid(schema, value, root) -> bool:
    return next(_errors(schema, value, (), root), None) is None


def _one_of(branches, value, path, root):
    found = [list(_errors(branch, value, path, root)) for branch in branches]
    valid = sum(not errors for errors in found)
    if valid > 1:
        yield path, f"{value!r} is valid under more than one of the given schemas"
    elif valid == 0:
        # the unique deepest branch error, else the oneOf's own
        errors = [error for errors in found for error in errors]
        depth = max(len(p) for p, _ in errors)
        deepest = [error for error in errors if len(error[0]) == depth]
        yield deepest[0] if len(deepest) == 1 else (
            path, f"{value!r} is not valid under any of the given schemas")


def _errors(schema, value, path, root):
    """(instance path, message) of each error of value, in schema order."""
    if not isinstance(schema, dict):
        raise ValueError(f"boolean and non-object schemas are not supported: {schema!r}")
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for key, sub in schema.items():
        if key in _ANNOTATIONS or key == "then":
            continue
        if key == "type":
            names = sub if isinstance(sub, list) else [sub]
            if not any(_TYPES[name](value) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif key == "enum":
            if not any(_equal(value, option) for option in sub):
                yield path, f"{value!r} is not one of {sub!r}"
        elif key == "const":
            if not _equal(value, sub):
                yield path, f"{sub!r} was expected"
        elif key in _BOUNDS:
            holds, phrase = _BOUNDS[key]
            if _is_number(value) and not holds(value, sub):
                yield path, f"{value!r} is {phrase} {sub!r}"
        elif key == "required":
            if is_object:
                yield from ((path, f"{name!r} is a required property") for name in sub if name not in value)
        elif key == "properties":
            if is_object:
                for name, subschema in sub.items():
                    if name in value:
                        yield from _errors(subschema, value[name], path + (name,), root)
        elif key == "items":
            if is_array:
                for i, item in enumerate(value):
                    yield from _errors(sub, item, path + (i,), root)
        elif key == "minItems":
            if is_array and len(value) < sub:
                yield path, f"{value!r} is too short (minItems {sub})"
        elif key == "contains":
            if is_array and not any(_valid(sub, item, root) for item in value):
                yield path, f"{value!r} has no item matching {sub!r}"
        elif key == "allOf":
            for subschema in sub:
                yield from _errors(subschema, value, path, root)
        elif key == "oneOf":
            yield from _one_of(sub, value, path, root)
        elif key == "not":
            if _valid(sub, value, root):
                yield path, f"{value!r} should not be valid under {sub!r}"
        elif key == "if":
            # if emits no errors of its own; then applies only when it holds
            if "then" in schema and _valid(sub, value, root):
                yield from _errors(schema["then"], value, path, root)
        elif key == "$ref":
            if not sub.startswith(_REF_PREFIX):
                raise ValueError(f"only {_REF_PREFIX}<name> references are supported: {sub!r}")
            yield from _errors(root["$defs"][sub[len(_REF_PREFIX):]], value, path, root)
        else:
            raise ValueError(f"schema keyword {key!r} is not supported")


def first_error(schema: dict, instance) -> tuple[str, str] | None:
    """The JSON path and message of the error at the shallowest instance
    path, first in schema order, or None if instance is valid."""
    best = None
    for path, message in _errors(schema, instance, (), schema):
        if best is None or len(path) < len(best[0]):
            best = path, message
    if best is None:
        return None
    path, message = best
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), message
