import copy
import importlib
import json
import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcalab import cli
from rcalab.schema import first_error
from test_cli import (
    BUDGETED_RUNS,
    CONE_INSTANCE,
    CONE_INSTANCE_2D,
    DECAY_INSTANCE,
    NOISE,
    PERMUTATION_NOISE,
    SIMULATE_PARAMS,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = cli._load_schema()


def _benchmark_configs() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [step.config for name in workloads.WORKLOADS for step in workloads.steps(name, 1)]


SEEDS = _benchmark_configs() + [
    *({"kind": kind, "seed": 1, "params": params} for kind, params in BUDGETED_RUNS.items()),
    {"kind": "analyze-rule", "params": {"rule": {"alphabet": [3], "linear": [[-1, 1], [1, 2]]}}},
    {"kind": "simulate", "seed": 2, "format": "jsonl", "params": dict(SIMULATE_PARAMS, noise=PERMUTATION_NOISE)},
    {"kind": "verify-bounds", "seed": 3, "params": {
        "checks": ["evolution", "decay-envelope"], "alphabets": [[2], [2, 3]],
        "evolution_instance": CONE_INSTANCE, "decay_instance": DECAY_INSTANCE,
    }},
    {"kind": "evolve-exact", "params": dict(CONE_INSTANCE_2D, surjective=True, initial={"pattern": [0] * 9})},
    {"kind": "simulate", "seed": 4, "params": dict(SIMULATE_PARAMS, allow_wrap=True, generator=[0, 1] * 6)},
    {"kind": "circuit-mix", "params": {
        "network": {
            "sites": 3, "alphabet": [3], "schedule": ["random", 5],
            "layers": [
                [{"gate": "translate", "sites": [0], "params": {"amount": 2}}, {"gate": "swap", "sites": [1, 2]}],
                [{"gate": "cadd", "sites": [2, 0]}],
                [{"gate": "toffoli", "sites": [0, 1, 2]}],
                [{"gate": "permutation", "sites": [1, 0], "params": {"table": [3, 0, 1, 2, 4, 5, 6, 8, 7]}}],
            ],
        },
        "noise": NOISE, "horizon": 3,
    }},
]


def _schema_words(schema) -> set:
    """Every property name, enum value and const value of the schema."""
    words = set()
    if isinstance(schema, dict):
        for key, sub in schema.items():
            if key in ("properties", "enum"):
                words |= set(sub)
            elif key == "const":
                words.add(sub)
            words |= _schema_words(sub)
    elif isinstance(schema, list):
        for sub in schema:
            words |= _schema_words(sub)
    return words


WORDS = sorted(_schema_words(SCHEMA))
VALUES = WORDS + [
    -1, 0, 1, 2, 3.0, 2.5, 0.5, 255, 256, 10**30, True, False, None, "0.5", [], {}, [0], [1.0, 2],
    {"elementary": 90}, ["evolution"], ["decay-envelope"], math.nan, math.inf, -math.inf,
]
MUTATION = st.tuples(st.integers(0, 2**16), st.sampled_from(["delete", "replace", "insert"]),
                     st.sampled_from(WORDS), st.sampled_from(VALUES))


def _slots(doc, slots):
    """(container, key) of every value inside doc, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        slots.append((doc, key))
        _slots(value, slots)
    return slots


def _mutate(doc, mutations):
    doc = copy.deepcopy(doc)
    for pick, op, word, value in mutations:
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = slots[pick % len(slots)]
        value = copy.deepcopy(value)
        if op == "delete":
            del container[key]
        elif op == "replace":
            container[key] = value
        elif isinstance(container, dict):
            container[word] = value
        else:
            container.append(value)
    return doc


def _nulled(doc):
    """doc with each non-finite number replaced by null."""
    if isinstance(doc, dict):
        return {k: _nulled(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_nulled(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _oracle(schema, instance):
    """jsonschema's verdict and every instance path of its errors, nested
    oneOf errors included."""
    errors = list(jsonschema.Draft202012Validator(schema).iter_errors(instance))
    paths = set()
    while errors:
        error = errors.pop()
        paths.add(error.json_path)
        errors.extend(error.context)
    return bool(paths), paths


def _agrees(schema, instance, oracle_instance=None):
    error = first_error(schema, instance)
    refused, paths = _oracle(schema, instance if oracle_instance is None else oracle_instance)
    assert (error is not None) == refused, (instance, error, paths)
    assert error is None or error[0] in paths, (instance, error, paths)


# A non-finite number is refused where the schema asks for a number, which
# jsonschema does not do; in this schema that is exactly where it refuses null.
@settings(max_examples=250, deadline=None)
@given(seed=st.sampled_from(SEEDS), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_first_error_matches_jsonschema(seed, mutations):
    config = _mutate(seed, mutations)
    _agrees(SCHEMA, config, _nulled(config))


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "integer"}, True),
        ({"type": "integer"}, 3.0),
        ({"type": "integer"}, 3.5),
        ({"type": "number"}, False),
        ({"type": ["string", "number"]}, None),
        ({"const": 1}, True),
        ({"const": 1}, 1.0),
        ({"const": True}, 1),
        ({"enum": [[1, 2]]}, [1.0, 2]),
        ({"enum": [[1, 2]]}, [True, 2]),
        ({"const": {"a": [1]}}, {"a": [1.0]}),
        ({"const": {"a": 1}}, {"a": 1, "b": 1}),
        ({"minimum": 0}, "x"),
        ({"minimum": 0}, -1),
        ({"maximum": 255}, 256),
        ({"exclusiveMinimum": 0}, 0),
        ({"exclusiveMaximum": 1}, 1),
        ({"required": ["a"]}, []),
        ({"required": ["a", "b"]}, {"b": 1}),
        ({"properties": {"a": {"type": "string"}}}, [1]),
        ({"properties": {"a": {"type": "string"}}}, {"a": 1}),
        ({"items": {"type": "string"}}, {"a": 1}),
        ({"items": {"type": "string"}}, ["a", 1]),
        ({"minItems": 1}, {}),
        ({"minItems": 1}, []),
        ({"contains": {"const": 1}}, "x"),
        ({"contains": {"const": 1}}, [2, 1.0]),
        ({"contains": {"const": 1}}, [2]),
        ({"if": {"const": 1}}, 2),
        ({"if": {"const": 1}, "then": {"type": "string"}}, 1),
        ({"if": {"const": 1}, "then": {"type": "string"}}, 2),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1.5),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, "x"),
        ({"oneOf": [{"required": ["a"]}, {"properties": {"b": {"minimum": 0}}}]}, {"b": -1}),
        ({"not": {}}, 1),
        ({"allOf": [{"type": "array"}, {"minItems": 2}]}, [1]),
        ({"properties": {"a": {"$ref": "#/$defs/n"}}, "$defs": {"n": {"type": "integer"}}}, {"a": "x"}),
        ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"a": 1, "b": 1}),
        ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"c": 1}),
        ({"type": "boolean"}, 0),
        ({"type": "boolean"}, "true"),
        ({"type": ["boolean", "integer"]}, False),
        ({"maxItems": 2}, [1, 2, 3]),
        ({"maxItems": 2}, {"a": 1, "b": 2, "c": 3}),
        ({"prefixItems": [{"const": "a"}, {"type": "integer"}]}, ["a", "b"]),
        ({"prefixItems": [{"const": "a"}, {"type": "integer"}]}, ["a"]),
        ({"prefixItems": [{"const": "a"}], "items": {"type": "integer"}}, ["a", 1, "b"]),
        ({"prefixItems": [{"const": "a"}], "items": {"type": "integer"}}, ["a", 1, 2]),
    ],
)
def test_keyword_semantics_match_jsonschema(schema, instance):
    _agrees(schema, instance)


@pytest.mark.parametrize(
    "config, path",
    [
        # the unique deepest error of a oneOf, else the oneOf's own path
        ({"kind": "analyze-rule", "params": {"rule": {"elementary": 256}}}, "$.params.rule.elementary"),
        ({"kind": "analyze-rule", "params": {"rule": {}}}, "$.params.rule"),
        # the shallowest error wins
        ({"kind": "analyze-rule", "seed": -1, "params": {"rule": {"elementary": 256}}}, "$.seed"),
        ({"kind": "verify-bounds", "params": {"checks": ["decay-envelope"], "alphabets": []}}, "$.params"),
    ],
)
def test_reported_path(config, path):
    assert first_error(SCHEMA, config)[0] == path


def _subschemas(schema):
    yield schema
    for key, sub in schema.items():
        children = sub.values() if key in ("properties", "$defs") else sub if key in ("allOf", "oneOf", "prefixItems") else [sub]
        for child in children:
            if isinstance(child, dict):
                yield from _subschemas(child)


def test_every_keyword_of_the_shipped_schema_is_implemented():
    # first_error visits every keyword of the schema it is given, so no
    # subschema may raise, whatever the instance
    for sub in _subschemas(SCHEMA):
        for instance in ({}, [], 0, "x", None):
            first_error(dict(sub, **{"$defs": SCHEMA["$defs"]}), instance)


@pytest.mark.parametrize(
    "schema",
    [
        {"else": {}},
        {"anyOf": [{}]},
        {"pattern": "^a"},
        {"additionalProperties": False},
        {"properties": {"a": False}},
        {"$ref": "https://json-schema.org/draft/2020-12/schema"},
    ],
)
def test_unknown_keyword_raises(schema):
    with pytest.raises(ValueError):
        first_error(schema, {"a": 1})


def test_cli_import_leaves_out_jsonschema():
    # without site, so that nothing a .pth file imports is counted
    code = "import json, sys, rcalab.cli; print(json.dumps(sorted(sys.modules)))"
    paths = sysconfig.get_paths()
    env = {"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), paths["purelib"], paths["platlib"]])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = json.loads(proc.stdout)
    assert "rcalab.cli" in modules
    assert not [m for m in modules if m.split(".")[0] == "jsonschema" or m.startswith("importlib.resources")]
