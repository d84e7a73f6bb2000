"""JSON schemas for every artifact the command line reads or emits.

The dicts below are the single source of truth. The copies under
docs/schema/ are generated from them by write_docs, and a test asserts
the checked-in copies stay in sync. Artifact writers validate against
these schemas before anything touches disk, so a malformed report is a
bug surfaced at emission time, not in a downstream consumer.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import jsonschema

from .errors import ContractViolation, PreconditionError

__all__ = ["SCHEMAS", "validate", "validate_artifact", "validate_config",
           "write_docs"]

_NUM = {"type": "number"}
_BOOL = {"type": "boolean"}
_STR = {"type": "string"}
_INT = {"type": "integer"}
_INT0 = {"type": "integer", "minimum": 0}
_INT1 = {"type": "integer", "minimum": 1}
_RATE = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_POS = {"type": "number", "exclusiveMinimum": 0}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_VEC = {"type": "array", "items": _NUM}
_MATRIX = {"type": "array", "items": _VEC}
_LABEL = {"enum": [-1, 1]}


def _obj(properties: dict, required: list | None = None) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": sorted(properties if required is None else required),
        "additionalProperties": False,
    }


def _nullable(schema: dict) -> dict:
    return {"oneOf": [schema, {"type": "null"}]}


TARGET = {
    "oneOf": [
        _obj({"kind": {"const": "linear_threshold"}, "w": _VEC,
              "gamma": _RATE}),
        _obj({
            "kind": {"const": "decision_list"},
            "items": {
                "type": "array",
                "items": {"type": "array", "items": _INT,
                          "minItems": 3, "maxItems": 3},
            },
            "default": _LABEL,
        }),
        _obj({"kind": {"const": "explicit"},
              "labels": {"type": "array", "items": _LABEL}}),
    ]
}

TRANSCRIPT_ENTRY = _obj(
    {"round": _INT0, "label_dep": _BOOL, "tau": _POS, "answer": _NUM,
     "scale": _NUM},
    required=["round", "label_dep", "tau", "answer"],
)

TRANSCRIPT_BLOCK = _obj(
    {"round": _INT0, "label_dep": _BOOL, "tau": _POS, "scale": _NUM,
     "answers": _VEC | {"minItems": 1}},
    required=["round", "label_dep", "tau", "answers"],
)


def _protocol_report(budget_key: str, budget_schema: dict) -> dict:
    """compile-report's protocol_report.json, which embeds its queries."""
    return _obj({
        "rounds": _INT0,
        "n": _INT0,
        budget_key: budget_schema,
        "queries": {"type": "array", "items": TRANSCRIPT_ENTRY},
    })


LDP_REPORT = _protocol_report("epsilon", _POS)
COMM_REPORT = _protocol_report("bits", _INT1)

HYPOTHESIS = _obj({"proj": _MATRIX, "w": _VEC})

CERTIFICATE = _obj({
    "D": _VEC,
    "value": {"type": "number", "minimum": 0},
    "target": TARGET,
})

FOOLING_REPORT = _obj({
    "found": _BOOL,
    "certificate": _nullable(CERTIFICATE),
    "answers_f": _VEC,
    "answers_neg": _VEC,
    "identical_transcripts": _BOOL,
    "error_f": _UNIT,
    "error_neg": _UNIT,
    "max_error": _nullable(_UNIT),
})

_LEARNER_REPORT = _obj({
    "dim": _INT1,
    "iterations_executed": _INT1,
    "iterations_formula": _INT1,
    "eta": _POS,
    "per_coord_tol": _POS,
    "queries_total": _INT0,
    "queries_label_dependent": _INT0,
    "rounds": _INT0,
    "label_non_adaptive": _BOOL,
})

HALFSPACE_REPORT = _obj({
    "command": {"const": "learn-halfspace"},
    "seed": _INT,
    "mode": {"enum": ["distribution_free", "known_distribution"]},
    "oracle": {"enum": ["exact", "ldp", "comm"]},
    "gamma": _RATE,
    "alpha": _RATE,
    "delta": _RATE,
    "epsilon": _nullable(_POS),
    "ambient_dim": _INT1,
    "working_dim": _INT1,
    "gamma_effective": _POS,
    "projected": _BOOL,
    "rounds": _INT0,
    "samples": _INT0,
    "error": _UNIT,
    "learner": _LEARNER_REPORT,
})

DL_REPORT = _obj({
    "command": {"const": "learn-dl"},
    "seed": _INT,
    "dim": _INT1,
    "length": _INT1,
    "alpha": _RATE,
    "tau": _POS,
    "delta": _RATE,
    "oracle": {"enum": ["exact", "ldp"]},
    "epsilon": _nullable(_POS),
    "rounds": _INT0,
    "label_dependent_rounds": {"type": "array", "items": _INT0},
    "queries": _INT0,
    "samples": _INT0,
    "error": _UNIT,
    "target": TARGET,
    "learned": TARGET,
})

ESTIMATE_REPORT = _obj({
    "command": {"const": "estimate-mean"},
    "seed": _INT,
    "channel": {"enum": ["ldp", "comm"]},
    "epsilon": _nullable(_POS),
    "tau": _POS,
    "delta": _RATE,
    "queries": _INT1,
    "batch": _INT1,
    "trials": _INT1,
    "failures": _INT0,
    "failure_fraction": _UNIT,
})

ADVERSARY_REPORT = _obj({
    "command": {"const": "adversary-demo"},
    "seed": _INT,
    "class": _STR,
    "m": _INT1,
    "threshold": _POS,
    "n_targets": _INT1,
    "found": _BOOL,
    "demo": _nullable(FOOLING_REPORT),
    "witness_index": _nullable(_INT0),
})

JL_REPORT = _obj({
    "command": {"const": "jl-check"},
    "seed": _INT,
    "dim": _INT1,
    "gamma": _RATE,
    "delta": _RATE,
    "target_dim": _INT1,
    "support": _INT1,
    "trials": _INT1,
    "ok_count": _INT0,
    "ok_fraction": _UNIT,
})

SEPARATION_ROW = _obj({
    "algorithm": _STR,
    "class": _STR,
    "rounds": _INT0,
    "label_dependent_rounds": {"type": "array", "items": _INT0},
    "samples": _INT0,
    "final_error": _UNIT,
})

SEPARATION_REPORT = _obj({
    "command": {"const": "separation"},
    "seed": _INT,
    "rows": {"type": "array", "items": SEPARATION_ROW,
             "minItems": 3, "maxItems": 3},
    "certificate": _nullable(CERTIFICATE),
})

EXPLICIT_CLASS = _obj(
    {
        "support": _MATRIX,
        "targets": {
            "type": "array",
            "items": {"type": "array", "items": _LABEL},
            "minItems": 1,
        },
    },
)

CONFIG = _obj(
    {
        "command": {"enum": [
            "learn-halfspace", "learn-dl", "estimate-mean",
            "adversary-demo", "jl-check", "compile-report", "separation",
        ]},
        "d": _INT1,
        "support": _INT1,
        "gamma": _RATE,
        "alpha": _RATE,
        "delta": _RATE,
        "epsilon": _POS,
        "tau": _POS,
        "m": _INT1,
        "oracle": {"enum": ["exact", "ldp", "comm"]},
        "mode": {"enum": ["distribution_free", "known_distribution"]},
        "channel": {"enum": ["ldp", "comm"]},
        "seed": _INT0,
        "trials": _INT1,
        "length": _INT1,
        "queries": _INT1,
        "class": _STR,
        "out": _STR,
        "check": _BOOL,
    },
    required=[],
) | {
    # learn-dl has no one-bit compiler.
    "if": {"properties": {"command": {"const": "learn-dl"}},
           "required": ["command"]},
    "then": {"properties": {"oracle": {"enum": ["exact", "ldp"]}}},
}

SCHEMAS = {
    "config": CONFIG,
    "target": TARGET,
    "transcript_entry": TRANSCRIPT_ENTRY,
    "transcript_block": TRANSCRIPT_BLOCK,
    "ldp_report": LDP_REPORT,
    "comm_report": COMM_REPORT,
    "hypothesis": HYPOTHESIS,
    "certificate": CERTIFICATE,
    "fooling_report": FOOLING_REPORT,
    "halfspace_report": HALFSPACE_REPORT,
    "dl_report": DL_REPORT,
    "estimate_report": ESTIMATE_REPORT,
    "adversary_report": ADVERSARY_REPORT,
    "jl_report": JL_REPORT,
    "separation_report": SEPARATION_REPORT,
    "explicit_class": EXPLICIT_CLASS,
}

_DIALECT = "https://json-schema.org/draft/2020-12/schema"


@functools.cache
def _validator(name: str):
    """The named schema's validator, meta-checked once on first use."""
    cls = jsonschema.validators.validator_for(SCHEMAS[name])
    cls.check_schema(SCHEMAS[name])
    return cls(SCHEMAS[name])


def validate(name: str, obj, error: type, prefix: str) -> None:
    """Raise error(prefix + jsonschema.validate's message) on a mismatch."""
    found = jsonschema.exceptions.best_match(_validator(name).iter_errors(obj))
    if found is not None:
        raise error(prefix + found.message) from found


def validate_artifact(name: str, obj) -> None:
    """Check an about-to-be-emitted object; a mismatch is an internal bug."""
    if name not in SCHEMAS:
        raise PreconditionError(f"no schema named {name!r}")
    validate(name, obj, ContractViolation,
             f"artifact does not match the {name} schema: ")


def validate_config(obj) -> None:
    """Check user-supplied configuration; a mismatch is a usage error."""
    validate("config", obj, PreconditionError, "invalid config: ")


def write_docs(root) -> list:
    """Write one schema file per artifact under root/schema; returns paths."""
    base = Path(root) / "schema"
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, schema in sorted(SCHEMAS.items()):
        doc = {"$schema": _DIALECT, "title": name}
        doc.update(schema)
        path = base / f"{name}.schema.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)
    return written
