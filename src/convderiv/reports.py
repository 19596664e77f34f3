"""Deterministic JSON/CSV report emission.

Reports echo the command, digest their inputs, carry the result payload and
a list of certificates, and are byte-identical across repeated invocations
apart from the timestamp field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

TOOL_NAME = "convderiv"
TOOL_VERSION = "0.1.0"

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tool", "version", "command", "inputs", "input_digest",
                 "seed", "result", "certificates", "timestamp"],
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "command": {"type": "array", "items": {"type": "string"}},
        "inputs": {"type": "object"},
        "input_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed": {"type": "integer"},
        "result": {"type": "object"},
        "certificates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "details": {"type": "object"},
                },
            },
        },
        "timestamp": {"type": "string"},
    },
}


def certificate(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_seq_to_json(values) -> list:
    """[re, im] pairs of Python floats, the ones ``complex_to_json`` gives."""
    z = np.asarray(values, dtype=complex)
    return np.column_stack((z.real, z.imag)).tolist()


def complex_matrix_to_json(matrix) -> list:
    """Rows of ``complex_seq_to_json`` pairs."""
    z = np.asarray(matrix, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def input_digest(inputs: dict) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_report(command: Sequence[str], inputs: dict, result: dict,
                 certificates: Sequence[dict], seed: int) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": list(command),
        "inputs": inputs,
        "input_digest": input_digest(inputs),
        "seed": int(seed),
        "result": result,
        "certificates": list(certificates),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def render_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, byte
    for byte.  With ``indent`` set the stdlib encodes in pure Python, so
    ``_emit`` writes the report itself; what it does not cover (a non-str
    key, an unknown type) is left to ``json.dumps``, output and errors."""
    out = []
    try:
        _emit(report, "\n", out)
    except TypeError:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _emit(value, newline: str, out: list) -> None:
    """Append ``value`` as ``json.dumps(..., sort_keys=True, indent=2)``
    writes it where ``newline`` (a newline and the indentation) starts its
    lines, testing types in json's order; raise TypeError where json would
    have to decide."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        text = (_floats(value, newline, inner)
                or _pairs(value, newline, inner)) if value else "[]"
        if text is not None:
            out.append(text)
            return
        opening = "["
        for item in value:
            out.append(opening + inner)
            opening = ","
            _emit(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != {str}:
            raise TypeError("a key json converts itself")
        inner = newline + "  "
        opening = "{"
        for key in sorted(value):
            out.append(opening + inner + encode_basestring_ascii(key) + ": ")
            opening = ","
            _emit(value[key], inner, out)
        out.append(newline + "}")
    else:
        raise TypeError("a type json rejects")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _floats(items, newline: str, inner: str):
    """A list of floats, as a matrix row, rendered with one formatting
    pass; None for anything else."""
    if not isinstance(items[0], float):
        return None
    try:
        text = ("," + inner).join(map(float.__repr__, items))
    except TypeError:  # an entry that is not a float
        return None
    # float.__repr__ writes nan and inf where json writes NaN and Infinity;
    # no other character of the text is an "n"
    return None if "n" in text else "[" + inner + text + newline + "]"


def _pairs(items, newline: str, inner: str):
    """A list of [float, float] pairs, the encoding of every complex
    sequence, rendered with one formatting pass; None for anything else."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    try:
        floats = tuple(map(float.__repr__, chain.from_iterable(items)))
    except TypeError:  # an entry that is not a float
        return None
    leaf = inner + "  "
    pair = f"[{leaf}%s,{leaf}%s{inner}]"
    text = ("[" + inner + ("," + inner).join([pair] * len(items))
            + newline + "]") % floats
    # float.__repr__ writes nan and inf where json writes NaN and Infinity;
    # no other character of the text is an "n"
    return None if "n" in text else text


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(report))


def strip_timestamp(rendered: str) -> str:
    """Drop the timestamp line so renderings can be compared bytewise."""
    return "\n".join(line for line in rendered.splitlines()
                     if not line.lstrip().startswith('"timestamp"'))


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
