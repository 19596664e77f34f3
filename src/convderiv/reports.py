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


def to_json_value(value):
    """``value`` in the types json encodes: arrays as nested lists, complex
    entries as [re, im] pairs; dicts, lists and tuples rebuilt around their
    items, and anything else as it is."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()
    if isinstance(value, dict):
        return {key: to_json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json_value(item) for item in value]
    return value


def input_digest(inputs: dict) -> str:
    canonical = json.dumps(to_json_value(inputs), sort_keys=True,
                           separators=(",", ":"))
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
    """``json.dumps(to_json_value(report), sort_keys=True, indent=2)`` plus
    a newline, byte for byte.  With ``indent`` set the stdlib encodes in
    pure Python, so ``_emit`` writes the report itself; what it does not
    cover (a non-str key, an unknown type) is left to ``json.dumps``,
    output and errors."""
    out = []
    try:
        _emit(report, "\n", out)
    except TypeError:
        return json.dumps(to_json_value(report), sort_keys=True,
                          indent=2) + "\n"
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
        opening = "["
        for item in value:
            out.append(opening + inner)
            opening = ","
            _emit(item, inner, out)
        out.append(newline + "]" if value else "[]")
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
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc" and np.isfinite(value).all():
            out.append(_array(value, newline))
        else:  # json's NaN and Infinity, or entries that are no floats
            _emit(to_json_value(value), newline, out)
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


def _array(values: np.ndarray, newline: str) -> str:
    """A finite float or complex array, written from one template of its
    shape with one ``float.__repr__`` pass over its floats.  Where every
    imaginary part is +0.0, the only double with no bit set (a real
    sequence's), the template writes it and no repr is made for it."""
    imag, floats = None, values
    if values.dtype.kind == "c":
        imag, floats = "0.0", values.real
        if values.imag.any() or np.signbit(values.imag).any():
            imag, floats = "%s", values.ravel().view(floats.dtype)  # re, im
    return _template(values.shape, newline, imag) % tuple(
        map(float.__repr__, floats.ravel().tolist()))


def _template(shape: tuple, newline: str, imag) -> str:
    """The nested lists of an array of ``shape`` where ``newline`` starts
    their lines, each entry a %s, or with ``imag`` given an [re, im] pair
    of %s and ``imag``."""
    if not shape:
        if imag is None:
            return "%s"
        leaf = newline + "  "
        return "[" + leaf + "%s," + leaf + imag + newline + "]"
    if not shape[0]:
        return "[]"
    inner = newline + "  "
    item = _template(shape[1:], inner, imag)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


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
