"""Report rendering: byte for byte the stdlib's canonical JSON."""

import json
import math

import numpy as np
import pytest

from convderiv import reports

FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1,
          1e16, 123456789.0, -2.5e-8, 1.7976931348623157e308)
INTS = (0, -1, 7, 2 ** 53 + 1, -(2 ** 63), 2 ** 64 + 7, 10 ** 40)
STRINGS = ("", "plain", "é ü", "日本語", "\x00\x01\x1f", "\x7f", " ",
           "😀", 'quote " back \\ slash /', "\t\n\r\b\f", "timestamp")


def canonical(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def outcome(render, report):
    """The rendering, or the error's type and message."""
    try:
        return render(report)
    except Exception as exc:
        return type(exc), str(exc)


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _leaf(rng):
    kind = int(rng.integers(8))
    if kind == 0:
        return _pick(rng, FLOATS)
    if kind == 1:
        return float(rng.standard_normal()) * 10.0 ** int(
            rng.integers(-300, 300))
    if kind == 2:
        return _pick(rng, INTS)
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    if kind == 5:
        return np.float64(rng.standard_normal())
    return _pick(rng, STRINGS)


def _pairs(rng):
    """A complex sequence as reports carry it, sometimes spoiled."""
    pairs = [[float(rng.standard_normal()), float(rng.uniform(-1e9, 1e9))]
             for _ in range(int(rng.integers(1, 40)))]
    at = int(rng.integers(len(pairs)))
    spoil = int(rng.integers(7))
    if spoil == 0:
        pairs[at][int(rng.integers(2))] = math.nan
    elif spoil == 1:
        pairs[at][int(rng.integers(2))] = _pick(rng, (math.inf, -math.inf))
    elif spoil == 2:
        pairs[at][0] = int(rng.integers(-5, 5))
    elif spoil == 3:
        pairs[at].append(0.5)
    elif spoil == 4:
        pairs[at] = tuple(pairs[at])
    elif spoil == 5:
        pairs[at][1] = np.float64(pairs[at][1])
    return pairs


def random_value(rng, depth):
    kind = int(rng.integers(7)) if depth else 0
    if kind == 0:
        return _leaf(rng)
    if kind == 1:
        return _pairs(rng)
    size = int(rng.integers(4))
    items = [random_value(rng, depth - 1) for _ in range(size)]
    if kind in (2, 3):
        return items
    if kind == 4:
        return tuple(items)
    return {_pick(rng, STRINGS) + str(i): item for i, item in enumerate(items)}


def random_report(rng):
    return {key: random_value(rng, 4) for key in
            ("certificates", "command", "inputs", "result", "seed", "tool")}


def test_render_report_is_canonical_json_on_random_reports():
    rng = np.random.default_rng(13)
    for _ in range(400):
        report = random_report(rng)
        assert reports.render_report(report) == canonical(report)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}},
    [[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], [(1.0, 2.0)],
    [[math.nan, 0.0]], [[0.0, -math.inf]], [[1, 2.0]], [[1.0, 2.0, 3.0]],
    [[1.0]], [[1.0], [2.0, 3.0, 4.0]], [[True, 1.0]],
    [[np.float64(0.1), -0.0]], [["1.0", 2.0]], [[[1.0, 2.0], [3.0, 4.0]]],
    [[1.0, 2.0], "tail"],
])
def test_render_report_is_canonical_json_on_edge_values(value):
    report = {"result": {"values": value}, "seed": 0}
    assert reports.render_report(report) == canonical(report)


@pytest.mark.parametrize("report", [
    {1: "int key"}, {"a": 1, 2: "mixed keys"}, {None: 0, True: 1},
    {2.5: "float key"}, {"a": np.int64(3)}, {"a": {1, 2}},
    {"a": [[1.0, 2.0], [np.int64(3), 4.0]]}, {"a": complex(1, 2)},
])
def test_render_report_gives_the_stdlib_output_or_error(report):
    assert outcome(reports.render_report, report) == outcome(canonical, report)
