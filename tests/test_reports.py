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


# finite edges, then the values json writes as NaN and Infinity
EDGES = (-0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, math.nan, math.inf,
         -math.inf)


def _parts(rng, size):
    """float64 values of every magnitude, some of them edge values."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    edges = EDGES[:6] if rng.integers(2) else EDGES
    spots = rng.random(size) < 0.3
    values[spots] = rng.choice(edges, int(spots.sum()))
    return values


def _array(rng):
    """A float64 or complex128 array of 0-3 dimensions, some of size 0,
    and some complex ones real-valued, as reports carry them."""
    shape = tuple(int(rng.integers(4)) for _ in range(int(rng.integers(4))))
    real = _parts(rng, math.prod(shape)).reshape(shape)
    kind = int(rng.integers(3))
    if kind == 0:
        return real
    values = np.zeros(shape, dtype=complex)
    values.real = real
    if kind == 1:
        values.imag = _parts(rng, values.size).reshape(shape)
    return values


def random_value(rng, depth, arrays=False):
    kind = int(rng.integers(8 if arrays else 7)) if depth else 0
    if kind == 0:
        return _leaf(rng)
    if kind == 1:
        return _pairs(rng)
    if kind == 7:
        return _array(rng)
    size = int(rng.integers(4))
    items = [random_value(rng, depth - 1, arrays) for _ in range(size)]
    if kind in (2, 3):
        return items
    if kind == 4:
        return tuple(items)
    return {_pick(rng, STRINGS) + str(i): item for i, item in enumerate(items)}


def random_report(rng, arrays=False):
    return {key: random_value(rng, 4, arrays) for key in
            ("certificates", "command", "inputs", "result", "seed", "tool")}


def test_render_report_is_canonical_json_on_random_reports():
    rng = np.random.default_rng(13)
    for _ in range(400):
        report = random_report(rng)
        assert reports.render_report(report) == canonical(report)


def test_reports_holding_arrays_render_as_their_json_values():
    rng = np.random.default_rng(17)
    for _ in range(400):
        report = random_report(rng, arrays=True)
        assert reports.render_report(report) == canonical(
            reports.to_json_value(report))


def test_a_negative_zero_imaginary_part_is_written():
    # +0.0 imaginary parts are written without a repr; -0.0 is not +0.0
    values = np.arange(1.0, 6.0) + 0j
    values.imag[3] = -0.0
    rendered = reports.render_report({"values": values})
    assert rendered == canonical({"values": reports.to_json_value(values)})
    assert rendered.count("-0.0") == 1


@pytest.mark.parametrize("report", [
    {1: np.zeros(2)}, {"a": np.ones(2), 2: "mixed keys"},
    {"a": np.ones(3, dtype=complex), "b": complex(1, 2)},
    {"a": [np.zeros((2, 2)), complex(0, 1)]},
])
def test_arrays_beside_what_json_converts_or_rejects(report):
    assert outcome(reports.render_report, report) == outcome(
        canonical, reports.to_json_value(report))


def test_input_digest_is_the_same_for_arrays_and_lists():
    f = np.array([1 + 2j, -0.5, 0.0])
    arrays = {"f": f, "depth": 8, "table": np.eye(2)}
    lists = {"f": [[1.0, 2.0], [-0.5, 0.0], [0.0, 0.0]], "depth": 8,
             "table": [[1.0, 0.0], [0.0, 1.0]]}
    assert reports.input_digest(arrays) == reports.input_digest(lists)


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


# -- float rows ---------------------------------------------------------------

@pytest.mark.parametrize("rows", [
    [[-0.0, 5e-324, 1e16, 0.1]],
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
    [[1.0, math.nan, 2.0]], [[math.inf, 1.0, 2.0]], [[1.0, 2.0, -math.inf]],
    [[np.float64(0.1), 2.0, np.float64(-3e-300)]],
    [[1, 2.0, 3.0]], [[1.0, 2, 3.0]], [[1.0, 2.0, True]], [[1.0, "2.0"]],
    [[], [1.0, 2.0, 3.0], [[]], [[], []]],
    [[1.0, [2.0, 3.0]]], [[1.0, None]],
], ids=["edge-floats", "matrix", "nan", "inf", "minus-inf", "np-float64",
        "int-first", "int-inside", "bool", "string", "empty-rows", "nested",
        "null"])
def test_float_rows_render_as_canonical_json(rows):
    report = {"result": {"matrix": rows, "row": rows[0]}, "seed": 0}
    assert reports.render_report(report) == canonical(report)


def test_a_row_with_a_numpy_integer_gives_the_stdlib_error():
    report = {"a": [1.0, np.int64(3), 2.0]}
    assert outcome(reports.render_report, report) == outcome(canonical, report)
