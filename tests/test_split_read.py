"""``validate_tail`` reads a long range in one chunk per CPU: every split
gives what the one-CPU pass gives.

The CPU count is patched: 1 is the reference, and 2, 3 and 4 give that
many chunks at depths around 2^17 once the chunk size is patched to one
block (with the real 2^16, 2^17 indices make at most two chunks).
"""

import os
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

import convderiv as cd
from convderiv import convolution

DEPTHS = [(1 << 17) - 1, (1 << 17) + 1, (1 << 17) + 5]


def _outcome(seq, upto, first_index):
    """The value's bits, or the error's type and message."""
    try:
        return struct.pack("<d", cd.validate_tail(seq, upto, first_index))
    except Exception as exc:  # the rule's own errors too
        return type(exc).__name__, str(exc)


def _readers(upto, first_index):
    """The first index of every chunk, from the threads that read them."""
    blocks = []

    def rule(n):
        blocks.append((int(n[0]), threading.current_thread()))
        return 1.0 / (n + 1.0)

    seq = cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)
    cd.validate_tail(seq, upto, first_index)
    blocks.sort(key=lambda block: block[0])
    return [blocks[0][0]] + [
        lo for (lo, reader), (_, before) in zip(blocks[1:], blocks)
        if reader is not before]


def _seq(good, cert, bad=(), worse=1.5, raises=()):
    """The rule ``good`` with ``worse`` at each index in bad, raising on a
    block that holds an index in raises."""
    bad, raises = np.asarray(bad, dtype=np.int64), np.asarray(raises)

    def rule(n):
        hit = np.isin(raises, n)
        if hit.any():
            raise ZeroDivisionError(f"at {raises[hit.argmax()]}")
        return np.where(np.isin(n, bad), worse, good(n))

    return cd.DualSequence(rule, tail=cd.ClosedForm(cert), vectorized=True)


def _cases(edges, upto):
    """(label, sequence): honest and lying tails placed by the chunk edges;
    e is the second chunk's first index and z the last chunk's."""
    e, z = edges[1], edges[-1]
    harmonic = lambda n: 1.0 / (n + 1.0)  # noqa: E731
    geometric = lambda n: 0.9999 ** n  # noqa: E731
    wave = lambda n: 0.75 * np.exp(0.1j * n)  # noqa: E731
    const = lambda n: np.full(n.shape, 0.25 - 0.5j)  # noqa: E731
    decay, ratio = cd.Decay(0), cd.Decay(3, ratio=0.99995)
    constant, floor = cd.Constant(0.25 - 0.5j, 2), cd.Floor(0.5, 1)
    return [
        ("honest decay", _seq(harmonic, decay)),
        ("honest geometric", _seq(geometric, ratio)),
        ("honest constant", _seq(const, constant)),
        ("honest floor", _seq(wave, floor)),
        ("decay in the last chunk", _seq(harmonic, decay, [z + 9])),
        ("decay at an edge", _seq(harmonic, decay, [e])),
        ("decay at the last edge", _seq(geometric, ratio, [z])),
        ("decay before an edge", _seq(harmonic, decay, [e - 1])),
        ("decay in two chunks", _seq(harmonic, decay, [e + 3, z + 1])),
        ("decay in the first and last", _seq(harmonic, decay, [7, z])),
        ("constant at the last edge",
         _seq(const, constant, [z, upto], worse=0.25)),
        ("constant before an edge",
         _seq(const, constant, [e - 1, z + 2], worse=0.25)),
        ("floor at an edge", _seq(wave, floor, [e], worse=0.125)),
        ("floor in the last chunk",
         _seq(wave, floor, [upto - 1, upto], worse=0.125)),
        ("nan in the last chunk",
         _seq(harmonic, decay, [upto - 2], worse=np.nan)),
        ("nan without a certificate",
         _seq(harmonic, None, [z], worse=np.nan)),
        ("raises in the last chunk", _seq(harmonic, decay, raises=[upto])),
        ("raises in two chunks",
         _seq(harmonic, decay, raises=[z + 5, e + 1])),
        ("raises after a violation",
         _seq(harmonic, decay, [4], raises=[z])),
    ]


@pytest.mark.parametrize("first_index", [0, 1])
@pytest.mark.parametrize("upto", DEPTHS)
@pytest.mark.parametrize("chunks", [2, 3, 4])
def test_a_split_read_gives_the_one_cpu_outcome(chunks, upto, first_index,
                                                monkeypatch):
    monkeypatch.setattr(convolution, "_CHUNK", convolution._READ_BLOCK)
    monkeypatch.setattr(convolution, "_CPUS", 1)
    assert _readers(upto, first_index) == [first_index]
    monkeypatch.setattr(convolution, "_CPUS", chunks)
    edges = _readers(upto, first_index)
    assert len(edges) == chunks
    assert all((lo - first_index) % convolution._READ_BLOCK == 0
               for lo in edges)
    for label, seq in _cases(edges, upto):
        got = _outcome(seq, upto, first_index)
        monkeypatch.setattr(convolution, "_CPUS", 1)
        assert got == _outcome(seq, upto, first_index), label
        monkeypatch.setattr(convolution, "_CPUS", chunks)


def test_a_range_of_two_chunks_is_split(monkeypatch):
    monkeypatch.setattr(convolution, "_CPUS", 4)
    assert convolution._CHUNK == 1 << 16
    assert _readers((1 << 17) - 1, 0) == [0, 1 << 16]
    assert _readers((1 << 17) - 2, 0) == [0]
    assert _readers(1 << 17, 1) == [1, 1 + (1 << 16)]
    assert _readers((1 << 18) - 1, 0) == [0, 1 << 16, 1 << 17, 3 << 16]


@pytest.mark.parametrize("chunks", [2, 3, 4])
def test_a_split_read_sees_each_index_once(chunks, monkeypatch):
    monkeypatch.setattr(convolution, "_CHUNK", convolution._READ_BLOCK)
    monkeypatch.setattr(convolution, "_CPUS", chunks)
    seen = []

    def rule(n):
        seen.append(n.copy())
        return 1.0 / (n + 1.0)

    seq = cd.DualSequence(rule, tail=cd.ClosedForm(cd.Decay(0)),
                          vectorized=True)
    upto = (1 << 17) + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads take turns as often as can be
    try:
        assert cd.validate_tail(seq, upto, 3) == 0.25
    finally:
        sys.setswitchinterval(interval)
    indices = np.concatenate(seen)
    assert indices.size == upto - 2
    assert np.array_equal(np.sort(indices), np.arange(3, upto + 1))


@pytest.mark.parametrize("chunks", [2, 4])
def test_a_split_read_leaves_no_thread_behind(chunks, monkeypatch):
    # nor the caller pinned to one CPU
    monkeypatch.setattr(convolution, "_CHUNK", convolution._READ_BLOCK)
    monkeypatch.setattr(convolution, "_CPUS", chunks)
    before = threading.active_count()
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    upto = (1 << 17) + 1
    honest = _seq(lambda n: 1.0 / (n + 1.0), cd.Decay(0))
    assert cd.validate_tail(honest, upto) == 1.0
    assert threading.active_count() == before
    assert affinity(0) == cpus
    for seq, error in ((_seq(lambda n: 1.0 / (n + 1.0), cd.Decay(0), [upto]),
                        cd.CertificateViolationError),
                       (_seq(lambda n: 1.0 / (n + 1.0), cd.Decay(0),
                             raises=[upto, 70_000]), ZeroDivisionError)):
        with pytest.raises(error):
            cd.validate_tail(seq, upto)
        assert threading.active_count() == before
        assert affinity(0) == cpus


def test_a_split_read_keeps_the_callers_errstate(monkeypatch):
    # numpy's errstate is a context variable, which a bare thread would not
    # inherit: the overflow would warn there, and the warning raise
    monkeypatch.setattr(convolution, "_CPUS", 2)
    seq = cd.DualSequence(lambda n: np.exp(n / 100.0),
                          tail=cd.ClosedForm(), vectorized=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            assert cd.validate_tail(seq, 1 << 17) == np.inf
        with pytest.raises(RuntimeWarning):
            cd.validate_tail(seq, 1 << 17)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0))
                    < 2, reason="needs two CPUs and sched_getaffinity")
def test_each_chunk_is_read_on_a_cpu_of_its_own(monkeypatch):
    # left to itself, the kernel tends to keep a new helper on its caller's
    # CPU while the two trade the interpreter lock
    monkeypatch.setattr(convolution, "_CPUS", 2)
    cpus = sorted(os.sched_getaffinity(0))
    seen = {}

    def rule(n):
        seen.setdefault(int(n[0]) >> 16, set()).update(
            [frozenset(os.sched_getaffinity(0))])
        return 1.0 / (n + 1.0)

    seq = cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)
    cd.validate_tail(seq, (1 << 17) - 1)
    assert seen == {0: {frozenset(cpus[:1])}, 1: {frozenset(cpus[1:2])}}
    assert sorted(os.sched_getaffinity(0)) == cpus
