"""The split forward: a batch as two row halves on two threads.

``EncoderModel.forward`` runs the second half of a batch on a helper thread
when a second core is idle (``models._CoreSlots``).  These tests hold it to
its contract: the same bits as the unsplit forward on every engine (int8
included: its activation scales are per token row), never on a recording
backend, errors only after both halves are done, no thread on a one-core
process or when other forwards fill the cores.

The first-use caches a forward fills — ``Linear``'s prepared operands, a
table's per-dtype ``_params`` and bucket thresholds, ``NormParameters.cast``
— are *not* filled before the helper starts: the two halves may fill them
at once.  They are idempotent (each fill computes the same bits and the last
store wins), which ``test_first_use_caches_are_idempotent_under_concurrent_fills``
shows cache by cache and the split forward over a cold model end to end.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from concurrent import futures

import numpy as np
import pytest

from repro.api import BackendSpec, build_backend
from repro.core.kernels import native_available
from repro.core.lut import LookupTable
from repro.transformer import models, tiny_test_config
from repro.transformer.models import EncoderModel

KERNELS = (
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled native kernel unavailable"
        ),
    ),
)

#: the ``tiny`` widths and a 60/122 model, where row-stacked float64 GEMMs
#: already differ from per-sequence ones (``test_engine_parity.py``).
WIDTHS = ((32, 64), (60, 122))
ROWS = (2, 3, 4, 5, 8)
LENGTHS = (1, 2, 3, 7, 16, 32)


class _CountingExecutor(futures.ThreadPoolExecutor):
    def __init__(self) -> None:
        super().__init__(max_workers=1, thread_name_prefix="test-forward-half")
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def slots(monkeypatch):
    """A fresh process-wide slot count with two cores and a counted helper;
    every batch the other rules allow splits, however little work it is."""
    monkeypatch.setattr(models, "_MIN_HALF_ROWS", 2)
    monkeypatch.setattr(models, "_MIN_HALF_ELEMENTS", 0)
    fresh = models._CoreSlots()
    fresh._cores = 2
    fresh._helper = _CountingExecutor()
    monkeypatch.setattr(models, "_CORE_SLOTS", fresh)
    yield fresh
    fresh._helper.shutdown(wait=True)
    assert fresh._busy == 0


def _model(
    kernel="numpy", compute_dtype="float32", precision="fp32", width=(32, 64),
    max_length=32,
):
    hidden, inter = width
    config = tiny_test_config(
        hidden_size=hidden, intermediate_size=inter, compute_dtype=compute_dtype,
        matmul_precision=precision, kernel=kernel, max_sequence_length=max_length,
    )
    return EncoderModel.initialize(config, seed=3)


def _batch(rng, rows, length, vocab=100):
    tokens = rng.integers(0, vocab, size=(rows, length))
    valid = rng.integers(1, length + 1, size=rows)
    mask = (np.arange(length)[None, :] < valid[:, None]).astype(np.int64)
    return tokens, mask


def _unsplit(slots, model, *args, **kwargs):
    cores, slots._cores = slots._cores, 1
    try:
        return model.forward(*args, **kwargs)
    finally:
        slots._cores = cores


@pytest.mark.parametrize("width", WIDTHS, ids=lambda w: f"{w[0]}x{w[1]}")
@pytest.mark.parametrize("precision", ("fp32", "fp16", "int8"))
@pytest.mark.parametrize("compute_dtype", ("float32", "float64"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_split_equals_unsplit_bitwise(
    slots, fast_registry, kernel, compute_dtype, precision, width
):
    model = _model(kernel, compute_dtype, precision, width)
    backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
    rng = np.random.default_rng(11)
    for rows in ROWS:
        for length in LENGTHS:
            tokens, mask = _batch(rng, rows, length)
            for attention_mask in (None, mask):
                before = slots._helper.submits
                split = model.forward(tokens, backend, attention_mask)
                reference = _unsplit(slots, model, tokens, backend, attention_mask)
                case = f"{rows} rows x {length}, mask {attention_mask is not None}"
                assert split.dtype == reference.dtype, case
                assert np.array_equal(split, reference), case
                # a half of one token row would be a gemv: that never splits
                assert slots._helper.submits - before == (
                    (rows // 2) * length >= 2
                ), case


def test_a_half_splits_only_with_enough_work(slots, monkeypatch):
    monkeypatch.setattr(models, "_MIN_HALF_ROWS", 192)
    monkeypatch.setattr(models, "_MIN_HALF_ELEMENTS", 16_384)
    rng = np.random.default_rng(7)
    narrow = _model()  # hidden 32: elements bind, a half needs 512 rows
    wide = _model(width=(128, 256), max_length=128)  # rows bind: 192
    cases = (
        (narrow, 8, 32, 0), (narrow, 32, 30, 0), (narrow, 32, 32, 1),
        (narrow, 33, 32, 2), (wide, 4, 95, 2), (wide, 4, 96, 3), (wide, 5, 96, 4),
    )
    for model, rows, length, submits in cases:
        tokens, mask = _batch(rng, rows, length)
        model.forward(tokens, attention_mask=mask)
        assert slots._helper.submits == submits, (model.config.hidden_size, rows, length)


@pytest.mark.parametrize("precision", ("fp32", "int8"))
def test_a_recording_backend_never_submits(slots, fast_registry, precision):
    tokens, mask = _batch(np.random.default_rng(0), 8, 16)
    backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
    model = _model(precision=precision)
    with backend.recording() as recorder:
        model.forward(tokens, backend, mask)
    assert recorder.layernorm_inputs  # it did record, from one thread
    assert slots._helper.submits == 0
    model.forward(tokens, backend, mask)  # not recording: int8 too splits
    assert slots._helper.submits == 1


@pytest.mark.parametrize("failing", ("caller", "helper"))
def test_an_error_in_either_half_arrives_after_both_halves(slots, monkeypatch, failing):
    caller = threading.get_ident()
    finished = []
    run_rows = EncoderModel._forward_rows

    def forward_rows(model, token_ids, *args):
        mine = "caller" if threading.get_ident() == caller else "helper"
        if mine == failing:
            raise RuntimeError(f"{mine} half failed")
        if mine == "helper":
            threading.Event().wait(0.2)  # still running when the caller fails
        result = run_rows(model, token_ids, *args)
        finished.append(mine)
        return result

    monkeypatch.setattr(EncoderModel, "_forward_rows", forward_rows)
    tokens, mask = _batch(np.random.default_rng(1), 4, 8)
    with pytest.raises(RuntimeError, match=f"{failing} half failed"):
        _model().forward(tokens, attention_mask=mask)
    other = "helper" if failing == "caller" else "caller"
    assert finished == [other]
    assert slots._busy == 0


@pytest.mark.parametrize("limit", ("one usable core", "one slot per process"))
def test_one_core_starts_no_thread(monkeypatch, limit):
    monkeypatch.setattr(models, "_MIN_HALF_ROWS", 2)
    monkeypatch.setattr(models, "_MIN_HALF_ELEMENTS", 0)
    fresh = models._CoreSlots()
    monkeypatch.setattr(models, "_CORE_SLOTS", fresh)
    cores = {0} if limit == "one usable core" else {0, 1}
    monkeypatch.setattr(models.os, "sched_getaffinity", lambda pid: cores, raising=False)
    if limit == "one slot per process":
        models._one_slot_per_process()  # what a shard worker's bootstrap calls
    threads = set(threading.enumerate())
    tokens, mask = _batch(np.random.default_rng(2), 8, 16)
    _model().forward(tokens, attention_mask=mask)
    assert fresh._helper is None
    assert set(threading.enumerate()) <= threads
    assert fresh._busy == 0


def test_forwards_that_fill_the_cores_do_not_split(slots, fast_registry):
    model = _model()
    backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
    tokens, mask = _batch(np.random.default_rng(3), 8, 16)
    reference = _unsplit(slots, model, tokens, backend, mask)
    both_held = threading.Barrier(2, timeout=30)
    outputs = [None, None]

    def caller(index):
        with slots.hold(split=False):  # this caller's forward, running
            both_held.wait()
            outputs[index] = model.forward(tokens, backend, mask)
            both_held.wait()

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in callers)
    assert slots._helper.submits == 0
    assert all(np.array_equal(out, reference) for out in outputs)


def test_more_callers_than_cores_keep_the_count_and_the_bits(slots, fast_registry):
    model = _model()
    backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
    rng = np.random.default_rng(4)
    batches = [_batch(rng, rows, 12) for rows in (2, 3, 4, 5, 6, 7)]
    references = [_unsplit(slots, model, t, backend, m) for t, m in batches]
    mismatches = []

    def caller(offset):
        for step in range(12):
            index = (offset + step) % len(batches)
            tokens, mask = batches[index]
            if not np.array_equal(model.forward(tokens, backend, mask), references[index]):
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert mismatches == []
    assert slots._busy == 0  # no lost update: every slot taken was given back


def _concurrently(fill, parties=4):
    """``fill()`` on ``parties`` threads released together; their results."""
    start = threading.Barrier(parties, timeout=30)
    results = [None] * parties

    def run(index):
        start.wait()
        results[index] = fill()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(parties)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _same(results):
    first = results[0]
    return all(
        all(np.array_equal(a, b) for a, b in zip(first, other)) for other in results
    )


def test_first_use_caches_are_idempotent_under_concurrent_fills(slots, fast_registry):
    model = _model()
    backend = build_backend(BackendSpec.nn_lut(), registry=fast_registry)
    tokens, mask = _batch(np.random.default_rng(5), 8, 16)
    reference = _unsplit(slots, model, tokens, backend, mask)

    linear = model.encoder.layers[0].ffn_in
    table = backend.gelu.gelu_approx
    norm = model.encoder.layers[0].output_norm
    fills = {
        "Linear._prepared_operands": (
            linear.invalidate, lambda: linear._prepared_operands()[1:4:2]
        ),
        "LookupTable._params": (table.invalidate, lambda: table._params(np.float32)),
        "LookupTable._bucket_tables": (
            table.invalidate, lambda: table._bucket_tables(np.float32)[3:]
        ),
        "NormParameters.cast": (norm._cast_cache.clear, lambda: norm.cast(np.float32)),
    }
    for name, (clear, fill) in fills.items():
        clear()
        warm = fill()
        clear()
        results = _concurrently(fill)
        assert _same([warm, *results]), name

    # End to end: every cache cold, then one split forward fills them.
    for each in model.iter_linears():
        each.invalidate()
    for op in (backend.gelu, backend.softmax, backend.layernorm):
        for table in vars(op).values():
            if isinstance(table, LookupTable):
                table.invalidate()
    for layer in model.encoder.layers:
        layer.attention_norm._cast_cache.clear()
        layer.output_norm._cast_cache.clear()
    model.embedding_norm._cast_cache.clear()
    before = slots._helper.submits
    assert np.array_equal(model.forward(tokens, backend, mask), reference)
    assert slots._helper.submits == before + 1


def _forward_in_child(model, tokens, mask, connection):
    models._CORE_SLOTS._cores = 2  # split even where the child has one core
    connection.send(model.forward(tokens, attention_mask=mask))
    connection.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
)
def test_a_forked_child_splits_on_its_own_helper(monkeypatch):
    # The parent's helper thread does not exist in a forked child: a child
    # that inherited it would hand it a half and wait forever.
    monkeypatch.setattr(models, "_MIN_HALF_ROWS", 2)
    monkeypatch.setattr(models, "_MIN_HALF_ELEMENTS", 0)
    model = _model()
    tokens, mask = _batch(np.random.default_rng(6), 8, 16)
    models._CORE_SLOTS._cores = 2
    try:
        reference = model.forward(tokens, attention_mask=mask)
        assert models._CORE_SLOTS._helper is not None
    finally:
        models._CORE_SLOTS._cores = None
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_forward_in_child, args=(model, tokens, mask, sender)
    )
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child's split forward never returned"
        assert np.array_equal(receiver.recv(), reference)
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
