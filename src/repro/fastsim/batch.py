"""Batched trace replay: the corpus sweep hot path, vectorised.

The streaming evaluator in :mod:`repro.trace.replay` dispatches one
Python-level event at a time: every committed control transfer becomes
a :class:`~repro.trace.format.ControlFlowEvent` object and is tested
against the three stack-relevant classes, and each call or return then
crosses a ``lane.step`` call per stack size — fine for correctness
work, interpreter-bound for corpus sweeps. This module replays the same
shards block-at-a-time instead:

1. **Decode** — each zlib block of a v2 shard (or a pseudo-block slice
   of a v1 body) is decoded straight into flat columns via numpy when
   available, or ``struct``/regex scans otherwise. No per-event
   objects are built, and every integrity check of the streaming
   reader still runs (the block walk *is* the streaming reader's, see
   :meth:`~repro.trace.format.TraceReader.iter_raw_blocks`), so a
   corrupt shard raises the identical typed
   :class:`~repro.trace.format.TraceFormatError`.
2. **Filter** — branch-class dispatch is hoisted out of the inner
   loop: only calls and returns touch a return-address stack, so each
   block is reduced once to its stack-relevant events and conditional
   branches / jumps (the bulk of any trace) never reach Python code.
3. **Replay** — specialised lanes inline the circular-buffer push/pop
   arithmetic of :class:`~repro.bpred.ras.CircularRas` (and the linked
   pool of :class:`~repro.bpred.ras.LinkedRas`) as local-variable
   integer ops, updating counters once per block instead of once per
   event.

Parity is the contract: for every repair mechanism, stack size, and
container version, a batched replay produces **bit-identical**
return/hit/overflow/underflow counters to
:func:`repro.trace.replay.replay_events` — the differential tests in
``tests/test_batch_replay.py`` sweep randomized workloads and the
checked-in sample corpus to hold that line. Throughput is tracked by
``benchmarks/bench_replay_throughput.py`` and gated in CI (see
docs/performance.md).

Set ``REPRO_BATCH_DECODER=python`` to force the stdlib decode path
even when numpy is installed (the parity suite exercises both).
"""

from __future__ import annotations

import io
import os
import re
import struct
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.bpred.btb import BranchTargetBuffer
from repro.config.options import RepairMechanism
from repro.errors import ConfigError
from repro.telemetry import span
from repro.telemetry import state as telemetry_state
from repro.telemetry import metrics as telemetry_metrics
from repro.trace.format import (
    DEFAULT_BLOCK_EVENTS,
    TraceFormatError,
    TraceReader,
)
from repro.trace.format import _CLASS_INDEX, _CLASS_LIST  # stable byte encoding
from repro.trace.replay import TraceRasResult, TraceShardSpec

try:  # optional accelerator; the stdlib path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_BATCH_DECODER
    _np = None

from repro.isa.opcodes import ControlClass

_NUM_CLASSES = len(_CLASS_LIST)
_RETURN_IDX = _CLASS_INDEX[ControlClass.RETURN]
_CALL_IDXS = frozenset(
    _CLASS_INDEX[cls] for cls in _CLASS_LIST if cls.is_call)

#: Fixed record widths of the two container versions (see trace.format).
_V1_EVENT_SIZE = struct.calcsize("<BIII")
_V2_EVENT_SIZE = struct.calcsize("<BQQI")

_PCS_V1 = struct.Struct("<II")
_PCS_V2 = struct.Struct("<QQ")

#: Class bytes that touch the RAS (calls push, returns pop).
_STACK_CLASS_BYTES = bytes(sorted(_CALL_IDXS | {_RETURN_IDX}))
_STACK_RE = re.compile(b"[" + re.escape(_STACK_CLASS_BYTES) + b"]")
#: Any class byte outside the encodable range is container corruption.
_BAD_CLASS_RE = re.compile(
    b"[" + re.escape(bytes([_NUM_CLASSES])) + b"-\xff]")

if _np is not None:
    _V1_DTYPE = _np.dtype(
        [("cls", "u1"), ("pc", "<u4"), ("next", "<u4"), ("gap", "<u4")])
    _V2_DTYPE = _np.dtype(
        [("cls", "u1"), ("pc", "<u8"), ("next", "<u8"), ("gap", "<u4")])
    assert _V1_DTYPE.itemsize == _V1_EVENT_SIZE
    assert _V2_DTYPE.itemsize == _V2_EVENT_SIZE


def decoder_backend() -> str:
    """Which block decoder runs: ``"numpy"`` or ``"python"``."""
    if _np is None or os.environ.get("REPRO_BATCH_DECODER") == "python":
        return "python"
    return "numpy"


class EventBatch:
    """One decoded block, reduced to its stack-relevant columns.

    ``classes``/``pcs``/``next_pcs`` are parallel Python lists holding
    only call and return events (everything else is inert to a RAS);
    ``events`` is the block's full event count, kept for throughput
    accounting.
    """

    __slots__ = ("classes", "pcs", "next_pcs", "events")

    def __init__(self, classes: List[int], pcs: List[int],
                 next_pcs: List[int], events: int) -> None:
        self.classes = classes
        self.pcs = pcs
        self.next_pcs = next_pcs
        self.events = events

    def __len__(self) -> int:
        return len(self.classes)


def _bad_class_error(found: int) -> TraceFormatError:
    # Same message the streaming reader raises for the same byte.
    return TraceFormatError(
        f"bad control class: found {found}, expected < {_NUM_CLASSES}")


def _decode_block_numpy(raw: bytes, event_size: int,
                        count: int) -> EventBatch:
    rec = _np.frombuffer(
        raw, dtype=_V1_DTYPE if event_size == _V1_EVENT_SIZE else _V2_DTYPE)
    classes = rec["cls"]
    bad = classes >= _NUM_CLASSES
    if bad.any():
        raise _bad_class_error(int(classes[int(_np.flatnonzero(bad)[0])]))
    mask = classes == _RETURN_IDX
    for index in _CALL_IDXS:
        mask |= classes == index
    keep = _np.flatnonzero(mask)
    return EventBatch(
        classes[keep].tolist(),
        rec["pc"][keep].tolist(),
        rec["next"][keep].tolist(),
        count,
    )


def _decode_block_python(raw: bytes, event_size: int,
                         count: int) -> EventBatch:
    class_bytes = raw[::event_size]
    bad = _BAD_CLASS_RE.search(class_bytes)
    if bad is not None:
        raise _bad_class_error(class_bytes[bad.start()])
    unpack_from = (_PCS_V1 if event_size == _V1_EVENT_SIZE
                   else _PCS_V2).unpack_from
    classes: List[int] = []
    pcs: List[int] = []
    next_pcs: List[int] = []
    for match in _STACK_RE.finditer(class_bytes):
        index = match.start()
        classes.append(class_bytes[index])
        pc, next_pc = unpack_from(raw, index * event_size + 1)
        pcs.append(pc)
        next_pcs.append(next_pc)
    return EventBatch(classes, pcs, next_pcs, count)


def iter_event_batches(
    source: Union[str, os.PathLike, bytes, BinaryIO],
    block_events: int = DEFAULT_BLOCK_EVENTS,
) -> Iterator[EventBatch]:
    """Decode a trace (path, bytes, or stream) block-at-a-time.

    ``block_events`` only shapes v1 pseudo-blocks; v2 traces yield
    their physical compressed blocks.
    """
    decode = (_decode_block_numpy if decoder_backend() == "numpy"
              else _decode_block_python)
    if isinstance(source, (bytes, bytearray)):
        yield from _iter_stream(io.BytesIO(bytes(source)), decode,
                                block_events)
    elif isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "rb") as stream:
            yield from _iter_stream(stream, decode, block_events)
    else:
        yield from _iter_stream(source, decode, block_events)


def _iter_stream(stream: BinaryIO, decode, block_events: int
                 ) -> Iterator[EventBatch]:
    reader = TraceReader(stream)
    for event_size, raw, count in reader.iter_raw_blocks(block_events):
        yield decode(raw, event_size, count)


# ----------------------------------------------------------------------
# Replay lanes: inlined RAS semantics, one specialisation per
# organisation. Counters match repro.bpred.ras bit-for-bit; the proofs
# live in tests/test_batch_replay.py.

class _LaneBase:
    __slots__ = ("returns", "hits", "overflows", "underflows")

    def __init__(self) -> None:
        self.returns = 0
        self.hits = 0
        self.overflows = 0
        self.underflows = 0

    def result(self) -> TraceRasResult:
        return TraceRasResult(self.returns, self.hits,
                              self.overflows, self.underflows)


class _CircularLane(_LaneBase):
    """Circular buffer, any repair mechanism without valid bits.

    With no wrong paths in a committed trace, NONE / TOS_POINTER /
    TOS_POINTER_AND_CONTENTS / FULL_STACK replay identically: pops
    always yield the (zero-initialised) slot contents, so the BTB
    fallback can never be consulted and needs no modelling here.
    """

    __slots__ = ("_stack", "_entries", "_tos", "_depth")

    def __init__(self, entries: int) -> None:
        super().__init__()
        self._stack = [0] * entries
        self._entries = entries
        self._tos = 0
        self._depth = 0

    def run(self, batch: EventBatch) -> None:
        stack = self._stack
        entries = self._entries
        tos = self._tos
        depth = self._depth
        returns = hits = overflows = underflows = 0
        return_idx = _RETURN_IDX
        for cls, pc, next_pc in zip(batch.classes, batch.pcs,
                                    batch.next_pcs):
            if cls == return_idx:
                returns += 1
                if stack[tos] == next_pc:
                    hits += 1
                tos = (tos - 1) % entries
                if depth:
                    depth -= 1
                else:
                    underflows += 1
            else:  # batches hold only calls and returns
                tos = (tos + 1) % entries
                stack[tos] = pc + 4
                if depth == entries:
                    overflows += 1
                else:
                    depth += 1
        self._tos = tos
        self._depth = depth
        self.returns += returns
        self.hits += hits
        self.overflows += overflows
        self.underflows += underflows


class _ValidBitsLane(_LaneBase):
    """Circular buffer with Pentium-style valid bits.

    A pop of a never-written slot yields no prediction, so the BTB
    fallback is observable; the lane drives a real
    :class:`BranchTargetBuffer` with exactly the lookup/update sequence
    of the streaming evaluator.
    """

    __slots__ = ("_stack", "_valid", "_entries", "_tos", "_depth", "_btb")

    def __init__(self, entries: int, btb: Optional[BranchTargetBuffer]
                 ) -> None:
        super().__init__()
        self._stack = [0] * entries
        self._valid = [False] * entries
        self._entries = entries
        self._tos = 0
        self._depth = 0
        self._btb = btb

    def run(self, batch: EventBatch) -> None:
        stack = self._stack
        valid = self._valid
        entries = self._entries
        tos = self._tos
        depth = self._depth
        btb = self._btb
        return_idx = _RETURN_IDX
        for cls, pc, next_pc in zip(batch.classes, batch.pcs,
                                    batch.next_pcs):
            if cls == return_idx:
                if valid[tos]:
                    predicted: Optional[int] = stack[tos]
                elif btb is not None:
                    predicted = btb.lookup(pc)
                else:
                    predicted = None
                tos = (tos - 1) % entries
                if depth:
                    depth -= 1
                else:
                    self.underflows += 1
                self.returns += 1
                if predicted == next_pc:
                    self.hits += 1
                if btb is not None:
                    btb.update(pc, next_pc, True)
            else:
                tos = (tos + 1) % entries
                stack[tos] = pc + 4
                valid[tos] = True
                if depth == entries:
                    self.overflows += 1
                else:
                    depth += 1
        self._tos = tos
        self._depth = depth


class _LinkedLane(_LaneBase):
    """Jourdan-style self-checkpointing pool (see LinkedRas)."""

    __slots__ = ("_address", "_next", "_pool", "_tos", "_alloc", "_btb")

    def __init__(self, logical_entries: int, overprovision: int,
                 btb: Optional[BranchTargetBuffer]) -> None:
        super().__init__()
        self._pool = logical_entries * overprovision
        self._address = [0] * self._pool
        self._next = [-1] * self._pool
        self._tos = -1
        self._alloc = 0
        self._btb = btb

    def _is_live(self, slot: int) -> bool:
        index = self._tos
        links = self._next
        for _ in range(self._pool):
            if index == -1:
                return False
            if index == slot:
                return True
            index = links[index]
        return False

    def run(self, batch: EventBatch) -> None:
        address = self._address
        links = self._next
        pool = self._pool
        btb = self._btb
        return_idx = _RETURN_IDX
        for cls, pc, next_pc in zip(batch.classes, batch.pcs,
                                    batch.next_pcs):
            if cls == return_idx:
                tos = self._tos
                if tos == -1:
                    self.underflows += 1
                    predicted = None if btb is None else btb.lookup(pc)
                else:
                    predicted = address[tos]
                    self._tos = links[tos]
                self.returns += 1
                if predicted == next_pc:
                    self.hits += 1
                if btb is not None:
                    btb.update(pc, next_pc, True)
            else:
                slot = self._alloc
                self._alloc = (slot + 1) % pool
                if slot == self._tos or self._is_live(slot):
                    self.overflows += 1
                address[slot] = pc + 4
                links[slot] = self._tos
                self._tos = slot


class _ChampSimLane(_LaneBase):
    """ChampSim ``return_stack`` semantics, inlined (see ChampSimRas).

    The stack is a bounded deque of *call sites* that drops from the
    bottom on overflow; a return predicts top + learned call size, then
    calibrates the tracker against the resolved target. An empty-stack
    return yields no prediction, so the BTB fallback is observable and
    the lane drives a real :class:`BranchTargetBuffer` exactly like the
    streaming evaluator.
    """

    __slots__ = ("_stack", "_trackers", "_mask", "_entries", "_btb")

    def __init__(self, entries: int, btb: Optional[BranchTargetBuffer]
                 ) -> None:
        super().__init__()
        from repro.bpred.ras import ChampSimRas
        self._stack: List[int] = []
        self._trackers = ([ChampSimRas.DEFAULT_CALL_SIZE]
                          * ChampSimRas.NUM_CALL_SIZE_TRACKERS)
        self._mask = ChampSimRas.NUM_CALL_SIZE_TRACKERS - 1
        self._entries = entries
        self._btb = btb

    def run(self, batch: EventBatch) -> None:
        stack = self._stack
        trackers = self._trackers
        mask = self._mask
        entries = self._entries
        btb = self._btb
        return_idx = _RETURN_IDX
        for cls, pc, next_pc in zip(batch.classes, batch.pcs,
                                    batch.next_pcs):
            if cls == return_idx:
                if stack:
                    call_ip = stack.pop()
                    predicted: Optional[int] = (
                        call_ip + trackers[call_ip & mask])
                    size = (call_ip - next_pc if call_ip > next_pc
                            else next_pc - call_ip)
                    if size <= 10:
                        trackers[call_ip & mask] = size
                elif btb is not None:
                    self.underflows += 1
                    predicted = btb.lookup(pc)
                else:
                    self.underflows += 1
                    predicted = None
                self.returns += 1
                if predicted == next_pc:
                    self.hits += 1
                if btb is not None:
                    btb.update(pc, next_pc, True)
            else:
                stack.append(pc)
                if len(stack) > entries:
                    del stack[0]
                    self.overflows += 1


def _fallback_btb(btb_fallback: bool) -> Optional[BranchTargetBuffer]:
    return BranchTargetBuffer() if btb_fallback else None


def _make_lane(ras_entries: int, mechanism: RepairMechanism,
               btb_fallback: bool) -> _LaneBase:
    if ras_entries < 1:
        raise ConfigError("RAS needs at least one entry")
    if mechanism is RepairMechanism.SELF_CHECKPOINT:
        return _LinkedLane(ras_entries, 4, _fallback_btb(btb_fallback))
    if mechanism is RepairMechanism.VALID_BITS:
        return _ValidBitsLane(ras_entries, _fallback_btb(btb_fallback))
    if mechanism is RepairMechanism.CHAMPSIM:
        return _ChampSimLane(ras_entries, _fallback_btb(btb_fallback))
    # a circular stack always yields a prediction, so its BTB fallback
    # is unobservable and the lane never builds one
    return _CircularLane(ras_entries)


# ----------------------------------------------------------------------
# Replay entry points, mirroring repro.trace.replay.

def replay_batches(
    batches: Iterable[EventBatch],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Run pre-decoded batches through one RAS configuration."""
    lane = _make_lane(ras_entries, mechanism, btb_fallback)
    for batch in batches:
        lane.run(batch)
    return lane.result()


def replay_batches_multi(
    batches: Iterable[EventBatch],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Every stack size in one decode pass; independent lane state per
    size, so results equal per-size :func:`replay_batches` runs."""
    lanes = [_make_lane(size, mechanism, btb_fallback) for size in sizes]
    for batch in batches:
        for lane in lanes:
            lane.run(batch)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}


def _shard_parts(shard: Union[TraceShardSpec, str, os.PathLike]
                 ) -> "tuple[str, str]":
    if isinstance(shard, TraceShardSpec):
        return shard.path, shard.name
    path = os.fspath(shard)
    return path, path


def _count_metrics(blocks: int, events: int) -> None:
    if telemetry_state.enabled():
        registry = telemetry_metrics()
        registry.counter("batch.blocks").increment(blocks)
        registry.counter("batch.events").increment(events)


def replay_shard_batched(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Batched equivalent of :func:`repro.trace.replay.replay_shard`."""
    path, label = _shard_parts(shard)
    with span("replay/batch", shard=label, entries=ras_entries,
              decoder=decoder_backend()) as trace_span:
        lane = _make_lane(ras_entries, mechanism, btb_fallback)
        blocks = events = 0
        for batch in iter_event_batches(path):
            blocks += 1
            events += batch.events
            lane.run(batch)
        if trace_span is not None:
            trace_span.set(blocks=blocks, events=events)
        _count_metrics(blocks, events)
        return lane.result()


def replay_shard_batched_multi(
    shard: Union[TraceShardSpec, str, os.PathLike],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Batched equivalent of
    :func:`repro.trace.replay.replay_shard_multi`: one decode pass
    feeds every stack size."""
    path, label = _shard_parts(shard)
    with span("replay/batch-multi", shard=label, sizes=len(sizes),
              decoder=decoder_backend()) as trace_span:
        lanes = [_make_lane(size, mechanism, btb_fallback)
                 for size in sizes]
        blocks = events = 0
        for batch in iter_event_batches(path):
            blocks += 1
            events += batch.events
            for lane in lanes:
                lane.run(batch)
        if trace_span is not None:
            trace_span.set(blocks=blocks, events=events)
        _count_metrics(blocks, events)
        return {size: lane.result() for size, lane in zip(sizes, lanes)}
