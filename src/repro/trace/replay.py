"""Trace-driven return-address-stack evaluation.

Replays a recorded control-flow trace through a RAS (and a BTB for the
fallback path), measuring return accuracy without re-emulating the
program. No wrong paths exist in a committed trace, so this measures
the *capacity* behaviour — overflow and underflow under deep call
chains — in isolation from corruption. Sweeping stack sizes over a
recorded trace is hundreds of times faster than re-running the cycle
model.

Everything here streams: :func:`replay_events` consumes any event
iterable without materialising it, and :func:`replay_events_multi`
evaluates a whole grid of stack sizes in a single pass over the events
— the shape a depth sweep over an on-disk shard wants, since decoding
the trace once is the dominant cost.

Only calls and returns touch a RAS, and they are 8–58% of a shard's
events (36% over perfbench's corpus-replay corpus). Both replay loops
therefore test each event's class by identity and hand only those two
kinds to the lane; :meth:`_Lane.step` stays total, a no-op on every
other class, so dropping inert events early cannot change a counter.
In the ``repro.trace`` layer this, with the per-event locals bound once
in :meth:`~repro.trace.format.TraceReader._iter_v2`, took one
streaming pass over that 228,267-event corpus from 290–457 ms to
189–229 ms (one pinned core, min of 5); before it, every event paid
a ``lane.step`` call and a ``ControlClass.is_call`` property call.
This module stays the parity oracle for :mod:`repro.fastsim.batch`:
it replays the public event stream through real
:mod:`repro.bpred.ras` and BTB objects.

:class:`TraceShardSpec` is the durable, picklable identity of one
on-disk trace shard; it is what corpus sweeps ship to executor workers
(see :mod:`repro.core.executor`'s ``"trace"`` engine) and what cache
keys hash (via the shard checksum).
"""

from __future__ import annotations

import dataclasses
import io
import os
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import make_ras
from repro.config.options import RepairMechanism
from repro.errors import ReproError
from repro.isa.opcodes import ControlClass
from repro.telemetry import span
from repro.trace.format import (
    ControlFlowEvent,
    TraceReader,
    iter_trace_file,
)

#: The only classes that touch a RAS. Replay loops test ``is`` against
#: these before calling a lane: identity is one C-level compare, where
#: ``ControlClass.is_call`` or set membership runs Python code (the
#: enum's ``__hash__``) for every event.
_RETURN = ControlClass.RETURN
_CALL_DIRECT = ControlClass.CALL_DIRECT
_CALL_INDIRECT = ControlClass.CALL_INDIRECT


class TraceRasResult:
    """Return-prediction summary of one trace replay."""

    __slots__ = ("returns", "hits", "overflows", "underflows")

    def __init__(self, returns: int, hits: int,
                 overflows: int, underflows: int) -> None:
        self.returns = returns
        self.hits = hits
        self.overflows = overflows
        self.underflows = underflows

    @property
    def accuracy(self) -> Optional[float]:
        if self.returns == 0:
            return None
        return self.hits / self.returns

    def __repr__(self) -> str:
        shown = "n/a" if self.accuracy is None else f"{self.accuracy:.4f}"
        return (f"TraceRasResult(returns={self.returns}, acc={shown}, "
                f"overflows={self.overflows})")


@dataclasses.dataclass(frozen=True)
class TraceShardSpec:
    """Identity of one on-disk trace shard.

    ``checksum`` (SHA-256 of the shard file) is the cache identity: two
    shards with equal checksums hold bit-identical traces, wherever
    their files live, so executor cache keys hash the checksum and name
    but never the path. The optional counts ride along so result
    summaries need not re-scan the shard.
    """

    name: str
    path: str
    checksum: Optional[str] = None
    events: Optional[int] = None
    calls: Optional[int] = None
    returns: Optional[int] = None


class _Lane:
    """Replay state for one RAS configuration during a shared pass.

    The ``champsim`` mechanism replays through the native ChampSim API:
    calls push the *call site*, and a return peeks the prediction, then
    calibrates the call-size tracker against the resolved target — the
    semantics :mod:`repro.corpus.diffcheck` cross-validates against an
    independent transliteration of the C++.
    """

    __slots__ = ("ras", "btb", "returns", "hits", "_champsim")

    def __init__(self, ras_entries: int, mechanism: RepairMechanism,
                 btb_fallback: bool) -> None:
        self.ras = make_ras(ras_entries, mechanism)
        self.btb = BranchTargetBuffer() if btb_fallback else None
        self.returns = 0
        self.hits = 0
        self._champsim = mechanism is RepairMechanism.CHAMPSIM

    def step(self, event: ControlFlowEvent) -> Optional[int]:
        """Advance one event; returns the prediction made for a RETURN
        (``None`` both for non-returns and for no-prediction returns —
        callers that care about the distinction check ``event.control``).

        Total over every control class: calls push, returns predict,
        and every other class is a no-op, so the replay loops may drop
        inert events before calling here without changing a counter.
        """
        control = event.control
        if control is _RETURN:
            if self._champsim:
                predicted = self.ras.prediction()
                self.ras.calibrate_call_size(event.next_pc)
            else:
                predicted = self.ras.pop()
            if predicted is None and self.btb is not None:
                predicted = self.btb.lookup(event.pc)
            self.returns += 1
            if predicted == event.next_pc:
                self.hits += 1
            if self.btb is not None:
                self.btb.update(event.pc, event.next_pc, True)
            return predicted
        if control is _CALL_DIRECT or control is _CALL_INDIRECT:
            if self._champsim:
                self.ras.push_call(event.pc)
            else:
                self.ras.push(event.pc + 4)
        return None

    def result(self) -> TraceRasResult:
        return TraceRasResult(
            self.returns, self.hits,
            self.ras.stats["overflows"].value,
            self.ras.stats["underflows"].value,
        )


def replay_events(
    events: Iterable[ControlFlowEvent],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Stream ``events`` through one RAS configuration.

    ``mechanism`` matters only for organisations whose *normal*
    behaviour differs (valid bits / self-checkpointing); with no wrong
    paths there is nothing to repair. The iterable is consumed exactly
    once and never materialised.
    """
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    step = lane.step
    for event in events:
        control = event.control
        if control is _RETURN or control is _CALL_DIRECT \
                or control is _CALL_INDIRECT:
            step(event)
    return lane.result()


def replay_events_multi(
    events: Iterable[ControlFlowEvent],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Evaluate every stack size in one pass over ``events``.

    Each size gets fully independent predictor state, so the results
    are identical to running :func:`replay_events` once per size — but
    the trace is decoded once instead of ``len(sizes)`` times, which is
    what makes depth sweeps over compressed on-disk shards cheap.
    """
    lanes = [_Lane(size, mechanism, btb_fallback) for size in sizes]
    steps = [lane.step for lane in lanes]
    for event in events:
        control = event.control
        if control is _RETURN or control is _CALL_DIRECT \
                or control is _CALL_INDIRECT:
            for step in steps:
                step(event)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}


def replay_shard(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Stream one on-disk shard (v1 or v2) through a RAS configuration."""
    path = shard.path if isinstance(shard, TraceShardSpec) else os.fspath(shard)
    label = shard.name if isinstance(shard, TraceShardSpec) else path
    with span("trace/replay", shard=label, entries=ras_entries):
        return replay_events(iter_trace_file(path), ras_entries, mechanism,
                             btb_fallback)


def replay_shard_multi(
    shard: Union[TraceShardSpec, str, os.PathLike],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Depth-sweep one on-disk shard in a single streaming pass."""
    path = shard.path if isinstance(shard, TraceShardSpec) else os.fspath(shard)
    label = shard.name if isinstance(shard, TraceShardSpec) else path
    with span("trace/replay-multi", shard=label, sizes=len(sizes)):
        return replay_events_multi(iter_trace_file(path), sizes, mechanism,
                                   btb_fallback)


_EventSource = Callable[[], Iterator[ControlFlowEvent]]


class TraceRasEvaluator:
    """Replay traces through RAS configurations.

    Accepts trace ``bytes``, a path to an on-disk trace, a sequence of
    events, a zero-argument factory returning a fresh event iterator,
    or a one-shot iterator. All of these are consumed *streaming* — the
    evaluator never builds a full event list. Re-iterable sources
    (bytes, paths, sequences, factories) support any number of
    evaluations; a one-shot iterator supports exactly one pass and a
    second pass raises :class:`~repro.errors.ReproError` instead of
    silently replaying nothing.
    """

    def __init__(
        self,
        trace: Union[bytes, str, os.PathLike, Sequence[ControlFlowEvent],
                     Iterable[ControlFlowEvent], _EventSource],
    ) -> None:
        self._one_shot: Optional[Iterator[ControlFlowEvent]] = None
        self._consumed = False
        if isinstance(trace, (bytes, bytearray)):
            data = bytes(trace)
            self._source: _EventSource = (
                lambda: iter(TraceReader(io.BytesIO(data))))
        elif isinstance(trace, (str, os.PathLike)):
            path = os.fspath(trace)
            self._source = lambda: iter_trace_file(path)
        elif callable(trace):
            self._source = trace
        elif isinstance(trace, Sequence):
            self._source = lambda: iter(trace)
        else:
            self._one_shot = iter(trace)
            self._source = self._consume_one_shot

    def _consume_one_shot(self) -> Iterator[ControlFlowEvent]:
        if self._consumed:
            raise ReproError(
                "trace iterator already consumed; pass bytes, a path, a "
                "sequence, or an iterator factory to evaluate more than once")
        self._consumed = True
        assert self._one_shot is not None
        return self._one_shot

    @property
    def events(self) -> List[ControlFlowEvent]:
        """The full event list (materialises one streaming pass)."""
        return list(self._source())

    def evaluate(
        self,
        ras_entries: int = 32,
        mechanism: RepairMechanism = RepairMechanism.NONE,
        btb_fallback: bool = True,
    ) -> TraceRasResult:
        """Measure return accuracy for one stack configuration."""
        return replay_events(self._source(), ras_entries, mechanism,
                             btb_fallback)

    def depth_sweep(
        self,
        sizes: Iterable[int],
        mechanism: RepairMechanism = RepairMechanism.NONE,
    ) -> "dict[int, TraceRasResult]":
        """Capacity sweep: accuracy and overflow counts per stack size.

        Runs all sizes in one pass over the source (see
        :func:`replay_events_multi`); results are identical to calling
        :meth:`evaluate` per size.
        """
        return replay_events_multi(self._source(), list(sizes), mechanism)

    def call_return_counts(self) -> "tuple[int, int]":
        calls = 0
        returns = 0
        for event in self._source():
            control = event.control
            if control is _CALL_DIRECT or control is _CALL_INDIRECT:
                calls += 1
            elif control is _RETURN:
                returns += 1
        return calls, returns
