"""Control-flow traces: record once, sweep predictors many times.

The paper's methodology is execution-driven, but trace-driven studies
are the classic cheap alternative: record the committed control-flow
stream once, then replay it through any number of predictor
configurations without re-emulating. This package provides the binary
trace containers (`TraceWriter` / `TraceReader`; flat v1 and chunked,
compressed, CRC-protected v2 — see docs/traces.md), a recorder that
executes programs on the fast engines' decode-table handlers (the
reference emulator is its parity oracle), and streaming trace-driven
return-address-stack evaluation used for corruption-free sweeps. The
corpus layer on top — durable shard directories, manifests, ChampSim
import — lives in :mod:`repro.corpus`.

Limitation, by design: a control-flow trace contains only the committed
path, so trace-driven replay cannot model wrong-path corruption — use
`repro.fastsim` (wrong-path replay) or the cycle models for that. The
trace evaluator is the right tool for overflow/underflow and capacity
questions, which depend only on the committed call/return structure.
"""

from repro.trace.format import (
    ControlFlowEvent,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    iter_control_events,
    iter_trace_file,
    record_trace,
    write_trace,
)
from repro.trace.replay import (
    TraceRasEvaluator,
    TraceRasResult,
    TraceShardSpec,
    replay_events,
    replay_events_multi,
    replay_shard,
    replay_shard_multi,
)

__all__ = [
    "ControlFlowEvent",
    "TraceFormatError",
    "TraceRasEvaluator",
    "TraceRasResult",
    "TraceReader",
    "TraceShardSpec",
    "TraceWriter",
    "iter_control_events",
    "iter_trace_file",
    "record_trace",
    "replay_events",
    "replay_events_multi",
    "replay_shard",
    "replay_shard_multi",
    "write_trace",
]
