"""Unit tests for the trace subsystem."""

import hashlib
import io
import pickle

import pytest

from repro.config import RepairMechanism
from repro.core.experiment import WorkloadSpec, build_program
from repro.corpus import CorpusStore
from repro.corpus.store import write_shard_file
from repro.emu import Emulator
from repro.errors import EmulationError
from repro.isa.assembler import ProgramBuilder
from repro.isa.opcodes import ControlClass
from repro.trace import (
    ControlFlowEvent,
    TraceRasEvaluator,
    TraceReader,
    TraceWriter,
    iter_control_events,
    record_trace,
)
from repro.trace.format import TraceFormatError
from repro.trace.replay import _Lane
from repro.workloads import BENCHMARK_NAMES, build_workload
from repro.workloads.kernels import fibonacci_kernel, loop_sum_kernel


class TestFormatRoundtrip:
    def _events(self):
        return [
            ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 400, gap=3),
            ControlFlowEvent(ControlClass.RETURN, 440, 104, gap=9),
            ControlFlowEvent(ControlClass.COND_BRANCH, 104, 108, gap=0),
        ]

    def test_write_read_roundtrip(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        for event in self._events():
            writer.append(event)
        assert writer.close() == 3
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.count == 3
        assert reader.read_all() == self._events()

    def test_taken_property(self):
        assert ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 400).taken
        assert not ControlFlowEvent(ControlClass.COND_BRANCH, 100, 104).taken

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"NOTATRACE" + b"\x00" * 16))

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"RA"))

    def test_truncated_body_rejected(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        writer.append(self._events()[0])
        writer.close()
        truncated = buffer.getvalue()[:-2]
        reader = TraceReader(io.BytesIO(truncated))
        with pytest.raises(TraceFormatError):
            reader.read_all()


class TestRecording:
    def test_event_count_matches_emulator(self):
        program = fibonacci_kernel(8)
        stats = Emulator(program).run()
        trace = record_trace(program)
        events = TraceReader(io.BytesIO(trace)).read_all()
        expected_controls = (stats.calls + stats.returns
                             + stats.cond_branches + stats.direct_jumps
                             + stats.indirect_jumps)
        assert len(events) == expected_controls

    def test_gaps_account_for_every_instruction(self):
        program = loop_sum_kernel(20)
        stats = Emulator(program).run()
        events = TraceReader(io.BytesIO(record_trace(program))).read_all()
        # every instruction is either an event or inside a gap, except
        # the trailing non-control tail (here: the halt).
        covered = len(events) + sum(e.gap for e in events)
        assert covered <= stats.instructions
        assert covered >= stats.instructions - 2

    def test_record_to_file(self, tmp_path):
        path = tmp_path / "t.trace"
        count = record_trace(fibonacci_kernel(6), str(path))
        with open(path, "rb") as stream:
            reader = TraceReader(stream)
            assert reader.count == count
            assert len(reader.read_all()) == count


def _reference_events(program, max_instructions=50_000_000):
    """The control stream derived from the golden-model emulator."""
    gap = 0
    emulator = Emulator(program, max_instructions=max_instructions)
    for record in emulator.trace():
        inst = program.fetch(record.pc)
        if inst.is_control:
            yield ControlFlowEvent(inst.control, record.pc,
                                   record.next_pc, gap)
            gap = 0
        else:
            gap += 1


def _drain(events):
    """Collect ``events`` up to the end or the first EmulationError;
    returns ``(events, error message or None)``."""
    collected = []
    try:
        for event in events:
            collected.append(event)
    except EmulationError as error:
        return collected, str(error)
    return collected, None


class TestCaptureParity:
    """Capture runs the decode table's handlers; the emulator is its
    oracle, event for event and error for error."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_stream_matches_emulator(self, name, seed):
        program = build_program(WorkloadSpec(name, seed, 0.05))
        assert (list(iter_control_events(program))
                == list(_reference_events(program)))

    def test_shard_bytes_match_emulator_recording(self, tmp_path):
        specs = [WorkloadSpec(name, 1, 0.05) for name in ("li", "vortex")]
        store = CorpusStore.create(tmp_path / "corpus")
        records = store.build_from_specs(specs)
        for spec, record in zip(specs, records):
            path = tmp_path / f"{record.name}.reference"
            counts = write_shard_file(
                path, _reference_events(build_program(spec)))
            assert counts == (record.events, record.calls, record.returns)
            assert (hashlib.sha256(path.read_bytes()).hexdigest()
                    == record.checksum)

    @pytest.mark.parametrize("limit", [1, 7, 100])
    def test_watchdog_matches_emulator(self, limit):
        program = fibonacci_kernel(8)
        captured = _drain(iter_control_events(program,
                                              max_instructions=limit))
        reference = _drain(_reference_events(program,
                                             max_instructions=limit))
        assert captured == reference
        assert captured[1] == (
            f"watchdog: {limit} instructions without HALT")

    @pytest.mark.parametrize("limit", [1, 7, 100])
    def test_watchdog_stops_at_the_limit(self, limit):
        # Every instruction of a spin loop is an event, so the event
        # count shows exactly how many instructions ran.
        b = ProgramBuilder()
        b.label("main")
        b.j("main")
        program = b.build(entry="main")
        captured = _drain(iter_control_events(program,
                                              max_instructions=limit))
        assert captured == _drain(_reference_events(
            program, max_instructions=limit))
        assert len(captured[0]) == limit

    @pytest.mark.parametrize("target", [0x9999000, 6])
    def test_jump_out_of_text_matches_emulator(self, target):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 3)
        b.label("top")
        b.addi(1, 1, -1)
        b.bnez(1, "top")
        b.li(2, target)
        b.jr(2)
        b.halt()
        program = b.build(entry="main")
        captured = _drain(iter_control_events(program))
        assert captured == _drain(_reference_events(program))
        events, error = captured
        assert [event.control for event in events] == (
            [ControlClass.COND_BRANCH] * 3 + [ControlClass.JUMP_INDIRECT])
        assert error == f"fetch from {target}: outside text segment"


class TestTraceRasEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self):
        program = build_workload("vortex", seed=1, scale=0.1)
        return TraceRasEvaluator(record_trace(program))

    def test_calls_balance_returns(self, evaluator):
        calls, returns = evaluator.call_return_counts()
        assert calls == returns > 50

    def test_large_stack_is_perfect_without_wrong_paths(self, evaluator):
        result = evaluator.evaluate(ras_entries=128)
        assert result.accuracy == pytest.approx(1.0)
        assert result.overflows == 0

    def test_tiny_stack_overflows(self, evaluator):
        result = evaluator.evaluate(ras_entries=2)
        assert result.overflows > 0
        assert result.accuracy < 1.0

    def test_depth_sweep_monotone_ends(self, evaluator):
        sweep = evaluator.depth_sweep((1, 4, 64))
        assert sweep[64].accuracy >= sweep[1].accuracy

    def test_accepts_event_list(self):
        events = [
            ControlFlowEvent(ControlClass.CALL_DIRECT, 0, 100),
            ControlFlowEvent(ControlClass.RETURN, 140, 4),
        ]
        result = TraceRasEvaluator(events).evaluate(ras_entries=8)
        assert result.returns == 1
        assert result.accuracy == pytest.approx(1.0)

    def test_empty_trace(self):
        result = TraceRasEvaluator([]).evaluate()
        assert result.returns == 0
        assert result.accuracy is None

    def test_linked_ras_mechanism(self, evaluator):
        result = evaluator.evaluate(
            ras_entries=64, mechanism=RepairMechanism.SELF_CHECKPOINT)
        assert result.accuracy > 0.99


_INERT_CLASSES = (ControlClass.NOT_CONTROL, ControlClass.COND_BRANCH,
                  ControlClass.JUMP_DIRECT, ControlClass.JUMP_INDIRECT)


class TestLaneStepIsTotal:
    """The replay loops drop inert events before the lane, which is
    only sound while ``_Lane.step`` itself treats them as no-ops."""

    @staticmethod
    def _primed_lane(mechanism, btb_fallback):
        # five calls into a four-entry stack, then six returns: the
        # lane has pushed past its size, hit, missed and run dry
        lane = _Lane(4, mechanism, btb_fallback)
        for pc in range(0x100, 0x600, 0x100):
            lane.step(ControlFlowEvent(ControlClass.CALL_INDIRECT, pc,
                                       pc + 0x1000))
        for pc in range(0x500, 0x0, -0x100):
            lane.step(ControlFlowEvent(ControlClass.RETURN, pc + 0x1800,
                                       pc + 4))
        lane.step(ControlFlowEvent(ControlClass.RETURN, 0x9000, 0x9100))
        lane.step(ControlFlowEvent(ControlClass.CALL_DIRECT, 0x700, 0x2000))
        return lane

    @staticmethod
    def _state(lane):
        def stats(group):
            return {name: group[name].value for name in group.names()}

        btb = None if lane.btb is None else (
            stats(lane.btb.stats), pickle.dumps(lane.btb))
        return (lane.returns, lane.hits, stats(lane.ras.stats),
                pickle.dumps(lane.ras), btb)

    @pytest.mark.parametrize("control", _INERT_CLASSES,
                             ids=lambda control: control.value)
    @pytest.mark.parametrize("btb_fallback", (True, False),
                             ids=("btb", "no-btb"))
    @pytest.mark.parametrize("mechanism", list(RepairMechanism),
                             ids=lambda mechanism: mechanism.value)
    def test_inert_event_is_a_no_op(self, mechanism, btb_fallback,
                                    control):
        lane = self._primed_lane(mechanism, btb_fallback)
        before = self._state(lane)
        assert before[0] == 6 and before[2]["pushes"] == 6
        assert lane.step(ControlFlowEvent(control, 0x800, 0x3000)) is None
        assert self._state(lane) == before

    @pytest.mark.parametrize("mechanism", list(RepairMechanism),
                             ids=lambda mechanism: mechanism.value)
    def test_both_call_classes_push(self, mechanism):
        for call in (ControlClass.CALL_DIRECT, ControlClass.CALL_INDIRECT):
            lane = _Lane(4, mechanism, btb_fallback=False)
            assert lane.step(ControlFlowEvent(call, 0x100, 0x2000)) is None
            assert lane.ras.stats["pushes"].value == 1
