"""Tests for the columnar cycle engines and their executor wiring.

The deep parity matrix (every repair mechanism and stack size) lives
here; the harness that performs the comparison
is itself tested in ``tests/test_parity_harness.py``.
"""

import gc
import weakref

import pytest

from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core import ExperimentJob, SweepExecutor
from repro.core.executor import ENGINES
from repro.core.experiment import (
    WorkloadSpec,
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.fastsim import decode as decode_module
from repro.fastsim.cycle import run_cycle_fast
from repro.fastsim.decode import DecodeTable
from repro.fastsim.multipath import run_multipath_fast
from repro.fastsim.parity import flatten_group
from repro.isa.opcodes import Opcode
from repro.pipeline.inflight import dest_reg, exec_latency, source_regs
from repro.workloads.generator import build_workload

SPEC = WorkloadSpec("li", seed=1, scale=0.02)


def _program(name="li", scale=0.02):
    return build_workload(name, seed=1, scale=scale)


class TestCycleParityMatrix:
    @pytest.mark.parametrize("mechanism", list(RepairMechanism))
    @pytest.mark.parametrize("entries", [8, 32])
    def test_every_mechanism_and_stack_size(self, mechanism, entries):
        config = (baseline_config()
                  .with_repair(mechanism)
                  .with_ras_entries(entries))
        program = _program()
        reference, _ = run_cycle(program, config)
        fast, _ = run_cycle_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    def test_no_ras_machine(self):
        config = baseline_config().without_ras()
        program = _program()
        reference, _ = run_cycle(program, config)
        fast, _ = run_cycle_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    def test_max_instructions_truncation(self):
        program = _program()
        reference, _ = run_cycle(program, baseline_config(),
                                 max_instructions=500)
        fast, _ = run_cycle_fast(program, baseline_config(),
                                 max_instructions=500)
        assert reference.instructions == fast.instructions == 500
        assert flatten_group(reference.group) == flatten_group(fast.group)


class TestMultipathParity:
    @pytest.mark.parametrize("organization", list(StackOrganization))
    def test_every_stack_organization(self, organization):
        config = multipath_machine(2, organization)
        program = _program()
        reference, _ = run_multipath(program, config)
        fast, _ = run_multipath_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    def test_wider_path_budget(self):
        config = multipath_machine(4, StackOrganization.PER_PATH)
        program = _program()
        reference, _ = run_multipath(program, config)
        fast, _ = run_multipath_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)


#: Each fast engine with a machine it runs, for the decode-memo tests.
ENGINE_RUNS = {
    "cycle-fast": (run_cycle_fast, baseline_config()),
    "multipath-fast": (run_multipath_fast,
                       multipath_machine(2, StackOrganization.PER_PATH)),
}


class TestDecodeMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(decode_module, "_LAST", None)
        monkeypatch.setattr(decode_module, "_PACKED",
                            weakref.WeakKeyDictionary())

    @pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
    def test_memo_holds_only_the_last_program(self, engine):
        run, config = ENGINE_RUNS[engine]
        first, second = _program("li"), _program("go")
        run(first, config)
        run(second, config)
        gc.collect()
        live = [table for table in gc.get_objects()
                if isinstance(table, DecodeTable)
                and (table.program is first or table.program is second)]
        assert len(live) == 1 and live[0].program is second

    @pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
    def test_back_to_back_configs_share_one_table(self, engine):
        run, config = ENGINE_RUNS[engine]
        program = _program()
        _, first = run(program, config)
        _, second = run(program, config.without_ras())
        assert second.decode is first.decode

    @pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
    def test_revisit_expands_the_packed_form(self, engine, monkeypatch):
        run, config = ENGINE_RUNS[engine]
        first, second = _program("li"), _program("go")
        before, cpu = run(first, config)
        run(second, config)

        def not_again(inst):
            raise AssertionError("a revisited program was decoded again")

        monkeypatch.setattr(decode_module, "dest_reg", not_again)
        monkeypatch.setattr(decode_module, "source_regs", not_again)
        again, revisit = run(first, config)
        assert revisit.decode is not cpu.decode
        assert flatten_group(again.group) == flatten_group(before.group)

    def test_columns_match_the_instructions(self):
        program = _program()
        table = DecodeTable(program)
        text = program.text
        assert table.size == len(text)
        assert table.control == [inst.control for inst in text]
        assert table.is_control == [inst.is_control for inst in text]
        assert table.is_load == [inst.opcode is Opcode.LOAD for inst in text]
        assert table.is_store == [inst.opcode is Opcode.STORE
                                  for inst in text]
        assert table.is_memory == [a or b for a, b in zip(table.is_load,
                                                          table.is_store)]
        assert table.is_mul == [inst.opcode is Opcode.MUL for inst in text]
        assert table.is_halt == [inst.opcode is Opcode.HALT for inst in text]
        assert table.latency == [exec_latency(inst) for inst in text]
        assert table.dest == [-1 if dest_reg(inst) is None else dest_reg(inst)
                              for inst in text]
        sources = [source_regs(inst) + (-1, -1) for inst in text]
        assert table.src1 == [regs[0] for regs in sources]
        assert table.src2 == [regs[1] for regs in sources]
        # one shared handler per opcode, no per-instruction closures
        assert {id(fn) for fn in table.exec_fns} == {
            id(decode_module._EXEC_BY_ID[decode_module._OP_ID[inst.opcode]])
            for inst in text}


class TestExecutorWiring:
    def test_fast_engines_registered(self):
        assert "cycle-fast" in ENGINES
        assert "multipath-fast" in ENGINES

    def test_cycle_fast_job_matches_cycle_job(self):
        config = baseline_config()
        executor = SweepExecutor(cache=None)
        reference, fast = executor.run([
            ExperimentJob(SPEC, config, "cycle"),
            ExperimentJob(SPEC, config, "cycle-fast"),
        ])
        assert fast.cycles == reference.cycles
        assert fast.instructions == reference.instructions
        assert fast.counters == reference.counters
        assert fast.rates == reference.rates  # includes btb_hit_rate

    def test_multipath_fast_job_matches_multipath_job(self):
        config = multipath_machine(2, StackOrganization.PER_PATH)
        executor = SweepExecutor(cache=None)
        reference, fast = executor.run([
            ExperimentJob(SPEC, config, "multipath"),
            ExperimentJob(SPEC, config, "multipath-fast"),
        ])
        assert fast.cycles == reference.cycles
        assert fast.counters == reference.counters
        assert fast.rates == reference.rates

    def test_fast_engine_has_distinct_cache_key(self):
        config = baseline_config()
        slow = ExperimentJob(SPEC, config, "cycle")
        fast = ExperimentJob(SPEC, config, "cycle-fast")
        assert slow.cache_key() != fast.cache_key()


class TestCli:
    def test_run_engine_fast_single_path(self, capsys):
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert cli_main(["run", "--benchmark", "li",
                         "--scale", "0.02"]) == 0
        reference_out = capsys.readouterr().out
        assert fast_out == reference_out

    def test_run_engine_fast_multipath(self, capsys):
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--paths", "2", "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--paths", "2"]) == 0
        assert fast_out == capsys.readouterr().out
