"""Tests for the differential-parity harness itself.

The harness guards the fast engines' bit-identical-counters contract,
so these tests guard the guard: beyond checking that clean runs pass,
they inject corrupted and missing counters and assert the harness
fails loudly — a parity checker that can silently pass is worse than
none.
"""

import pytest

from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core.experiment import multipath_machine
from repro.fastsim import cycle as cycle_module
from repro.fastsim import multipath as multipath_module
from repro.fastsim.parity import (
    ParityError,
    check_cycle_parity,
    check_multipath_parity,
    compare_flat,
    flatten_group,
    parity_sweep,
)
from repro.stats.counters import StatGroup
from repro.workloads.generator import build_workload


def _program():
    return build_workload("li", seed=1, scale=0.01)


class TestFlatten:
    def test_counters_and_rates(self):
        group = StatGroup("g")
        group.counter("hits").increment(7)
        rate = group.rate("accuracy")
        rate.record_many(3, 4)
        flat = flatten_group(group)
        assert flat == {"hits": 7, "accuracy": (3, 4)}

    def test_rates_compare_as_integer_pairs_not_floats(self):
        # 1/2 and 2/4 have the same float value but are NOT parity.
        a, b = StatGroup("a"), StatGroup("b")
        a.rate("r").record_many(1, 2)
        b.rate("r").record_many(2, 4)
        assert not compare_flat(flatten_group(a), flatten_group(b)).matches


class TestCompare:
    def test_identical_dicts_match(self):
        report = compare_flat({"a": 1, "r": (2, 3)}, {"a": 1, "r": (2, 3)})
        assert report.matches
        report.ensure()  # must not raise

    def test_value_mismatch_reported(self):
        report = compare_flat({"a": 1}, {"a": 2}, label="cell")
        assert not report.matches
        assert report.mismatches[0].name == "a"
        assert report.mismatches[0].reference == 1
        assert report.mismatches[0].fast == 2

    def test_missing_key_is_a_mismatch_on_either_side(self):
        assert not compare_flat({"a": 1, "b": 2}, {"a": 1}).matches
        assert not compare_flat({"a": 1}, {"a": 1, "b": 2}).matches

    def test_ensure_raises_with_counter_names(self):
        report = compare_flat({"cycles": 10, "squashed": 3},
                              {"cycles": 11, "squashed": 3},
                              label="cycle/li/none/ras8")
        with pytest.raises(ParityError) as excinfo:
            report.ensure()
        message = str(excinfo.value)
        assert "cycle/li/none/ras8" in message
        assert "cycles" in message
        assert "reference=10" in message and "fast=11" in message


class TestRealCells:
    def test_cycle_cell_clean(self):
        check_cycle_parity(_program(), baseline_config()).ensure()

    def test_multipath_cell_clean(self):
        config = multipath_machine(2, StackOrganization.PER_PATH)
        check_multipath_parity(_program(), config).ensure()

    def test_sweep_covers_requested_matrix(self):
        reports = parity_sweep(
            ["li"], scale=0.01,
            mechanisms=[RepairMechanism.NONE, RepairMechanism.FULL_STACK],
            ras_entries=(8,), paths=(2,),
            organizations=[StackOrganization.PER_PATH])
        labels = [r.label for r in reports]
        assert labels == [
            "cycle/li/none/ras8",
            "cycle/li/full-stack/ras8",
            "multipath/li/p2/per-path",
        ]
        for report in reports:
            report.ensure()


class TestCorruptionInjection:
    """A tampered fast engine must be detected, never silently passed."""

    def test_corrupted_cycle_counter_detected(self, monkeypatch):
        real = cycle_module.run_cycle_fast

        def tampered(program, config=None, max_instructions=None):
            result, cpu = real(program, config,
                               max_instructions=max_instructions)
            result.group["ras_pushes"].value += 1
            return result, cpu

        monkeypatch.setattr(cycle_module, "run_cycle_fast", tampered)
        report = check_cycle_parity(_program())
        assert not report.matches
        assert [m.name for m in report.mismatches] == ["ras_pushes"]
        with pytest.raises(ParityError):
            report.ensure()

    def test_corrupted_multipath_counter_detected(self, monkeypatch):
        real = multipath_module.run_multipath_fast

        def tampered(program, config, max_instructions=None):
            result, cpu = real(program, config,
                               max_instructions=max_instructions)
            result.group["forks"].value += 1
            return result, cpu

        monkeypatch.setattr(multipath_module, "run_multipath_fast", tampered)
        config = multipath_machine(2, StackOrganization.PER_PATH)
        report = check_multipath_parity(_program(), config)
        assert not report.matches
        assert [m.name for m in report.mismatches] == ["forks"]

    def test_dropped_counter_detected(self, monkeypatch):
        real = cycle_module.run_cycle_fast

        def lossy(program, config=None, max_instructions=None):
            result, cpu = real(program, config,
                               max_instructions=max_instructions)
            del result.group._stats["squashed"]
            return result, cpu

        monkeypatch.setattr(cycle_module, "run_cycle_fast", lossy)
        report = check_cycle_parity(_program())
        assert [m.name for m in report.mismatches] == ["squashed"]
        assert report.mismatches[0].fast == "<absent>"


class TestCli:
    def test_parity_command_clean(self, capsys):
        assert cli_main(["parity", "--names", "li", "--scale", "0.01",
                         "--ras-entries", "8", "--no-multipath"]) == 0
        out = capsys.readouterr().out
        assert "cycle/li/self-checkpoint/ras8" in out
        assert "DIVERGING" not in out

    def test_parity_command_fails_on_divergence(self, monkeypatch, capsys):
        real = cycle_module.run_cycle_fast

        def tampered(program, config=None, max_instructions=None):
            result, cpu = real(program, config,
                               max_instructions=max_instructions)
            result.group["cycles"].value += 1
            return result, cpu

        monkeypatch.setattr(cycle_module, "run_cycle_fast", tampered)
        assert cli_main(["parity", "--names", "li", "--scale", "0.01",
                         "--ras-entries", "8", "--no-multipath"]) == 1
        captured = capsys.readouterr()
        assert "DIVERGING" in captured.out
        assert "cycles" in captured.err
