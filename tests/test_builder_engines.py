"""The table and sweep builders run on the columnar twins.

Every cycle-level job a builder in :mod:`repro.core.tables` or
:mod:`repro.core.sweep` emits names ``cycle-fast`` or
``multipath-fast``; the reference CPUs are parity oracles only. These
tests pin both halves of that contract: no builder asks for a reference
engine, and the jobs of the headline tables, swapped back to their
reference engine, show zero differences under
:mod:`repro.fastsim.parity`.
"""

import dataclasses
import inspect

import pytest

from repro.config.options import RepairMechanism
from repro.core import SweepExecutor, sweep, tables
from repro.core.experiment import WorkloadSpec
from repro.fastsim.parity import check_cycle_parity, check_multipath_parity

SPEC = WorkloadSpec("li", seed=1, scale=0.02)

#: Each twin's reference engine and the harness that compares them.
REFERENCES = {
    "cycle-fast": ("cycle", check_cycle_parity),
    "multipath-fast": ("multipath", check_multipath_parity),
}


class _Captured(Exception):
    def __init__(self, jobs):
        super().__init__(len(jobs))
        self.jobs = jobs


class _CapturingExecutor(SweepExecutor):
    """Hands the submitted jobs back instead of running them."""

    def __init__(self):
        super().__init__(jobs=1, cache=None, ledger=None)

    def run(self, jobs):
        raise _Captured(list(jobs))


def _jobs(build, **kwargs):
    with pytest.raises(_Captured) as captured:
        build(executor=_CapturingExecutor(), **kwargs)
    return captured.value.jobs


def _table_builders():
    return [function for name, function in vars(tables).items()
            if inspect.isfunction(function) and not name.startswith("_")
            and "executor" in inspect.signature(function).parameters]


SWEEPS = {
    "mechanism_sweep": lambda executor: sweep.mechanism_sweep(
        SPEC, list(RepairMechanism), executor=executor),
    "stack_depth_sweep(cycle)": lambda executor: sweep.stack_depth_sweep(
        SPEC, (4, 32), use_fast_model=False, executor=executor),
    "multipath_sweep": lambda executor: sweep.multipath_sweep(
        SPEC, (2, 4), executor=executor),
}


@pytest.mark.parametrize("build", _table_builders(),
                         ids=lambda function: function.__name__)
def test_no_table_builder_names_a_reference_engine(build):
    engines = {job.engine for job in _jobs(build)}
    assert engines and not engines & {"cycle", "multipath"}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_no_sweep_names_a_reference_engine(name):
    engines = {job.engine for job in _jobs(SWEEPS[name])}
    assert engines and not engines & {"cycle", "multipath"}


def test_every_cycle_level_builder_is_covered():
    engines = {job.engine for build in _table_builders()
               for job in _jobs(build)}
    assert {"cycle-fast", "multipath-fast"} <= engines


@pytest.mark.parametrize("build", [tables.table3_baseline,
                                   tables.fig_hit_rates,
                                   tables.fig_multipath],
                         ids=lambda function: function.__name__)
def test_builder_jobs_match_their_reference(build):
    jobs = _jobs(build, scale=0.02)
    assert jobs
    for job in jobs:
        engine, check = REFERENCES[job.engine]
        reference = dataclasses.replace(job, engine=engine)
        label = f"{build.__name__}/{job.workload.name}/{engine}"
        report = check(reference.program(), reference.config,
                       max_instructions=reference.max_instructions,
                       label=label)
        assert report.mismatches == ()
