"""Tests for the pipeline cost model (repro.core.pipeline, figure 6)."""

import pytest

from repro.core.pipeline import (
    CycleAccountant,
    CycleParams,
    STAGES,
    pipeline_diagram,
    pipeline_schedule,
)


class TestCycleParams:
    def test_paper_defaults(self):
        params = CycleParams()
        assert params.issue_cycles == 2
        assert params.branch_penalty == 1
        assert params.return_extra == 0

    def test_call_overhead_formula(self):
        params = CycleParams()
        # flush (1) + sequence (1) = 2 extra; with the 2 issue cycles
        # of the calling instruction that is the paper's 4 total.
        assert params.call_overhead(0) == 2
        assert params.call_overhead(3) == 5


class TestCycleAccountant:
    def test_issue(self):
        accountant = CycleAccountant()
        accountant.issue()
        accountant.issue()
        assert accountant.instructions == 2
        assert accountant.cycles == 4
        assert accountant.cycles_per_instruction == 2.0

    def test_empty_cpi(self):
        assert CycleAccountant().cycles_per_instruction == 0.0

    def test_branch(self):
        accountant = CycleAccountant()
        accountant.issue()
        accountant.taken_branch()
        assert accountant.cycles == 3
        assert accountant.stalls["branch"] == 1

    def test_call_and_return(self):
        accountant = CycleAccountant()
        accountant.issue()
        accountant.method_call(0)
        assert accountant.cycles == 4      # the paper's 4-cycle call
        accountant.issue()
        accountant.method_return()
        assert accountant.cycles == 6      # plus the 2-cycle return
        assert accountant.calls == 1
        assert accountant.returns == 1

    def test_operand_copies(self):
        accountant = CycleAccountant()
        accountant.issue()
        accountant.method_call(3)
        assert accountant.cycles == 2 + 2 + 3
        assert accountant.operands_copied == 3

    def test_itlb_miss_scales_with_probes(self):
        params = CycleParams(itlb_miss_base=6, itlb_miss_per_probe=2)
        accountant = CycleAccountant(params)
        accountant.itlb_miss(3)
        assert accountant.stalls["itlb_miss"] == 12

    def test_memory_instruction(self):
        accountant = CycleAccountant()
        accountant.memory_instruction()
        assert accountant.stalls["at_memory"] == 1

    def test_context_fault(self):
        accountant = CycleAccountant()
        accountant.context_fault()
        assert accountant.stalls["context_fault"] == \
            CycleParams().context_fault

    def test_snapshot_and_reset(self):
        accountant = CycleAccountant()
        accountant.issue()
        accountant.stall("raw_hazard", 1)
        snapshot = accountant.snapshot()
        assert snapshot["instructions"] == 1
        assert snapshot["stalls"]["raw_hazard"] == 1
        accountant.reset()
        assert accountant.cycles == 0
        assert accountant.stalls == {}
        # The snapshot is independent of the reset.
        assert snapshot["cycles"] == 3

    def test_zero_stall_not_recorded(self):
        accountant = CycleAccountant(CycleParams(return_extra=0))
        accountant.method_return()
        assert "return" not in accountant.stalls


class TestPipelineSchedule:
    def test_five_stages(self):
        assert STAGES == ("Fetch", "Read", "ITLB", "Op", "Write")

    def test_two_cycle_issue_overlap(self):
        grid = pipeline_schedule(3)
        # Instruction i starts its Fetch at cycle 2i.
        assert grid[0][0] == "i0"
        assert grid[2][0] == "i1"
        assert grid[4][0] == "i2"
        # While i1 reads operands, i0 is in its ITLB step (figure 6).
        assert grid[3][1] == "i1"
        assert grid[2][2] == "i0"

    def test_total_cycles(self):
        grid = pipeline_schedule(3)
        assert len(grid) == (3 - 1) * 2 + 5

    def test_empty(self):
        assert pipeline_schedule(0) == []

    def test_each_instruction_visits_every_stage_once(self):
        grid = pipeline_schedule(4)
        seen = {}
        for row in grid:
            for stage_index, label in enumerate(row):
                if label:
                    seen.setdefault(label, []).append(stage_index)
        for label, stages in seen.items():
            assert stages == [0, 1, 2, 3, 4]

    def test_diagram_renders(self):
        text = pipeline_diagram(3)
        assert "Fetch" in text and "Write" in text
        assert "i2" in text
