"""Tests for the seeded fault-injection framework (repro.faults)."""

import pytest

from repro import faults
from repro.errors import InjectedIOError, InjectedTaskError
from repro.faults import ActiveFaults, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Every test starts and ends with no plan armed."""
    monkeypatch.setattr(faults, "_ACTIVE", None)
    yield
    faults.install(None)


class TestPlanParsing:
    def test_cli_syntax_parses_every_option(self):
        plan = FaultPlan.parse(
            "store.read:corrupt:p=0.5,worker.task:error:times=2,"
            "store.write:truncate", seed=42)
        assert plan.seed == 42
        assert len(plan.specs) == 3
        assert plan.specs[0] == FaultSpec("store.read", "corrupt",
                                          probability=0.5)
        assert plan.specs[1].times == 2
        assert plan.specs[2] == FaultSpec("store.write", "truncate")

    def test_empty_plan(self):
        assert FaultPlan.parse("").specs == ()

    @pytest.mark.parametrize("bad", [
        "nowhere:crash",                 # unknown site
        "worker.task:meteor",            # unknown kind
        "worker.task",                   # no kind
        "worker.task:crash:times",       # option without value
        "worker.task:crash:zeal=3",      # unknown option
        "worker.task:crash",             # removed kind
        "worker.task:slow",              # removed kind
        "worker.start:error",            # removed site
        "worker.task:error:delay=1.5",   # removed option
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("store.read", "corrupt", probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultSpec("worker.task", "error", times=-1)


class TestDeterminism:
    def _fires(self, seed, calls=200):
        active = ActiveFaults(
            FaultPlan(seed=seed, specs=(
                FaultSpec("worker.task", "error", probability=0.3),)))
        return [active.pick("worker.task", "TAB-X") is not None
                for _ in range(calls)]

    def test_same_seed_same_sequence(self):
        assert self._fires(1) == self._fires(1)

    def test_different_seed_different_sequence(self):
        assert self._fires(1) != self._fires(2)

    def test_sequence_is_per_key_so_scheduling_cannot_perturb_it(self):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec("worker.task", "error", probability=0.3),))
        a = ActiveFaults(plan)
        interleaved = [(a.pick("worker.task", "A"),
                        a.pick("worker.task", "B")) for _ in range(50)]
        b = ActiveFaults(plan)
        a_only = [b.pick("worker.task", "A") for _ in range(50)]
        assert [pair[0] is not None for pair in interleaved] == \
            [fire is not None for fire in a_only]

    def test_times_caps_fires_per_key(self):
        active = ActiveFaults(FaultPlan(seed=0, specs=(
            FaultSpec("worker.task", "error", times=2),)))
        fires = [active.pick("worker.task", "K") is not None
                 for _ in range(5)]
        assert fires == [True, True, False, False, False]
        # A different key has its own budget.
        assert active.pick("worker.task", "L") is not None


class TestInjection:
    def _arm(self, spec_text, seed=0):
        faults.install(FaultPlan.parse(spec_text, seed=seed))

    def test_no_plan_is_a_no_op(self):
        payload = b"hello"
        assert faults.inject("store.read", key="x",
                             payload=payload) is payload

    def test_io_error(self):
        self._arm("store.read:io-error")
        with pytest.raises(InjectedIOError):
            faults.inject("store.read", key="f.trace", payload=b"x")
        # It is an OSError: real IO handlers catch it.
        self._arm("store.read:io-error")
        with pytest.raises(OSError):
            faults.inject("store.read", key="f.trace", payload=b"x")

    def test_task_error(self):
        self._arm("worker.task:error")
        with pytest.raises(InjectedTaskError):
            faults.inject("worker.task", key="TAB-X")

    def test_corrupt_flips_exactly_one_bit(self):
        self._arm("store.read:corrupt")
        payload = bytes(range(64))
        mutated = faults.inject("store.read", key="f", payload=payload)
        assert mutated != payload and len(mutated) == len(payload)
        diff = [a ^ b for a, b in zip(payload, mutated) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_truncate_halves(self):
        self._arm("store.write:truncate")
        assert faults.inject("store.write", key="f",
                             payload=b"0123456789") == b"01234"

    def test_probability_zero_never_fires(self):
        self._arm("worker.task:error:p=0")
        for _ in range(50):
            faults.inject("worker.task", key="TAB-X")
        assert faults.fired_count() == 0


class TestInstall:
    def test_install_arms_and_uninstall_disarms(self):
        plan = FaultPlan.parse("worker.task:error", seed=5)
        faults.install(plan)
        assert faults.active_plan() == plan
        with pytest.raises(InjectedTaskError):
            faults.inject("worker.task", key="TAB-X")
        faults.install(None)
        assert faults.active_plan() is None
        assert faults.inject("worker.task", key="TAB-X") is None
