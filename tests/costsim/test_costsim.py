"""Tests for the cost simulation: packing, baseline, improvement, report."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costsim import (
    BoughtVm,
    SavingsReport,
    improve_assignment,
    schedule_user,
    simulate_costs,
)
from repro.costsim.hostlo import split_pod_names
from repro.costsim.packing import PlacedContainer, total_cost
from repro.errors import CapacityError, ConfigurationError
from repro.traces import TraceConfig, generate_trace
from repro.traces.aws import M5_CATALOG, model
from repro.traces.google import TraceContainer, TracePod


def pod(name, *sizes, splittable=True):
    return TracePod(
        name,
        tuple(TraceContainer(cpu=c, memory=m) for c, m in sizes),
        splittable=splittable,
    )


class TestBoughtVm:
    def test_place_and_capacity(self):
        vm = BoughtVm(model("2xlarge"))
        item = PlacedContainer("p", TraceContainer(0.05, 0.05), True)
        vm.place(item)
        assert vm.used_cpu == pytest.approx(0.05)
        assert vm.free_cpu == pytest.approx(vm.model.cpu_rel - 0.05)
        vm.remove(item)
        assert vm.is_empty

    def test_overflow_rejected(self):
        vm = BoughtVm(model("large"))
        with pytest.raises(CapacityError):
            vm.place(PlacedContainer("p", TraceContainer(0.5, 0.5), True))

    def test_requested_score(self):
        vm = BoughtVm(model("24xlarge"))
        vm.place(PlacedContainer("p", TraceContainer(0.5, 0.5), True))
        assert vm.requested_score() == pytest.approx(0.5)

    def test_shrunk_model(self):
        vm = BoughtVm(model("24xlarge"))
        vm.place(PlacedContainer("p", TraceContainer(0.05, 0.05), True))
        assert vm.shrunk_model().name == "2xlarge"

    def test_shrink_empty_rejected(self):
        with pytest.raises(CapacityError):
            BoughtVm(model("large")).shrunk_model()

    def test_clone_independent(self):
        vm = BoughtVm(model("large"))
        vm.place(PlacedContainer("p", TraceContainer(0.01, 0.01), True))
        copy = vm.clone()
        copy.remove(copy.placed[0])
        assert len(vm.placed) == 1
        assert vm.used_cpu == pytest.approx(0.01)


def capacity_state(vm):
    return (vm.model, vm.name, list(vm.placed), vm.used_cpu,
            vm.used_memory, vm.free_cpu, vm.free_memory, vm.waste)


def assert_capacity_invariant(vm):
    # Exact: free is always recomputed as cap - used, never adjusted.
    assert vm.free_cpu == vm.model.cpu_rel - vm.used_cpu
    assert vm.free_memory == vm.model.memory_rel - vm.used_memory
    assert vm.waste == vm.free_cpu + vm.free_memory
    assert abs(vm.used_cpu - sum(i.cpu for i in vm.placed)) <= 1e-9
    assert abs(vm.used_memory - sum(i.memory for i in vm.placed)) <= 1e-9


_REQUEST = st.floats(min_value=0.001, max_value=0.2)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("place"), st.tuples(_REQUEST, _REQUEST)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("model"), st.sampled_from(M5_CATALOG)),
    st.tuples(st.just("clone"), st.tuples(_REQUEST, _REQUEST)),
), max_size=40)


class TestCapacityState:
    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_invariant_holds_after_every_step(self, steps):
        vm = BoughtVm(model("4xlarge"))
        for op, arg in steps:
            if op == "place":
                item = PlacedContainer("p", TraceContainer(*arg), True)
                if vm.fits(item.cpu, item.memory):
                    vm.place(item)
                else:
                    with pytest.raises(CapacityError):
                        vm.place(item)
            elif op == "remove" and vm.placed:
                vm.remove(vm.placed[arg % len(vm.placed)])
            elif op == "model" and arg.fits(vm.used_cpu, vm.used_memory):
                vm.model = arg
            elif op == "clone":
                before = capacity_state(vm)
                copy = vm.clone()
                assert capacity_state(copy) == before
                assert_capacity_invariant(copy)
                # Mutating the clone leaves the original untouched.
                copy.model = model("24xlarge")
                copy.place(PlacedContainer("q", TraceContainer(*arg), True))
                copy.remove(copy.placed[0])
                assert capacity_state(vm) == before
                assert_capacity_invariant(copy)
                vm = copy
            assert_capacity_invariant(vm)


class TestKubernetesBaseline:
    def test_single_pod_buys_cheapest(self):
        vms = schedule_user([pod("p", (0.01, 0.01))])
        assert len(vms) == 1
        assert vms[0].model.name == "large"

    def test_whole_pod_constraint_buys_next_model_up(self):
        # 6 vCPU + 24 GB of containers: the paper's §2 motivating
        # example — whole-pod placement needs a 2xlarge.
        six_vcpu = 6 / 96
        vms = schedule_user([pod("p", (six_vcpu / 2, 12 / 384),
                                 (six_vcpu / 2, 12 / 384))])
        assert [vm.model.name for vm in vms] == ["2xlarge"]

    def test_most_requested_groups(self):
        vms = schedule_user([
            pod("a", (0.30, 0.30)),
            pod("b", (0.10, 0.10)),
            pod("c", (0.05, 0.05)),
        ])
        # biggest-first: a buys a 12xlarge; b and c fill it.
        assert len(vms) == 1

    def test_biggest_first_ordering(self):
        vms = schedule_user([pod("small", (0.01, 0.01)),
                             pod("big", (0.45, 0.45))])
        # big scheduled first onto its own VM; small joins it.
        assert len(vms) == 1
        assert vms[0].model.name == "12xlarge"

    def test_all_containers_of_pod_colocated(self):
        vms = schedule_user([pod("p", (0.1, 0.1), (0.1, 0.1), (0.1, 0.1))])
        assert len(vms) == 1
        assert len(vms[0].placed) == 3


class TestHostloImprovement:
    def test_motivating_example_savings(self):
        """§2: a 6 vCPU / 24 GB pod on a 2xlarge ($0.448) can split into
        a large + xlarge ($0.336)."""
        four_vcpu = 4 / 96
        two_vcpu = 2 / 96
        p = pod("p", (four_vcpu, 16 / 384), (two_vcpu, 8 / 384))
        baseline = schedule_user([p])
        assert total_cost(baseline) == pytest.approx(0.448)
        improved = improve_assignment(baseline)
        assert total_cost(improved) == pytest.approx(0.336)
        assert "p" in split_pod_names(improved)

    def test_unsplittable_pod_keeps_cost(self):
        four_vcpu = 4 / 96
        two_vcpu = 2 / 96
        p = pod("p", (four_vcpu, 16 / 384), (two_vcpu, 8 / 384),
                splittable=False)
        baseline = schedule_user([p])
        improved = improve_assignment(baseline)
        assert total_cost(improved) == pytest.approx(total_cost(baseline))

    def test_never_worse(self):
        users = generate_trace(TraceConfig(users=40, seed=11))
        for user in users:
            baseline = schedule_user(user.pods)
            improved = improve_assignment(baseline)
            assert total_cost(improved) <= total_cost(baseline) + 1e-9

    def test_improvement_preserves_all_containers(self):
        users = generate_trace(TraceConfig(users=25, seed=13))
        for user in users:
            baseline = schedule_user(user.pods)
            improved = improve_assignment(baseline)
            def count(vms):
                return sum(len(vm.placed) for vm in vms)
            assert count(improved) == count(baseline)

    def test_improvement_never_overfills(self):
        users = generate_trace(TraceConfig(users=25, seed=17))
        for user in users:
            improved = improve_assignment(schedule_user(user.pods))
            for vm in improved:
                assert vm.used_cpu <= vm.model.cpu_rel + 1e-9
                assert vm.used_memory <= vm.model.memory_rel + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=0.005, max_value=0.15),
                  st.floats(min_value=0.005, max_value=0.15)),
        min_size=1, max_size=6,
    ))
    def test_random_pods_invariants_property(self, sizes):
        # Totals stay ≤ 0.9, so the whole pod always fits one machine.
        p = pod("p", *sizes)
        baseline = schedule_user([p])
        improved = improve_assignment(baseline)
        assert total_cost(improved) <= total_cost(baseline) + 1e-9
        assert sum(len(vm.placed) for vm in improved) == len(sizes)


class TestFullSimulation:
    def test_fig9_shape(self):
        """The headline fig 9 numbers, within generous bands."""
        users = generate_trace(TraceConfig())
        report = SavingsReport.from_outcomes(simulate_costs(users))
        assert report.user_count == 492
        assert 0.08 <= report.saver_fraction <= 0.18  # paper ≈ 11.4 %
        assert 0.5 <= report.savers_above_5pct_fraction <= 0.85  # ≈ 66.7 %
        assert 0.30 <= report.max_relative_saving <= 0.55  # ≈ 40 %
        assert report.max_absolute_saving > 50.0  # ≈ 237 $/h

    def test_histogram_counts_savers(self):
        users = generate_trace(TraceConfig(users=80, seed=3))
        report = SavingsReport.from_outcomes(simulate_costs(users))
        total = sum(count for _, count in report.histogram())
        assert total == sum(o.saved for o in report.outcomes)

    def test_render_mentions_key_stats(self):
        users = generate_trace(TraceConfig(users=60, seed=3))
        report = SavingsReport.from_outcomes(simulate_costs(users))
        text = report.render()
        assert "users saving money" in text
        assert "max absolute saving" in text

    def test_empty_report_rejected(self):
        with pytest.raises(ConfigurationError):
            SavingsReport.from_outcomes([])

    def test_outcome_properties(self):
        users = generate_trace(TraceConfig(users=30, seed=9))
        for outcome in simulate_costs(users):
            assert outcome.hostlo_cost <= outcome.kubernetes_cost + 1e-9
            assert 0.0 <= outcome.relative_saving < 1.0
            if outcome.split_pods:
                assert outcome.saved or outcome.vms_after <= outcome.vms_before
