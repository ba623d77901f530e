"""Tests for the literature controllers (integral, state-space, MPC)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.scenario.runner as runner_mod
from repro.control import (
    ControlContext,
    IntegralRegulatorPolicy,
    MPCPolicy,
    StateSpacePolicy,
)
from repro.control.state_space import window_dynamics
from repro.core import ProTempOptimizer, build_frequency_table
from repro.errors import ScenarioError, SimulationError
from repro.scenario import POLICIES
from repro.scenario.runner import ScenarioRunner, build_policy
from repro.scenario.specs import PolicySpec, ScenarioSpec
from repro.thermal.constants import PAPER_DFS_PERIOD
from repro.units import ghz, mhz


def context(temps, f_req=ghz(1.0), window_index=0, t_max=100.0):
    return ControlContext(
        window_index=window_index,
        time=window_index * PAPER_DFS_PERIOD,
        core_temperatures=np.asarray(temps, dtype=float),
        required_frequency=f_req,
        f_max=ghz(1.0),
        t_max=t_max,
    )


class TestIntegralRegulator:
    def test_cold_platform_runs_at_required_speed(self):
        policy = IntegralRegulatorPolicy(setpoint=95.0, gain=0.05)
        freqs = policy.frequencies(context([50.0, 50.0], mhz(700)))
        assert np.allclose(freqs, mhz(700))

    def test_hot_cores_are_slowed(self):
        policy = IntegralRegulatorPolicy(setpoint=95.0, gain=0.05)
        freqs = policy.frequencies(context([105.0, 50.0]))
        assert freqs[0] < freqs[1]

    def test_anti_windup_clips_the_integral_state(self):
        # A long cold stretch must not wind the integrator past the
        # actuator range: the first hot reading acts immediately, with no
        # accumulated surplus to unwind first.
        policy = IntegralRegulatorPolicy(setpoint=95.0, gain=0.05)
        for i in range(200):
            policy.frequencies(context([40.0], window_index=i))
        assert policy._u is not None and policy._u[0] == pytest.approx(1.0)
        # 25 C over the setpoint at gain 0.05 -> du = -1.25, a full-range
        # correction in one window; an unclipped integrator (u ~ 1 + 200 *
        # 0.05 * 55 = 551) would need ~440 hot windows to respond at all.
        freqs = policy.frequencies(context([120.0], window_index=200))
        assert freqs[0] == 0.0

    def test_integral_state_stays_in_bounds(self):
        policy = IntegralRegulatorPolicy(setpoint=95.0, gain=0.5, u_min=0.1)
        for i, t in enumerate([40.0, 140.0, 40.0, 140.0, 95.0]):
            policy.frequencies(context([t], window_index=i))
            assert 0.1 <= policy._u[0] <= 1.0

    def test_settles_at_setpoint_error_zero(self):
        policy = IntegralRegulatorPolicy(setpoint=95.0, gain=0.05)
        policy.frequencies(context([95.0, 95.0]))
        before = policy._u.copy()
        policy.frequencies(context([95.0, 95.0], window_index=1))
        assert np.allclose(policy._u, before)

    def test_reset_clears_state(self):
        policy = IntegralRegulatorPolicy()
        policy.frequencies(context([120.0]))
        policy.reset()
        assert policy._u is None

    def test_validation(self):
        with pytest.raises(SimulationError, match="gain"):
            IntegralRegulatorPolicy(gain=0.0)
        with pytest.raises(SimulationError, match="u_min"):
            IntegralRegulatorPolicy(u_min=1.5)


class TestWindowDynamics:
    def test_matches_direct_power_series(self):
        rng = np.random.default_rng(5)
        a = 0.9 * rng.random((4, 4)) / 4
        a_w, s = window_dynamics(a, 3)
        assert np.allclose(a_w, a @ a @ a)
        assert np.allclose(s, np.eye(4) + a + a @ a)

    def test_rejects_empty_window(self):
        with pytest.raises(SimulationError, match="at least one"):
            window_dynamics(np.eye(2), 0)


class TestStateSpace:
    def test_regulates_niagara_to_setpoint(self, niagara):
        # Closed loop against the platform's real thermal model under
        # saturating demand: boundary temperatures must converge to the
        # setpoint band and stay under t_max.
        policy = StateSpacePolicy(niagara, margin=2.0)
        thermal = niagara.thermal
        injection = niagara.power.injection_matrix()
        steps = int(round(PAPER_DFS_PERIOD / thermal.dt))
        t_nodes = np.full(thermal.n, 80.0)
        boundary_temps = []
        for i in range(60):
            core_temps = t_nodes[niagara.core_indices]
            freqs = policy.frequencies(context(core_temps, niagara.f_max,
                                               window_index=i))
            node_power = injection @ np.asarray(
                niagara.power.scaling.power(freqs)
            )
            t_nodes = thermal.simulate(t_nodes, node_power, steps)[-1]
            boundary_temps.append(t_nodes[niagara.core_indices].max())
        setpoint = 100.0 - 2.0
        tail = boundary_temps[-10:]
        assert max(tail) < 100.0
        assert all(abs(t - setpoint) < 1.0 for t in tail)

    def test_never_exceeds_actuator_range(self, small_platform):
        policy = StateSpacePolicy(small_platform)
        for temps in ([20.0, 20.0, 20.0], [99.0, 99.0, 99.0],
                      [120.0, 60.0, 90.0]):
            freqs = policy.frequencies(context(temps, small_platform.f_max))
            assert np.all(freqs >= 0.0)
            assert np.all(freqs <= small_platform.f_max + 1e-6)

    def test_sensor_arity_mismatch_raises(self, small_platform):
        policy = StateSpacePolicy(small_platform)
        with pytest.raises(SimulationError, match="cores"):
            policy.frequencies(context([80.0, 80.0]))

    def test_validation(self, small_platform):
        with pytest.raises(SimulationError, match="margin"):
            StateSpacePolicy(small_platform, margin=-1.0)
        with pytest.raises(SimulationError, match="observer_gain"):
            StateSpacePolicy(small_platform, observer_gain=0.0)
        with pytest.raises(SimulationError, match="window"):
            StateSpacePolicy(small_platform, window=0.0)


class TestMPC:
    def test_horizon_one_agrees_with_table_lookup(self, small_platform):
        # With horizon_windows=1 the per-window program is exactly the
        # table generator's per-cell program, so at an on-grid state the
        # two must agree to solver tolerance (the cores of a symmetric
        # row can permute between equal optima, hence sorted comparison).
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        table = build_frequency_table(
            optimizer, [80.0, 95.0], [mhz(300), mhz(500)]
        )
        policy = MPCPolicy(small_platform, step_subsample=10)
        freqs = policy.frequencies(
            context([80.0] * 3, mhz(300), t_max=small_platform.t_max)
        )
        looked_up = table.lookup(80.0, mhz(300)).frequencies
        assert np.allclose(
            np.sort(freqs), np.sort(looked_up), atol=mhz(10)
        )
        assert np.mean(freqs) >= mhz(300) * (1 - 1e-6)

    def test_infeasible_start_backs_off(self, small_platform):
        policy = MPCPolicy(small_platform, step_subsample=10)
        freqs = policy.frequencies(
            context([99.9] * 3, small_platform.f_max,
                    t_max=small_platform.t_max)
        )
        # Demands full speed from just under t_max: must back off (or
        # shut down), never exceed the demand, and count the event.
        assert np.mean(freqs) < small_platform.f_max
        assert policy.backoff_windows + policy.shutdown_windows == 1

    def test_reset_clears_counters_and_warm_start(self, small_platform):
        policy = MPCPolicy(small_platform, step_subsample=10)
        policy.frequencies(context([80.0] * 3, mhz(500)))
        policy.reset()
        assert policy.solves == 0
        assert policy._warm is None

    def test_two_window_horizon_closed_loop(self, monkeypatch):
        # horizon_windows > 1 plans across several windows but applies
        # only the first; under exact sensing the plan must still keep
        # every core under t_max, and every window costs one solve plus
        # one more per back-off.
        spec = ScenarioSpec.from_dict(
            {
                "platform": {"name": "core-row", "params": {"n_cores": 4}},
                "workload": {
                    "name": "poisson",
                    "duration": 1.0,
                    "params": {"offered_load": 1.1},
                },
                "policy": {
                    "name": "mpc",
                    "params": {"step_subsample": 10, "horizon_windows": 2},
                },
                "sensor": "ideal",
                "t_initial": 80.0,
            }
        )
        built = []

        def capture(*args, **kwargs):
            built.append(build_policy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner_mod, "build_policy", capture)
        platform = ScenarioRunner().platform(spec.platform)
        result = runner_mod.execute_scenario(spec, platform, None)
        (policy,) = built
        windows = len(result.metrics.window_frequencies)
        assert policy.horizon_windows == 2
        assert policy.optimizer.response.horizon == pytest.approx(
            2 * spec.window
        )
        assert not result.metrics.any_violation
        assert windows > 0
        assert policy.backoff_windows > 0  # the back-off path ran
        assert policy.shutdown_windows == 0
        assert policy.solves == windows + policy.backoff_windows

    def test_validation(self, small_platform):
        with pytest.raises(SimulationError, match="horizon"):
            MPCPolicy(small_platform, horizon_windows=0)
        with pytest.raises(SimulationError, match="window"):
            MPCPolicy(small_platform, window=-1.0)


class TestRegistry:
    def test_zoo_policies_are_registered(self):
        for name in ("rao-integral", "bhat-state-space", "mpc"):
            assert name in POLICIES

    def test_platform_policies_marked(self):
        assert POLICIES.get("bhat-state-space").needs_platform
        assert POLICIES.get("mpc").needs_platform
        assert not POLICIES.get("rao-integral").needs_platform
        assert not POLICIES.get("basic-dfs").needs_platform

    def test_build_policy_requires_platform(self, small_platform):
        spec = ScenarioSpec(policy=PolicySpec.from_dict("bhat-state-space"))
        with pytest.raises(ScenarioError, match="platform"):
            build_policy(spec, None)
        policy = build_policy(spec, None, platform=small_platform)
        assert isinstance(policy, StateSpacePolicy)

    def test_build_policy_injects_scenario_window(self, small_platform):
        spec = ScenarioSpec(
            policy=PolicySpec.from_dict("bhat-state-space"), window=0.2
        )
        policy = build_policy(spec, None, platform=small_platform)
        assert policy.window == pytest.approx(0.2)

    def test_rao_integral_builds_without_platform(self):
        spec = ScenarioSpec(policy=PolicySpec.from_dict("rao-integral"))
        policy = build_policy(spec, None)
        assert isinstance(policy, IntegralRegulatorPolicy)
