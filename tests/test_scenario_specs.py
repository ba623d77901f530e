"""Scenario spec data model: canonicalization, hashing, JSON round-trips.

The round-trip tests are property-based (hypothesis): any spec the grid
expander can produce must survive ``to_dict -> json -> from_dict`` with
equality and an unchanged ``spec_hash``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from repro.core import ProTempOptimizer
from repro.core.protemp import BACKENDS
from repro.errors import ScenarioError
from repro.scenario import (
    PlatformSpec,
    PolicySpec,
    ScenarioSpec,
    SensorSpec,
    WorkloadSpec,
    derive_seed,
    scenario_grid_from_config,
)
from repro.scenario.runner import ScenarioRunner, table_key

# -- strategies -------------------------------------------------------------

_identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_param_dicts = st.dictionaries(
    _identifiers,
    st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3)),
    max_size=4,
)

_platforms = st.builds(
    PlatformSpec,
    name=st.sampled_from(["niagara8", "core-row", "core-grid"]),
    params=_param_dicts,
)
_workloads = st.builds(
    WorkloadSpec,
    name=st.sampled_from(["mixed", "compute", "web", "poisson"]),
    duration=st.floats(min_value=0.1, max_value=500.0),
    params=_param_dicts,
    seed=st.none() | st.integers(0, 2**31 - 1),
)


def _parsed_policy(name: str, params: dict) -> PolicySpec:
    """The PolicySpec, or a rejected example when the parser refuses it.

    ``_param_dicts`` can draw the validated ``strategy``/``backend`` keys
    (hypothesis also draws string constants found in the code under
    test).  A spec rejected with ScenarioError cannot be round-tripped
    and is no counterexample; any other exception still fails the test.
    """
    try:
        return PolicySpec(name=name, params=params)
    except ScenarioError:
        reject()


_policies = st.builds(
    _parsed_policy,
    name=st.sampled_from(["no-tc", "basic-dfs", "protemp"]),
    params=_param_dicts,
)
_sensors = st.builds(
    SensorSpec,
    name=st.sampled_from(["ideal", "noisy"]),
    params=_param_dicts,
    seed=st.none() | st.integers(0, 2**31 - 1),
)
_scenarios = st.builds(
    ScenarioSpec,
    platform=_platforms,
    workload=_workloads,
    policy=_policies,
    sensor=_sensors,
    assignment=st.sampled_from(["first-idle", "coolest-first", "random"]),
    window=st.floats(min_value=0.01, max_value=1.0),
    t_initial=st.floats(min_value=0.0, max_value=99.0),
    max_time=st.none() | st.floats(min_value=0.1, max_value=500.0),
    seed=st.integers(0, 2**31 - 1),
    name=st.none() | st.text(max_size=10),
)


class TestRoundTrip:
    @given(spec=_scenarios)
    def test_dict_json_round_trip_is_lossless(self, spec):
        payload = json.loads(json.dumps(spec.to_dict(), allow_nan=False))
        restored = ScenarioSpec.from_dict(payload)
        assert restored == spec
        assert restored.spec_hash == spec.spec_hash

    @given(spec=_scenarios)
    def test_json_text_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @given(spec=_scenarios)
    def test_hash_is_stable_under_param_order(self, spec):
        # Reversing dict insertion order must not change the canonical form.
        reordered = dict(reversed(list(spec.to_dict().items())))
        assert ScenarioSpec.from_dict(reordered).spec_hash == spec.spec_hash

    @given(
        policies=st.lists(_policies, min_size=1, max_size=3, unique=True),
        seeds=st.lists(
            st.integers(0, 1000), min_size=1, max_size=3, unique=True
        ),
    )
    def test_grid_members_round_trip(self, policies, seeds):
        grid = ScenarioSpec.grid(policy=policies, seed=seeds)
        assert len(grid) == len(policies) * len(seeds)
        for spec in grid:
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_equal_specs_share_hash_distinct_differ(self):
        a = ScenarioSpec(seed=1)
        b = ScenarioSpec(seed=1)
        c = ScenarioSpec(seed=2)
        assert a == b and a.spec_hash == b.spec_hash
        assert a != c and a.spec_hash != c.spec_hash


class TestCanonicalization:
    def test_params_accept_dicts_and_canonical_order(self):
        a = PolicySpec("basic-dfs", {"threshold": 90.0, "resume_threshold": 85.0})
        b = PolicySpec("basic-dfs", {"resume_threshold": 85.0, "threshold": 90.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_string_coercion(self):
        spec = ScenarioSpec(platform="core-row", workload="compute", policy="no-tc")
        assert spec.platform == PlatformSpec("core-row")
        assert spec.workload.name == "compute"
        assert spec.policy == PolicySpec("no-tc")

    def test_nan_params_rejected(self):
        with pytest.raises(ScenarioError):
            PolicySpec("basic-dfs", {"threshold": float("nan")})

    def test_non_json_params_rejected(self):
        with pytest.raises(ScenarioError):
            PlatformSpec("niagara8", {"thermal": object()})

    def test_bad_duration_rejected(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec("mixed", duration=0.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(window=-0.1)


class TestSeeds:
    def test_trace_seed_inherits_scenario_seed(self):
        spec = ScenarioSpec(seed=11)
        assert spec.trace_seed == 11

    def test_explicit_workload_seed_wins(self):
        spec = ScenarioSpec(workload=WorkloadSpec("mixed", 5.0, seed=3), seed=11)
        assert spec.trace_seed == 3

    def test_sensor_seed_derived_not_master(self):
        spec = ScenarioSpec(seed=11)
        assert spec.sensor_seed == derive_seed(11, "sensor")
        assert spec.sensor_seed != spec.trace_seed

    def test_derive_seed_stable_and_stream_separated(self):
        assert derive_seed(7, "sensor") == derive_seed(7, "sensor")
        assert derive_seed(7, "sensor") != derive_seed(7, "assignment")
        assert derive_seed(7, "sensor") != derive_seed(8, "sensor")


class TestGrid:
    def test_axis_order_last_fastest(self):
        grid = ScenarioSpec.grid(policy=["no-tc", "basic-dfs"], seed=[0, 1])
        labels = [(s.policy.name, s.seed) for s in grid]
        assert labels == [
            ("no-tc", 0),
            ("no-tc", 1),
            ("basic-dfs", 0),
            ("basic-dfs", 1),
        ]

    def test_scalar_axes_wrap(self):
        grid = ScenarioSpec.grid(policy="no-tc", seed=range(3))
        assert len(grid) == 3
        assert all(s.policy.name == "no-tc" for s in grid)

    def test_base_fields_preserved(self):
        base = ScenarioSpec(t_initial=60.0, assignment="coolest-first")
        grid = ScenarioSpec.grid(base, seed=[0, 1])
        assert all(s.t_initial == 60.0 for s in grid)
        assert all(s.assignment == "coolest-first" for s in grid)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.grid(policies=["no-tc"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.grid(policy=[])


class TestConfigExpansion:
    def test_single_scenario_config(self):
        specs = scenario_grid_from_config(
            {"workload": {"name": "compute", "duration": 3.0}, "seed": 5}
        )
        assert len(specs) == 1
        assert specs[0].workload.name == "compute"
        assert specs[0].seed == 5

    def test_base_grid_config(self):
        specs = scenario_grid_from_config(
            {
                "base": {"workload": {"name": "mixed", "duration": 2.0}},
                "grid": {"policy": ["no-tc", "basic-dfs"], "seed": [0, 1, 2]},
            }
        )
        assert len(specs) == 6
        assert {s.policy.name for s in specs} == {"no-tc", "basic-dfs"}

    def test_malformed_config_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_grid_from_config({"base": {}, "grid": ["policy"]})

    def test_grid_without_base_keeps_top_level_fields(self):
        specs = scenario_grid_from_config(
            {
                "platform": {"name": "core-row", "params": {"n_cores": 3}},
                "workload": {"name": "compute", "duration": 2.0},
                "grid": {"seed": [0, 1]},
            }
        )
        assert len(specs) == 2
        assert all(s.platform.name == "core-row" for s in specs)
        assert all(s.workload.name == "compute" for s in specs)

    def test_base_mixed_with_top_level_fields_rejected(self):
        with pytest.raises(ScenarioError, match="put them inside 'base'"):
            scenario_grid_from_config(
                {
                    "base": {"seed": 1},
                    "workload": {"name": "compute", "duration": 2.0},
                    "grid": {"seed": [0, 1]},
                }
            )

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"polcy": "no-tc"})

    def test_unknown_subspec_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown workload spec"):
            WorkloadSpec.from_dict({"name": "mixed", "durration": 2.0})


class TestBackendSelection:
    def test_policy_spec_round_trips_backend(self):
        spec = ScenarioSpec(
            policy={
                "name": "protemp",
                "params": {"strategy": "gen3-wavefront", "backend": "scipy"},
            }
        )
        restored = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert restored == spec
        config = restored.policy.table_config()
        assert config["strategy"] == "gen3-wavefront"
        assert config["backend"] == "scipy"
        # Table params never leak into the policy factory.
        assert restored.policy.factory_kwargs() == {}

    def test_backend_defaults_to_barrier(self):
        assert PolicySpec().table_config()["backend"] == "barrier"
        assert "backend" in PolicySpec.TABLE_PARAM_KEYS

    def test_table_key_stable_for_default_backend(self):
        base = PolicySpec(params={"strategy": "gen2"})
        explicit = PolicySpec(params={"strategy": "gen2", "backend": "barrier"})
        scipy_spec = PolicySpec(params={"strategy": "gen2", "backend": "scipy"})
        platform = PlatformSpec()
        assert table_key(platform, base) == table_key(platform, explicit)
        assert table_key(platform, scipy_spec) != table_key(platform, base)

    def test_unknown_backend_rejected_at_parse_with_hint(self):
        with pytest.raises(ScenarioError, match="did you mean 'scipy'"):
            PolicySpec(params={"backend": "scipi"})

    def test_unknown_strategy_rejected_at_parse_with_hint(self):
        with pytest.raises(ScenarioError, match="did you mean 'gen3'"):
            PolicySpec(params={"strategy": "gen33"})

    @pytest.mark.parametrize("key", ["strategy", "backend"])
    @pytest.mark.parametrize("value", [0.5, 3, False, ["gen2"], {"a": 1}])
    def test_non_string_name_rejected_as_scenario_error(self, key, value):
        with pytest.raises(ScenarioError, match=f"{key}.*must be a name string"):
            PolicySpec(params={key: value})

    def test_unknown_backend_rejected_at_service_submit(self):
        from repro.serving import ScenarioService

        service = ScenarioService(max_workers=1)
        try:
            with pytest.raises(ScenarioError, match="did you mean 'scipy'"):
                service.submit(
                    {
                        "workload": {"name": "compute", "duration": 1.0},
                        "policy": {
                            "name": "protemp",
                            "params": {"backend": "scipi"},
                        },
                    }
                )
            assert service.jobs_payload() == []  # never became a job
        finally:
            service.drain()

    def test_runner_threads_backend_into_optimizer(self, monkeypatch):
        captured = {}
        original = ProTempOptimizer.__init__

        def spy(self, platform, **kwargs):
            captured.update(kwargs)
            original(self, platform, **kwargs)

        monkeypatch.setattr(ProTempOptimizer, "__init__", spy)
        runner = ScenarioRunner()
        policy = PolicySpec(
            params={
                "t_grid": [60.0, 100.0],
                "f_grid": [4e8, 8e8],
                "step_subsample": 20,
                "backend": "scipy",
            }
        )
        table, hit = runner.table(PlatformSpec(name="core-row"), policy)
        assert not hit and captured["backend"] == "scipy"
        assert table.entries

    def test_backends_constant_names_both_solvers(self):
        assert BACKENDS == ("barrier", "scipy")
