"""Service-layer coverage: jobs, HTTP endpoints, streaming, drain, client.

Tests run a real :class:`ThreadingHTTPServer` on an ephemeral port (the
same stack ``protemp serve`` boots) with the fast 3-core row platform, so
request routing, NDJSON streaming, and error mapping are exercised over
actual sockets without Niagara-scale cost.
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.errors import ScenarioError, ServiceError
from repro.scenario import (
    MemoryOutcomeStore,
    PlatformSpec,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
)
from repro.serving import (
    JobManager,
    ScenarioService,
    ServiceClient,
    make_server,
    serve_stdin,
    wait_for_server,
)

ROW3 = {"name": "core-row", "params": {"n_cores": 3}}

FAST_CONFIG = {
    "base": {
        "platform": ROW3,
        "workload": {
            "name": "poisson",
            "duration": 1.0,
            "params": {"offered_load": 0.3},
        },
        "t_initial": 60.0,
    },
    "grid": {"policy": ["no-tc", "basic-dfs"], "seed": [0, 1]},
}

#: Tiny Phase-1 config (2x2 grid, heavy subsampling) for table tests.
SMALL_TABLE_PARAMS = {
    "t_grid": [80.0, 100.0],
    "f_grid": [3e8, 6e8],
    "step_subsample": 20,
}

VOLATILE_ROW_KEYS = {
    "wall_time_s",
    "solve_wall_time_s",
    "table_cache_hit",
    "outcome_cache_hit",
}


def _sanitize(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE_ROW_KEYS}


@pytest.fixture()
def service():
    svc = ScenarioService(max_workers=2, outcome_store=MemoryOutcomeStore())
    yield svc
    svc.drain()


@pytest.fixture()
def live(service):
    """(service, client) against a real HTTP server on an ephemeral port."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, ServiceClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()


class TestJobLayer:
    def test_submit_runs_and_streams_completion_order(self, service):
        job = service.submit(FAST_CONFIG)
        events = list(job.events())
        assert events[0]["event"] == "job"
        assert events[0]["n_scenarios"] == 4
        outcomes = [e for e in events if e["event"] == "outcome"]
        assert len(outcomes) == 4
        assert events[-1]["event"] == "done"
        assert events[-1]["scenarios_executed"] == 4
        assert events[-1]["outcomes_replayed"] == 0
        # The log is append-only in completion order: seq is the position.
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert {e["index"] for e in outcomes} == {0, 1, 2, 3}
        assert job.state == "done"

    def test_warm_resubmit_replays_in_grid_order_before_any_solve(
        self, service
    ):
        first = list(service.submit(FAST_CONFIG).events())
        second = list(service.submit(FAST_CONFIG).events())
        outcomes = [e for e in second if e["event"] == "outcome"]
        assert all(e["outcome_cache_hit"] for e in outcomes)
        # Replays stream in grid order (the replay pass walks the grid).
        assert [e["index"] for e in outcomes] == [0, 1, 2, 3]
        assert second[-1]["scenarios_executed"] == 0
        assert second[-1]["outcomes_replayed"] == 4
        # Deterministic rows are bit-identical between cold and warm runs.
        cold = {e["index"]: _sanitize(e["row"]) for e in first
                if e["event"] == "outcome"}
        warm = {e["index"]: _sanitize(e["row"]) for e in outcomes}
        assert cold == warm

    def test_store_hits_stream_ahead_of_misses(self, service):
        """A half-warm store replays its cells before any fresh solve."""
        service.submit(FAST_CONFIG)  # warms seeds 0/1
        wider = json.loads(json.dumps(FAST_CONFIG))
        wider["grid"]["seed"] = [0, 1, 2]
        # Wait for the first job to finish before submitting the superset.
        for job in service.manager.jobs():
            list(job.events())
        events = list(service.submit(wider).events())
        outcomes = [e for e in events if e["event"] == "outcome"]
        n_replayed = sum(e["outcome_cache_hit"] for e in outcomes)
        assert n_replayed == 4 and len(outcomes) == 6
        first_miss = next(
            i for i, e in enumerate(outcomes) if not e["outcome_cache_hit"]
        )
        assert all(e["outcome_cache_hit"] for e in outcomes[:first_miss])
        assert first_miss == 4  # all four hits precede every miss

    def test_unknown_registry_name_rejected_at_submit(self, service):
        with pytest.raises(ScenarioError, match="unknown policy"):
            service.submit({"grid": {"policy": ["not-a-policy"]}})
        assert service.manager.jobs() == []  # no job was created

    def test_malformed_config_rejected_at_submit(self, service):
        with pytest.raises(ScenarioError, match="JSON object"):
            service.submit(["not", "a", "config"])  # type: ignore[arg-type]
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            service.submit({"platfrom": ROW3})

    def test_scenario_error_event_keeps_job_going(self, service):
        config = json.loads(json.dumps(FAST_CONFIG))
        # Valid registry name, invalid factory kwargs: fails at execution.
        config["grid"]["policy"] = [
            "no-tc",
            {"name": "basic-dfs", "params": {"threshold": 90.0,
                                             "bogus_kwarg": 1}},
        ]
        job = service.submit(config)
        events = list(job.events())
        errors = [e for e in events if e["event"] == "scenario_error"]
        outcomes = [e for e in events if e["event"] == "outcome"]
        assert len(errors) == 2 and len(outcomes) == 2
        assert all(e["error"]["type"] == "TypeError" for e in errors)
        done = events[-1]
        assert done["failed"] == 2 and done["state"] == "failed"
        assert job.state == "failed"

    def test_concurrent_submits_share_one_table_build(self):
        """Exactly-once per table key holds across threads and jobs."""
        runner = ScenarioRunner(outcome_store=MemoryOutcomeStore())
        service = ScenarioService(runner=runner, max_workers=4)
        config = {
            "base": {
                "platform": ROW3,
                "workload": {
                    "name": "compute",
                    "duration": 0.5,
                    "params": {},
                },
                "t_initial": 60.0,
                "policy": {"name": "protemp", "params": SMALL_TABLE_PARAMS},
            },
            "grid": {"seed": [0]},
        }
        configs = []
        for seed in range(4):
            one = json.loads(json.dumps(config))
            one["grid"]["seed"] = [seed]
            configs.append(one)
        jobs = []
        submit = [service.submit] * len(configs)
        threads = [
            threading.Thread(target=lambda s=s, c=c: jobs.append(s(c)))
            for s, c in zip(submit, configs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        dones = [list(job.events())[-1] for job in jobs]
        assert all(d["state"] == "done" for d in dones)
        assert sum(d["scenarios_executed"] for d in dones) == 4
        assert runner.tables_built == 1
        service.drain()

    def test_drain_finishes_in_flight_and_persists_then_rejects(self):
        store = MemoryOutcomeStore()
        service = ScenarioService(max_workers=2, outcome_store=store)
        job = service.submit(FAST_CONFIG)
        service.drain()  # blocks until the job's scenarios finish
        assert job.finished and job.state == "done"
        assert len(store) == 4  # every in-flight cell persisted
        with pytest.raises(ServiceError) as excinfo:
            service.submit(FAST_CONFIG)
        assert excinfo.value.status == 503
        service.drain()  # idempotent

    def test_empty_shardlike_grid_finishes_immediately(self, service):
        config = json.loads(json.dumps(FAST_CONFIG))
        config["grid"] = {"policy": []}
        with pytest.raises(ScenarioError, match="empty"):
            service.submit(config)

    def test_job_manager_validates_workers(self):
        with pytest.raises(ServiceError, match="max_workers"):
            JobManager(ScenarioRunner(), max_workers=0)


class TestHTTPEndpoints:
    def test_health_reports_runner_counters(self, live):
        service, client = live
        health = client.health()
        assert health["status"] == "ok"
        assert health["runner"] == {
            "tables_built": 0,
            "scenarios_executed": 0,
            "outcomes_replayed": 0,
        }
        list(client.submit_and_stream(FAST_CONFIG))
        assert client.health()["runner"]["scenarios_executed"] == 4
        assert client.health()["jobs"]["done"] == 1

    def test_registry_matches_cli_list_payload(self, live):
        from repro.cli import list_payload

        _, client = live
        assert client.registry() == list_payload()

    def test_submit_then_stream_and_status(self, live):
        _, client = live
        accepted = client.submit(FAST_CONFIG)
        assert accepted["n_scenarios"] == 4
        events = list(client.stream(accepted["job_id"]))
        assert [e["event"] for e in events][:1] == ["job"]
        assert events[-1]["event"] == "done"
        status = client.status(accepted["job_id"])
        assert status["state"] == "done"
        assert status["completed"] == 4
        jobs = client.jobs()
        assert [j["job_id"] for j in jobs] == [accepted["job_id"]]

    def test_stream_replays_full_log_for_late_subscribers(self, live):
        _, client = live
        accepted = client.submit(FAST_CONFIG)
        first = list(client.stream(accepted["job_id"]))
        again = list(client.stream(accepted["job_id"]))  # job already done
        assert first == again

    def test_invalid_body_is_structured_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"grid": {"policy": ["not-a-policy"]}})
        assert excinfo.value.status == 400
        assert "ScenarioError" in str(excinfo.value)
        assert "unknown policy" in str(excinfo.value)

    def test_non_string_table_strategy_is_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                {
                    "base": FAST_CONFIG["base"],
                    "grid": {
                        "policy": [
                            {"name": "protemp", "params": {"strategy": 0.5}}
                        ]
                    },
                }
            )
        assert excinfo.value.status == 400
        assert "ScenarioError" in str(excinfo.value)
        assert "must be a name string" in str(excinfo.value)

    def test_non_object_body_is_400(self, live):
        import urllib.error
        import urllib.request

        _, client = live
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode())
        assert payload["error"]["type"] == "ServiceError"

    def test_unknown_job_is_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-424242")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404_and_bad_method_is_405(self, live):
        import urllib.error
        import urllib.request

        _, client = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(client.base_url + "/nope", timeout=10)
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_run_endpoint_submits_and_streams_in_one_request(self, live):
        import urllib.request

        _, client = live
        request = urllib.request.Request(
            client.base_url + "/run",
            data=json.dumps(FAST_CONFIG).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            events = [json.loads(line) for line in response if line.strip()]
        assert events[0]["event"] == "job"
        assert events[-1]["event"] == "done"
        assert sum(e["event"] == "outcome" for e in events) == 4

    def test_draining_service_is_503_and_health_says_so(self, live):
        service, client = live
        service.drain()
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(FAST_CONFIG)
        assert excinfo.value.status == 503

    def test_wait_for_server_and_unreachable_client(self, live):
        _, client = live
        assert wait_for_server(client.base_url, timeout=5.0)["status"] in (
            "ok",
            "draining",
        )
        dead = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            dead.health()
        with pytest.raises(ServiceError, match="did not become healthy"):
            wait_for_server("http://127.0.0.1:1", timeout=0.5, interval=0.1)


class TestStdinMode:
    def test_two_lines_second_replays_from_warm_store(self):
        service = ScenarioService(
            max_workers=2, outcome_store=MemoryOutcomeStore()
        )
        line = json.dumps(FAST_CONFIG)
        out = io.StringIO()
        code = serve_stdin(service, io.StringIO(line + "\n" + line + "\n"), out)
        assert code == 0
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        dones = [e for e in events if e["event"] == "done"]
        assert len(dones) == 2
        assert dones[0]["scenarios_executed"] == 4
        assert dones[1]["scenarios_executed"] == 0
        assert dones[1]["outcomes_replayed"] == 4

    def test_malformed_line_emits_error_event_and_continues(self):
        service = ScenarioService(
            max_workers=2, outcome_store=MemoryOutcomeStore()
        )
        out = io.StringIO()
        stdin = io.StringIO("not json\n" + json.dumps(FAST_CONFIG) + "\n")
        code = serve_stdin(service, stdin, out)
        assert code == 1  # the bad line counts as a failure
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert events[0]["event"] == "error"
        assert [e for e in events if e["event"] == "done"][0][
            "scenarios_executed"
        ] == 4


class TestRunnerThreadSafety:
    def test_threaded_same_key_table_requests_build_once(self):
        runner = ScenarioRunner()
        platform = PlatformSpec("core-row", {"n_cores": 3})
        policy = PolicySpec("protemp", SMALL_TABLE_PARAMS)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(runner.table(platform, policy))
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert runner.tables_built == 1
        assert sum(1 for _, hit in results if not hit) == 1
        tables = {id(table) for table, _ in results}
        assert len(tables) == 1

    def test_threaded_runs_count_and_persist_exactly(self):
        store = MemoryOutcomeStore()
        runner = ScenarioRunner(outcome_store=store)
        specs = [
            ScenarioSpec(
                platform=PlatformSpec("core-row", {"n_cores": 3}),
                workload={"name": "poisson", "duration": 0.5,
                          "params": {"offered_load": 0.3}},
                policy="no-tc",
                t_initial=60.0,
                seed=seed,
            )
            for seed in range(6)
        ]
        threads = [
            threading.Thread(target=lambda s=s: runner.run(s)) for s in specs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert runner.scenarios_executed == 6
        assert len(store) == 6


class TestEventLogSemantics:
    def test_follow_false_returns_snapshot_without_blocking(self, service):
        job = service.submit(FAST_CONFIG)
        started = time.monotonic()
        snapshot = list(job.events(follow=False))
        assert time.monotonic() - started < 5.0
        assert all("seq" in e for e in snapshot)
        full = list(job.events())  # follow=True drains to the done event
        assert full[-1]["event"] == "done"
        assert snapshot == full[: len(snapshot)]

    def test_every_event_is_json_line_safe(self, service):
        job = service.submit(FAST_CONFIG)
        for event in job.events():
            line = json.dumps(event, allow_nan=False)
            assert "\n" not in line
            assert json.loads(line) == event
