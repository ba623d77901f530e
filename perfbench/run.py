#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Pro-Temp reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload grid-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 --workload tournament-cold
    python3 perfbench/run.py --write-pins

One run prints human-readable lines and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  ``--steadiness N`` repeats each workload on N seeds and
prints the median and quartiles of every end-to-end metric, flagging any
whose spread exceeds its bound.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
WORK_ROOT = ROOT / ".perfbench-work"

#: The seed that reproduces the committed example configs (and the pins).
DEFAULT_SEED = 0

#: Config file and CLI subcommand per config kind.
CONFIGS = {"run": "scenario_config.json", "tournament": "tournament_config.json"}

#: The config kinds each workload runs.
WORKLOADS = {
    "grid-cold": ("run",),
    "tournament-cold": ("tournament",),
    "service-warm": ("run", "tournament"),
}

#: Policies of the two configs; each gets its own control.* layer metrics.
POLICIES = ("no-tc", "basic-dfs", "protemp", "rao-integral", "bhat-state-space", "mpc")

#: Fresh interpreters (or servers) timed per run; setup_s is their median.
SETUP_REPEATS = 3
#: Fewest cold CLI processes per run, however short ``--seconds`` is.
MIN_CLI_SAMPLES = 3
#: Fewest closed-loop rounds (one submit of each config) per service run.
MIN_ROUNDS = 100
#: Untimed closed-loop rounds before timing starts (their rows are checked).
WARMUP_ROUNDS = 10
#: The server's peak RSS is read after this many submits, so that the
#: figure does not grow with the number of jobs a faster server fits in.
RSS_AFTER_SUBMITS = 200
#: Kill any child still running after this long.
CHILD_TIMEOUT_S = 150.0
HEALTH_POLL_S = 0.005


class BenchError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


class Sample(NamedTuple):
    wall_s: float
    first_out_s: float
    rss_mb: float
    stdout: bytes
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def timed_child(cmd: list[str], stderr_path: Path) -> Sample:
    """Run `cmd` to completion: wall (spawn to exit), time to its first
    stdout byte, and its own peak RSS (``wait4``, not all children)."""
    status = None
    with open(stderr_path, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            head = proc.stdout.read(1)
            first = time.perf_counter()
            out = head + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=ended - started,
        first_out_s=first - started,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out,
        returncode=proc.returncode,
    )


@contextlib.contextmanager
def one_cpu(lines: list[str]):
    """Run the timed part, children included, on one CPU.

    Hand-offs between the client, the server's threads and a CLI's parent
    then never wait for the hypervisor to wake an idle vCPU; on a shared
    host those wake-ups made the service latencies follow other guests'
    load.  None of the timed programs needs a second CPU: a CLI run is one
    thread of work, and the server's threads share one interpreter lock.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    lines.append(f"timed processes pinned to CPU {cpu} of {len(allowed)}")
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def stderr_tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(errors="replace") if path.exists() else ""
    return " | ".join(text.strip().splitlines()[-lines:])


# -- inputs ----------------------------------------------------------------


def write_configs(seed: int, work: Path) -> dict[str, tuple[Path, dict]]:
    """The workload's configs for `seed`: the committed example configs with
    their ``seed`` axis shifted by `seed` (the default seed shifts nothing)."""
    configs = {}
    for kind, name in CONFIGS.items():
        config = json.loads((EXAMPLES / name).read_text())
        grid = config["grid"]
        grid["seed"] = [value + seed - DEFAULT_SEED for value in grid["seed"]]
        path = work / f"{kind}-config.json"
        path.write_text(json.dumps(config))
        configs[kind] = (path, config)
    return configs


def cli_command(kind: str, config_path: Path, store: Path) -> list[str]:
    return cli(kind, str(config_path), "--json", "--outcome-store", str(store))


def grid_size(config: dict) -> int:
    from repro.scenario.specs import scenario_grid_from_config

    return len(scenario_grid_from_config(config))


def store_cells(store: Path) -> list[tuple[dict, dict]]:
    """``(spec, row)`` of every record an outcome store holds."""
    from repro.scenario import open_existing_store

    opened = open_existing_store(store)
    try:
        return [(record.spec, record.summary) for record in opened.records()]
    finally:
        opened.close()


def load_workload_pins(seed: int, kinds) -> tuple[dict | None, list]:
    """(rows pinned by spec hash, tournament ranking) for the seed."""
    if seed != DEFAULT_SEED:
        return None, []
    from check import load_pins

    pins = load_pins()
    rows = {}
    for kind in kinds:
        rows.update(pins[kind])
    return rows, pins["tournament_ranking"]


# -- cold CLI workloads ----------------------------------------------------


def verify_cli_sample(kind, sample, store, n_cells, checker, reference, ranking):
    """Check one CLI process's rows; returns (rows by hash, tournament section)."""
    if sample.returncode != 0:
        checker.fail(n_cells, f"protemp {kind} exited {sample.returncode}")
        return None, None
    try:
        report = json.loads(sample.stdout)
    except ValueError:
        checker.fail(n_cells, f"protemp {kind} printed no JSON report")
        return None, None
    cells = store_cells(store)
    copies = []
    section = None
    if kind == "run":
        from check import data_row

        copies = [data_row(row) for row in report]
    else:
        section = report["tournament"]
        if ranking and section["ranking"] != ranking:
            checker.problem(f"tournament ranking {section['ranking']} != pinned")
    if len(cells) != n_cells:
        checker.fail(n_cells - len(cells), f"store holds {len(cells)}/{n_cells} cells")
    checker.check(cells, reference=reference, copies=copies)
    return {row["spec_hash"]: row for _, row in cells}, section


def cli_time_left(samples: list[Sample], started: float, seconds: float) -> bool:
    """Whether another process fits: it may end at most half a process past
    the deadline, so a run lasts about `seconds` whatever one process takes."""
    expected = median(s.wall_s for s in samples)
    return time.perf_counter() - started + expected / 2 < seconds


def bench_cli(kind, configs, seconds, work, checker, ranking, lines):
    """Fresh ``protemp run|tournament`` processes on empty sqlite stores."""
    config_path, config = configs[kind]
    n_cells = grid_size(config)
    setup = [
        timed_child([sys.executable, "-c", "import repro.cli"], work / "setup.err").wall_s
        for _ in range(SETUP_REPEATS)
    ]
    samples: list[Sample] = []
    reference = section = None
    started = time.perf_counter()
    while len(samples) < MIN_CLI_SAMPLES or cli_time_left(samples, started, seconds):
        store = work / f"cold-{len(samples)}.sqlite"
        sample = timed_child(cli_command(kind, config_path, store), work / "cli.err")
        samples.append(sample)
        rows, got = verify_cli_sample(
            kind, sample, store, n_cells, checker, reference, ranking
        )
        if sample.returncode != 0:
            lines.append(f"stderr: {stderr_tail(work / 'cli.err')}")
        if reference is None:
            reference, section = rows, got
        elif got is not None and section is not None and got != section:
            checker.problem("tournament section differs between processes")
    walls = [s.wall_s for s in samples]
    lines.append(
        f"{len(samples)} cold `protemp {kind}` processes, {n_cells} cells each, "
        "walls " + " ".join(f"{wall:.3f}" for wall in walls) + " s"
    )
    lines.append(
        f"submit_p90_s {p90(walls):.6f} s over {len(samples)} processes "
        "(printed, not gated: with a few samples it is their maximum)"
    )
    return {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "submit_p50_s": median(walls),
        "first_row_p50_s": median([s.first_out_s for s in samples]),
        "peak_rss_mb": median([s.rss_mb for s in samples]),
    }


# -- import breakdown ------------------------------------------------------

IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(work: Path, lines: list[str]) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime -c 'import repro.cli'``."""
    err = work / "importtime.err"
    sample = timed_child(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"], err
    )
    if sample.returncode != 0:
        raise BenchError(f"import repro.cli failed: {stderr_tail(err)}")
    cumulative: dict[str, float] = {}
    self_times = []
    for match in IMPORT_LINE.finditer(err.read_text()):
        own, total, _, module = match.groups()
        cumulative.setdefault(module, int(total) / 1e6)
        self_times.append((int(own) / 1e6, module))
    top = sorted(self_times, reverse=True)[:8]
    lines.append(
        "import self-time top: "
        + ", ".join(f"{module} {own * 1e3:.1f}ms" for own, module in top)
    )
    return {
        "import.repro_cli_s": cumulative.get("repro.cli", 0.0),
        "import.scipy_linalg_s": cumulative.get("scipy.linalg", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
    }


def zero_layers() -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json at 0: a layer a workload
    does not reach reads 0."""
    return dict.fromkeys((m["name"] for m in load_benchmark()["per_layer"]), 0.0)


def trace_cli(kind, configs, work, checker, ranking, lines):
    """One untraced CLI process, then the traced in-process run of the same
    config; rows must agree bit-for-bit."""
    config_path, config = configs[kind]
    n_cells = grid_size(config)
    metrics = zero_layers()
    metrics.update(import_breakdown(work, lines))
    store = work / "untraced.sqlite"
    untraced = timed_child(cli_command(kind, config_path, store), work / "cli.err")
    reference, section = verify_cli_sample(
        kind, untraced, store, n_cells, checker, None, ranking
    )
    out = work / "layers.json"
    traced = timed_child(
        [
            sys.executable,
            str(BENCH_DIR / "layers.py"),
            str(config_path),
            "--kind",
            kind,
            "--store",
            str(work / "traced.sqlite"),
            "--out",
            str(out),
        ],
        work / "layers.err",
    )
    if traced.returncode != 0 or reference is None:
        checker.fail(n_cells, f"traced run failed: {stderr_tail(work / 'layers.err')}")
        return metrics
    report = json.loads(out.read_text())
    if len(report["rows"]) != n_cells:
        checker.fail(n_cells - len(report["rows"]), "traced run lost cells")
    specs = {row["spec_hash"]: spec for spec, row in store_cells(work / "traced.sqlite")}
    checker.check(
        [(specs.get(row["spec_hash"], {}), row) for row in report["rows"]],
        reference=reference,
    )
    if kind == "tournament" and report["tournament"] != section:
        checker.problem("traced tournament section differs from the CLI's")
    seconds, counts = report["seconds"], report["counts"]
    sim_self = seconds.get("sim_run", 0.0) - seconds.get("sim_decide", 0.0)
    steps = report["thermal_steps"]
    cells = report["table_cells"]
    table_s = seconds.get("table", 0.0)
    metrics.update(
        {
            "scenario.expand_s": seconds["expand"],
            "core.table_build_s": table_s,
            "core.table_cells": cells,
            "core.table_ms_per_cell": table_s / cells * 1e3 if cells else 0.0,
            "workloads.trace_build_s": seconds.get("trace_build", 0.0),
            "workloads.tasks": report["tasks"],
            "sim.loop_self_s": sim_self,
            "sim.thermal_steps": steps,
            "sim.us_per_step": sim_self / steps * 1e6 if steps else 0.0,
            "sim.sim_s_per_host_s": (
                report["simulated_s"] / seconds["sim_run"] if steps else 0.0
            ),
            "scenario.store_put_s": seconds.get("store_put", 0.0),
            "scenario.store_puts": counts.get("store_put", 0),
            "scenario.store_get_s": seconds.get("store_get", 0.0),
            "scenario.store_gets": counts.get("store_get", 0),
            "scenario.store_hit_ratio": (
                report["store_hits"] / counts["store_get"]
                if counts.get("store_get")
                else 0.0
            ),
            "analysis.tournament_reduce_s": seconds.get("tournament_reduce", 0.0),
        }
    )
    for policy in POLICIES:
        busy = seconds.get(f"decide.{policy}", 0.0)
        calls = counts.get(f"decide.{policy}", 0)
        metrics[f"control.decide_s.{policy}"] = busy
        metrics[f"control.decide_calls.{policy}"] = calls
        metrics[f"control.decide_ms_per_call.{policy}"] = (
            busy / calls * 1e3 if calls else 0.0
        )
    # Self times of the layers that tile the traced process's wall time.
    attributed = report["import_s"] + sum(
        seconds.get(layer, 0.0)
        for layer in (
            "expand",
            "table",
            "trace_build",
            "sim_run",
            "store_get",
            "store_put",
            "tournament_reduce",
        )
    )
    metrics.update(
        {
            "trace.wall_s": traced.wall_s,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "trace.import_s": report["import_s"],
            "trace.attributed_frac": attributed / traced.wall_s,
            "trace.unattributed_s": traced.wall_s - attributed,
        }
    )
    return metrics


# -- warm service workload -------------------------------------------------


def fill_store(configs, store, work, checker):
    """Fixture (untimed): both cold CLI runs, concurrently, into one store.

    Returns (spec by hash, row by hash) of the stored cells."""
    procs = []
    for kind in CONFIGS:
        err = open(work / f"fixture-{kind}.err", "wb")
        procs.append(
            (
                kind,
                err,
                subprocess.Popen(
                    cli_command(kind, configs[kind][0], store),
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    env=child_env(),
                    cwd=ROOT,
                ),
            )
        )
    try:
        for kind, err, proc in procs:
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
                checker.problem(
                    f"fixture protemp {kind} failed: "
                    f"{stderr_tail(work / f'fixture-{kind}.err')}"
                )
    finally:
        for _, err, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err.close()
    cells = store_cells(store) if store.exists() else []
    checker.check(cells)
    return (
        {row["spec_hash"]: spec for spec, row in cells},
        {row["spec_hash"]: row for _, row in cells},
    )


class Server:
    """A ``protemp serve`` child on an ephemeral port; setup_s is the time
    from spawning it to its first OK ``/healthz``."""

    def __init__(self, store: Path, log: Path) -> None:
        from repro.errors import ServiceError
        from repro.serving.client import ServiceClient

        self._log_file = open(log, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cli("serve", "--port", "0", "--outcome-store", str(store)),
            stdout=subprocess.DEVNULL,
            stderr=self._log_file,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            self.url = None
            while True:
                if self.proc.poll() is not None:
                    raise BenchError(f"protemp serve exited: {stderr_tail(log)}")
                if time.perf_counter() - started > CHILD_TIMEOUT_S:
                    raise BenchError("protemp serve did not become healthy")
                if self.url is None:
                    found = re.search(r"listening on (http://\S+)", log.read_text())
                    self.url = found.group(1) if found else None
                if self.url is not None:
                    try:
                        if ServiceClient(self.url, timeout=5).health()["status"] == "ok":
                            break
                    except ServiceError:
                        pass
                time.sleep(HEALTH_POLL_S)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_file.close()


def closed_loop(server, configs, specs, expected, seconds, checker):
    """One client, one connection at a time: submit the two configs
    alternately, streaming each job to its ``done`` event before the next.

    Returns per-config timing samples (seconds) by name: ``latency``
    (submit to ``done``), ``first_row`` (submit to the first outcome),
    ``post`` (the ``POST /jobs``) and ``stream`` (the event stream)."""
    from check import data_row
    from repro.errors import ServiceError
    from repro.serving.client import ServiceClient

    client = ServiceClient(server.url)
    n_cells = {kind: grid_size(configs[kind][1]) for kind in CONFIGS}
    samples = {
        kind: {"latency": [], "first_row": [], "post": [], "stream": []}
        for kind in CONFIGS
    }
    rounds, submits, rss, warmup = [], 0, None, WARMUP_ROUNDS
    started = time.perf_counter()
    while warmup or len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        round_started = time.perf_counter()
        for kind in CONFIGS:
            t0 = time.perf_counter()
            rows, first, done = [], None, None
            try:
                job = client.submit(configs[kind][1])
                t1 = time.perf_counter()
                for event in client.stream(job["job_id"]):
                    if event.get("event") == "outcome":
                        first = first or time.perf_counter()
                        rows.append(data_row(event["row"]))
                    elif event.get("event") == "done":
                        done = event
                t2 = time.perf_counter()
            except ServiceError as exc:
                checker.fail(n_cells[kind], f"submit refused: {exc}")
                continue
            if not warmup:
                timings = samples[kind]
                timings["latency"].append(t2 - t0)
                timings["post"].append(t1 - t0)
                timings["stream"].append(t2 - t1)
                timings["first_row"].append((first or t2) - t0)
            checker.check(
                [(specs.get(row["spec_hash"], {}), row) for row in rows],
                reference=expected,
            )
            if len(rows) < n_cells[kind]:
                checker.fail(
                    n_cells[kind] - len(rows), f"{kind} job streamed {len(rows)} rows"
                )
            if done is None or done["failed"] or done["scenarios_executed"]:
                checker.problem(f"{kind} job did not finish warm: {done}")
            submits += 1
            if submits == RSS_AFTER_SUBMITS:
                rss = server.peak_rss_mb()
        if warmup:
            warmup -= 1
            started = time.perf_counter()
        else:
            rounds.append(time.perf_counter() - round_started)
    return {
        "samples": samples,
        "submits": submits,
        "rounds": rounds,
        "rss": rss if rss is not None else server.peak_rss_mb(),
        "loop_wall": time.perf_counter() - started,
        "client": client,
    }


def per_config(loop: dict, name: str, stat) -> float:
    """`stat` of one timing, averaged over the two configs.

    The alternating mix is bimodal (8-cell and 30-cell jobs); a pooled
    median would fall in the gap between the modes and jump between them.
    """
    return statistics.fmean(stat(timings[name]) for timings in loop["samples"].values())


def bench_service(configs, seconds, trace, work, checker, lines):
    store = work / "warm.sqlite"
    specs, expected = fill_store(configs, store, work, checker)
    servers = []
    with one_cpu(lines):
        try:
            for i in range(1 if trace else SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                servers.append(Server(store, work / f"serve-{i}.log"))
            server = servers[-1]
            loop = closed_loop(server, configs, specs, expected, seconds, checker)
            snapshot = None
            if trace:
                fetch_started = time.perf_counter()
                snapshot = loop["client"].metrics()
                fetch_s = time.perf_counter() - fetch_started
        finally:
            for server in servers:
                server.stop()
    lines.append(
        f"{loop['submits']} submits in {len(loop['rounds'])} timed rounds after "
        f"{WARMUP_ROUNDS} untimed ones (closed loop, one client); latency "
        "percentiles per config over "
        + ", ".join(
            f"{len(timings['latency'])} {kind} submits"
            for kind, timings in loop["samples"].items()
        )
    )
    submit_p90 = per_config(loop, "latency", p90)
    if not trace:
        lines.append(f"submit_p90_s {submit_p90:.6f} s (printed, not gated)")
        return {
            "setup_s": median([s.setup_s for s in servers]),
            "wall_s": median(loop["rounds"]),
            "submit_p50_s": per_config(loop, "latency", median),
            "first_row_p50_s": per_config(loop, "first_row", median),
            "peak_rss_mb": loop["rss"],
        }
    metrics = zero_layers()
    metrics.update(import_breakdown(work, lines))
    histograms = snapshot["histograms"]
    counters = snapshot["counters"]
    gets = histograms.get("store_get_seconds", {"count": 0, "sum": 0.0})
    executes = histograms.get("scenario_execute_seconds", {"sum": 0.0})
    attributed = sum(
        sum(timings["post"]) + sum(timings["stream"])
        for timings in loop["samples"].values()
    )
    traced_wall = loop["loop_wall"] + fetch_s
    metrics.update(
        {
            "scenario.store_get_s": gets["sum"],
            "scenario.store_gets": gets["count"],
            "scenario.store_hit_ratio": (
                counters.get("outcomes_replayed_total", 0) / gets["count"]
                if gets["count"]
                else 0.0
            ),
            "serving.post_jobs_p50_s": per_config(loop, "post", median),
            "serving.stream_p50_s": per_config(loop, "stream", median),
            "serving.submit_p90_s": submit_p90,
            "serving.server_execute_s": executes["sum"],
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": loop["loop_wall"],
            "trace.overhead_s": fetch_s,
            "trace.attributed_frac": attributed / traced_wall,
            "trace.unattributed_s": traced_wall - attributed,
        }
    )
    return metrics


# -- entry points ----------------------------------------------------------


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (user ... steal)."""
    return [int(field) for field in Path("/proc/stat").read_text().split()[1:9]]


def steal_line(before: list[int], after: list[int]) -> str:
    """How much CPU time the hypervisor took from this machine during the
    run: the usual cause of a run that is slow on every metric at once."""
    delta = [b - a for a, b in zip(before, after)]
    return f"host steal {100.0 * delta[7] / max(sum(delta), 1):.2f}% of CPU time"


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} is missing")
    return json.loads(path.read_text())


def preflight() -> None:
    """Fail fast outside a full checkout; byte-compile the sources once."""
    missing = [
        str(path.relative_to(ROOT))
        for path in [SRC / "repro" / "cli.py", *(EXAMPLES / n for n in CONFIGS.values())]
        if not path.is_file()
    ]
    if missing:
        raise BenchError(f"not a full checkout, missing: {', '.join(missing)}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stdout.decode()[-400:]}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from check import Checker

    benchmark = load_benchmark()
    declared = benchmark["per_layer" if trace else "end_to_end"]
    preflight()
    kinds = WORKLOADS[workload]
    pins, ranking = load_workload_pins(seed, kinds)
    checker = Checker(pins)
    lines: list[str] = []
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    cpu_before = cpu_times()
    try:
        configs = write_configs(seed, work)
        if workload == "service-warm":
            values = bench_service(configs, seconds, trace, work, checker, lines)
        elif trace:
            with one_cpu(lines):
                values = trace_cli(kinds[0], configs, work, checker, ranking, lines)
        else:
            with one_cpu(lines):
                values = bench_cli(
                    kinds[0], configs, seconds, work, checker, ranking, lines
                )
    finally:
        remove_work(work)
    lines.append(steal_line(cpu_before, cpu_times()))
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        raise BenchError(f"metric set drifted from BENCHMARK.json: {sorted(values)}")
    for metric in declared:
        value = values[metric["name"]]
        lines.append(f"{metric['name']:<42s} {value:14.6f} {metric['unit']}")
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    lines.append(
        f"failed_frac {failed_frac:.4f} ({checker.failed}/{checker.attempted} cells); "
        f"pinned rows bit-identical: {checker.bit_identical}"
    )
    lines.extend(f"CHECK FAILED: {problem}" for problem in checker.problems[:20])
    return {
        "lines": lines,
        "result": {
            "correct": checker.correct and checker.attempted > 0,
            "attempted": max(checker.attempted, 1),
            "failed": checker.failed,
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in declared
            },
        },
    }


def steadiness(repeats: int, workloads, seconds: int, base_seed: int) -> int:
    """Repeat each workload on `repeats` seeds; print quartiles and flags."""
    benchmark = load_benchmark()
    bad = 0
    for workload in workloads:
        runs = []
        for seed in range(base_seed, base_seed + repeats):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True,
                cwd=ROOT,
                timeout=600,
            )
            lines = done.stdout.decode().strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode} "
                      f"{done.stderr.decode()[-400:]}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                bad += 1
            runs.append(result)
            steal = next((line for line in lines if line.startswith("host steal")), "")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                  + f" ({steal})",
                  flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<18s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for metric in benchmark["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            if spread > metric["bound"]:
                flag = "OVER BOUND"
                bad += metric["name"] != "setup_s"
            else:
                flag = "ok" if spread < metric["bound"] / 3 else "above bound/3"
            print(f"  {metric['name']:<18s} {mid:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}  {flag}")
    return 1 if bad else 0


def write_pins() -> int:
    """Pin the default seed's rows (and the tournament ranking)."""
    from check import guarantee_problem, pin_of

    preflight()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"pins-{os.getpid()}"
    work.mkdir()
    pins: dict = {}
    try:
        configs = write_configs(DEFAULT_SEED, work)
        for kind, (path, _) in configs.items():
            store = work / f"{kind}.sqlite"
            sample = timed_child(cli_command(kind, path, store), work / "pins.err")
            if sample.returncode != 0:
                raise BenchError(f"protemp {kind} failed: {stderr_tail(work / 'pins.err')}")
            pins[kind] = {}
            for spec, row in store_cells(store):
                problem = guarantee_problem(spec, row)
                if problem:
                    raise BenchError(f"{row['scenario']}: {problem}")
                pins[kind][row["spec_hash"]] = pin_of(row)
            if kind == "tournament":
                pins["tournament_ranking"] = json.loads(sample.stdout)["tournament"]["ranking"]
    finally:
        remove_work(work)
    from check import PINS_PATH

    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH.relative_to(ROOT)}: "
          + ", ".join(f"{k} {len(v)} rows" for k, v in pins.items() if k in CONFIGS))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=None)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        seconds = args.seconds or load_benchmark()["run_seconds"]
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        if args.write_pins:
            return write_pins()
        if args.steadiness is not None:
            chosen = [args.workload] if args.workload else list(WORKLOADS)
            return steadiness(args.steadiness, chosen, seconds, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
