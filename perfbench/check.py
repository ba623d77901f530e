"""Output check for the benchmark: pinned rows, cross-source identity, guarantee.

A *cell* is one scenario's ``(spec, row)`` pair: the ``ScenarioSpec.to_dict()``
payload and its deterministic ``data_row()``.  Three checks apply:

* **pins** (default seed only): every row matches ``pins.json``.  The
  non-float fields (labels, hashes, seeds, task counts) are hashed
  canonically and must match exactly; float fields must agree to
  ``FLOAT_RTOL`` relative, the gen2-vs-cold solver-agreement tolerance of
  the test suite.  Bit-identity is counted and reported, not required.
* **identity** (every seed): rows of the same spec from different sources
  (repeated CLI processes, CLI stdout and the outcome store, the service,
  the traced in-process run) are bit-for-bit equal.
* **guarantee** (every seed): Pro-Temp under exact ("ideal") sensing never
  exceeds ``t_max``: ``violation_fraction == 0`` on every such cell.

The simulator has no hardware reference in this repository, so the check
is about reproducibility and the paper's guarantee; no accuracy-error
figure is reported.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

#: Relative tolerance on float fields: the gen2-vs-cold agreement bound of
#: the solver tests (tests/test_sweep_gen2.py, ``rtol=1e-9``).
FLOAT_RTOL = 1e-9

#: Per-call provenance in a ``summary_row()`` that is not simulation output.
PROVENANCE_KEYS = frozenset(
    ("wall_time_s", "solve_wall_time_s", "table_cache_hit", "outcome_cache_hit")
)


def canonical(payload) -> str:
    """Canonical JSON text (sorted keys, no NaN) for hashing and equality."""
    return json.dumps(
        payload, sort_keys=True, allow_nan=False, separators=(",", ":")
    )


def sha256(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def data_row(row: dict) -> dict:
    """The deterministic part of a ``summary_row()``."""
    return {k: v for k, v in row.items() if k not in PROVENANCE_KEYS}


def _is_float_field(value) -> bool:
    if isinstance(value, list):
        return all(isinstance(v, float) for v in value)
    return isinstance(value, float)


def pin_of(row: dict) -> dict:
    """The pinned form of a row: exact-field hash, floats, full-row hash."""
    exact = {k: v for k, v in row.items() if not _is_float_field(v)}
    floats = {k: v for k, v in row.items() if _is_float_field(v)}
    return {
        "exact_sha256": sha256(exact),
        "floats": floats,
        "row_sha256": sha256(row),
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def pin_problem(row: dict, pin: dict | None) -> str | None:
    """Why `row` fails its pin, or None when it matches within tolerance."""
    if pin is None:
        return "no pinned row for this spec hash"
    got = pin_of(row)
    if got["exact_sha256"] != pin["exact_sha256"]:
        return "labels or task counts differ from the pinned row"
    if got["floats"].keys() != pin["floats"].keys():
        return "float fields differ from the pinned row"
    for key, want in pin["floats"].items():
        have = got["floats"][key]
        if isinstance(want, list):
            ok = len(have) == len(want) and all(map(_close, have, want))
        else:
            ok = _close(have, want)
        if not ok:
            return f"{key} = {have!r}, pinned {want!r} (rtol {FLOAT_RTOL:g})"
    return None


def guarantee_problem(spec: dict, row: dict) -> str | None:
    """The paper's guarantee: Pro-Temp with exact sensing never violates t_max."""
    if spec["policy"]["name"] == "protemp" and spec["sensor"]["name"] == "ideal":
        if row["violation_fraction"] != 0.0:
            return f"Pro-Temp violated t_max ({row['violation_fraction']!r})"
    return None


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


class Checker:
    """Counts attempted and failed cells over one benchmark run.

    Args:
        pins: pinned rows by spec hash for the run's seed, or None on
            seeds other than the default (identity and guarantee only).
    """

    def __init__(self, pins: dict | None) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.bit_identical = 0
        self.problems: list[str] = []

    def fail(self, n_cells: int, why: str) -> None:
        """Count `n_cells` attempted cells that produced no row."""
        self.attempted += n_cells
        self.failed += n_cells
        self.problems.append(why)

    def problem(self, why: str) -> None:
        """A failed check that is not tied to one cell (e.g. a ranking)."""
        self.problems.append(why)

    def check(
        self,
        cells: list[tuple[dict, dict]],
        *,
        reference: dict | None = None,
        copies: tuple[dict, ...] | list[dict] = (),
    ) -> None:
        """Check one source's cells.

        Args:
            cells: ``(spec, row)`` pairs.
            reference: spec hash -> row from a source already checked; each
                row must equal it bit-for-bit (which carries the pin check
                over).  Without it, rows are checked against the pins.
            copies: the same rows as reported elsewhere by this source
                (e.g. CLI stdout beside the store); each must be equal.
        """
        bad: dict[str, str] = {}
        rows = {row["spec_hash"]: row for _, row in cells}
        for spec, row in cells:
            key = row["spec_hash"]
            problem = guarantee_problem(spec, row) if spec else "no spec for this row"
            if problem is None and reference is not None:
                if canonical(reference.get(key)) != canonical(row):
                    problem = "differs from the same spec's row in another source"
            elif problem is None and self.pins is not None:
                pin = self.pins.get(key)
                problem = pin_problem(row, pin)
                if problem is None and pin["row_sha256"] == sha256(row):
                    self.bit_identical += 1
            if problem is not None:
                bad[key] = f"{row.get('scenario', key)}: {problem}"
        for row in copies:
            key = row["spec_hash"]
            if key in rows and canonical(rows[key]) != canonical(row):
                bad.setdefault(key, f"{row.get('scenario', key)}: copies disagree")
        if copies and {row["spec_hash"] for row in copies} != rows.keys():
            self.problem("copies cover other specs than the cells")
        self.attempted += len(cells)
        self.failed += len(bad)
        self.problems.extend(bad.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems
