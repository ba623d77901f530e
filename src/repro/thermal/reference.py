"""Reference thermal solutions used to validate the compact model.

The paper validates its simulator "using the thermal models from the Hotspot
simulator" (section 5).  We reproduce that validation step in two ways:

* :func:`exact_trajectory` integrates the continuous RC dynamics exactly with
  a matrix exponential (`scipy.linalg.expm`), giving a discretization-free
  reference for the explicit-Euler model.
* :func:`build_layered_network` constructs a HotSpot-style multi-layer
  package model — per-block die nodes, per-block copper heat-spreader nodes,
  and a single heat-sink node — whose die-node step responses the compact
  single-layer model is checked against (same topology philosophy as
  HotSpot's die/spreader/sink stack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ThermalModelError
from repro.floorplan.floorplan import Floorplan
from repro.thermal import constants
from repro.thermal.rc import RCNetwork, ThermalPackageConfig
from repro.units import mm


def exact_trajectory(
    network: RCNetwork,
    t0: np.ndarray,
    power: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Exact continuous-time solution at the requested times.

    Solves ``C dT/dt = -L T + G_amb t_amb + p`` in closed form:
    ``T(t) = T_ss + expm(-M t) (T(0) - T_ss)``.

    Args:
        network: RC network.
        t0: initial temperatures, shape (n,).
        power: constant power vector, shape (n,).
        times: evaluation times in seconds, shape (k,).

    Returns:
        Temperatures, shape (k, n).
    """
    from scipy.linalg import expm  # deferred: ~0.3 s, only this oracle needs it

    t0 = np.asarray(t0, dtype=float)
    power = np.asarray(power, dtype=float)
    if t0.shape != (network.n,) or power.shape != (network.n,):
        raise ThermalModelError("t0 and power must have shape (n,)")
    lap = network.laplacian()
    rhs = power + network.ambient_conductance * network.ambient
    t_ss = np.linalg.solve(lap, rhs)
    m_matrix = lap / network.capacitance[:, None]
    out = np.empty((len(times), network.n))
    for i, t in enumerate(np.asarray(times, dtype=float)):
        out[i] = t_ss + expm(-m_matrix * t) @ (t0 - t_ss)
    return out


@dataclass(frozen=True)
class LayeredPackageConfig:
    """Parameters of the layered (die + spreader + sink) reference model.

    Attributes:
        spreader_thickness: copper spreader thickness (m).
        sink_thickness: effective sink base thickness (m).
        die_to_spreader_resistance_per_area: interface material resistance,
            per area (K m^2 / W).
        spreader_to_sink_resistance_per_area: spreader-sink interface, per
            area (K m^2 / W).
        sink_to_ambient_resistance: lumped convection resistance (K/W).
        sink_area_factor: sink footprint as a multiple of the die area.
    """

    spreader_thickness: float = mm(1.0)
    sink_thickness: float = mm(5.0)
    die_to_spreader_resistance_per_area: float = 2.0e-5
    spreader_to_sink_resistance_per_area: float = 2.0e-5
    sink_to_ambient_resistance: float = 0.6
    sink_area_factor: float = 4.0


def build_layered_network(
    floorplan: Floorplan,
    die_config: ThermalPackageConfig | None = None,
    package: LayeredPackageConfig | None = None,
) -> RCNetwork:
    """Build a three-layer package model over a floorplan.

    Node layout: the first ``len(floorplan)`` nodes are die blocks in
    floorplan order (names unchanged), followed by one spreader node per
    block (``SP_<name>``) and a single ``SINK`` node.  Only the sink couples
    to ambient, so all heat flows die -> spreader -> sink -> ambient plus
    lateral conduction inside the die and spreader layers — the HotSpot
    stack.

    Args:
        floorplan: block floorplan.
        die_config: die material parameters; `capacitance_scale` is ignored
            (package mass is explicit here) and `vertical_resistance_per_area`
            is replaced by the layered path.
        package: layered package parameters.

    Returns:
        An :class:`RCNetwork` with ``2 n + 1`` nodes.
    """
    die = die_config or ThermalPackageConfig()
    pkg = package or LayeredPackageConfig()
    n = len(floorplan)
    areas = np.array([b.area for b in floorplan.blocks])
    total = 2 * n + 1
    sink_index = 2 * n

    names = [b.name for b in floorplan.blocks]
    names += [f"SP_{b.name}" for b in floorplan.blocks]
    names.append("SINK")

    capacitance = np.empty(total)
    capacitance[:n] = die.volumetric_heat_capacity * areas * die.die_thickness
    capacitance[n : 2 * n] = (
        constants.VOL_HEAT_CAPACITY_COPPER * areas * pkg.spreader_thickness
    )
    die_area = areas.sum()
    capacitance[sink_index] = (
        constants.VOL_HEAT_CAPACITY_COPPER
        * die_area
        * pkg.sink_area_factor
        * pkg.sink_thickness
    )

    conductance = np.zeros((total, total))
    # Lateral conduction inside the die and spreader layers.
    for adj in floorplan.adjacencies:
        g_die = (
            die.silicon_conductivity
            * die.die_thickness
            * adj.shared_length
            / adj.center_distance
        )
        g_sp = (
            constants.K_COPPER
            * pkg.spreader_thickness
            * adj.shared_length
            / adj.center_distance
        )
        i, j = adj.first, adj.second
        conductance[i, j] = conductance[j, i] = g_die
        conductance[n + i, n + j] = conductance[n + j, n + i] = g_sp
    # Vertical die -> spreader and spreader -> sink paths.
    for i in range(n):
        g_ds = areas[i] / pkg.die_to_spreader_resistance_per_area
        g_ss = areas[i] / pkg.spreader_to_sink_resistance_per_area
        conductance[i, n + i] = conductance[n + i, i] = g_ds
        conductance[n + i, sink_index] = conductance[sink_index, n + i] = g_ss

    ambient_conductance = np.zeros(total)
    ambient_conductance[sink_index] = 1.0 / pkg.sink_to_ambient_resistance

    return RCNetwork(
        node_names=names,
        capacitance=capacitance,
        conductance=conductance,
        ambient_conductance=ambient_conductance,
        ambient=die.ambient,
    )
