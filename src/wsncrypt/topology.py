"""Network topology description and validation.

A topology is a set of role-tagged nodes, undirected edges, and configured
routes: each hub has one path to its sink, each sink one path to the single
fusion center.  `validate_topology` returns every violation it can find
rather than stopping at the first, so config errors surface in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .wire import ReadingKind

ROLE_SENSOR = "sensor"
ROLE_HUB = "hub"
ROLE_SINK = "sink"
ROLE_RELAY = "relay"
ROLE_FUSION = "fusion_center"

ROLES = frozenset({ROLE_SENSOR, ROLE_HUB, ROLE_SINK, ROLE_RELAY, ROLE_FUSION})

_NO_NEIGHBORS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class NodeSpec:
    """One node; `kind` is set for sensors only, and a sensor may carry its
    own sense period overriding the config-wide one."""

    id: int
    role: str
    kind: Optional[ReadingKind] = None
    sense_period_ticks: Optional[int] = None


@dataclass(frozen=True)
class Topology:
    """Nodes, edges and routes.  Each lookup index is derived from the
    fields on first use and kept; lookups hand out read-only views of it."""

    nodes: Tuple[NodeSpec, ...]
    edges: Tuple[Tuple[int, int], ...]
    routes: Dict[int, Tuple[int, ...]]

    @cached_property
    def _node_index(self) -> Dict[int, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _adjacency(self) -> Dict[int, FrozenSet[int]]:
        adjacent: Dict[int, Set[int]] = {}
        for a, b in self.edges:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
        return {node: frozenset(near) for node, near in adjacent.items()}

    @cached_property
    def _edge_index(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((min(a, b), max(a, b)) for a, b in self.edges)

    @cached_property
    def _role_index(self) -> Dict[str, Tuple[int, ...]]:
        by_role: Dict[str, List[int]] = {}
        for n in self.nodes:
            by_role.setdefault(n.role, []).append(n.id)
        return {role: tuple(ids) for role, ids in by_role.items()}

    @cached_property
    def _hub_sensors(self) -> Dict[int, Tuple[NodeSpec, ...]]:
        nodes = self._node_index
        return {
            hub_id: tuple(
                nodes[near] for near in sorted(self.neighbors(hub_id))
                if nodes[near].role == ROLE_SENSOR
            )
            for hub_id in self.ids_with_role(ROLE_HUB)
        }

    def node_map(self) -> Mapping[int, NodeSpec]:
        return MappingProxyType(self._node_index)

    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        return self._edge_index

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        return self._adjacency.get(node_id, _NO_NEIGHBORS)

    def ids_with_role(self, role: str) -> Tuple[int, ...]:
        return self._role_index.get(role, ())

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.neighbors(a)

    def hub_sensors(self) -> Mapping[int, Tuple[NodeSpec, ...]]:
        """Each hub's adjacent sensors in id order, by hub in node order.
        Needs a valid topology."""
        return MappingProxyType(self._hub_sensors)


def validate_topology(topology: Topology) -> List[str]:
    """Check every structural invariant; returns the full violation list.

    An empty list means the topology is acceptable.
    """
    problems: List[str] = []
    seen_ids = set()
    for node in topology.nodes:
        if node.id in seen_ids:
            problems.append(f"duplicate node id {node.id}")
        seen_ids.add(node.id)
        if not 0 <= node.id <= 0xFFFF:
            problems.append(f"node id {node.id} does not fit u16")
        if node.role not in ROLES:
            problems.append(f"node {node.id} has unknown role {node.role!r}")
        if node.role == ROLE_SENSOR:
            if node.kind is None:
                problems.append(f"sensor {node.id} has no reading kind")
            if (
                node.sense_period_ticks is not None
                and node.sense_period_ticks < 1
            ):
                problems.append(f"sensor {node.id} has non-positive period")
        else:
            if node.kind is not None:
                problems.append(f"non-sensor {node.id} carries a reading kind")
            if node.sense_period_ticks is not None:
                problems.append(f"non-sensor {node.id} carries a sense period")

    nodes = topology.node_map()
    for a, b in topology.edges:
        for end in (a, b):
            if end not in nodes:
                problems.append(f"edge ({a}, {b}) references unknown node {end}")
        if a == b:
            problems.append(f"self-loop edge on node {a}")

    fusion_ids = topology.ids_with_role(ROLE_FUSION)
    if len(fusion_ids) == 0:
        problems.append("missing fusion center")
    elif len(fusion_ids) > 1:
        problems.append(f"multiple fusion centers: {sorted(fusion_ids)}")

    hub_ids = set(topology.ids_with_role(ROLE_HUB))
    sink_ids = set(topology.ids_with_role(ROLE_SINK))
    route_owners = hub_ids | sink_ids

    for sensor_id in topology.ids_with_role(ROLE_SENSOR):
        adjacent_hubs = topology.neighbors(sensor_id) & hub_ids
        if len(adjacent_hubs) != 1:
            problems.append(
                f"sensor {sensor_id} is adjacent to {len(adjacent_hubs)} hubs,"
                " expected exactly 1"
            )

    for route_owner in topology.routes:
        if route_owner not in route_owners:
            problems.append(f"route configured for non-hub/sink {route_owner}")

    for hub_id in sorted(hub_ids):
        problems.extend(
            _check_route(topology, hub_id, "hub", sink_ids, "a sink")
        )
    fusion = fusion_ids[0] if len(fusion_ids) == 1 else None
    for sink_id in sorted(sink_ids):
        wanted = {fusion} if fusion is not None else set()
        problems.extend(
            _check_route(topology, sink_id, "sink", wanted, "the fusion center")
        )
    return problems


def _check_route(
    topology: Topology,
    owner: int,
    owner_role: str,
    valid_ends: Set[int],
    end_desc: str,
) -> List[str]:
    route = topology.routes.get(owner)
    if route is None:
        return [f"{owner_role} {owner} has no route"]
    problems = []
    if len(route) < 2:
        problems.append(f"route of {owner_role} {owner} has fewer than 2 nodes")
        return problems
    if route[0] != owner:
        problems.append(
            f"route of {owner_role} {owner} starts at {route[0]}, not itself"
        )
    if valid_ends and route[-1] not in valid_ends:
        problems.append(
            f"route of {owner_role} {owner} ends at {route[-1]}, not {end_desc}"
        )
    nodes = topology.node_map()
    for hop in route:
        if hop not in nodes:
            problems.append(
                f"route of {owner_role} {owner} visits unknown node {hop}"
            )
    for a, b in zip(route, route[1:]):
        if a in nodes and b in nodes and not topology.has_edge(a, b):
            problems.append(
                f"route of {owner_role} {owner} uses missing edge ({a}, {b})"
            )
    return problems
