"""Network topology description and validation.

A topology is a set of role-tagged nodes, undirected edges, and configured
routes: each hub has one path to its sink, each sink one path to the single
fusion center.  The lookups and `validate_topology` read one index, built
once from one walk over the nodes and one over the edges.  Validation lists
every violation rather than the first, so config errors surface in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple

from .wire import ReadingKind

ROLE_SENSOR = "sensor"
ROLE_HUB = "hub"
ROLE_SINK = "sink"
ROLE_RELAY = "relay"
ROLE_FUSION = "fusion_center"

ROLES = frozenset({ROLE_SENSOR, ROLE_HUB, ROLE_SINK, ROLE_RELAY, ROLE_FUSION})

_NO_NEIGHBORS: FrozenSet[int] = frozenset()


class NodeSpec(NamedTuple):
    """One node; `kind` is set for sensors only, and a sensor may carry its
    own sense period overriding the config-wide one."""

    id: int
    role: str
    kind: Optional[ReadingKind] = None
    sense_period_ticks: Optional[int] = None


class _Index(NamedTuple):
    nodes: Dict[int, NodeSpec]
    by_role: Dict[str, Tuple[int, ...]]
    adjacent: Dict[int, FrozenSet[int]]


@dataclass(frozen=True)
class Topology:
    """Nodes, edges and routes, and one index derived on first use and kept:
    the node map (the last of equal ids wins), each role's distinct ids in
    node order and the frozen adjacency.  Lookups hand out read-only views
    of it."""

    nodes: Tuple[NodeSpec, ...]
    edges: Tuple[Tuple[int, int], ...]
    routes: Dict[int, Tuple[int, ...]]

    @cached_property
    def _index(self) -> _Index:
        nodes: Dict[int, NodeSpec] = {}
        by_role: Dict[str, List[int]] = {}
        for node in self.nodes:
            nodes[node.id] = node
            by_role.setdefault(node.role, []).append(node.id)
        adjacent: Dict[int, Set[int]] = {}
        for a, b in self.edges:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
        return _Index(
            nodes,
            {role: tuple(dict.fromkeys(ids)) for role, ids in by_role.items()},
            {node: frozenset(near) for node, near in adjacent.items()},
        )

    @cached_property
    def _hub_sensors(self) -> Dict[int, Tuple[NodeSpec, ...]]:
        nodes, by_role, adjacent = self._index
        return {
            hub_id: tuple(
                nodes[near] for near in sorted(adjacent.get(hub_id, _NO_NEIGHBORS))
                if nodes[near].role == ROLE_SENSOR
            )
            for hub_id in by_role.get(ROLE_HUB, ())
        }

    def node_map(self) -> Mapping[int, NodeSpec]:
        return MappingProxyType(self._index.nodes)

    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((min(a, b), max(a, b)) for a, b in self.edges)

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        return self._index.adjacent.get(node_id, _NO_NEIGHBORS)

    def ids_with_role(self, role: str) -> Tuple[int, ...]:
        return self._index.by_role.get(role, ())

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._index.adjacent.get(a, _NO_NEIGHBORS)

    def hub_sensors(self) -> Mapping[int, Tuple[NodeSpec, ...]]:
        """Each hub's adjacent sensors in id order, by hub in node order.
        Needs a valid topology."""
        return MappingProxyType(self._hub_sensors)


def validate_topology(topology: Topology) -> List[str]:
    """Check every structural invariant against the topology's index;
    returns the full violation list, empty for an acceptable topology."""
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
            period = node.sense_period_ticks
            if period is not None and period < 1:
                problems.append(f"sensor {node.id} has non-positive period")
        else:
            if node.kind is not None:
                problems.append(f"non-sensor {node.id} carries a reading kind")
            if node.sense_period_ticks is not None:
                problems.append(f"non-sensor {node.id} carries a sense period")

    nodes, by_role, adjacent = topology._index
    for a, b in topology.edges:
        for end in (a, b):
            if end not in nodes:
                problems.append(f"edge ({a}, {b}) references unknown node {end}")
        if a == b:
            problems.append(f"self-loop edge on node {a}")

    fusion_ids = by_role.get(ROLE_FUSION, ())
    if len(fusion_ids) == 0:
        problems.append("missing fusion center")
    elif len(fusion_ids) > 1:
        problems.append(f"multiple fusion centers: {sorted(fusion_ids)}")

    hub_ids = set(by_role.get(ROLE_HUB, ()))
    sink_ids = set(by_role.get(ROLE_SINK, ()))

    for sensor_id in by_role.get(ROLE_SENSOR, ()):
        hubs = len(adjacent.get(sensor_id, _NO_NEIGHBORS) & hub_ids)
        if hubs != 1:
            problems.append(
                f"sensor {sensor_id} is adjacent to {hubs} hubs, expected exactly 1"
            )

    for route_owner in topology.routes:
        if route_owner not in hub_ids and route_owner not in sink_ids:
            problems.append(f"route configured for non-hub/sink {route_owner}")

    # a route's end is checked only when some node could end it
    fusion = set(fusion_ids) if len(fusion_ids) == 1 else set()
    for role, owners, ends, end_desc in (
        ("hub", hub_ids, sink_ids, "a sink"),
        ("sink", sink_ids, fusion, "the fusion center"),
    ):
        for owner in sorted(owners):
            route = topology.routes.get(owner)
            name = f"route of {role} {owner}"
            if route is None:
                problems.append(f"{role} {owner} has no route")
                continue
            if len(route) < 2:
                problems.append(f"{name} has fewer than 2 nodes")
                continue
            if route[0] != owner:
                problems.append(f"{name} starts at {route[0]}, not itself")
            if ends and route[-1] not in ends:
                problems.append(f"{name} ends at {route[-1]}, not {end_desc}")
            problems += [
                f"{name} visits unknown node {hop}" for hop in route if hop not in nodes
            ]
            problems += [
                f"{name} uses missing edge ({a}, {b})"
                for a, b in zip(route, route[1:])
                if a in nodes and b in nodes and b not in adjacent.get(a, _NO_NEIGHBORS)
            ]
    return problems
