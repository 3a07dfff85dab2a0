"""The PLAN-VNE linear program (Fig. 4).

Decision variables, per aggregate class r̃ (app a, ingress v(r̃)):

* ``y_node[c, i, v]`` ∈ [0, 1] — fraction of d(r̃) placing VNF i on node v
  (Eq. 10). The root θ only gets a variable at the ingress (Eq. 11); a VNF
  only gets variables on datacenters where η permits placement (the hard
  form of "extremely high η^q_s to prevent mapping").
* ``y_arc[c, (i,j), (u,v)]`` ≥ 0 — flow of virtual link (i, j) on the
  directed substrate arc u→v.
* ``y_q[c, p]`` ∈ [0, 1/P] — rejected fraction assigned to quantile p
  (Eq. 12), with rejection cost ψ·p (Eq. 9) producing the water-filling
  starvation protection.

Constraints: root balance (Eq. 13), per-virtual-link flow conservation
(Eq. 14), and element capacities (Eq. 15). Objective: resource cost
(Eqs. 7–8) plus quantile rejection cost (Eq. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel, UniformEfficiency
from repro.errors import PlanError
from repro.lp.model import ConstraintSense, LinearProgram
from repro.plan.rejection import rejection_factor
from repro.stats.aggregate import AggregateRequest
from repro.substrate.network import SubstrateNetwork


@dataclass
class PlanVNEConfig:
    """Tunables of the PLAN-VNE LP.

    ``num_quantiles`` is P of Eq. 12 (the paper settles on 10 after the
    Fig. 11 study). ``rejection_base`` overrides the per-application ψ; by
    default ψ is derived from the substrate's most expensive elements (see
    :mod:`repro.plan.rejection`).
    """

    num_quantiles: int = 10
    rejection_base: float | None = None

    def __post_init__(self) -> None:
        if self.num_quantiles < 1:
            raise PlanError("need at least one rejection quantile")


@dataclass(frozen=True)
class ClassLayout:
    """Where one class's variables sit in the LP: one contiguous block.

    VNF ``app.vnfs[k]`` has variables ``node_start[k] + j`` on the
    substrate nodes at positions ``hosts[k][j]`` (the root's one host is
    the ingress). Virtual link ``app.links[k]`` has ``arc_start[k] + a``
    per arc ``a``: ``2·l`` crosses link ``l`` = ``(x, y)`` as x→y,
    ``2·l + 1`` as y→x. Quantile p is ``quantile_start + p - 1``.
    """

    root: int
    node_start: tuple[int, ...]
    hosts: tuple[np.ndarray, ...]
    arc_start: tuple[int, ...]
    quantile_start: int


@dataclass
class PlanVNEModel:
    """A built PLAN-VNE instance: the LP and each aggregate's layout."""

    program: LinearProgram
    layout: list[ClassLayout]


class _AppBlock:
    """What one application's classes share, η asked once: per variable,
    the size and η scaling its load, its cost and the element it loads
    (``-1``: none); per VNF, its variable on each node (``-1``: none)."""

    def __init__(
        self, app: Application, substrate: SubstrateNetwork,
        efficiency: EfficiencyModel, config: PlanVNEConfig,
    ) -> None:
        nodes, links = substrate.nodes.values(), substrate.links.values()
        node_cost, num_arcs = np.array([n.cost for n in nodes]), 2 * len(links)
        self.psi = (
            config.rejection_base
            if config.rejection_base is not None
            else rejection_factor(app, substrate)
        )
        columns = []  # (size, η, cost, element) per VNF, virtual link
        self.node_start, self.hosts, self.offsets = [], [], {}
        start = 0
        for k, vnf in enumerate(app.vnfs):
            self.node_start.append(start)
            if vnf.id == ROOT_ID:  # one variable, placed per class; β_θ = 0
                self.root, self.root_vnf, eta = start, k, [1.0]
            else:
                eta = [efficiency.node_eta(vnf, attrs) for attrs in nodes]
            hosts = np.array(
                [i for i, e in enumerate(eta) if e is not None], dtype=np.int64
            )
            self.hosts.append(hosts)
            columns.append((
                np.full(len(hosts), vnf.size), [eta[i] for i in hosts],
                node_cost[hosts], hosts,
            ))
            self.offsets[vnf.id] = np.full(len(nodes), -1, dtype=np.int64)
            self.offsets[vnf.id][hosts] = start + np.arange(len(hosts))
            start += len(hosts)
        self.arc_start = []
        for vlink in app.links:
            self.arc_start.append(start)
            eta = [efficiency.link_eta(vlink, attrs) for attrs in links]
            columns.append((
                np.full(num_arcs, vlink.size), np.repeat(eta, 2),
                np.repeat([attrs.cost for attrs in links], 2),
                len(nodes) + np.arange(num_arcs) // 2,
            ))
            start += num_arcs
        P = config.num_quantiles
        self.quantile_start, self.size = start, start + P
        columns.append((*[np.zeros(P)] * 3, [-1] * P))
        self.sizes, self.etas, self.costs, elements = (
            np.concatenate(column, dtype=float) for column in zip(*columns)
        )
        self.elements = elements.astype(np.int64)
        self.upper = np.where(np.arange(self.size) < start, 1.0, 1.0 / P)


def _incidence(substrate: SubstrateNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of every Eq. 14 row, node by node, and each node's count:
    per ``(w, link)`` of its adjacency, arc ``w→v`` then ``v→w``."""
    link_position = {link: l for l, link in enumerate(substrate.links)}
    arcs: list[int] = []
    for v, incident in substrate.adjacency.items():
        for _w, link in incident:
            outward = 2 * link_position[link] + (link[0] != v)
            arcs += (outward ^ 1, outward)
    counts = [2 * len(incident) for incident in substrate.adjacency.values()]
    return np.array(arcs, dtype=np.int64), np.array(counts, dtype=np.int64)


def _flow_rows(head, tail, arcs, counts):
    """Eq. 14 for one virtual link, a row per node with any entry: head
    (+1), tail (−1), arcs (−1 in, +1 out); ``head`` / ``tail`` give each
    node's variable or ``-1``. Returns rows, columns, values, row count."""
    has_head, has_tail = head >= 0, tail >= 0
    entries = counts + has_head + has_tail
    first = np.cumsum(entries) - entries
    column, value = np.empty(entries.sum(), dtype=np.int64), np.empty(entries.sum())
    column[first[has_head]], value[first[has_head]] = head[has_head], 1.0
    slot = (first + has_head)[has_tail]
    column[slot], value[slot] = tail[has_tail], -1.0
    slot = np.arange(len(arcs)) + np.repeat(
        first + has_head + has_tail - (np.cumsum(counts) - counts), counts
    )
    column[slot], value[slot] = arcs, np.tile([-1.0, 1.0], len(arcs) // 2)
    nonempty = entries > 0
    rows = np.repeat(np.cumsum(nonempty) - 1, entries)
    return rows, column, value, int(nonempty.sum())


def build_plan_vne(
    substrate: SubstrateNetwork,
    apps: list[Application],
    aggregates: list[AggregateRequest],
    efficiency: EfficiencyModel | None = None,
    config: PlanVNEConfig | None = None,
) -> PlanVNEModel:
    """Construct the Fig. 4 LP for the given aggregated demand, as array
    blocks (docs/ARCHITECTURE.md, "PLAN-VNE as arrays")."""
    efficiency = efficiency or UniformEfficiency()
    config = config or PlanVNEConfig()
    for aggregate in aggregates:  # refused before any variable exists
        if not 0 <= aggregate.app_index < len(apps):
            problem = "unknown application index"
        elif aggregate.ingress not in substrate.nodes:
            problem = "unknown ingress"
        elif not (math.isfinite(aggregate.demand) and aggregate.demand > 0):
            problem = "demand must be positive and finite"
        else:
            continue
        raise PlanError(f"class {aggregate.class_key}: {problem} ({aggregate})")
    P = config.num_quantiles
    node_position = {v: i for i, v in enumerate(substrate.nodes)}
    arcs, counts = _incidence(substrate)
    blocks: dict[int, _AppBlock] = {}
    variables, rows, loads, layout = [], [], [], []
    start = num_rows = 0
    for aggregate in aggregates:
        app = apps[aggregate.app_index]
        block = blocks.get(aggregate.app_index)
        if block is None:
            block = _AppBlock(app, substrate, efficiency, config)
            blocks[aggregate.app_index] = block
        ingress, demand = node_position[aggregate.ingress], aggregate.demand
        # Load per unit of a variable d·β·η and its cost (Eqs. 7–8); the
        # quantiles' rejection cost ψ·d·p (Eq. 9).
        load = demand * block.sizes * block.etas
        objective = load * block.costs
        objective[block.quantile_start:] = block.psi * demand * np.arange(1, P + 1)
        variables.append((np.zeros(block.size), block.upper, objective))
        loaded = np.flatnonzero((load > 0) & (block.elements >= 0))
        loads.append((block.elements[loaded], start + loaded, load[loaded]))
        # Root balance (Eq. 13), then flow conservation (Eq. 14).
        balance = [block.root, *range(block.quantile_start, block.size)]
        rows.append((
            [num_rows] * (P + 1), start + np.array(balance), np.ones(P + 1), [1.0]
        ))
        num_rows += 1
        root = np.full(len(node_position), -1, dtype=np.int64)
        root[ingress] = block.root
        for vlink, arc_start in zip(app.links, block.arc_start):
            tail = root if vlink.tail == ROOT_ID else block.offsets[vlink.tail]
            row, column, value, count = _flow_rows(
                block.offsets[vlink.head], tail, arc_start + arcs, counts
            )
            rows.append((num_rows + row, start + column, value, np.zeros(count)))
            num_rows += count
        hosts = list(block.hosts)
        hosts[block.root_vnf] = np.array([ingress])
        layout.append(ClassLayout(
            root=start + block.root,
            node_start=tuple(start + s for s in block.node_start),
            hosts=tuple(hosts),
            arc_start=tuple(start + s for s in block.arc_start),
            quantile_start=start + block.quantile_start,
        ))
        start += block.size

    program = LinearProgram(name="plan-vne")
    if aggregates:
        program.add_variables(*map(np.concatenate, zip(*variables)))
        row, column, value, rhs = map(np.concatenate, zip(*rows))
        program.add_rows(row, column, value, ConstraintSense.EQ, rhs)
    # Capacity (Eq. 15): one row per loaded element, nodes in substrate
    # order then links, its entries in class order.
    if loads:
        element, column, load = map(np.concatenate, zip(*loads))
        order = np.argsort(element, kind="stable")
        loaded, row = np.unique(element[order], return_inverse=True)
        elements = [*substrate.nodes.values(), *substrate.links.values()]
        capacity = np.array([attrs.capacity for attrs in elements])[loaded]
        program.add_rows(row, column[order], load[order], ConstraintSense.LE, capacity)
    return PlanVNEModel(program=program, layout=layout)
