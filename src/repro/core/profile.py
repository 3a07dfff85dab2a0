"""Per-application static quantities for the embedding fast path.

Every arriving request of application ``a`` re-derives the same static
data: which VNFs form each placement-compatibility group, the summed size
of the virtual links adjacent to θ (what a collocated embedding routes),
and the η placement coefficient of every VNF on every substrate node. An
:class:`AppProfile` computes all of it exactly once per (application,
substrate, efficiency model) and exposes vectorized per-request helpers
whose floating-point accumulation order matches the scalar reference
(:mod:`repro.core.greedy_reference`) bit for bit — the decision-
equivalence guarantee rests on that.

:class:`AppProfileCache` holds one profile per application object and is
owned by an algorithm instance (OLIVE/QUICKG build it next to their
:class:`~repro.core.residual.ResidualState`; FULLG uses the same profiles
for its placement-feasibility rows).
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import ROOT_ID, Application, VNFKind
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import ElementLoads, compute_loads
from repro.substrate.network import SubstrateNetwork
from repro.utils.fold import left_sum

#: Host-group labels used by the generalized two-group greedy.
GroupPair = tuple[str, str]


class AppProfile:
    """Static per-application quantities on one substrate.

    Attributes
    ----------
    vnf_ids:
        Non-root VNF ids in application order (the single-host group).
    root_link_size_sum:
        Σ β over virtual links adjacent to θ; ``demand × this`` is the
        route load of a collocated embedding.
    eta:
        Per-VNF numpy row over nodes (substrate-index order); ``nan``
        marks a forbidden placement.
    groups:
        Placement-compatibility groups, ``{"generic": [...], "gpu": [...]}``
        (ids in application order, mirroring the reference partition).
    sorted_groups:
        The same groups with ids sorted — the order the two-host variant
        accumulates group loads in.
    cross_pairs / pairs_present:
        Per-virtual-link (host-group pair, β size) in application link
        order, and the set of group pairs that actually occur; drives the
        two-host crossing loads.
    """

    def __init__(
        self,
        app: Application,
        substrate: SubstrateNetwork,
        efficiency: EfficiencyModel,
    ) -> None:
        from repro.substrate.network import substrate_index

        self.app = app
        index = substrate_index(substrate)
        self.num_nodes = index.num_nodes
        non_root = app.non_root_vnfs()
        self.vnf_ids = [vnf.id for vnf in non_root]
        self.root_link_size_sum = left_sum(
            link.size for link in app.children_links(ROOT_ID)
        )
        node_attrs = [substrate.nodes[v] for v in index.node_ids]
        self.eta: dict[int, np.ndarray] = {}
        self.sizes: dict[int, float] = {}
        #: Per-VNF ``(β, [η per node])`` in application order, η as plain
        #: floats (``nan`` = forbidden) — the node half of the collocated
        #: loads fast path.
        self.node_terms: list[tuple[float, list[float]]] = []
        for vnf in non_root:
            row = np.empty(index.num_nodes)
            for i, attrs in enumerate(node_attrs):
                value = efficiency.node_eta(vnf, attrs)
                row[i] = np.nan if value is None else value
            self.eta[vnf.id] = row
            self.sizes[vnf.id] = vnf.size
            self.node_terms.append((vnf.size, row.tolist()))
        #: Per-root-adjacent-virtual-link ``(β, [η per link])`` in
        #: application link order — the link half of the collocated loads
        #: fast path (non-root virtual links ride the host backplane).
        self.root_link_terms: list[tuple[float, list[float]]] = []
        link_attrs = [substrate.links[l] for l in index.link_ids]
        for vlink in app.links:
            if vlink.tail != ROOT_ID:
                continue
            etas = [
                efficiency.link_eta(vlink, attrs) for attrs in link_attrs
            ]
            self.root_link_terms.append((vlink.size, etas))

        groups: dict[str, list[int]] = {}
        for vnf in non_root:
            key = "gpu" if vnf.kind is VNFKind.GPU else "generic"
            groups.setdefault(key, []).append(vnf.id)
        self.groups = groups
        self.sorted_groups = {
            key: sorted(ids) for key, ids in groups.items()
        }

        # Accumulation recipes per named group: "all" follows application
        # order (the single-host scan); "generic"/"gpu" follow sorted-id
        # order (the two-host variant). When every VNF of a group has a
        # node-independent η, the per-node load degenerates to one scalar.
        self._group_terms: dict[str, list[tuple[float, np.ndarray]]] = {}
        self._group_consts: dict[str, list[tuple[float, float]] | None] = {}
        for key, ids in [("all", self.vnf_ids), *self.sorted_groups.items()]:
            terms = [(self.sizes[i], self.eta[i]) for i in ids]
            self._group_terms[key] = terms
            consts: list[tuple[float, float]] | None = []
            for size, row in terms:
                if row.size and (row == row[0]).all():
                    consts.append((size, float(row[0])))
                else:
                    consts = None
                    break
            self._group_consts[key] = consts

        gpu_ids = set(groups.get("gpu", ()))

        def host_group(vnf_id: int) -> str:
            if vnf_id == ROOT_ID:
                return "root"
            return "gpu" if vnf_id in gpu_ids else "generic"

        self.cross_pairs: list[tuple[GroupPair, float]] = []
        self.pairs_present: set[GroupPair] = set()
        for vlink in app.links:
            pair = tuple(
                sorted((host_group(vlink.tail), host_group(vlink.head)))
            )
            if pair[0] == pair[1]:
                continue
            self.pairs_present.add(pair)
            self.cross_pairs.append((pair, vlink.size))

    def group_load(self, group: str, demand: float):
        """Combined load of a named VNF group per node.

        Accumulates ``demand · β_i · η`` in the group's id order — per
        node this is exactly the reference ``_group_node_load`` loop, so
        every element is bit-identical to the scalar computation. Returns
        one float when η is node-independent for the whole group (every
        node then carries the identical value), else a per-node array
        with ``nan`` marking forbidden placements.
        """
        consts = self._group_consts[group]
        if consts is not None:
            total = 0.0
            for size, eta in consts:
                total += demand * size * eta
            return total
        row = np.zeros(self.num_nodes)
        for size, eta in self._group_terms[group]:
            row = row + (demand * size) * eta
        return row

    def pair_loads(self, demand: float) -> dict[GroupPair, float]:
        """Crossing load per host-group pair (reference accumulation order)."""
        loads: dict[GroupPair, float] = {}
        for pair, size in self.cross_pairs:
            loads[pair] = loads.get(pair, 0.0) + demand * size
        return loads


class LoadsRecipe:
    """Precompiled :func:`~repro.core.embedding.compute_loads` for one
    fixed embedding shape.

    Plan patterns are embedded verbatim for every planned or borrowed
    request of their class, so the (element, β, η) triples the load
    computation visits are identical each time — only the demand factor
    changes. The recipe walks the same elements in the same order with
    the same arithmetic, so :meth:`loads` is bit-identical to calling
    ``compute_loads`` on the pattern's embedding.
    """

    def __init__(self, app, embedding, substrate, efficiency) -> None:
        # Delegating the dry run to compute_loads keeps the forbidden-
        # placement error behavior identical; the walk below only records
        # the per-element triples it would visit.
        compute_loads(app, 1.0, embedding, substrate, efficiency)
        self.node_terms: list[tuple[object, float, float]] = []
        for vnf in app.vnfs:
            if vnf.id == ROOT_ID:
                continue
            node = embedding.node_map[vnf.id]
            eta = efficiency.node_eta(vnf, substrate.nodes[node])
            self.node_terms.append((node, vnf.size, eta))
        self.link_terms: list[tuple[object, float, float]] = []
        for vlink in app.links:
            path = embedding.link_paths.get(vlink.key, ())
            for link in path:
                eta = efficiency.link_eta(vlink, substrate.links[link])
                self.link_terms.append((link, vlink.size, eta))

    def loads(self, demand: float) -> ElementLoads:
        """Materialize Eq. 1 at ``demand`` (≡ ``compute_loads`` output)."""
        loads = ElementLoads()
        nodes = loads.nodes
        for node, size, eta in self.node_terms:
            load = demand * size * eta
            if load > 0:
                nodes[node] = nodes.get(node, 0.0) + load
        links = loads.links
        for link, size, eta in self.link_terms:
            load = demand * size * eta
            if load > 0:
                links[link] = links.get(link, 0.0) + load
        return loads


class AppProfileCache:
    """One :class:`AppProfile` per application object, built lazily."""

    def __init__(
        self, substrate: SubstrateNetwork, efficiency: EfficiencyModel
    ) -> None:
        self.substrate = substrate
        self.efficiency = efficiency
        self._profiles: dict[int, AppProfile] = {}

    def get(self, app: Application) -> AppProfile:
        profile = self._profiles.get(id(app))
        if profile is None or profile.app is not app:
            profile = AppProfile(app, self.substrate, self.efficiency)
            self._profiles[id(app)] = profile
        return profile
