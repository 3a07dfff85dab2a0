"""GREEDYEMBED: collocated least-cost embedding (Algorithm 2, lines 31–34).

This module is the *incremental* implementation of the paper's
GREEDYEMBED. The scalar reference (one full Dijkstra plus an O(nodes)
host scan per arriving request) lives unchanged in
:mod:`repro.core.greedy_reference`; this fast path produces bit-identical
embeddings from three ingredients:

* **Memoized shortest-path trees** (:class:`PathCache`). The
  capacity-constrained Dijkstra from an ingress depends on the residual
  state only through the per-link feasibility predicate
  ``residual ≥ route_load`` — link weights are static costs scaled by the
  route load. A cached tree therefore stays valid for every request whose
  route load falls in the entry's *feasibility band* ``(lo, hi]``, where
  ``hi`` is the smallest residual among feasible links and ``lo`` the
  largest among infeasible ones. Per-request distances are *replayed*
  along the cached tree with the request's own route load, reproducing
  the reference accumulation exactly.
* **Dirty-set invalidation.** :class:`~repro.core.residual.ResidualState`
  logs every link whose residual changes (``allocate``/``release``/view
  writes). The cache sweeps that log lazily, tightening each entry's band
  only for the touched links — a tree is *not* discarded when a link on
  it changes residual but stays on the same side of the entry's
  feasibility split; when the conservative band no longer covers a
  request, the band is re-anchored exactly (two masked reductions — an
  exact band covering the load certifies the feasibility vector) before
  any Dijkstra is re-run.
* **Profile-driven host scoring** over
  :class:`~repro.core.profile.AppProfile` load data: a native-float scan
  in substrate order when η is node-independent, numpy expressions for
  per-node η — either way the arithmetic and first-strict-minimum
  tie-breaking match the reference scalar scan bit for bit.

For applications whose placement rules make full collocation impossible —
the GPU scenario, where GPU and non-GPU VNFs exclude each other — the
generalized two-group variant collocates each placement-compatible group
on its own host and routes between the (at most three) hosts. The paper's
QUICKG keeps the strict single-host restriction (it skips the GPU study
for exactly this reason); pass ``allow_split_groups=False`` to reproduce
that.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.batch_kernel import BACKEND_NAME, BatchPlan
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.profile import AppProfile, AppProfileCache
from repro.core.residual import ResidualState
from repro.substrate.network import SubstrateIndex, SubstrateNetwork
from repro.utils.paths import indexed_capacity_dijkstra
from repro.workload.request import Request

#: Cached shortest-path trees kept per source node; bands rarely overlap
#: for more than a couple of load regimes, so a small bound suffices.
MAX_TREES_PER_SOURCE = 8


class _TreeEntry:
    """One memoized shortest-path tree rooted at ``source``.

    ``feasible`` is the per-link feasibility vector the tree was computed
    under; ``(lo, hi]`` is the route-load band for which the *current*
    residuals reproduce that vector. ``order``/``parents``/``pcosts``
    describe the tree in settle order for exact distance replay;
    ``parent_node``/``parent_link`` support path reconstruction.
    """

    __slots__ = (
        "source", "feasible", "lo", "hi", "cursor",
        "order", "parents", "pcosts", "parent_node", "parent_link",
        "scan_nodes", "depth",
    )

    def __init__(self, source, feasible, order, parent_node, parent_link,
                 pcost_of_link):
        self.source = source
        self.feasible = feasible
        self.lo = -math.inf
        self.hi = math.inf
        #: Position in the residual's dirty log up to which ``lo``/``hi``
        #: reflect link-residual changes.
        self.cursor = 0
        self.order = order
        self.parent_node = parent_node
        self.parent_link = parent_link
        # Tree edges in settle order (source excluded), as plain floats.
        self.parents = [parent_node[v] for v in order[1:]]
        self.pcosts = [pcost_of_link[parent_link[v]] for v in order[1:]]
        #: Reached nodes in ascending index order — the candidate-host
        #: scan must visit nodes in substrate insertion order so ties
        #: break exactly like the reference scan.
        self.scan_nodes = sorted(order)
        # Per-node tree depth (-1 = unreached) for the batch kernel's
        # partial-sum replay; settle order guarantees parents first.
        depth = [-1] * len(parent_node)
        depth[source] = 0
        for v in order[1:]:
            depth[v] = depth[parent_node[v]] + 1
        self.depth = np.array(depth, dtype=np.intp)

    def reset_band(self, link_residual: np.ndarray, cursor: int) -> None:
        """Recompute the exact feasibility band from current residuals.

        With exact bounds, ``lo < load <= hi`` is *equivalent* to "the
        feasibility vector at ``load`` equals this entry's vector": every
        cached-feasible link still has residual ≥ load iff ``load ≤ hi``,
        every cached-infeasible link still falls short iff ``load > lo``.
        """
        self.lo = float(
            np.max(link_residual, initial=-math.inf, where=~self.feasible)
        )
        self.hi = float(
            np.min(link_residual, initial=math.inf, where=self.feasible)
        )
        self.cursor = cursor

    def absorb_dirty(self, link_residual: list[float], changed: list[int],
                     cursor: int) -> None:
        """Tighten the band for the ``changed`` link positions (the dirty
        log since :attr:`cursor`; conservative — a too-narrow band only
        forces a revalidation, never a wrong reuse)."""
        feasible = self.feasible
        lo = self.lo
        hi = self.hi
        for position in changed:
            value = link_residual[position]
            if feasible[position]:
                if value < hi:
                    hi = float(value)
            elif value > lo:
                lo = float(value)
        self.lo = lo
        self.hi = hi
        self.cursor = cursor

    def distances(self, num_nodes: int, load: float) -> list[float]:
        """Replay per-node distances at ``load`` along the cached tree.

        Identical accumulation to the reference Dijkstra's relaxations
        (``dist[parent] + load × cost``, parents settled first), hence
        bit-identical distances.
        """
        dist = [math.inf] * num_nodes
        dist[self.order[0]] = 0.0
        for v, p, c in zip(self.order[1:], self.parents, self.pcosts):
            dist[v] = dist[p] + load * c
        return dist

    def path_to(self, target: int, link_ids) -> tuple[tuple, list[int]]:
        """The tree path source→target: (LinkId tuple, link positions)."""
        links = []
        positions = []
        node = target
        parent_node = self.parent_node
        parent_link = self.parent_link
        while node != self.source:
            position = parent_link[node]
            positions.append(position)
            links.append(link_ids[position])
            node = parent_node[node]
        links.reverse()
        positions.reverse()
        return tuple(links), positions


class PathCache:
    """Band-memoized capacity-constrained Dijkstra trees.

    One instance per algorithm, attached to that algorithm's
    :class:`~repro.core.residual.ResidualState`. Lookup order: absorb
    the residual's dirty-log suffix into each candidate's band
    (O(changed links)), then an O(1) band check per cached tree, then an
    exact band re-anchor (two masked reductions), and only then a fresh
    Dijkstra.
    """

    #: Dirty-log backlog beyond which absorbing per-link deltas would cost
    #: more than one vectorized revalidation.
    MAX_DELTA = 32

    def __init__(self, index: SubstrateIndex, residual: ResidualState) -> None:
        self.index = index
        self.residual = residual
        self.entries: dict[int, list[_TreeEntry]] = {}
        self.hits = 0
        self.misses = 0
        # Band sharing (one tree serving every load in its feasibility
        # band) is provably decision-exact only when link costs are
        # uniform — true for all built-in topologies. Heterogeneous-cost
        # substrates (possible via the topology registry) get a fresh
        # Dijkstra per lookup instead: slower, but the bit-identical
        # contract always holds.
        costs = index.link_cost_list
        self.band_sharing = len(set(costs)) <= 1

    def __getstate__(self) -> dict:
        """Checkpoint the counters, not the trees.

        ``entries`` is derived state — every tree is a deterministic
        function of the index and the residuals at lookup time, and a
        miss rebuilds it — yet it is four fifths of a pickled session.
        A restored cache starts cold and refills through :meth:`lookup`;
        ``hits``/``misses`` carry over.
        """
        state = self.__dict__.copy()
        state["entries"] = {}
        return state

    def lookup(self, source: int, load: float) -> _TreeEntry:
        """The shortest-path tree for ``(source, load)`` under current
        residuals — cached when a memoized tree's band covers it.

        Trees are shared across route loads inside one feasibility band.
        That is provably exact when link traversal costs are uniform (the
        built-in topologies: every tier costs 1.0/CU, so relaxation
        comparisons are scale-invariant); for heterogeneous link costs an
        *exact* mathematical cost tie between alternative paths could in
        principle round differently at different loads — the
        decision-equivalence suite pins the supported configurations.
        """
        bucket = self.entries.get(source)
        if bucket is None:
            bucket = self.entries[source] = []
        residual = self.residual
        log = residual.link_dirty_log
        base = residual.link_dirty_base
        rev = base + len(log)
        link_residual = residual.link_residual
        if self.band_sharing:
            for i, entry in enumerate(bucket):
                # Entries predating a log compaction (cursor < base)
                # cannot delta-sweep; they fall to the exact re-anchor.
                if (
                    entry.cursor >= base
                    and rev - entry.cursor <= self.MAX_DELTA
                ):
                    if entry.cursor != rev:
                        entry.absorb_dirty(
                            link_residual, log[entry.cursor - base:], rev
                        )
                    if entry.lo < load <= entry.hi:
                        self.hits += 1
                        if i:
                            bucket.append(bucket.pop(i))
                        return entry
            # Conservative bands may have over-tightened (or an entry sat
            # unused past the delta budget): re-anchor each on the exact
            # current residuals — an exact band covering ``load``
            # certifies the entry's feasibility vector, no elementwise
            # compare needed.
            link_array = self.residual.link_array()
            for i, entry in enumerate(bucket):
                entry.reset_band(link_array, rev)
                if entry.lo < load <= entry.hi:
                    bucket.append(bucket.pop(i))
                    self.hits += 1
                    return entry
        else:
            link_array = self.residual.link_array()
        self.misses += 1
        feasible = link_array >= load
        index = self.index
        order, parent_node, parent_link, _ = indexed_capacity_dijkstra(
            index.adj, index.link_cost_list, source, load, feasible.tolist()
        )
        entry = _TreeEntry(
            source, feasible, order, parent_node, parent_link,
            index.link_cost_list,
        )
        entry.reset_band(link_array, rev)
        bucket.append(entry)
        if len(bucket) > MAX_TREES_PER_SOURCE:
            bucket.pop(0)
        return entry

    def revalidate(self, entry: _TreeEntry, load: float) -> bool:
        """Whether ``entry`` is still exact for ``load`` right now.

        The batch kernel's commit-time staleness check: the same
        dirty-log absorption / exact band re-anchor a lookup would run,
        restricted to this one entry (no bucket scan, no LRU motion, no
        fresh Dijkstra). ``True`` certifies that the entry's feasibility
        vector equals the current one at ``load`` — deterministic
        Dijkstra then guarantees a scalar lookup would return the
        bit-identical tree. ``False`` sends the caller down the scalar
        path. Only meaningful on band-sharing substrates (the kernel's
        precondition).
        """
        residual = self.residual
        log = residual.link_dirty_log
        base = residual.link_dirty_base
        rev = base + len(log)
        if entry.cursor >= base and rev - entry.cursor <= self.MAX_DELTA:
            if entry.cursor != rev:
                entry.absorb_dirty(
                    residual.link_residual, log[entry.cursor - base:], rev
                )
            if entry.lo < load <= entry.hi:
                return True
        # The conservative band may have over-tightened (or the entry sat
        # past the delta budget); re-anchor exactly before deciding.
        entry.reset_band(residual.link_array(), rev)
        return entry.lo < load <= entry.hi


class _DirectTree:
    """A throwaway shortest-path tree from one direct Dijkstra run.

    The bypass path's stand-in for :class:`_TreeEntry`: same
    ``scan_nodes`` order and the same path reconstruction, but no band
    state and no replay machinery — distances come straight from the
    Dijkstra that built it.
    """

    __slots__ = ("source", "parent_node", "parent_link", "scan_nodes")

    def __init__(self, source, order, parent_node, parent_link):
        self.source = source
        self.parent_node = parent_node
        self.parent_link = parent_link
        self.scan_nodes = sorted(order)

    def path_to(self, target: int, link_ids) -> tuple[tuple, list[int]]:
        """The tree path source→target: (LinkId tuple, link positions)."""
        links = []
        positions = []
        node = target
        parent_node = self.parent_node
        parent_link = self.parent_link
        while node != self.source:
            position = parent_link[node]
            positions.append(position)
            links.append(link_ids[position])
            node = parent_node[node]
        links.reverse()
        positions.reverse()
        return tuple(links), positions


class _BypassController:
    """Deterministic banded-vs-direct arbitration for scalar routes.

    The band cache pays off when trees are reused before residual churn
    invalidates their bands; below that scale its maintenance (dirty-log
    absorption, re-anchors, LRU bookkeeping) costs more than the fresh
    Dijkstra it avoids — the measured 0.89× regression at small λ. The
    controller is **counter-based and deterministic** (no wall clock, no
    randomness — RPR003-clean): identical request streams drive
    identical mode sequences, and since the banded and direct routes
    produce the identical shortest-path tree, the mode never influences
    decisions — only speed.

    States (``cache_mode="adaptive"``): *banded* counts band hits over a
    :attr:`PROBE`-lookup window and drops to *direct* when the hit rate
    falls below :attr:`MIN_HIT_RATE`; *direct* holds for :attr:`HOLD`
    lookups, then re-probes (so a workload that grows past the payoff
    scale gets the cache back). The initial state is calibrated from
    topology size × expected arrival rate when the caller provides the
    rate: a payoff scale (expected offers per slot × nodes) below
    :attr:`PAYOFF_FLOOR` starts direct. ``cache_mode="banded"`` /
    ``"direct"`` pin the state (the differential tests drive both).
    """

    PROBE = 64
    HOLD = 512
    MIN_HIT_RATE = 0.5
    PAYOFF_FLOOR = 256.0

    __slots__ = (
        "pinned", "banded", "payoff_scale",
        "window_lookups", "window_hits", "hold_remaining", "switches",
    )

    def __init__(self, cache_mode: str, payoff_scale: float | None) -> None:
        if cache_mode not in ("adaptive", "banded", "direct"):
            raise ValueError(
                "cache_mode must be adaptive|banded|direct "
                f"(got {cache_mode!r})"
            )
        self.pinned = cache_mode != "adaptive"
        self.payoff_scale = payoff_scale
        start_direct = cache_mode == "direct" or (
            cache_mode == "adaptive"
            and payoff_scale is not None
            and payoff_scale < self.PAYOFF_FLOOR
        )
        self.banded = not start_direct
        self.window_lookups = 0
        self.window_hits = 0
        self.hold_remaining = self.HOLD if start_direct else 0
        self.switches = 0

    def use_bands(self) -> bool:
        """Route the next scalar lookup through the band cache?"""
        if self.banded:
            return True
        if not self.pinned:
            self.hold_remaining -= 1
            if self.hold_remaining <= 0:
                self.banded = True
                self.window_lookups = 0
                self.window_hits = 0
                self.switches += 1
        return False

    def observe(self, hit: bool) -> None:
        """Feed one banded lookup's outcome into the probe window."""
        if self.pinned or not self.banded:
            return
        self.window_lookups += 1
        if hit:
            self.window_hits += 1
        if self.window_lookups >= self.PROBE:
            if self.window_hits < self.MIN_HIT_RATE * self.window_lookups:
                self.banded = False
                self.hold_remaining = self.HOLD
                self.switches += 1
            self.window_lookups = 0
            self.window_hits = 0

    @property
    def mode(self) -> str:
        return "banded" if self.banded else "direct"


class GreedyContext:
    """Per-algorithm state of the incremental GREEDYEMBED fast path.

    Bundles the substrate index, the owning algorithm's residual state,
    the per-application profiles and the memoized path trees. OLIVE and
    its variants construct one next to their
    :class:`~repro.core.residual.ResidualState` and route every greedy
    fallback through :meth:`embed`.

    ``cache_mode`` picks how scalar embeds route shortest-path queries:
    ``"adaptive"`` (default) lets :class:`_BypassController` choose
    between the band cache and a direct Dijkstra, ``"banded"`` /
    ``"direct"`` pin one route. ``expected_offers_per_slot`` seeds the
    controller's payoff calibration. Neither affects decisions — both
    routes build the identical deterministic tree.

    :meth:`begin_batch` / :meth:`end_batch` open a speculative window
    over one same-slot run of requests; :meth:`embed` calls inside the
    window consult the :class:`~repro.core.batch_kernel.BatchPlan`
    first and fall back to the scalar path for anything it does not
    cover.
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        efficiency: EfficiencyModel,
        residual: ResidualState,
        cache_mode: str = "adaptive",
        expected_offers_per_slot: float | None = None,
    ) -> None:
        self.substrate = substrate
        self.efficiency = efficiency
        self.residual = residual
        self.index = residual.index
        self.profiles = AppProfileCache(substrate, efficiency)
        self.paths = PathCache(self.index, residual)
        payoff_scale = (
            expected_offers_per_slot * self.index.num_nodes
            if expected_offers_per_slot is not None
            else None
        )
        self.bypass = _BypassController(cache_mode, payoff_scale)
        self._batch: BatchPlan | None = None
        self._window_open = False
        self._window_embeds = 0
        self._window_size = 0
        #: Greedy-embed share of the previous batch window — the signal
        #: that decides whether the next window speculates at all.
        #: Optimistic start: the first window probes the kernel.
        self.batch_density = 1.0
        self.direct_routes = 0
        self.batch_rows = 0
        self.batch_fallbacks = 0
        self.batch_chunks = 0

    #: Minimum greedy-embed share of a window for speculation to pay.
    #: Plan-heavy OLIVE windows (most requests settled by planned
    #: allocations) fall below this and skip the kernel — speculating
    #: rows nobody consumes is the one way the kernel could lose to the
    #: scalar path. Density is measured per window from actual embed
    #: calls, so a plan that exhausts mid-run re-enables batching.
    MIN_BATCH_DENSITY = 0.25

    # -- batch window --------------------------------------------------------

    def begin_batch(self, pairs) -> "BatchPlan | None":
        """Open a speculative batch window over ``(request, app)`` pairs.

        The window covers one same-slot run; commits still happen one
        request at a time through :meth:`embed`, in call order, against
        live residuals — see :mod:`repro.core.batch_kernel`. Returns the
        :class:`~repro.core.batch_kernel.BatchPlan` (so the caller can
        :meth:`~repro.core.batch_kernel.BatchPlan.mark_done` settled
        requests), or ``None`` when the previous window's greedy density
        was too low for speculation to pay — the window still measures
        density so batching can re-engage.
        """
        if self._window_open:
            raise ValueError("a batch window is already open")
        self._window_open = True
        self._window_embeds = 0
        self._window_size = len(pairs)
        if (
            self.paths.band_sharing
            and self.batch_density >= self.MIN_BATCH_DENSITY
        ):
            self._batch = BatchPlan(self, pairs)
        return self._batch

    def end_batch(self) -> None:
        """Close the batch window and fold its counters into the stats."""
        if not self._window_open:
            return
        self._window_open = False
        if self._window_size:
            self.batch_density = self._window_embeds / self._window_size
        batch = self._batch
        if batch is None:
            return
        self._batch = None
        self.batch_rows += batch.rows_used
        self.batch_fallbacks += batch.fallbacks
        self.batch_chunks += batch.chunks

    # -- routing -------------------------------------------------------------

    def _route(self, source: int, load: float):
        """``(tree, distances)`` for one scalar shortest-path query.

        Banded route: cached tree + exact replay. Direct route: one
        fresh capacity-constrained Dijkstra whose returned distances ARE
        the values the replay reproduces (same relaxations, same
        arithmetic), with zero band maintenance. Both routes run the
        identical deterministic tree construction under the identical
        feasibility vector, so every downstream decision is bit-equal
        whichever is taken.
        """
        paths = self.paths
        if paths.band_sharing and self.bypass.use_bands():
            before = paths.hits
            tree = paths.lookup(source, load)
            self.bypass.observe(paths.hits != before)
            return tree, tree.distances(self.index.num_nodes, load)
        self.direct_routes += 1
        index = self.index
        feasible = self.residual.link_array() >= load
        order, parent_node, parent_link, dist = indexed_capacity_dijkstra(
            index.adj, index.link_cost_list, source, load, feasible.tolist()
        )
        return _DirectTree(source, order, parent_node, parent_link), dist

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for bench rows and diagnostics."""
        bypass = self.bypass
        return {
            "cache_mode": bypass.mode,
            "cache_pinned": bypass.pinned,
            "payoff_scale": bypass.payoff_scale,
            "payoff_floor": bypass.PAYOFF_FLOOR,
            "mode_switches": bypass.switches,
            "cache_hits": self.paths.hits,
            "cache_misses": self.paths.misses,
            "direct_routes": self.direct_routes,
            "batch_backend": BACKEND_NAME,
            "batch_rows": self.batch_rows,
            "batch_fallbacks": self.batch_fallbacks,
            "batch_chunks": self.batch_chunks,
            "batch_density": self.batch_density,
        }

    def embed(
        self,
        request: Request,
        app: Application,
        allow_split_groups: bool = True,
    ):
        """Least-cost feasible (near-)collocated embedding with its loads.

        Returns ``(embedding, loads)`` — the loads are the exact
        :func:`~repro.core.embedding.compute_loads` output the residual
        check already materialized, so callers on the hot path skip a
        second pass — or ``None`` when no feasible embedding exists.
        """
        if self._window_open:
            self._window_embeds += 1
        profile = self.profiles.get(app)
        if len(profile.groups) == 1:
            batch = self._batch
            if batch is not None:
                picked = batch.select_host(request, profile)
                if picked is not None:
                    tree, host_idx = picked
                    if host_idx < 0:
                        return None
                    return _finish_single_host(
                        self, request, app, profile, tree, host_idx
                    )
            return _single_host_embed(self, request, app, profile)
        if not allow_split_groups or len(profile.groups) != 2:
            return None
        return _two_host_embed(self, request, app, profile)


def greedy_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
    allow_split_groups: bool = True,
    context: GreedyContext | None = None,
) -> Embedding | None:
    """Find the least-cost feasible (near-)collocated embedding, or None.

    Standalone calls build a transient :class:`GreedyContext`; callers on
    the hot path (OLIVE) keep one alive across requests so the profile
    and path caches amortize.
    """
    if context is None:
        context = GreedyContext(substrate, efficiency, residual)
    result = context.embed(request, app, allow_split_groups)
    return None if result is None else result[0]


def _single_host_embed(
    ctx: GreedyContext,
    request: Request,
    app: Application,
    profile: AppProfile,
):
    """The paper's GREEDYEMBED: all VNFs on one node, min resource cost."""
    index = ctx.index
    residual = ctx.residual
    route_load = request.demand * profile.root_link_size_sum
    source = index.node_index[request.ingress]
    tree, dist = ctx._route(source, route_load)

    node_load = profile.group_load("all", request.demand)
    if isinstance(node_load, float):
        # Scalar η case: the host scan stays in native floats. Visiting
        # reached nodes in index order reproduces the reference scan's
        # first-strict-minimum tie-breaking exactly.
        node_residual = residual.node_residual
        node_costs = index.node_cost_list
        best_cost = math.inf
        host_idx = -1
        for v in tree.scan_nodes:
            if node_load > node_residual[v]:
                continue
            cost = node_load * node_costs[v] + dist[v]
            if cost < best_cost:
                best_cost = cost
                host_idx = v
        if host_idx < 0:
            return None
    else:
        dist_array = np.array(dist)
        with np.errstate(invalid="ignore"):
            candidates = (
                (node_load <= residual.node_array())
                & np.isfinite(dist_array)
            )
        if not candidates.any():
            return None
        cost = node_load * index.node_cost + dist_array
        cost[~candidates] = math.inf
        host_idx = int(np.argmin(cost))
    return _finish_single_host(ctx, request, app, profile, tree, host_idx)


def _finish_single_host(
    ctx: GreedyContext,
    request: Request,
    app: Application,
    profile: AppProfile,
    tree,
    host_idx: int,
):
    """Materialize the chosen single-host embedding (path, loads, fits).

    Shared tail of the scalar scan and the batch kernel's vectorized
    host pick: reconstruct the tree path, build the exact collocated
    loads, and apply the reference's single fits check on the chosen
    host (infeasible → reject, never try the next-best host).
    """
    index = ctx.index
    residual = ctx.residual
    host = index.node_ids[host_idx]
    path, positions = tree.path_to(host_idx, index.link_ids)
    loads = _collocated_loads(
        profile, request.demand, host_idx, host, positions, index.link_ids
    )
    if not residual.fits(loads):
        return None  # node+path loads can interact at the host
    node_map = {ROOT_ID: request.ingress}
    node_map.update({vnf_id: host for vnf_id in profile.vnf_ids})
    link_paths = {}
    for vlink in app.links:
        if vlink.tail == ROOT_ID:
            link_paths[vlink.key] = path
        else:
            link_paths[vlink.key] = ()
    return Embedding(node_map=node_map, link_paths=link_paths), loads


def _collocated_loads(
    profile: AppProfile,
    demand: float,
    host_idx: int,
    host,
    positions: list[int],
    link_ids,
) -> ElementLoads:
    """Eq. 1 loads of a single-host embedding, without the generic walk.

    Element order, accumulation order and arithmetic replicate
    :func:`~repro.core.embedding.compute_loads` on the equivalent
    embedding exactly: VNFs land on the host in application order, and
    only θ-adjacent virtual links (in application link order) traverse
    the ingress→host path.
    """
    loads = ElementLoads()
    nodes = loads.nodes
    for size, etas in profile.node_terms:
        load = demand * size * etas[host_idx]
        if load > 0:
            nodes[host] = nodes.get(host, 0.0) + load
    links = loads.links
    for size, etas in profile.root_link_terms:
        for position in positions:
            load = demand * size * etas[position]
            if load > 0:
                link = link_ids[position]
                links[link] = links.get(link, 0.0) + load
    return loads


def _feasible_hosts(load_row, node_array) -> list[tuple[int, float]]:
    """Host candidates ``(node_idx, load)`` in node order."""
    with np.errstate(invalid="ignore"):
        mask = load_row <= node_array
    if isinstance(load_row, float):
        return [(int(i), load_row) for i in np.nonzero(mask)[0]]
    return [(int(i), float(load_row[i])) for i in np.nonzero(mask)[0]]


def _two_host_embed(
    ctx: GreedyContext,
    request: Request,
    app: Application,
    profile: AppProfile,
):
    """Generalized greedy for two placement groups (GPU scenario).

    Collocates the generic group on host ``v`` and the GPU group on host
    ``w``, then routes each virtual link between the hosts of its
    endpoints. Candidate (v, w) pairs are evaluated exhaustively — the GPU
    node set is small — and the cheapest pair passing the exact residual
    check wins.
    """
    index = ctx.index
    residual = ctx.residual
    demand = request.demand
    generic_ids = set(profile.groups.get("generic", ()))
    gpu_ids = set(profile.groups.get("gpu", ()))

    def host_group(vnf_id: int) -> str:
        if vnf_id == ROOT_ID:
            return "root"
        return "gpu" if vnf_id in gpu_ids else "generic"

    # Combined crossing load per host-group pair drives routing feasibility.
    pair_load = profile.pair_loads(demand)
    pairs_present = profile.pairs_present
    root_generic = pair_load.get(("generic", "root"), 0.0)
    root_gpu = pair_load.get(("gpu", "root"), 0.0)
    cross = pair_load.get(("generic", "gpu"), 0.0)
    need_root_generic = ("generic", "root") in pairs_present
    need_root_gpu = ("gpu", "root") in pairs_present
    need_cross = ("generic", "gpu") in pairs_present

    source = index.node_index[request.ingress]
    tree_v, dist_v = ctx._route(source, root_generic)
    tree_w, dist_w = ctx._route(source, root_gpu)

    node_array = residual.node_array()
    generic_hosts = _feasible_hosts(
        profile.group_load("generic", demand), node_array
    )
    gpu_hosts = _feasible_hosts(
        profile.group_load("gpu", demand), node_array
    )
    if not generic_hosts or not gpu_hosts:
        return None

    # One tree per GPU host candidate covers all v→w pair paths.
    gpu_routes = {w: ctx._route(w, cross) for w, _ in gpu_hosts}
    gpu_trees = {w: route[0] for w, route in gpu_routes.items()}
    gpu_dists = {w: route[1] for w, route in gpu_routes.items()}

    node_cost = index.node_cost
    inf = math.inf
    best: tuple[float, Embedding, object] | None = None
    for (v, v_load), (w, w_load) in itertools.product(generic_hosts, gpu_hosts):
        cost = v_load * node_cost[v] + w_load * node_cost[w]
        if need_root_generic:
            if dist_v[v] == inf:
                continue
            cost += dist_v[v]
        if need_root_gpu:
            if dist_w[w] == inf:
                continue
            cost += dist_w[w]
        dist_cross = gpu_dists[w]
        if need_cross:
            if dist_cross[v] == inf:
                continue
            cost += dist_cross[v]
        if best is not None and cost >= best[0]:
            continue

        v_id = index.node_ids[v]
        w_id = index.node_ids[w]
        hosts = {"root": request.ingress, "generic": v_id, "gpu": w_id}
        node_map = {ROOT_ID: request.ingress}
        node_map.update({i: v_id for i in sorted(generic_ids)})
        node_map.update({i: w_id for i in sorted(gpu_ids)})
        link_paths = {}
        feasible = True
        for vlink in app.links:
            group_a = host_group(vlink.tail)
            group_b = host_group(vlink.head)
            if hosts[group_a] == hosts[group_b]:
                link_paths[vlink.key] = ()
                continue
            pair = tuple(sorted((group_a, group_b)))
            if pair == ("generic", "root"):
                if dist_v[v] == inf:
                    feasible = False
                    break
                links, _ = tree_v.path_to(v, index.link_ids)
            elif pair == ("gpu", "root"):
                if dist_w[w] == inf:
                    feasible = False
                    break
                links, _ = tree_w.path_to(w, index.link_ids)
            else:
                if dist_cross[v] == inf:
                    feasible = False
                    break
                links, _ = gpu_trees[w].path_to(v, index.link_ids)
            link_paths[vlink.key] = links
        if not feasible:
            continue
        embedding = Embedding(node_map=node_map, link_paths=link_paths)
        loads = compute_loads(
            app, demand, embedding, ctx.substrate, ctx.efficiency
        )
        if residual.fits(loads):
            best = (cost, embedding, loads)
    return (best[1], best[2]) if best else None
