"""Virtual network (application) data model.

An :class:`Application` is a rooted tree: node ``0`` is always θ (the user,
with β = 0), other nodes are VNFs. Virtual links are directed parent→child
for traversal purposes but model undirected communication; their load lands
on whatever substrate path the embedding selects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ApplicationError
from repro.utils.fold import left_sum

ROOT_ID = 0


class VNFKind(enum.Enum):
    """Functional kind of a virtual node, driving η placement rules."""

    ROOT = "root"
    GENERIC = "generic"
    ACCELERATOR = "accelerator"
    GPU = "gpu"


@dataclass(frozen=True)
class VNF:
    """One virtual network function: identifier, size β, and kind."""

    id: int
    size: float
    kind: VNFKind = VNFKind.GENERIC

    def __post_init__(self) -> None:
        if self.id == ROOT_ID and self.kind is not VNFKind.ROOT:
            raise ApplicationError("node 0 is reserved for the root θ")
        if self.kind is VNFKind.ROOT and self.size != 0.0:
            raise ApplicationError("θ must have size 0")
        if self.size < 0:
            raise ApplicationError(f"VNF {self.id}: negative size {self.size}")


@dataclass(frozen=True)
class VirtualLink:
    """A virtual link (i, j) with size β. ``i`` is the parent (closer to θ)."""

    tail: int
    head: int
    size: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ApplicationError(
                f"virtual link ({self.tail},{self.head}): negative size"
            )

    @property
    def key(self) -> tuple[int, int]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class Application:
    """A rooted tree virtual network.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"chain-4"``.
    vnfs:
        All virtual nodes including the root θ (id 0, size 0).
    links:
        Parent→child virtual links forming a tree over the VNF ids.
    """

    name: str
    vnfs: tuple[VNF, ...]
    links: tuple[VirtualLink, ...]
    _by_id: dict[int, VNF] = field(init=False, repr=False, compare=False)
    _children: dict[int, tuple[VirtualLink, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_id = {vnf.id: vnf for vnf in self.vnfs}
        if len(by_id) != len(self.vnfs):
            raise ApplicationError(f"{self.name}: duplicate VNF ids")
        if ROOT_ID not in by_id:
            raise ApplicationError(f"{self.name}: missing root θ (id 0)")
        if len(self.links) != len(self.vnfs) - 1:
            raise ApplicationError(
                f"{self.name}: a tree over {len(self.vnfs)} nodes needs "
                f"{len(self.vnfs) - 1} links, got {len(self.links)}"
            )
        children: dict[int, list[VirtualLink]] = {vnf.id: [] for vnf in self.vnfs}
        seen_heads: set[int] = set()
        for link in self.links:
            if link.tail not in by_id or link.head not in by_id:
                raise ApplicationError(
                    f"{self.name}: link {link.key} references unknown VNF"
                )
            if link.head in seen_heads or link.head == ROOT_ID:
                raise ApplicationError(
                    f"{self.name}: node {link.head} has multiple parents"
                )
            seen_heads.add(link.head)
            children[link.tail].append(link)
        # Reachability from the root certifies the links form one tree.
        reached = {ROOT_ID}
        stack = [ROOT_ID]
        while stack:
            node = stack.pop()
            for link in children[node]:
                reached.add(link.head)
                stack.append(link.head)
        if len(reached) != len(self.vnfs):
            raise ApplicationError(f"{self.name}: virtual network is not connected")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self,
            "_children",
            {node: tuple(links) for node, links in children.items()},
        )

    # -- traversal ----------------------------------------------------------

    @property
    def root(self) -> VNF:
        return self._by_id[ROOT_ID]

    def vnf(self, vnf_id: int) -> VNF:
        return self._by_id[vnf_id]

    def children_links(self, vnf_id: int) -> tuple[VirtualLink, ...]:
        """Outgoing (parent→child) links of a virtual node."""
        return self._children[vnf_id]

    def links_in_bfs_order(self) -> list[VirtualLink]:
        """Virtual links ordered root-outward (parents before children)."""
        ordered: list[VirtualLink] = []
        queue = [ROOT_ID]
        while queue:
            node = queue.pop(0)
            for link in self._children[node]:
                ordered.append(link)
                queue.append(link.head)
        return ordered

    def non_root_vnfs(self) -> list[VNF]:
        return [vnf for vnf in self.vnfs if vnf.id != ROOT_ID]

    # -- aggregate sizes -----------------------------------------------------

    def total_node_size(self) -> float:
        """Σ β_i over VNFs — the per-unit-demand node footprint."""
        return left_sum(vnf.size for vnf in self.vnfs)

    def total_link_size(self) -> float:
        """Σ β over virtual links."""
        return left_sum(link.size for link in self.links)

    def root_adjacent_link_size(self) -> float:
        """Σ β of links incident to θ (what a collocated embedding routes)."""
        return left_sum(link.size for link in self._children[ROOT_ID])

    def has_kind(self, kind: VNFKind) -> bool:
        return any(vnf.kind is kind for vnf in self.vnfs)

    @property
    def num_vnfs(self) -> int:
        """Number of functional VNFs (θ excluded)."""
        return len(self.vnfs) - 1
