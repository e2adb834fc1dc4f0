"""Simulated cluster: nodes + fabric bound to one simulation environment.

A :class:`SimCluster` is the substrate everything above it runs on.  It can be
built directly from a :class:`~repro.machine.platforms.PlatformSpec` (the
common path for the paper's experiments) or from a SAGE hardware model
(:func:`repro.core.model.hardware.build_cluster`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .faults import FaultInjector, FaultPlan
from .interconnect import Crossing, Fabric, FabricSpec
from .node import CpuSpec, SimNode
from .platforms import PlatformSpec
from .simulator import Environment

__all__ = ["SimCluster"]


class SimCluster:
    """``nodes`` simulated processors over a shared fabric.

    ``cpu`` may be a single :class:`CpuSpec` (homogeneous machine, the
    common case) or a sequence of per-node specs (heterogeneous machine —
    AToT's mapping objectives account for the differing node speeds).
    """

    def __init__(
        self,
        env: Environment,
        cpu: Union[CpuSpec, Sequence[CpuSpec]],
        fabric_spec: FabricSpec,
        nodes: int,
        board_map: Optional[Dict[int, int]] = None,
        name: str = "cluster",
        fault_plan: Optional[FaultPlan] = None,
    ):
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        self.env = env
        self.name = name
        boards = board_map or {i: 0 for i in range(nodes)}
        missing = set(range(nodes)) - set(boards)
        if missing:
            raise ValueError(f"board_map missing node indices: {sorted(missing)}")
        if isinstance(cpu, CpuSpec):
            specs: List[CpuSpec] = [cpu] * nodes
        else:
            specs = list(cpu)
            if len(specs) != nodes:
                raise ValueError(
                    f"{len(specs)} CPU specs supplied for a {nodes}-node cluster"
                )
        self.nodes: List[SimNode] = [
            SimNode(index=i, spec=specs[i], env=env, board=boards[i])
            for i in range(nodes)
        ]
        self.fabric = Fabric(env, fabric_spec, boards)
        self.faults: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.is_empty:
            FaultInjector(env, fault_plan).install(self)

    @property
    def is_heterogeneous(self) -> bool:
        first = self.nodes[0].spec
        return any(node.spec != first for node in self.nodes)

    @classmethod
    def from_platform(
        cls, env: Environment, platform: PlatformSpec, nodes: int,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "SimCluster":
        return cls(
            env=env,
            cpu=platform.cpu,
            fabric_spec=platform.fabric,
            nodes=nodes,
            board_map=platform.board_map(nodes),
            name=platform.name,
            fault_plan=fault_plan,
        )

    def __len__(self) -> int:
        return len(self.nodes)

    # -- elastic membership ---------------------------------------------
    def add_node(
        self,
        index: Optional[int] = None,
        spec: Optional[CpuSpec] = None,
        board: Optional[int] = None,
    ) -> SimNode:
        """Bring a node online: new capacity, or replacement hardware.

        With ``index`` beyond the current size (or omitted), a brand-new node
        is appended; ``board`` defaults to a fresh board of its own, the
        conservative choice for a card slotted into a spare chassis slot.
        With an existing ``index``, the slot is treated as *replaced*: the
        node object is reset to power-on state (idle CPU, zero allocations)
        and its NIC ports are recreated, so stale holders from the previous
        occupant cannot leak into the new one.  The node index is the node's
        identity at every layer above, so replacement hardware at the same
        index inherits the board slot (same locality) but nothing else.
        """
        if index is None:
            index = len(self.nodes)
        if index < 0:
            raise ValueError("node index must be non-negative")
        if index < len(self.nodes):
            node = self.nodes[index]
            if spec is not None and spec != node.spec:
                node.spec = spec
            node.reset()
            self.fabric.detach_node(index)
            board = self.fabric.boards.get(index, 0) if board is None else board
            self.fabric.attach_node(index, board)
            node.faults = self.faults
            return node
        if index != len(self.nodes):
            raise ValueError(
                f"node index {index} would leave a gap in a "
                f"{len(self.nodes)}-node cluster"
            )
        if spec is None:
            spec = self.nodes[0].spec
        if board is None:
            board = max(self.fabric.boards.values(), default=-1) + 1
        node = SimNode(index=index, spec=spec, env=self.env, board=board)
        node.faults = self.faults
        self.nodes.append(node)
        self.fabric.attach_node(index, board)
        return node

    def remove_node(self, index: int) -> int:
        """Take a node's hardware out of the machine (e.g. a pulled board).

        The index stays valid — node identity is positional — but the slot's
        CPU resource and NIC ports are forcibly reset so that stranded holders
        from work interrupted mid-transfer do not survive into replacement
        hardware added later at the same index.  Returns the number of
        stranded resource slots/queued requests that were dropped.
        """
        node = self.node(index)
        dropped = node.reset()
        dropped += self.fabric.detach_node(index)
        # Board registration survives: a re-added node at this index slots
        # back into the same chassis position unless add_node overrides it.
        return dropped

    def node(self, index: int) -> SimNode:
        try:
            return self.nodes[index]
        except IndexError:
            raise IndexError(
                f"node index {index} out of range for {len(self.nodes)}-node cluster"
            ) from None

    def transfer(self, src: int, dst: int, nbytes: float):
        """Generator over one :class:`~repro.machine.interconnect.Crossing`;
        returns its :class:`~repro.machine.interconnect.TransferOutcome`."""
        return (yield Crossing(self.env, self.fabric, src, dst, nbytes).done)
