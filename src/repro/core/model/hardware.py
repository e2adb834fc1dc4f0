"""Hardware editor: hierarchical hardware architecture models.

§1.1: *"In the hardware editor, the hardware architecture is built
hierarchically from the processor all the way up to the system level."*

A :class:`HardwareModel` composes processors into boards and boards into a
system joined by an interconnect; :meth:`HardwareModel.build_cluster`
materialises it as a simulated machine.  The CSPI target of §3.2 (two
quad-PowerPC boards in a VME chassis over Myrinet) is provided as a builder.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...machine.cluster import SimCluster
from ...machine.faults import FaultPlan
from ...machine.interconnect import FabricSpec
from ...machine.node import CpuSpec
from ...machine.platforms import PlatformSpec, get_platform
from ...machine.simulator import Environment
from .application import ModelError, ModelObject

__all__ = ["ProcessorElement", "BoardElement", "HardwareModel", "cspi_hardware"]


class ProcessorElement(ModelObject):
    """A single CPU in the hardware model."""

    def __init__(self, name: str, cpu: CpuSpec):
        super().__init__(name)
        self.cpu = cpu


class BoardElement(ModelObject):
    """A board carrying one or more processors (e.g. a quad-PPC card)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.processors: List[ProcessorElement] = []

    def add_processor(self, proc: ProcessorElement) -> ProcessorElement:
        self.processors.append(proc)
        return proc


class HardwareModel(ModelObject):
    """System-level hardware: boards + the fabric joining them."""

    def __init__(self, name: str, fabric: FabricSpec):
        super().__init__(name)
        self.fabric = fabric
        self.boards: List[BoardElement] = []

    def add_board(self, board: BoardElement) -> BoardElement:
        self.boards.append(board)
        return board

    # -- flattened views ----------------------------------------------------
    def processors(self) -> List[ProcessorElement]:
        out = []
        for board in self.boards:
            out.extend(board.processors)
        return out

    @property
    def processor_count(self) -> int:
        return len(self.processors())

    def board_map(self) -> Dict[int, int]:
        mapping = {}
        idx = 0
        for b, board in enumerate(self.boards):
            for _ in board.processors:
                mapping[idx] = b
                idx += 1
        return mapping

    @property
    def is_heterogeneous(self) -> bool:
        specs = {p.cpu for p in self.processors()}
        return len(specs) > 1

    def validate(self) -> None:
        if not self.boards:
            raise ModelError(f"hardware model {self.name!r} has no boards")
        if not self.processors():
            raise ModelError(f"hardware model {self.name!r} has no processors")

    # -- materialisation ----------------------------------------------------
    def build_cluster(
        self, env: Environment, fault_plan: Optional[FaultPlan] = None
    ) -> SimCluster:
        """Materialise this hardware model as a simulated cluster, with
        ``fault_plan``'s faults injected.

        Heterogeneous boards are supported: each node gets its processor's
        own :class:`CpuSpec` (AToT's objectives weight loads accordingly).
        """
        self.validate()
        procs = self.processors()
        return SimCluster(
            env=env,
            cpu=[p.cpu for p in procs],
            fabric_spec=self.fabric,
            nodes=len(procs),
            board_map=self.board_map(),
            name=self.name,
            fault_plan=fault_plan,
        )


def cspi_hardware(nodes: int = 8, name: str = "cspi-vme") -> HardwareModel:
    """The §3.2 CSPI target: quad-PPC 603e boards over 160 MB/s Myrinet.

    ``nodes`` processors are packed four to a board, mirroring the two
    quad-Power PC boards of the paper's 8-node chassis.
    """
    platform = get_platform("cspi")
    return from_platform(platform, nodes, name=name)


def from_platform(platform: PlatformSpec, nodes: int, name: Optional[str] = None) -> HardwareModel:
    """Build a hardware model from any platform preset."""
    if nodes <= 0:
        raise ModelError("nodes must be positive")
    hw = HardwareModel(name or platform.name.lower(), platform.fabric)
    remaining = nodes
    b = 0
    while remaining > 0:
        board = hw.add_board(BoardElement(f"board{b}"))
        for i in range(min(platform.cpus_per_board, remaining)):
            board.add_processor(
                ProcessorElement(f"cpu{b}_{i}", platform.cpu)
            )
        remaining -= min(platform.cpus_per_board, remaining)
        b += 1
    return hw


__all__.append("from_platform")
