"""The SAGE project facade: the whole §1.1 lifecycle behind one object.

The paper's tool suite "bring[s] together under a common GUI, a set of
collaborating tools designed specifically for each phase of a system's
development lifecycle".  :class:`SageProject` is that integration point as a
library API: capture (application + hardware), trade/optimise (AToT),
generate (Alter glue), execute (run-time on the simulated machine), and
visualise — each phase one method, with the artefacts of every phase kept
on the object.

>>> from repro import SageProject
>>> from repro.apps import fft2d_model, MatrixProvider
>>> project = SageProject(fft2d_model(256, 4), platform="cspi", nodes=4)
>>> project.optimize()                      # AToT GA mapping
>>> project.generate()                      # Alter glue generation
>>> result = project.execute(iterations=10, input_provider=MatrixProvider(256))
>>> print(project.report())                 # Visualizer
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

from .core.atot import AtotResult, GaConfig, optimize_mapping
from .core.codegen import GlueModule, generate_glue
from .core.model import (
    ApplicationModel,
    HardwareModel,
    Mapping,
    ModelError,
    from_platform,
    load_design,
    round_robin_mapping,
    save_design,
    validate_application,
)
from .core.runtime import DEFAULT_CONFIG, RunResult, RuntimeConfig, SageRuntime
from .core.visualizer import run_report, run_summary
from .machine import PlatformSpec, get_platform

__all__ = ["SageProject"]


class SageProject:
    """One design: application + target hardware + the derived artefacts."""

    def __init__(
        self,
        app: ApplicationModel,
        platform: Union[str, PlatformSpec] = "cspi",
        nodes: Optional[int] = None,
        hardware: Optional[HardwareModel] = None,
    ):
        self.app = app
        self.platform = get_platform(platform) if isinstance(platform, str) else platform
        if hardware is None:
            if nodes is None:
                raise ModelError("pass nodes= or a hardware= model")
            hardware = from_platform(self.platform, nodes)
        self.hardware = hardware
        self.nodes = self.hardware.processor_count
        self.mapping: Optional[Mapping] = None
        self.atot_result: Optional[AtotResult] = None
        self.glue: Optional[GlueModule] = None
        self.last_result: Optional[RunResult] = None

    # -- phase 1: capture / validate -----------------------------------------
    def validate(self) -> List:
        """Designer validation; raises on structural errors."""
        return validate_application(self.app, strict=True)

    # -- phase 2: AToT ----------------------------------------------------------
    def optimize(self, ga_config: GaConfig = GaConfig(), **objective_kwargs) -> AtotResult:
        """Run the AToT GA; stores and returns the optimised mapping."""
        self.atot_result = optimize_mapping(
            self.app, self.platform, self.nodes, config=ga_config, **objective_kwargs
        )
        self.mapping = self.atot_result.mapping
        self.glue = None  # a new mapping invalidates generated glue
        return self.atot_result

    def use_mapping(self, mapping: Mapping) -> None:
        """Install an explicit mapping (e.g. hand-refined in the Designer)."""
        mapping.validate(self.app, processor_count=self.nodes)
        self.mapping = mapping
        self.glue = None

    # -- phase 3: glue generation ---------------------------------------------
    def generate(self, optimize_buffers: bool = False) -> GlueModule:
        """Run the Alter glue-code generator over the mapped model."""
        if self.mapping is None:
            # the Designer default: round-robin data-parallel layout
            self.mapping = round_robin_mapping(self.app, self.nodes)
        self.glue = generate_glue(
            self.app,
            self.mapping,
            num_processors=self.nodes,
            optimize_buffers=optimize_buffers,
        )
        return self.glue

    # -- phase 4: execution ---------------------------------------------------
    def execute(
        self,
        iterations: int = 1,
        input_provider: Optional[Callable[[int], Any]] = None,
        config: RuntimeConfig = DEFAULT_CONFIG,
        source_interval: float = 0.0,
    ) -> RunResult:
        """Build the simulated machine, load the glue, run the application."""
        if self.glue is None:
            self.generate()
        if input_provider is None and config.execute_data:
            config = config.timing_only()
        runtime = SageRuntime.build(self.glue, self.hardware, config=config)
        self.last_result = runtime.run(
            iterations=iterations,
            input_provider=input_provider,
            source_interval=source_interval,
        )
        return self.last_result

    # -- phase 5: visualisation ---------------------------------------------
    def report(self, latency_threshold: Optional[float] = None) -> str:
        """The Visualizer text report for the most recent execution."""
        if self.last_result is None:
            raise ModelError("nothing to report: call execute() first")
        return run_report(
            self.last_result, processors=self.nodes,
            latency_threshold=latency_threshold,
        )

    def summary(self) -> dict:
        """JSON-able summary of the most recent execution."""
        if self.last_result is None:
            raise ModelError("nothing to summarise: call execute() first")
        return run_summary(self.last_result, processors=self.nodes)

    def html_report(self, path: Optional[str] = None) -> str:
        """Standalone HTML report (SVG timeline + tables) of the last run."""
        from .core.visualizer import render_html_report

        if self.last_result is None:
            raise ModelError("nothing to report: call execute() first")
        doc = render_html_report(
            self.last_result, processors=self.nodes,
            title=f"SAGE Visualizer — {self.app.name}",
        )
        if path is not None:
            with open(path, "w") as fh:
                fh.write(doc)
        return doc

    # -- persistence -------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the design (application + hardware + mapping) as JSON."""
        save_design(path, self.app, hardware=self.hardware, mapping=self.mapping)

    @classmethod
    def load(cls, path: str, platform: Union[str, PlatformSpec] = "cspi") -> "SageProject":
        """Reload a saved design into a fresh project."""
        app, hardware, mapping = load_design(path)
        if hardware is None:
            raise ModelError(f"design {path!r} has no hardware model")
        project = cls(app, platform=platform, hardware=hardware)
        if mapping is not None:
            project.use_mapping(mapping)
        return project
