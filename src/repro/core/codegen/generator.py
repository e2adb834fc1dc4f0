"""Glue-code generator driver.

Figure 1.0 of the paper: *"The SAGE glue-code generator gains access into the
internal SAGE design tool environment, traverses objects in the models to
filter relevant information, and then outputs the information in formats
particular to the SAGE run-time source files."*

:func:`generate_glue` runs the Alter scripts of
:mod:`repro.core.codegen.scripts` against a validated, mapped application
model and returns a :class:`GlueModule`: the generated Python source text
plus a loader that materialises it as a namespace the run-time executes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...perf.cache import named_cache
from ..alter import Interpreter
from ..model.application import ApplicationModel, ModelError
from ..model.mapping import Mapping
from ..model.validation import validate_application
from .scripts import ALL_SCRIPTS

__all__ = ["GlueModule", "generate_glue", "glue_fingerprint"]

_REQUIRED_GLOBALS = (
    "MODEL_NAME",
    "NUM_PROCESSORS",
    "FUNCTION_TABLE",
    "LOGICAL_BUFFERS",
    "THREAD_MAP",
    "PROBES",
    "EXECUTION_ORDER",
    "OPTIMIZE_BUFFERS",
)


@dataclass
class GlueModule:
    """Generated glue source plus its loaded namespace."""

    model_name: str
    source: str
    namespace: Dict[str, Any] = field(repr=False, default_factory=dict)

    @property
    def function_table(self) -> List[dict]:
        return self.namespace["FUNCTION_TABLE"]

    @property
    def logical_buffers(self) -> List[dict]:
        return self.namespace["LOGICAL_BUFFERS"]

    @property
    def thread_map(self) -> Dict[str, int]:
        return self.namespace["THREAD_MAP"]

    @property
    def probes(self) -> List[str]:
        return self.namespace["PROBES"]

    @property
    def execution_order(self) -> List[int]:
        return self.namespace["EXECUTION_ORDER"]

    @property
    def num_processors(self) -> int:
        return self.namespace["NUM_PROCESSORS"]

    @property
    def optimize_buffers(self) -> bool:
        return self.namespace["OPTIMIZE_BUFFERS"]

    def processor_of(self, function_id: int, thread: int) -> int:
        return self.thread_map[f"{function_id}:{thread}"]

    def save(self, path: str) -> None:
        """Write the generated source to a file (the paper's 'Source files')."""
        with open(path, "w") as fh:
            fh.write(self.source)


#: fingerprint -> (generated and analysis-approved glue source, its compiled
#: code).  The namespace is still exec'd fresh per call: the run-time
#: mutates its tables.
_GLUE_CACHE = named_cache("codegen.glue_source", maxsize=128)


def load_glue_source(source: str) -> Dict[str, Any]:
    """Exec generated glue source into a fresh namespace and sanity-check it."""
    return _exec_glue(compile(source, filename="<sage-glue>", mode="exec"))


def _exec_glue(code) -> Dict[str, Any]:
    namespace: Dict[str, Any] = {}
    exec(code, namespace)  # noqa: S102 - the point of a code generator
    missing = [g for g in _REQUIRED_GLOBALS if g not in namespace]
    if missing:
        raise ModelError(f"generated glue is missing globals: {missing}")
    return namespace


def glue_fingerprint(
    app: ApplicationModel,
    mapping: Mapping,
    num_processors: int,
    optimize_buffers: bool,
    extra_scripts: Optional[List[tuple]] = None,
) -> str:
    """Content digest of everything the generated glue depends on.

    Serialises the full model and mapping, so mutating either (even in
    place) yields a new fingerprint — the glue cache can never serve stale
    source for changed inputs.
    """
    from ..model.serialization import application_to_dict

    blob = json.dumps(
        {
            "app": application_to_dict(app),
            "mapping": sorted((repr(k), v) for k, v in mapping.items()),
            "nprocs": num_processors,
            "optimize_buffers": bool(optimize_buffers),
            "extra": [(n, s) for n, s in (extra_scripts or [])],
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha1(blob.encode()).hexdigest()


def generate_glue(
    app: ApplicationModel,
    mapping: Mapping,
    num_processors: int,
    optimize_buffers: bool = False,
    validate: bool = True,
    analyze: bool = True,
    extra_scripts: Optional[List[tuple]] = None,
) -> GlueModule:
    """Run the Alter glue scripts over a mapped model.

    Parameters
    ----------
    app:
        The application model (Designer output).
    mapping:
        Thread-to-processor assignment (AToT output or a baseline mapping).
    num_processors:
        Processor count of the target hardware model.
    optimize_buffers:
        Emit the improved buffer policy (§4: the work "currently underway" to
        reach 90 % of hand-coded performance — shared logical buffers instead
        of unique ones per function).
    validate:
        Run Designer validation before generating.
    analyze:
        Run the SAGE Verifier (:mod:`repro.analysis`) strict mode: lint each
        Alter script before it executes and reject models whose derived
        communication schedule deadlocks or whose buffers carry hazards.
    extra_scripts:
        Additional ``(name, alter_source)`` pairs appended after the standard
        scripts — the hook user-defined codegen extensions plug into.

    Caching
    -------
    Generation (validation, static analysis, Alter execution, compilation)
    is memoized on a content fingerprint of every input
    (:func:`glue_fingerprint`) plus the ``validate``/``analyze`` flags: a hit
    means this exact model/mapping already generated — and, when analysis
    was requested, already passed the Verifier — so the cached source and
    its compiled code are reused.  The namespace is *always* exec'd fresh,
    because the run-time treats its tables as private mutable state.
    ``repro.perf.cache.clear_all_caches()`` invalidates explicitly.
    """
    key = (
        glue_fingerprint(app, mapping, num_processors, optimize_buffers,
                         extra_scripts),
        bool(validate),
        bool(analyze),
    )
    source, code = _GLUE_CACHE.get(key, lambda: _generate(
        app, mapping, num_processors, optimize_buffers, validate, analyze,
        extra_scripts))
    namespace = _exec_glue(code)
    _cross_check(app, namespace)
    return GlueModule(model_name=app.name, source=source, namespace=namespace)


def _generate(
    app: ApplicationModel,
    mapping: Mapping,
    num_processors: int,
    optimize_buffers: bool,
    validate: bool,
    analyze: bool,
    extra_scripts: Optional[List[tuple]],
) -> Tuple[str, Any]:
    """:func:`generate_glue`'s cache miss: the glue source and its code."""
    if validate:
        validate_application(app, strict=True)
    mapping.validate(app, processor_count=num_processors)

    interp = Interpreter()
    interp.globals.define("model", app)
    interp.globals.define("mapping", mapping)
    interp.globals.define("nprocs", num_processors)
    interp.globals.define("options", {"optimize_buffers": optimize_buffers})

    if analyze:
        # Late import: repro.analysis imports the scripts module from here.
        from ...analysis.alter_lint import GLUE_GLOBALS, lint_script, script_defines

        known = set(GLUE_GLOBALS)
        for name, script in list(ALL_SCRIPTS) + list(extra_scripts or []):
            errors = [
                f for f in lint_script(script, name, tuple(sorted(known)))
                if f.severity == "error"
            ]
            if errors:
                rendered = "\n".join(f.render() for f in errors)
                raise ModelError(
                    f"glue script {name!r} failed static analysis:\n{rendered}"
                )
            known.update(script_defines(script))

        from ...analysis.buffers import check_buffer_hazards, logical_buffer_specs
        from ...analysis.comm import check_comm_schedule, derive_comm_schedule

        schedule = derive_comm_schedule(app, mapping, num_processors)
        problems = [
            f for f in check_comm_schedule(schedule) if f.severity == "error"
        ]
        try:
            execution_order = [i.function_id for i in app.topological_order()]
        except ModelError:
            execution_order = None
        problems += [
            f
            for f in check_buffer_hazards(
                logical_buffer_specs(app),
                mapping=mapping,
                nprocs=num_processors,
                execution_order=execution_order,
            )
            if f.severity == "error"
        ]
        if problems:
            rendered = "\n".join(f.render() for f in problems)
            raise ModelError(
                f"model {app.name!r} failed static analysis:\n{rendered}"
            )

    for name, script in list(ALL_SCRIPTS) + list(extra_scripts or []):
        try:
            interp.run(script)
        except Exception as exc:
            raise ModelError(f"glue script {name!r} failed: {exc}") from exc

    source = interp.output()
    return source, compile(source, filename="<sage-glue>", mode="exec")


def _cross_check(app: ApplicationModel, namespace: Dict[str, Any]) -> None:
    """Defence in depth: the generated tables must match the model."""
    instances = app.function_instances()
    table = namespace["FUNCTION_TABLE"]
    if [e["id"] for e in table] != [i.function_id for i in instances]:
        raise ModelError("generated function table IDs do not match the model")
    if len(namespace["LOGICAL_BUFFERS"]) != len(app.flattened_arcs()):
        raise ModelError("generated buffer count does not match the model arcs")
    want_threads = sum(i.threads for i in instances)
    if len(namespace["THREAD_MAP"]) != want_threads:
        raise ModelError("generated thread map does not cover all threads")
