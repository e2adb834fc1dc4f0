"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info         version + subsystem overview
platforms    the vendor platform presets and their key figures
kernels      the software-shelf contents (ISSPL + structural + radar)
generate     load a design document, run the Alter glue generator, save glue
analyze      run the SAGE Verifier (lint + schedules + buffers), no execution
run          load a design document and execute it on a simulated platform
chaos        randomized chaos soak: seeded fault schedules x fault policies
serve        multi-job service over a shared cluster; --soak runs the harness
submit       append one job spec to a batch file for `serve --batch`
<study>      one paper artifact per reports/*.txt file (table1, knobs, atot,
             ..., service-soak: experiments.generate_report.STUDIES)
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — SAGE reproduction (IPPS 2000)")
    print(__doc__.split("Commands")[0].strip())
    print()
    for line in repro.__doc__.splitlines():
        if line.startswith("``"):
            print(" ", line.strip("`"))
    return 0


def cmd_platforms(_args) -> int:
    from .machine import PLATFORMS, get_platform

    print(f"{'name':<10s}{'CPU':<16s}{'MHz':>6s}{'MFLOPS':>8s}"
          f"{'fabric':<14s}{'BW MB/s':>9s}{'lat us':>8s}{'a2a algo':>20s}")
    for name in sorted(PLATFORMS):
        p = get_platform(name)
        print(
            f"{p.name:<10s}{p.cpu.name:<16s}{p.cpu.clock_mhz:>6.0f}"
            f"{p.cpu.mflops:>8.0f}  {p.fabric.name:<12s}"
            f"{p.fabric.inter_board.bandwidth / 1e6:>9.0f}"
            f"{p.fabric.inter_board.latency * 1e6:>8.1f}"
            f"{p.alltoall_algorithm:>20s}"
        )
    return 0


def cmd_kernels(_args) -> int:
    from .core.model import software_shelf

    shelf = software_shelf()
    for item in shelf.items():
        print(f"{item:<20s}[{shelf.category_of(item)}]")
    return 0


def _load_any_design(path: str):
    """Load a design: JSON documents or the textual .sage format."""
    if path.endswith((".sage", ".txt")):
        from .core.model import parse_application

        with open(path) as fh:
            return parse_application(fh.read()), None, None
    from .core.model import load_design

    return load_design(path)


def cmd_generate(args) -> int:
    from .core.codegen import generate_glue
    from .core.model import round_robin_mapping

    app, hardware, mapping = _load_any_design(args.design)
    nodes = args.nodes or (hardware.processor_count if hardware else None)
    if nodes is None:
        print("error: design has no hardware model; pass --nodes", file=sys.stderr)
        return 2
    if mapping is None:
        mapping = round_robin_mapping(app, nodes)
    if args.c:
        from .core.codegen import generate_c_glue

        source = generate_c_glue(app, mapping, num_processors=nodes)
    else:
        glue = generate_glue(app, mapping, num_processors=nodes,
                             optimize_buffers=args.optimized)
        source = glue.source
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def _analysis_model(args):
    """Resolve the analyze target: a builtin app name or a design document."""
    name = args.app
    if name in ("fft2d", "cornerturn", "corner-turn"):
        from .apps.models import corner_turn_model, fft2d_model

        nodes = args.nodes or 4
        build = fft2d_model if name == "fft2d" else corner_turn_model
        return build(args.n, nodes=nodes), None, None
    return _load_any_design(name)


def _plan_recon(app, mapping, directive: str):
    """Parse one ``--recon`` directive into a planned transition.

    ``shrink=S0,S1,...`` plans the node-loss restripe onto the survivors;
    ``grow=S0,S1,...`` plans the round trip (shrink to the survivors, then
    re-grow to the original placement when the lost nodes rejoin);
    ``migrate=FID:THREAD:PROC[,...]`` plans a live migration.
    """
    from .analysis import (
        plan_grow_transition,
        plan_migration_transition,
        plan_shrink_transition,
    )

    kind, _, rest = directive.partition("=")
    if kind == "shrink" or kind == "grow":
        survivors = [int(x) for x in rest.split(",") if x.strip()]
        if not survivors:
            raise ValueError(f"--recon {kind}= needs a survivor list")
        if kind == "shrink":
            return plan_shrink_transition(app, mapping, survivors)
        shrunk = plan_shrink_transition(app, mapping, survivors)
        lost = sorted(set(mapping.processors_used()) - set(survivors))
        return plan_grow_transition(
            app, shrunk.after, mapping, {p: p for p in lost}
        )
    if kind == "migrate":
        moves = {}
        for item in rest.split(","):
            fid, t, proc = (int(x) for x in item.split(":"))
            moves[(fid, t)] = proc
        return plan_migration_transition(app, mapping, moves)
    raise ValueError(
        f"bad --recon directive {directive!r}: expected shrink=..., "
        "grow=..., or migrate=fid:thread:proc[,...]"
    )


def _write_analysis(args, report, extra=None) -> int:
    """Persist + print one analysis report; shared by every analyze mode."""
    import json
    import os

    doc = report.to_dict()
    if extra:
        doc.update(extra)
    out_path = args.output
    if out_path is None:
        os.makedirs("reports", exist_ok=True)
        safe = report.model_name.replace("/", "_").replace(":", "_")
        out_path = os.path.join("reports", f"analysis_{safe}.json")
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(report.render_text())
        print(f"report written to {out_path}")
    if args.strict and not report.ok:
        return 1
    return 0


def _analyze_jobspec(args) -> int:
    """``analyze --job``: admission-lint a spec built from the CLI args."""
    import sys

    from .analysis import lint_job_spec
    from .machine import get_platform
    from .service.errors import ServiceError
    from .service.jobs import JobSpec

    app_name = {"cornerturn": "corner_turn", "corner-turn": "corner_turn"}
    spec = JobSpec(
        app=app_name.get(args.app, args.app),
        size=args.n,
        nodes=args.nodes or 4,
        iterations=args.iterations,
        time_budget=args.budget if args.budget is not None else 5.0,
    )
    try:
        spec.validate()
    except ServiceError as exc:
        print(f"invalid job spec: {exc}", file=sys.stderr)
        return 2
    report = lint_job_spec(spec, get_platform(args.platform or "cspi"))
    return _write_analysis(args, report)


def cmd_analyze(args) -> int:
    from .analysis import analyze_application
    from .core.model import round_robin_mapping
    from .machine import get_platform

    if args.job:
        return _analyze_jobspec(args)

    app, hardware, mapping = _analysis_model(args)
    nodes = args.nodes or (hardware.processor_count if hardware else 4)
    if mapping is None:
        mapping = round_robin_mapping(app, nodes)
    memory_bytes = None
    if args.platform:
        memory_bytes = get_platform(args.platform).cpu.memory_bytes
    suppress = [r.strip() for r in (args.suppress or "").split(",") if r.strip()]
    report = analyze_application(
        app, mapping, nodes, memory_bytes=memory_bytes, suppress=suppress
    )

    extra = {}
    if args.cost:
        from .analysis import check_cost, predict_makespan

        platform = get_platform(args.platform or "cspi")
        cost = predict_makespan(
            app, mapping, nodes, platform, iterations=args.iterations
        )
        report.record_pass("cost-predict")
        report.extend(check_cost(cost, budget=args.budget))
        extra["cost"] = cost.to_dict()
    if args.recon:
        from .analysis import check_transition

        report.record_pass("recon-safety")
        transitions = []
        for directive in args.recon:
            transition = _plan_recon(app, mapping, directive)
            report.extend(check_transition(app, transition, nodes))
            transitions.append(transition.describe())
        extra["transitions"] = transitions
    if suppress:
        report = report.suppress(suppress)

    return _write_analysis(args, report, extra)


def cmd_run(args) -> int:
    from .core.codegen import generate_glue
    from .core.model import round_robin_mapping
    from .core.runtime import DEFAULT_CONFIG, SageRuntime
    from .core.visualizer import run_report
    from .machine import Environment, SimCluster, get_platform

    app, hardware, mapping = _load_any_design(args.design)
    env = Environment()
    if hardware is not None and not args.platform:
        cluster = hardware.build_cluster(env)
    else:
        platform = get_platform(args.platform or "cspi")
        nodes = args.nodes or (hardware.processor_count if hardware else 4)
        cluster = SimCluster.from_platform(env, platform, nodes)
    nodes = len(cluster)
    if mapping is None:
        mapping = round_robin_mapping(app, nodes)
    glue = generate_glue(app, mapping, num_processors=nodes,
                         optimize_buffers=args.optimized)
    runtime = SageRuntime(glue, cluster, config=DEFAULT_CONFIG.timing_only())
    result = runtime.run(iterations=args.iterations)
    print(run_report(result, processors=nodes))
    return 0


def cmd_study(study, args) -> int:
    """Print one study's report; ``-o`` also writes it.  Exit 1 if the
    study is a gate and a check failed."""
    text, ok = study.run(quick=args.quick)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "chaos":
        from .chaos.soak import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from .service.cli import submit_main

        return submit_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version + subsystem overview").set_defaults(fn=cmd_info)
    sub.add_parser("platforms", help="vendor platform presets").set_defaults(fn=cmd_platforms)
    sub.add_parser("kernels", help="software shelf contents").set_defaults(fn=cmd_kernels)

    gen = sub.add_parser("generate", help="generate glue source from a design document")
    gen.add_argument("design", help="path to a design .json (see save_design)")
    gen.add_argument("-o", "--output", help="write glue source here (default stdout)")
    gen.add_argument("--nodes", type=int, help="processor count override")
    gen.add_argument("--optimized", action="store_true", help="§4 optimised glue")
    gen.add_argument("--c", action="store_true",
                     help="emit the C glue (the VxWorks-era export format)")
    gen.set_defaults(fn=cmd_generate)

    ana = sub.add_parser(
        "analyze",
        help="run the SAGE Verifier over a design without executing it",
    )
    ana.add_argument(
        "app",
        help="design document path, or a builtin app: fft2d | cornerturn",
    )
    ana.add_argument("--nodes", type=int, help="processor count (default 4)")
    ana.add_argument("--n", type=int, default=256,
                     help="matrix size for builtin apps (default 256)")
    ana.add_argument("--platform", choices=["cspi", "mercury", "sky", "sigi"],
                     help="enable DRAM-capacity rules for this platform")
    ana.add_argument("--strict", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="exit 1 on error findings (default; --no-strict to disable)")
    ana.add_argument("--format", choices=["text", "json"], default="text",
                     help="stdout format (a JSON report file is always written)")
    ana.add_argument("-o", "--output",
                     help="report file path (default reports/analysis_<model>.json)")
    ana.add_argument("--suppress",
                     help="comma-separated rule ids to filter out, e.g. MDL004,BUF207")
    ana.add_argument("--cost", action="store_true",
                     help="add the static cost/critical-path prediction "
                          "(PERF rules + a cost section in the report)")
    ana.add_argument("--recon", action="append", metavar="DIRECTIVE",
                     help="check a mapping transition (RECON rules): "
                          "shrink=0,1,2 | grow=0,1,2 | "
                          "migrate=fid:thread:proc[,...]; repeatable")
    ana.add_argument("--job", action="store_true",
                     help="admission-lint a job spec (JOB rules) built from "
                          "app/--n/--nodes/--iterations/--budget")
    ana.add_argument("--iterations", type=int, default=3,
                     help="iteration count for --cost / --job (default 3)")
    ana.add_argument("--budget", type=float, default=None,
                     help="virtual-time budget for PERF003 / --job linting")
    ana.set_defaults(fn=cmd_analyze)

    run = sub.add_parser("run", help="execute a design on a simulated platform")
    run.add_argument("design")
    run.add_argument("--platform", choices=["cspi", "mercury", "sky", "sigi"])
    run.add_argument("--nodes", type=int)
    run.add_argument("--iterations", type=int, default=10)
    run.add_argument("--optimized", action="store_true")
    run.set_defaults(fn=cmd_run)

    sub.add_parser("chaos", help="randomized chaos soak (repro.chaos.soak)")
    sub.add_parser("serve", help="multi-job service / soak harness (repro.service)")
    sub.add_parser("submit", help="append a job spec to a service batch file")
    from .experiments.generate_report import STUDIES

    for study in STUDIES:
        exp = sub.add_parser(study.name, help=f"paper artifact: reports/{study.report}")
        exp.add_argument("--quick", action="store_true",
                         help="the reduced protocol (seconds, not minutes)")
        exp.add_argument("-o", "--output", help="also write the report to this file")
        exp.set_defaults(fn=functools.partial(cmd_study, study))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro kernels | head`
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
