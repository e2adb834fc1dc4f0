#!/usr/bin/env python
"""Quickstart: model -> Alter glue generation -> simulated execution.

Builds a small 2D-FFT dataflow application the way a SAGE Designer user
would, generates the run-time glue source with the Alter scripts, executes
it on a simulated 4-node CSPI machine, and checks the numerics against
numpy.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.apps import MatrixProvider, benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import SageRuntime
from repro.core.visualizer import run_report
from repro.machine import cspi

N = 64        # matrix size (power of two)
NODES = 4     # processors of the target machine


def main():
    # 1. Application model (what the Designer's application editor captures).
    app = fft2d_model(N, NODES)
    print(f"model: {app.name}")
    for inst in app.function_instances():
        print(f"  function #{inst.function_id}: {inst.path} "
              f"(kernel={inst.kernel}, threads={inst.threads})")

    # 2. Mapping (here the benchmark layout; see atot_mapping.py for the GA).
    mapping = benchmark_mapping(app, NODES)

    # 3. Glue-code generation: Alter traverses the model and emits Python
    #    source for the run-time (function table, logical buffers, ...).
    glue = generate_glue(app, mapping, num_processors=NODES)
    print("\n--- first lines of the generated glue source ---")
    print("\n".join(glue.source.splitlines()[:12]))
    print(f"... ({len(glue.source.splitlines())} lines total)\n")

    # 4. Execute on the simulated CSPI machine (§3.2: quad-PPC 603e boards
    #    over 160 MB/s Myrinet).
    runtime = SageRuntime.build(glue, cspi())
    provider = MatrixProvider(N, seed=42)
    result = runtime.run(iterations=3, input_provider=provider)

    # 5. Validate the distributed result against numpy.
    got = result.full_result(0)
    expected = np.fft.fft2(provider(0))
    err = np.max(np.abs(got - expected))
    print(f"max |error| vs numpy.fft.fft2: {err:.3e}")
    assert err < 1e-1, "distributed FFT does not match numpy"

    # 6. The Visualizer report (probes placed by the generated code).
    print()
    print(run_report(result, processors=NODES, gantt_width=60))


if __name__ == "__main__":
    main()
