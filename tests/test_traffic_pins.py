"""Pinned outputs of every consumer of the logical-buffer derivation.

The run-time, the static predictor, the COMM pass, admission's footprint,
AToT's objective and list scheduler and the RECON planners all read "who
sends what to whom" off the model's logical buffers.  This file pins each
one's output exactly — one sha256 per (app, size, nodes, mapping) case over
a canonical JSON of all of them, plus the ``striping.replan_*`` counter
deltas each consumer produces — so a refactor of the derivation that moves
one byte, one float or one re-plan fails here.

Regenerate the table (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_traffic_pins.py
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.analysis import (
    check_transition,
    derive_comm_schedule,
    plan_grow_transition,
    plan_migration_transition,
    plan_shrink_transition,
    predict_makespan,
    predicted_footprint,
)
from repro.apps import (
    benchmark_mapping,
    corner_turn_model,
    fft2d_model,
    fft2d_slack_model,
)
from repro.core.atot import MappingObjective, list_schedule, random_mapping
from repro.core.codegen import generate_glue
from repro.core.model import round_robin_mapping
from repro.core.runtime import SageRuntime
from repro.machine.platforms import get_platform
from repro.perf.registry import REGISTRY

BUILDERS = {
    "fft2d": lambda size, nodes: fft2d_model(size, nodes),
    "corner_turn": lambda size, nodes: corner_turn_model(size, nodes),
    # The slack model's thread count is independent of the node count.
    "fft2d_slack": lambda size, nodes: fft2d_slack_model(size, size // 2),
}
SIZES = {"fft2d": (32, 64), "corner_turn": (32, 64), "fft2d_slack": (32, 56)}
MAPPINGS = {
    "benchmark": benchmark_mapping,
    "round_robin": round_robin_mapping,
    "random1": lambda app, nodes: random_mapping(app, nodes, seed=1),
    "random2": lambda app, nodes: random_mapping(app, nodes, seed=2),
}
CASES = [
    (app, size, nodes, mapping)
    for app in BUILDERS
    for size in SIZES[app]
    for nodes in (2, 4, 8)
    for mapping in MAPPINGS
]


def _replan_counters() -> dict:
    return {k: v for k, v in REGISTRY.counters.items()
            if k.startswith("striping.replan_")}


def _counted(out: dict, name: str, fn):
    """Run ``fn`` and record its output plus its re-plan counter deltas."""
    before = _replan_counters()
    out[name] = fn()
    after = _replan_counters()
    out[name + ".replans"] = {
        k: after[k] - before.get(k, 0) for k in sorted(after)
        if after[k] != before.get(k, 0)
    }


def _table(table: dict) -> dict:
    return {f"{b},{t}": n for (b, t), n in sorted(table.items())}


def _findings(app, transition, nodes):
    return [asdict(f) for f in check_transition(app, transition, nodes)]


def case_outputs(app_name: str, size: int, nodes: int, mapping_name: str) -> dict:
    """Every consumer's output for one case, JSON-ready."""
    app = BUILDERS[app_name](size, nodes)
    mapping = MAPPINGS[mapping_name](app, nodes)
    platform = get_platform("cspi")
    out: dict = {}
    _counted(out, "predict", lambda: predict_makespan(
        app, mapping, nodes, platform, iterations=3).to_dict())
    _counted(out, "comm", lambda: {
        str(rank): [asdict(op) for op in ops]
        for rank, ops in sorted(derive_comm_schedule(app, mapping, nodes).ops.items())
    })
    _counted(out, "footprint", lambda: {
        str(p): n for p, n in sorted(predicted_footprint(app, mapping).items())
    })

    glue = generate_glue(app, mapping, num_processors=nodes)

    def runtime():
        rt = SageRuntime.build(glue, platform)
        return {
            "memory_footprint": {
                str(p): n for p, n in sorted(rt.memory_footprint().items())
            },
            "send_remote": _table(rt._buf_send_remote),
            "recv_remote": _table(rt._buf_recv_remote),
        }

    _counted(out, "runtime", runtime)
    _counted(out, "objective", lambda: asdict(
        MappingObjective(app, platform, nodes).breakdown(mapping)))

    def schedule():
        sched = list_schedule(app, mapping, platform, nodes)
        return {
            "tasks": [asdict(t) for t in sched.tasks],
            "transfers": [asdict(t) for t in sched.transfers],
        }

    _counted(out, "schedule", schedule)

    lost = nodes - 1
    survivors = [p for p in range(nodes) if p != lost]
    shrink = plan_shrink_transition(app, mapping, survivors)
    _counted(out, "recon_shrink", lambda: _findings(app, shrink, nodes))
    grow = plan_grow_transition(app, shrink.after, mapping, {lost: lost})
    _counted(out, "recon_grow", lambda: _findings(app, grow, nodes))
    fid = app.function_instances()[1].function_id
    migrate = plan_migration_transition(
        app, mapping, {(fid, 0): (mapping.processor_of(fid, 0) + 1) % nodes})
    _counted(out, "recon_migrate", lambda: _findings(app, migrate, nodes))
    return out


def case_digest(case) -> str:
    blob = json.dumps(case_outputs(*case), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: sha256 of the canonical JSON of :func:`case_outputs`, keyed (app, size, nodes, mapping).
TRAFFIC_SHA256 = {
    ('fft2d', 32, 2, 'benchmark'):
        "01f99871ccf42b4a38bc4bd079f77b999fa7c493020c164943b0b2aeedf3d5ff",
    ('fft2d', 32, 2, 'round_robin'):
        "01f99871ccf42b4a38bc4bd079f77b999fa7c493020c164943b0b2aeedf3d5ff",
    ('fft2d', 32, 2, 'random1'):
        "fc3fb20fdc9f8daf3fb06e78a5ef9531ac3f2c31f9a92d3de3a409ebaa55b724",
    ('fft2d', 32, 2, 'random2'):
        "dbcce3dfb931398192139815c37adaba3c6184e83abe92bf8d97538ee06034d3",
    ('fft2d', 32, 4, 'benchmark'):
        "656c426cb71d9a5486e936ba0181fb7ba0a5688a4222fa3c16998df599caddb5",
    ('fft2d', 32, 4, 'round_robin'):
        "656c426cb71d9a5486e936ba0181fb7ba0a5688a4222fa3c16998df599caddb5",
    ('fft2d', 32, 4, 'random1'):
        "5dcd81e2daddac67d8a6497b14825f0110d99a0020dd4c503c8709a23a1005ea",
    ('fft2d', 32, 4, 'random2'):
        "c9fe23ce79908f44913af1ebe8007f47b80635b53e451965fd5f90c434c8bc39",
    ('fft2d', 32, 8, 'benchmark'):
        "af1e60103c5f40f185318a94cfc8072f37fb805734a71eaa74e9658d6b982dae",
    ('fft2d', 32, 8, 'round_robin'):
        "af1e60103c5f40f185318a94cfc8072f37fb805734a71eaa74e9658d6b982dae",
    ('fft2d', 32, 8, 'random1'):
        "73b419949fd175b55b90364dea3394130b7721ddd249054509945097b5408c38",
    ('fft2d', 32, 8, 'random2'):
        "d809b7a2186760842c095cf3031363f66d79c934a417b9d734dcd52fe7ce2891",
    ('fft2d', 64, 2, 'benchmark'):
        "0e03345c3a9d0d63a7c3a5ef152fcb3f93d411ea08dc269cef1ec4541022f1ca",
    ('fft2d', 64, 2, 'round_robin'):
        "0e03345c3a9d0d63a7c3a5ef152fcb3f93d411ea08dc269cef1ec4541022f1ca",
    ('fft2d', 64, 2, 'random1'):
        "a2d081afd0dc516ad1e65a66ffc1f573e438b58459b7b9f9e450a0fbae00c600",
    ('fft2d', 64, 2, 'random2'):
        "27bb8322193fd757297367f4d16115b94d0ae24d29be8d70b248aac70dd5e71e",
    ('fft2d', 64, 4, 'benchmark'):
        "fd5c9c19ce8a7a1fffd7365594f2a988c3703585275735a2fb014a1ebde12a14",
    ('fft2d', 64, 4, 'round_robin'):
        "fd5c9c19ce8a7a1fffd7365594f2a988c3703585275735a2fb014a1ebde12a14",
    ('fft2d', 64, 4, 'random1'):
        "fd19bc55d29111989d79ec6e80731bd78f86c320af437e6519d3050ea0f0689a",
    ('fft2d', 64, 4, 'random2'):
        "b666678831cf77769e28aa5d5ec2e99c3a96a79e49112cab2cd3b8c06426d300",
    ('fft2d', 64, 8, 'benchmark'):
        "1eb7b30106f909a3df505521d20146c0240554a8157577c69e73c7ecdd6f887b",
    ('fft2d', 64, 8, 'round_robin'):
        "1eb7b30106f909a3df505521d20146c0240554a8157577c69e73c7ecdd6f887b",
    ('fft2d', 64, 8, 'random1'):
        "99de3e58fdbae8979fc510764e336437033a76ab4276ef8e3959c75bdbc3fe70",
    ('fft2d', 64, 8, 'random2'):
        "33ec27a2fddda1608fc46ff68d114a91e9f0bec0d086f7a215f0ef5d0a1c153d",
    ('corner_turn', 32, 2, 'benchmark'):
        "03e3c038a09ab35b1a63ff22203e60bfdc1314ca0c4eb7e6bab33d3255e1d04f",
    ('corner_turn', 32, 2, 'round_robin'):
        "03e3c038a09ab35b1a63ff22203e60bfdc1314ca0c4eb7e6bab33d3255e1d04f",
    ('corner_turn', 32, 2, 'random1'):
        "20d3d569f2d35427bd029e413c6b1d09cb07543e3634bb1bc941b08cd2a4152f",
    ('corner_turn', 32, 2, 'random2'):
        "4403c8e3a8c8e0b5c2d681734a2148b534e2308e0890b153c040964247d1d0ab",
    ('corner_turn', 32, 4, 'benchmark'):
        "380043ddb32ff64724526e2c8167d0ea82e5c5da17be8be008d045d8c6192c40",
    ('corner_turn', 32, 4, 'round_robin'):
        "380043ddb32ff64724526e2c8167d0ea82e5c5da17be8be008d045d8c6192c40",
    ('corner_turn', 32, 4, 'random1'):
        "4792e1a840bfaaa82e96d760bd820f240ef984cd7942c79ff86b71e327126a77",
    ('corner_turn', 32, 4, 'random2'):
        "3ebef839b72f8d5edb6ff70d637dc2307a2d3d85962eac79a4407b8b6bec7d92",
    ('corner_turn', 32, 8, 'benchmark'):
        "cced1c0e99181fa48a3052eacb18cdaecaaad1f2de823aec46fb1172293b38ea",
    ('corner_turn', 32, 8, 'round_robin'):
        "cced1c0e99181fa48a3052eacb18cdaecaaad1f2de823aec46fb1172293b38ea",
    ('corner_turn', 32, 8, 'random1'):
        "a591d205820329f2f2178346109ce35ab517a761d26d786b45265383bf44915a",
    ('corner_turn', 32, 8, 'random2'):
        "9bd1688e0f5f4d0bcf206f1a79456077fb3ed725ab4c090941d64193c599c084",
    ('corner_turn', 64, 2, 'benchmark'):
        "a031f5413f4deee562a45fe7d08fba4ae4312aa49404d4a854652665c3071b58",
    ('corner_turn', 64, 2, 'round_robin'):
        "a031f5413f4deee562a45fe7d08fba4ae4312aa49404d4a854652665c3071b58",
    ('corner_turn', 64, 2, 'random1'):
        "2004a9729521f91c3b30b739b76b3ec491dfd01f4d796ba2ec65ae71476c9dfa",
    ('corner_turn', 64, 2, 'random2'):
        "a35e6ae6af277d27d05eb50920057499bedcba2731e46c2db0565128949f66b9",
    ('corner_turn', 64, 4, 'benchmark'):
        "36a73cc6a5d396302b957ffb3c3a98182384a8bc0a72cb3f0ba22d471ed28a32",
    ('corner_turn', 64, 4, 'round_robin'):
        "36a73cc6a5d396302b957ffb3c3a98182384a8bc0a72cb3f0ba22d471ed28a32",
    ('corner_turn', 64, 4, 'random1'):
        "b1d836cbdd67f3f94e29a7c1fdcca3f5297cf789585d414effc5a8afe6a7235c",
    ('corner_turn', 64, 4, 'random2'):
        "a90e88c4f51a64671be8f2b7b9544b9fe95353310e1afc68aab749730509f782",
    ('corner_turn', 64, 8, 'benchmark'):
        "01f6ff9341d24eea33f65c1de56bb61411b94e4749e1beab5553fdcf41773e92",
    ('corner_turn', 64, 8, 'round_robin'):
        "01f6ff9341d24eea33f65c1de56bb61411b94e4749e1beab5553fdcf41773e92",
    ('corner_turn', 64, 8, 'random1'):
        "5c3f65f248ff6662bf13e040606590f1351b195a89cbf6d23d76f3d9965126bb",
    ('corner_turn', 64, 8, 'random2'):
        "befd3f254385965ea0b422a22fb93c2886e62b79ac702aeaf0fc58c41f54968c",
    ('fft2d_slack', 32, 2, 'benchmark'):
        "f54724782e0039488c71a1e69bdae14815c884ef228bdf83d95069c0e27c0d13",
    ('fft2d_slack', 32, 2, 'round_robin'):
        "f54724782e0039488c71a1e69bdae14815c884ef228bdf83d95069c0e27c0d13",
    ('fft2d_slack', 32, 2, 'random1'):
        "00a07225bd18b0e41e223d3ce71b1f8d143bef9d814218065d9af3c68cafe326",
    ('fft2d_slack', 32, 2, 'random2'):
        "97e2910a0d97693cc9a8d1a99c13c71033bc9288786fc6c5078f26a71c14ece5",
    ('fft2d_slack', 32, 4, 'benchmark'):
        "0d89b927feba850a09416ec0248186416b763f117fb76c361cc630eed625dae2",
    ('fft2d_slack', 32, 4, 'round_robin'):
        "0d89b927feba850a09416ec0248186416b763f117fb76c361cc630eed625dae2",
    ('fft2d_slack', 32, 4, 'random1'):
        "f86553ca990bd01169dc901783fe720634232b4eb20c776be39643bd8523441a",
    ('fft2d_slack', 32, 4, 'random2'):
        "d0910ce73e181a822c5ec3008c5f72b1ea703fe484ce09ed86ce619d841b56c2",
    ('fft2d_slack', 32, 8, 'benchmark'):
        "35d36e0c4a9752454f27b5dd0fc1ab66e4a3bfb4aa330937ce0519035538a392",
    ('fft2d_slack', 32, 8, 'round_robin'):
        "35d36e0c4a9752454f27b5dd0fc1ab66e4a3bfb4aa330937ce0519035538a392",
    ('fft2d_slack', 32, 8, 'random1'):
        "e908e6a1c3cf07c6e3d9f2792e4a623921452c144a5db1275e23541179dd507b",
    ('fft2d_slack', 32, 8, 'random2'):
        "28d85e885e7c4843d57ef9226360fe0db32f039e8ecff598d809774c59f33169",
    ('fft2d_slack', 56, 2, 'benchmark'):
        "0f3ce2edcb5dafafa9e0b704a99a31975b29fcea85a85d29932414577d85128d",
    ('fft2d_slack', 56, 2, 'round_robin'):
        "0f3ce2edcb5dafafa9e0b704a99a31975b29fcea85a85d29932414577d85128d",
    ('fft2d_slack', 56, 2, 'random1'):
        "281e3d40daab944dc8ffad54ec01678073c0c41b0083e5c04124b0e18fef83ee",
    ('fft2d_slack', 56, 2, 'random2'):
        "9536b4753ae473b846048822a5c09bb8f04b557949b2b808754cb22468f2da94",
    ('fft2d_slack', 56, 4, 'benchmark'):
        "b1cda6758356220043c827dcb728a0e893dfce41e693b85a1b842043d388fd5c",
    ('fft2d_slack', 56, 4, 'round_robin'):
        "b1cda6758356220043c827dcb728a0e893dfce41e693b85a1b842043d388fd5c",
    ('fft2d_slack', 56, 4, 'random1'):
        "f7348c0da385469f3b2b754cacdea9d191a82b5457fc597350aa002a02951d90",
    ('fft2d_slack', 56, 4, 'random2'):
        "5fd7a3009c0dfc42480f03e660373d250d45dfd37a09a6e8538ba0ad06237466",
    ('fft2d_slack', 56, 8, 'benchmark'):
        "4e6ed7103c6f603e631866b56372cf4782a95b7b842ceeba9a3675cb9dc370b8",
    ('fft2d_slack', 56, 8, 'round_robin'):
        "4e6ed7103c6f603e631866b56372cf4782a95b7b842ceeba9a3675cb9dc370b8",
    ('fft2d_slack', 56, 8, 'random1'):
        "d932ac0c4bd23cbd56f7e173dbce84093a8078f94c008a1c258f9c6c1ff83449",
    ('fft2d_slack', 56, 8, 'random2'):
        "ef7189a520490f5a4491ec95e1a32ba724eb1eed9d232427838ebe838cfcd775",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_consumer_outputs_are_pinned(case):
    assert case_digest(case) == TRAFFIC_SHA256[case]


def test_pin_table_covers_the_grid():
    assert set(TRAFFIC_SHA256) == set(CASES)


if __name__ == "__main__":
    print("TRAFFIC_SHA256 = {")
    for case in CASES:
        print(f"    {case!r}:\n        \"{case_digest(case)}\",")
    print("}")
