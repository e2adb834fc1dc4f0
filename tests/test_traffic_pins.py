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
        "eebd5f1d9ed9484ebbc1c5530e95230b2f4d3407e54e77ca1d75121df406891a",
    ('fft2d', 32, 2, 'round_robin'):
        "eebd5f1d9ed9484ebbc1c5530e95230b2f4d3407e54e77ca1d75121df406891a",
    ('fft2d', 32, 2, 'random1'):
        "1aa77ffb7ad56a20dc6b04f910f2574330a68ab867944618f0f4fdf68f7dfc5c",
    ('fft2d', 32, 2, 'random2'):
        "8dbc3e796a0157183c4c4336d80aad039503cd52d5abb4851aa146754402af25",
    ('fft2d', 32, 4, 'benchmark'):
        "98320ee8855f0b4a7eed28cf2d734ebc9e4a62eaca1a62026154c5c7ea90c9ab",
    ('fft2d', 32, 4, 'round_robin'):
        "98320ee8855f0b4a7eed28cf2d734ebc9e4a62eaca1a62026154c5c7ea90c9ab",
    ('fft2d', 32, 4, 'random1'):
        "c0b234d07627e6777f7d121b2da66598daf666b2413b289bdfecfa49aa629d89",
    ('fft2d', 32, 4, 'random2'):
        "ae34e7eb548a2568f5f949ebb817d632375e9715366cc215ea435733634ed206",
    ('fft2d', 32, 8, 'benchmark'):
        "39ce21e9c4b49b715a1667ad294b99d3510f944fda80d6baeb58933fd115c966",
    ('fft2d', 32, 8, 'round_robin'):
        "39ce21e9c4b49b715a1667ad294b99d3510f944fda80d6baeb58933fd115c966",
    ('fft2d', 32, 8, 'random1'):
        "ce542d7ec59c51fb2a1e556ecd8614e34880aac73af995bc2273b69d9d1ae1da",
    ('fft2d', 32, 8, 'random2'):
        "71a44fb2039e838d329f8f18e42d9724bc6513267b3c67ca6d94f2288ad0cfc1",
    ('fft2d', 64, 2, 'benchmark'):
        "af108cdb43d09c48df4cb61ff594ee221111145d570473a980fa9c582cbf2b71",
    ('fft2d', 64, 2, 'round_robin'):
        "af108cdb43d09c48df4cb61ff594ee221111145d570473a980fa9c582cbf2b71",
    ('fft2d', 64, 2, 'random1'):
        "141d873a7c81ad8cb12aecc988cf7facde11d70469a3f5c7273de2de155d2118",
    ('fft2d', 64, 2, 'random2'):
        "0d37afebec443e6318b0c94b57c91e3f734ee9c54d1c7d010f8db271c3f0bfb4",
    ('fft2d', 64, 4, 'benchmark'):
        "13281b440767bd31a6910f2cba7001fa273532ef9faca155d21fd5fe8fe41b10",
    ('fft2d', 64, 4, 'round_robin'):
        "13281b440767bd31a6910f2cba7001fa273532ef9faca155d21fd5fe8fe41b10",
    ('fft2d', 64, 4, 'random1'):
        "c3290f6ad701f127bda7216492bd8b4c13ea16e2206eecfa0405b9546edc9f89",
    ('fft2d', 64, 4, 'random2'):
        "4967a81ea03da37ccdf59923dac70da0e32908b87784740b581f9f54f87e9fb7",
    ('fft2d', 64, 8, 'benchmark'):
        "647e483789214ee6decd4c6ac6ca5df8d6f51b5fc764bbbe9465efc8e92af812",
    ('fft2d', 64, 8, 'round_robin'):
        "647e483789214ee6decd4c6ac6ca5df8d6f51b5fc764bbbe9465efc8e92af812",
    ('fft2d', 64, 8, 'random1'):
        "c6696bbf195e9396f1b444b5fcb98cfd8b98c728549b6c9652dd340bc0133b3a",
    ('fft2d', 64, 8, 'random2'):
        "dd5469400200f7aa05ed020dc5f22d09d0f6c7ef875fda4ffb5c5825e1a8a031",
    ('corner_turn', 32, 2, 'benchmark'):
        "1037f36f86d316258ed7ec58dcfa36cb2c289dc381cbd57e7c0ca2af1756dad5",
    ('corner_turn', 32, 2, 'round_robin'):
        "1037f36f86d316258ed7ec58dcfa36cb2c289dc381cbd57e7c0ca2af1756dad5",
    ('corner_turn', 32, 2, 'random1'):
        "2c1df5dc4042a607c68f91cabc21b71a07f7c55089ea165f398ab16e4582da75",
    ('corner_turn', 32, 2, 'random2'):
        "ba0ee51f3fef2219a4a82ce9256429394525703debeafd4d2a730560fd0bd3e9",
    ('corner_turn', 32, 4, 'benchmark'):
        "2a7782255a19fcc2ad406e814da8011138064dafa376ac527d84b5b36fb212fb",
    ('corner_turn', 32, 4, 'round_robin'):
        "2a7782255a19fcc2ad406e814da8011138064dafa376ac527d84b5b36fb212fb",
    ('corner_turn', 32, 4, 'random1'):
        "7fbc3f718c12c00efcf1961c7266b2557035befd6109af6c626b82f87fabf954",
    ('corner_turn', 32, 4, 'random2'):
        "9d75c5d28088c9d077c58eea25b368392c66f401d9a64decded59453e5168372",
    ('corner_turn', 32, 8, 'benchmark'):
        "dfd354560f6251081ffa636e74b5eaea29976d9c428c7d8993cba98e8adc42bb",
    ('corner_turn', 32, 8, 'round_robin'):
        "dfd354560f6251081ffa636e74b5eaea29976d9c428c7d8993cba98e8adc42bb",
    ('corner_turn', 32, 8, 'random1'):
        "177c3a48f4d8da7575c4576bd0f1e977ff87ba36ff8d3f80d7ac82318c7dd91b",
    ('corner_turn', 32, 8, 'random2'):
        "fcda7fee7e87113b91006fe2e7ba7c4495fbd107ab45723d3f66bd197752be4e",
    ('corner_turn', 64, 2, 'benchmark'):
        "baefe9305396cda1c4007b619c8c24cecf574b82d6cecf7699ac3d36ff517b5a",
    ('corner_turn', 64, 2, 'round_robin'):
        "baefe9305396cda1c4007b619c8c24cecf574b82d6cecf7699ac3d36ff517b5a",
    ('corner_turn', 64, 2, 'random1'):
        "856bb481fff627a4ee52bfce5ede76bfd15ec101da2eeaeacc9502da4956dae8",
    ('corner_turn', 64, 2, 'random2'):
        "1be563137080be6e7e3f4f84dfed405feff5f236409f119658b173cdc74acbbd",
    ('corner_turn', 64, 4, 'benchmark'):
        "439f49ec296891a678377c61ae0d0c77edc13a8e0b6aeafd65725f40734f449b",
    ('corner_turn', 64, 4, 'round_robin'):
        "439f49ec296891a678377c61ae0d0c77edc13a8e0b6aeafd65725f40734f449b",
    ('corner_turn', 64, 4, 'random1'):
        "a9b46b5fd63b416c44e742c7da8bc2da6c48107ba1cbaf4b2576ab8bdc6a3bbf",
    ('corner_turn', 64, 4, 'random2'):
        "8dca575c3ebb1c40905f29f4580b0660c986860cd3cda9b85e0422a7fa3bbecc",
    ('corner_turn', 64, 8, 'benchmark'):
        "ef8d88e9430ff9dda042e69411ae60b390e53108b3646dce06e3310bf228c1c9",
    ('corner_turn', 64, 8, 'round_robin'):
        "ef8d88e9430ff9dda042e69411ae60b390e53108b3646dce06e3310bf228c1c9",
    ('corner_turn', 64, 8, 'random1'):
        "e46b738b20147300a878223b9a7f5b682145fc4962a1b953d8543a8dd5987709",
    ('corner_turn', 64, 8, 'random2'):
        "fa1bc0a13351dbf5ca3162cb631a6bc975a255366bf219311b4a1e8675acd8d7",
    ('fft2d_slack', 32, 2, 'benchmark'):
        "42d1f2e7bce56edcf23f6aa740752e8d78307a6d36f2f68403c3125814e2306c",
    ('fft2d_slack', 32, 2, 'round_robin'):
        "42d1f2e7bce56edcf23f6aa740752e8d78307a6d36f2f68403c3125814e2306c",
    ('fft2d_slack', 32, 2, 'random1'):
        "fe235f00d493fc4a9beb30c29620dadd2d95f8331032d8607dac9177833fd43f",
    ('fft2d_slack', 32, 2, 'random2'):
        "0dc235d457dbe26da1c96dd41ab686b6704aad2f2a4c04f24fea9c263f319ec1",
    ('fft2d_slack', 32, 4, 'benchmark'):
        "449664319a455046d050049a1e9f8ea143df9846bd35caf393f2e3551aa53be2",
    ('fft2d_slack', 32, 4, 'round_robin'):
        "449664319a455046d050049a1e9f8ea143df9846bd35caf393f2e3551aa53be2",
    ('fft2d_slack', 32, 4, 'random1'):
        "27ad595da634f97dff34f1144b562d6ec2b21e13d3979d0ebad9b0b5b7031c7d",
    ('fft2d_slack', 32, 4, 'random2'):
        "e4c749060daa4dacc2f4f6884e16e194d0eb463332d466997acd766410f23bdd",
    ('fft2d_slack', 32, 8, 'benchmark'):
        "cd7fa117b4901ad3c1fbee1a34a6d404e6262c4022a1c58ed7c0c29aeaf25e7d",
    ('fft2d_slack', 32, 8, 'round_robin'):
        "cd7fa117b4901ad3c1fbee1a34a6d404e6262c4022a1c58ed7c0c29aeaf25e7d",
    ('fft2d_slack', 32, 8, 'random1'):
        "3629d5ff0b2bb7b46973a9bf173f976abaaecbee6a96607fa6c8e8433ed7862d",
    ('fft2d_slack', 32, 8, 'random2'):
        "a13ec04a9ae5119da7ec52d14641889d84cc18e9a36ed46794de8a3865ac3f77",
    ('fft2d_slack', 56, 2, 'benchmark'):
        "2d4b3b76cb002faf34f35a092d732c341c17beab7586190f9c5355a4d7ca7ac4",
    ('fft2d_slack', 56, 2, 'round_robin'):
        "2d4b3b76cb002faf34f35a092d732c341c17beab7586190f9c5355a4d7ca7ac4",
    ('fft2d_slack', 56, 2, 'random1'):
        "f0935ab0de8c8fea8a39f7907de0a6fff6f5732c8f05e7ea231b8b6b759045b7",
    ('fft2d_slack', 56, 2, 'random2'):
        "d65199ed93e4bda3ce1cbb01ccbf65ffe56914cc09a9d806a28ff6e7f2e62088",
    ('fft2d_slack', 56, 4, 'benchmark'):
        "89802cc5ed701218e16597dbaee20b451455e54766d0278d6b1914acbdea5b97",
    ('fft2d_slack', 56, 4, 'round_robin'):
        "89802cc5ed701218e16597dbaee20b451455e54766d0278d6b1914acbdea5b97",
    ('fft2d_slack', 56, 4, 'random1'):
        "ff2fc0267d509122bc01bdf558eb7dae62cd462a2c6e315aa1cf2d910eaa69dd",
    ('fft2d_slack', 56, 4, 'random2'):
        "96162e9e94c09c4f531a792f6f7bc9ea86c538b1053c8b63dbac382a50bc3b41",
    ('fft2d_slack', 56, 8, 'benchmark'):
        "bd542210b2ce2fbd66841dc8502643cd3238f38d3622180abb605f0673f9ad10",
    ('fft2d_slack', 56, 8, 'round_robin'):
        "bd542210b2ce2fbd66841dc8502643cd3238f38d3622180abb605f0673f9ad10",
    ('fft2d_slack', 56, 8, 'random1'):
        "6a71ebdf51f00fc5f8efbfc024e9541600c871354ad41bf71d2056c96d60f33f",
    ('fft2d_slack', 56, 8, 'random2'):
        "240bd77ccc7b6965ec17bb3eed945641ad1a42053c0003446ce5998dc06f9108",
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
