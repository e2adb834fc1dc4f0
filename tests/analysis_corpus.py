"""Seeded-defect corpus for the SAGE Verifier.

One deliberately broken artifact per analysis rule, each annotated with the
rule id it must trigger and where.  The test modules sweep this corpus and
assert every seed is caught — and that the clean FFT2D / corner-turn apps
trigger nothing (zero false positives).
"""

from repro.analysis.comm import CommOp, CommSchedule
from repro.analysis.recon import (
    plan_grow_transition,
    plan_migration_transition,
    plan_shrink_transition,
)
from repro.apps.models import fft2d_model
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    Mapping,
    REPLICATED,
    round_robin_mapping,
    striped,
)
from repro.service.jobs import JobSpec
from repro.service.scheduler import TenantQuota

# ---------------------------------------------------------------------------
# Alter lint seeds: (seed name, script source, expected rule, where fragment)
# ---------------------------------------------------------------------------

LINT_SEEDS = [
    (
        "unclosed-paren",
        "(define x (car",
        "ALT000",
        ":1:",
    ),
    (
        "unbound-symbol",
        "(emit-line (lenght (function-instances model)))",
        "ALT001",
        ":1:13",
    ),
    (
        "builtin-arity",
        "(emit-line (cons 1))",
        "ALT002",
        ":1:13",
    ),
    (
        "user-arity",
        "(define (pair a b) (cons a b))\n(emit-line (pair 1 2 3))",
        "ALT002",
        ":2:13",
    ),
    (
        "unused-define",
        "(define never-used 42)\n(emit-line 1)",
        "ALT003",
        ":1:1",
    ),
    (
        "shadowed-builtin",
        "(define (f length) length)\n(emit-line (f 3))",
        "ALT004",
        ":1:",
    ),
    (
        "shadowed-outer",
        "(let ((x 1)) (let ((x 2)) (emit-line x)))",
        "ALT004",
        ":1:20",
    ),
    (
        "unreachable-if",
        '(if #f (emit-line "dead") (emit-line "live"))',
        "ALT005",
        ":1:8",
    ),
    (
        "unreachable-cond",
        '(cond (#t (emit-line "always")) ((car (list 1)) (emit-line "never")))',
        "ALT005",
        ":1:33",
    ),
    (
        "malformed-define",
        "(define)",
        "ALT006",
        ":1:1",
    ),
    (
        "malformed-set",
        "(set! 3 4)",
        "ALT006",
        ":1:1",
    ),
    (
        "constant-call",
        "(emit-line (true))",
        "ALT002",
        ":1:13",
    ),
]

#: Scripts that must lint perfectly clean (no errors, no warnings).
LINT_CLEAN = [
    (
        "clean-traversal",
        "\n".join(
            [
                "(define (describe inst)",
                "  (string-append (instance-path inst) \"/\"",
                "                 (number->string (instance-threads inst))))",
                "(for-each (lambda (inst) (emit-line (describe inst)))",
                "          (function-instances model))",
            ]
        ),
    ),
    (
        "clean-let-loop",
        "(let loop ((i 0)) (when (< i nprocs) (emit-line i) (loop (+ i 1))))",
    ),
]


# ---------------------------------------------------------------------------
# Communication-schedule seeds
# ---------------------------------------------------------------------------


def ring_deadlock_schedule() -> CommSchedule:
    """Every rank receives from its left neighbour before sending right —
    the classic head-to-head exchange deadlock (ISSUE acceptance case)."""
    nprocs = 3
    ops = {}
    for r in range(nprocs):
        left = (r - 1) % nprocs
        right = (r + 1) % nprocs
        ops[r] = [
            CommOp("recv", peer=left, tag=0, where=f"ring arc {left}->{r}"),
            CommOp("send", peer=right, tag=0, where=f"ring arc {r}->{right}"),
        ]
    return CommSchedule(nprocs=nprocs, ops=ops, model_name="ring")


def unmatched_recv_schedule() -> CommSchedule:
    return CommSchedule(
        nprocs=2,
        ops={0: [CommOp("recv", peer=1, tag=5, where="phantom arc")], 1: []},
        model_name="unmatched",
    )


def participant_mismatch_schedule() -> CommSchedule:
    return CommSchedule(
        nprocs=3,
        ops={
            0: [CommOp("coll", tag=7, participants=(0, 1), where="corner turn")],
            1: [CommOp("coll", tag=7, participants=(0, 1, 2), where="corner turn")],
            2: [],
        },
        model_name="mismatch",
    )


def missing_participant_schedule() -> CommSchedule:
    return CommSchedule(
        nprocs=3,
        ops={
            0: [CommOp("coll", tag=2, participants=(0, 1, 2), where="corner turn")],
            1: [CommOp("coll", tag=2, participants=(0, 1, 2), where="corner turn")],
            2: [],
        },
        model_name="missing",
    )


def leaked_send_schedule() -> CommSchedule:
    return CommSchedule(
        nprocs=2,
        ops={0: [CommOp("send", peer=1, tag=3, where="dangling arc")], 1: []},
        model_name="leak",
    )


def tag_mismatch_schedule() -> CommSchedule:
    return CommSchedule(
        nprocs=2,
        ops={
            0: [CommOp("send", peer=1, tag=3, where="mistagged arc")],
            1: [CommOp("recv", peer=0, tag=9, where="mistagged arc")],
        },
        model_name="tags",
    )


COMM_SEEDS = [
    ("ring-deadlock", ring_deadlock_schedule, "COMM001"),
    ("unmatched-recv", unmatched_recv_schedule, "COMM002"),
    ("participant-mismatch", participant_mismatch_schedule, "COMM003"),
    ("missing-participant", missing_participant_schedule, "COMM003"),
    ("leaked-send", leaked_send_schedule, "COMM004"),
    ("tag-mismatch", tag_mismatch_schedule, "COMM005"),
]


def cyclic_exchange_model():
    """A two-function model whose dataflow is a cycle: each side receives
    before it sends, so the derived schedule deadlocks head-to-head."""
    t = DataType("m", "float32", (8, 8))
    app = ApplicationModel("cyclic_exchange")
    a = app.add_block(FunctionBlock("a", kernel="relax"))
    a.add_in("in", t, REPLICATED)
    a.add_out("out", t, REPLICATED)
    b = app.add_block(FunctionBlock("b", kernel="relax"))
    b.add_in("in", t, REPLICATED)
    b.add_out("out", t, REPLICATED)
    app.connect(a.port("out"), b.port("in"))
    app.connect(b.port("out"), a.port("in"))
    mapping = Mapping()
    mapping.assign(0, 0, 0)
    mapping.assign(1, 0, 1)
    return app, mapping, 2


# ---------------------------------------------------------------------------
# Buffer-hazard seeds: (seed name, kwargs for make_spec/check, expected rule)
# ---------------------------------------------------------------------------


def make_spec(**overrides) -> dict:
    """A valid 8x8 float32 striped->replicated spec; overrides seed defects."""
    spec = {
        "id": 0,
        "name": "writer.out->reader.in",
        "shape": (8, 8),
        "dtype": "float32",
        "elem_bytes": 4,
        "total_bytes": 8 * 8 * 4,
        "src_function": 0,
        "dst_function": 1,
        "src_port": "out",
        "dst_port": "in",
        "src_striping": {"kind": "striped", "axis": 0, "block": 1},
        "dst_striping": {"kind": "replicated", "axis": 0, "block": 1},
        "src_threads": 4,
        "dst_threads": 2,
    }
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# Reconfiguration-safety seeds: (name, factory, expected rule).  Each factory
# returns (app, transition, nprocs); the transition is tampered the way a
# buggy reconfiguration engine would get it wrong, and must trigger *exactly*
# the annotated rule.
# ---------------------------------------------------------------------------


def _chain_model(c1_proc: int):
    """A 1-thread producer striped into a 2-thread consumer: the smallest
    model where moving one consumer thread flips exactly one message's
    locality."""
    t = DataType("m", "float32", (8, 8))
    app = ApplicationModel("chain")
    p = app.add_block(FunctionBlock("p", kernel="relax"))
    p.add_out("out", t, striped(0))
    c = app.add_block(FunctionBlock("c", kernel="relax", threads=2))
    c.add_in("in", t, striped(0))
    app.connect(p.port("out"), c.port("in"))
    mapping = Mapping()
    mapping.assign(0, 0, 0)
    mapping.assign(1, 0, 0)
    mapping.assign(1, 1, c1_proc)
    return app, mapping


def recon_stranded_thread():
    """The transition's active set omits a processor that still owns a
    thread — its elements would never be computed again."""
    app, mapping = _chain_model(c1_proc=1)
    transition = plan_migration_transition(app, mapping, {(1, 1): 1})
    transition.active = {0}
    return app, transition, 2


def recon_lost_checkpoint():
    """A shrink plan that dropped one of the checkpoint-migration transfers
    the restripe needs: state on the dead node would be lost."""
    app = fft2d_model(64, nodes=4)
    mapping = round_robin_mapping(app, 4)
    transition = plan_shrink_transition(app, mapping, survivors=[0, 1, 2])
    transition.transfers = transition.transfers[1:]
    return app, transition, 4


def recon_double_shipped():
    """A migration plan that ships the same region twice (a retry bug):
    harmless for correctness but doubles the reconfiguration traffic."""
    app, mapping = _chain_model(c1_proc=1)
    transition = plan_migration_transition(app, mapping, {(1, 1): 0})
    transition.transfers = transition.transfers + transition.transfers[:1]
    return app, transition, 2


def recon_deadlocked_after():
    """A (vacuous) migration over the cyclic-exchange model: the
    post-transition schedule deadlocks head-to-head, so the transition
    must not be taken even though the mapping arithmetic is fine."""
    app, mapping, nprocs = cyclic_exchange_model()
    transition = plan_migration_transition(app, mapping, {})
    return app, transition, nprocs


RECON_SEEDS = [
    ("stranded-thread", recon_stranded_thread, "RECON001"),
    ("lost-checkpoint", recon_lost_checkpoint, "RECON004"),
    ("double-shipped", recon_double_shipped, "RECON005"),
    ("deadlocked-after", recon_deadlocked_after, "RECON006"),
]


def recon_clean_shrink():
    app = fft2d_model(64, nodes=4)
    mapping = round_robin_mapping(app, 4)
    return app, plan_shrink_transition(app, mapping, survivors=[0, 1, 2]), 4


def recon_clean_grow():
    app = fft2d_model(64, nodes=4)
    mapping = round_robin_mapping(app, 4)
    shrunk = plan_shrink_transition(app, mapping, survivors=[0, 1, 2])
    return app, plan_grow_transition(app, shrunk.after, mapping, {3: 3}), 4


def recon_clean_migration():
    app, mapping = _chain_model(c1_proc=0)
    return app, plan_migration_transition(app, mapping, {(1, 1): 1}), 2


#: Transitions the planners produce unmolested: zero findings expected.
RECON_CLEAN = [
    ("clean-shrink", recon_clean_shrink),
    ("clean-grow", recon_clean_grow),
    ("clean-migration", recon_clean_migration),
]


# ---------------------------------------------------------------------------
# Cost-predictor seeds: (name, factory, expected rule).  Factories return
# (app, mapping, nprocs, budget); the expected rule must be *present* (cost
# findings are advisory, so co-findings like PERF004 are legitimate).
# ---------------------------------------------------------------------------


def perf_piled_mapping():
    """Every thread piled onto processor 0 of a 4-node lease: textbook
    compute imbalance."""
    app = fft2d_model(64, nodes=4)
    return app, round_robin_mapping(app, 1), 4, None


def perf_hot_link():
    """A 1-thread source fanning a 4 MB replicated buffer out to seven
    remote readers: the source's inject port saturates the iteration."""
    t = DataType("big", "float32", (512, 512))
    app = ApplicationModel("fanout")
    src = app.add_block(FunctionBlock("src", kernel="relax"))
    src.add_out("out", t, REPLICATED)
    dst = app.add_block(FunctionBlock("dst", kernel="relax", threads=8))
    dst.add_in("in", t, REPLICATED)
    app.connect(src.port("out"), dst.port("in"))
    mapping = Mapping()
    mapping.assign(0, 0, 0)
    for thread in range(8):
        mapping.assign(1, thread, thread)
    return app, mapping, 8, None


def perf_blown_budget():
    app = fft2d_model(64, nodes=4)
    return app, round_robin_mapping(app, 4), 4, 1e-6


def perf_idle_lease():
    """A 2-processor mapping analyzed against a 4-node lease: half the
    leased capacity holds no work."""
    app = fft2d_model(64, nodes=2)
    return app, round_robin_mapping(app, 2), 4, None


PERF_SEEDS = [
    ("piled-mapping", perf_piled_mapping, "PERF001"),
    ("hot-link", perf_hot_link, "PERF002"),
    ("blown-budget", perf_blown_budget, "PERF003"),
    ("idle-lease", perf_idle_lease, "PERF004"),
]


# ---------------------------------------------------------------------------
# Admission-lint seeds: (name, spec, lint kwargs, expected rule).  Specs are
# linted directly (no service needed); each must trigger exactly its rule.
# ---------------------------------------------------------------------------

JOB_SEEDS = [
    (
        "cluster-overflow",
        JobSpec(app="fft2d", size=16, nodes=16),
        {"cluster_nodes": 8},
        "JOB001",
    ),
    (
        "dram-overflow",
        JobSpec(app="fft2d", size=4096, nodes=2),
        {"cluster_nodes": 8},
        "JOB002",
    ),
    (
        "quota-infeasible",
        JobSpec(app="fft2d", size=16, nodes=4, tenant="burst"),
        {"cluster_nodes": 8,
         "quota": TenantQuota(max_nodes=2, max_running=2, max_queued=4)},
        "JOB003",
    ),
    (
        "unbuildable-design",
        JobSpec(app="fft2d", size=16, nodes=3),
        {"cluster_nodes": 8},
        "JOB004",
    ),
    (
        "doomed-budget",
        JobSpec(app="fft2d", size=64, nodes=4, iterations=6,
                time_budget=1e-4),
        {"cluster_nodes": 8},
        "JOB005",
    ),
]

#: JOB005 is advisory (the soak deliberately submits tight budgets to
#: exercise the kill path), so the service must still *admit* that seed.
JOB_WARNING_RULES = {"JOB005"}


BUFFER_SEEDS = [
    (
        "inconsistent-bytes",
        make_spec(total_bytes=17),
        "BUF201",
    ),
    (
        "axis-out-of-range",
        make_spec(src_striping={"kind": "striped", "axis": 5, "block": 1}),
        "BUF201",
    ),
    (
        "write-write-overlap",
        make_spec(
            src_threads=2,
            src_regions=[[(0, 5), (0, 8)], [(3, 8), (0, 8)]],
        ),
        "BUF202",
    ),
    (
        "uncovered-read",
        make_spec(
            src_threads=2,
            src_regions=[[(0, 3), (0, 8)], [(5, 8), (0, 8)]],
        ),
        "BUF203",
    ),
    (
        "starved-reader",
        make_spec(
            dst_threads=3,
            dst_regions=[[(0, 8), (0, 8)], [(0, 8), (0, 8)], [(0, 0), (0, 8)]],
        ),
        "BUF205",
    ),
]
