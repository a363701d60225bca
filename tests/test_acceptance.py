"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
Every criterion is exact (no tolerances) and carries a wall-clock budget,
asserted with time.monotonic.
"""

import time
from itertools import permutations, product as iproduct

import pytest

from epikit.kernel import (
    FrameMorphism,
    identity_morphism,
    new_frame,
)
from epikit.logic import (
    TRUE,
    And,
    Atom,
    Implies,
    Know,
    Not,
    compose_actions,
    eval_formula,
    is_model_morphism,
    knowledge_loss_check,
    product_update,
)
from epikit.schedules import (
    block_action,
    enum_block_actions,
    enum_schedules,
    indist_1,
    input_model,
    protocol_action_model,
    protocol_model,
    schedule,
)
from epikit.simengine import run
from epikit.solver import solve, verify_certificate
from epikit.tasks import builtin, output_model
from epikit.topology import (
    frame_to_complex,
    morphism_to_simplicial,
    roundtrip_check,
    validate_simplicial_map,
)
from test_schedules import finals_of

P, Q, R = 0, 1, 2


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {criterion}: {detail} [{elapsed:.2f}s < {budget}s]")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


# shared expensive builds
@pytest.fixture(scope="module")
def one_step():
    return protocol_action_model(2, 1)


@pytest.fixture(scope="module")
def two_step():
    return protocol_action_model(2, 2)


def brute_force_ordered_partitions(n):
    """Independent enumerator: permutations with cut points, deduplicated."""
    ids = list(range(n + 1))
    found = set()
    for perm in permutations(ids):
        for cuts in range(1 << max(0, n)):
            classes, current = [], [perm[0]]
            for pos in range(1, n + 1):
                if cuts >> (pos - 1) & 1:
                    classes.append(tuple(sorted(current)))
                    current = []
                current.append(perm[pos])
            classes.append(tuple(sorted(current)))
            found.add(tuple(classes))
    return found


def test_criterion_1_schedule_counts():
    start = time.monotonic()
    expected = {0: 1, 1: 3, 2: 13, 3: 75}
    ok = True
    for n, count in expected.items():
        oracle = brute_force_ordered_partitions(n)
        generated = enum_block_actions(n)
        ok &= len(oracle) == count
        ok &= len(generated) == count
        ok &= {a.classes for a in generated} == oracle
    ok &= len(enum_schedules(2, 2)) == 169
    report(1, ok, "|IIS_1| = 1,3,13,75 and |IIS_2|(3 procs) = 169",
           time.monotonic() - start, 1.0)


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    checks = 0
    for n in (0, 1, 2):
        for rounds in (1, 2):
            action = protocol_action_model(n, rounds)
            scheds = enum_schedules(n, rounds)
            finals = [run(s).finals for s in scheds]
            for agent in range(n + 1):
                for a in range(len(scheds)):
                    fa = finals[a][agent]
                    for b in range(len(scheds)):
                        checks += 1
                        simulated = fa == finals[b][agent]
                        modeled = action.frame.related(agent, a, b)
                        if simulated != modeled:
                            mismatches += 1
    report(2, mismatches == 0,
           f"simulator matches action-model relation on {checks} checks",
           time.monotonic() - start, 10.0)


def test_criterion_3_iterated_composition(one_step, two_step):
    start = time.monotonic()
    composed = compose_actions(one_step, one_step)
    ok = composed.frame == two_step.frame
    report(3, ok, "1-step composed with itself equals the 2-round model",
           time.monotonic() - start, 30.0)


def test_criterion_4_product_update_collapse(one_step):
    start = time.monotonic()
    updated, pairing = product_update(input_model(2, 1), one_step)
    ok = updated.frame.state_count == 13
    ok &= set(pairing) == {(k, k) for k in range(13)}
    ok &= updated.frame == one_step.frame
    report(4, ok, "input x schedule action collapses onto the action frame",
           time.monotonic() - start, 1.0)


def test_criterion_5_duality_roundtrip(two_step):
    start = time.monotonic()
    frames = {
        "initial frame": new_frame(1, 3, [[0], [0], [0]]),
        "1-round protocol frame": protocol_model(2, 1).frame,
        "2-round protocol frame": two_step.frame,
        "two_testset output frame": builtin("two_testset", 2).output.frame,
        "snapshot output frame": builtin("snapshot", 2).output.frame,
    }
    ok = all(roundtrip_check(f) for f in frames.values())
    report(5, ok, f"complex round trip holds for {', '.join(frames)}",
           time.monotonic() - start, 10.0)


def test_criterion_6_two_testset_impossibility():
    start = time.monotonic()
    one = solve(builtin("two_testset", 2))
    two = solve(builtin("two_testset", 2, rounds=2))
    ok = not one.solvable and not two.solvable
    report(6, ok, "two_testset unsolvable at one and two rounds (exhaustive)",
           time.monotonic() - start, 60.0)


def test_criterion_7_testset_two_processes():
    start = time.monotonic()
    task1 = builtin("testset", 1)
    # independent exhaustive check over all 16 decision maps
    acts = enum_block_actions(1)
    classes = [[0 if acts[k].view(a) == frozenset((a,)) else 1 for k in range(3)]
               for a in range(2)]
    found = False
    tried = 0
    for combo in iproduct((0, 1), repeat=4):
        tried += 1
        maps = [combo[:2], combo[2:]]
        if all(
            task1.allows(k, (maps[0][classes[0][k]], maps[1][classes[1][k]]))
            for k in range(3)
        ):
            found = True
    ok = tried == 16 and not found
    ok &= not solve(task1).solvable
    ok &= not solve(builtin("testset", 1, rounds=2)).solvable
    report(7, ok, "testset with 2 processes unsolvable at N=1 (16 maps) and N=2",
           time.monotonic() - start, 1.0)


def test_criterion_8_snapshot_positive_control():
    start = time.monotonic()
    task = builtin("snapshot", 2)
    verdict = solve(task)
    ok = verdict.solvable
    ok &= verify_certificate(task, verdict.decision)
    # explicit simplicial translation of the projected certificate
    proto = protocol_model(2, 1).frame
    tuple_index = {t: i for i, t in enumerate(task.output.tuples)}
    action = protocol_action_model(2, 1)
    projected = FrameMorphism(
        tuple(
            tuple_index[
                tuple(
                    verdict.decision.value(a, action.frame.partitions[a][k])
                    for a in range(3)
                )
            ]
            for k in range(13)
        )
    )
    smap = morphism_to_simplicial(projected, proto, task.output.frame)
    src_complex = frame_to_complex(proto)
    dst_complex = frame_to_complex(task.output.frame)
    ok &= validate_simplicial_map(smap, src_complex, dst_complex)
    report(8, ok, "snapshot solvable; certificate verified and exported simplicially",
           time.monotonic() - start, 1.0)


def test_criterion_9_knowledge_loss():
    start = time.monotonic()
    violations = 0
    cases = []

    proto = protocol_model(2, 1)
    base = input_model(2, 1)
    cases.append((identity_morphism(proto.frame), proto, proto))
    # the identity on points onto the input model, the coarsest protocol
    cases.append((FrameMorphism(tuple(range(13))), proto, base))

    task = builtin("snapshot", 2)
    verdict = solve(task)
    out_model, pairing = output_model(task)
    action = protocol_action_model(2, 1)
    tuple_index = {t: i for i, t in enumerate(task.output.tuples)}
    cert_map = tuple(
        pairing[
            (
                k,
                tuple_index[
                    tuple(
                        verdict.decision.value(a, action.frame.partitions[a][k])
                        for a in range(3)
                    )
                ],
            )
        ]
        for k in range(13)
    )
    cases.append((FrameMorphism(cert_map), proto, out_model))

    for f, src, dst in cases:
        assert is_model_morphism(f, src, dst)
        for name in dst.ap:
            if name not in src.atom_index:
                continue
            for agent in range(src.frame.agent_count):
                if not knowledge_loss_check(f, src, dst, Atom(name), agent):
                    violations += 1
    report(9, violations == 0,
           f"knowledge loss holds for {len(cases)} morphisms, all atoms and agents",
           time.monotonic() - start, 30.0)


def s5_instances(phi, agent):
    yield Implies(Know(agent, phi), phi)
    yield Implies(Know(agent, phi), Know(agent, Know(agent, phi)))
    yield Implies(Not(Know(agent, phi)), Know(agent, Not(Know(agent, phi))))


def formula_suite(model):
    """Seed formulas of modal depth <= 2 over the model's atom universe."""
    atoms = [Atom(model.ap[0])]
    if len(model.ap) > 2:
        atoms.append(Atom(model.ap[len(model.ap) // 2]))
    atoms.append(Atom(model.ap[-1]))
    depth0 = atoms + [TRUE]
    depth1 = [Not(a) for a in atoms]
    depth1 += [And(atoms[0], a) for a in atoms[1:]]
    depth1 += [Know(ag, atoms[0]) for ag in range(model.frame.agent_count)]
    depth2 = [Not(f) for f in depth1[:3]] + [
        Know(0, f) for f in depth1[: model.frame.agent_count]
    ]
    return depth0 + depth1 + depth2


def test_criterion_10_s5_validities(two_step):
    start = time.monotonic()
    models = [
        input_model(2, 1),
        protocol_model(2, 1),
        product_update(input_model(2, 2), two_step)[0],
        output_model(builtin("two_testset", 2))[0],
        output_model(builtin("snapshot", 2))[0],
    ]
    violations = 0
    for model in models:
        for phi in formula_suite(model):
            for agent in range(model.frame.agent_count):
                for inst in s5_instances(phi, agent):
                    for state in model.frame.states():
                        if not eval_formula(model, state, inst):
                            violations += 1
    report(10, violations == 0,
           "reflexivity and both introspections hold at every state",
           time.monotonic() - start, 30.0)


def test_criterion_11_worked_view_facts():
    start = time.monotonic()
    a = block_action([P], [Q, R])
    b = block_action([P], [Q], [R])
    ok = indist_1(P, a, b) and indist_1(R, a, b) and not indist_1(Q, a, b)

    u = schedule(a, block_action([P, Q, R]))
    v = schedule(a, block_action([P, R], [Q]))
    ok &= finals_of(u)[Q] == finals_of(v)[Q]
    ok &= finals_of(u)[P] != finals_of(v)[P]
    ok &= finals_of(u)[R] != finals_of(v)[R]
    report(11, ok, "one- and two-round indistinguishability facts reproduced",
           time.monotonic() - start, 1.0)
