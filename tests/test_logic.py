"""Formula evaluation, product update, action composition, parsing."""

import random

import pytest

from epikit.kernel import (
    FormatError,
    FrameMorphism,
    are_isomorphic,
    identity_morphism,
    new_frame,
)
from epikit.logic import (
    FALSE,
    TRUE,
    ActionModel,
    AfterAction,
    And,
    Atom,
    FormulaParseError,
    Implies,
    Know,
    KripkeModel,
    Not,
    Or,
    compose_actions,
    eval_formula,
    is_model_morphism,
    knowledge_loss_check,
    model_from_json,
    model_to_json,
    parse_formula,
    product_update,
)
from epikit.schedules import (
    enum_block_actions,
    input_model,
    protocol_action_model,
    protocol_model,
    view1,
)

P, Q, R = 0, 1, 2


def tiny_model():
    # two states distinguished by agent 1 only; atom "x" true at state 0
    frame = new_frame(2, 2, [[0, 0], [0, 1]])
    return KripkeModel(frame, ("x",), (frozenset((0,)), frozenset()))


# ---------------------------------------------------------------------------
# satisfaction

def test_boolean_connectives():
    m = tiny_model()
    assert eval_formula(m, 0, TRUE)
    assert not eval_formula(m, 0, FALSE)
    assert eval_formula(m, 0, Atom("x"))
    assert not eval_formula(m, 1, Atom("x"))
    assert eval_formula(m, 1, Not(Atom("x")))
    assert eval_formula(m, 0, And(Atom("x"), TRUE))
    assert eval_formula(m, 1, Or(Atom("x"), Not(Atom("x"))))
    assert eval_formula(m, 1, Implies(Atom("x"), FALSE))


def test_knowledge_respects_classes():
    m = tiny_model()
    # agent 0 confuses the states, agent 1 separates them
    assert not eval_formula(m, 0, Know(0, Atom("x")))
    assert eval_formula(m, 0, Know(1, Atom("x")))
    assert eval_formula(m, 1, Know(1, Not(Atom("x"))))


def test_unknown_atom_raises():
    with pytest.raises(ValueError):
        eval_formula(tiny_model(), 0, Atom("zebra"))


def test_out_of_range_agent_raises():
    with pytest.raises(ValueError):
        eval_formula(tiny_model(), 0, Know(7, TRUE))


def test_input_model_schedule_blindness():
    model = input_model(2, 1)
    for k in range(13):
        assert not eval_formula(model, k, Know(P, Atom(model.ap[k])))


def test_protocol_model_class_disjunction():
    # at the sequential schedule, p knows its view class: the disjunction
    # of the schedules in which p runs alone first
    model = protocol_model(2, 1)
    acts = enum_block_actions(2)
    state = next(i for i, a in enumerate(acts) if a.text() == "0|1|2")
    alone = [
        Atom("sched_" + a.text()) for a in acts if view1(P, a) == frozenset((P,))
    ]
    disjunction = alone[0]
    for extra in alone[1:]:
        disjunction = Or(disjunction, extra)
    assert eval_formula(model, state, Know(P, disjunction))
    # but p cannot pin down the schedule itself
    assert not eval_formula(model, state, Know(P, Atom("sched_0|1|2")))


# ---------------------------------------------------------------------------
# product update

def test_update_with_false_preconditions_is_empty():
    m = tiny_model()
    action = ActionModel(new_frame(1, 2, [[0], [0]]), (FALSE,))
    updated, pairing = product_update(m, action)
    assert updated.frame.state_count == 0
    assert pairing == {}


def test_public_noop_announcement_preserves_model():
    m = tiny_model()
    action = ActionModel(new_frame(1, 2, [[0], [0]]), (TRUE,))
    updated, pairing = product_update(m, action)
    assert are_isomorphic(updated.frame, m.frame)
    assert updated.valuation == m.valuation
    assert pairing == {(0, 0): 0, (1, 0): 1}


def test_update_keeps_source_valuation():
    model = input_model(2, 1)
    action = protocol_action_model(2, 1)
    updated, pairing = product_update(model, action)
    for (s, t), idx in pairing.items():
        assert updated.valuation[idx] == model.valuation[s]


def test_update_collapse_to_action_frame():
    # identity preconditions acting on mutually blind input states leave
    # one state per schedule with the action model's relation
    model = input_model(2, 1)
    action = protocol_action_model(2, 1)
    updated, pairing = product_update(model, action)
    assert updated.frame.state_count == 13
    assert are_isomorphic(updated.frame, action.frame)
    assert set(pairing) == {(k, k) for k in range(13)}


def test_update_frame_is_restricted_product():
    # pairwise relation check against both components
    model = tiny_model()
    action_frame = new_frame(2, 2, [[0, 1], [0, 0]])
    action = ActionModel(action_frame, (TRUE, Atom("x")))
    updated, pairing = product_update(model, action)
    # (s,t) pairs: (0,0) (0,1) (1,0); (1,1) fails the precondition
    assert set(pairing) == {(0, 0), (0, 1), (1, 0)}
    for (s1, t1), u in pairing.items():
        for (s2, t2), v in pairing.items():
            for a in range(2):
                expected = model.frame.related(a, s1, s2) and action_frame.related(
                    a, t1, t2
                )
                assert updated.frame.related(a, u, v) == expected


def reference_update(model, action):
    """The product update by definition: every (state, point) pair, in
    state-major order, kept when the point's precondition holds there."""
    pairs = [
        (s, t)
        for s in range(model.frame.state_count)
        for t, pre in enumerate(action.preconditions)
        if (s in pre if isinstance(pre, frozenset) else eval_formula(model, s, pre))
    ]
    partitions = [
        [(model.frame.partitions[a][s], action.frame.partitions[a][t]) for s, t in pairs]
        for a in range(model.frame.agent_count)
    ]
    frame = new_frame(len(pairs), model.frame.agent_count, partitions)
    valuation = tuple(model.valuation[s] for s, _ in pairs)
    return KripkeModel(frame, model.ap, valuation), {st: i for i, st in enumerate(pairs)}


def random_formula(rng, agents, height):
    if height == 0 or rng.random() < 0.3:
        return rng.choice([TRUE, FALSE, Atom("x"), Atom("y")])
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_formula(rng, agents, height - 1))
    if kind == 1:
        return And(random_formula(rng, agents, height - 1),
                   random_formula(rng, agents, height - 1))
    return Know(rng.randrange(agents), random_formula(rng, agents, height - 1))


def random_precondition(rng, n_states, agents, nothing_holds):
    if nothing_holds:
        return rng.choice([frozenset(), FALSE, frozenset({-1, n_states})])
    kind = rng.randrange(4)
    if kind == 0:
        return frozenset()
    if kind == 1:
        # members on both sides of the state range, duplicates collapsing
        return frozenset(rng.randint(-2, n_states + 2) for _ in range(rng.randint(1, 8)))
    if kind == 2:
        return TRUE
    return random_formula(rng, agents, 3)


@pytest.mark.parametrize("seed", range(60))
def test_update_matches_pairwise_reference(seed):
    rng = random.Random(f"update-{seed}")
    agents = rng.randint(1, 3)
    n_states = rng.randint(0, 7)
    n_points = rng.randint(1, 6)
    model = KripkeModel(
        new_frame(n_states, agents,
                  [[rng.randrange(3) for _ in range(n_states)] for _ in range(agents)]),
        ("x", "y"),
        tuple(frozenset(i for i in (0, 1) if rng.random() < 0.5) for _ in range(n_states)),
    )
    nothing_holds = seed % 6 == 0
    action = ActionModel(
        new_frame(n_points, agents,
                  [[rng.randrange(3) for _ in range(n_points)] for _ in range(agents)]),
        tuple(random_precondition(rng, n_states, agents, nothing_holds)
              for _ in range(n_points)),
    )
    updated, pairing = product_update(model, action)
    expected, expected_pairing = reference_update(model, action)
    assert updated == expected
    assert list(pairing.items()) == list(expected_pairing.items())
    if nothing_holds:
        assert updated.frame.state_count == 0


def test_after_action_operator():
    model = input_model(2, 1)
    action = protocol_action_model(2, 1)
    acts = enum_block_actions(2)
    k = next(i for i, a in enumerate(acts) if a.text() == "0|1|2")
    # after running schedule k, p knows the disjunction of its view class
    alone = [
        Atom(sched_atom_text)
        for sched_atom_text, a in zip(model.ap, acts)
        if view1(P, a) == frozenset((P,))
    ]
    body = alone[0]
    for extra in alone[1:]:
        body = Or(body, extra)
    assert eval_formula(model, k, AfterAction(action, k, Know(P, body)))
    # vacuously true where the precondition fails
    other = (k + 1) % 13
    assert eval_formula(model, other, AfterAction(action, k, FALSE))
    with pytest.raises(ValueError):
        eval_formula(model, k, AfterAction(action, 99, TRUE))


def test_after_action_with_formula_preconditions():
    # agent 0 privately learns whether x holds: point 0 needs x, point 1
    # needs !x, and only agent 0 tells the points apart
    m = tiny_model()
    action = ActionModel(new_frame(2, 2, [[0, 1], [0, 0]]), (Atom("x"), Not(Atom("x"))))
    # worked out by hand: (0, 0) and (1, 1) survive; agent 0 now separates
    # them by the point, agent 1 by the state as before
    updated, pairing = product_update(m, action)
    assert pairing == {(0, 0): 0, (1, 1): 1}
    by_hand = KripkeModel(new_frame(2, 2, [[0, 1], [0, 1]]), ("x",), m.valuation)
    assert updated == by_hand
    assert not eval_formula(m, 0, Know(P, Atom("x")))
    assert eval_formula(by_hand, 0, Know(P, Atom("x")))
    assert eval_formula(m, 0, AfterAction(action, 0, Know(P, Atom("x"))))
    assert eval_formula(m, 1, AfterAction(action, 1, Know(P, Not(Atom("x")))))
    # vacuously true where the precondition fails
    assert eval_formula(m, 1, AfterAction(action, 0, FALSE))
    assert not eval_formula(m, 0, AfterAction(action, 0, FALSE))


# ---------------------------------------------------------------------------
# composition

def trivial_public_action():
    return ActionModel(new_frame(1, 3, [[0], [0], [0]]), (TRUE,))


def test_compose_with_trivial_action_is_identity():
    step = protocol_action_model(2, 1)
    composed = compose_actions(step, trivial_public_action())
    assert composed.point_count == step.point_count
    assert are_isomorphic(composed.frame, step.frame)
    assert composed.preconditions == step.preconditions


def test_compose_one_round_steps_pair_count():
    step = protocol_action_model(2, 1)
    composed = compose_actions(step, step)
    assert composed.point_count == 169


def test_compose_matches_two_round_model_exactly():
    step = protocol_action_model(2, 1)
    composed = compose_actions(step, step)
    two = protocol_action_model(2, 2)
    assert composed.frame == two.frame
    assert are_isomorphic(composed.frame, two.frame)


def test_compose_twice_matches_three_rounds_two_processes():
    step = protocol_action_model(1, 1)
    composed = compose_actions(compose_actions(step, step), step)
    three = protocol_action_model(1, 3)
    assert composed.frame == three.frame


def test_compose_rejects_formula_preconditions_on_second():
    step = protocol_action_model(2, 1)
    bad = ActionModel(new_frame(1, 3, [[0], [0], [0]]), (Atom("x"),))
    with pytest.raises(ValueError):
        compose_actions(step, bad)


# ---------------------------------------------------------------------------
# morphisms and knowledge loss

def test_identity_never_loses_knowledge():
    model = protocol_model(2, 1)
    ident = identity_morphism(model.frame)
    for name in model.ap[:4]:
        for agent in range(3):
            assert knowledge_loss_check(ident, model, model, Atom(name), agent)


def test_projection_to_input_loses_knowledge_only():
    # collapsing the protocol model onto the input model forgets, never
    # invents, knowledge
    proto = protocol_model(2, 1)
    base = input_model(2, 1)
    proj = FrameMorphism(tuple(range(13)))
    assert is_model_morphism(proj, proto, base)
    # valuations are preserved exactly, not merely shrunk
    for s in range(13):
        assert {proto.ap[i] for i in proto.valuation[s]} == {
            base.ap[i] for i in base.valuation[proj(s)]
        }
    for name in base.ap:
        for agent in range(3):
            assert knowledge_loss_check(proj, proto, base, Atom(name), agent)


def test_coarsening_identity_is_model_morphism():
    full = protocol_model(2, 1)
    coarse = input_model(2, 1)
    ident = FrameMorphism(tuple(range(13)))
    assert is_model_morphism(ident, full, coarse)
    for name in full.ap:
        for agent in range(3):
            assert knowledge_loss_check(ident, full, coarse, Atom(name), agent)


def test_image_that_knows_more_is_knowledge_loss():
    # one agent confusing a state with x and one without: it does not know
    # !x; the image drops x, a legal model morphism, and knows !x there
    src = KripkeModel(new_frame(2, 1, [[0, 0]]), ("x",), (frozenset((0,)), frozenset()))
    dst = KripkeModel(new_frame(1, 1, [[0]]), ("x",), (frozenset(),))
    collapse = FrameMorphism((0, 0))
    assert is_model_morphism(collapse, src, dst)
    assert eval_formula(dst, 0, Know(P, Not(Atom("x"))))
    assert not eval_formula(src, 1, Know(P, Not(Atom("x"))))
    assert not knowledge_loss_check(collapse, src, dst, Not(Atom("x")), P)
    assert knowledge_loss_check(collapse, src, dst, Atom("x"), P)


def test_valuation_growth_rejected():
    frame = new_frame(1, 1, [[0]])
    rich = KripkeModel(frame, ("x",), (frozenset((0,)),))
    poor = KripkeModel(frame, ("x",), (frozenset(),))
    ident = FrameMorphism((0,))
    assert is_model_morphism(ident, rich, poor)
    assert not is_model_morphism(ident, poor, rich)


def test_model_morphism_between_different_agent_counts_is_refused():
    one = KripkeModel(new_frame(2, 1, [[0, 1]]), ("x",), (frozenset(), frozenset()))
    two = KripkeModel(new_frame(1, 2, [[0], [0]]), ("x",), (frozenset(),))
    for src, dst, f in ((one, two, (0, 0)), (two, one, (0,))):
        with pytest.raises(ValueError, match="^morphism requires equal agent counts$"):
            is_model_morphism(FrameMorphism(f), src, dst)


# ---------------------------------------------------------------------------
# S5 validities

def s5_instances(phi, agents):
    for a in agents:
        yield Implies(Know(a, phi), phi)
        yield Implies(Know(a, phi), Know(a, Know(a, phi)))
        yield Implies(Not(Know(a, phi)), Know(a, Not(Know(a, phi))))


def test_s5_validities_small_models():
    models = [tiny_model(), input_model(1, 1), protocol_model(2, 1)]
    for model in models:
        agents = range(model.frame.agent_count)
        seeds = [Atom(model.ap[0]), Not(Atom(model.ap[0])), TRUE]
        if len(model.ap) > 1:
            seeds.append(And(Atom(model.ap[0]), Atom(model.ap[1])))
        for phi in seeds:
            for inst in s5_instances(phi, agents):
                for s in model.frame.states():
                    assert eval_formula(model, s, inst)


# ---------------------------------------------------------------------------
# parsing

def test_parse_simple_forms():
    assert parse_formula("p") == Atom("p")
    assert parse_formula("!p") == Not(Atom("p"))
    assert parse_formula("(p & q)") == And(Atom("p"), Atom("q"))
    assert parse_formula("(p | q)") == Or(Atom("p"), Atom("q"))
    assert parse_formula("(p -> q)") == Implies(Atom("p"), Atom("q"))
    assert parse_formula("K[2] p") == Know(2, Atom("p"))
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_parse_schedule_atoms_with_embedded_bars():
    f = parse_formula("sched_0|1|2 | sched_0|1,2")
    assert f == Or(Atom("sched_0|1|2"), Atom("sched_0|1,2"))


def test_parse_precedence_and_nesting():
    f = parse_formula("K[0] (p & !q | r)")
    assert f == Know(0, Or(And(Atom("p"), Not(Atom("q"))), Atom("r")))
    g = parse_formula("p -> q -> r")  # right associative
    assert g == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaParseError) as err:
        parse_formula("(p &")
    assert "position" in str(err.value)
    with pytest.raises(FormulaParseError):
        parse_formula("p q")
    with pytest.raises(FormulaParseError):
        parse_formula("K[x] p")
    with pytest.raises(FormulaParseError):
        parse_formula("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p $ q", "unexpected character '$' (at position 2)"),
        ("K[0 p", "expected ']', found 'p' (at position 4)"),
        ("K[", "unexpected end of input (at position 2)"),
        ("& p", "unexpected token '&' (at position 0)"),
    ],
)
def test_parse_errors_name_what_was_found(text, message):
    with pytest.raises(FormulaParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_parse_depth_bound():
    # no depth is refused; truth values, not formulas, are compared, since
    # record equality recurses once per level
    model = tiny_model()
    for text, truth in [
        (" | ".join(["x"] * 2000), True),
        (" -> ".join(["x"] * 2000), True),
        ("!" * 2000 + "x", True),
        ("!" * 2001 + "x", False),
        ("K[1] " * 2000 + "x", True),
        ("K[0] " * 2000 + "x", False),
        ("(" * 2000 + "x" + ")" * 2000, True),
    ]:
        assert eval_formula(model, 0, parse_formula(text)) is truth


# ---------------------------------------------------------------------------
# serialization

def test_model_json_roundtrip():
    model = protocol_model(2, 1)
    again = model_from_json(model_to_json(model))
    assert again == model


# a well-formed two-state, one-agent model and ways to break it
GOOD_MODEL = {
    "states": 2, "agents": 1, "partitions": [[0, 0]],
    "ap": ["a"], "valuation": [[0], []],
}


def _model_with(**changes):
    data = dict(GOOD_MODEL)
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return data


MALFORMED_MODELS = {
    "not an object": [],
    "frame keys only partly there": {"n": 1, "states": 3},
    "missing partitions": _model_with(partitions=None),
    "missing valuation": _model_with(valuation=None),
    "states not an int": _model_with(states="2"),
    "negative states": _model_with(states=-1),
    "agents not an int": _model_with(agents=1.0),
    "no agents": _model_with(agents=0, partitions=[]),
    "partitions not a list": _model_with(partitions={"0": [0, 0]}),
    "too few partition rows": _model_with(agents=2),
    "short partition row": _model_with(partitions=[[0]]),
    "label not an int": _model_with(partitions=[[0, [1]]]),
    "ap not a list": _model_with(ap="a"),
    "atom name not a string": _model_with(ap=["a", 1]),
    "short valuation": _model_with(valuation=[[0]]),
    "valuation row not a list": _model_with(valuation=[0, []]),
    "atom index out of range": _model_with(valuation=[[0], [1]]),
    "atom index not an int": _model_with(valuation=[["0"], []]),
    "atom named twice": _model_with(ap=["a", "a"], valuation=[[0], [1]]),
}


def test_good_model_loads():
    model = model_from_json(GOOD_MODEL)
    assert model.valuation == (frozenset((0,)), frozenset())


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_model_from_json_rejects_malformed_data(case):
    with pytest.raises(FormatError):
        model_from_json(MALFORMED_MODELS[case])


def test_model_from_json_names_an_atom_named_twice():
    with pytest.raises(FormatError, match="^atom 'a' is named twice$"):
        model_from_json(MALFORMED_MODELS["atom named twice"])


# each builds a record from parts that do not fit together
INCONSISTENT_PARTS = {
    "valuation misses a state": (
        lambda: KripkeModel(new_frame(2, 1, [[0, 0]]), ("x",), (frozenset(),)),
        "^valuation must cover every state$",
    ),
    "atom index out of range": (
        lambda: KripkeModel(new_frame(1, 1, [[0]]), ("x",), (frozenset((1,)),)),
        "^state 0: atom index 1 out of range$",
    ),
    "atom named twice": (
        lambda: KripkeModel(
            new_frame(2, 1, [[0, 1]]), ("b", "a", "c", "a"), (frozenset((1,)), frozenset((3,)))
        ),
        "^atom 'a' is named twice$",
    ),
    "precondition count": (
        lambda: ActionModel(new_frame(2, 1, [[0, 1]]), (TRUE,)),
        "^need one precondition per action point$",
    ),
    "composed agent counts": (
        lambda: compose_actions(protocol_action_model(1, 1), protocol_action_model(2, 1)),
        "^compose_actions requires equal agent counts$",
    ),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_PARTS))
def test_constructors_refuse_inconsistent_parts(case):
    build, message = INCONSISTENT_PARTS[case]
    with pytest.raises(ValueError, match=message):
        build()
