"""The loop-based parser and evaluator against the recursive ones they
replaced, and at depths and sizes the recursive ones could not reach."""

import random
import subprocess
import sys
import time

import pytest

from epikit.kernel import new_frame
from epikit.logic import (
    FALSE,
    TRUE,
    ActionModel,
    AfterAction,
    And,
    Atom,
    Formula,
    FormulaParseError,
    Implies,
    Know,
    KripkeModel,
    Not,
    Or,
    Top,
    _tokenize,
    eval_formula,
    parse_formula,
    product_update,
)
from epikit.schedules import protocol_model

# ---------------------------------------------------------------------------
# the recursive parser and evaluator, kept as they were but for their names

MAX_FORMULA_DEPTH = 200


def reference_parse(text: str) -> Formula:
    tokens = _tokenize(text)
    idx = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[idx] if idx < len(tokens) else None

    def take(expect: str | None = None) -> tuple[str, str, int]:
        nonlocal idx
        tok = peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input", len(text))
        if expect is not None and tok[1] != expect:
            raise FormulaParseError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok

    def level(height: int, pos: int) -> int:
        if height > MAX_FORMULA_DEPTH:
            raise FormulaParseError(
                f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", pos
            )
        return height

    def parse_implies(depth: int) -> tuple[Formula, int]:
        left, height = parse_or(depth)
        tok = peek()
        if tok and tok[0] == "ARROW":
            take()
            right, right_height = parse_implies(level(depth + 1, tok[2]))
            return Implies(left, right), level(max(height, right_height) + 1, tok[2])
        return left, height

    def parse_or(depth: int) -> tuple[Formula, int]:
        out, height = parse_and(depth)
        while (tok := peek()) and tok[1] == "|":
            take()
            right, right_height = parse_and(depth)
            out, height = Or(out, right), level(max(height, right_height) + 1, tok[2])
        return out, height

    def parse_and(depth: int) -> tuple[Formula, int]:
        out, height = parse_unary(depth)
        while (tok := peek()) and tok[1] == "&":
            take()
            right, right_height = parse_unary(depth)
            out, height = And(out, right), level(max(height, right_height) + 1, tok[2])
        return out, height

    def parse_unary(depth: int) -> tuple[Formula, int]:
        tok = peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input", len(text))
        kind, value, pos = tok
        if value in ("!", "K", "("):
            level(depth + 1, pos)
        if value == "!":
            take()
            sub, height = parse_unary(depth + 1)
            return Not(sub), level(height + 1, pos)
        if value == "K":
            take()
            take("[")
            agent_tok = take()
            if agent_tok[0] != "INT":
                raise FormulaParseError("expected agent index", agent_tok[2])
            take("]")
            sub, height = parse_unary(depth + 1)
            return Know(int(agent_tok[1]), sub), level(height + 1, pos)
        if value == "(":
            take()
            inner, height = parse_implies(depth + 1)
            take(")")
            return inner, level(height + 1, pos)
        if kind in ("NAME", "SCHED"):
            take()
            if value == "true":
                return TRUE, 1
            if value == "false":
                return FALSE, 1
            return Atom(value), 1
        raise FormulaParseError(f"unexpected token {value!r}", pos)

    result, _ = parse_implies(0)
    tok = peek()
    if tok is not None:
        raise FormulaParseError(f"trailing input {tok[1]!r}", tok[2])
    return result


def _reference_pre_holds(model, state, pre) -> bool:
    if isinstance(pre, frozenset):
        return state in pre
    return reference_eval(model, state, pre)


def reference_eval(model: KripkeModel, state: int, formula: Formula) -> bool:
    if not 0 <= state < model.frame.state_count:
        raise ValueError(f"state {state} out of range")
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Atom):
        return model.satisfies_atom(state, formula.name)
    if isinstance(formula, Not):
        return not reference_eval(model, state, formula.sub)
    if isinstance(formula, And):
        return reference_eval(model, state, formula.left) and reference_eval(
            model, state, formula.right
        )
    if isinstance(formula, Know):
        a = formula.agent
        if not 0 <= a < model.frame.agent_count:
            raise ValueError(f"agent {a} out of range")
        members = model.frame.classes_by_agent[a][model.frame.partitions[a][state]]
        return all(reference_eval(model, t, formula.sub) for t in members)
    if isinstance(formula, AfterAction):
        act = formula.action
        if not 0 <= formula.point < act.point_count:
            raise ValueError(f"action point {formula.point} out of range")
        if not _reference_pre_holds(model, state, act.preconditions[formula.point]):
            return True
        updated, pairing = product_update(model, act)
        return reference_eval(updated, pairing[(state, formula.point)], formula.sub)
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# seeded corpora

# "w" is in no model, so it raises wherever it is evaluated; "K0" is an
# atom, not a knowledge operator
AP = ("x", "y", "z", "K0", "sched_0|1")
ATOMS = [*AP, "w", "true", "false"]
JUNK = ["!", "&", "|", "->", "-", ">", "(", ")", "K", "[", "]", "0", "12",
        "x", "true", "K[1]", "$", "sched_1,0"]


def random_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(ATOMS)
    pick = rng.random()
    space = rng.choice(["", " ", "  "])
    sub = random_text(rng, depth - 1)
    if pick < 0.15:
        return "!" + space + sub
    if pick < 0.3:
        return f"K[{rng.randrange(4)}]" + space + sub
    if pick < 0.45:
        return "(" + space + sub + space + ")"
    op = rng.choice(["&", "|", "->"])
    return sub + " " + op + space + random_text(rng, depth - 1)


def malformed_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(["", " "]).join(
            rng.choice(JUNK) for _ in range(rng.randint(0, 8))
        )
    text = random_text(rng, 4)
    cut = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:cut] + text[cut + 1:]
    return text[:cut] + rng.choice(JUNK) + text[cut:]


def random_model(rng: random.Random, agents: int) -> KripkeModel:
    states = rng.randint(1, 6)
    labels = [[rng.randrange(3) for _ in range(states)] for _ in range(agents)]
    valuation = tuple(
        frozenset(i for i in range(len(AP)) if rng.random() < 0.5)
        for _ in range(states)
    )
    return KripkeModel(new_frame(states, agents, labels), AP, valuation)


def random_formula(rng: random.Random, agents: int, depth: int, shared: list):
    """Formulas the text syntax cannot write: actions, with point-set,
    formula and malformed preconditions, non-formulas, and nodes and
    actions shared between branches (``shared``), so one ``K`` node or
    one action is met in a model and in its product updates."""
    if shared and rng.random() < 0.15:
        return rng.choice(shared)
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([TRUE, FALSE, Atom("x"), Atom("y"), Atom("w")])
    pick = rng.randrange(6)
    sub = random_formula(rng, agents, depth - 1, shared)
    if pick == 0:
        out = Not(sub)
    elif pick == 1:
        out = And(sub, random_formula(rng, agents, depth - 1, shared))
    elif pick == 2:
        out = Or(sub, random_formula(rng, agents, depth - 1, shared))
    elif pick == 3:
        out = Know(rng.randrange(agents + 1), sub)
    elif pick == 4 and rng.random() < 0.05:
        return "not a formula"
    else:
        actions = [f.action for f in shared if isinstance(f, AfterAction)]
        if actions and rng.random() < 0.3:
            action = rng.choice(actions)
        else:
            points = rng.randint(1, 3)
            action_agents = agents + (rng.random() < 0.05)
            labels = [[rng.randrange(2) for _ in range(points)]
                      for _ in range(action_agents)]
            preconditions = tuple(
                frozenset(s for s in range(7) if rng.random() < 0.6)
                if rng.random() < 0.6
                else random_formula(rng, agents, depth // 2, shared)
                for _ in range(points)
            )
            action = ActionModel(new_frame(points, action_agents, labels), preconditions)
        out = AfterAction(action, rng.randrange(action.point_count + 1), sub)
    shared.append(out)
    return out


def outcome(function, *args):
    try:
        return "ok", function(*args)
    except (ValueError, TypeError) as err:
        return type(err), str(err), getattr(err, "position", None)


def test_parser_and_evaluator_match_the_recursive_ones_on_texts():
    rng = random.Random(23)
    outcomes = {"parse error": 0, True: 0, False: 0, "evaluation error": 0}
    for case in range(6000):
        text = random_text(rng, 6) if case % 2 else malformed_text(rng)
        parsed = outcome(parse_formula, text)
        assert parsed == outcome(reference_parse, text), text
        if parsed[0] != "ok":
            outcomes["parse error"] += 1
            continue
        model = random_model(rng, rng.randint(1, 3))
        state = rng.randrange(-1, model.frame.state_count + 1)
        verdict = outcome(eval_formula, model, state, parsed[1])
        assert verdict == outcome(reference_eval, model, state, parsed[1]), text
        outcomes[verdict[1] if verdict[0] == "ok" else "evaluation error"] += 1
    # every kind of outcome is well represented
    assert min(outcomes.values()) > 400, outcomes


def test_evaluator_matches_the_recursive_one_on_actions():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(1500):
        agents = rng.randint(1, 3)
        model = random_model(rng, agents)
        formula = random_formula(rng, agents, 5, [])
        state = rng.randrange(model.frame.state_count)
        verdict = outcome(eval_formula, model, state, formula)
        assert verdict == outcome(reference_eval, model, state, formula)
        verdicts.add(verdict[:2] if verdict[0] != "ok" else verdict)
    assert ("ok", True) in verdicts and ("ok", False) in verdicts
    assert (TypeError, "not a formula: 'not a formula'") in verdicts
    assert (ValueError, "model and action must share the agent set") in verdicts


def test_evaluation_stops_where_the_definition_does():
    model = random_model(random.Random(1), 2)
    assert not eval_formula(model, 0, And(FALSE, Atom("w")))
    assert eval_formula(model, 0, parse_formula("true | w"))
    assert eval_formula(model, 0, parse_formula("false -> w"))
    # K[0] stops at the first member where its body is false
    frame = new_frame(2, 1, [[0, 0]])
    two = KripkeModel(frame, ("x",), (frozenset(), frozenset((0,))))
    assert not eval_formula(two, 1, Know(0, And(Atom("x"), Atom("w"))))
    with pytest.raises(ValueError, match="unknown atom 'w'"):
        eval_formula(two, 1, Know(0, Or(Atom("x"), Atom("w"))))


def test_knowledge_verdicts_are_kept_per_model():
    # K[0] x holds at agent 0's class 0 of the model and fails at class 0
    # of its update by an action enabled at state 1 alone
    model = KripkeModel(
        new_frame(3, 2, [[0, 1, 2], [0, 0, 0]]), ("x",),
        (frozenset((0,)), frozenset(), frozenset()),
    )
    action = ActionModel(new_frame(1, 2, [[0], [0]]), (frozenset((1,)),))
    knows = Know(0, Atom("x"))
    formula = And(knows, Know(1, AfterAction(action, 0, knows)))
    assert reference_eval(model, 0, formula) is False
    assert eval_formula(model, 0, formula) is False


# ---------------------------------------------------------------------------
# depth and nesting

def test_formulas_of_any_depth_under_a_small_recursion_limit():
    # a fresh process, since pytest's own frames would eat a limit set here;
    # truth values are printed, not formulas, since record equality and
    # repr recurse once per level
    code = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from epikit.kernel import new_frame\n"
        "from epikit.logic import KripkeModel, eval_formula, parse_formula\n"
        "frame = new_frame(2, 2, [[0, 0], [0, 1]])\n"
        "model = KripkeModel(frame, ('x',), (frozenset((0,)), frozenset()))\n"
        "d = 100000\n"
        "for text in ['!' * d + 'x', 'K[0] ' * d + 'x', 'K[1] ' * d + 'x',\n"
        "             ' | '.join(['x'] * d), ' -> '.join(['x'] * d),\n"
        "             '(' * d + 'x' + ')' * d]:\n"
        "    print(eval_formula(model, 0, parse_formula(text)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.stderr == ""
    assert proc.stdout.split() == ["True", "False", "True", "True", "True", "True"]


def test_nested_knowledge_takes_polynomial_time():
    # five K operators over a tautology at one state of the 5,625-state
    # model; evaluated member by member, this takes minutes
    model = protocol_model(3, 2)
    formula = parse_formula("K[0] K[1] K[2] K[3] K[0] (id_0 | !id_0)")
    start = time.perf_counter()
    assert eval_formula(model, 0, formula)
    assert time.perf_counter() - start < 1
