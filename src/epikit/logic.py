"""Epistemic formulas, Kripke models, action models, and product update.

The formula language is propositional logic plus the knowledge operator
``K[a]`` and a dynamic operator for pointed actions of already-built
action models.  Satisfaction is the usual S5 semantics over equivalence
partitions; the product update restricts the cartesian product of a model
and an action model to the pairs whose precondition holds.

Preconditions come in two forms: an arbitrary formula, or a frozen set of
state indices of the intended input model ("point-set" form).  The
point-set form is what schedule and task action models use, where each
action point is enabled at an explicitly known set of input states.
"""

from __future__ import annotations

from functools import cached_property

from .kernel import (
    FormatError,
    FrameMorphism,
    KripkeFrame,
    _check_json_object,
    frame_from_json,
    frame_to_json,
    is_morphism,
    new_frame,
)
from .record import Record


# ---------------------------------------------------------------------------
# formulas

class Formula(Record):
    """Base class for formula AST nodes. Equality is structural."""

    __slots__ = ()


class Top(Formula):
    pass


class Atom(Formula):
    name: str


class Not(Formula):
    sub: Formula


class And(Formula):
    left: Formula
    right: Formula


class Know(Formula):
    agent: int
    sub: Formula


class AfterAction(Formula):
    """``[A, point] sub``: if the point's precondition holds here, then
    sub holds at the corresponding state of the product update."""

    action: "ActionModel"
    point: int
    sub: Formula


TRUE: Formula = Top()
FALSE: Formula = Not(TRUE)


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


# ---------------------------------------------------------------------------
# models

class KripkeModel(Record):
    """A frame plus an atomic-proposition valuation.

    ``ap`` is the ordered atom universe; ``valuation[s]`` holds the indices
    of the atoms true at state ``s``.  Atoms not present are false, which
    realizes maximality without storing negative literals.
    """

    frame: KripkeFrame
    ap: tuple[str, ...]
    valuation: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.valuation) != self.frame.state_count:
            raise ValueError("valuation must cover every state")
        for s, atoms in enumerate(self.valuation):
            for i in atoms:
                if not 0 <= i < len(self.ap):
                    raise ValueError(f"state {s}: atom index {i} out of range")

    @cached_property
    def atom_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.ap)}

    def satisfies_atom(self, state: int, name: str) -> bool:
        idx = self.atom_index.get(name)
        if idx is None:
            raise ValueError(f"unknown atom {name!r}")
        return idx in self.valuation[state]


Precondition = Formula | frozenset


class ActionModel(Record):
    """Action points with per-agent indistinguishability and preconditions.

    ``sees``, when present, records for each point and agent which agents'
    current states that agent observes while the action runs.  Schedule
    actions carry it (a process reads the states of everyone scheduled
    before or with it); it is what makes iterated composition reproduce
    the multi-round relation, since a later round re-announces the states
    of every process a snapshot contains.
    """

    frame: KripkeFrame
    preconditions: tuple[Precondition, ...]
    sees: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    def __post_init__(self):
        if len(self.preconditions) != self.frame.state_count:
            raise ValueError("need one precondition per action point")

    @property
    def point_count(self) -> int:
        return self.frame.state_count


class ModelMorphism(Record):
    """Frame morphism between models that never grows valuations."""

    mapping: FrameMorphism

    def __call__(self, state: int) -> int:
        return self.mapping(state)


def is_model_morphism(f: ModelMorphism, src: KripkeModel, dst: KripkeModel) -> bool:
    """Frame morphism plus valuation(f(s)) a subset of valuation(s),
    compared through atom names so the two models may order AP differently."""
    if not is_morphism(f.mapping, src.frame, dst.frame):
        return False
    for s in src.frame.states():
        here = {src.ap[i] for i in src.valuation[s]}
        there = {dst.ap[i] for i in dst.valuation[f(s)]}
        if not there <= here:
            return False
    return True


# ---------------------------------------------------------------------------
# satisfaction

def _pre_holds(model: KripkeModel, state: int, pre: Precondition) -> bool:
    if isinstance(pre, frozenset):
        return state in pre
    return eval_formula(model, state, pre)


def eval_formula(model: KripkeModel, state: int, formula: Formula) -> bool:
    """Inductive satisfaction. Raises on unknown atoms or bad indices."""
    if not 0 <= state < model.frame.state_count:
        raise ValueError(f"state {state} out of range")
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Atom):
        return model.satisfies_atom(state, formula.name)
    if isinstance(formula, Not):
        return not eval_formula(model, state, formula.sub)
    if isinstance(formula, And):
        return eval_formula(model, state, formula.left) and eval_formula(
            model, state, formula.right
        )
    if isinstance(formula, Know):
        a = formula.agent
        if not 0 <= a < model.frame.agent_count:
            raise ValueError(f"agent {a} out of range")
        members = model.frame.classes_by_agent[a][model.frame.partitions[a][state]]
        return all(eval_formula(model, t, formula.sub) for t in members)
    if isinstance(formula, AfterAction):
        act = formula.action
        if not 0 <= formula.point < act.point_count:
            raise ValueError(f"action point {formula.point} out of range")
        if not _pre_holds(model, state, act.preconditions[formula.point]):
            return True
        updated, pairing = product_update(model, act)
        return eval_formula(updated, pairing[(state, formula.point)], formula.sub)
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# product update and composition

def product_update(
    model: KripkeModel, action: ActionModel
) -> tuple[KripkeModel, dict[tuple[int, int], int]]:
    """Restricted modal product of a model and an action model.

    Keeps the pairs (s, t) where t's precondition holds at s; a pair is
    related for an agent iff both components are; each pair keeps the
    valuation of its model component.  Also returns the pairing map from
    surviving (state, point) pairs to new state indices, numbered state
    by state and, within a state, by point.  An empty result is legal.

    A point-set precondition costs the smaller of its size and the state
    count (members outside the model's states are never enabled); a
    formula precondition is evaluated at every state.  With point-set
    preconditions throughout, the update is linear in the states, the
    points, the set members and the surviving pairs.
    """
    if model.frame.agent_count != action.frame.agent_count:
        raise ValueError("model and action must share the agent set")
    states = model.frame.states()
    every_state = frozenset(states)
    # keyed, not indexed, by state: a member equal to a state index (True,
    # 1.0) enables it, as ``s in pre`` would
    enabled: dict[int, list[int]] = {s: [] for s in states}
    for t, pre in enumerate(action.preconditions):
        if isinstance(pre, frozenset):
            members = pre & every_state
        else:
            members = [s for s in states if eval_formula(model, s, pre)]
        for s in members:
            enabled[s].append(t)
    pairs = [(s, t) for s in states for t in enabled[s]]
    pairing = {st: i for i, st in enumerate(pairs)}
    partitions = [
        [
            (model.frame.partitions[a][s], action.frame.partitions[a][t])
            for (s, t) in pairs
        ]
        for a in range(model.frame.agent_count)
    ]
    frame = new_frame(len(pairs), model.frame.agent_count, partitions)
    valuation = tuple(model.valuation[s] for (s, t) in pairs)
    return KripkeModel(frame, model.ap, valuation), pairing


def compose_actions(first: ActionModel, second: ActionModel) -> ActionModel:
    """Sequential composition of two action models.

    Points are pairs (a, b) in a-major order.  Whether an agent can tell
    two pairs apart depends on what the second action shows it: the agent
    must distinguish the second points, or distinguish the first points
    through the eyes of someone it observes during the second action.
    Formally (a,b) ~_i (a',b') iff b ~_i b', the observation sets agree,
    and a ~_j a' for every observed j.  Points without observation data
    default to self-observation, which degenerates to the componentwise
    rule (composing with a trivial public action changes nothing).

    The composed precondition is the first component's; second components
    must carry True or point-set preconditions (iterated schedule rounds
    are enabled everywhere, so their identity preconditions are dropped).
    """
    if first.frame.agent_count != second.frame.agent_count:
        raise ValueError("compose_actions requires equal agent counts")
    for pre in second.preconditions:
        if not isinstance(pre, (frozenset, Top)):
            raise ValueError(
                "second action must have True or point-set preconditions"
            )
    n_agents = first.frame.agent_count
    na, nb = first.point_count, second.point_count
    pairs = [(a, b) for a in range(na) for b in range(nb)]

    def observed(b: int, agent: int) -> tuple[int, ...]:
        if second.sees is None:
            return (agent,)
        obs = second.sees[b][agent]
        return obs if agent in obs else tuple(sorted(set(obs) | {agent}))

    partitions = []
    for i in range(n_agents):
        row = []
        for (a, b) in pairs:
            obs = observed(b, i)
            row.append(
                (
                    second.frame.partitions[i][b],
                    obs,
                    tuple(first.frame.partitions[j][a] for j in obs),
                )
            )
        partitions.append(row)
    frame = new_frame(len(pairs), n_agents, partitions)
    preconditions = tuple(first.preconditions[a] for (a, b) in pairs)
    return ActionModel(frame, preconditions)


def knowledge_loss_check(
    f: ModelMorphism,
    src: KripkeModel,
    dst: KripkeModel,
    formula: Formula,
    agent: int,
) -> bool:
    """Knowledge present at an image state must already hold at the source:
    for every s, dst, f(s) |= K_a phi implies src, s |= K_a phi."""
    for s in src.frame.states():
        if eval_formula(dst, f(s), Know(agent, formula)) and not eval_formula(
            src, s, Know(agent, formula)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# formula text syntax

# How deeply parse_formula lets formulas nest, counting every connective,
# parenthesis, ``!`` and ``K[i]`` on the way down to an atom (a chain
# ``a | b | c`` nests to the left).  The parser and the evaluator recurse
# once or a few times per level; this keeps both well inside Python's
# default recursion limit of 1000 frames.
MAX_FORMULA_DEPTH = 200


class FormulaParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    import re

    token_kinds = [
        ("SCHED", r"sched_[0-9|,;]+"),
        ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
        ("ARROW", r"->"),
        ("OP", r"[!&|()\[\]]"),
        ("INT", r"[0-9]+"),
        ("WS", r"\s+"),
    ]
    regex = re.compile("|".join(f"(?P<{k}>{v})" for k, v in token_kinds))
    tokens = []
    pos = 0
    while pos < len(text):
        m = regex.match(text, pos)
        if not m:
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the CLI formula syntax.

    Grammar: atoms (names, including ``sched_...`` tokens which may embed
    ``|``, ``,`` and ``;``), ``true``/``false``, ``!f``, ``f & g``,
    ``f | g``, ``f -> g``, ``K[i] f``, parentheses.  ``&`` binds tighter
    than ``|``, which binds tighter than the right-associative ``->``.
    Formulas nesting deeper than ``MAX_FORMULA_DEPTH`` are refused.
    """
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

    # Each parse_* takes the number of levels already open above it, which
    # bounds the parser's own recursion, and returns the formula with its
    # height, which bounds the chains built by loops.
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


def format_formula(f: Formula) -> str:
    """Inverse of parse_formula up to sugar (Or/Implies print as Not/And)."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"!{format_formula(f.sub)}"
    if isinstance(f, And):
        return f"({format_formula(f.left)} & {format_formula(f.right)})"
    if isinstance(f, Know):
        return f"K[{f.agent}] {format_formula(f.sub)}"
    if isinstance(f, AfterAction):
        return f"[action:{f.point}] {format_formula(f.sub)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: KripkeModel) -> dict:
    data = frame_to_json(model.frame)
    data["ap"] = list(model.ap)
    data["valuation"] = [sorted(atoms) for atoms in model.valuation]
    return data


def model_from_json(data: dict) -> KripkeModel:
    """The model :func:`model_to_json` wrote.  Anything else, such as a
    missing key, atom names that are not strings or a valuation naming
    an atom index out of range, raises :class:`~epikit.kernel.FormatError`."""
    _check_json_object(data, "model", ("ap", "valuation"), FormatError)
    frame = frame_from_json(data)
    ap, valuation = data["ap"], data["valuation"]
    if not isinstance(ap, list) or not all(isinstance(name, str) for name in ap):
        raise FormatError("ap must be a list of atom names")
    if (
        not isinstance(valuation, list)
        or len(valuation) != frame.state_count
        or not all(isinstance(row, list) for row in valuation)
    ):
        raise FormatError(
            f"valuation must be {frame.state_count} lists of atom indices"
        )
    for s, row in enumerate(valuation):
        for i in row:
            if type(i) is not int or not 0 <= i < len(ap):
                raise FormatError(
                    f"state {s}: atom index {i!r} is out of range; the model "
                    f"has {len(ap)} atoms"
                )
    return KripkeModel(frame, tuple(ap), tuple(frozenset(row) for row in valuation))
