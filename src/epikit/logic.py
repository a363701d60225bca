"""Epistemic formulas, Kripke models, and product update.

The formula language is propositional logic plus the knowledge operator
``K[a]`` and a dynamic operator for pointed actions of already-built
action models.  Satisfaction is the usual S5 semantics over equivalence
partitions; the product update restricts the cartesian product of a model
and an action model to the pairs whose precondition holds.

Preconditions come in two forms: an arbitrary formula, or a frozen set of
state indices of the intended input model ("point-set" form).  The
point-set form is what schedule and task action models use, where each
action point is enabled at an explicitly known set of input states.  The
action model record is :class:`epikit.kernel.ActionModel`, re-exported
here.
"""

from __future__ import annotations

from functools import cached_property, partial

from .kernel import (
    ActionModel,
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
        if len(self.atom_index) != len(self.ap):
            name = next(n for i, n in enumerate(self.ap) if self.atom_index[n] != i)
            raise ValueError(f"atom {name!r} is named twice")
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


def is_model_morphism(f: FrameMorphism, src: KripkeModel, dst: KripkeModel) -> bool:
    """Frame morphism that never grows valuations: valuation(f(s)) a subset
    of valuation(s), compared through atom names so the two models may
    order AP differently.  Kept for criterion 9 and perfbench's span list."""
    if not is_morphism(f, src.frame, dst.frame):
        return False
    for s in src.frame.states():
        here = {src.ap[i] for i in src.valuation[s]}
        there = {dst.ap[i] for i in dst.valuation[f(s)]}
        if not there <= here:
            return False
    return True


# ---------------------------------------------------------------------------
# satisfaction

def eval_formula(model: KripkeModel, state: int, formula: Formula) -> bool:
    """Inductive satisfaction. Raises on unknown atoms or bad indices.

    One loop over a stack of (model, state, formula, step) entries, where
    ``value`` holds the verdict of the entry finished last, so a formula
    of any depth evaluates without recursion.  ``&`` stops at a false
    left side and ``K[a]`` at the first false member of the class, as the
    inductive definition reads.  The verdict of ``K[a] f`` is the same
    across an a-class, so it is kept per (model, node, class) for the
    call, and nested knowledge costs polynomial time, not exponential.
    """
    if not 0 <= state < model.frame.state_count:
        raise ValueError(f"state {state} out of range")
    known: dict[tuple[int, int, int], bool] = {}
    # each product update made in this call, which also keeps alive the
    # models whose ids the keys of ``known`` use
    updates: dict[tuple[int, int], tuple[KripkeModel, dict]] = {}
    stack = [(model, state, formula, 0)]
    value = True
    while stack:
        model, state, formula, step = stack.pop()
        if isinstance(formula, Atom):
            value = model.satisfies_atom(state, formula.name)
        elif isinstance(formula, Not):
            if step:
                value = not value
            else:
                stack += (model, state, formula, 1), (model, state, formula.sub, 0)
        elif isinstance(formula, And):
            if not step:
                stack += (model, state, formula, 1), (model, state, formula.left, 0)
            elif value:
                stack.append((model, state, formula.right, 0))
        elif isinstance(formula, Know):
            # at step k > 0, ``value`` is the verdict at member k - 1
            a = formula.agent
            if not 0 <= a < model.frame.agent_count:
                raise ValueError(f"agent {a} out of range")
            c = model.frame.partitions[a][state]
            key = (id(model), id(formula), c)
            if not step and key in known:
                value = known[key]
                continue
            members = model.frame.classes_by_agent[a][c]
            if not step or (value and step < len(members)):
                stack.append((model, state, formula, step + 1))
                stack.append((model, members[step], formula.sub, 0))
            else:
                known[key] = value
        elif isinstance(formula, Top):
            value = True
        elif isinstance(formula, AfterAction):
            act, point = formula.action, formula.point
            if not step:
                if not 0 <= point < act.point_count:
                    raise ValueError(f"action point {point} out of range")
                pre = act.preconditions[point]
                if not isinstance(pre, frozenset):
                    stack += (model, state, formula, 1), (model, state, pre, 0)
                    continue
                value = state in pre
            if value:
                key = (id(model), id(act))
                if key not in updates:
                    updates[key] = product_update(model, act)
                updated, pairing = updates[key]
                stack.append((updated, pairing[(state, point)], formula.sub, 0))
            else:
                value = True
        else:
            raise TypeError(f"not a formula: {formula!r}")
    return value


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
    return KripkeModel._trusted(frame, model.ap, valuation), pairing


def compose_actions(first: ActionModel, second: ActionModel) -> ActionModel:
    """Sequential composition of two action models (acceptance criterion 3).

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
    f: FrameMorphism,
    src: KripkeModel,
    dst: KripkeModel,
    formula: Formula,
    agent: int,
) -> bool:
    """Knowledge present at an image state must already hold at the source:
    for every s, dst, f(s) |= K_a phi implies src, s |= K_a phi.  Kept for
    acceptance criterion 9."""
    for s in src.frame.states():
        if eval_formula(dst, f(s), Know(agent, formula)) and not eval_formula(
            src, s, Know(agent, formula)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# formula text syntax

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


# Each binary connective's binding strength and constructor.  ``->``, the
# loosest, is the one that groups to the right.
_BINARY = {"&": (3, And), "|": (2, Or), "->": (1, Implies)}


def parse_formula(text: str) -> Formula:
    """Parse the CLI formula syntax.

    Grammar: atoms (names, including ``sched_...`` tokens which may embed
    ``|``, ``,`` and ``;``), ``true``/``false``, ``!f``, ``f & g``,
    ``f | g``, ``f -> g``, ``K[i] f``, parentheses.  ``&`` binds tighter
    than ``|``, which binds tighter than the right-associative ``->``.
    Operator-precedence parsing over an operand stack and an operator
    stack, so a formula of any depth parses without recursion.
    """
    tokens = _tokenize(text)
    idx = 0

    def take(expect: str | None = None) -> tuple[str, str, int]:
        nonlocal idx
        if idx == len(tokens):
            raise FormulaParseError("unexpected end of input", len(text))
        tok = tokens[idx]
        if expect is not None and tok[1] != expect:
            raise FormulaParseError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok

    operands: list[Formula] = []
    # "(", a binary connective, or a prefix waiting for its operand: the
    # callable ``Not`` or ``Know`` bound to its agent
    operators: list = []
    open_parens = 0

    def reduce(strength: int) -> None:
        # apply the connectives on top that bind at least this tightly
        while operators and operators[-1] != "(" and _BINARY[operators[-1]][0] >= strength:
            right = operands.pop()
            operands.append(_BINARY[operators.pop()][1](operands.pop(), right))

    while True:
        kind, value, pos = take()
        if value == "!":
            operators.append(Not)
        elif value == "K":
            take("[")
            agent = take()
            if agent[0] != "INT":
                raise FormulaParseError("expected agent index", agent[2])
            take("]")
            operators.append(partial(Know, int(agent[1])))
        elif value == "(":
            operators.append("(")
            open_parens += 1
        elif kind not in ("NAME", "SCHED"):
            raise FormulaParseError(f"unexpected token {value!r}", pos)
        else:
            operands.append(
                TRUE if value == "true" else FALSE if value == "false" else Atom(value)
            )
            # the operand is complete: apply what it completes, up to the
            # next connective or the end
            while True:
                while operators and callable(operators[-1]):
                    operands.append(operators.pop()(operands.pop()))
                tok = tokens[idx] if idx < len(tokens) else None
                if tok is not None and tok[1] in _BINARY:
                    break
                reduce(1)
                if not open_parens:
                    if tok is not None:
                        raise FormulaParseError(f"trailing input {tok[1]!r}", tok[2])
                    return operands.pop()
                take(")")
                operators.pop()
                open_parens -= 1
            # of two connectives of equal strength the left one applies
            # first, but for "->"
            strength = _BINARY[tok[1]][0]
            reduce(strength + (strength == 1))
            operators.append(take()[1])


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: KripkeModel) -> dict:
    data = frame_to_json(model.frame)
    data["ap"] = list(model.ap)
    data["valuation"] = [sorted(atoms) for atoms in model.valuation]
    return data


def model_from_json(data: dict) -> KripkeModel:
    """The model :func:`model_to_json` wrote.  Anything else, such as a
    missing key, a repeated or non-string atom name or an atom index out
    of range, raises :class:`~epikit.kernel.FormatError`."""
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
    try:
        return KripkeModel(frame, tuple(ap), tuple(frozenset(row) for row in valuation))
    except ValueError as exc:  # an atom named twice
        raise FormatError(str(exc)) from None
