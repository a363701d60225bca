"""Epistemic-logic toolkit for iterated-snapshot distributed computing.

Builds the schedule and task action models of the iterated immediate
snapshot discipline, runs product updates and a formula checker over the
resulting Kripke models, converts proper frames to chromatic simplicial
complexes and back, and decides inputless-task solvability by exhaustive
decision-map search.
"""

from .kernel import (
    FrameMorphism,
    KripkeFrame,
    are_isomorphic,
    find_isomorphism,
    is_morphism,
    is_proper,
    new_frame,
    product,
)
from .logic import (
    ActionModel,
    Atom,
    And,
    AfterAction,
    FALSE,
    Formula,
    Implies,
    Know,
    KripkeModel,
    ModelMorphism,
    Not,
    Or,
    TRUE,
    compose_actions,
    eval_formula,
    knowledge_loss_check,
    parse_formula,
    product_update,
)
from .schedules import (
    BlockAction,
    Schedule,
    block_action,
    enum_block_actions,
    enum_schedules,
    indist_1,
    input_model,
    parse_schedule,
    protocol_action_model,
    protocol_model,
    schedule,
    schedule_context,
    view1,
)
from .simengine import RunRecord, oracle_indist, run
from .solver import (
    DecisionMap,
    Verdict,
    solve,
    solve_report,
    verdict_report,
    verify_certificate,
)
from .tasks import InputlessTask, OutputFrame, builtin, make_task, output_model, task_action_model
from .topology import (
    ChromaticComplex,
    SimplicialMap,
    SimplicialModel,
    complex_to_frame,
    frame_to_complex,
    morphism_to_simplicial,
    roundtrip_check,
)

__version__ = "0.1.0"
