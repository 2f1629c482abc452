"""Model checking for alternating-time logic with resource production and
consumption: minimal credits for until and always, bounded or not,
budget-aware strategy search for the rest of bounded always, a
consumption-only check on the same credits, strategy certificates, and a
Petri-net coverability bridge for differential testing.
"""

from .atl import Semantics, consumption_joint, pre
from .checker import (
    SearchNode,
    SearchStats,
    atl_label,
    box_strategy,
    eval_propositional,
    find_witness,
    model_check,
    node0,
    until_strategy,
)
from .errors import (
    EngineError,
    FormulaError,
    ModelError,
    PetriError,
    RBATLError,
    VectorError,
    WitnessError,
)
from .formula import (
    FALSE,
    TRUE,
    And,
    CoalitionAlways,
    CoalitionNext,
    CoalitionUntil,
    FalseConst,
    Formula,
    Not,
    Or,
    Prop,
    TrueConst,
    format_formula,
    sub_ordered,
    sub_plus,
    with_bound,
)
from .model import IDLE, JointAction, Model, validate_model
from .modelio import dump_model, load_model, loads_model, model_from_dict, model_to_dict, save_model
from .oracle import UNKNOWN, bounded_search
from .parser import parse_formula, translate_endowments
from .petri import (
    PetriNet,
    coverable,
    dump_net,
    enabled,
    fire,
    load_net,
    net_from_dict,
    net_to_dict,
    reduce_to_model,
)
from .symbolic import is_consumption_only, rb_atl_label
from .vectors import INF, bound_minus_cost, split, vec_leq
from .witness import (
    WitnessNode,
    WitnessTree,
    concretize_until_witness,
    dump_witness,
    load_witness,
    validate_witness,
    witness_from_dict,
    witness_to_dict,
)

__version__ = "0.1.0"
