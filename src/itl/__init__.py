"""Branching-time temporal logic over finite trees with indistinguishability
classes: structural validation, model checking under two equivalent
semantics, p-morphism and bisimulation checking and search, and a
verification battery exercising the preservation properties."""

from .bisimulation import (
    PointRelation,
    bisimilar,
    bisimulation_failures,
    check_bisimulation,
    find_distinguishing_formula,
    greatest_bisimulation,
)
from .errors import (
    BoundExceededError,
    DocumentError,
    InvalidBoundError,
    InvalidPointError,
    ItlError,
    LanguageError,
    ParseError,
)
from .formula import (
    And,
    Atom,
    F,
    Formula,
    G,
    H,
    L,
    Not,
    atoms_of,
    contains_f,
    enumerate_formulas,
    format_formula,
    parse,
    random_formula,
    read_formulas,
)
from .generate import gen_random_frame, gen_random_model
from .morphisms import (
    PointMap,
    check_frame_pmorphism,
    check_model_pmorphism,
    check_set_characterization,
    frame_pmorphism_failures,
    model_pmorphism_failures,
    pullback_valuation,
    search_pmorphisms,
)
from .semantics import (
    Evaluator,
    eval_hist,
    eval_rel,
    frame_sat,
    frame_valid,
    model_sat,
    model_valid,
)
from .structures import (
    Frame,
    History,
    IndistFunction,
    Model,
    Point,
    Report,
    Tree,
    Violation,
    histories,
    histories_through,
    point_key,
    points,
    precedes,
    same_moment,
    undividedness_indist,
    validate_frame,
    validate_model,
)

__version__ = "0.1.0"
