"""Guarded-program algebra weighted by evidence pairs.

Programs and tests are interpreted over transition models whose edges
carry two independent truth values, evidence for and evidence against,
drawn from a complete Heyting algebra.  The package provides the
lattices, the pair algebra, weighted sets and relations, a term
language with parser, an axiom-verification engine, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    CarrierError,
    EngineError,
    LatticeMismatchError,
    ModelError,
    ParseError,
    PkatError,
    ShapeError,
    SortError,
)
from .lattice import (
    LatticeElem,
    LatticeId,
    big_join,
    big_meet,
    bottom,
    carrier,
    elem,
    elem_to_text,
    implies,
    join,
    leq,
    meet,
    top,
)
from .twist import (
    ConsistencyClass,
    Weight,
    classify,
    format_weight,
    negate,
    wbot,
    weight,
    wjoin,
    wleq,
    wmeet,
    wtop,
)
from .plts import (
    Model,
    load_model,
    model_to_dict,
    model_to_text,
    program_relation,
    diagonal_relation,
    valuation,
)
from .relp import (
    PRel,
    format_prel,
    identity,
    is_test,
    r_dot,
    r_leq,
    r_plus,
    r_star,
    r_star_steps,
    t_complement,
    zero,
)
from .setp import (
    PSet,
    oslash,
    s_complement,
    s_dot,
    s_plus,
    s_star,
    s_subset,
    upsilon,
)
from .syntax import (
    Atom,
    Dot,
    Not,
    One,
    Plus,
    Sort,
    Star,
    Term,
    Zero,
    atoms,
    desugar_if,
    desugar_while,
    parse,
    pretty,
    sort_check,
    sort_of,
)
from .engine import (
    AxiomId,
    Status,
    Verdict,
    Witness,
    check_axiom,
    check_suite,
    equiv,
    equiv_random,
    evaluate,
    find_boolean_witness,
    hoare_check,
    recheck,
    verdict_to_dict,
)
