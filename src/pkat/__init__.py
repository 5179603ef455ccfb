"""Guarded-program algebra weighted by evidence pairs.

Programs and tests are interpreted over transition models whose edges
carry two independent truth values, evidence for and evidence against,
drawn from a complete Heyting algebra.  The package provides the
lattices, the pair algebra, weighted sets and relations, a term
language with parser, an axiom-verification engine, and a CLI.

The names below (and the submodules that hold them) resolve on first
use, through a module ``__getattr__`` (PEP 562): ``import pkat`` loads
no submodule, and ``pkat.check_axiom`` loads ``catalog`` (which imports
``engine``) only then.
"""

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": "CarrierError EngineError LatticeMismatchError ModelError ParseError "
              "PkatError ShapeError SortError",
    "lattice": "LatticeElem LatticeId big_join big_meet bottom carrier elem elem_to_text "
               "implies join leq meet top",
    "twist": "ConsistencyClass Weight classify format_weight negate wbot weight wjoin wleq "
             "wmeet wtop",
    "plts": "Model load_model model_to_dict model_to_text program_relation "
            "diagonal_relation valuation",
    "modelfile": "",
    "relp": "PRel format_prel identity is_test r_dot r_leq r_plus r_star r_star_steps "
            "t_complement zero",
    "setp": "PSet oslash s_complement s_dot s_plus s_star s_subset upsilon",
    "syntax": "Atom Dot Not One Plus Sort Star Term Zero atoms desugar_if desugar_while "
              "evaluate parse pretty sort_check sort_of",
    "engine": "Status Verdict Witness equiv equiv_random hoare_check verdict_to_dict",
    "catalog": "AxiomId check_axiom check_suite find_boolean_witness recheck",
    "record": "",
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names.split())}
__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
