"""Guarded-program algebra weighted by evidence pairs.

Programs and tests are interpreted over transition models whose edges
carry two independent truth values, evidence for and evidence against,
drawn from a complete Heyting algebra.  The package provides the
lattices, the pair algebra, weighted sets and relations, a term
language with parser, an axiom-verification engine, and a CLI.

The names below (and the submodules that hold them) resolve on first
use, through a module ``__getattr__`` (PEP 562): ``import pkat`` loads
no submodule, and ``pkat.check_axiom`` loads ``catalog`` (which imports
``engine``) only then.  The object-level operations live in ``algebra``,
which no command loads.  ``lattice``, ``twist``, ``relp`` and ``plts``
resolve the public names that moved out of them the same way, each
through the ``__getattr__`` that ``_moved`` makes.
"""

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": "CarrierError EngineError LatticeMismatchError ModelError ParseError "
              "PkatError ShapeError SortError",
    "lattice": "LatticeElem LatticeId bottom carrier elem elem_to_text top",
    "twist": "ConsistencyClass Weight classify format_weight",
    "algebra": "big_join big_meet implies join leq meet negate wbot weight wjoin wleq wmeet "
               "wtop identity diagonal_relation valuation",
    "plts": "Model model_to_dict model_to_text program_relation",
    "modelfile": "load_model",
    "relp": "PRel is_test r_dot r_leq r_plus r_star r_star_steps t_complement zero",
    "views": "format_prel",
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


def _moved(module: str, **homes: str):
    """The module ``__getattr__`` (PEP 562) of a submodule whose public names
    moved out: each name listed in ``homes[home]`` resolves from ``home``."""
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{home_of[name]}"), name)

    return __getattr__
