"""Guarded-program algebra weighted by evidence pairs.

Programs and tests are interpreted over transition models whose edges
carry two independent truth values, evidence for and evidence against,
drawn from a complete Heyting algebra.  The package provides the
lattices, the pair algebra, weighted sets and relations, a term
language with parser, an axiom-verification engine, and a CLI.

The names below (and the submodules that hold them) resolve on first
use, through a module ``__getattr__`` (PEP 562) that ``_moved`` makes:
``import pkat`` loads no submodule, and ``pkat.check_axiom`` loads
``catalog`` (which imports ``engine``) only then, and binds the name in
the package.  The object-level operations live in ``algebra``, which no
command loads.  ``lattice``, ``twist``, ``relp`` and ``plts`` resolve the
public names that moved out of them through the same resolver.
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
__all__ = [name for home, names in _EXPORTS.items() for name in (home, *names.split())]


def __dir__():
    return sorted({*globals(), *__all__})


def _moved(module: str, **homes: str):
    """The module ``__getattr__`` (PEP 562) of ``module``, the one resolver of
    the package's exports and of each submodule whose public names moved out:
    a name listed in ``homes[home]`` is submodule ``home`` if it is ``home``,
    else resolves from it, and is then bound in ``module``."""
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        home = import_module(f"{__name__}.{home_of[name]}")
        value = home if name == home_of[name] else getattr(home, name)
        setattr(import_module(module), name, value)
        return value

    return __getattr__


__getattr__ = _moved(__name__, **{home: f"{home} {names}" for home, names in _EXPORTS.items()})
