import importlib

import pytest

import pkat

# The 87 names ``import pkat`` binds, by home module as the package's import
# lists named them before its exports resolved on first use.
EXPORTS = {
    "errors": "CarrierError EngineError LatticeMismatchError ModelError ParseError "
              "PkatError ShapeError SortError",
    "lattice": "LatticeElem LatticeId big_join big_meet bottom carrier elem elem_to_text "
               "implies join leq meet top",
    "twist": "ConsistencyClass Weight classify format_weight negate wbot weight wjoin wleq "
             "wmeet wtop",
    "plts": "Model load_model model_to_dict model_to_text program_relation "
            "diagonal_relation valuation",
    "relp": "PRel format_prel identity is_test r_dot r_leq r_plus r_star r_star_steps "
            "t_complement zero",
    "setp": "PSet oslash s_complement s_dot s_plus s_star s_subset upsilon",
    "syntax": "Atom Dot Not One Plus Sort Star Term Zero atoms desugar_if desugar_while "
              "parse pretty sort_check sort_of",
    "engine": "Status Verdict Witness equiv equiv_random evaluate hoare_check verdict_to_dict",
    "catalog": "AxiomId check_axiom check_suite find_boolean_witness recheck",
}
SUBMODULES = ["catalog", "engine", "errors", "lattice", "modelfile", "plts", "record", "relp",
              "setp", "syntax", "twist"]
NAMES = [(home, name) for home, names in EXPORTS.items() for name in names.split()]


def test_each_export_is_its_home_modules_object():
    home_of = {name: importlib.import_module(f"pkat.{home}") for home, name in NAMES}
    assert [name for name, home in home_of.items()
            if getattr(pkat, name) is not getattr(home, name)] == []
    assert [name for name in SUBMODULES
            if getattr(pkat, name) is not importlib.import_module(f"pkat.{name}")] == []


def test_star_import_binds_the_exports_and_submodules():
    namespace = {}
    exec("from pkat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([name for _, name in NAMES] + SUBMODULES)


def test_evaluate_lives_in_syntax_and_engine_reexports_it():
    assert pkat.evaluate is pkat.syntax.evaluate is pkat.engine.evaluate


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pkat.no_such_name
    assert not hasattr(pkat, "cli_main")


def test_dir_lists_the_exports():
    assert {name for _, name in NAMES} | set(SUBMODULES) <= set(dir(pkat))
