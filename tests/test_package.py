import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

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
SUBMODULES = ["algebra", "catalog", "engine", "errors", "lattice", "modelfile", "plts", "record",
              "relp", "setp", "syntax", "twist", "views"]
NAMES = [(home, name) for home, names in EXPORTS.items() for name in names.split()]

# The public names each module defined before the object-level operations,
# model-file reading and relation text moved out of the modules every check
# loads (``checks`` and ``views`` defined none).
DEFINED = {
    "bitslice": "MAX_BITS",
    "catalog": "AxiomId BOOLEAN_AXIOMS CORE_AXIOMS axiom_row check_axiom check_suite "
               "find_boolean_witness recheck",
    "cli": "cli main",
    "engine": "DEFAULT_GODEL_GRID MAX_EXHAUSTIVE MAX_STEPS Status Verdict Witness equiv "
              "equiv_random hoare_check states_for verdict_to_dict witness_parts",
    "errors": "CarrierError EngineError LatticeMismatchError ModelError ParseError PkatError "
              "ShapeError SortError quoted",
    "lattice": "ElemLike LatticeElem LatticeId big_join big_meet bottom carrier elem "
               "elem_to_json elem_to_text implies join leq meet top",
    "modelfile": "model_from_dict",
    "plts": "Model diagonal_relation diagonal_to_json load_model model_to_dict model_to_text "
            "program_relation valuation",
    "record": "Record",
    "relp": "PRel align cell_forms format_grid format_prel from_cells from_diagonal from_entries "
            "identity is_test prel_to_entries r_dot r_leq r_plus r_star r_star_steps "
            "t_complement value_table zero",
    "setp": "PSet from_values oslash pset_to_json s_complement s_dot s_plus s_star s_subset "
            "upsilon",
    "syntax": "Atom Dot Not One Plus Sort Star Term Zero atoms desugar_if desugar_while evaluate "
              "parse pretty sort_check sort_of",
    "twist": "ConsistencyClass Weight classify format_weight negate wbot weight weight_to_json "
             "wjoin wleq wmeet wtop",
}


def test_each_export_is_its_home_modules_object():
    # ``_EXPORTS`` names where each name lives now, and it is the same object
    # in the module that held it before.
    home_of = {name: home for home, names in pkat._EXPORTS.items() for name in names.split()}
    assert sorted(home_of) == sorted(name for _, name in NAMES)
    assert [name for name, home in home_of.items() if getattr(pkat, name) is not
            getattr(importlib.import_module(f"pkat.{home}"), name)] == []
    assert [name for home, name in NAMES if getattr(pkat, name) is not
            getattr(importlib.import_module(f"pkat.{home}"), name)] == []
    assert [name for name in SUBMODULES
            if getattr(pkat, name) is not importlib.import_module(f"pkat.{name}")] == []


def test_each_modules_public_names_still_resolve_from_it():
    missing, other = [], []
    for module, names in DEFINED.items():
        home = importlib.import_module(f"pkat.{module}")
        for name in names.split():
            if not hasattr(home, name):
                missing.append(f"{module}.{name}")
            elif name in pkat.__all__ and getattr(home, name) is not getattr(pkat, name):
                other.append(f"{module}.{name}")
    assert (missing, other) == ([], [])


def test_a_moved_name_resolves_only_where_it_was():
    for module in ("lattice", "twist", "relp", "plts"):
        with pytest.raises(AttributeError, match=f"pkat.{module}' has no attribute 'wcombine'"):
            getattr(importlib.import_module(f"pkat.{module}"), "wcombine")
    assert not hasattr(pkat.lattice, "wjoin") and not hasattr(pkat.twist, "meet")


def test_one_resolver_loads_a_names_home_on_first_use_and_binds_it():
    # In a fresh interpreter: the package and a submodule resolve through the same
    # ``_moved``, import only the home of the name asked for, and bind it there.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    probe = ("import sys, pkat\n"
             "assert not [m for m in sys.modules if m.startswith('pkat.')]\n"
             "pkat.check_axiom\n"
             "assert 'pkat.catalog' in sys.modules and 'check_axiom' in vars(pkat)\n"
             "pkat.lattice.meet\n"
             "assert 'pkat.algebra' in sys.modules and 'pkat.modelfile' not in sys.modules\n"
             "assert 'meet' in vars(pkat.lattice) and pkat.lattice.meet is pkat.algebra.meet\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


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


def _readme_block(heading, language):
    """The first fenced ``language`` block under README's ``## heading``."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.S | re.M)[1]


def test_the_readme_library_example_runs_as_written(capsys, data_dir, tmp_path, monkeypatch):
    model = (data_dir / "two_state.json").read_text()
    assert json.loads(_readme_block("Model files", "json")) == json.loads(model)
    (tmp_path / "model.json").write_text(model)
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_block("Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:4] == [
        "w1 w1 <(top,bot)> consistent",
        "w1 w2 <(top,bot)> consistent",
        "w2 w1 <(u,u)> consistent",
        "w2 w2 <(u,bot)> vague",
    ]
