"""The public names of `phda` and the CLI's subcommands, pinned so that a change is deliberate; lazy name resolution."""
import argparse
import importlib
import importlib.util

import pytest

import phda
from phda.cli import build_parser

PUBLIC = [
    "Arrow", "Cell", "ColimitResult", "Completion", "Diagram", "EPSILON", "ExtensionSquare",
    "FUTURE", "FaceWord", "HomotopyClass", "LiftReport", "Morphism", "PAST", "PHDA", "Path",
    "Spine", "TreeReport", "UnfoldResult", "Violation", "are_confluently_homotopic", "build",
    "check_cocone", "classes_to", "colimit", "colimits", "complete", "complete_morphism",
    "completion", "completion_of", "compose", "construct_lift", "counit", "delete_letters",
    "empty_path", "enumerate_morphisms", "enumerate_paths", "errors", "face",
    "find_shortcuts", "homotopy", "identity", "is_cofibrant", "is_covering", "is_hda", "is_open",
    "is_tree", "lifting", "map_path", "mediate", "model", "morphism_to_path", "path_shape",
    "path_to_morphism", "paths", "saturate", "single", "spine_of", "star", "tree_unit", "uf",
    "unfold", "unfolding", "validate_morphism", "validate_path", "validate_phda", "word", "words",
]


def test_public_names_are_pinned():
    assert sorted(phda.__all__) == PUBLIC


def test_names_resolve_lazily_to_their_defining_module():
    modules = sorted(name for name in phda.__all__ if importlib.util.find_spec(f"phda.{name}"))
    spaces = [vars(importlib.import_module(f"phda.{m}")) for m in modules]
    for name in phda.__all__:
        value = phda.__getattr__(name)  # the resolver itself, whether or not the name is cached yet
        assert getattr(phda, name) is value
        if name in modules:
            assert value is importlib.import_module(f"phda.{name}")
        else:  # every submodule that holds the name holds this object
            held = [space[name] for space in spaces if name in space]
            assert held and all(v is value for v in held), name


def test_dir_unknown_names_and_star_import():
    assert set(phda.__all__) <= set(dir(phda))
    assert "__version__" in dir(phda)
    with pytest.raises(AttributeError, match="no_such_name"):
        phda.no_such_name
    assert not hasattr(phda, "no_such_name")
    namespace = {}
    exec("from phda import *", namespace)
    assert {name: namespace[name] for name in phda.__all__} == {name: getattr(phda, name) for name in phda.__all__}


MODEL = ([], "model", None, None, True, None)
MAX_LEN = (["--max-len"], "max_len", int, None, False, None)

# subcommand, help, and per argument: option strings, dest, type, default, required, help
CLI = [
    ("validate", "check a model file against all structural laws", [MODEL]),
    ("complete", "adjoin every missing face", [MODEL]),
    ("paths", "enumerate executions",
     [MODEL, (["--to"], "to", None, None, False, "only executions ending at this cell"), MAX_LEN]),
    ("homotopy", "group executions to a cell by confluent homotopy",
     [MODEL, (["--to"], "to", None, None, True, None), MAX_LEN]),
    ("is-tree", "decide the unique-execution property", [MODEL]),
    ("unfold", "depth-bounded tree of execution classes", [MODEL, (["--depth"], "depth", int, None, True, None)]),
    ("colimit", "glue a diagram of execution shapes", [([], "diagram", None, None, True, None)]),
    ("check-open", "right lifting property against execution extensions",
     [([], "morphism", None, None, True, None), MAX_LEN]),
    ("check-covering", "open with unique lifts", [([], "morphism", None, None, True, None), MAX_LEN]),
    ("lift", "lift a tree-domain map through an open map", [
        ([], "g_morphism", None, None, True, "map out of the tree"),
        ([], "f_morphism", None, None, True, "open map with the same codomain"),
    ]),
    ("dot", "deterministic DOT export", [MODEL]),
]


def test_cli_subcommands_and_arguments_are_pinned():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    got = [
        (name, helps[name], [
            (a.option_strings, a.dest, a.type, a.default, a.required, a.help)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, p in sub.choices.items()
    ]
    assert got == CLI
