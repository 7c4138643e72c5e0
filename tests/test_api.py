"""The public names of `phda`, pinned so that a change to them is deliberate, and their lazy resolution."""
import importlib
import importlib.util

import pytest

import phda

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
