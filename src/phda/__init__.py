"""Labelled cubical transition models with partial faces.

Cells of dimension n stand for n actions running at once; faces may be
missing, subject to a closure law for composite faces.  The package
validates models and maps, completes partial models to total ones,
enumerates and classifies executions up to confluent homotopy, glues
diagrams of execution shapes, unfolds models into trees, and checks
open-map/covering/lifting properties.

Public names resolve on first use (PEP 562), so `import phda` loads no
submodule and a command imports only the modules it runs.
"""
from importlib import import_module

_PUBLIC = {  # submodule -> the public names it defines
    "colimits": ("Arrow", "ColimitResult", "Diagram", "check_cocone", "colimit", "mediate"),
    "completion": ("Completion", "complete", "complete_morphism", "completion_of", "counit"),
    "errors": (),
    "homotopy": ("HomotopyClass", "are_confluently_homotopic", "classes_to", "find_shortcuts"),
    "lifting": (
        "ExtensionSquare", "LiftReport", "construct_lift", "enumerate_morphisms", "is_cofibrant", "is_covering",
        "is_open",
    ),
    "model": (
        "PHDA", "Cell", "Morphism", "Violation", "build", "compose", "identity", "is_hda", "saturate",
        "validate_morphism", "validate_phda",
    ),
    "paths": (
        "Path", "Spine", "empty_path", "enumerate_paths", "map_path", "morphism_to_path", "path_shape",
        "path_to_morphism", "spine_of", "validate_path",
    ),
    "uf": (),
    "unfolding": ("TreeReport", "UnfoldResult", "is_tree", "tree_unit", "unfold"),
    "words": ("EPSILON", "FUTURE", "PAST", "FaceWord", "delete_letters", "single", "star", "word"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
