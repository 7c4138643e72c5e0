"""Labelled cubical transition models with partial faces.

Cells of dimension n stand for n actions running at once; faces may be
missing, subject to a closure law for composite faces.  The package
validates models and maps, completes partial models to total ones,
enumerates and classifies executions up to confluent homotopy, glues
diagrams of execution shapes, unfolds models into trees, and checks
open-map/covering/lifting properties.
"""
from .colimits import Arrow, ColimitResult, Diagram, check_cocone, colimit, mediate
from .completion import Completion, complete, complete_morphism, completion_of, counit
from .homotopy import (
    HomotopyClass,
    are_confluently_homotopic,
    classes_to,
    find_shortcuts,
)
from .lifting import (
    ExtensionSquare,
    LiftReport,
    construct_lift,
    enumerate_morphisms,
    is_cofibrant,
    is_covering,
    is_open,
)
from .model import (
    PHDA,
    Cell,
    Morphism,
    Violation,
    build,
    compose,
    face,
    identity,
    is_hda,
    saturate,
    validate_morphism,
    validate_phda,
)
from .paths import (
    Path,
    Spine,
    empty_path,
    enumerate_paths,
    map_path,
    morphism_to_path,
    path_shape,
    path_to_morphism,
    spine_of,
    validate_path,
)
from .unfolding import TreeReport, UnfoldResult, is_tree, tree_unit, unfold
from .words import EPSILON, FUTURE, PAST, FaceWord, delete_letters, single, star, word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
