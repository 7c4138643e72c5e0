"""The public names of `phda`, pinned so that a change to them is deliberate."""
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
