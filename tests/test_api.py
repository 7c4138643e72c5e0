"""The public names of `phda` and the CLI's subcommands, pinned so that a change is deliberate; lazy name resolution;
the value semantics of the records."""
import argparse
import copy
import dataclasses
import importlib
import importlib.util
import itertools
import pickle

import pytest

import phda
from phda import fixtures as F
from phda.cli import COMMANDS, build_parser
from phda.colimits import colimit
from phda.completion import completion_of
from phda.errors import FrozenInstanceError
from phda.homotopy import ExecutionClass, classes_to
from phda.lifting import LiftReport, is_covering
from phda.model import identity
from phda.paths import PathIssue, enumerate_paths, spine_of
from phda.unfolding import TreeReport, is_tree, unfold
from phda.words import EPSILON, single

from oracles import RECORD_FIELDS, dataclass_twin

PUBLIC = [
    "Arrow", "Cell", "ColimitResult", "Completion", "Diagram", "EPSILON", "ExtensionSquare",
    "FUTURE", "FaceWord", "HomotopyClass", "LiftReport", "Morphism", "PAST", "PHDA", "Path",
    "Spine", "TreeReport", "UnfoldResult", "Violation", "are_confluently_homotopic", "build",
    "check_cocone", "classes_to", "colimit", "colimits", "complete", "complete_morphism",
    "completion", "completion_of", "compose", "construct_lift", "counit", "delete_letters",
    "empty_path", "enumerate_morphisms", "enumerate_paths", "errors",
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


def subcommands(parser):
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_cli_subcommands_and_arguments_are_pinned():
    sub = subcommands(build_parser())
    helps = {a.dest: a.help for a in sub._choices_actions}
    got = [
        (name, helps[name], [
            (a.option_strings, a.dest, a.type, a.default, a.required, a.help)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, p in sub.choices.items()
    ]
    assert got == CLI


def test_a_command_line_builds_the_parser_of_its_command_alone():
    full = subcommands(build_parser())
    for name in COMMANDS:
        sub = subcommands(build_parser(name))
        assert list(sub.choices) == [name] and sub.metavar == "{%s}" % ",".join(COMMANDS)
        assert sub.choices[name].format_help() == full.choices[name].format_help()
    assert subcommands(build_parser("no-such-command")).choices.keys() == COMMANDS.keys()


def record_pairs():
    """Two records of each frozen record class, with different values."""
    square, glued = F.full_square(), F.glued_square()
    p, q = enumerate_paths(square, 2)[1:3]
    unfolded = unfold(square, 2)
    fold = F.branch_fold(2, 1)
    diagram = F.glued_square_diagram()
    return {
        "Cell": list(square.cells.values())[:2],
        "PHDA": [square, glued],
        "Morphism": [identity(square), unfolded.cover],
        "Violation": [phda.Violation("NotTotal", ("a",), "maps to None"), phda.Violation("BadInitial", ("b", 1))],
        "Path": [p, q],
        "Spine": [spine_of(p), spine_of(q)],
        "PathIssue": [PathIssue("BadStep", 2), PathIssue("BadStart")],
        "Arrow": list(diagram.arrows[:2]),
        "Diagram": [diagram, phda.Diagram({"A": diagram.objects["A"]})],
        "ColimitResult": [colimit(diagram), colimit(phda.Diagram({}))],
        "ExtensionSquare": [is_covering(fold, 4).square, phda.ExtensionSquare(p, (1, 1), "11")],
        "LiftReport": [is_covering(fold, 4), is_covering(identity(square), 4)],
        "UnfoldResult": [unfolded, unfold(square, 3)],
        "TreeReport": [is_tree(square), TreeReport(True)],
        "AbstractFace": [phda.completion.AbstractFace(single(1, 0), "1*"), phda.completion.AbstractFace(EPSILON, "00")],
        "Completion": [completion_of(F.split_segment()), completion_of(F.notched_square())],
        "HomotopyClass": classes_to(square, "11", 4)[:1] + [phda.HomotopyClass(q, 2)],
    }


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_keep_the_value_semantics_of_frozen_dataclasses(cls):
    twin = dataclass_twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    assert cls._fields == tuple(names)
    values = [tuple(getattr(r, name) for name in names) for r in record_pairs()[cls.__name__]]
    assert values[0] != values[1]
    records = [cls(*v) for v in values] + [cls(**dict(zip(names, v))) for v in values]
    twins = [twin(*v) for v in values] * 2
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        try:
            assert hash(r) == hash(t)
        except TypeError:  # the record holds a dict
            with pytest.raises(TypeError):
                hash(t)
        for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            # a copied frozenset may iterate in another order, so the copy's repr is its own twin's
            assert type(again) is cls and again == r
            assert repr(again) == repr(twin(*(getattr(again, name) for name in names)))
        for name in names + ["other"]:
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)
        assert r != t and r != values[0]
    for (r, t), (s, u) in itertools.product(zip(records, twins), repeat=2):
        assert (r == s, r != s) == (t == u, t != u)
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    given = dict(zip(names, values[0]))
    assert repr(cls(*(given[n] for n in required))) == repr(twin(*(given[n] for n in required)))
    assert repr(cls(**{n: given[n] for n in required})) == repr(twin(**{n: given[n] for n in required}))


@pytest.mark.parametrize("args, kwargs", [
    ((True, None, None, None), {}),  # too many positional arguments
    ((True,), {"other": 1}),  # an unknown keyword
    ((True,), {"ok": False}),  # a field given twice
    ((), {"square": None}),  # a field without a default left out
], ids=["extra", "unknown", "twice", "missing"])
def test_record_init_rejects_the_arguments_a_dataclass_rejects(args, kwargs):
    for cls in (LiftReport, dataclass_twin(LiftReport)):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_execution_classes_can_be_set_and_compare_by_identity():
    a, b = (ExecutionClass(0, "00", 0, 1, None, None, {}, []) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2
    a.size, a.prefix = 2, 0
    assert repr(a) == ("ExecutionClass(ordinal=0, end='00', level=0, size=2, step=None, prefix=0, "
                       "successors={}, runs=[])")
