"""The demo scripts and the README's library tour and CLI block, run as a reader of the README would run them."""
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import phda
from phda.cli import main
from phda.fixtures import cube
from phda.jsonio import model_to_dict
from phda.unfolding import unfold

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    # the child imports the same package as this process, also when only pytest's pythonpath finds it
    src = os.path.dirname(os.path.dirname(phda.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def readme_cli_lines():
    """(arguments, exit code the README states, 0 when it states none) of each `phda` line of its CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command.split("|")[0])
        if argv[:1] == ["phda"]:
            stated = re.match(r"\s*exit (\d)", comment)
            lines.append((argv[1:], int(stated.group(1)) if stated else 0))
    return lines


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A directory holding `fixtures/`, written by the export script as the README's CLI block does."""
    root = tmp_path_factory.mktemp("readme")
    proc = run_script("export_fixtures.py", "fixtures", cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == len(list((root / "fixtures").iterdir())) > 0
    return root


def test_exported_files_are_json_dumps(exported):
    for path in sorted((exported / "fixtures").iterdir()):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


README_LINES = readme_cli_lines()


def test_readme_cli_block_is_parsed():
    assert len(README_LINES) == 12
    assert (["is-tree", "fixtures/full_square.json"], 1) in README_LINES
    assert (["check-covering", "fixtures/branch_fold.json"], 1) in README_LINES


@pytest.mark.parametrize("argv, code", README_LINES, ids=[" ".join(argv) for argv, _ in README_LINES])
def test_readme_cli_line(exported, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(exported)
    assert main(argv) == code
    assert capsys.readouterr().out


def test_readme_library_tour(capsys):
    """Each printed line starts with its comment's text, up to a `...` or `:`."""
    block = (ROOT / "README.md").read_text().split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    stated = [re.split(r"\.\.\.|:", line.partition("#")[2], maxsplit=1)[0].strip()
              for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(stated) == 4
    for line, text in zip(printed, stated):
        assert line.startswith(text), (line, text)


def test_unfold_demo_finds_trees_and_coverings():
    proc = run_script("unfold_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("depth 6:") == 4
    assert "NOT-TREE" not in proc.stdout and "NOT-COVERING" not in proc.stdout


def test_glued_square_demo():
    proc = run_script("glued_square_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "confluently homotopic: True" in proc.stdout and "is_tree: True" in proc.stdout


def test_time_load_reports_each_phase(exported):
    path = exported / "fixtures" / "full_square.json"
    proc = run_script("time_phases.py", "load", "--repeat", "2", str(path))
    assert proc.returncode == 0, proc.stderr
    entries = len(json.loads(path.read_text())["faces"])
    assert re.fullmatch(
        rf"{re.escape(str(path))}: {entries} entries, \d+ distinct words; "
        r"json\.load [\d.]+ ms, model_from_dict [\d.]+ ms, is_tree [\d.]+ ms \(median of 2\)\n",
        proc.stdout,
    ), proc.stdout


def test_time_startup_reports_each_phase(exported):
    proc = run_script("time_phases.py", "startup", "--repeat", "2", "--", "is-tree", "fixtures/full_square.json", cwd=exported)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(
        r"is-tree fixtures/full_square\.json: interpreter [\d.]+ ms, imports [\d.]+ ms, parser [\d.]+ ms, "
        r"run [\d.]+ ms, exit [\d.]+ ms; cpu [\d.]+ ms; exit 1 \(median of 2\)\n",
        proc.stdout,
    ), proc.stdout
    proc = run_script("time_phases.py", "startup", "--repeat", "1", "--", "no-such-command", cwd=exported)
    assert proc.returncode == 1 and "did not parse" in proc.stderr


def test_time_unfold_reports_each_phase():
    proc = run_script("time_phases.py", "unfold", "--repeat", "2", "--dim", "3", "--depth", "4")
    assert proc.returncode == 0, proc.stderr
    tree = unfold(cube(3), 4).tree
    text = json.dumps(model_to_dict(tree), indent=2, sort_keys=True)
    assert re.fullmatch(
        rf"cube-3 depth 4: {len(tree.cells)} classes, {len(tree.faces)} entries, {len(text)} bytes; "
        r"explore [\d.]+ ms, unfold [\d.]+ ms, model_to_dict [\d.]+ ms, write_json [\d.]+ ms \(median of 2\)\n",
        proc.stdout,
    ), proc.stdout


def test_reach_lists_the_functions_no_catalogue_command_enters():
    proc = run_script("catalogue.py", "reach", "--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *listed, total = proc.stdout.splitlines()
    assert re.fullmatch(rf"{len(listed)} of \d+ functions never entered by \d+ catalogue commands", total), total
    names = {re.fullmatch(r"\w+:\d+ ([\w.<>]+)", line).group(1) for line in listed}
    assert {"mediate", "check_cocone", "tree_unit"} <= names  # constructions of the paper that no command runs
    assert not {"main", "is_tree", "unfold", "completion_of", "write_json"} & names
    assert not {"__getattr__", "Record.__init_subclass__"} & names  # run while a CLI process imports the library


@pytest.mark.parametrize("args", [(), ("digests", "--hash-seed", "1")])
def test_catalogue_needs_a_subcommand_and_digests_takes_no_option(args):
    proc = run_script("catalogue.py", *args)
    assert proc.returncode == 2 and proc.stderr.startswith("usage: catalogue.py"), proc.stderr
    assert not proc.stdout
