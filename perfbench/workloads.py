"""The benchmark's workloads: input files and CLI command lists, from a seed.

A workload is a fixed list of `phda` commands over generated input files.
The seed picks which members of the seeded catalogues (partial cubes,
branch folds) are used and the order of the commands; everything else is
fixed.  Each command carries the exit code the paper's theorems predict:

- n-cubes with n >= 2 and punctured cubes are not trees (`is-tree` exits 1);
- unfoldings are trees (`is-tree` exits 0);
- an unfolding's cover is a covering, hence open (exit 0), and every
  cover out of a shallower unfolding lifts through it (trees lift through
  open maps);
- `branch_fold(n, m)` with n > m hits every branch, so it is open (exit 0),
  but some square has n - m + 1 lifts, so it is not a covering (exit 1);
- completing the total n-cube gives its 3^n cells back.

A full-size pass has 25 commands, so a run's four passes give the 100
samples the percentiles need.  In each list one or two commands cost the
most, and below them comes a band of four commands of similar cost, well
above the rest.  The 90th percentile then falls inside the band, on
samples of several commands, not on the few samples of one command or on
the edge between two unlike commands; so it moves little from run to
run.  The band holds no or few seeded catalogue members, so
the percentile depends little on which members the seed picked.

`top` caps the cube dimension; the self-test uses top=3.  `every=True`
takes whole catalogues instead of a seeded sample, which is how the pinned
digests are made.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from phda.jsonio import diagram_to_dict, model_to_dict, morphism_to_dict
from phda.unfolding import unfold

import generators as G

VARIANTS = 24  # size of the seeded partial-cube catalogue per dimension
FOLDS = [(n, m) for n in range(2, 8) for m in range(1, n)]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: int  # exit code predicted by the theorems above
    cells: int | None = None  # cell count of the output model, where a theorem fixes it

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Plan:
    files: Callable[[], Iterator[tuple[str, dict]]]
    commands: list[Command]


def _cube(n: int) -> str:
    return f"cube-{n}.json"


def _punct(n: int) -> str:
    return f"punct-{n}.json"


def _partial(n: int, v: int) -> str:
    return f"partial-{n}-v{v:02d}.json"


def _pick(rng: random.Random, population: Sequence, k: int, every: bool) -> list:
    return list(population) if every else sorted(rng.sample(population, k))


def unfold_cubes(seed: int, top: int = 4, every: bool = False) -> Plan:
    """Unfolding and homotopy classes on cubes: the path-class explorer's workload."""
    rng = random.Random(f"unfold-cubes/{seed}")
    p3 = _pick(rng, range(VARIANTS), 8, every)
    p4 = _pick(rng, range(VARIANTS), 5, every) if top >= 4 else []

    def files():
        for n in range(3, top + 1):
            yield _cube(n), model_to_dict(G.cube(n))
            yield _punct(n), model_to_dict(G.punctured_cube(n))
        for n, vs in ((3, p3), (4, p4)):
            for v in vs:
                yield _partial(n, v), model_to_dict(G.partial_cube(n, v))

    cmds = []
    if top >= 4:
        cmds.append(Command(("unfold", _cube(4), "--depth", "8"), 0))
        cmds.append(Command(("unfold", _punct(4), "--depth", "8"), 0))
        # the band: half to two thirds of the cost of the two above
        for x in (_cube(4), _punct(4)):
            cmds.append(Command(("unfold", x, "--depth", "7"), 0))
            cmds.append(Command(("homotopy", x, "--to", "1111", "--max-len", "8"), 0))
    # at depth 6 a partial 4-cube costs half of the band's cheapest command, at depth 8 up to all of it
    for n, vs in ((3, p3), (4, p4)):
        cmds += [Command(("unfold", _partial(n, v), "--depth", "6"), 0) for v in vs]
    for x in (_cube(3), _punct(3)):
        cmds += [Command(("unfold", x, "--depth", str(depth)), 0) for depth in (3, 6)]
        cmds.append(Command(("homotopy", x, "--to", "111", "--max-len", "6"), 0))
    rng.shuffle(cmds)
    return Plan(files, cmds)


def decide_trees(seed: int, top: int = 5, every: bool = False) -> Plan:
    """Tree recognition, covering/openness checks and lifting; nothing is unfolded in a pass."""
    rng = random.Random(f"decide-trees/{seed}")
    unfolded = [n for n in (3, 4) if n <= top]
    folds = _pick(rng, FOLDS, 4, every)

    def files():
        for n in range(3, top + 1):
            yield _cube(n), model_to_dict(G.cube(n))
        for n in unfolded:
            yield _punct(n), model_to_dict(G.punctured_cube(n))
            for depth in (n, 2 * n - 2, 2 * n):
                result = unfold(G.cube(n), depth)
                tree = f"unfold-cube-{n}-d{depth}.json"
                yield tree, model_to_dict(result.tree)
                cover = {"source": tree, "target": _cube(n), "map": dict(sorted(result.cover.mapping.items()))}
                yield f"cover-cube-{n}-d{depth}.json", cover
        for n, m in folds:
            yield f"fold-{n}-{m}.json", morphism_to_dict(G.branch_fold(n, m))

    # is-tree on cube(5) and on the depth-8 unfolding of cube(4) cost the most; the band
    # below them is the depth-8 cover's checks, its lift and is-tree on the depth-6 unfolding
    cmds = [Command(("is-tree", _cube(n)), 1) for n in range(3, top + 1)]
    for n in unfolded:
        cmds.append(Command(("is-tree", _punct(n)), 1))
        for depth in (2 * n - 2, 2 * n):
            cmds.append(Command(("is-tree", f"unfold-cube-{n}-d{depth}.json"), 0))
        # a cover truncated at depth d is a covering up to length d - 1
        for depth, bound in ((2 * n, 2 * n), (2 * n - 2, 2 * n - 3)):
            cover = f"cover-cube-{n}-d{depth}.json"
            if n == 3 or depth == 2 * n:
                cmds.append(Command(("check-covering", cover, "--max-len", str(bound)), 0))
                cmds.append(Command(("check-open", cover, "--max-len", str(bound)), 0))
        cmds.append(Command(("lift", f"cover-cube-{n}-d{n}.json", f"cover-cube-{n}-d{2 * n}.json"), 0))
    for n, m in folds:
        cmds.append(Command(("check-covering", f"fold-{n}-{m}.json"), 1))
        cmds.append(Command(("check-open", f"fold-{n}-{m}.json"), 0))
    rng.shuffle(cmds)
    return Plan(files, cmds)


def build_complete(seed: int, top: int = 6, every: bool = False) -> Plan:
    """Completion, saturation of generator-only files, and glueing; no path search."""
    rng = random.Random(f"build-complete/{seed}")
    cubes = [n for n in (3, 4, 5) if n <= top]
    # validating the generator-only 6-cube costs the most; the band below it is completing
    # the punctured, the total and two partial 5-cubes
    partials = {n: _pick(rng, range(VARIANTS), k, every) for n, k in ((3, 5), (4, 8), (5, 2)) if n <= top}
    generated = [n for n in (5, 6) if n <= top] or [top]
    orders = [n for n in (2, 3, 4, 5) if n <= top]
    punctured = min(top, 5)

    def files():
        for n in cubes:
            yield _cube(n), model_to_dict(G.cube(n))
        yield _punct(punctured), model_to_dict(G.punctured_cube(punctured))
        for n, vs in partials.items():
            for v in vs:
                yield _partial(n, v), model_to_dict(G.partial_cube(n, v))
        for n in generated:
            yield f"gen-cube-{n}.json", G.cube_generators_doc(n)
        for n in orders:
            yield f"finish-order-{n}.json", diagram_to_dict(G.finish_order_diagram(n))

    cmds = [Command(("complete", _cube(n)), 0, cells=3**n) for n in cubes]
    cmds.append(Command(("complete", _punct(punctured)), 0))
    for n, vs in partials.items():
        cmds += [Command(("complete", _partial(n, v)), 0) for v in vs]
    cmds += [Command(("validate", f"gen-cube-{n}.json"), 0) for n in generated]
    cmds += [Command(("colimit", f"finish-order-{n}.json"), 0) for n in orders]
    rng.shuffle(cmds)
    return Plan(files, cmds)


WORKLOADS = {
    "unfold-cubes": unfold_cubes,
    "decide-trees": decide_trees,
    "build-complete": build_complete,
}
