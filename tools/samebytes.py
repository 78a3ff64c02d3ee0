"""The same-bytes check: run one grid of `topo` commands at a git ref and at the working
tree, and compare every byte they write.

    python tools/samebytes.py REF

REF is extracted from the repository with `git archive` into a temporary
directory; the working tree runs as it is, uncommitted edits included.  Each
side runs the whole grid in one Python process that imports `equitopo` from
that side's `src` and calls `equitopo.cli.main` once per command, inside the
side's own empty output directory, so every `--out`, which the sidecar
echoes, is the same relative path on both sides.  Every file written (CSVs,
sidecars, size-sweep parts) is compared byte for byte, and so are each
command's exit code, stdout and stderr.  The tool lists what differs and
exits 1 if anything does, 0 if nothing does.

The grid: `topo-build` and `topo-verify` of every family at n = 2..40 and
2000; `consensus` and `size-sweep` of every family at seeds 1 and 2; `dsgd`
and `dsgt` of every family with both problems; the benchmark's workloads
(`perfbench/workloads.py`) at seeds 1-20.  Commands a family refuses (a grid
whose n is not a square, say) are part of the grid: their exit codes and
messages are compared too.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in each side's process: argv lists on stdin, one result per command on stdout
RUNNER = """
import contextlib, io, json, sys, warnings
import equitopo.cli

def show(message, category, *_):   # no source path, which differs between the sides
    print(f"{category.__name__}: {message}", file=sys.stderr)

warnings.showwarning = show
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = equitopo.cli.main(argv)
        except Exception as exc:   # an uncaught error is a result to compare
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    results.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue()})
json.dump({"module": equitopo.cli.__file__, "results": results}, sys.stdout)
"""


def full_grid() -> list[list[str]]:
    """The command grid of the module docstring, without `--out`: the working tree's
    families and benchmark workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from equitopo.topology import FAMILIES as families
    from workloads import WORKLOADS as workloads
    grid = [[command, f"--family={family}", f"--n={n}"]
            for command in ("topo-build", "topo-verify") for family in families
            for n in [*range(2, 41), 2000]]
    for family in families:
        for seed in (1, 2):
            grid.append(["consensus", f"--family={family}", "--n=64", "--iters=30",
                         f"--seed={seed}"])
            grid.append(["size-sweep", f"--family={family}", "--sizes=16,64", "--iters=30",
                         f"--seed={seed}"])
        for command in ("dsgd", "dsgt"):
            for problem in ("least-squares", "logistic"):
                grid.append([command, f"--family={family}", "--n=16", "--iters=50",
                             f"--problem={problem}", "--seed=2"])
    grid += [[w.command, *w.flags(), f"--seed={seed}"]
             for w in workloads.values() for seed in range(1, 21)]
    return grid


def run_sides(sides: list[tuple[Path, Path]], grid: list[list[str]]) -> list[list[dict]]:
    """Run `grid` once per (src, out) side, all sides at once, command i writing `c{i}.csv`
    in the side's `out`; each side's results, one dict per command."""
    argvs = [[*argv, f"--out=c{i:04d}.csv"] for i, argv in enumerate(grid)]
    procs = []
    for src, out in sides:
        out.mkdir(parents=True)
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen([sys.executable, "-c", RUNNER], cwd=out, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        proc.stdin.write(json.dumps(argvs))
        proc.stdin.close()
        procs.append((src, proc))
    results = []
    for src, proc in procs:
        report = proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"the runner for {src} exited {proc.returncode}")
        report = json.loads(report)
        if not Path(report["module"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"the runner for {src} imported {report['module']}")
        results.append(report["results"])
    return results


def compare(a: Path, b: Path, results_a: list[dict], results_b: list[dict],
            names=("a", "b")) -> tuple[list[str], int]:
    """What differs between two sides' output directories and command results, one line
    each, and the number of files compared."""
    differences = [f"{key} differs: {' '.join(ra['argv'])}"
                   for ra, rb in zip(results_a, results_b)
                   for key in ("code", "stdout", "stderr") if ra[key] != rb[key]]
    files = [{p.relative_to(side) for p in side.rglob("*") if p.is_file()} for side in (a, b)]
    for name in sorted(files[0] | files[1]):
        if name not in files[1]:
            differences.append(f"only at {names[0]}: {name}")
        elif name not in files[0]:
            differences.append(f"only at {names[1]}: {name}")
        elif not filecmp.cmp(a / name, b / name, shallow=False):
            differences.append(f"differs: {name}")
    return differences, len(files[0] | files[1])


def extract(ref: str, dest: Path) -> None:
    """The tree of `ref` in `dest`, by `git archive`; the repository is left as it is."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git ref to compare the working tree with")
    args = parser.parse_args(argv)
    grid = full_grid()
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        extract(args.ref, tmp / "ref")
        sides = [(tmp / "ref" / "src", tmp / "out-ref"), (ROOT / "src", tmp / "out-tree")]
        results = run_sides(sides, grid)
        differences, files = compare(sides[0][1], sides[1][1], *results,
                                     names=(args.ref, "the working tree"))
    for line in differences:
        print(line)
    print(f"{len(grid)} commands, {files} files: {len(differences)} differences "
          f"between {args.ref} and the working tree")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
