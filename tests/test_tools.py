"""Checks on the code around the program: the tracer's seams and the same-bytes tool."""

import importlib.util
import sys
from pathlib import Path

from equitopo.topology import DYNAMIC_FAMILIES, TopologySpec, build_topology

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str):
    """Import the module at `path` under `name`, as a script's directory would."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_in_its_owners_own_namespace():
    """The tracer wraps `vars(owner)[attr]` for each of its targets and puts it back after
    the call; a seam moved to a base class, or out of a module, would be missed or left
    wrapped.  This keeps the seams in place without running the benchmark."""
    spans = load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    missing = [(layer, getattr(owner, "__qualname__", owner.__name__), attr)
               for layer, owner, attr, _ in spans.TARGETS if attr not in vars(owner)]
    assert spans.TARGETS and not missing


def test_every_dynamic_family_draws_through_one_traced_sample():
    """`build_topology` returns, for each dynamic family, an instance of a class whose own
    `sample` the tracer wraps, so every draw is one sample span; and no seam is listed
    twice, which would wrap a wrapper."""
    spans = load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    owners = {owner for layer, owner, attr, _ in spans.TARGETS
              if (layer, attr) == (spans.SAMPLE, "sample")}
    for family in DYNAMIC_FAMILIES:
        assert type(build_topology(TopologySpec(family, 16, rho=0.9))) in owners, family
    seams = [(owner, attr) for _, owner, attr, _ in spans.TARGETS]
    assert len(seams) == len(set(seams))


def test_samebytes_finds_one_planted_byte_and_nothing_else(tmp_path):
    """Two runs of one tiny grid on the working tree compare equal, commands that fail
    included; one flipped byte in a CSV and one changed exit code are each reported."""
    samebytes = load(ROOT / "tools" / "samebytes.py", "samebytes")
    grid = [["topo-build", "--family=ring", "--n=5"],
            ["topo-verify", "--family=ou-equidyn", "--n=7", "--trials=100", "--seed=3"],
            ["size-sweep", "--family=od-equidyn", "--sizes=4,6", "--iters=3", "--trials=1"],
            ["topo-build", "--family=grid", "--n=5"]]
    a, b = tmp_path / "a", tmp_path / "b"
    results = samebytes.run_sides([(ROOT / "src", a), (ROOT / "src", b)], grid)
    assert [r["code"] for r in results[0]] == [0, 0, 0, 2]
    differences, files = samebytes.compare(a, b, *results)
    assert (differences, files) == ([], 10)
    csv = b / "c0001.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))
    results[1][3]["code"] = 3
    differences, _ = samebytes.compare(a, b, *results)
    assert differences == ["code differs: topo-build --family=grid --n=5 --out=c0003.csv",
                           "differs: c0001.csv"]
