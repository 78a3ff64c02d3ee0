"""Fast self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, with its output checks,
shows that each check rejects a deliberately corrupted output and that a
repeat writing different bytes counts as a failure.  Exits
non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

from run import ROOT, prepare

TINY = {
    "static-build": {"n": 200},
    "onepeer-verify": {"n": 100, "trials": 200},
    "dsgt-onepeer": {"n": 20, "m": 19, "iters": 20, "samples": 20},
}


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _rho_above_bound(csv: Path) -> None:
    """Corrupt a verify output: rho_measured := 0.9 in the CSV row and the sidecar."""
    def row(lines):
        fields = lines[1].split(",")
        fields[4] = "0.9"
        return [lines[0], ",".join(fields)]
    _rewrite(csv, row)
    _rewrite(Path(f"{csv}.meta"), lambda lines: [
        "rho_measured = 0.9" if line.startswith("rho_measured") else line for line in lines])


def _edit_weight(transform):
    """Corrupt a matrix export: apply `transform` to the first off-diagonal weight."""
    def corrupt(csv: Path) -> None:
        def edit(lines):
            for k, line in enumerate(lines[1:], start=1):
                r, c, w = line.split(",")
                if r != c:
                    lines[k] = f"{r},{c},{transform(float(w))!r}"
                    return lines
            raise AssertionError("no off-diagonal entry")
        _rewrite(csv, edit)
    return corrupt


def _shift_meta_rho(csv: Path) -> None:
    _rewrite(Path(f"{csv}.meta"), lambda lines: [
        f"rho_measured = {float(line.split(' = ')[1]) + 1e-3!r}"
        if line.startswith("rho_measured") else line for line in lines])


def _nan_value(csv: Path) -> None:
    _rewrite(csv, lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"])


# workload -> (expected message fragment, corruption) pairs
CORRUPTIONS = {
    "static-build": [
        ("negative weight", _edit_weight(lambda w: -w)),
        ("sums deviate", _edit_weight(lambda w: w * (1.0 + 1e-9))),
        ("differs from exact factor", _shift_meta_rho),
    ],
    "onepeer-verify": [("exceeds 2/3", _rho_above_bound)],
    "dsgt-onepeer": [
        ("diverged", lambda csv: _rewrite(Path(f"{csv}.meta"),
                                          lambda lines: lines + ["diverged_trials = 1"])),
        ("rows, expected", lambda csv: _rewrite(csv, lambda lines: lines[:-1])),
        ("non-finite", _nan_value),
    ],
}


def main() -> int:
    prepare()
    import harness
    from spans import SELF_TIME
    from workloads import WORKLOADS, CheckError

    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    per_layer_names = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    _expect(set(TINY) == set(WORKLOADS) == set(CORRUPTIONS), "every workload is covered")
    for name, params in TINY.items():
        workload = WORKLOADS[name].resized(**params)

        ledger = harness.Ledger()
        metrics, detail = harness.end_to_end(workload, 7, 0.0, work, ledger)
        _expect(not ledger.failures, f"{name}: untraced run failed: {ledger.failures}")
        _expect(ledger.attempted == 2 and detail["run_s_samples"] == 1,
                f"{name}: expected one warm-up and one timed execution")
        _expect(all(v > 0 for v, _ in metrics.values()), f"{name}: a zero end-to-end metric")

        ledger = harness.Ledger()
        metrics, detail = harness.per_layer(workload, 7, 0.0, work, ledger)
        _expect(not ledger.failures, f"{name}: traced run failed: {ledger.failures}")
        _expect(set(metrics) == per_layer_names,
                f"{name}: per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ per_layer_names)}")
        accounted = sum(metrics[m][0] for m in (*SELF_TIME.values(), "other.s"))
        _expect(math.isclose(accounted, metrics["trace.run_s"][0], rel_tol=1e-9),
                f"{name}: layer self times plus other.s do not add up to trace.run_s")

        out = work / f"{name}.csv"
        for fragment, corrupt in CORRUPTIONS[name]:
            bad = work / f"{name}-corrupt.csv"
            shutil.copy(out, bad)
            shutil.copy(f"{out}.meta", f"{bad}.meta")
            corrupt(bad)
            try:
                workload.check(bad, workload)
            except CheckError as exc:
                _expect(fragment in str(exc), f"{name}: rejected for another reason: {exc}")
            else:
                raise SystemExit(f"selftest FAILED: {name}: accepted a corrupted output "
                                 f"({fragment})")
            print(f"{name}: check rejects corrupted output ({fragment})")
        ledger = harness.Ledger(hashes={1: "not the hash of any output"})
        harness.execute(workload, 1, work / f"{name}-repeat.csv", ledger)
        _expect(len(ledger.failures) == 1 and "different CSV" in ledger.failures[0],
                f"{name}: a repeat with different output was not reported: {ledger.failures}")
        print(f"{name}: untraced and traced runs pass their checks; "
              "a differing repeat is a failure")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
