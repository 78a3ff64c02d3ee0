"""The benchmark's workloads and the independent checks on their outputs.

Each workload is one `topo` command.  A check reads only the files the
command wrote (CSV plus `.meta` sidecar) and the workload's own parameters;
it never trusts a verdict the program printed.  A failed check raises
CheckError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An output failed an independent correctness check."""


def read_sidecar(csv_path: Path) -> dict[str, str]:
    meta = {}
    for line in Path(str(csv_path) + ".meta").read_text().splitlines():
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def paper_basis_count(n: int, rho: float, p: float) -> int:
    """M = ceil(8 / (3 rho^2) * ln(2n / p)), the paper's default basis count."""
    return math.ceil(8.0 / (3.0 * rho**2) * math.log(2.0 * n / p))


def check_static_build(path: Path, w: Workload) -> None:
    """Non-negative, doubly stochastic, degree <= M, circulant, exact factor <= rho.

    The export of a d-equistatic matrix is circulant, W[i, j] = c[(i - j) mod n],
    so its consensus factor is exactly max_{k != 0} |fft(c)_k|.
    """
    n, rho = w.params["n"], w.params["rho"]
    m = paper_basis_count(n, rho, w.params.get("p", 0.5))
    meta = read_sidecar(path)
    with open(path) as fh:
        _require(fh.readline().strip() == "row,col,weight", "matrix header is not row,col,weight")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(table.shape[1] == 3, "matrix rows do not have three fields")
    row, col, weight = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
    _require(bool(np.all((row >= 0) & (row < n) & (col >= 0) & (col < n))), "index out of range")
    _require(bool(np.all(weight >= 0.0)), "negative weight")
    _require(np.unique(row * n + col).size == row.size, "duplicate (row, col) entry")
    row_dev = np.abs(np.bincount(row, weight, minlength=n) - 1.0).max()
    col_dev = np.abs(np.bincount(col, weight, minlength=n) - 1.0).max()
    _require(row_dev <= 1e-12 and col_dev <= 1e-12,
             f"row/column sums deviate from 1 by {max(row_dev, col_dev):.3g}")
    off = (row != col) & (weight != 0.0)
    degree = max(np.bincount(row[off], minlength=n).max(), np.bincount(col[off], minlength=n).max())
    _require(degree <= m, f"off-diagonal degree {degree} exceeds M = {m}")
    _require(meta.get("m") == str(m), f"sidecar m = {meta.get('m')} but M = {m}")
    c = np.zeros(n)
    c[row[col == 0]] = weight[col == 0]
    _require(np.array_equal(weight, c[(row - col) % n])
             and row.size == n * np.count_nonzero(c), "matrix is not circulant")
    exact = float(np.abs(np.fft.fft(c)[1:]).max())
    _require(exact <= rho, f"exact factor {exact!r} exceeds rho = {rho}")
    reported = float(meta["rho_measured"])
    _require(abs(exact - reported) <= 1e-6,
             f"sidecar rho_measured {reported!r} differs from exact factor {exact!r}")


def check_onepeer_verify(path: Path, w: Workload) -> None:
    """ou-equidyn with eta = 1/2 contracts by at most 2/3 in mean square (paper bound)."""
    lines = path.read_text().splitlines()
    header = "family,n,M,rho_target,rho_measured,method,trials"
    _require(len(lines) == 2 and lines[0] == header, "verify CSV is not one header plus one row")
    values = dict(zip(header.split(","), lines[1].split(",")))
    _require(values["family"] == w.params["family"] and int(values["n"]) == w.params["n"],
             "verify row names another family or n")
    _require(values["method"] == "monte-carlo" and int(values["trials"]) == w.params["trials"],
             "verify row is not a Monte Carlo estimate over the requested trials")
    rho = float(values["rho_measured"])
    _require(math.isfinite(rho) and rho > 0.0, f"rho_measured {rho!r} is not a positive number")
    _require(float(read_sidecar(path)["rho_measured"]) == rho,
             "sidecar and CSV disagree on rho_measured")
    _require(rho * rho <= 2.0 / 3.0, f"rho_measured^2 = {rho * rho!r} exceeds 2/3")


def check_optim(path: Path, w: Workload) -> None:
    """No diverged trial, trials x (iters + 1) finite rows in trial/iter order."""
    meta = read_sidecar(path)
    _require("diverged_trials" not in meta, f"diverged trials {meta.get('diverged_trials')}")
    lines = path.read_text().splitlines()
    _require(lines[0] == "algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual",
             "optimizer CSV header changed")
    trials, iters = w.params["trials"], w.params["iters"]
    _require(len(lines) - 1 == trials * (iters + 1),
             f"{len(lines) - 1} rows, expected {trials * (iters + 1)}")
    fields = [line.split(",") for line in lines[1:]]
    _require(all(f[:3] == [w.command, w.params["family"], str(w.params["n"])] for f in fields),
             "row names another algorithm, family or n")
    index = np.array([[int(f[3]), int(f[4])] for f in fields])
    expected = np.stack(np.meshgrid(np.arange(trials), np.arange(iters + 1), indexing="ij"),
                        axis=-1).reshape(-1, 2)
    _require(np.array_equal(index, expected), "trial/iter columns are not complete and ordered")
    values = np.array([[float(v) for v in f[5:]] for f in fields])
    _require(bool(np.isfinite(values).all()), "non-finite metric value")


@dataclass(frozen=True)
class Workload:
    """One `topo` command; `params` become `--flag=value` arguments."""

    name: str
    command: str
    params: dict
    check: Callable[[Path, "Workload"], None]

    def flags(self) -> list[str]:
        return [f"--{key.replace('_', '-')}={value}" for key, value in self.params.items()]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.command, *self.flags(), f"--seed={seed}", f"--out={out}"]

    def resized(self, **params) -> "Workload":
        return replace(self, params={**self.params, **params})


WORKLOADS = {w.name: w for w in (
    Workload("static-build", "topo-build",
             {"family": "d-equistatic", "n": 2000, "rho": 0.5},
             check_static_build),
    Workload("onepeer-verify", "topo-verify",
             {"family": "ou-equidyn", "n": 1000, "trials": 1000},
             check_onepeer_verify),
    Workload("dsgt-onepeer", "dsgt",
             {"family": "ou-equidyn", "n": 50, "m": 49, "iters": 500, "trials": 1,
              "samples": 200, "gamma0": 3, "sigma_n": 0.1},
             check_optim),
)}
