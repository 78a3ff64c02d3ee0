import dataclasses
import hashlib
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equitopo.cli
from equitopo.cli import UsageError, atomic_write_text, main, parse_config
from equitopo.optim import StepSchedule
from equitopo.output import WRITE_SLICE, atomic_write
from equitopo.topology import (CELL_BYTES, CSV_BLOCK, TopologySpec, build_topology,
                               matrix_csv_text)


def run_cli(argv, capsys=None):
    return main([str(a) for a in argv])


def test_parse_basic_consensus_command():
    cfg = parse_config(["consensus", "--family", "d-equistatic", "--n", "300",
                        "--rho", "0.5", "--iters", "30", "--trials", "3", "--seed", "7"])
    assert cfg.command == "consensus"
    assert (cfg.family, cfg.n, cfg.rho, cfg.iters, cfg.trials, cfg.seed) == \
        ("d-equistatic", 300, 0.5, 30, 3, 7)


def test_flags_override_config_file(tmp_path):
    f = tmp_path / "run.conf"
    f.write_text("family = ring\nn = 100\niters = 5\n# a comment\n")
    cfg = parse_config(["consensus", "--config", str(f), "--n", "300"])
    assert cfg.n == 300
    assert cfg.family == "ring"


# a valid invocation of each command, to which one bad flag value is appended
VALID_ARGV = {
    "topo-build": ["--family", "ring", "--n", "9"],
    "topo-verify": ["--family", "ring", "--n", "9"],
    "consensus": ["--family", "ring", "--n", "10", "--iters", "5"],
    "size-sweep": ["--family", "ring", "--sizes", "9,16", "--iters", "3"],
    "dsgd": ["--family", "ring", "--n", "9", "--iters", "3", "--d", "2", "--samples", "4"],
    "dsgt": ["--family", "ring", "--n", "9", "--iters", "3", "--d", "2", "--samples", "4"],
}
# (test id, command, flag, value, the field stderr must name): one value out
# of range for every field the command line checks and every topology field,
# then values that do not parse or name nothing known
REJECTED = [
    ("iters", "consensus", "iters", "0", "iters"),
    ("trials", "topo-verify", "trials", "0", "trials"),
    ("tol", "topo-build", "tol", "0", "tol"),   # no longer a flag of any command
    ("samples", "dsgd", "samples", "0", "samples"),
    ("d", "dsgt", "d", "0", "d"),
    ("sigma_s", "dsgd", "sigma-s", "-1", "sigma_s"),
    ("sigma_n", "dsgt", "sigma-n", "-1", "sigma_n"),
    ("sigma_h", "dsgt", "sigma-h", "-0.5", "sigma_h"),
    ("reg", "dsgt", "reg", "-1", "reg"),
    ("gamma0", "dsgd", "gamma0", "0", "gamma0"),
    ("decay_factor", "dsgd", "decay-factor", "0.5", "decay_factor"),
    ("decay_period", "dsgt", "decay-period", "0", "decay_period"),
    ("m_log_scale", "size-sweep", "m-log-scale", "0", "m_log_scale"),
    ("rho", "consensus", "rho", "1.5", "rho"),
    ("p", "topo-verify", "p", "0", "p"),
    ("eta", "size-sweep", "eta", "1", "eta"),
    ("m", "topo-build", "m", "0", "m"),
    ("n", "consensus", "n", "1", "n"),
    ("dsgd-n0", "dsgd", "n", "0", "n"),
    ("sizes-9-1", "size-sweep", "sizes", "9,1", "n"),
    ("int-unparsable", "consensus", "n", "x", "n"),
    ("float-unparsable", "topo-build", "rho", "x", "rho"),
    ("sizes-unparsable", "size-sweep", "sizes", "9,x", "sizes"),
    ("family-unknown", "topo-build", "family", "bogus", "family"),
    ("problem-unknown", "dsgd", "problem", "bogus", "problem"),
    ("m_log_scale-inf", "size-sweep", "m-log-scale", "inf", "m_log_scale"),
    ("gamma0-inf", "dsgd", "gamma0", "inf", "gamma0"),
    ("sigma_n-inf", "dsgt", "sigma-n", "inf", "sigma_n"),
    ("reg-inf", "dsgt", "reg", "inf", "reg"),
    ("decay_factor-inf", "dsgd", "decay-factor", "inf", "decay_factor"),
    ("rho-nan", "topo-verify", "rho", "nan", "rho"),
]


@pytest.mark.parametrize("command, flag, value, field",
                         [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_out_of_range_value_names_field(command, flag, value, field, tmp_path, capsys):
    code = run_cli([command, *VALID_ARGV[command], "--" + flag, value,
                    "--out", tmp_path / "o.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{field}\b", err), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_rejected_cases_cover_every_checked_field():
    checked = {case[4] for case in REJECTED}
    schedule = {f.name for f in dataclasses.fields(StepSchedule)}
    assert set(equitopo.cli._VALID) | {"family", "n", "rho", "p", "m", "eta"} | schedule <= checked


def test_unknown_config_key_rejected(tmp_path):
    f = tmp_path / "bad.conf"
    f.write_text("family = ring\nn = 9\nwarp_speed = 11\n")
    with pytest.raises(UsageError, match="warp_speed"):
        parse_config(["consensus", "--config", str(f), "--iters", "3"])


def test_file_value_a_flag_overrides_is_still_checked(tmp_path, capsys):
    f = tmp_path / "run.conf"
    f.write_text("family = ring\nn = 9\niters = 3\nrho = 5\n")
    out = tmp_path / "o.csv"
    assert run_cli(["consensus", "--config", f, "--rho", "0.5", "--out", out]) == 2
    assert "rho" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_field_named(capsys):
    assert run_cli(["consensus", "--family", "ring"]) == 2
    err = capsys.readouterr().err
    assert "n" in err


def test_command_mismatch_with_config(tmp_path):
    f = tmp_path / "c.conf"
    f.write_text("command = consensus\nfamily = ring\nn = 9\niters = 3\n")
    with pytest.raises(UsageError, match="command"):
        parse_config(["dsgd", "--config", str(f)])


def test_sizes_parsing():
    cfg = parse_config(["size-sweep", "--family", "ring", "--sizes", "9,16,25",
                        "--iters", "10"])
    assert cfg.sizes == (9, 16, 25)


# one raw flag value per field and the value it must parse into; `tol` is no
# field, and every command must reject it
FLAG_VALUES = {
    "seed": ("7", 7), "family": ("ring", "ring"), "n": ("9", 9), "rho": ("0.25", 0.25),
    "p": ("0.3", 0.3), "m": ("4", 4), "eta": ("0.7", 0.7), "tol": ("1e-9", None),
    "trials": ("5", 5), "iters": ("6", 6), "sizes": ("9,16", (9, 16)),
    "m_log_scale": ("2.5", 2.5), "problem": ("least-squares", "least-squares"),
    "d": ("3", 3), "samples": ("11", 11), "sigma_s": ("0.05", 0.05),
    "sigma_n": ("0.5", 0.5), "sigma_h": ("0.4", 0.4), "reg": ("0.01", 0.01),
    "gamma0": ("0.2", 0.2), "decay_factor": ("2.0", 2.0), "decay_period": ("10", 10),
    "out": ("x.csv", "x.csv"),
}
COMMON = {"seed", "family", "n", "rho", "p", "m", "eta", "out"}
OPTIM = COMMON | {"iters", "trials", "problem", "d", "samples", "sigma_s", "sigma_n",
                  "sigma_h", "reg", "gamma0", "decay_factor", "decay_period"}
ACCEPTED = {
    "topo-build": COMMON, "build": COMMON,
    "topo-verify": COMMON | {"trials"}, "verify": COMMON | {"trials"},
    "consensus": COMMON | {"iters", "trials"},
    "size-sweep": COMMON | {"sizes", "iters", "trials", "m_log_scale"},
    "dsgd": OPTIM, "dsgt": OPTIM,
}


def flag_argv(fields):
    return [arg for key in sorted(fields)
            for arg in ("--" + key.replace("_", "-"), FLAG_VALUES[key][0])]


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_every_accepted_flag_reaches_its_field(command):
    cfg = parse_config([command, *flag_argv(ACCEPTED[command])])
    for key in ACCEPTED[command]:
        assert getattr(cfg, key) == FLAG_VALUES[key][1], key


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_flags_of_other_commands_rejected(command):
    for key in set(FLAG_VALUES) - ACCEPTED[command]:
        with pytest.raises(UsageError):
            parse_config([command, *flag_argv(ACCEPTED[command]), *flag_argv({key})])


def test_topo_build_rejects_iters():
    assert run_cli(["topo-build", "--family", "ring", "--n", "9", "--iters", "3"]) == 2


def test_topo_build_writes_matrix_and_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    code = run_cli(["topo-build", "--family", "d-equistatic", "--n", "20",
                    "--rho", "0.7", "--seed", "1", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,weight"
    meta = (tmp_path / "w.csv.meta").read_text()
    assert "basis_index = " in meta
    assert "rho_measured = " in meta
    # weights are full-precision decimals with 0-based indices
    r, c, v = lines[1].split(",")
    assert int(r) >= 0 and int(c) >= 0
    assert float(v) > 0


def read_meta(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_topo_build_sidecar_names_exact_method(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli(["topo-build", "--family", "u-equistatic", "--n", "300", "--seed", "2",
                    "--out", out]) == 0
    meta = read_meta(tmp_path / "w.csv.meta")
    assert meta["method"] == "circulant-fft"
    assert 0.0 < float(meta["rho_tolerance"]) < 1e-12
    assert "converged" not in meta


# sidecars in the format that still wrote `tol`, one from a grid whose power
# iteration was stopped at its cap (`converged = False`), each with the
# SHA-256 of the CSV it came with
OLD_FORMAT_SIDECARS = {
    "d.csv": ("""command = topo-build
family = d-equistatic
n = 30
rho = 0.5
p = 0.5
m = 52
eta = 0.5
seed = 1
trials = 3
tol = 1e-10
d = 10
samples = 50
sigma-s = 0.1
sigma-n = 1.0
sigma-h = 0.2
reg = 0.001
decay-factor = 1.0
out = d.csv
rho_target = 0.5
rho_measured = 0.1916572809086577
method = circulant-fft
basis_index = 19,6,2,24,21,21,11,17,15,7,20,8,28,28,14,19,12,26,27,14,2,20,3,22,11,12,4,\
17,28,27,23,20,12,29,21,8,14,10,28,24,11,2,14,10,4,9,1,5,19,12,7,7
rho_tolerance = 1.4739751958019378e-14
""", "1859096f0b1e219cbfaedc91501b86a44550281b911b8e767dd18aea6286cfb6"),
    "g.csv": ("""command = topo-build
family = grid
n = 100
rho = 0.5
p = 0.5
eta = 0.5
seed = 0
trials = 3
tol = 1e-300
d = 10
samples = 50
sigma-s = 0.1
sigma-n = 1.0
sigma-h = 0.2
reg = 0.001
decay-factor = 1.0
out = g.csv
rho_target = 0.5
rho_measured = 0.9132211230871958
method = power-iteration
rho_tolerance = 0.07834083125448675
converged = False
""", "dcddbb41061ff246fb145c53c1898f2f88c85643888c84a5b42c21e36680101e"),
}


def test_unconverged_factor_marked_and_sidecar_replays(tmp_path):
    for name, (text, digest) in OLD_FORMAT_SIDECARS.items():
        meta = tmp_path / (name + ".meta")
        meta.write_text(text.replace("out = " + name, f"out = {tmp_path / name}"))
        assert run_cli(["topo-build", "--config", meta]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        echoed = read_meta(meta)   # the replay wrote its own sidecar over the old one
        assert "tol" not in echoed and "converged" not in echoed


def test_hash_inside_a_value_survives_replay(tmp_path, capsys):
    out = tmp_path / "a#b.csv"
    assert run_cli(["topo-build", "--family", "ring", "--n", "9", "--out", out]) == 0
    first = out.read_bytes()
    meta = tmp_path / "a#b.csv.meta"
    assert f"out = {out}\n" in meta.read_text()
    assert run_cli(["topo-build", "--config", meta]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a#b.csv", "a#b.csv.meta"]
    assert out.read_bytes() == first
    # a line whose first non-blank character is `#` is still a comment
    conf = tmp_path / "run.conf"
    conf.write_text("  # family = grid\nfamily = ring\nn = 9\n")
    assert parse_config(["topo-build", "--config", str(conf)]).family == "ring"


def test_build_alias_matches_topo_build(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["topo-build", "--family", "ring", "--n", "9", "--out", a])
    run_cli(["build", "--family", "ring", "--n", "9", "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_topo_verify_static_line(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = run_cli(["topo-verify", "--family", "d-equistatic", "--n", "50",
                    "--rho", "0.5", "--seed", "3", "--out", out])
    assert code == 0
    header, line = out.read_text().strip().splitlines()
    assert header == "family,n,M,rho_target,rho_measured,method,trials"
    parts = line.split(",")
    assert parts[0] == "d-equistatic"
    assert int(parts[2]) == 57
    assert float(parts[4]) <= 0.5
    assert parts[5:] == ["circulant-fft", "1"]
    assert float(read_meta(tmp_path / "v.csv.meta")["rho_tolerance"]) < 1e-12
    assert "rho_measured" in capsys.readouterr().out


def test_topo_verify_dynamic_uses_monte_carlo(tmp_path):
    out = tmp_path / "v.csv"
    code = run_cli(["topo-verify", "--family", "ou-equidyn", "--n", "20", "--m", "19",
                    "--seed", "3", "--trials", "200", "--out", out])
    assert code == 0
    line = out.read_text().strip().splitlines()[1]
    assert ",monte-carlo,200" in line
    assert float(read_meta(tmp_path / "v.csv.meta")["rho_tolerance"]) > 0.0   # its stderr


# one small run per command and one alias; per-command defaults (trials,
# problem, gamma0, M) are left unset, so the sidecars pin them
REPLAYED = {
    "topo-build": ["--family", "d-equistatic", "--n", "30", "--seed", "1"],
    "build": ["--family", "one-peer-exp", "--n", "16"],
    "topo-verify": ["--family", "ou-equidyn", "--n", "20", "--seed", "3"],
    "consensus": ["--family", "ou-equidyn", "--n", "16", "--m", "15", "--iters", "8",
                  "--seed", "9"],
    "size-sweep": ["--family", "d-equistatic", "--sizes", "20,30", "--iters", "10",
                   "--seed", "1"],
    "dsgd": ["--family", "torus", "--n", "16", "--iters", "10", "--d", "3",
             "--samples", "6"],
    "dsgt": ["--family", "ou-equidyn", "--n", "10", "--m", "9", "--iters", "10", "--d", "3",
             "--samples", "6"],
}

# what the sidecars echo for the defaults left unset above (None: no line)
ECHOED_DEFAULTS = {
    "topo-build": {"trials": "3", "m": "52"},
    "build": {"trials": "3", "m": None},
    "topo-verify": {"trials": "1000", "m": "47"},
    "consensus": {"trials": "3"},
    "size-sweep": {"trials": "3", "m": None, "m-log-scale": None},
    "dsgd": {"trials": "3", "problem": "least-squares", "gamma0": "0.037", "m": None},
    "dsgt": {"trials": "3", "problem": "logistic", "gamma0": "1.5"},
}


def without_out(meta_path):
    return [line for line in meta_path.read_text().splitlines()
            if not line.startswith("out = ")]


@pytest.mark.parametrize("command", sorted(REPLAYED))
def test_sidecar_replays_every_command(command, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli([command, *REPLAYED[command], "--out", first / "o.csv"]) == 0
    meta = sorted(first.glob("*.meta"))[-1]
    echoed = read_meta(meta)
    assert {key: echoed.get(key) for key in ECHOED_DEFAULTS[command]} == \
        ECHOED_DEFAULTS[command]
    assert run_cli([command, "--config", meta, "--out", again / "o.csv"]) == 0
    written = sorted(path.name for path in first.iterdir())
    assert written == sorted(path.name for path in again.iterdir())
    for name in written:
        if name.endswith(".meta"):
            assert without_out(first / name) == without_out(again / name), name
        else:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_size_sweep_writes_trace_files_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["size-sweep", "--family", "ring", "--sizes", "9,16", "--iters", "30",
                    "--trials", "2", "--seed", "4", "--out", out])
    assert code == 0
    assert (tmp_path / "sweep-n9.csv").exists()
    assert (tmp_path / "sweep-n16.csv").exists()
    summary = (tmp_path / "sweep-slopes.csv").read_text().splitlines()
    assert summary[0] == "family,n,slope"
    assert len(summary) == 3


def test_dsgd_divergence_exit_code(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli(["dsgd", "--family", "ring", "--n", "9", "--iters", "200",
                    "--trials", "1", "--seed", "2", "--d", "4", "--samples", "10",
                    "--gamma0", "80", "--out", out])
    assert code == 4
    meta = read_meta(tmp_path / "d.csv.meta")
    assert (meta["diverged_trials"], meta["diverged_at"]) == ("0", "0:73")
    # records 0..72 are finite, and the CSV ends at the last of them
    assert out.read_text().splitlines()[-1].split(",")[4] == "72"
    # the sidecar of a diverged run still replays cleanly
    replay = tmp_path / "replay.csv"
    assert run_cli(["dsgd", "--config", str(out) + ".meta", "--out", replay]) == 4
    assert out.read_bytes() == replay.read_bytes()
    assert without_out(tmp_path / "d.csv.meta") == without_out(tmp_path / "replay.csv.meta")


def test_dsgt_sidecar_names_each_diverged_trial_and_iteration(tmp_path):
    out = tmp_path / "t.csv"
    argv = ["dsgt", "--family", "ou-equidyn", "--n", 8, "--iters", 112, "--trials", 4,
            "--seed", 3, "--d", 3, "--samples", 6, "--problem", "least-squares",
            "--gamma0", 10]
    assert run_cli(argv + ["--out", out]) == 4
    meta = read_meta(tmp_path / "t.csv.meta")
    assert (meta["diverged_trials"], meta["diverged_at"]) == ("0,2,3", "0:111,2:112,3:111")
    rows = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert [rows.count(str(trial)) for trial in range(4)] == [111, 113, 112, 111]
    replay = tmp_path / "replay.csv"
    assert run_cli(["dsgt", "--config", str(out) + ".meta", "--out", replay]) == 4
    assert out.read_bytes() == replay.read_bytes()
    assert without_out(tmp_path / "t.csv.meta") == without_out(tmp_path / "replay.csv.meta")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dsgd_divergence_before_first_record(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run_cli(["dsgd", "--family", "ring", "--n", "10", "--iters", "3",
                    "--sigma-s", "1e300", "--out", out])
    assert code == 4
    assert out.read_text() == "algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual\n"
    meta = read_meta(tmp_path / "d.csv.meta")
    assert (meta["diverged_trials"], meta["diverged_at"]) == ("0,1,2", "0:0,1:0,2:0")
    captured = capsys.readouterr()
    assert "no finite record [diverged]" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["dsgd", "--problem", "least-squares", "--family", "ring", "--n", "2000", "--iters", "5",
     "--trials", "1"],
    ["consensus", "--family", "ring", "--n", "100000", "--iters", "5", "--trials", "1"],
], ids=["dsgd-least-squares", "consensus"])
def test_same_bytes_at_one_and_two_blas_threads(argv, tmp_path):
    # OpenBLAS splits a long dot product across threads, which changes its rounding;
    # at these sizes a loss or residual summed by BLAS `ddot` differs between the two
    src = str(Path(equitopo.cli.__file__).parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "equitopo.cli", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("seed", range(6))
def test_dsgd_runs_with_fewer_samples_than_features(seed, tmp_path, capsys):
    # n * samples < d makes the normal equations singular; no command reads the optimum
    out = tmp_path / "d.csv"
    code = run_cli(["dsgd", "--family", "ring", "--n", "2", "--samples", "1", "--d", "5",
                    "--sigma-s", "0", "--iters", "3", "--seed", seed, "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 4
    assert "Traceback" not in capsys.readouterr().err


def test_dsgt_defaults_to_logistic(tmp_path):
    out = tmp_path / "t.csv"
    code = run_cli(["dsgt", "--family", "one-peer-exp", "--n", "8", "--iters", "10",
                    "--trials", "1", "--seed", "1", "--d", "4", "--samples", "12",
                    "--gamma0", "0.5", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual"
    assert lines[1].startswith("dsgt,one-peer-exp,8,0,0,")
    assert "problem = logistic" in (tmp_path / "t.csv.meta").read_text()


def test_out_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("EQUITOPO_OUT_DIR", str(tmp_path))
    code = run_cli(["consensus", "--family", "ring", "--n", "9", "--iters", "3",
                    "--trials", "1", "--seed", "0"])
    assert code == 0
    assert (tmp_path / "consensus.csv").exists()


def test_construction_failure_exit_code(tmp_path, capsys):
    code = run_cli(["topo-build", "--family", "d-equistatic", "--n", "10",
                    "--rho", "0.05", "--m", "1", "--out", tmp_path / "x.csv"])
    assert code == 3
    assert "construction failed" in capsys.readouterr().err


def test_matrix_beyond_physical_memory_refused_before_allocating(tmp_path, capsys, monkeypatch):
    """complete n = 10^5 stores 10^10 entries, 1.6e11 bytes of CSR; grid and torus at
    n = 10^10 (m = 10^5) and the hypercube at 2^40 are counted at 56 bytes per stored entry,
    the diagonal plus both ends of every edge: exit 2, nothing written."""
    page = os.sysconf("SC_PAGE_SIZE")
    pages = min(os.sysconf("SC_PHYS_PAGES"), 2**36 // page)   # a larger host counts as 64 GiB
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}.__getitem__)
    m = 10**5
    for family, n, entries, need in [
            ("complete", m, m * m, 16 * m * m),
            ("grid", m * m, m * m + 2 * 2 * m * (m - 1), 56 * (m * m + 4 * m * (m - 1))),
            ("torus", m * m, m * m + 2 * 2 * m * m, 56 * 5 * m * m),
            ("hypercube", 2**40, 2**40 + 2 * 40 * 2**39, 56 * 41 * 2**40)]:
        out = tmp_path / "w.csv"
        assert run_cli(["topo-build", "--family", family, "--n", n, "--out", out]) == 2, family
        err = capsys.readouterr().err
        assert f"n = {n} {family}" in err and f"{entries} entries, {need} bytes" in err, err
        assert "physical memory" in err
        assert list(tmp_path.iterdir()) == []
    # a mix assembles the CSR, so consensus is refused the same matrix at its first step
    out = tmp_path / "c.csv"
    assert run_cli(["consensus", "--family", "complete", "--n", m, "--iters", 1,
                    "--trials", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"n = {m} complete matrix stores {m * m} entries, {16 * m * m} bytes" in err, err
    assert list(tmp_path.iterdir()) == []
    # verify reads the factor off the column alone: it runs and writes the exact factor
    out = tmp_path / "v.csv"
    assert run_cli(["topo-verify", "--family", "complete", "--n", m, "--out", out]) == 0
    factor = float(np.abs(np.fft.fft(np.full(m, 1.0 / m))[1:]).max())
    assert out.read_text().splitlines()[1] == \
        f"complete,{m},,0.5,{factor!r},circulant-fft,1"


@pytest.mark.parametrize("argv", [["topo-build", "--family", family] for family in
                                  ("ring", "static-exp", "complete", "d-equistatic",
                                   "u-equistatic")] + [["topo-verify", "--family", "od-equidyn"]],
                         ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_column_beyond_physical_memory_refused_before_allocating(argv, tmp_path, capsys,
                                                                  monkeypatch):
    """At n = 10^10 a circulant's column alone is 8e10 bytes, more than the 64 GiB a larger
    host counts as: exit 2 naming n and the bytes, nothing written, little allocated.  The
    dynamic families' parent is a d-equistatic column."""
    page = os.sysconf("SC_PAGE_SIZE")
    pages = min(os.sysconf("SC_PHYS_PAGES"), 2**36 // page)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}.__getitem__)
    n = 10**10
    tracemalloc.start()
    try:
        code = run_cli(argv + ["--n", n, "--out", tmp_path / "w.csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "physical memory" in err, err
    assert f"an n = {n} {argv[2]} matrix's column holds {n} weights, {8 * n} bytes" in err, err
    assert list(tmp_path.iterdir()) == []
    assert peak < 1 << 20


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError(
    "Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64")],
    ids=["bare", "numpy"])
def test_memory_error_exits_2_with_one_line(exc, tmp_path, capsys, monkeypatch):
    """An allocation that no memory check counted fails with one line on stderr, whether
    it comes before any output or while the CSV is written."""
    def refuse(*args):
        raise exc

    def fail_midway(w):
        yield b"row,col,weight\n"
        raise exc

    for name, fake in (("build_topology", refuse), ("matrix_csv_text", fail_midway)):
        with monkeypatch.context() as patch:
            patch.setattr(equitopo.cli, name, fake)
            assert run_cli(["topo-build", "--family", "ring", "--n", 9,
                            "--out", tmp_path / "w.csv"]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1, err
        assert str(exc) in err
        assert list(tmp_path.iterdir()) == []


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"family = ring\nn = 9\xff\n")
    out = tmp_path / "out" / "w.csv"
    assert run_cli(["topo-build", "--config", conf, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config file {conf}") and err.count("\n") == 1
    assert not out.parent.exists()


def test_sidecar_replays_under_an_ascii_locale(tmp_path):
    """Sidecars are written in UTF-8, and read back in UTF-8 whatever the locale: an `out`
    holding a non-ASCII name replays under LC_ALL=POSIX with UTF-8 mode off."""
    first = tmp_path / "\u00e9.csv"
    assert run_cli(["topo-build", "--family", "ring", "--n", 9, "--out", first]) == 0
    conf = tmp_path / "sidecar.meta"
    conf.write_bytes((tmp_path / "\u00e9.csv.meta").read_bytes())
    assert "\u00e9".encode() in conf.read_bytes()
    replay = tmp_path / "replay.csv"
    src = str(Path(equitopo.cli.__file__).parents[1])
    env = dict(os.environ, LC_ALL="POSIX", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "equitopo.cli", "topo-build", "--config",
                           str(conf), "--out", str(replay)], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert replay.read_bytes() == first.read_bytes()


# imports equitopo and equitopo.cli, then runs commands in order, noting after each
# step whether scipy.sparse has been imported: the exports read their own CSR arrays,
# so only the grid build, the last step, loads it
SPARSE_IMPORT_PROBE = """
import sys
loaded = []
import equitopo
loaded.append("scipy.sparse" in sys.modules)
import equitopo.cli
loaded.append("scipy.sparse" in sys.modules)
builds = [["topo-build", "--family", family, "--n", "30"]
          for family in ("ring", "static-exp", "complete", "d-equistatic", "u-equistatic",
                         "od-equidyn", "ou-equidyn", "ou-equidyn-euclid", "one-peer-exp")]
for k, argv in enumerate(
        [["topo-verify", "--family", "ou-equidyn", "--n", "1000", "--trials", "100"],
         ["dsgt", "--family", "ou-equidyn", "--n", "50", "--m", "49", "--iters", "5"],
         ["topo-verify", "--family", "d-equistatic", "--n", "200"]] + builds +
        [["topo-build", "--family", "grid", "--n", "9"]]):
    assert equitopo.cli.main(argv + ["--out", f"{sys.argv[1]}/{k}.csv"]) == 0
    loaded.append("scipy.sparse" in sys.modules)
print(loaded)
"""


def _probe(code: str, tmp_path) -> str:
    """The last line `code` prints, run in a fresh interpreter with tmp_path as argv[1]."""
    src = str(Path(equitopo.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()[-1]


def test_scipy_sparse_imported_only_where_a_csr_is_assembled(tmp_path):
    assert _probe(SPARSE_IMPORT_PROBE, tmp_path) == str([False] * 14 + [True])


def test_ring_consensus_loads_scipy_sparse(tmp_path):
    """A static family's step loop mixes as a CSR product, which imports scipy.sparse."""
    code = ("import sys, equitopo.cli\n"
            "argv = ['consensus', '--family', 'ring', '--n', '9', '--iters', '3']\n"
            "assert equitopo.cli.main(argv + ['--out', sys.argv[1] + '/c.csv']) == 0\n"
            "print('scipy.sparse' in sys.modules)")
    assert _probe(code, tmp_path) == "True"


def test_export_beyond_physical_memory_refused_before_formatting(tmp_path, capsys,
                                                                  monkeypatch):
    """Memory one byte short of the CSR, the label tables and one block's working set:
    exit 2 and nothing written; exactly that much: the export runs."""
    w = build_topology(TopologySpec("d-equistatic", 2000))
    csr = w.mat.data.nbytes + w.mat.indices.nbytes + w.mat.indptr.nbytes
    label = len(str(w.n - 1))
    need = csr + w.n * (8 + 2 * label + 1) + CSV_BLOCK * (
        3 * ((label + 1) + label + CELL_BYTES) + (label + 1) + 8 + 8 + CELL_BYTES)
    for have, code in ((need - 1, 2), (need, 0)):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}.__getitem__)
        out = tmp_path / "w.csv"
        assert run_cli(["topo-build", "--family", "d-equistatic", "--n", 2000, "--out", out]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"needs {need} bytes ({csr} of CSR" in err and "physical memory" in err, err
            assert list(tmp_path.iterdir()) == []
    assert out.read_bytes() == b"".join(matrix_csv_text(w))


@pytest.mark.parametrize("text", ["", "a" * WRITE_SLICE, "a" * (WRITE_SLICE + 1),
                                  "a" * (WRITE_SLICE - 2) + "\u00e9\u20ac\U0001f600" * 3],
                         ids=["empty", "one-slice", "past-one-slice", "multi-byte-across"])
def test_atomic_write_text_writes_what_write_text_writes(text, tmp_path):
    atomic_write_text(tmp_path / "sliced", text)
    (tmp_path / "whole").write_text(text)
    assert (tmp_path / "sliced").read_bytes() == (tmp_path / "whole").read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_open_gives_a_new_file(umask, mode, tmp_path):
    saved = os.umask(umask)
    try:
        assert run_cli(["topo-build", "--family", "ring", "--n", "9",
                        "--out", tmp_path / "w.csv"]) == 0
        (tmp_path / "plain").write_text("")
    finally:
        os.umask(saved)
    for name in ("w.csv", "w.csv.meta", "plain"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def test_atomic_write_text_failure_keeps_target(tmp_path):
    """A text that cannot be encoded past the first slice leaves no temp file and the old target."""
    target = tmp_path / "w.csv"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "a" * WRITE_SLICE + "\ud800")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


def test_atomic_write_failing_mid_stream_keeps_target(tmp_path):
    """A block iterator that raises after some blocks were written leaves no temp file
    and the old target."""
    def blocks():
        yield b"row,col,weight\n"
        yield b"0,0,1.0\n" * 100_000
        raise RuntimeError("formatting failed")

    target = tmp_path / "w.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write(target, blocks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("argv, file_text, message", [
    (["topo-build", "--config", "{missing}", "--out", "{out}"], None,
     "cannot read config file"),
    (["topo-build", "--config", "{config}", "--out", "{out}"],
     "family = ring\nn = 9\nseed 3\n", "expected `key = value`"),
    ([], None, "missing command"),
], ids=["unreadable-config", "config-line-without-equals", "no-command"])
def test_usage_errors_exit_2(argv, file_text, message, tmp_path, capsys):
    config = tmp_path / "c.cfg"
    if file_text is not None:
        config.write_text(file_text)
    paths = {"missing": tmp_path / "missing.cfg", "config": config, "out": tmp_path / "w.csv"}
    assert run_cli([a.format(**paths) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv, shows", [
    (["--help"], "{topo-build,topo-verify,consensus,size-sweep,dsgd,dsgt,build,verify}"),
    (["-h"], "Exit codes: 0 success"),
    (["dsgt", "--help"], "--gamma0 GAMMA0"),
    (["verify", "-h"], "--trials TRIALS"),
])
def test_help_exits_0(argv, shows, capsys):
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    assert shows in out and err == ""


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["dsgt", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
    (["topo-build", "--family", "ring", "--n"], "argument --n: expected one argument"),
])
def test_argument_errors_exit_2(argv, message, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.endswith("usage error: invalid arguments\n")
