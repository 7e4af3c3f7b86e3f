import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script,header",
    [
        ("run_threshold_scan.py", "family,d,cbar,l1_g0pp,beta_max_fcond,beta_max_alt9,beta_max_alt11"),
        ("run_hessian_sweep.py", "beta,beta_over_threshold,u_1,min_eig,std_error,bound,margin,verdict"),
    ],
)
def test_script_writes_csv(script, header, tmp_path):
    out = tmp_path / "out.csv"
    proc = _run(script, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == header


def test_decomposition_demo_on_one_dof_torus():
    # m = 2 leaves one free coordinate: the demo's outer field takes only the first entry
    proc = _run("run_decomposition_demo.py", "--m", 2)
    assert proc.returncode == 0, proc.stderr
    assert sum("iterated map" in line for line in proc.stdout.splitlines()) == 2


def test_hessian_sweep_labels_quadrature_errors_and_goes_on(tmp_path):
    # at 1000x the threshold and m = 64 every conditioning pass raises
    # QuadratureError: those rows are labelled and the sweep writes them all
    out = tmp_path / "sweep.csv"
    proc = _run("run_hessian_sweep.py", "--family", "example_a", "--m", 64, "--factors", "0.5,1000", "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[-1]) for r in rows] == [("0.5", "pass")] * 4 + [("1000.0", "quadrature-error")] * 4


def test_chain_step_timing_prints_every_target_and_size():
    # its 2000 steps leave the raw-frame target enough burn-in to tune its step size
    proc = _run("time_chain_step.py", "--repeats", 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "target,n_dof,rows,us_per_step,energy_grad_us,noise_us"
    rows = [line.split(",") for line in lines[1:]]
    expected = [(t, n, "2") for n in ("7", "63", "255") for t in ("gibbs_unit", "hessian", "gibbs_raw", "h1")]
    expected.insert(4, ("ti", "7", "64"))  # the thermodynamic-integration ensemble, at n_dof 7 only
    assert [tuple(r[:3]) for r in rows] == expected
    # a step includes one target call and its share of one chunk's noise, so it
    # takes longer than either alone
    assert all(float(r[3]) > float(r[4]) > 0.0 and float(r[3]) > float(r[5]) > 0.0 for r in rows)


def test_oracle_route_timing_prints_every_route():
    proc = _run("time_oracle_routes.py", "--repeats", 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "route,config,points,ms_per_call"
    rows = [line.split(",") for line in lines[1:]]
    routes = ["conditioning"] * 5 + ["mayer"] * 2 + ["gh"] + ["f_tilt_hessian"] * 2
    assert [r[0] for r in rows] == routes + ["renorm_iterated_g", "r1g_mc"] + ["norms"] * 3 + ["verify_theorem"]
    assert [r[1] for r in rows[-4:]] == ["a_tol1e-08", "b_tol1e-08", "c_tol1e-08", "a_d1_m5_beta1_u0;0.5"]
    # example_a's sampled grids; example_b's compact bonds are transformed exactly and stop on a small grid
    assert [int(r[2]) for r in rows[:3]] == [8192, 16384, 32768] and rows[7][2] == "32"
    assert all(int(r[2]) <= 4096 for r in rows[3:5])
    assert all(float(r[3]) > 0.0 for r in rows)


def test_peak_memory_prints_every_command():
    # chains at a tenth of the benchmark's lengths, each command or call in two fresh processes
    proc = _run("peak_memory.py", "--scale", 0.1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "command,ru_maxrss_mb,heap_peak_mb"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["hessian", "verify-lemma", "sample", "renorm_iterated_g", "r1g_mc"]
    assert all(float(r[1]) > float(r[2]) > 0.0 for r in rows)


def test_bench_pairs_summarizes_alternating_pairs():
    # the summary of synthetic runs, without running the benchmark: quartiles
    # (statistics.quantiles) of the paired runs only, the median's relative
    # change, wins and ties per pair; a run that was not correct marks its workload
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bp)
    assert list(bp.seeds("101-104")) == [101, 102, 103, 104] and list(bp.seeds("7")) == [7]
    assert [bp.order(i) for i in range(3)] == [("parent", "change"), ("change", "parent"), ("parent", "change")]

    def run(side, seed, wall, workload="ti_short_chains", correct=True):
        return {"side": side, "seed": seed, "workload": workload, "correct": correct, "failed": int(not correct),
                "wall_ref_s": wall, "setup_s": 0.1, "peak_rss_mb": 40.0 + seed, "ops_ok_frac": 1.0}

    walls = [(1.0, 0.5), (2.0, 2.0), (3.0, 3.5), (4.0, 2.5), (5.0, 4.0)]
    runs = [run(side, seed, w) for seed, pair in enumerate(walls, 1) for side, w in zip(("parent", "change"), pair)]
    runs[-1]["correct"] = False
    runs += [run("parent", 6, 9.0), run("change", 1, 0.2, "oracle_backends"), run("parent", 1, 0.25, "oracle_backends")]
    summary = bp.summarize(runs)
    assert list(summary) == ["ti_short_chains", "oracle_backends"]
    ti = summary["ti_short_chains"]
    assert (ti["pairs"], ti["correct"], ti["failed_runs"]) == (5, False, 1)
    assert ti["wall_ref_s"] == {
        "parent_q1_med_q3": [1.5, 3.0, 4.5],
        "change_q1_med_q3": [1.25, 2.5, 3.75],
        "median_change_rel": (2.5 - 3.0) / 3.0,
        "change_lower": 3,
        "ties": 1,
    }
    assert ti["setup_s"]["ties"] == 5 and ti["setup_s"]["median_change_rel"] == 0.0
    assert ti["peak_rss_mb"]["parent_q1_med_q3"] == [41.5, 43.0, 44.5]
    ob = summary["oracle_backends"]
    assert (ob["pairs"], ob["correct"], ob["failed_runs"]) == (1, True, 0)
    assert ob["wall_ref_s"]["parent_q1_med_q3"] == [0.25] * 3 and ob["wall_ref_s"]["change_lower"] == 1
