import json
import logging
import math
import time

import numpy as np
import pytest

from gil.cli import ConfigError, build_potential, main, validate_config
from gil.conditions import check_conditions
from gil.lattice import Field, Torus
from gil.potentials import norms


def run_cli(args):
    return main([str(a) for a in args])


def write(path, obj):
    path.write_text(json.dumps(obj))
    return path


BASE = {
    "potential": {"family": "gaussian"},
    "d": 1,
    "m": 3,
    "beta": 1.0,
    "seed": 7,
}


def test_build_potential_families():
    assert build_potential({"family": "gaussian"}).family == "gaussian"
    assert build_potential({"family": "example_a", "a": 0.5}).family == "example_a"
    with pytest.raises(ConfigError):
        build_potential({"family": "nope"})
    with pytest.raises(ConfigError):
        build_potential({"family": "example_a"})  # missing a
    with pytest.raises(ConfigError):
        build_potential({"family": "gaussian", "extra": 1})


def test_validate_config_rejects_unknown_keys():
    cfg = dict(BASE, bogus=1)
    with pytest.raises(ConfigError):
        validate_config(cfg, "check")


def test_validate_config_requires_fields():
    cfg = {k: v for k, v in BASE.items() if k != "beta"}
    with pytest.raises(ConfigError):
        validate_config(cfg, "check")


def test_check_threshold_exit_codes(tmp_path):
    a, d = 0.5, 1
    beta_star = a * a * math.pi**2 / (6.0 * 16.0**2 * d)
    cfg = dict(BASE, potential={"family": "example_a", "a": a}, beta=beta_star * (1 - 1e-9))
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["check", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["lhs_fcond"] == pytest.approx(0.5, abs=1e-8)
    # above threshold: violated
    cfg["beta"] = beta_star * 1.1
    path = write(tmp_path / "c2.json", cfg)
    assert run_cli(["check", "--config", path, "--out", out]) == 2


def test_check_gaussian_all_satisfied(tmp_path):
    path = write(tmp_path / "c.json", dict(BASE))
    out = tmp_path / "o.json"
    assert run_cli(["check", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert all(rep["report"]["satisfied"].values())


@pytest.mark.parametrize("potential", [{"family": "example_a", "a": 0.5}, {"family": "example_c", "p": 0.05, "k1": 2.0, "k2": 1.0}])
def test_check_writes_all_four_norms(tmp_path, potential):
    # gil check keeps the full report: every norm, the divergent ones as "inf"
    # and named, the largest error bound, and all three conditions from it
    from dataclasses import asdict

    from gil.potentials import norm

    cfg = dict(BASE, potential=potential, beta=1e-3)
    out = tmp_path / "o.json"
    run_cli(["check", "--config", write(tmp_path / "c.json", cfg), "--out", out])
    p = build_potential(potential)
    found = {name: norm(p, name, 1e-10) for name in ("l1_g0pp", "l1_g0pp_abs", "l2_g0p", "l1_g0")}
    nr = norms(p, 1e-10)
    expected = {
        "input": {"potential": potential, "beta": 1e-3, "d": 1},
        "norms": {
            **{name: "inf" if v == math.inf else v for name, (v, _) in found.items()},
            "quadrature_error": max(e for _, e in found.values()),
            "divergent": ["l1_g0"] if potential["family"] == "example_a" else ["l2_g0p", "l1_g0"],
        },
        "report": json.loads(json.dumps(asdict(check_conditions(1e-3, 1, p, nr))).replace("Infinity", '"inf"')),
        "condition": "fcond",
    }
    assert json.loads(out.read_text()) == expected


def test_config_error_exit_one(tmp_path):
    path = write(tmp_path / "c.json", dict(BASE, bogus=1))
    assert run_cli(["check", "--config", path, "--out", tmp_path / "o.json"]) == 1
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["check", "--config", bad, "--out", tmp_path / "o.json"]) == 1


def test_free_energy_gaussian_csv(tmp_path):
    cfg = dict(BASE, m=4, u_grid=[[0.0], [0.5], [1.0]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "u_1,delta_f,method,error"
    for line, u in zip(lines[1:], (0.0, 0.5, 1.0)):
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(4 / 2 * u * u, abs=1e-8)
        assert cells[2] == "oracle"


def test_free_energy_empty_grid(tmp_path):
    cfg = dict(BASE, u_grid=[])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    assert out.read_text() == "u_1,delta_f,method,error\n"


def test_hessian_gaussian_sweep(tmp_path):
    cfg = dict(BASE, u_grid=[[0.0], [0.7]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "h.csv"
    assert run_cli(["hessian", "--config", path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "u_1,hessian_min_eig,bound,margin,method,std_error,verdict"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == pytest.approx(1.5, abs=1e-6)  # margin = M^d / 2
        assert cells[6] == "pass"


def test_verify_lemma_requires_k_grid(tmp_path):
    cfg = dict(BASE, u=[0.1])
    path = write(tmp_path / "c.json", cfg)
    assert run_cli(["verify-lemma", "--config", path, "--out", tmp_path / "o.json"]) == 1


@pytest.mark.parametrize("k_max", [1.0, 2.0])
def test_verify_lemma_small_k_max_passes(tmp_path, k_max):
    # a grid inside sqrt(12 d cbar) = 3.46 needs the tail 4 sqrt(c) - 2K of
    # min(1, c / k^2); the form 2c/K overstated the integral as 25.9 at K = 1
    cfg = dict(BASE, u=[0.1], k_grid={"k_max": k_max}, chain={"n_steps": 6000, "burn_in": 1000, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["verify-lemma", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())["characteristic_bounds"]
    assert rep["integral_ok"] is True
    assert rep["integral"] <= rep["integral_bound"]


def test_verify_lemma_small_run(tmp_path):
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        beta=0.116,
        u=[0.1],
        k_grid={"n_points": 41},
        chain={"n_steps": 6000, "burn_in": 1000, "n_chains": 1},
    )
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["verify-lemma", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["characteristic_bounds"]["pointwise_ok"] is True
    assert rep["variance_bound"]["ok"] is True
    assert rep["lambda"] == pytest.approx(1 / 2.4)


def test_sample_checkpoint_roundtrip(tmp_path):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 2000, "burn_in": 500, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "s.json"
    assert run_cli(["sample", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    ck = rep["checkpoint"]
    assert ck["d"] == 1 and ck["m"] == 3
    assert ck["values"][0] == 0.0
    # the checkpoint reloads as a pinned field
    assert Field(Torus(ck["d"], ck["m"]), np.asarray(ck["values"])).torus == Torus(1, 3)
    assert rep["mean_field"]["method"] == "chain"


def test_byte_identical_reruns(tmp_path):
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        beta=0.2,
        u=[0.3],
        chain={"n_steps": 3000, "burn_in": 500, "n_chains": 2},
    )
    path = write(tmp_path / "c.json", cfg)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(["sample", "--config", path, "--out", out1]) == 0
    assert run_cli(["sample", "--config", path, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tilt_streams_do_not_collide(tmp_path):
    # two grid tilts with the same u: seed 7919 at tilt 0 once shared its chains
    # with seed 0 at tilt 1; at m = 7 (6 free coordinates) auto takes the chains
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        m=7,
        u_grid=[[0.3], [0.3]],
        ti_nodes=4,
        chain={"n_steps": 600, "burn_in": 200, "n_chains": 1},
    )
    path = write(tmp_path / "c.json", cfg)
    rows = {}
    for seed in (0, 7919):
        out = tmp_path / f"fe{seed}.csv"
        assert run_cli(["free-energy", "--config", path, "--out", out, "--seed", seed]) == 0
        rows[seed] = out.read_text().strip().split("\n")[1:]
        assert all(r.split(",")[2] == "chain" for r in rows[seed])
    assert rows[7919][0] != rows[0][1]
    assert rows[0][0] != rows[0][1]


def _record_chains(monkeypatch):
    """Wrap run_chains where gil.cli calls it; return the list of each call's results."""
    import gil.cli

    runs, real = [], gil.cli.run_chains

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(gil.cli, "run_chains", recorded)
    return runs


LEMMA = dict(
    BASE,
    potential={"family": "example_b", "delta": 0.5},
    beta=0.116,
    u=[0.1],
    k_grid={"n_points": 41},
    chain={"n_steps": 1000, "burn_in": 200, "n_chains": 2},
)


def test_sample_runs_its_chains_once(tmp_path, monkeypatch):
    # one run, which keeps nothing per state (n_dof is 2): the mean field is reduced during the run
    runs = _record_chains(monkeypatch)
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 1000, "burn_in": 200, "n_chains": 2})
    out = tmp_path / "s.json"
    assert run_cli(["sample", "--config", write(tmp_path / "c.json", cfg), "--out", out]) == 0
    (results,) = runs
    assert all(r.samples.shape == (800, 0) for r in results)
    rep = json.loads(out.read_text())
    assert len(rep["acceptance"]) == 2 and len(rep["mean_field"]["value"]) == 2
    assert rep["checkpoint"]["values"] == [0.0, *results[-1].state]


def test_verify_lemma_runs_its_chains_once(tmp_path, monkeypatch):
    # the Fourier bounds and the variance bound read the same induced chains,
    # which keep the one bond and the 5 projections, not the states (n_dof is 2)
    runs = _record_chains(monkeypatch)
    assert run_cli(["verify-lemma", "--config", write(tmp_path / "c.json", LEMMA), "--out", tmp_path / "o.json"]) in (0, 2)
    (results,) = runs
    assert all(r.samples.shape == (800, 6) for r in results)


def test_verify_lemma_streams_what_stored_states_give(tmp_path, monkeypatch):
    # on the same seed, the estimators fed from the values kept in-run agree with
    # the same estimators fed from each chain's stored states: the Fourier checks
    # bit for bit, the variance bound (projected per chunk rather than in one
    # product) to rounding
    import gil.cli
    from gil.mcmc import poincare_variance_check, run_chains, verify_l1norm_bounds

    calls = {}

    def stored(*args, **kwargs):
        calls["states"] = [r.samples for r in run_chains(*args)]
        return run_chains(*args, **kwargs)

    def recording(name):
        def call(*args):
            calls[name] = args
            return getattr(gil.mcmc, name)(*args)

        return call

    monkeypatch.setattr(gil.cli, "run_chains", stored)
    for name in ("verify_l1norm_bounds", "poincare_variance_check"):
        monkeypatch.setattr(gil.cli, name, recording(name))
    out = tmp_path / "o.json"
    assert run_cli(["verify-lemma", "--config", write(tmp_path / "c.json", LEMMA), "--out", out]) in (0, 2)
    rep = json.loads(out.read_text())

    states = calls["states"]
    ps, t, us, psi, _, lam, k_grid = calls["verify_l1norm_bounds"]
    _, delta, directions = calls["poincare_variance_check"]
    fourier = verify_l1norm_bounds(ps, t, us, psi, [x[:, t.forward[0, 0] - 1] for x in states], lam, k_grid)
    variance = poincare_variance_check([x @ directions.T for x in states], delta, directions)
    for key, value in rep["characteristic_bounds"].items():
        assert value == getattr(fourier, key), key
    for key in ("variances", "variance_se", "bounds"):
        np.testing.assert_allclose(rep["variance_bound"][key], getattr(variance, key), rtol=1e-13, atol=0.0)
    assert rep["variance_bound"]["ok"] == variance.ok


@pytest.mark.parametrize("command", ["sample", "verify-lemma"])
def test_chain_commands_store_no_states(tmp_path, command):
    # on d = 2, m = 16 with 2 x 3000 kept steps, stored states would take
    # 2 * 3000 * 255 * 8 bytes; the command's traced heap stays below a quarter
    # of that (a first short run loads what the command imports lazily)
    import tracemalloc

    cfg = dict(LEMMA, d=2, m=16, beta=0.058, u=[0.5, 0.5], chain={"n_steps": 300, "burn_in": 100, "n_chains": 2})
    if command == "sample":
        cfg = {k: v for k, v in cfg.items() if k != "k_grid"}
    path, out = tmp_path / "c.json", tmp_path / "o.json"
    assert run_cli([command, "--config", write(path, cfg), "--out", out]) == 0
    write(path, dict(cfg, chain={"n_steps": 3100, "burn_in": 100, "n_chains": 2}))
    tracemalloc.start()
    try:
        assert run_cli([command, "--config", path, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3000 * 255 * 8 / 4


@pytest.mark.parametrize(
    "command,extra,key",
    [
        ("sample", {"u": [0.2], "chain": {"step_size": "0.1"}}, "chain.step_size"),
        ("sample", {"u": [0.2], "chain": {"n_steps": 1000.7}}, "chain.n_steps"),
        ("sample", {"u": [0.2], "chain": {"n_chains": True}}, "chain.n_chains"),
        ("check", {"beta": True}, "beta"),
        ("sample", {"u": [0.2], "seed": True}, "seed"),
        ("check", {"d": True}, "d"),
        ("hessian", {"u_grid": [[0.2]], "method": "foo"}, "method"),
        ("hessian", {"u_grid": [[0.2]], "tolerance": "1e-4"}, "tolerance"),
        ("check", {"potential": {"family": "example_a", "a": "0.5"}}, "potential.a"),
        ("free-energy", {"u_grid": [[0.2]], "ti_nodes": True}, "ti_nodes"),
        ("free-energy", {"u_grid": [[0.2]], "ti_nodes": 0}, "ti_nodes"),
        ("sample", {"u": 0.2}, "u"),
        ("free-energy", {"u_grid": [0.2]}, "u_grid[0]"),
        ("hessian", {"u_grid": [0.2]}, "u_grid[0]"),
        ("verify-lemma", {"u": [0.1], "k_grid": {}, "observables": 0}, "observables"),
        ("verify-lemma", {"u": [0.1], "k_grid": {"n_points": 1}}, "k_grid.n_points"),
        ("verify-lemma", {"u": [0.1], "k_grid": {}, "lambda": "0.3"}, "lambda"),
        ("verify-lemma", {"u": [0.1], "k_grid": {"k_max": 0}}, "k_grid.k_max"),
    ],
    ids=[
        "step_size-string",
        "n_steps-fraction",
        "n_chains-bool",
        "beta-bool",
        "seed-bool",
        "d-bool",
        "method-unknown",
        "tolerance-string",
        "a-string",
        "ti_nodes-bool",
        "ti_nodes-zero",
        "u-scalar",
        "u_grid-flat-free-energy",
        "u_grid-flat-hessian",
        "observables-zero",
        "n_points-one",
        "lambda-string",
        "k_max-zero",
    ],
)
def test_mistyped_block_values_exit_one(tmp_path, capsys, command, extra, key):
    # a value outside the schema is a config error, not a traceback, a silent
    # cast, a truthiness test or a check that passes with nothing checked; a
    # bool is not an integer
    path = write(tmp_path / "c.json", dict(BASE, **extra))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o.out"]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and f": {key} must be" in err[0]
    assert not (tmp_path / "o.out").exists()


@pytest.mark.parametrize(
    "command,extra,message",
    [
        ("free-energy", {"u_grid": [[0.2]], "quadrature": {"max_dof": 5}}, "config must not have key 'quadrature'"),
        ("sample", {"u": [0.2], "chain": {"thinning": 1}}, "chain must not have key 'thinning'"),
        ("sample", {"u": [0.2], "chain": {"tune": False}}, "chain must not have key 'tune'"),
    ],
    ids=["quadrature", "chain.thinning", "chain.tune"],
)
def test_removed_key_exit_one(tmp_path, capsys, command, extra, message):
    # the oracle's size cap and tolerances are fixed, samples are never thinned
    # and a null step size is tuned: the old keys are rejected, not ignored
    path = write(tmp_path / "c.json", dict(BASE, **extra))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o.out"]) == 1
    assert capsys.readouterr().err.strip().split("\n") == [f"gil {command}: {message}"]
    assert not (tmp_path / "o.out").exists()


def test_chain_failure_exit_three(tmp_path, capsys):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 400, "burn_in": 100, "n_chains": 1, "step_size": 50.0})
    path = write(tmp_path / "c.json", cfg)
    assert run_cli(["sample", "--config", path, "--out", tmp_path / "s.json"]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "row (tilt 0, node 0, chain 0)" in err[0] and "acceptance rate" in err[0]


def _example_a_half_threshold(d, m, u):
    p = build_potential({"family": "example_a", "a": 0.5})
    beta = check_conditions(1.0, d, p, norms(p)).beta_max_fcond / 2.0
    return {"potential": {"family": "example_a", "a": 0.5}, "d": d, "m": m, "beta": beta, "seed": 7, "u_grid": [u]}


@pytest.mark.parametrize(
    "command, extra", [("free-energy", {}), ("hessian", {"method": "oracle"})], ids=["free-energy", "hessian"]
)
def test_quadrature_failure_exit_three(tmp_path, capsys, command, extra):
    # in hypothesis at d = 2 the needle of g escapes every GH grid up to the order cap
    path = write(tmp_path / "c.json", dict(_example_a_half_threshold(2, 2, [0.5, 0.5]), **extra))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o.csv"]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith(f"gil {command}: quadrature failed: GH did not converge")


def test_hessian_oracle_d2_fails_fast(tmp_path, capsys):
    # 8 free coordinates in d = 2: Mayer does not reach and no GH doubling fits
    # under the point cap, so the explicit oracle fails before any evaluation
    path = write(tmp_path / "c.json", dict(_example_a_half_threshold(2, 3, [0.5, 0.5]), method="oracle"))
    start = time.perf_counter()
    assert run_cli(["hessian", "--config", path, "--out", tmp_path / "h.csv"]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("gil hessian: quadrature failed: ")


def test_hessian_oracle_far_past_threshold_exit_three(tmp_path, capsys):
    # 1000x the d = 1 threshold at m = 64: the conditioning grid's excess
    # cancels the Gaussian convolution to rounding, a quadrature failure
    cfg = _example_a_half_threshold(1, 64, [0.5])
    path = write(tmp_path / "c.json", dict(cfg, beta=2000.0 * cfg["beta"], method="oracle"))
    assert run_cli(["hessian", "--config", path, "--out", tmp_path / "h.csv"]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("gil hessian: quadrature failed: conditioning backend")


def test_hessian_auto_takes_the_spectral_row_in_d1(tmp_path):
    # m = 8 is past Mayer's reach, but in d = 1 the conditioning pass serves any m
    cfg = _example_a_half_threshold(1, 8, [0.5])
    outs = []
    for method in ("auto", "oracle"):
        path = write(tmp_path / f"{method}.json", dict(cfg, method=method))
        outs.append(tmp_path / f"{method}.csv")
        assert run_cli(["hessian", "--config", path, "--out", outs[-1]]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().strip().split("\n")[1].split(",")[4] == "oracle"


def test_hessian_auto_falls_back_to_chains_where_conditioning_fails(tmp_path):
    # the 1000x threshold, m = 64 config that exits 3 under method oracle
    cfg = _example_a_half_threshold(1, 64, [0.5])
    cfg = dict(cfg, beta=2000.0 * cfg["beta"], chain={"n_steps": 400, "burn_in": 100, "n_chains": 2})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "h.csv"
    assert run_cli(["hessian", "--config", path, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 1
    assert rows[0][4] == "chain" and rows[0][6] == "out-of-hypothesis"


def test_hessian_auto_falls_back_to_chains_in_d2(tmp_path, caplog):
    # the GH oracle does not converge on this d = 2 row, so auto writes a chain row
    # and logs one warning naming the row and the oracle's error
    chain = {"n_steps": 1_500, "burn_in": 300, "n_chains": 2}
    path = write(tmp_path / "c.json", dict(_example_a_half_threshold(2, 2, [0.3, 0.1]), chain=chain))
    with caplog.at_level(logging.WARNING, logger="gil.renorm"):
        assert run_cli(["hessian", "--config", path, "--out", tmp_path / "h.csv"]) == 0
    rows = (tmp_path / "h.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[5] for r in rows] == ["chain"]
    records = [r for r in caplog.records if r.name == "gil.renorm"]
    assert [r.levelname for r in records] == ["WARNING"]
    assert "grid tilt 0" in records[0].getMessage() and "GH did not converge" in records[0].getMessage()


def test_hessian_oracle_in_hypothesis_d1(tmp_path):
    # d = 1, m = 6 (5 free coordinates) in hypothesis: the conditioning route serves the oracle
    path = write(tmp_path / "c.json", _example_a_half_threshold(1, 6, [0.5]))
    out = tmp_path / "h.csv"
    assert run_cli(["hessian", "--config", path, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 1
    assert rows[0][4] == "oracle" and rows[0][6] == "pass"


def test_hessian_oracle_example_b_at_m512(tmp_path):
    # sampled on the grid, example_b's C^2 support edges keep the conditioning
    # doubling from converging by its 2^20-point cap at m = 512; transformed
    # exactly, its compact bonds converge on a 2048-point grid
    p = build_potential({"family": "example_b", "delta": 0.5})
    beta = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond / 2.0
    cfg = {"potential": {"family": "example_b", "delta": 0.5}, "d": 1, "m": 512, "beta": beta, "seed": 7}
    path = write(tmp_path / "c.json", dict(cfg, u_grid=[[0.3]], method="oracle"))
    out = tmp_path / "h.csv"
    assert run_cli(["hessian", "--config", path, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 1
    assert rows[0][4] == "oracle" and rows[0][6] == "pass"


def test_seed_override_changes_output(tmp_path):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 2000, "burn_in": 500, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(["sample", "--config", path, "--out", out1]) == 0
    assert run_cli(["sample", "--config", path, "--out", out2, "--seed", 99]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_full_precision(tmp_path):
    cfg = dict(BASE, m=3, u_grid=[[1.0 / 3.0]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    val = out.read_text().strip().split("\n")[1].split(",")[1]
    # 17 significant digits survive the round trip
    assert float(val) == pytest.approx(3 / 2 * (1 / 3) ** 2, abs=1e-12)
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15
