"""The generators emit only inputs the library calls sound."""

import json
import random

import pytest

import workloads as W
from lowdensity.config import model_from_config, symbols_from_config
from lowdensity.finite_eps import resolution_warnings
from lowdensity.spectral import EnergyGrid
from lowdensity.statistics import GridAlignmentError, poisson_model

SEEDS = range(6)


def _round(workload, seed, tmp_path):
    return workload.round(random.Random(f"{workload.name}/{seed}/0"), tmp_path, f"s{seed}")


@pytest.mark.parametrize("workload", [W.SweepFine(), W.IndependenceFar()], ids=lambda w: w.name)
def test_pairing_inputs_are_resolved_and_alias_safe(workload, tmp_path):
    for seed in SEEDS:
        (call,) = _round(workload, seed, tmp_path)
        cfg = json.loads(call.config_path.read_text())
        model = model_from_config(cfg)
        symbols = symbols_from_config(cfg, model)
        assert len(symbols) == 3
        for eps in workload.epsilons:
            assert resolution_warnings(model, symbols, eps) == ()
            for s in symbols:
                assert model.grid.delta_e * abs(s.phi.center) / eps <= W.NYQUIST_MARGIN


def test_sweep_frequencies_are_nonzero_and_cancel(tmp_path):
    for seed in SEEDS:
        (call,) = _round(W.SweepFine(), seed, tmp_path)
        shifts = [s["omega_index"] for s in call.config["symbols"]]
        assert all(shifts) and sum(shifts) == 0
        vectors = call.config["vectors"]
        assert vectors["b"]["center"] - vectors["a"]["center"] >= 0.5


def test_independence_symbols_clear_the_separation_rule(tmp_path):
    for seed in SEEDS:
        (call,) = _round(W.IndependenceFar(), seed, tmp_path)
        phis = [s["phi"] for s in call.config["symbols"]]
        assert "indicator" in {v["type"] for v in call.config["vectors"].values()}
        for i, a in enumerate(phis):
            for b in phis[i + 1 :]:
                assert abs(a["center"] - b["center"]) >= W.SEPARATION * 0.5 * (a["width"] + b["width"])


def test_lambdas_sit_on_the_bin_lattice(tmp_path):
    w = W.MomentsDeep()
    grid = EnergyGrid(e_max=W.POISSON_E_MAX, bins=W.POISSON_BINS)
    for seed in SEEDS:
        (call,) = _round(w, seed, tmp_path)
        poisson_model(float(call.argv[call.argv.index("--lambda") + 1]), grid)


def test_wn_rounds_alternate_full_and_connected(tmp_path):
    for seed in SEEDS:
        full, connected = _round(W.WnOrder5(), seed, tmp_path)
        assert "--connected-only" not in full.argv and "--connected-only" in connected.argv
        for call in (full, connected):
            pairs = call.argv[call.argv.index("--pairs") + 1].split(",")
            assert len(pairs) == 5 and all(p.split(":")[0] in call.config["vectors"] for p in pairs)


def test_same_seed_same_inputs(tmp_path):
    for w in W.WORKLOADS.values():
        runs = []
        for sub in (tmp_path / "a", tmp_path / "b"):
            sub.mkdir(exist_ok=True)
            runs.append([([a for a in c.argv if str(sub) not in a], c.config) for c in _round(w, 3, sub)])
        assert runs[0] == runs[1]


def test_runner_knows_every_workload():
    import run

    assert run.WORKLOAD_NAMES == tuple(W.WORKLOADS)


def test_validation_rejects_unsound_inputs():
    cfg = W.SweepFine(bins=128).config(random.Random(0))
    with pytest.raises(W.InvalidInput, match="grid resolution"):
        W.validate_pairing_config(cfg, [0.05])
    far = W.SweepFine().config(random.Random(0))
    far["symbols"][0]["phi"]["center"] = 40.0
    with pytest.raises(W.InvalidInput, match="Nyquist"):
        W.validate_pairing_config(far, [0.05])
    four = W.SweepFine(bins=128).config(random.Random(0))
    four["symbols"].append(dict(four["symbols"][0], omega_index=0))
    with pytest.raises(W.InvalidInput, match="coarsened"):
        W.validate_pairing_config(four, [0.2])
    with pytest.raises(W.InvalidInput):
        W.validate_lambda(0.3, EnergyGrid(e_max=8.0, bins=64))
    with pytest.raises(GridAlignmentError):
        poisson_model(0.3, EnergyGrid(e_max=8.0, bins=64))
