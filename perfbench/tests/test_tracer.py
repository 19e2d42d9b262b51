"""The outside-in tracer counts what hand counting gives."""

import contextlib
import io
import json

import lowdensity
from lowdensity import cli, finite_eps, statistics
from tracer import Tracer

TINY = {
    "grid": {"e_min": 0.0, "e_max": 4.0, "bins": 16},
    "density": {"type": "flat", "value": 1.0},
    "vectors": {
        "a": {"type": "gaussian_shell", "center": 1.2, "width": 0.4},
        "b": {"type": "gaussian_shell", "center": 2.1, "width": 0.5},
    },
    "symbols": [
        {"f": f, "g": g, "omega_index": s, "phi": {"family": "gaussian", "center": 0.0, "width": w}}
        for (f, g), s, w in zip([("a", "b"), ("b", "a"), ("a", "a")], [1, 1, -2], [1.0, 0.9, 0.8])
    ],
}


def _traced_sweep(tmp_path, epsilons):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    tracer = Tracer()
    tracer.begin("call")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--config", str(path), "--epsilons", epsilons, "--out", str(tmp_path / "t.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer.summarize("call")


def test_n3_sweep_counts_match_hand_counts(tmp_path):
    # two irreducible 3-cycles per eps: 3 Fourier matrices and 2 matmuls
    # each, and only 3 of the 6 matrices are distinct (one per target slot)
    one = _traced_sweep(tmp_path, "0.5")
    assert one["finite_eps.pairing.calls"] == 2
    assert one["symbols.fourier.calls"] == 6
    assert one["symbols.fourier.points"] == 6 * 16 * 16
    assert one["finite_eps.matmuls"] == 4
    assert one["finite_eps.gflop"] == 4 * 8 * 16**3 / 1e9
    assert one["finite_eps.factor_reuse"] == 0.5
    two = _traced_sweep(tmp_path, "0.5,0.25")
    assert two["symbols.fourier.calls"] == 12 and two["finite_eps.matmuls"] == 8
    assert two["finite_eps.factor_reuse"] == 0.5
    assert one["report.bytes"] > 0 and one["cli.self_s"] > 0 and one["config.s"] > 0


def test_install_patches_every_copy_and_uninstall_restores():
    copies = [
        (cli, "convergence_sweep"), (cli, "independence_probe"), (cli, "vacuum_expectation"),
        (cli, "evaluate_symbolic"), (cli, "poisson_cumulants"), (cli, "poisson_moments"),
        (cli, "limit_truncated_coefficient"), (cli, "limit_truncated_smeared"),
        (finite_eps, "enumerate_pair_diagrams"), (finite_eps, "classify"), (finite_eps, "limit_truncated_smeared"),
        (statistics, "correlation_smeared"), (statistics, "enumerate_set_partitions"),
        (lowdensity, "pairing_term_smeared"),
    ]
    before = [getattr(ns, name) for ns, name in copies]
    fourier = lowdensity.TestFunction.fourier
    tracer = Tracer()
    tracer.install()
    try:
        for (ns, name), original in zip(copies, before):
            assert getattr(ns, name) is not original and getattr(ns, name).__wrapped__ is original
        assert lowdensity.TestFunction.fourier is not fourier
    finally:
        tracer.uninstall()
    assert [getattr(ns, name) for ns, name in copies] == before
    assert lowdensity.TestFunction.fourier is fourier


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.begin("c")
    tracer.spans = [
        ("main", "cli", -1, "c", 0.0, 10.0),
        ("pairing_term_smeared", "finite_eps", 0, "c", 1.0, 5.0),
        ("TestFunction.fourier", "symbols", 1, "c", 2.0, 3.0),
        ("rank_one_kernel", "spectral", 0, "c", 6.0, 6.5),
        ("rank_one_kernel", "spectral", 0, "other", 7.0, 9.0),
    ]
    got = tracer.summarize("c")
    assert got["cli.self_s"] == 10.0 - 4.0 - 0.5
    assert got["finite_eps.pairing.self_s"] == 3.0
    assert got["symbols.fourier.s"] == 1.0
    assert got["spectral.s"] == 0.5
