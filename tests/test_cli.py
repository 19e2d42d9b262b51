"""Command line behavior: exit codes, deterministic tables, sidecars."""

import json
import subprocess
import sys

import pytest

from lowdensity.cli import main
from lowdensity.report import CSV_COLUMNS

CONFIG = {
    "grid": {"e_min": 0.0, "e_max": 4.0, "bins": 96},
    "density": {"type": "table", "values": [1.0] * 48 + [0.5] * 48},
    "vectors": {
        "a": {"type": "gaussian_shell", "center": 1.2, "width": 0.4},
        "b": {"type": "indicator", "lo": 0.5, "hi": 2.5},
    },
    "symbols": [
        {"f": "a", "g": "b", "omega_index": 0, "phi": {"family": "gaussian", "width": 1.0}},
        {"f": "b", "g": "a", "omega_index": 0, "phi": {"family": "gaussian", "width": 0.8}},
    ],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_limit_runs_with_builtin_default(capsys):
    assert main(["limit"]) == 0
    out = capsys.readouterr().out
    assert "coefficient" in out


def test_limit_with_config_and_assert(config_path, capsys):
    assert main(["limit", "--config", config_path, "--assert"]) == 0
    assert "n = 2" in capsys.readouterr().out


def test_limit_gate_reports_exact_zero(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["symbols"] = [dict(s) for s in CONFIG["symbols"]]
    cfg["symbols"][0]["omega_index"] = 3
    path = tmp_path / "gated.json"
    path.write_text(json.dumps(cfg))
    assert main(["limit", "--config", str(path), "--assert"]) == 0
    assert "0" in capsys.readouterr().out


def test_sweep_csv_table_and_sidecar(config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", config_path, "--epsilons", "0.2,0.1",
        "--out", str(out), "--assert",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["command"] == "sweep"
    assert meta["config"] == config_path
    assert meta["epsilons"] == [0.2, 0.1]
    assert meta["version"] == "0.1.0"


def test_sweep_csv_is_byte_deterministic(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--config", config_path, "--epsilons", "0.2,0.1", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sidecar_reproduces_run(config_path, tmp_path):
    first = tmp_path / "first.csv"
    assert main(["sweep", "--config", config_path, "--epsilons", "0.25,0.125", "--out", str(first)]) == 0
    meta = json.loads((tmp_path / "first.csv.meta.json").read_text())
    again = tmp_path / "again.csv"
    eps = ",".join(repr(e) for e in meta["epsilons"])
    assert main(["sweep", "--config", meta["config"], "--epsilons", eps, "--out", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes()


def test_sweep_json_format(config_path, tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", config_path, "--epsilons", "0.2,0.1", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["epsilon"] for r in doc["rows"]] == [0.2, 0.1]
    assert doc["kind"] == "sweep"
    assert doc["rows"][0]["breakdown"]


def test_sweep_assert_fails_on_reversed_epsilons(config_path, capsys):
    code = main(["sweep", "--config", config_path, "--epsilons", "0.05,0.2", "--assert"])
    assert code == 2
    assert "assertion failed" in capsys.readouterr().err


def test_free_check_random_is_seed_deterministic(capsys):
    assert main(["free-check", "--random", "5", "--seed", "11", "--assert"]) == 0
    first = capsys.readouterr().out
    assert main(["free-check", "--random", "5", "--seed", "11", "--assert"]) == 0
    assert capsys.readouterr().out == first
    assert main(["free-check", "--random", "3", "--seed", "12"]) == 0
    assert capsys.readouterr().out != first


def test_free_check_rejects_oscillating_config(tmp_path):
    cfg = dict(CONFIG)
    cfg["symbols"] = [dict(s) for s in CONFIG["symbols"]]
    cfg["symbols"][0]["omega_index"] = 1
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(cfg))
    assert main(["free-check", "--config", str(path)]) == 1


def test_poisson_assert_and_table(tmp_path):
    out = tmp_path / "poisson.csv"
    code = main([
        "poisson", "--lambda", "0.5,1.0", "--orders", "4", "--moments", "4",
        "--grid-bins", "32", "--e-max", "4", "--out", str(out), "--assert",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lam,kind,order,value_re,value_im,target_re,abs_err"
    assert len(lines) == 1 + 2 * (4 + 4)


def test_poisson_misaligned_lambda_exits_one(capsys):
    code = main(["poisson", "--lambda", "0.55", "--grid-bins", "32", "--e-max", "4"])
    assert code == 1
    assert "lattice" in capsys.readouterr().err


def test_poisson_nonzero_omega_zeros(capsys):
    assert main(["poisson", "--lambda", "1.0", "--omega-index", "2", "--grid-bins", "32", "--e-max", "4", "--assert"]) == 0


def test_independence_groups_and_assert(config_path):
    assert main([
        "independence", "--config", config_path, "--groups", "1;2",
        "--epsilons", "0.2,0.1", "--separation", "0.1", "--assert",
    ]) == 0


def test_independence_bad_groups(config_path, capsys):
    assert main(["independence", "--config", config_path, "--groups", "1;1,2"]) == 1
    assert "exactly once" in capsys.readouterr().err
    assert main(["independence", "--config", config_path, "--groups", "1;x"]) == 1


def test_wn_expect_pairs_and_assert(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "connected" in out


def test_wn_expect_connected_only_and_order(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a,a:a", "--order", "2", "--connected-only"]) == 0
    out = capsys.readouterr().out
    assert "connected" in out


def test_wn_expect_show_steps(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a", "--show-steps"]) == 0
    out = capsys.readouterr().out
    assert "->" in out


def test_diagrams_census_and_list(capsys):
    assert main(["diagrams", "--n", "3", "--assert"]) == 0
    head = capsys.readouterr().out
    assert "6" in head
    assert main(["diagrams", "--n", "3", "--list"]) == 0
    listing = capsys.readouterr().out
    assert "(1 3 2)" in listing


def test_bell_assert(capsys):
    assert main(["bell", "--n", "6", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "203" in out


def test_delta_lemma_assert():
    assert main(["delta-lemma", "--sigma-t", "1.0", "--sigma-x", "1.0", "--epsilons", "0.1,0.05,0.02", "--assert"]) == 0


def test_delta_lemma_indicator_phi():
    assert main([
        "delta-lemma", "--phi-family", "indicator", "--phi-lo", "-1", "--phi-hi", "1",
        "--epsilons", "0.1,0.05", "--sigma-x", "0.8",
    ]) == 0


REPORT_HEADER = ",".join(CSV_COLUMNS)
TABLES = {
    "limit": ([], "n,omega_gate_passed,coeff_re,coeff_im,limit_re,limit_im,delta_chain_order"),
    "sweep": (["--epsilons", "0.2"], REPORT_HEADER),
    "free-check": (["--random", "2", "--seed", "5"], "trial,n,free_re,free_im,limit_re,limit_im,diff"),
    "poisson": (["--lambda", "0.5", "--orders", "2", "--moments", "2", "--grid-bins", "32", "--e-max", "4"],
                "lam,kind,order,value_re,value_im,target_re,abs_err"),
    "independence": (["--groups", "1;2", "--epsilons", "0.2", "--separation", "0.1"], REPORT_HEADER),
    "wn-expect": (["--pairs", "a:b,b:a"], "partition,delta_chain_order,value_re,value_im"),
    "diagrams": (["--n", "3"], "n,total,irreducible,surviving"),
    "bell": (["--n", "3"], "order,bell,touchard"),
    "delta-lemma": (["--epsilons", "0.1"], REPORT_HEADER),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(TABLES))
def test_every_command_writes_table_and_sidecar(command, fmt, config_path, tmp_path, capsys):
    extra, header = TABLES[command]
    out = tmp_path / f"table.{fmt}"
    assert main([command, "--config", config_path, *extra, "--format", fmt, "--out", str(out)]) == 0
    if fmt == "csv":
        assert out.read_text().splitlines()[0] == header
    else:
        doc = json.loads(out.read_text())
        report = command in ("sweep", "independence", "delta-lemma")
        assert set(doc) == ({"kind", "metadata", "rows"} if report else {"metadata", "rows"})
        assert doc["rows"]
        if not report:
            assert list(doc["rows"][0]) == sorted(header.split(","))
    meta = json.loads((tmp_path / f"table.{fmt}.meta.json").read_text())
    assert meta["command"] == command


def test_symbols_file_overrides_config(config_path, tmp_path, capsys):
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps({"symbols": CONFIG["symbols"][:1]}))
    assert main(["limit", "--config", config_path, "--symbols", str(path)]) == 0
    assert "n = 1" in capsys.readouterr().out
    path.write_text(json.dumps({"no_symbols": []}))
    assert main(["limit", "--symbols", str(path)]) == 1
    assert "expected a symbols array" in capsys.readouterr().err
    assert main(["limit", "--symbols", str(tmp_path / "missing.json")]) == 1
    assert "cannot read symbols file" in capsys.readouterr().err


def test_unknown_command_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_epsilons_exit_one(capsys):
    assert main(["sweep", "--epsilons", "fast"]) == 1


def test_config_errors_name_the_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"grid": {"e_max": 4.0}, "density": {"type": "flat", "value": 1.0}, "vectors": {}}))
    assert main(["limit", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "grid.bins" in err


def test_missing_config_file_exits_one(capsys):
    assert main(["limit", "--config", "/no/such/file.json"]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lowdensity", "bell", "--n", "3", "--assert"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5" in proc.stdout
