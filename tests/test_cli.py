"""Command line behavior: exit codes, deterministic tables, sidecars."""

import json
import math
import subprocess
import sys

import pytest

from lowdensity.cli import _strictly_decreasing, build_parser, main
from lowdensity.config import default_config
from lowdensity.report import CSV_COLUMNS, ConvergenceReport, SweepRow

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


@pytest.fixture
def resolved_config_path(tmp_path):
    # CONFIG on 320 bins: delta_e = 0.0125 meets the 8-bin rule down to eps = 0.1
    cfg = dict(CONFIG, grid=dict(CONFIG["grid"], bins=320), density={"type": "table", "values": [1.0] * 160 + [0.5] * 160})
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg))
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


def test_sweep_csv_table_and_sidecar(resolved_config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", resolved_config_path, "--epsilons", "0.2,0.1",
        "--out", str(out), "--assert",
    ])
    assert code == 0
    assert "[" not in capsys.readouterr().out  # no row carries a warning
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["command"] == "sweep"
    assert meta["config"] == resolved_config_path
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


def test_sweep_assert_fails_when_errors_rise(resolved_config_path, capsys):
    # above eps ~ 0.8 this model is pre-asymptotic: rel_err is 0.30 at
    # eps = 2 and 0.44 at eps = 1, a rise as eps decreases in either order
    for eps in ("2,1", "1,2"):
        assert main(["sweep", "--config", resolved_config_path, "--epsilons", eps, "--assert"]) == 2
        captured = capsys.readouterr()
        assert "[" not in captured.out  # both rows resolved: the monotone clause fails
        assert "relative errors are not strictly decreasing" in captured.err


def test_monotone_claims_read_rows_by_decreasing_eps(tmp_path, separated_config_path, capsys):
    cfg = default_config()
    cfg["grid"]["bins"] = 640  # resolves eps = 0.05
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg))
    runs = [
        ["sweep", "--config", str(path), "--epsilons"], ["0.2,0.1,0.05", "0.05,0.1,0.2"],
        # rel_err 0.106 at eps = 0.5: the 5 % bound reads the smallest eps
        ["delta-lemma", "--epsilons"], ["0.5,0.02", "0.02,0.5"],
        ["delta-lemma", "--epsilons"], ["0.1,0.03,0.01", "0.01,0.03,0.1"],
        # the probe magnitude shrinks from eps = 0.2 to 0.1
        ["independence", "--config", separated_config_path, "--groups", "1;2", "--separation", "4", "--epsilons"],
        ["0.2,0.1", "0.1,0.2"],
    ]
    for argv, orders in zip(runs[::2], runs[1::2]):
        for eps in orders:
            out = tmp_path / "table.json"
            assert main([*argv, eps, "--assert", "--format", "json", "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            # the table keeps the rows in the order given
            assert [row["epsilon"] for row in json.loads(out.read_text())["rows"]] == [float(e) for e in eps.split(",")]


def test_monotone_claim_floor_is_a_few_ulps():
    limit = complex(2 * math.pi)
    ulp = math.ulp(limit.real)

    def report(*errors):
        return ConvergenceReport(kind="sweep", rows=tuple(
            SweepRow(epsilon=eps, value=limit + err, limit=limit) for eps, err in zip((0.1, 0.03, 0.01), errors)), metadata={})

    # delta-lemma's indicator defaults: 0, then a 2-ulp tie, is converged
    assert _strictly_decreasing(report(0.0, 2 * ulp, 2 * ulp)) == []
    assert _strictly_decreasing(report(0.0, 4 * ulp, 3 * ulp)) == []
    # a rise above the floor, or a tie above it, still fails
    assert _strictly_decreasing(report(0.0, 2 * ulp, 5 * ulp))
    assert _strictly_decreasing(report(0.0, 1e-12, 2e-12))
    assert _strictly_decreasing(report(1e-3, 1e-3, 1e-4))


def test_delta_lemma_indicator_defaults_assert():
    # rel_err reads 0, 2.8e-16, 2.8e-16: a tie two ulps from the target
    assert main(["delta-lemma", "--phi-family", "indicator", "--assert"]) == 0


def test_sweep_assert_fails_on_warned_rows(capsys):
    # the default grid (128 bins on [0, 4]) is too coarse for every default eps
    assert main(["sweep", "--assert"]) == 2
    assert "3 of 3 rows carry warnings" in capsys.readouterr().err


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


def test_poisson_moments_above_cap_exit_one(capsys):
    # refused before the first lambda's cumulants are computed or printed
    code = main(["poisson", "--lambda", "1.0,2.0", "--moments", "13", "--grid-bins", "32", "--e-max", "4"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "arity <= 12, got 13" in captured.err


def test_poisson_moments_below_one_exit_one(capsys):
    code = main(["poisson", "--lambda", "1.0", "--moments", "0", "--grid-bins", "32", "--e-max", "4", "--assert"])
    assert code == 1
    assert "argument --moments: expected a positive integer, got '0'" in capsys.readouterr().err


def test_poisson_nonzero_omega_zeros(capsys):
    assert main(["poisson", "--lambda", "1.0", "--omega-index", "2", "--grid-bins", "32", "--e-max", "4", "--assert"]) == 0


def test_poisson_nonzero_omega_writes_zero_moments(tmp_path):
    # off the frequency gate every cumulant is exactly 0, so every moment is too
    out = tmp_path / "poisson.csv"
    assert main(["poisson", "--lambda", "0.5,1.0", "--omega-index", "2", "--moments", "3", "--grid-bins", "32",
                 "--e-max", "4", "--out", str(out), "--assert"]) == 0
    lines = out.read_text().splitlines()
    moments = [line.split(",") for line in lines[1:] if line.split(",")[1] == "moment"]
    assert [(r[0], r[2]) for r in moments] == [(lam, str(n)) for lam in ("0.5", "1.0") for n in (1, 2, 3)]
    assert all(r[3:] == ["0.0", "0.0", "0.0", "0.0"] for r in moments)


@pytest.fixture
def separated_config_path(tmp_path):
    # windows 3 apart at width 0.5, and 192 bins: separated, and resolved by
    # the width and Nyquist rules at eps = 0.2 and 0.1, so no row is warned
    cfg = dict(CONFIG, grid={"e_min": 0.0, "e_max": 4.0, "bins": 192},
               density={"type": "table", "values": [1.0] * 96 + [0.5] * 96})
    cfg["symbols"] = [
        {"f": "a", "g": "b", "omega_index": 0, "phi": {"family": "gaussian", "center": 0.0, "width": 0.5}},
        {"f": "b", "g": "a", "omega_index": 0, "phi": {"family": "gaussian", "center": 3.0, "width": 0.5}},
    ]
    path = tmp_path / "separated.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_independence_groups_and_assert(separated_config_path):
    assert main([
        "independence", "--config", separated_config_path, "--groups", "1;2",
        "--epsilons", "0.2,0.1", "--separation", "4", "--assert",
    ]) == 0


def test_independence_groups_change_the_probe(tmp_path, capsys):
    # '1,2;3' centres the product of symbols 1 and 2 as one element
    cfg = dict(CONFIG)
    cfg["symbols"] = CONFIG["symbols"] + [
        {"f": "a", "g": "a", "omega_index": 0, "phi": {"family": "gaussian", "center": 2.0, "width": 0.6}},
    ]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(cfg))
    printed = {}
    for groups in ("1,2;3", "1;2;3"):
        assert main(["independence", "--config", str(path), "--groups", groups,
                     "--epsilons", "0.2", "--separation", "0.1"]) == 0
        printed[groups] = capsys.readouterr().out.split("|probe|=")[1].split()[0]
    assert printed["1,2;3"] != printed["1;2;3"]


def test_independence_assert_fails_on_warned_rows(capsys):
    # the default symbols share t = 0 and the default grid is too coarse:
    # every row is warned, so the decay of the probe proves nothing
    assert main(["independence", "--assert"]) == 2
    assert "rows carry warnings" in capsys.readouterr().err


def test_independence_json_has_no_nan(tmp_path):
    out = tmp_path / "probe.json"
    assert main([
        "independence", "--groups", "1;2", "--epsilons", "0.2,0.1", "--separation", "0.1",
        "--format", "json", "--out", str(out),
    ]) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["rows"] and all(row["rel_err"] is None for row in doc["rows"])


def test_main_reuses_one_parser_without_leaking_state(tmp_path, capsys):
    # one process, one parser: a run after one with other options must write
    # the same table as a freshly built parser would
    runs = [
        ["sweep", "--epsilons", "0.2"],
        ["sweep"],
        ["independence", "--groups", "1;2", "--separation", "0.1"],
    ]
    assert build_parser() is build_parser()
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"shared{i}.csv")]) == 0
    for i, argv in enumerate(runs):
        build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / f"fresh{i}.csv")]) == 0
        assert (tmp_path / f"shared{i}.csv").read_bytes() == (tmp_path / f"fresh{i}.csv").read_bytes()
    shared = [(tmp_path / f"shared{i}.csv").read_text().splitlines() for i in range(2)]
    assert len(shared[0]) == 2 and len(shared[1]) == 4  # header plus one row per epsilon


def test_independence_bad_groups(config_path, capsys):
    assert main(["independence", "--config", config_path, "--groups", "1;1,2"]) == 1
    assert "exactly once" in capsys.readouterr().err
    assert main(["independence", "--config", config_path, "--groups", "1;x"]) == 1


def test_independence_groups_must_keep_symbol_order(tmp_path, capsys):
    # '2;1;3' once probed the product N2 N1 N3 without a word; the groups,
    # joined, must read 1..n in order
    cfg = dict(CONFIG)
    cfg["symbols"] = CONFIG["symbols"] + [
        {"f": "a", "g": "a", "omega_index": 0, "phi": {"family": "gaussian", "center": 2.0, "width": 0.6}},
    ]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(cfg))
    for groups in ("2;1;3", "1,3;2", "3,2,1"):
        assert main(["independence", "--config", str(path), "--groups", groups, "--epsilons", "0.2"]) == 1
        assert "exactly once, in increasing order" in capsys.readouterr().err
    for groups in ("1;2;3", "1,2;3", "1;2,3"):
        assert main(["independence", "--config", str(path), "--groups", groups, "--epsilons", "0.2"]) == 0


def test_independence_empty_group_exits_one(tmp_path, config_path):
    # an empty block once reached the probe, which averaged an empty group's
    # time centres (two numpy RuntimeWarnings) and then failed on max([])
    out = tmp_path / "probe.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "lowdensity", "independence", "--config", config_path, "--groups", "1,2;", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr
    assert "--groups: every group needs at least one symbol index" in proc.stderr
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_wn_expect_pairs_and_assert(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "connected" in out


def test_wn_expect_six_symbols_assert(capsys):
    # k = 6 lies above the old cap; --assert checks the spectral chain
    assert main(["wn-expect", "--pairs", "a:b,b:a,a:a,b:b,a:b,b:a", "--assert"]) == 0
    assert "chain coefficient check" in capsys.readouterr().out


def test_wn_expect_eight_symbols_assert_and_nine_refused(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a,a:a,b:b,a:b,b:a,a:a,b:b", "--assert"]) == 0
    assert "chain coefficient check" in capsys.readouterr().out
    assert main(["wn-expect", "--pairs", "a:b,b:a,a:a,b:b,a:b,b:a,a:a,b:b,a:b", "--assert"]) == 1
    assert "1 <= k <= 8" in capsys.readouterr().err


def test_wn_expect_connected_only_and_order(capsys):
    assert main(["wn-expect", "--pairs", "a:b,b:a,a:a", "--order", "2", "--connected-only"]) == 0
    out = capsys.readouterr().out
    assert "connected" in out


def test_wn_expect_lone_symbol_connected_only_assert(capsys):
    # without its scalar part a lone symbol has vacuum value 0, and so must the check
    assert main(["wn-expect", "--pairs", "a:b", "--connected-only", "--assert"]) == 0
    assert "spectral=0+0j" in capsys.readouterr().out


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


def test_bell_assert_catches_a_wrong_stirling_number(monkeypatch, capsys):
    from lowdensity import partitions

    stirling2 = partitions.stirling2
    monkeypatch.setattr(partitions, "stirling2", lambda n, k: stirling2(n, k) + ((n, k) == (4, 2)))
    assert main(["bell", "--n", "6", "--assert"]) == 2
    assert "bell=16" in capsys.readouterr().out


def test_delta_lemma_assert():
    assert main(["delta-lemma", "--sigma-t", "1.0", "--sigma-x", "1.0", "--epsilons", "0.1,0.05,0.02", "--assert"]) == 0


def test_delta_lemma_indicator_phi():
    assert main([
        "delta-lemma", "--phi-family", "indicator", "--phi-lo", "-1", "--phi-hi", "1",
        "--epsilons", "0.1,0.05", "--sigma-x", "0.8",
    ]) == 0


def test_delta_lemma_table_matches_closed_form(tmp_path):
    # gaussian phi and f of unit width: I(eps) = 2 pi / sqrt(1 + eps^2)
    out = tmp_path / "delta.csv"
    assert main(["delta-lemma", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert [row.split(",")[0] for row in rows] == ["0.1", "0.03", "0.01"]
    for row in rows:
        fields = dict(zip(header.split(","), row.split(",")))
        eps = float(fields["epsilon"])
        assert float(fields["value_re"]) == pytest.approx(2 * math.pi / math.sqrt(1 + eps**2), rel=1e-12)
        assert float(fields["value_im"]) == 0.0
        assert float(fields["limit_re"]) == 2 * math.pi


def _five_symbol_config(tmp_path):
    cfg = dict(CONFIG, symbols=CONFIG["symbols"][:1] * 5)
    path = tmp_path / "five.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_above_order_cap_fails_before_the_limit(tmp_path, capsys, monkeypatch):
    def limit_called(*args, **kwargs):
        raise AssertionError("limit computed before the order check")

    monkeypatch.setattr("lowdensity.finite_eps.limit_truncated_smeared", limit_called)
    assert main(["sweep", "--config", _five_symbol_config(tmp_path)]) == 1
    assert "error: smeared pairing sums support 1 <= n <= 4 symbols, got n=5" in capsys.readouterr().err


def test_independence_above_order_cap_fails_first(tmp_path, capsys, monkeypatch):
    def locus_called(*args, **kwargs):
        raise AssertionError("group separation checked before the order check")

    monkeypatch.setattr("lowdensity.statistics._group_locus", locus_called)
    assert main(["independence", "--config", _five_symbol_config(tmp_path)]) == 1
    assert "error: smeared pairing sums support 1 <= n <= 4 symbols, got n=5" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is imported by delta-lemma's quadrature only
    code = "import sys, lowdensity, lowdensity.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


# the commands that read a model, and so the only ones that take --config
MODEL_COMMANDS = {"limit", "sweep", "free-check", "independence", "wn-expect"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(TABLES))
def test_every_command_writes_table_and_sidecar(command, fmt, config_path, tmp_path, capsys):
    extra, header = TABLES[command]
    out = tmp_path / f"table.{fmt}"
    config = ["--config", config_path] if command in MODEL_COMMANDS else []
    assert main([command, *config, *extra, "--format", fmt, "--out", str(out)]) == 0
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
    assert meta.get("config") == (config_path if command in MODEL_COMMANDS else None)


@pytest.mark.parametrize("command", sorted(set(TABLES) - MODEL_COMMANDS))
def test_commands_without_a_model_refuse_config(command, config_path, capsys):
    assert main([command, "--config", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --config" in captured.err


SYMBOL_COMMANDS = ("limit", "sweep", "free-check", "independence", "wn-expect")


@pytest.mark.parametrize("symbols, message", [
    ([{"f": "a", "phi": {"family": "gaussian"}}], "symbols[0].g: missing required field"),
    ([CONFIG["symbols"][0], {"f": "a", "g": "z", "phi": {"family": "gaussian"}}], "symbols[1]: vector 'z' not defined under vectors"),
    ([], "symbols: expected a non-empty array"),
    (["a:b"], "symbols[0]: expected an object"),
    ([{"f": ["a"], "g": "b", "phi": {"family": "gaussian"}}], "symbols[0]: vector ['a'] not defined under vectors"),
])
def test_malformed_symbols_give_one_error_from_every_command(symbols, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, symbols=symbols)))
    for command in SYMBOL_COMMANDS:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", command
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", SYMBOL_COMMANDS)
def test_symbols_come_from_the_config_only(command, config_path, capsys):
    assert main([command, "--config", config_path, "--symbols", config_path]) == 1
    assert "unrecognized arguments: --symbols" in capsys.readouterr().err


def test_wn_expect_reads_no_phi_from_config_symbols(tmp_path, capsys):
    # the vacuum expectation depends on the f, g labels alone
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(dict(CONFIG, symbols=[{"f": "a", "g": "b"}, {"f": "b", "g": "a", "omega_index": "x"}])))
    assert main(["wn-expect", "--config", str(path), "--assert"]) == 0
    assert "partition 1,2" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["bell", "--n", "20", "--lam", "1e20"], ["poisson", "--orders", "400"]])
def test_float_overflow_is_an_error_line(argv, tmp_path, capsys):
    # touchard's lam**k and limit_cumulant's (2 pi)^(order - 1) pass 1.8e308
    assert main(argv + ["--assert", "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "error: a result overflows a float\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_epsilons_exit_one(capsys):
    assert main(["sweep", "--epsilons", "fast"]) == 1


# a NaN input turns off every check compared with it, so each float option refuses it
NON_FINITE = {
    "sweep": ["sweep", "--epsilons", "0.1,{}"],
    "delta-lemma": ["delta-lemma", "--epsilons", "0.1,{}"],
    "poisson-lambda": ["poisson", "--lambda", "1.0,{}"],
    "poisson-e-max": ["poisson", "--e-max", "{}"],
    "independence-separation": ["independence", "--separation", "{}"],
    "bell-lam": ["bell", "--lam", "{}"],
    "delta-lemma-sigma-t": ["delta-lemma", "--sigma-t", "{}"],
    "delta-lemma-sigma-x": ["delta-lemma", "--sigma-x", "{}"],
    "delta-lemma-phi-center": ["delta-lemma", "--phi-center", "{}"],
    "delta-lemma-phi-lo": ["delta-lemma", "--phi-family", "indicator", "--phi-lo", "{}"],
    "delta-lemma-phi-hi": ["delta-lemma", "--phi-family", "indicator", "--phi-hi", "{}"],
    "delta-lemma-f-center": ["delta-lemma", "--f-center", "{}"],
}


@pytest.mark.parametrize("command", list(NON_FINITE))
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilons_exit_one(command, value, capsys):
    assert main([arg.format(value) for arg in NON_FINITE[command]] + ["--assert"]) == 1
    assert "expected finite numbers" in capsys.readouterr().err


# scales and counts that mean nothing at or below zero, each refused before any output
NON_POSITIVE = {
    "sweep-eps-zero": ["sweep", "--epsilons", "0.1,0"],
    "independence-eps-negative": ["independence", "--epsilons", "0.2,-0.1"],
    "delta-lemma-eps-zero": ["delta-lemma", "--epsilons", "0"],
    "delta-lemma-eps-negative": ["delta-lemma", "--epsilons=-0.1,-0.05"],
    "free-check-random": ["free-check", "--random", "-3"],
    "poisson-orders": ["poisson", "--orders", "0"],
    "poisson-moments": ["poisson", "--moments", "0"],
    "diagrams-n": ["diagrams", "--n", "0"],
    "bell-n": ["bell", "--n", "0"],
    "wn-expect-order": ["wn-expect", "--order", "0"],
}


@pytest.mark.parametrize("case", list(NON_POSITIVE))
def test_non_positive_scales_and_counts_exit_one(case, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(NON_POSITIVE[case] + ["--assert", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected positive numbers" in captured.err or "expected a positive integer" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_sweep_assert_fails_on_a_zero_limit(tmp_path, capsys):
    # both symbols off the frequency gate: the limit is exactly 0, so the
    # relative error is undefined on every row and the monotone claim fails
    cfg = default_config()
    cfg["grid"]["bins"] = 640
    for symbol in cfg["symbols"]:
        symbol["omega_index"] = 1
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["sweep", "--config", str(path), "--assert", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "rel_err=nan" in captured.out
    assert "relative error is undefined because the limit is 0" in captured.err
    assert out.read_text().splitlines()[0] == REPORT_HEADER
    assert json.loads((tmp_path / "t.csv.meta.json").read_text())["command"] == "sweep"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_number_names_the_field(value, tmp_path, capsys):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["symbols"][0]["phi"]["width"] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(cfg))  # written as NaN / Infinity, which json.load accepts
    assert main(["sweep", "--config", str(path), "--assert"]) == 1
    captured = capsys.readouterr()
    assert "symbols[0].phi.width: expected a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sweep", "independence"])
def test_failed_claim_still_writes_its_outputs(command, tmp_path, capsys):
    # the default model's rows carry warnings, so --assert fails; the table
    # and the sidecar are written first, byte for byte as without --assert
    plain, checked = tmp_path / "plain", tmp_path / "checked"
    plain.mkdir()
    checked.mkdir()
    assert main([command, "--out", str(plain / "t.csv")]) == 0
    assert main([command, "--assert", "--out", str(checked / "t.csv")]) == 2
    assert "assertion failed: " in capsys.readouterr().err
    for name in ("t.csv", "t.csv.meta.json"):
        assert (checked / name).read_bytes() == (plain / name).read_bytes()


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
