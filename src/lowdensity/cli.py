"""Command line front end.

Every subcommand prints a short human summary to stdout and, with --out,
writes a deterministic CSV or JSON table plus a .meta.json sidecar that
records enough to reproduce the run.  --assert turns each command's headline
claim into a hard check: exit status 0 on success, 2 when an assertion
fails, 1 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from math import factorial

import numpy as np

from . import __version__
from .config import ConfigError, default_config, load_config, load_symbols, model_from_config, symbols_from_config, test_function_from_config
from .finite_eps import convergence_sweep, delta_lemma_check
from .partitions import bell, classify, enumerate_pair_diagrams, surviving_diagram, touchard
from .report import ConvergenceReport, write_sidecar, write_table
from .spectral import TWO_PI, EnergyGrid, limit_truncated_coefficient, limit_truncated_smeared, free_moment, rank_one_kernel
from .statistics import independence_probe, poisson_cumulants, poisson_moments
from .symbols import FrequencyIndex, NumberSymbol, TestFunction
from .white_noise import evaluate_symbolic, vacuum_expectation


class AssertionFailed(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for --assert failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}") from None


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "symbols", None):
        cfg = dict(cfg)
        cfg["symbols"] = load_symbols(args.symbols)
    return cfg, model_from_config(cfg)


def _emit(args, table, metadata: dict) -> None:
    """With --out, write the table (row dicts or a ConvergenceReport) and
    the sidecar holding the run's metadata."""
    if not args.out:
        return
    if isinstance(table, ConvergenceReport):
        table.write(args.out, args.format)
    else:
        write_table(args.out, args.format, table, metadata)
    write_sidecar(args.out, metadata)


def _meta(args, command: str, **extra) -> dict:
    meta = {"command": command, "config": args.config or "builtin-default", "version": __version__}
    meta.update(extra)
    return meta


def cmd_limit(args) -> int:
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    kernels = [rank_one_kernel(model, s.f, s.g) for s in symbols]
    coeff = limit_truncated_coefficient(model, kernels, [s.omega for s in symbols])
    smeared = limit_truncated_smeared(model, symbols)
    n = len(symbols)
    print(f"n = {n}  omega gate {'passed' if coeff.omega_gate_passed else 'failed (value exactly 0)'}")
    print(f"coefficient        = {coeff.value:.12g}")
    print(f"smeared limit      = {smeared:.12g}")
    print(f"delta chain order  = {coeff.delta_chain_order}")
    rows = [{
        "n": n,
        "omega_gate_passed": coeff.omega_gate_passed,
        "coeff_re": coeff.value.real, "coeff_im": coeff.value.imag,
        "limit_re": smeared.real, "limit_im": smeared.imag,
        "delta_chain_order": coeff.delta_chain_order,
    }]
    _emit(args, rows, _meta(args, "limit", n=n))
    if args.do_assert and not coeff.omega_gate_passed and (coeff.value != 0 or smeared != 0):
        raise AssertionFailed("omega gate failed but the value is not exactly zero")
    return 0


def cmd_sweep(args) -> int:
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    report = convergence_sweep(model, symbols, args.epsilons)
    for row in report.rows:
        warn = f"  [{';'.join(row.warnings)}]" if row.warnings else ""
        print(f"eps={row.epsilon:<8g} value={row.value:.10g}  rel_err={row.rel_err:.3e}{warn}")
    print(f"limit = {report.rows[0].limit:.12g}")
    _emit(args, report, _meta(args, "sweep", **report.metadata))
    if args.do_assert:
        errs = [row.rel_err for row in report.rows]
        if any(e2 >= e1 for e1, e2 in zip(errs, errs[1:])):
            raise AssertionFailed(f"relative errors are not strictly decreasing: {errs}")
    return 0


def cmd_free_check(args) -> int:
    cfg, model = _load(args)
    rows = []
    if args.random:
        rng = np.random.default_rng(args.seed)
        names = sorted(model.vectors)
        trials = []
        for _ in range(args.random):
            n = int(rng.integers(2, 4))
            syms = []
            for _ in range(n):
                f, g = rng.choice(names), rng.choice(names)
                phi = TestFunction.gaussian(
                    amplitude=float(rng.uniform(0.5, 1.5)),
                    center=float(rng.uniform(-0.5, 0.5)),
                    width=float(rng.uniform(0.5, 1.5)),
                )
                syms.append(NumberSymbol.make(f=str(f), g=str(g), s=0, phi=phi))
            trials.append(syms)
    else:
        symbols = symbols_from_config(cfg, model)
        bad = [s for s in symbols if not s.omega.is_zero]
        if bad:
            raise ConfigError("free-check needs omega_index 0 on every symbol (or use --random)")
        trials = [symbols]

    worst = 0.0
    for i, syms in enumerate(trials):
        fm = free_moment(model, syms)
        lim = limit_truncated_smeared(model, syms)
        err = abs(fm - lim) / max(1.0, abs(lim))
        worst = max(worst, err)
        rows.append({
            "trial": i, "n": len(syms),
            "free_re": fm.real, "free_im": fm.imag,
            "limit_re": lim.real, "limit_im": lim.imag,
            "diff": abs(fm - lim),
        })
        print(f"trial {i}: n={len(syms)}  free={fm:.10g}  limit={lim:.10g}  diff={abs(fm - lim):.3e}")
    print(f"worst scaled difference = {worst:.3e}")
    _emit(args, rows, _meta(args, "free-check", trials=len(trials), seed=args.seed if args.random else None))
    if args.do_assert and worst > 1e-12:
        raise AssertionFailed(f"free product rule deviates by {worst:.3e} > 1e-12")
    return 0


def cmd_poisson(args) -> int:
    grid = EnergyGrid(e_max=args.e_max, bins=args.bins)
    rows = []
    failures = []
    for lam in args.lam:
        kappas = poisson_cumulants(lam, args.orders, grid, omega_index=args.omega_index)
        for l, kappa in enumerate(kappas, start=1):
            target = complex(lam) if args.omega_index == 0 else 0j
            rows.append({
                "lam": lam, "kind": "cumulant", "order": l,
                "value_re": kappa.real, "value_im": kappa.imag,
                "target_re": target.real, "abs_err": abs(kappa - target),
            })
        shown = ", ".join(f"{k.real:.12g}" for k in kappas)
        print(f"lambda={lam}: kappa_1..{args.orders} = {shown}")
        if args.omega_index == 0:
            if max(abs(k - lam) for k in kappas) > 1e-12:
                failures.append(f"lambda={lam}: cumulants deviate from lambda")
            if args.moments:
                moments = poisson_moments(lam, args.moments)
                targets = [touchard(nn, lam) for nn in range(1, args.moments + 1)]
                for nn, (m, t) in enumerate(zip(moments, targets), start=1):
                    rows.append({
                        "lam": lam, "kind": "moment", "order": nn,
                        "value_re": m, "value_im": 0.0,
                        "target_re": t, "abs_err": abs(m - t),
                    })
                print(f"lambda={lam}: moments 1..{args.moments} = " + ", ".join(f"{m:.10g}" for m in moments))
                if max(abs(m - t) / max(1.0, abs(t)) for m, t in zip(moments, targets)) > 1e-12:
                    failures.append(f"lambda={lam}: moments deviate from Touchard values")
        else:
            if any(k != 0 for k in kappas):
                failures.append(f"lambda={lam}: nonzero cumulant at omega_index={args.omega_index}")
    _emit(args, rows, _meta(args, "poisson", lam=args.lam, orders=args.orders,
                            bins=args.bins, e_max=args.e_max, omega_index=args.omega_index))
    if args.do_assert and failures:
        raise AssertionFailed("; ".join(failures))
    return 0


def cmd_independence(args) -> int:
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    if args.groups:
        try:
            index_groups = [[int(i) for i in part.split(",") if i.strip()] for part in args.groups.split(";")]
        except ValueError:
            raise ConfigError(f"--groups: expected '1,2;3' style indices, got {args.groups!r}")
        seen = [i for g in index_groups for i in g]
        if sorted(seen) != list(range(1, len(symbols) + 1)):
            raise ConfigError(f"--groups must use each symbol index 1..{len(symbols)} exactly once")
        groups = [[symbols[i - 1] for i in g] for g in index_groups]
    else:
        groups = [[s] for s in symbols]
    report = independence_probe(model, groups, args.epsilons, min_separation_widths=args.separation)
    for row in report.rows:
        warn = f"  [{';'.join(row.warnings)}]" if row.warnings else ""
        print(f"eps={row.epsilon:<8g} |probe|={abs(row.value):.6e}{warn}")
    _emit(args, report, _meta(args, "independence", **report.metadata))
    if args.do_assert:
        first, last = abs(report.rows[0].value), abs(report.rows[-1].value)
        if last > first:
            raise AssertionFailed(f"probe magnitude grew from {first:.3e} to {last:.3e}")
    return 0


def cmd_wn_expect(args) -> int:
    cfg, model = _load(args)
    if args.pairs:
        try:
            labels = [tuple(p.split(":")) for p in args.pairs.split(",")]
            labels = [(f.strip(), g.strip()) for f, g in labels]
        except ValueError:
            raise ConfigError(f"--pairs: expected 'f:g,f:g' style, got {args.pairs!r}")
    else:
        raw = cfg.get("symbols")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("symbols: missing from config and required by this command")
        labels = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "f" not in entry or "g" not in entry:
                raise ConfigError(f"symbols[{i}]: needs 'f' and 'g' vector names")
            labels.append((str(entry["f"]), str(entry["g"])))
    if args.order is not None:
        if args.order < 1 or args.order > len(labels):
            raise ConfigError(f"--order must be between 1 and the number of symbols ({len(labels)})")
        labels = labels[: args.order]
    for f, g in labels:
        for name in (f, g):
            if name not in model.vectors:
                raise ConfigError(f"vector {name!r} not defined in the model config")
    k = len(labels)

    trace = [] if args.show_steps else None
    vac = vacuum_expectation(labels, include_scalar=not args.connected_only, trace=trace)
    if trace is not None:
        for before, after in trace:
            print(f"  {before}")
            for t in after.terms:
                print(f"    -> {t}")
    evaluated = evaluate_symbolic(vac, model)

    rows = []
    for partition, value in sorted(evaluated.by_partition.items()):
        part_text = "|".join(",".join(str(i) for i in c) for c in partition)
        order = sum(len(c) - 1 for c in partition)
        rows.append({
            "partition": part_text, "delta_chain_order": order,
            "value_re": value.real, "value_im": value.imag,
        })
        print(f"partition {part_text:<12} chain order {order}  value = {value:.10g}")
    print(f"connected value = {evaluated.connected:.12g}")

    kernels = [rank_one_kernel(model, f, g) for f, g in labels]
    coeff = limit_truncated_coefficient(model, kernels, [FrequencyIndex(0)] * k)
    expected = TWO_PI ** (k - 1) * coeff.value
    print(f"chain coefficient check: engine={evaluated.connected:.10g}  spectral={expected:.10g}")
    _emit(args, rows, _meta(args, "wn-expect", k=k, labels=["{}:{}".format(*l) for l in labels],
                            connected_only=args.connected_only))
    if args.do_assert:
        err = abs(evaluated.connected - expected) / max(1.0, abs(expected))
        if err > 1e-10:
            raise AssertionFailed(f"connected chain deviates from the spectral coefficient by {err:.3e}")
    return 0


def cmd_diagrams(args) -> int:
    n = args.n
    diagrams = enumerate_pair_diagrams(n)
    classes = [(d, classify(d)) for d in diagrams]
    irreducible = [d for d, c in classes if c.irreducible]
    surviving = surviving_diagram(n)
    rows = []
    if args.list:
        for d, c in classes:
            rows.append({
                "sigma": " ".join(str(s) for s in d.sigma),
                "cycles": d.label(),
                "k": c.k,
                "irreducible": c.irreducible,
            })
            print(f"sigma=({rows[-1]['sigma']})  cycles={rows[-1]['cycles']}  k={c.k}  irreducible={c.irreducible}")
    else:
        rows.append({
            "n": n, "total": len(diagrams), "irreducible": len(irreducible),
            "surviving": surviving.label(),
        })
    print(f"n={n}: {len(diagrams)} diagrams, {len(irreducible)} irreducible, surviving cycle {surviving.label()}")
    _emit(args, rows, _meta(args, "diagrams", n=n))
    if args.do_assert:
        if len(diagrams) != factorial(n):
            raise AssertionFailed(f"expected {factorial(n)} diagrams, found {len(diagrams)}")
        if len(irreducible) != factorial(n - 1):
            raise AssertionFailed(f"expected {factorial(n - 1)} irreducible diagrams, found {len(irreducible)}")
        surv_class = classify(surviving)
        if not surv_class.irreducible or surv_class.k != 1:
            raise AssertionFailed("the surviving diagram is not a k=1 single cycle")
    return 0


def cmd_bell(args) -> int:
    rows = []
    bad = []
    for order in range(1, args.max_order + 1):
        b = bell(order)
        t = touchard(order, args.lam)
        rows.append({"order": order, "bell": b, "touchard": t})
        print(f"n={order}: bell={b}  touchard(lambda={args.lam})={t:g}")
        if abs(touchard(order, 1.0) - b) > 0:
            bad.append(order)
    _emit(args, rows, _meta(args, "bell", max_order=args.max_order, lam=args.lam))
    if args.do_assert and bad:
        raise AssertionFailed(f"touchard at lambda=1 disagrees with Bell numbers at orders {bad}")
    return 0


def cmd_delta_lemma(args) -> int:
    phi_cfg = {"family": args.phi_family, "width": args.sigma_t, "center": args.phi_center}
    if args.phi_family == "indicator":
        phi_cfg = {"family": "indicator", "lo": args.phi_lo, "hi": args.phi_hi}
    phi = test_function_from_config(phi_cfg, "phi")
    f = test_function_from_config({"family": "gaussian", "width": args.sigma_x, "center": args.f_center}, "f")
    report = delta_lemma_check(f, phi, args.epsilons)
    for row in report.rows:
        print(f"eps={row.epsilon:<8g} value={row.value:.8g}  target={row.limit:.8g}  rel_err={row.rel_err:.3e}")
    _emit(args, report, _meta(args, "delta-lemma", epsilons=args.epsilons))
    if args.do_assert:
        errs = [row.rel_err for row in report.rows]
        if any(e2 >= e1 for e1, e2 in zip(errs, errs[1:])):
            raise AssertionFailed(f"relative errors are not decreasing: {errs}")
        if errs[-1] > 0.05:
            raise AssertionFailed(f"final relative error {errs[-1]:.3e} exceeds 5%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lowdensity", description="Low density limit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, symbols=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON model/symbol config (builtin demo model when omitted)")
        p.add_argument("--out", help="write the result table to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="table format for --out")
        p.add_argument("--assert", dest="do_assert", action="store_true",
                       help="fail (exit 2) unless this command's headline claim holds")
        if symbols:
            p.add_argument("--symbols", help="JSON file with a symbols array, overrides the config's")
        return p

    command("limit", cmd_limit, "limiting truncated value of the configured symbols", symbols=True)

    p = command("sweep", cmd_sweep, "finite-epsilon truncated values against the limit", symbols=True)
    p.add_argument("--epsilons", type=_float_list, default=[0.2, 0.1, 0.05])

    p = command("free-check", cmd_free_check, "free white-noise product rule vs the limit formula", symbols=True)
    p.add_argument("--random", type=int, metavar="N", help="check N random symbol configurations")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")

    p = command("poisson", cmd_poisson, "hard-shell cumulants and moments")
    p.add_argument("--lambda", dest="lam", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--orders", type=int, default=6)
    p.add_argument("--moments", type=int, metavar="N", help="also compute moments up to order N")
    p.add_argument("--grid-bins", dest="bins", type=int, default=64)
    p.add_argument("--e-max", type=float, default=8.0)
    p.add_argument("--omega-index", type=int, default=0)

    p = command("independence", cmd_independence, "decay of correlations between separated groups")
    p.add_argument("--epsilons", type=_float_list, default=[0.2, 0.1, 0.05])
    p.add_argument("--groups", help="semicolon-separated 1-based symbol index groups, e.g. '1,2;3'")
    p.add_argument("--separation", type=float, default=10.0,
                   help="required group separation in units of the mean time width")

    p = command("wn-expect", cmd_wn_expect, "symbolic white-noise vacuum expectation", symbols=True)
    p.add_argument("--pairs", help="f:g pairs, e.g. 'a:b,b:a' (defaults to config symbols)")
    p.add_argument("--order", type=int, help="use only the first k symbols")
    p.add_argument("--connected-only", action="store_true", help="drop the scalar part of each symbol")
    p.add_argument("--show-steps", action="store_true", help="print each normal-ordering branch")

    p = command("diagrams", cmd_diagrams, "pairing diagram census")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--list", action="store_true", help="one row per diagram")

    p = command("bell", cmd_bell, "Bell numbers and Touchard moments")
    p.add_argument("--n", dest="max_order", type=int, default=6)
    p.add_argument("--lam", type=float, default=1.0)

    p = command("delta-lemma", cmd_delta_lemma, "oscillatory integral against its delta limit")
    p.add_argument("--epsilons", type=_float_list, default=[0.1, 0.03, 0.01])
    p.add_argument("--sigma-t", type=float, default=1.0, help="time width of the gaussian phi")
    p.add_argument("--sigma-x", type=float, default=1.0, help="width of the gaussian space factor")
    p.add_argument("--phi-family", choices=("gaussian", "indicator"), default="gaussian")
    p.add_argument("--phi-center", type=float, default=0.0)
    p.add_argument("--phi-lo", type=float, default=-1.0)
    p.add_argument("--phi-hi", type=float, default=1.0)
    p.add_argument("--f-center", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
