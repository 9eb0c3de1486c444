"""Command-line entry point binding the simulation and analysis modules.

Commands mirror the package layout: ``cg`` (slope quadrature), ``simulate``
(one Monte Carlo experiment), ``sweep`` (the Monte Carlo table of
``mcstats.slope_rows`` over laws and n, CSV/SVG), ``kacrice-audit`` (scan
vs delta-integral agreement), ``conditions`` (non-resonance reports and the
bad-pair sweep), ``charfn`` (decay scan), ``smallball`` (ball-probability
scan), ``verify`` (the acceptance suite; ``--only 6,7`` gives the Edgeworth
corrector limits).  Every artifact embeds the package version, the seed,
and a hash of the resolved configuration; records are JSON, tables are
CSV.  Bad input, including a bad ``--config`` file or thread count, ends
in one JSON error line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

import trigroots
from trigroots import acceptance, ensemble
from trigroots.cganalytic import CgQuadratureConfig, compute_cg
from trigroots.charprobe import decay_scan, small_ball_mc, smallball_1d_scan
from trigroots.diophantine import (
    build_D,
    check_condition_st,
    check_condition_t,
    good_t,
)
from trigroots.ensemble import parse_distribution
from trigroots.mcstats import run_experiment, slope_rows, slope_series
from trigroots.rootcount import AGREEMENT_SHARE, check_delta, count_kacrice

ENV_THREADS = "TRIGROOTS_THREADS"


#: keys with no effect on computed results, excluded from the config hash
_VOLATILE_KEYS = {"threads", "out", "svg", "roots_csv"}


def _config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in _VOLATILE_KEYS}
    return hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:16]


def _meta(cfg: dict) -> dict:
    return {"build": f"trigroots-{trigroots.__version__}",
            "seed": cfg.get("seed"),
            "config_hash": _config_hash(cfg)}


def _emit_json(payload: dict, path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    print(text)


def _emit_csv(rows: list[dict], path: str | None, cfg: dict):
    if not rows:
        return
    cols = list(rows[0].keys())
    meta = _meta(cfg)
    lines = [f"# build={meta['build']} seed={meta['seed']} config_hash={meta['config_hash']}"]
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                            for c in cols))
    text = "\n".join(lines + out) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_sweep_svg(rows: list[dict], path: str):
    """Minimal line chart of var/n against n, one polyline per ensemble."""
    series: dict[str, list] = {}
    for r in rows:
        series.setdefault(r["dist"], []).append((r["n"], r["var_over_n"]))
    W, H, pad = 640, 400, 50
    xs = [n for pts in series.values() for n, _ in pts]
    ys = [v for pts in series.values() for _, v in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys) * 0.9, max(ys) * 1.1

    def sx(x):
        return pad + (W - 2 * pad) * (x - x0) / max(x1 - x0, 1e-12)

    def sy(y):
        return H - pad - (H - 2 * pad) * (y - y0) / max(y1 - y0, 1e-12)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>']
    for i, (name, pts) in enumerate(sorted(series.items())):
        pl = " ".join(f"{sx(n):.1f},{sy(v):.1f}" for n, v in pts)
        c = colors[i % len(colors)]
        parts.append(f'<polyline points="{pl}" fill="none" stroke="{c}" stroke-width="2"/>')
        parts.append(f'<text x="{pad}" y="{pad + 16 * i}" fill="{c}" font-size="13">{name}</text>')
    parts.append(f'<text x="{W/2:.0f}" y="{H - 12}" font-size="12" text-anchor="middle">n</text>')
    parts.append(f'<text x="14" y="{H/2:.0f}" font-size="12" transform="rotate(-90 14 {H/2:.0f})">variance / n</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _add_common(p):
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker processes (default ${ENV_THREADS} or 1)")
    p.add_argument("--out", type=str, default=None, help="output file path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of defaults, overridden by flags")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trigroots",
        description="Monte Carlo and quadrature laboratory for real roots "
                    "of random trigonometric polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cg", help="slope constant by adaptive quadrature")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--t0", type=float, default=0.05)
    _add_common(p)

    p = sub.add_parser("simulate", help="one Monte Carlo experiment")
    p.add_argument("--dist", type=str, default="gaussian")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser(
        "sweep", help="Monte Carlo table over laws and n (CSV/SVG)",
        epilog="CSV columns: dist, n, trials, flagged_trial_count, unreliable, mean, "
               "se_mean, variance, se_variance, var_over_n, se, var_over_n2")
    p.add_argument("--dist", type=str, default="gaussian,rademacher",
                   help="comma-separated ensemble list")
    p.add_argument("--n", type=str, default="64,128,256", help="comma-separated n list")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--svg", type=str, default=None, help="also write an SVG chart")
    _add_common(p)

    p = sub.add_parser(
        "kacrice-audit", help="scan vs delta-integral agreement",
        epilog="roots CSV columns: trial_index, root, residual")
    p.add_argument("--dist", type=str, default="gaussian")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--roots-csv", type=str, default=None,
                   help="dump per-sample refined roots to CSV")
    _add_common(p)

    p = sub.add_parser(
        "conditions", help="non-resonance checks / bad-pair sweep",
        epilog="sweep CSV columns: n, eps, tau, intervals, bad_fraction")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--pair", type=float, nargs=2, default=None,
                   metavar=("S", "T"), help="check one (s, t) pair")
    p.add_argument("--t", type=float, default=None, help="check one point")
    p.add_argument("--sweep", type=str, default=None,
                   help="comma-separated n list for a bad-fraction CSV")
    _add_common(p)

    p = sub.add_parser(
        "charfn", help="characteristic-function decay scan",
        epilog="CSV columns: radius, worst_log_abs, bound_log, in_regime")
    p.add_argument("--dist", type=str, default="rademacher")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--cstar", type=float, default=1.0)
    p.add_argument("--radii", type=int, default=12)
    p.add_argument("--directions", type=int, default=32)
    _add_common(p)

    p = sub.add_parser(
        "smallball", help="ball-probability Monte Carlo scan",
        epilog="CSV columns: center, probability, se[, p_over_delta2]")
    p.add_argument("--dist", type=str, default="rademacher")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--one-d", action="store_true", help="scan P_n(t) alone")
    _add_common(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated criterion ids")
    _add_common(p)
    # exact flags only, so that _resolve's argv scan sees every explicit one
    for p in sub.choices.values():
        p.allow_abbrev = False
    ap.commands = sub.choices
    return ap


#: the list flags, read by ``_list_flag`` with their item type
_LIST_FLAGS = {("sweep", "dist"): str, ("sweep", "n"): int,
               ("conditions", "sweep"): int, ("verify", "only"): int}


def _config_value(command: str, action, value):
    """A ``--config`` value as its flag reads it: null where the default is,
    anything for a list flag (``_list_flag`` checks it), else the JSON type of
    its ``type`` (an int is a float, a bool only a switch), ``nargs`` in a list."""
    if value is None and action.default is None or (command, action.dest) in _LIST_FLAGS:
        return value
    kind = bool if action.nargs == 0 else action.type or str
    items = value if action.nargs and isinstance(value, list) else [value]
    if len(items) != (action.nargs or 1) or not all(
            type(x) in ((int, float) if kind is float else (kind,)) for x in items):
        raise ValueError(f"--config value {json.dumps(value)} does not fit "
                         f"{action.option_strings[0]}, which takes {kind.__name__}")
    return [kind(x) for x in items] if action.nargs else kind(value)


def _resolve(args, argv) -> dict:
    """Merge precedence: parser defaults < config file < explicit flags; the
    config file is a JSON object of the command's flags (``_config_value``)."""
    cfg = {k: v for k, v in vars(args).items() if k != "config"}
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"--config must hold a JSON object, got a {type(loaded).__name__}")
        if unknown := sorted(k for k in loaded if k not in cfg or k == "command"):
            raise ValueError(f"--config has unknown keys {unknown}: not flags of {args.command}")
        actions = {a.dest: a for a in build_parser().commands[args.command]._actions}
        for k, v in loaded.items():
            v, flag = _config_value(args.command, actions[k], v), actions[k].option_strings[0]
            if not any(a == flag or a.startswith(flag + "=") for a in argv):
                cfg[k] = v
    if cfg.get("threads") is None:
        cfg["threads"] = int(os.environ.get(ENV_THREADS, "1"))
    return cfg


def _list_flag(cfg: dict, key: str) -> list:
    """The items of a list flag, given as a comma string or, in ``--config``,
    as a JSON list of its item type; a bad item is refused with the flag's name."""
    value, item = cfg[key], _LIST_FLAGS[cfg["command"], key]
    try:
        items = value if isinstance(value, list) else [
            item(x.strip()) for x in str(value).split(",")]
        if all(type(x) is item for x in items):
            return items
    except ValueError:
        pass
    raise ValueError(f"--{key} takes a comma-separated list or a JSON list of "
                     f"{item.__name__} items, got {value!r}")


def _cmd_cg(cfg):
    res = compute_cg(CgQuadratureConfig(t0=cfg["t0"], tail_start=cfg["tmax"],
                                        abs_tol=cfg["tol"]))
    _emit_json({"meta": _meta(cfg), "value": res.value,
                "error_estimate": res.error_estimate,
                "panels": res.panels, "evaluations": res.evaluations,
                "integral": res.integral, "tail": res.tail,
                "envelope": list(res.envelope)}, cfg.get("out"))
    return 0


def _cmd_simulate(cfg):
    dist = parse_distribution(cfg["dist"])
    rec = run_experiment(dist, cfg["n"], cfg["trials"], cfg["seed"],
                         parallelism=cfg["threads"])
    _emit_json({"meta": _meta(cfg), "record": rec.to_dict()}, cfg.get("out"))
    return 0


def _cmd_sweep(cfg):
    n_list = _list_flag(cfg, "n")
    rows = []
    for name in _list_flag(cfg, "dist"):
        dist = parse_distribution(name)
        recs = slope_series(dist, n_list, cfg["trials"], cfg["seed"],
                            parallelism=cfg["threads"])
        rows.extend(slope_rows(recs))
    _emit_csv(rows, cfg.get("out"), cfg)
    if cfg.get("svg"):
        write_sweep_svg(rows, cfg["svg"])
    return 0


def _cmd_kacrice_audit(cfg):
    dist = parse_distribution(cfg["dist"])
    check_delta(cfg["delta"])
    if cfg["trials"] < 1:
        raise ValueError(f"trials must be >= 1, got {cfg['trials']}")
    agree = flagged = 0
    root_rows = []
    for trial in range(cfg["trials"]):
        s = ensemble.sample(dist, cfg["n"], cfg["seed"], trial)
        kr = count_kacrice(s, delta=cfg["delta"])
        agree += kr.agrees
        flagged += kr.flagged
        if cfg.get("roots_csv"):
            rr = kr.root_result
            root_rows.extend({"trial_index": trial, "root": float(r), "residual": float(e)}
                             for r, e in zip(rr.roots, rr.residuals))
    if cfg.get("roots_csv"):
        _emit_csv(root_rows, cfg["roots_csv"], cfg)
    _emit_json({"meta": _meta(cfg), "trials": cfg["trials"], "agree": agree,
                "flagged": flagged, "delta": cfg["delta"]}, cfg.get("out"))
    return 0 if agree >= AGREEMENT_SHARE * cfg["trials"] else 1


def _cmd_conditions(cfg):
    payload = {"meta": _meta(cfg), "n": cfg["n"], "tau": cfg["tau"]}
    if cfg.get("t") is not None:
        r = check_condition_t(cfg["n"], cfg["t"], cfg["tau"])
        payload["point"] = dataclasses.asdict(r)
    if cfg.get("pair") is not None:
        s, t = cfg["pair"]
        r = check_condition_st(cfg["n"], s, t, cfg["tau"])
        payload["pair"] = dataclasses.asdict(r)
    if cfg.get("sweep"):
        rows = []
        for n in _list_flag(cfg, "sweep"):
            D = build_D(n, cfg["eps"], cfg["tau"])
            rows.append({"n": n, "eps": cfg["eps"], "tau": cfg["tau"],
                         "intervals": D.interval_count,
                         "bad_fraction": D.bad_fraction})
        _emit_csv(rows, cfg.get("out"), cfg)
        return 0
    if "point" not in payload and "pair" not in payload:
        D = build_D(cfg["n"], cfg["eps"], cfg["tau"])
        payload["region"] = {"intervals": D.interval_count,
                             "total_pairs": D.total_pairs,
                             "bad_pairs": D.bad_pairs,
                             "bad_fraction": D.bad_fraction}
    _emit_json(payload, cfg.get("out"))
    return 0


def _cmd_charfn(cfg):
    dist = parse_distribution(cfg["dist"])
    n = cfg["n"]
    t = cfg["t"] if cfg.get("t") is not None else good_t(n, cfg["tau"])
    rep = decay_scan(n, t, dist, tau=cfg["tau"], c_star=cfg["cstar"],
                     radii_count=cfg["radii"],
                     directions_per_radius=cfg["directions"],
                     seed=cfg["seed"], s=cfg.get("s"))
    rows = [{"radius": float(r), "worst_log_abs": float(w),
             "bound_log": float(b), "in_regime": bool(f)}
            for r, w, b, f in zip(rep.radii, rep.worst_log_abs,
                                  rep.bound_log, rep.regime_flags)]
    _emit_csv(rows, cfg.get("out"), cfg)
    return 0


def _cmd_smallball(cfg):
    dist = parse_distribution(cfg["dist"])
    n = cfg["n"]
    t = cfg["t"] if cfg.get("t") is not None else good_t(n)
    if cfg.get("one_d"):
        res = smallball_1d_scan(n, t, dist, cfg["delta"], cfg["trials"], cfg["seed"])
        rows = [{"center": float(c), "probability": float(p), "se": float(s)}
                for c, p, s in zip(res.centers, res.probabilities, res.ses)]
    else:
        rows = []
        for a in np.linspace(-1.0, 1.0, 9):
            est = small_ball_mc(n, t, dist, np.array([a, 0.0]), cfg["delta"],
                                cfg["trials"], cfg["seed"], force=True)
            rows.append({"center": float(a), "probability": est.probability,
                         "se": est.se,
                         "p_over_delta2": est.probability / cfg["delta"]**2})
    _emit_csv(rows, cfg.get("out"), cfg)
    return 0


def _cmd_verify(cfg):
    only = set(_list_flag(cfg, "only")) if cfg.get("only") else None
    report = acceptance.run_all(seed=cfg["seed"], parallelism=cfg["threads"],
                                only=only, progress=print)
    payload = json.loads(report.to_json())
    payload["meta"] = _meta(cfg)
    _emit_json(payload, cfg.get("out"))
    return 0 if report.all_passed else 1


_COMMANDS = {
    "cg": _cmd_cg,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "kacrice-audit": _cmd_kacrice_audit,
    "conditions": _cmd_conditions,
    "charfn": _cmd_charfn,
    "smallball": _cmd_smallball,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, list(argv))
        return _COMMANDS[args.command](cfg)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__,
                          "command": args.command}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
