"""Command-line entry point binding the simulation and analysis modules.

Commands mirror the package layout: ``cg`` (slope quadrature), ``simulate``
(one Monte Carlo experiment), ``sweep`` (the Monte Carlo table of
``mcstats.slope_rows`` over laws and n, as CSV), ``kacrice-audit`` (scan
vs delta-integral agreement), ``conditions`` (the bad-fraction CSV over an
n list, or the non-resonance report of one point or pair at one n),
``charfn`` (decay scan over the radius window), ``smallball``
(ball-probability scan), ``verify`` (the acceptance suite; ``--only 6 7``
gives the Edgeworth corrector limits).  A command has ``--seed`` only if it
draws and ``--threads`` only if it runs worker processes.  List flags take
space-separated values; a ``--config`` file's values become the command's
parser defaults, so argparse lets an explicit flag win.  Every artifact
embeds the package version, the seed (null for ``cg`` and ``conditions``) and
a hash of the resolved configuration; records are JSON, tables are CSV.  Bad input,
including an unknown flag or a bad ``--config`` file or thread count, ends
in one JSON error line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

import trigroots
from trigroots import acceptance, ensemble
from trigroots.cganalytic import compute_cg
from trigroots.charprobe import decay_scan, small_ball_mc
from trigroots.diophantine import (
    TAU,
    build_D,
    check_condition_st,
    check_condition_t,
    good_t,
)
from trigroots.ensemble import parse_distribution
from trigroots.mcstats import TABLE_COLUMNS, run_experiment, slope_rows, slope_series
from trigroots.rootcount import AGREEMENT_SHARE, count_kacrice

#: the CSV columns of each table but ``sweep``'s (``mcstats.TABLE_COLUMNS``)
ROOT_COLUMNS = ("trial_index", "root", "residual")
BAD_FRACTION_COLUMNS = ("n", "eps", "tau", "intervals", "bad_pairs", "bad_fraction")
DECAY_COLUMNS = ("radius", "worst_log_abs", "bound_log")
SMALLBALL_COLUMNS = ("center", "probability", "se", "p_over_delta2")

#: keys with no effect on computed results, excluded from the config hash
_VOLATILE_KEYS = {"threads", "out", "roots_csv"}


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


def _emit_csv(rows: list, columns: tuple, path: str | None, cfg: dict):
    """The ``#`` meta line, the header, then one line a row of values in
    column order, a cell quoted where it holds a comma or a quote."""
    meta = _meta(cfg)
    buf = io.StringIO()
    buf.write(f"# build={meta['build']} seed={json.dumps(meta['seed'])} "
              f"config_hash={meta['config_hash']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    text = buf.getvalue()
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p, seed=False, threads=False):
    if seed:
        p.add_argument("--seed", type=int, default=2026)
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes; the output is the same at any count")
    p.add_argument("--out", type=str, default=None, help="output file path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON object of flag values, overridden by flags")


class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown or abbreviated flag, a flag value of the
    wrong type) raise, so ``main`` reports them as any other bad input;
    ``--help`` still prints and exits 0.  Subcommand parsers share the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="trigroots",
        description="Monte Carlo and quadrature laboratory for real roots "
                    "of random trigonometric polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cg", help="slope constant by adaptive quadrature")
    cg_defaults = inspect.signature(compute_cg).parameters
    p.add_argument("--tol", type=float, default=cg_defaults["abs_tol"].default)
    p.add_argument("--tmax", type=float, default=cg_defaults["tail_start"].default)
    _add_common(p)

    p = sub.add_parser("simulate", help="one Monte Carlo experiment")
    p.add_argument("--dist", type=str, default="gaussian")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p, seed=True, threads=True)

    p = sub.add_parser(
        "sweep", help="Monte Carlo table over laws and n (CSV)",
        epilog="CSV columns: " + ", ".join(TABLE_COLUMNS))
    p.add_argument("--dist", type=str, nargs="+", default=["gaussian", "rademacher"],
                   help="ensemble list")
    p.add_argument("--n", type=int, nargs="+", default=[64, 128, 256], help="n list")
    p.add_argument("--trials", type=int, default=2000)
    _add_common(p, seed=True, threads=True)

    p = sub.add_parser(
        "kacrice-audit", help="scan vs delta-integral agreement",
        epilog="roots CSV columns: " + ", ".join(ROOT_COLUMNS))
    p.add_argument("--dist", type=str, default="gaussian")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--roots-csv", type=str, default=None,
                   help="dump per-sample refined roots to CSV")
    _add_common(p, seed=True)

    p = sub.add_parser(
        "conditions", help="bad-fraction CSV over n / one point or pair check",
        epilog="without --t and --pair, a CSV row per n; CSV columns: "
               + ", ".join(BAD_FRACTION_COLUMNS))
    p.add_argument("--n", type=int, nargs="+", default=[1000],
                   help="n list; --t and --pair take one n")
    p.add_argument("--tau", type=float, default=TAU)
    p.add_argument("--eps", type=float, default=None,
                   help="interval width of the bad-fraction CSV (default 1.0)")
    p.add_argument("--pair", type=float, nargs=2, default=None,
                   metavar=("S", "T"), help="check one (s, t) pair")
    p.add_argument("--t", type=float, default=None, help="check one point")
    _add_common(p)

    p = sub.add_parser(
        "charfn", help="characteristic-function decay scan",
        epilog="radii log-spaced over [n^(5 tau - 1/2), n^cstar], which must not "
               "be empty; CSV columns: " + ", ".join(DECAY_COLUMNS))
    p.add_argument("--dist", type=str, default="rademacher")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--tau", type=float, default=TAU)
    p.add_argument("--cstar", type=float, default=1.0)
    p.add_argument("--radii", type=int, default=12)
    p.add_argument("--directions", type=int, default=32)
    _add_common(p, seed=True)

    p = sub.add_parser(
        "smallball", help="ball-probability Monte Carlo scan",
        epilog="CSV columns: " + ", ".join(SMALLBALL_COLUMNS))
    p.add_argument("--dist", type=str, default="rademacher")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p, seed=True)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", type=int, nargs="+", default=None, help="criterion ids")
    _add_common(p, seed=True, threads=True)
    # exact flags only: a prefix would change meaning when a flag is added
    for p in sub.choices.values():
        p.allow_abbrev = False
    ap.commands = sub.choices
    return ap


def _config_value(action, value):
    """A ``--config`` value as its flag reads it: null where the default is,
    else the JSON type of its ``type`` (an int is a float; a bool fits no
    flag), a multi-value flag's values in a JSON list of its length."""
    if value is None and action.default is None:
        return value
    kind, many = action.type, action.nargs is not None
    items = value if many else [value]
    fits = isinstance(items, list) and (
        len(items) == action.nargs if type(action.nargs) is int else len(items) > 0)
    if not fits or not all(type(x) in ((int, float) if kind is float else (kind,))
                           for x in items):
        what = f"a JSON list of {kind.__name__}" if many else kind.__name__
        raise ValueError(f"--config value {json.dumps(value)} does not fit "
                         f"{action.option_strings[0]}, which takes {what}")
    return [kind(x) for x in items] if many else kind(value)


def _resolve(parser, argv) -> dict:
    """Parse ``argv``; a ``--config`` file, a JSON object of the command's
    flags (``_config_value``), sets the command's parser defaults and the
    line is parsed again, so argparse puts explicit flags over the file."""
    args = parser.parse_args(argv)
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"--config must hold a JSON object, got a {type(loaded).__name__}")
        command = parser.commands[args.command]
        actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
        if unknown := sorted(k for k in loaded if k not in actions):
            raise ValueError(f"--config has unknown keys {unknown}: not flags of {args.command}")
        command.set_defaults(**{k: _config_value(actions[k], v) for k, v in loaded.items()})
        args = parser.parse_args(argv)
    return {k: v for k, v in vars(args).items() if k != "config"}


def _cmd_cg(cfg):
    res = compute_cg(abs_tol=cfg["tol"], tail_start=cfg["tmax"])
    _emit_json({"meta": _meta(cfg), "value": res.value,
                "error_estimate": res.error_estimate,
                "panels": res.panels, "evaluations": res.evaluations,
                "integral": res.integral, "tail": res.tail}, cfg.get("out"))
    return 0


def _cmd_simulate(cfg):
    dist = parse_distribution(cfg["dist"])
    rec = run_experiment(dist, cfg["n"], cfg["trials"], cfg["seed"],
                         parallelism=cfg["threads"])
    _emit_json({"meta": _meta(cfg), "record": rec.to_dict()}, cfg.get("out"))
    return 0


def _cmd_sweep(cfg):
    rows = []
    for name in cfg["dist"]:
        dist = parse_distribution(name)
        recs = slope_series(dist, cfg["n"], cfg["trials"], cfg["seed"],
                            parallelism=cfg["threads"])
        rows.extend([r[c] for c in TABLE_COLUMNS] for r in slope_rows(recs))
    _emit_csv(rows, TABLE_COLUMNS, cfg.get("out"), cfg)
    return 0


def _cmd_kacrice_audit(cfg):
    dist = parse_distribution(cfg["dist"])
    ensemble.check_positive("delta", cfg["delta"])
    ensemble.check_integer("trials", cfg["trials"], 1)
    agree = flagged = 0
    root_rows = []
    for trial in range(cfg["trials"]):
        s = ensemble.sample(dist, cfg["n"], cfg["seed"], trial)
        kr = count_kacrice(s, delta=cfg["delta"])
        agree += kr.agrees
        flagged += kr.flagged
        if cfg.get("roots_csv"):
            rr = kr.root_result
            root_rows.extend((trial, float(r), float(e))
                             for r, e in zip(rr.roots, rr.residuals))
    if cfg.get("roots_csv"):
        _emit_csv(root_rows, ROOT_COLUMNS, cfg["roots_csv"], cfg)
    _emit_json({"meta": _meta(cfg), "distribution": dist.label(), "n": cfg["n"],
                "trials": cfg["trials"], "agree": agree, "flagged": flagged,
                "delta": cfg["delta"]}, cfg.get("out"))
    return 0 if agree >= AGREEMENT_SHARE * cfg["trials"] else 1


def _cmd_conditions(cfg):
    if cfg.get("t") is None and cfg.get("pair") is None:
        if cfg["eps"] is None:
            cfg["eps"] = 1.0
        rows = []
        for n in cfg["n"]:
            D = build_D(n, cfg["eps"], cfg["tau"])
            rows.append((n, cfg["eps"], cfg["tau"], D.interval_count, D.bad_pairs,
                         D.bad_fraction))
        _emit_csv(rows, BAD_FRACTION_COLUMNS, cfg.get("out"), cfg)
        return 0
    if cfg["eps"] is not None:
        raise ValueError("--eps sets the bad-fraction intervals; it takes no --t or --pair")
    if len(cfg["n"]) != 1:
        raise ValueError(f"--t and --pair take one n, got {len(cfg['n'])}: {cfg['n']}")
    (n,) = cfg["n"]
    payload = {"meta": _meta(cfg), "n": n, "tau": cfg["tau"]}
    if cfg.get("t") is not None:
        r = check_condition_t(n, cfg["t"], cfg["tau"])
        payload["point"] = dataclasses.asdict(r)
    if cfg.get("pair") is not None:
        s, t = cfg["pair"]
        r = check_condition_st(n, s, t, cfg["tau"])
        payload["pair"] = dataclasses.asdict(r)
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
    rows = [(float(r), float(w), float(b))
            for r, w, b in zip(rep.radii, rep.worst_log_abs, rep.bound_log)]
    _emit_csv(rows, DECAY_COLUMNS, cfg.get("out"), cfg)
    return 0


def _cmd_smallball(cfg):
    dist = parse_distribution(cfg["dist"])
    n = cfg["n"]
    t = cfg["t"] if cfg.get("t") is not None else good_t(n)
    rows = []
    for a in np.linspace(-1.0, 1.0, 9):
        est = small_ball_mc(n, t, dist, np.array([a, 0.0]), cfg["delta"],
                            cfg["trials"], cfg["seed"], force=True)
        rows.append((float(a), est.probability, est.se,
                     est.probability / cfg["delta"]**2))
    _emit_csv(rows, SMALLBALL_COLUMNS, cfg.get("out"), cfg)
    return 0


def _cmd_verify(cfg):
    only = set(cfg["only"]) if cfg.get("only") else None
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = argv[0] if argv and argv[0] in parser.commands else None
    try:
        cfg = _resolve(parser, argv)
        return _COMMANDS[cfg["command"]](cfg)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__,
                          "command": command}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
