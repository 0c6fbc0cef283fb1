"""Command-line front end.

Subcommands: spectrum (dichotomy spectrum of a system under a rate), compare
(relation between two rates), verify (theorem harness), catalog (built-in
rates and systems).  Systems and rates are given as catalog names
("catalog:abs2t" or plain "q") or inline JSON descriptors.  A JSON config
file can supply any flag's value; explicit flags win.  Floats in reports are
fixed at 12 significant digits and the extended reals are encoded as the
strings "-inf"/"+inf", so identical configurations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import catalog, relations, spectrum, theorems
from .params import CONTINUOUS, DISCRETE, MAX_CONTINUOUS_WINDOW, MAX_DISCRETE_WINDOW, Params


_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_INCONCLUSIVE = 2
_EXIT_FAILS = 3


def _sanitize(obj):
    """Fixed float formatting (12 significant digits, "-inf"/"+inf"), applied
    recursively so reports serialize byte-identically."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "+inf" if obj > 0 else "-inf"
        if obj == int(obj) and abs(obj) < 1e15:
            return float(obj)
        return float(f"{obj:.12g}")
    return obj


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_block(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2) + "\n"


def _jsonl(payloads) -> str:
    return "".join(json.dumps(_sanitize(p), separators=(",", ":")) + "\n" for p in payloads)


# ---------------------------------------------------------------------------
# Argument handling


def _add_shared(parser: argparse.ArgumentParser):
    parser.add_argument("--schedule", help=(
        "comma-separated window sizes, used as given; without it, spectra use "
        "the default schedule and keep doubling the last window while an "
        f"estimate has not converged (up to {MAX_DISCRETE_WINDOW} discrete, "
        f"{MAX_CONTINUOUS_WINDOW} continuous)"))
    parser.add_argument("--tol-stab", type=float, dest="tol_stab", help=(
        f"absolute stabilization tolerance (default {Params.tol_stab}), in the "
        "units of the exponents and of the relation suprema; a spectrum under "
        "power_exp(p, lambda) scales like 1/lambda, so whether it converges "
        "depends on the rate's scale"))
    parser.add_argument("--cutoff", type=float, dest="cutoff_fraction")
    parser.add_argument("--gamma-max", type=float, dest="gamma_max")
    parser.add_argument("--delta-merge", type=float, dest="delta_merge")
    parser.add_argument("--output")
    parser.add_argument("--config")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the error code; argparse's own 2
    is this CLI's "inconclusive"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="muspec")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="dichotomy spectrum of a system under a rate")
    sp.add_argument("--system", required=True)
    sp.add_argument("--rate", required=True)
    sp.add_argument("--format", choices=("json", "csv", "table"), dest="fmt")
    _add_shared(sp)

    cp = sub.add_parser("compare", help="relation between two growth rates")
    cp.add_argument("--relation", required=True,
                    choices=("faster", "weakly-faster", "almost-faster",
                             "almost-slower", "weakly-equivalent", "equivalent",
                             "chain"))
    cp.add_argument("--a")
    cp.add_argument("--b")
    cp.add_argument("--rates", help="comma-separated rate list for --relation chain")
    cp.add_argument("--time-domain", choices=(DISCRETE, CONTINUOUS),
                    dest="time_domain")
    _add_shared(cp)

    vp = sub.add_parser("verify", help="run theorem checks")
    vp.add_argument("--theorem", required=True,
                    choices=("805", "806", "808", "809", "811", "908", "all"))
    vp.add_argument("--system")
    vp.add_argument("--mu")
    vp.add_argument("--omega")
    vp.add_argument("--a", type=float)
    vp.add_argument("--b", type=float)
    vp.add_argument("--variant", choices=("i", "ii", "iii"))
    vp.add_argument("--chain", help="comma-separated rate names")
    _add_shared(vp)

    gp = sub.add_parser("catalog", help="list built-in rates and systems")
    gp.add_argument("--json", action="store_true", dest="as_json")
    gp.add_argument("--output")
    return parser, sub.choices


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset flags from the JSON config, whose keys are the subcommand's
    long options without dashes ("format", "tol-stab" or "tol_stab")."""
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config: expected a JSON object")
    for key, value in cfg.items():
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or not hasattr(args, action.dest):
            raise ValueError(f"config: unknown key {key!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config: {key} must be one of {', '.join(action.choices)}, "
                             f"got {value!r}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(key, value, action))


# flags naming a system or a rate, which take a descriptor object as well
_DESCRIPTOR_DESTS = frozenset({"system", "rate", "mu", "omega", "a", "b"})


def _config_value(key: str, value, action: argparse.Action):
    """A config value as its flag takes it: a JSON number for a float flag,
    a list of windows or a comma-separated string for --schedule, a string
    or a descriptor object for a system or rate, and a string otherwise."""
    if action.type is float:
        accepted, kind = (int, float), "a number"
    elif action.dest == "schedule":
        accepted, kind = (str, list), "a list of windows or a comma-separated string"
    elif action.dest in _DESCRIPTOR_DESTS:
        accepted, kind = (str, dict), "a string or a descriptor object"
    else:
        accepted, kind = (str,), "a string"
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config: {key} must be {kind}, got {value!r}")
    if action.type is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"config: {key} is out of range") from None


def _window(token: str) -> int | str:
    """One window of a comma-separated schedule: its integer, or the token
    itself when it is none, which ``Params`` then rejects by name."""
    try:
        return int(token)
    except ValueError:
        return token


def _build_params(args: argparse.Namespace) -> Params:
    kwargs = {}
    schedule = getattr(args, "schedule", None)
    if schedule:
        if isinstance(schedule, str):
            schedule = [_window(tok) for tok in schedule.split(",")]
        kwargs["schedule"] = tuple(schedule)
    for name in ("tol_stab", "cutoff_fraction", "gamma_max", "delta_merge"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = float(value)
    return Params(**kwargs)


# ---------------------------------------------------------------------------
# Commands


def _cmd_spectrum(args) -> int:
    params = _build_params(args)
    system = catalog.resolve_system(args.system)
    rate = catalog.resolve_rate(args.rate, system.time_domain)
    report = spectrum.compute_spectrum(system, rate, params)
    payload = report.to_dict()
    fmt = args.fmt or "json"
    if fmt == "csv":
        lines = ["window,component,lambda_lower,lambda_upper"]
        for row in payload["traces"]:
            lines.append("{window:g},{component},{lo},{hi}".format(
                window=row["window"], component=row["component"],
                lo=_csv_num(row["lambda_lower"]), hi=_csv_num(row["lambda_upper"])))
        _emit("\n".join(lines) + "\n", args.output)
    elif fmt == "table":
        lines = [f"mode: {payload['mode']}  converged: {payload['converged']}"]
        for iv in payload["intervals"]:
            lines.append(f"interval [{iv['lo']}, {iv['hi']}]")
        for gap in payload["gaps"]:
            lines.append(f"gap ({gap['lo']}, {gap['hi']}) rank {gap['rank']}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_json_block(payload), args.output)
    return _EXIT_OK if report.converged else _EXIT_INCONCLUSIVE


def _csv_num(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.12g}"


def _cmd_compare(args) -> int:
    params = _build_params(args)
    domain = args.time_domain or DISCRETE
    if args.relation == "chain":
        if not args.rates:
            raise ValueError("compare --relation chain needs --rates")
        rate_objs = [catalog.resolve_rate(tok, domain) for tok in args.rates.split(",")]
        report = relations.chain_check(rate_objs, params)
        _emit(_json_block(report.to_dict()), args.output)
        return _outcome_exit(report.outcome)
    if not args.a or not args.b:
        raise ValueError("compare needs --a and --b")
    a = catalog.resolve_rate(args.a, domain)
    b = catalog.resolve_rate(args.b, domain)
    checks = {"faster": lambda: relations.check_faster(a, b, params),
              "weakly-faster": lambda: relations.check_weakly_faster(a, b, params),
              "almost-faster": lambda: relations.check_almost(a, b, "faster", params),
              "almost-slower": lambda: relations.check_almost(b, a, "slower", params)}
    if args.relation in checks:
        verdict = checks[args.relation]()
        payload, outcome = verdict.to_dict(), verdict.outcome
    else:
        cls = relations.classify_pair(a, b, params)
        key = "weakly_equivalent" if args.relation == "weakly-equivalent" else "equivalent"
        outcome = getattr(cls, key)
        payload = {"relation": key, "outcome": outcome,
                   "classification": cls.to_dict()}
    _emit(_json_block(payload), args.output)
    return _outcome_exit(outcome)


def _outcome_exit(outcome: str) -> int:
    if outcome == relations.HOLDS:
        return _EXIT_OK
    if outcome == relations.FAILS:
        return _EXIT_FAILS
    return _EXIT_INCONCLUSIVE


def _cmd_verify(args) -> int:
    params = _build_params(args)
    if args.theorem == "all":
        reports = theorems.run_all(params)
    else:
        if not args.system:
            raise ValueError("verify needs --system for a single theorem")
        system = catalog.resolve_system(args.system)
        domain = system.time_domain
        if args.theorem == "811":
            if not args.chain:
                raise ValueError("verify --theorem 811 needs --chain")
            names = [tok.strip() for tok in args.chain.split(",")]
            chain = [catalog.resolve_rate(n, domain) for n in names]
            reports = [theorems.verify_811(system, chain, params,
                                           fixture=args.system, rate_names=names)]
        else:
            if not args.mu or not args.omega:
                raise ValueError(f"verify --theorem {args.theorem} needs --mu and --omega")
            mu = catalog.resolve_rate(args.mu, domain)
            omega = catalog.resolve_rate(args.omega, domain)
            if args.theorem == "805":
                reports = [theorems.verify_805(system, mu, omega, params,
                                               fixture=args.system)]
            elif args.theorem == "806":
                reports = [theorems.verify_806(system, omega, mu, params,
                                               fixture=args.system)]
            elif args.theorem in ("808", "809"):
                variant = args.theorem + (args.variant or "i")
                reports = [theorems.verify_808_809(
                    system, mu, omega, a=args.a, b=args.b, variant=variant,
                    params=params, fixture=args.system)]
            else:
                reports = [theorems.verify_908(system, mu, omega, params,
                                               fixture=args.system)]
    _emit(_jsonl(r.to_dict() for r in reports), args.output)
    failed = sum(1 for r in reports if r.status == "fail")
    return _EXIT_OK if failed == 0 else _EXIT_ERROR


def _cmd_catalog(args) -> int:
    payload = catalog.listing()
    if args.as_json:
        _emit(_json_block(payload), getattr(args, "output", None))
        return _EXIT_OK
    lines = []
    for section, entries in payload.items():
        lines.append(f"{section}:")
        lines += [f"  {name}: {json.dumps(_sanitize(desc))}" for name, desc in entries.items()]
    _emit("\n".join(lines) + "\n", getattr(args, "output", None))
    return _EXIT_OK


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, commands[args.command])
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_catalog(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
