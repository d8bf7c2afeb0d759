"""Command-line interface.

Exit discipline: 0 when every requested check passes, 1 when any check
fails (with witnesses in the output), 2 when no verdict is reached: usage
errors, unreadable or malformed input, and every library error, whether an
input the command cannot take (ShapeMismatch, NotSelfAdjoint, NotPSD,
Singular, UnknownFixture) or a precondition the input does not meet
(SupportNotFull, PreconditionsUnmet, PullbackNotPSD, NotCommutative,
NotAeDeterministic).  JSON output (--format json) is the stable machine
contract; text output is for humans and may change.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import props as props_mod
from . import serialize as ser
from .bayes import (
    _candidate,
    _commutative_problem,
    _disintegration,
    _modularity,
    _verified,
    bayes_candidate,
    bayes_problem,
    petz_exists,
    petz_recovery,
)
from .channel import (
    is_cp,
    is_deterministic,
    is_positive_sampled,
    is_schwarz_sampled,
    is_star_preserving,
    is_unital,
)
from .errors import QmarkovError, UnknownFixture
from .finstoch import bayes_inverse, is_ae_deterministic, push
from .state import ae_deterministic, ae_unital
from .tolerances import DEFAULT_TOL, Tolerance

_CHECKS = {
    "cp": is_cp,
    "unital": is_unital,
    "star": is_star_preserving,
    "det": is_deterministic,
}
_SAMPLED_CHECKS = {"pos": is_positive_sampled, "schwarz": is_schwarz_sampled}
_STATE_CHECKS = {"ae-det": ae_deterministic, "ae-unital": ae_unital}


def _tolerance(args) -> Tolerance:
    """The default tolerance with --tol and --rank-tol; Tolerance refuses a value that
    is not finite and positive (ValueError, exit 2)."""
    tol = DEFAULT_TOL
    eq = getattr(args, "tol", None)
    rank = getattr(args, "rank_tol", None)
    if eq is not None:
        tol = dataclasses.replace(tol, eq=eq, psd=eq, herm=eq)
    if rank is not None:
        tol = dataclasses.replace(tol, rank=rank)
    return tol


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QMARKOV_SEED")
    return int(env) if env else 0


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _channel_and_state(args):
    """The tolerance, then --channel and --state read with it."""
    tol = _tolerance(args)
    return (tol, ser.channel_from_json(_load_json(args.channel)),
            ser.state_from_json(_load_json(args.state), tol))


def _write_out(args, payload: dict, key: str, lines: list[str], what: str):
    """With --out, move payload[key] from the payload to that file."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload.pop(key), fh, indent=2)
        lines.append(f"{what} written to {args.out}")


def _emit(payload: dict, args, text_lines: list[str]):
    if getattr(args, "format", "text") == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(text_lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (`qmarkov corpus list | head -1`): point it at
        # os.devnull, so the interpreter's final flush of the rest cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_lines(reports) -> list[str]:
    lines = []
    for rep in reports:
        status = rep.verdict.upper()
        line = f"[{status:>12}] {rep.prop}"
        if rep.detail:
            line += f"  ({rep.detail})"
        lines.append(line)
        if rep.witness is not None:
            lines.append(f"               witness: {_short_witness(rep.witness)}")
    return lines


def _short_witness(witness: dict) -> str:
    parts = []
    for key, val in witness.items():
        if hasattr(val, "blocks"):
            parts.append(f"{key}=<element>")
        elif isinstance(val, np.ndarray):
            parts.append(f"{key}=<matrix>")
        else:
            parts.append(f"{key}={val}")
    return ", ".join(parts)


def cmd_check(args) -> int:
    tol = _tolerance(args)
    chan = ser.channel_from_json(_load_json(args.channel_file))
    wanted = [p.strip() for p in args.props.split(",") if p.strip()]
    if not wanted:
        raise ValueError("no property requested")
    known = set(_CHECKS) | set(_SAMPLED_CHECKS) | set(_STATE_CHECKS)
    for name in wanted:
        if name not in known:
            raise ValueError(f"unknown property {name!r}; known: {sorted(known)}")
    state = None
    if any(name in _STATE_CHECKS for name in wanted):
        if not args.state:
            raise ValueError("ae-det / ae-unital require --state")
    if args.state:
        state = ser.state_from_json(_load_json(args.state), tol)
    reports = []
    for name in wanted:
        if name in _CHECKS:
            reports.append(_CHECKS[name](chan, tol))
        elif name in _SAMPLED_CHECKS:
            reports.append(_SAMPLED_CHECKS[name](chan, trials=args.trials, seed=_seed(args), tol=tol))
        else:
            reports.append(_STATE_CHECKS[name](chan, state, "right", tol))
    payload = {"checks": [r.to_dict() for r in reports]}
    _emit(payload, args, _report_lines(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_bayes(args) -> int:
    tol, chan, omega = _channel_and_state(args)
    prob = bayes_problem(chan, omega, tol)
    result = bayes_candidate(prob, tol)
    payload = {"candidate": ser.channel_to_json(result.candidate), **result.to_dict()}
    lines = _report_lines([result.bayes_left, result.bayes_right,
                           result.star, result.unital, result.cp])
    lines.append(f"bayes_ok={result.bayes_ok} cpu_ok={result.cpu_ok}")
    _write_out(args, payload, "candidate", lines, "candidate")
    _emit(payload, args, lines)
    return 0 if result.bayes_ok else 1


def cmd_petz(args) -> int:
    tol, chan, omega = _channel_and_state(args)
    prob = bayes_problem(chan, omega, tol)
    exists = petz_exists(prob, tol)
    payload = {"checks": [exists.to_dict()]}
    lines = _report_lines([exists])
    if exists.passed:
        payload["recovery"] = ser.channel_to_json(petz_recovery(prob))
        _write_out(args, payload, "recovery", lines, "recovery")
    _emit(payload, args, lines)
    return 0 if exists.passed else 1


def cmd_disint(args) -> int:
    """Each mode pulls the prior back once and decides the disintegration once: the
    modularity chain reads the problem and report of the verification."""
    tol, chan, omega = _channel_and_state(args)
    if args.mode == "verify":
        if not args.candidate:
            raise ValueError("disint verify requires --candidate")
        cand = ser.channel_from_json(_load_json(args.candidate))
        prob, rep = _verified(chan, omega, cand, tol)
        reports = [rep]
        payload = {"checks": [rep.to_dict()]}
        cpu = all(
            check(c, tol).passed
            for c in (chan, cand)
            for check in (is_cp, is_unital, is_star_preserving)
        )
        if rep.passed and cpu:
            chain = _modularity(prob, rep, cand, tol)
            payload["modularity"] = chain.to_dict()
            reports.extend([chain.bayes, chain.ae_det])
        _emit(payload, args, _report_lines(reports))
        return 0 if all(r.passed for r in reports) else 1
    prob = _commutative_problem(chan, omega, tol)
    cand = _candidate(prob)
    rep = _disintegration(prob, cand, tol)
    payload = {"candidate": ser.channel_to_json(cand), "checks": [rep.to_dict()]}
    lines = _report_lines([rep])
    _write_out(args, payload, "candidate", lines, "disintegration")
    _emit(payload, args, lines)
    return 0 if rep.passed else 1


def cmd_classical(args) -> int:
    tol = _tolerance(args)
    kernel = ser.stochastic_from_json(_load_json(args.kernel), tol)
    if args.mode == "check":
        reports = []
        if args.prob:
            p = ser.prob_from_json(_load_json(args.prob), tol)
            reports.append(is_ae_deterministic(kernel, p, tol))
        payload = {
            "column_stochastic": True,
            "deterministic": kernel.is_deterministic(tol),
            "checks": [r.to_dict() for r in reports],
        }
        lines = ["column-stochastic: yes", f"deterministic: {kernel.is_deterministic(tol)}"]
        lines.extend(_report_lines(reports))
        _emit(payload, args, lines)
        return 0 if all(r.passed for r in reports) else 1
    if not args.prob:
        raise ValueError(f"classical {args.mode} requires --prob")
    p = ser.prob_from_json(_load_json(args.prob), tol)
    if args.mode == "disint" and not is_ae_deterministic(kernel, p, tol).passed:
        print("kernel is not a.e. deterministic; no disintegration formula applies",
              file=sys.stderr)
        return 1
    g = bayes_inverse(kernel, p, tol)
    q = push(kernel, p)
    payload = {"inverse": ser.stochastic_to_json(g), "pushforward": ser.prob_to_json(q)}
    lines = [f"inverse kernel: {g.n_rows}x{g.n_cols}",
             f"pushforward: {ser.prob_to_json(q)['prob']}"]
    _write_out(args, payload, "inverse", lines, "inverse")
    _emit(payload, args, lines)
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        if args.name or args.all:
            raise ValueError("corpus list takes no fixture name and no --all")
        names = corpus_mod.registry_names()
        _emit({"fixtures": names}, args, names)
        return 0
    if bool(args.name) == args.all:
        raise ValueError("corpus run takes either a fixture name or --all")
    fixtures = ([corpus_mod.counterexample(args.name)] if args.name
                else corpus_mod.all_fixtures())
    reports = [f.run() for f in fixtures]
    lines = []
    for rep in reports:
        mark = "ok" if rep.passed else "FAIL"
        lines.append(f"{rep.name:<24} {mark}  ({rep.location})")
        for c in rep.checks:
            lines.append(f"    [{'ok' if c.passed else 'FAIL':>4}] {c.desc}"
                         + (f"  ({c.detail})" if c.detail else ""))
    payload = {"fixtures": [r.to_dict() for r in reports]}
    _emit(payload, args, lines)
    return 0 if all(r.passed for r in reports) else 1


def cmd_props(args) -> int:
    seed, trials = _seed(args), args.trials
    reports = props_mod.run_all(seed=seed, trials=trials)
    lines = [f"{'suite':<16} {'checks':>7} {'status':>8}"]
    for rep in reports:
        good = sum(c.passed for c in rep.checks)
        status = "ok" if rep.passed else "FAIL"
        lines.append(f"{rep.name:<16} {good:>3}/{len(rep.checks):<3} {status:>8}")
        for c in rep.checks:
            if not c.passed:
                lines.append(f"    FAIL: {c.desc} {c.detail}")
    payload = {"seed": seed, "trials": trials, "suites": [r.to_dict() for r in reports]}
    _emit(payload, args, lines)
    return 0 if all(r.passed for r in reports) else 1


def _add_options(parser, tol=True, sampling=False, out=True):
    """The options a command reads, so any other option is a usage error."""
    if tol:
        parser.add_argument("--tol", type=float, default=None,
                            help="override the relative equality/PSD tolerance")
        parser.add_argument("--rank-tol", type=float, default=None,
                            help="override the rank cutoff for supports and pseudo-inverses")
    if sampling:
        parser.add_argument("--seed", type=int, default=None,
                            help="RNG seed (falls back to QMARKOV_SEED, then 0)")
        parser.add_argument("--trials", type=int, default=64, help="sampling trials")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    if out:
        parser.add_argument("--out", default=None, help="write the main artifact to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: each parse_args returns a fresh Namespace, no handler edits it."""
    parser = argparse.ArgumentParser(
        prog="qmarkov",
        description="checks and constructions for channels between matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run property checks on a channel")
    p_check.add_argument("channel_file")
    p_check.add_argument("--props", default="cp,unital,star,det",
                         help="comma list from cp,unital,star,det,pos,schwarz,ae-det,ae-unital")
    p_check.add_argument("--state", default=None, help="state JSON for ae-* checks")
    _add_options(p_check, sampling=True, out=False)

    p_bayes = sub.add_parser("bayes", help="construct and verify a Bayes-map candidate")
    p_bayes.add_argument("--channel", required=True)
    p_bayes.add_argument("--state", required=True)
    _add_options(p_bayes)

    p_petz = sub.add_parser("petz", help="Petz recovery for a full-support problem")
    p_petz.add_argument("--channel", required=True)
    p_petz.add_argument("--state", required=True)
    _add_options(p_petz)

    p_disint = sub.add_parser("disint", help="verify or construct disintegrations")
    p_disint.add_argument("mode", choices=("verify", "construct"))
    p_disint.add_argument("--channel", required=True)
    p_disint.add_argument("--state", required=True)
    p_disint.add_argument("--candidate", default=None)
    _add_options(p_disint)

    p_classical = sub.add_parser("classical", help="classical kernels: bayes, disint, check")
    p_classical.add_argument("mode", choices=("bayes", "disint", "check"))
    p_classical.add_argument("--kernel", required=True)
    p_classical.add_argument("--prob", default=None)
    _add_options(p_classical)

    p_corpus = sub.add_parser("corpus", help="run the example/counterexample corpus")
    p_corpus.add_argument("action", choices=("list", "run"))
    p_corpus.add_argument("name", nargs="?", default=None)
    p_corpus.add_argument("--all", action="store_true")
    _add_options(p_corpus, tol=False, out=False)

    p_props = sub.add_parser("props", help="run the randomized invariant suites")
    _add_options(p_props, tol=False, sampling=True, out=False)
    return parser


_HANDLERS = {
    "check": cmd_check,
    "bayes": cmd_bayes,
    "petz": cmd_petz,
    "disint": cmd_disint,
    "classical": cmd_classical,
    "corpus": cmd_corpus,
    "props": cmd_props,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, KeyError, UnknownFixture) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmarkovError as exc:   # an error, never a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
