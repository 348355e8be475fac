"""Command line front end.

Five subcommands: ``aggregate`` applies a rule to a profile document and
writes a result document; ``axioms`` runs the unanimity / anonymity /
stability / continuity battery; ``sp-check`` fuzzes for profitable
misreports and bracketing failures; ``induce`` runs the exemplar pipeline
from labeled observations to an attributed collective vocabulary;
``render`` draws diagrams.  Exit codes: 0 success, 1 violation witnesses
found, 2 input error (a malformed document, flag or argument, a file that
cannot be read or is not UTF-8).  The environment variable ``VOCAGG_SEED``
(a decimal integer) overrides any ``--seed`` flag.

At the top this module imports only ``core``, ``errors``, ``io`` and
``rules``; each handler imports the rest of what it runs, so a command loads
only its own modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .core import Domain, as_rational, decode_endpoints
from .errors import ParseError, VocaggError
from .io import (
    ParsedInput,
    build_result,
    describe_rule,
    jsonify,
    load_json,
    parse_profile,
    report_to_json,
    rule_from_descriptor,
    serialize_result,
)
from .rules import PRule, Rule

RULE_HELP = (
    "median | mean | multiset | dictator:i | p:2,3,4 | emed:FILE | fixture:NAME"
)


def _read_text(path: Optional[str]) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        source = "stdin" if path is None or path == "-" else repr(path)
        raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from None


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _effective_seed(flag_seed: int) -> int:
    raw = os.environ.get("VOCAGG_SEED")
    if raw is None:
        return flag_seed
    try:
        return int(raw, 10)
    except ValueError:
        raise ParseError(f"VOCAGG_SEED must be a decimal integer, got {raw!r}") from None


def _parse_domain_flag(text: str) -> Domain:
    lower, sep, upper = text.partition(":")
    if not sep:
        raise ParseError(f"domain flag needs LOWER:UPPER, got {text!r}")
    try:
        return Domain(as_rational(lower), as_rational(upper))
    except ValueError as exc:
        raise ParseError(f"bad domain {text!r}: {exc}") from None


def _resolve_rule(text: str, n: int, m: int, domain: Domain) -> Rule:
    if text.startswith("emed:"):
        payload = load_json(_read_text(text[len("emed:") :]))
        if isinstance(payload, list):
            payload = {"columns": payload}
        if isinstance(payload, dict) and "kind" not in payload:
            payload = {"kind": "extended-median", **payload}
        return rule_from_descriptor(payload, n, m, domain)
    return rule_from_descriptor(text, n, m, domain)


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def _positions_rule(rule: Rule) -> PRule:
    if not isinstance(rule, PRule):
        raise ParseError(
            "gap aggregation needs a positional rule (median or p:...)"
        )
    return rule


# ---------------------------------------------------------------------------
# subcommands


def _cmd_aggregate(args: argparse.Namespace) -> int:
    parsed = parse_profile(_read_text(args.input))
    if parsed.kind == "exemplars":
        raise ParseError(
            "exemplar-labeled documents aggregate through the induce subcommand"
        )
    profile = parsed.profile
    rule = _resolve_rule(args.rule, profile.n, profile.m, profile.domain)
    endpoints = rule(profile)
    document = build_result(rule, parsed.words, endpoints)
    _write_text(args.output, serialize_result(document))
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    from .axioms import VIOLATED, check_majoritarian_words, run_axiom_battery

    seed = _effective_seed(args.seed)
    extra_profile = None
    if args.input is not None:
        parsed = parse_profile(_read_text(args.input))
        if parsed.kind == "exemplars":
            raise ParseError("axioms needs a complete profile document")
        extra_profile = parsed.profile
        n, m, domain = extra_profile.n, extra_profile.m, extra_profile.domain
    else:
        n, m, domain = args.n, args.m, _parse_domain_flag(args.domain)
    rule = _resolve_rule(args.rule, n, m, domain)
    battery = run_axiom_battery(rule, args.trials, seed, domain=domain, n=n, m=m)
    reports = [battery[name] for name in ("unanimity", "anonymity", "stability", "continuity")]
    if extra_profile is not None:
        reports.append(check_majoritarian_words(rule, extra_profile))
    bundle = {
        "rule": describe_rule(rule),
        "seed": seed,
        "trials": args.trials,
        "reports": [report_to_json(report) for report in reports],
    }
    _write_text(args.output, json.dumps(bundle, indent=2) + "\n")
    return 1 if any(report.verdict == VIOLATED for report in reports) else 0


def _cmd_sp_check(args: argparse.Namespace) -> int:
    from .strategic import sp_fuzz, uncompromising_fuzz

    seed = _effective_seed(args.seed)
    domain = _parse_domain_flag(args.domain)
    rule = _resolve_rule(args.rule, args.n, args.m, domain)
    witness = sp_fuzz(
        rule, args.trials, seed, args.grid, domain=domain, n=args.n, m=args.m
    )
    verdict = uncompromising_fuzz(
        rule, args.trials, seed, domain=domain, n=args.n, m=args.m
    )
    bundle = {
        "rule": describe_rule(rule),
        "seed": seed,
        "trials": args.trials,
        "manipulation": None
        if witness is None
        else {
            "agent": witness.agent,
            "peak": jsonify(witness.preference.peak),
            "weights": jsonify(witness.preference.weights),
            "profile": jsonify(witness.profile),
            "misreport": jsonify(witness.misreport),
            "truthful_outcome": jsonify(witness.truthful_outcome),
            "manipulated_outcome": jsonify(witness.manipulated_outcome),
            "gain": jsonify(witness.gain),
        },
        "uncompromising": None
        if verdict is None
        else {
            "case": verdict.case,
            "boundary": verdict.boundary,
            "outcome": jsonify(verdict.outcome),
            "deviated_outcome": jsonify(verdict.deviated_outcome),
        },
    }
    _write_text(args.output, json.dumps(bundle, indent=2) + "\n")
    return 1 if witness is not None or verdict is not None else 0


def _induced_pipeline(parsed: ParsedInput, rule_text: str, order: str):
    from .exemplars import aggregate_gaps, collective_incomplete, gaps_of, induce

    m = len(parsed.words) - 1
    vocabularies = [induce(exemplars, m) for exemplars in parsed.exemplars]
    gap_rows = [gaps_of(vocabulary) for vocabulary in vocabularies]
    rule = _positions_rule(
        _resolve_rule(rule_text, len(gap_rows), m, parsed.domain)
    )
    collective_gaps = aggregate_gaps(gap_rows, rule.positions, order=order)
    collective = collective_incomplete(collective_gaps)
    return vocabularies, gap_rows, rule, collective_gaps, collective


def _cmd_induce(args: argparse.Namespace) -> int:
    parsed = parse_profile(_read_text(args.input))
    if parsed.kind != "exemplars":
        raise ParseError("induce needs exemplar-labeled agents")
    vocabularies, gap_rows, rule, collective_gaps, collective = _induced_pipeline(
        parsed, args.rule, args.order
    )
    words = list(parsed.words)
    payload = {
        "rule": describe_rule(rule),
        "order": args.order,
        "domain": jsonify({"lower": parsed.domain.lower, "upper": parsed.domain.upper}),
        "words": words,
        "agents": [
            {"extents": dict(zip(words, jsonify(v.extents))), "gaps": jsonify(g.gaps)}
            for v, g in zip(vocabularies, gap_rows)
        ],
        "collective_gaps": jsonify(collective_gaps.gaps),
        "vocabulary": dict(zip(words, jsonify(collective.extents))),
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .exemplars import induce
    from .render import render_diagram

    parsed = parse_profile(_read_text(args.input))
    if parsed.kind == "exemplars":
        m = len(parsed.words) - 1
        diagrams = [induce(exemplars, m) for exemplars in parsed.exemplars]
        collective = None
        if args.rule is not None:
            collective = _induced_pipeline(parsed, args.rule, args.order)[4]
    else:
        diagrams = [decode_endpoints(row) for row in parsed.profile.rows]
        collective = None
        if args.rule is not None:
            rule = _resolve_rule(
                args.rule, parsed.profile.n, parsed.profile.m, parsed.domain
            )
            collective = decode_endpoints(rule(parsed.profile))
    if collective is not None:
        _write_text(
            args.output, render_diagram(collective, args.format, parsed.words)
        )
        return 0
    if args.agent is not None:
        if not 1 <= args.agent <= len(diagrams):
            raise ParseError(f"agent {args.agent} outside 1..{len(diagrams)}")
        _write_text(
            args.output,
            render_diagram(diagrams[args.agent - 1], args.format, parsed.words),
        )
        return 0
    if args.format == "svg":
        raise ParseError("svg renders one diagram; pass --agent or --rule")
    blocks = []
    for i, diagram in enumerate(diagrams, start=1):
        blocks.append(f"# agent {i}")
        blocks.append(render_diagram(diagram, args.format, parsed.words).rstrip("\n"))
    _write_text(args.output, "\n".join(blocks) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocagg",
        description="Aggregate interval vocabularies and check the rules doing it.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    aggregate = subparsers.add_parser(
        "aggregate", help="apply a rule to a profile document"
    )
    aggregate.add_argument("--rule", required=True, help=RULE_HELP)
    aggregate.add_argument("--input", default=None, help="profile document ('-' = stdin)")
    aggregate.add_argument("--output", default=None, help="result path ('-' = stdout)")
    aggregate.set_defaults(handler=_cmd_aggregate)

    axioms = subparsers.add_parser(
        "axioms", help="run the unanimity/anonymity/stability/continuity battery"
    )
    axioms.add_argument("--rule", required=True, help=RULE_HELP)
    axioms.add_argument("--trials", type=_count(1), default=200)
    axioms.add_argument("--seed", type=int, default=0)
    axioms.add_argument("--n", type=_count(1), default=3, help="number of agents to sample")
    axioms.add_argument("--m", type=_count(1), default=3, help="number of boundaries to sample")
    axioms.add_argument("--domain", default="0:1", help="sampling domain LOWER:UPPER")
    axioms.add_argument(
        "--input",
        default=None,
        help="optional profile document; fixes the shape and adds a majoritarian-words check",
    )
    axioms.add_argument("--output", default=None)
    axioms.set_defaults(handler=_cmd_axioms)

    sp_check = subparsers.add_parser(
        "sp-check", help="fuzz for profitable misreports and bracketing failures"
    )
    sp_check.add_argument("--rule", required=True, help=RULE_HELP)
    sp_check.add_argument("--trials", type=_count(1), default=2000)
    sp_check.add_argument("--seed", type=int, default=0)
    sp_check.add_argument(
        "--grid", type=_count(2), default=16, help="deviation lattice denominator"
    )
    sp_check.add_argument("--n", type=_count(1), default=3)
    sp_check.add_argument("--m", type=_count(1), default=3)
    sp_check.add_argument("--domain", default="0:1")
    sp_check.add_argument("--output", default=None)
    sp_check.set_defaults(handler=_cmd_sp_check)

    induce_cmd = subparsers.add_parser(
        "induce", help="aggregate exemplar-labeled observations through gaps"
    )
    induce_cmd.add_argument("--rule", default="median", help="median | p:2,3,4")
    induce_cmd.add_argument(
        "--order",
        default="lex",
        choices=("lex", "right", "midpoint"),
        help="how gaps are ordered before positional selection",
    )
    induce_cmd.add_argument("--input", default=None)
    induce_cmd.add_argument("--output", default=None)
    induce_cmd.set_defaults(handler=_cmd_induce)

    render = subparsers.add_parser("render", help="draw vocabularies")
    render.add_argument("--input", default=None)
    render.add_argument("--output", default=None)
    render.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    render.add_argument(
        "--agent", type=int, default=None, help="render this agent only (1-based)"
    )
    render.add_argument(
        "--rule", default=None, help="render the collective under this rule instead"
    )
    render.add_argument("--order", default="lex", choices=("lex", "right", "midpoint"))
    render.set_defaults(handler=_cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except VocaggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
