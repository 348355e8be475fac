"""Command line front end.

Five subcommands: ``aggregate`` applies a rule to a profile document and
writes a result document; ``axioms`` runs the unanimity / anonymity /
stability / continuity battery; ``sp-check`` fuzzes for profitable
misreports and bracketing failures; ``induce`` runs the exemplar pipeline
from labeled observations to an attributed collective vocabulary;
``render`` draws diagrams.  Exit codes: 0 success, 1 violation witnesses
found, 2 input error (a malformed document, flag or argument, a file that
cannot be read or is not UTF-8), 3 internal error.  The environment variable
``VOCAGG_SEED`` (a decimal integer) overrides any ``--seed`` flag.

``main`` reports each failure once, on one stderr line: a ``VocaggError`` or
``OSError`` as ``error: ...`` (exit 2), any other exception, a fault of this
program and never a finding, as ``internal error: <Type>: ...`` (exit 3).

At the top this module imports only ``core``, ``errors``, ``io`` and
``rules``; each handler imports the rest of what it runs, so a command loads
only its own modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .core import Domain, as_rational, decode_endpoints
from .errors import ParseError, VocaggError
from .io import (
    ParsedInput,
    _indented,
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

RULE_HELP = "median | mean | multiset | dictator:i | p:2,3,4 | emed:FILE | fixture:NAME"


def _read_text(path: Optional[str]) -> str:
    try:
        if path is None or path == "-":
            raw = getattr(sys.stdin, "buffer", None)  # absent on a text-only stand-in
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
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
    lower, upper = as_rational(lower), as_rational(upper)
    try:
        return Domain(lower, upper)
    except VocaggError as exc:
        raise ParseError(f"bad domain {text!r}: {exc}") from None


def _resolve_rule(text: str, n: int, m: int, domain: Domain, stdin_taken: bool = False) -> Rule:
    """The rule that ``--rule`` text names.  An ``emed:`` file holds only the
    phantom columns: a list of them, or an object with them under ``columns``.
    ``emed:-`` reads them from stdin, which ``stdin_taken`` says the profile
    document has already used up."""
    if not text.startswith("emed:"):
        return rule_from_descriptor(text, n, m, domain)
    path = text[len("emed:") :]
    if path == "-" and stdin_taken:
        raise ParseError("emed:- cannot read stdin: the profile document comes from there")
    document = _read_text(path)
    try:
        payload = load_json(document)
        columns = payload.get("columns") if isinstance(payload, dict) else payload
        return rule_from_descriptor({"kind": "extended-median", "columns": columns}, n, m, domain)
    except ParseError as exc:
        raise ParseError(f"{text}: {exc}") from None


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


# ---------------------------------------------------------------------------
# subcommands


def _cmd_aggregate(args: argparse.Namespace) -> int:
    parsed = parse_profile(_read_text(args.input))
    if parsed.kind == "exemplars":
        raise ParseError(
            "exemplar-labeled documents aggregate through the induce subcommand"
        )
    profile = parsed.profile
    rule = _resolve_rule(args.rule, profile.n, profile.m, profile.domain, args.input in (None, "-"))
    endpoints = rule(profile)
    document = build_result(rule, parsed.words, endpoints)
    _write_text(args.output, serialize_result(document))
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    from .axioms import check_majoritarian_words, run_axiom_battery

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
    rule = _resolve_rule(args.rule, n, m, domain, args.input == "-")
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
    _write_text(args.output, _indented(bundle, "\n") + "\n")
    return 0 if all(report.holds for report in reports) else 1


def _cmd_sp_check(args: argparse.Namespace) -> int:
    from .strategic import sp_fuzz, uncompromising_fuzz

    seed = _effective_seed(args.seed)
    domain = _parse_domain_flag(args.domain)
    rule = _resolve_rule(args.rule, args.n, args.m, domain)
    witness = sp_fuzz(rule, args.trials, seed, args.grid, domain=domain, n=args.n, m=args.m)
    verdict = uncompromising_fuzz(rule, args.trials, seed, domain=domain, n=args.n, m=args.m)
    bundle = {
        "rule": describe_rule(rule),
        "seed": seed,
        "trials": args.trials,
        "manipulation": None if witness is None else {
            "agent": witness.agent,
            "peak": witness.preference.peak,
            "weights": witness.preference.weights,
            "profile": witness.profile,
            "misreport": witness.misreport,
            "truthful_outcome": witness.truthful_outcome,
            "manipulated_outcome": witness.manipulated_outcome,
            "gain": witness.gain,
        },
        "uncompromising": None if verdict is None else {
            "case": verdict.case,
            "boundary": verdict.boundary,
            "outcome": verdict.outcome,
            "deviated_outcome": verdict.deviated_outcome,
        },
    }
    _write_text(args.output, _indented(jsonify(bundle), "\n") + "\n")
    return 1 if witness is not None or verdict is not None else 0


def _induced_pipeline(parsed: ParsedInput, args: argparse.Namespace):
    from .exemplars import aggregate_gaps, collective_incomplete, gaps_of, induce

    m = len(parsed.words) - 1
    vocabularies = [induce(exemplars, m) for exemplars in parsed.exemplars]
    gap_rows = [gaps_of(vocabulary) for vocabulary in vocabularies]
    rule = _resolve_rule(args.rule, len(gap_rows), m, parsed.domain, args.input in (None, "-"))
    if not isinstance(rule, PRule):
        raise ParseError("gap aggregation needs a positional rule (median or p:...)")
    collective_gaps = aggregate_gaps(gap_rows, rule.positions, order=args.order)
    collective = collective_incomplete(collective_gaps)
    return vocabularies, gap_rows, rule, collective_gaps, collective


def _cmd_induce(args: argparse.Namespace) -> int:
    parsed = parse_profile(_read_text(args.input))
    if parsed.kind != "exemplars":
        raise ParseError("induce needs exemplar-labeled agents")
    vocabularies, gap_rows, rule, collective_gaps, collective = _induced_pipeline(parsed, args)
    words = parsed.words
    payload = {
        "rule": describe_rule(rule),
        "order": args.order,
        "domain": {"lower": parsed.domain.lower, "upper": parsed.domain.upper},
        "words": words,
        "agents": [
            {"extents": dict(zip(words, v.extents)), "gaps": g.gaps}
            for v, g in zip(vocabularies, gap_rows)
        ],
        "collective_gaps": collective_gaps.gaps,
        "vocabulary": dict(zip(words, collective.extents)),
    }
    _write_text(args.output, _indented(jsonify(payload), "\n") + "\n")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .exemplars import induce
    from .render import render_diagram

    parsed = parse_profile(_read_text(args.input))
    profile = parsed.profile
    if args.rule is not None:
        if parsed.kind == "exemplars":
            collective = _induced_pipeline(parsed, args)[4]
        else:
            rule = _resolve_rule(args.rule, profile.n, profile.m, parsed.domain, args.input in (None, "-"))
            collective = decode_endpoints(rule(profile))
        _write_text(args.output, render_diagram(collective, args.format, parsed.words))
        return 0
    if parsed.kind == "exemplars":
        m = len(parsed.words) - 1
        diagrams = [induce(exemplars, m) for exemplars in parsed.exemplars]
    else:
        diagrams = [decode_endpoints(row) for row in profile.rows]
    if args.agent is not None:
        if not 1 <= args.agent <= len(diagrams):
            raise ParseError(f"agent {args.agent} outside 1..{len(diagrams)}")
        diagram = diagrams[args.agent - 1]
        _write_text(args.output, render_diagram(diagram, args.format, parsed.words))
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


def _attach_domain(argv: list[str]) -> list[str]:
    """``axioms``/``sp-check`` argv with ``--domain -1:1`` as ``--domain=-1:1``.

    argparse reads a separate value that starts with ``-`` as a flag, so a
    domain with a negative lower end would otherwise need the ``=`` form.
    """
    if argv[:1] not in (["axioms"], ["sp-check"]):
        return argv
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--domain" and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"--domain={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_domain(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (VocaggError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
