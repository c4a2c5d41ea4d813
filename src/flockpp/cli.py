"""Command-line interface.

Subcommands: ``gen`` (emit a protocol as JSON), ``verify`` (exhaustive
checks over a population range), ``table`` (state-count table as CSV),
``fmap`` (occurrence thresholds and lower-bound checks), ``sim`` (seeded
random run), ``check-file`` (validate and verify a protocol JSON file).

Exit codes: 0 all checks hold, 1 some check failed, 2 usage or parse
errors, 3 a reachability cap was exceeded.  Errors are also emitted as
single-line JSON objects on stderr; a node-cap overrun's object also gives
``nodes``, the configurations found, and ``levels``, the BFS depth the
search reached.  The environment variable
``FLOCKPP_NODE_CAP`` overrides the default reachability node cap; the
``--node-cap`` flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import core, lowerbound, protocols, sim, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit_error(kind: str, detail: str, **fields: int | None) -> None:
    print(json.dumps({"error": kind, "detail": detail, **fields}), file=sys.stderr)


def _default_node_cap() -> int:
    """The ``FLOCKPP_NODE_CAP`` override, or the default; ``ValueError`` if malformed."""
    raw = os.environ.get("FLOCKPP_NODE_CAP")
    if raw is None:
        return core.DEFAULT_NODE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FLOCKPP_NODE_CAP is not an integer: {raw!r}") from None
    if cap < 1:
        raise ValueError(f"FLOCKPP_NODE_CAP must be >= 1, got {cap}")
    return cap


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verdict_json(v: verify.Verdict, p: core.Protocol) -> dict:
    out: dict = {"status": v.status}
    if isinstance(v.witness, core.Configuration):
        out["witness"] = v.witness.pretty(p)
    elif v.witness is not None:
        out["witness"] = list(v.witness)
    if v.trace is not None:
        out["trace"] = [
            {"pair": list(s.pair), "result": list(s.result), "after": s.after.pretty(p)}
            for s in v.trace
        ]
    return out


def _report_json(rep: verify.VerificationReport, p: core.Protocol) -> dict:
    return {
        "protocol": rep.protocol_name,
        "d": rep.d,
        "n": rep.n,
        "sound": _verdict_json(rep.sound, p),
        "complete": _verdict_json(rep.complete, p),
        "consensus": _verdict_json(rep.consensus, p),
        "nodes_explored": rep.nodes_explored,
        "bottom_sccs": rep.bottom_scc_count,
        "elapsed_s": round(rep.elapsed, 4),
        "error": rep.error,
    }


def _show_verdict(v: verify.Verdict, p: core.Protocol) -> str:
    if v.status == "na":
        return "-"
    if v.holds:
        return "holds"
    if isinstance(v.witness, core.Configuration):
        return f"FAILS [{v.witness.pretty(p)}]"
    return f"FAILS [{v.witness}]"


def _print_trace(p: core.Protocol, n: int, steps: list[verify.TraceStep]) -> None:
    print(f"  trace from I_{n} ({core.initial_configuration(p, n).pretty(p)}):")
    for s in steps:
        a, b = s.pair
        c, d = s.result
        print(f"    ({a}, {b}) -> ({c}, {d})   giving  {s.after.pretty(p)}")


def _run_verify_reports(
    p: core.Protocol,
    d: int,
    n_lo: int,
    n_hi: int,
    node_cap: int,
    trace: bool,
    json_path: str | None,
) -> int:
    def show(rep: verify.VerificationReport) -> None:
        if rep.error is not None:
            print(f"n={rep.n:>3}  CAP EXCEEDED: {rep.error}")
            _emit_error("CapExceeded", rep.error, nodes=rep.cap_nodes, levels=rep.cap_levels)
            return
        print(
            f"n={rep.n:>3}  nodes={rep.nodes_explored:>9}  bottom_sccs={rep.bottom_scc_count:>3}  "
            f"sound={_show_verdict(rep.sound, p):<6} complete={_show_verdict(rep.complete, p):<6} "
            f"consensus={_show_verdict(rep.consensus, p)}"
        )
        if trace:
            for v in (rep.sound, rep.complete, rep.consensus):
                if v.trace is not None:
                    _print_trace(p, rep.n, v.trace)

    print(f"protocol {p.name}: {p.num_states} states, verifying n in [{n_lo}, {n_hi}]")
    reports = verify.verify_range(p, d, n_lo, n_hi, node_cap=node_cap, progress=show)
    if json_path is not None:
        _write_out(
            json.dumps(
                {"protocol": p.name, "d": d, "reports": [_report_json(r, p) for r in reports]},
                indent=2,
            ),
            json_path,
        )
    failed = any(not r.all_hold and r.error is None for r in reports)
    capped = any(r.error is not None for r in reports)
    if failed:
        print("RESULT: some checks FAILED")
        return EXIT_CHECK_FAILED
    if capped:
        print("RESULT: incomplete, node cap exceeded for some n")
        return EXIT_CAP
    print("RESULT: all checks hold")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    p = protocols.build_family(args.family, args.d)
    _write_out(core.protocol_to_json(p), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    p = protocols.build_family(args.family, args.d)
    n_hi = args.n_hi if args.n_hi is not None else args.d + 3
    return _run_verify_reports(
        p, args.d, args.n_lo, n_hi, args.node_cap, args.trace, args.json
    )


def _cmd_table(args: argparse.Namespace) -> int:
    rows = verify.state_count_table(args.d_lo, args.d_hi)
    _write_out(verify.table_to_csv(rows), args.csv)
    return EXIT_OK


def _cmd_fmap(args: argparse.Namespace) -> int:
    p = protocols.build_family(args.family, args.d)
    n_cap = args.n_cap if args.n_cap is not None else args.d + 2
    om = lowerbound.occurrence_thresholds(p, n_cap, node_cap=args.node_cap)
    gaps = lowerbound.check_doubling_gaps(om)
    bound = lowerbound.check_state_lower_bound(p, args.d)
    print(f"protocol {p.name}: occurrence thresholds up to n={om.n_cap}")
    for s in p.states:
        v = om.values.get(s.index)
        shown = str(v) if v is not None else f"unknown (> {om.n_cap})"
        print(f"  f({s.name}) = {shown}")
    print(f"doubling gaps: {_show_verdict(gaps, p)}")
    print(f"state lower bound 2^(|Q|-1) >= d: {_show_verdict(bound, p)}")
    if args.json is not None:
        _write_out(
            json.dumps(
                {
                    "protocol": p.name,
                    "d": args.d,
                    "n_cap": om.n_cap,
                    "f": om.by_name(),
                    "cap_error": om.cap_error,
                    "doubling_gaps": _verdict_json(gaps, p),
                    "state_lower_bound": _verdict_json(bound, p),
                },
                indent=2,
            ),
            args.json,
        )
    if gaps.failed or bound.failed:
        return EXIT_CHECK_FAILED
    if om.cap_error is not None:
        print(f"CAP EXCEEDED: {om.cap_error}")
        return EXIT_CAP
    return EXIT_OK


def _cmd_sim(args: argparse.Namespace) -> int:
    p = protocols.build_family(args.family, args.d)
    rep = sim.run(p, args.n, args.seed, max_steps=args.steps)
    print(f"protocol {p.name}, n={rep.n}, seed={rep.seed} ({rep.rng})")
    print(f"  steps taken:      {rep.steps_taken}")
    if rep.converged:
        print(
            f"  converged:        yes, output {rep.converged_value} "
            f"stable from step {rep.convergence_step}"
        )
    else:
        print("  converged:        no")
    print(f"  ever emitted 1:   {'yes' if rep.ever_emitted_q1 else 'no'}")
    print(f"  final:            {rep.final_configuration.pretty(p)}")
    if args.json is not None:
        obj = asdict(rep)
        obj["final_configuration"] = rep.final_configuration.pretty(p)
        _write_out(json.dumps(obj, indent=2), args.json)
    return EXIT_OK


def _cmd_check_file(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_USAGE
    p = core.protocol_from_json(text)
    n_hi = args.n_hi if args.n_hi is not None else args.d + 3
    bound = lowerbound.check_state_lower_bound(p, args.d)
    print(f"state lower bound 2^(|Q|-1) >= d: {_show_verdict(bound, p)}")
    code = _run_verify_reports(p, args.d, args.n_lo, n_hi, args.node_cap, args.trace, args.json)
    if bound.failed and code == EXIT_OK:
        return EXIT_CHECK_FAILED
    return code


def _build_parser(node_cap_default: int) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flockpp",
        description="Construct, verify, and probe threshold population protocols.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--family", required=True, choices=protocols.FAMILIES, help="construction family"
        )
        sp.add_argument("--d", required=True, type=int, help="threshold d >= 1")

    def add_cap(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--node-cap",
            type=int,
            default=node_cap_default,
            help=f"max reachability nodes per population size (default {node_cap_default})",
        )

    sp = sub.add_parser("gen", help="emit a protocol as JSON")
    add_family(sp)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("verify", help="exhaustively verify over a population range")
    add_family(sp)
    sp.add_argument("--n-lo", type=int, default=1, help="smallest population size (default 1)")
    sp.add_argument("--n-hi", type=int, default=None, help="largest population size (default d+3)")
    add_cap(sp)
    sp.add_argument("--trace", action="store_true", help="print encounter traces for failures")
    sp.add_argument("--json", default=None, help="also write a JSON report to this path ('-' = stdout)")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("table", help="emit the state-count table as CSV")
    sp.add_argument("--d-lo", type=int, required=True)
    sp.add_argument("--d-hi", type=int, required=True)
    sp.add_argument("--csv", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=_cmd_table)

    sp = sub.add_parser("fmap", help="occurrence thresholds and lower-bound checks")
    add_family(sp)
    sp.add_argument("--n-cap", type=int, default=None, help="sweep population sizes up to this (default d+2)")
    add_cap(sp)
    sp.add_argument("--json", default=None, help="also write a JSON report to this path")
    sp.set_defaults(fn=_cmd_fmap)

    sp = sub.add_parser("sim", help="run one seeded random simulation")
    add_family(sp)
    sp.add_argument("--n", type=int, required=True, help="population size")
    sp.add_argument("--seed", type=int, required=True, help="PRNG seed")
    sp.add_argument("--steps", type=int, default=1_000_000, help="encounter budget (default 1e6)")
    sp.add_argument("--json", default=None, help="also write a JSON report to this path")
    sp.set_defaults(fn=_cmd_sim)

    sp = sub.add_parser("check-file", help="validate and verify a protocol JSON file")
    sp.add_argument("path", help="protocol JSON file")
    sp.add_argument("--d", required=True, type=int, help="threshold the protocol is meant to decide")
    sp.add_argument("--n-lo", type=int, default=1)
    sp.add_argument("--n-hi", type=int, default=None)
    add_cap(sp)
    sp.add_argument("--trace", action="store_true", help="print encounter traces for failures")
    sp.add_argument("--json", default=None, help="also write a JSON report to this path")
    sp.set_defaults(fn=_cmd_check_file)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        node_cap_default = _default_node_cap()
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    ap = _build_parser(node_cap_default)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except protocols.InvalidThreshold as exc:
        _emit_error("InvalidThreshold", str(exc))
        return EXIT_USAGE
    except core.ProtocolError as exc:
        _emit_error("ProtocolError", str(exc))
        return EXIT_USAGE
    except core.CapExceeded as exc:
        _emit_error("CapExceeded", str(exc), nodes=exc.nodes, levels=exc.levels)
        return EXIT_CAP
    except ValueError as exc:
        _emit_error("ValueError", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
