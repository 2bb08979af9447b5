"""Command-line surface.

Exit codes are a contract: 0 clean, 1 property violation (or refuted claim),
2 bad input or plugin fault, 3 resource refusal.  ``main`` alone turns an
exception into an exit code and a stderr prefix; any other exception is a
bug and keeps its traceback.  Each outside file is read under one guard, so
a malformed, non-UTF-8 or deeply nested one exits 2.  All outputs are
deterministic byte for byte for identical inputs: JSON is written with
sorted keys and exact numbers are rendered canonically.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import checker, harness
from .allocation import (
    BRUTE_FORCE_DEFAULT_BUDGET,
    AllocationError,
    Allocator,
    BipartiteInstance,
    BudgetExceededError,
    NotBipartiteError,
    assignment_to_json,
    brute_force_opt,
    load_requests,
    static_opt,
)
from .frequencies import Side
from .golden import DigitLimitError, GoldenNumber, parse_exact
from .plugin import PluginFault, PluginSystem
from .systems import BUILTIN_SYSTEMS, FSystemSpec

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _CliError(Exception):
    """Bad input the CLI itself detects: exit 2."""


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Optional[str], doc: object) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _parse_ratio(text: str) -> GoldenNumber:
    try:
        ratio = parse_exact(text)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if ratio < 1:
        raise _CliError(f"competitive ratio must be >= 1, got {text!r}")
    return ratio


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@contextlib.contextmanager
def _open_system(
    selector: str,
    r_text: Optional[str],
    lam: Optional[int],
) -> Iterator[FSystemSpec]:
    """The selected system with the claims from the command line; a plugin
    is closed when the block exits."""
    if selector in BUILTIN_SYSTEMS:
        spec = BUILTIN_SYSTEMS[selector]()
        if r_text is not None or lam is not None:
            spec = dataclasses.replace(
                spec,
                claimed_ratio=(
                    _parse_ratio(r_text) if r_text is not None else spec.claimed_ratio
                ),
                claimed_lambda=lam if lam is not None else spec.claimed_lambda,
            )
        yield spec
    elif selector.startswith("plugin:"):
        path = selector[len("plugin:"):]
        if r_text is None or lam is None:
            raise _CliError(
                "plugin systems need explicit --r and --lambda claims"
            )
        argv = [sys.executable, path] if path.endswith(".py") else [path]
        with PluginSystem(argv) as plugin:
            yield plugin.spec(_parse_ratio(r_text), lam)
    else:
        raise _CliError(
            f"unknown system {selector!r}; use trivial, half, golden or plugin:PATH"
        )


def _load_instance(graph_path: str, requests_path: Optional[str]) -> tuple[
    BipartiteInstance, list[str]
]:
    try:
        data = Path(graph_path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {graph_path}: {exc}") from exc
    try:
        inst = BipartiteInstance.from_json(json.loads(data.decode("utf-8")))
    except (ValueError, RecursionError) as exc:
        raise _CliError(f"bad graph file {graph_path}: {exc}") from exc
    requests: list[str] = []
    if requests_path is not None:
        try:
            lines = Path(requests_path).read_text(encoding="utf-8").splitlines()
            requests = load_requests(lines)
        except (OSError, ValueError) as exc:
            raise _CliError(f"bad request file {requests_path}: {exc}") from exc
        for v in requests:
            if v not in inst.sides:
                raise _CliError(f"request for unknown vertex {v!r}")
    return inst, requests


def cmd_verify(args: argparse.Namespace) -> int:
    with _open_system(args.system, args.r, args.lam) as spec:
        checks = set(args.checks.split(","))
        unknown = checks - {"f1", "f2", "competitiveness", "lemmas"}
        if unknown:
            raise _CliError(f"unknown checks: {sorted(unknown)}")
        f2_t_max = checker.default_horizon(args.f2_t_max, args.t_max,
                                           checker.F2_DEFAULT_CAP)
        lemma_t_max = checker.default_horizon(args.lemma_t_max, args.t_max,
                                              checker.LEMMA_DEFAULT_CAP)
        report = checker.run_checks(
            spec,
            f1_t_max=args.t_max if "f1" in checks else None,
            f2_t_max=f2_t_max if "f2" in checks else None,
            comp_t_max=args.t_max if "competitiveness" in checks else None,
            lemma_t_max=lemma_t_max if "lemmas" in checks else None,
        )
        _write_json(args.out, report.to_json())
        return EXIT_CLEAN if report.clean() else EXIT_VIOLATION


def cmd_falsify(args: argparse.Namespace) -> int:
    with _open_system(args.system, args.r, args.lam) as spec:
        try:
            verdict = checker.falsify(
                spec,
                spec.claimed_ratio,
                spec.claimed_lambda,
                args.t_max,
                f2_t_max=args.f2_t_max,
            )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        _write_json(args.out, verdict.to_json())
        return EXIT_VIOLATION if verdict.status == "refuted" else EXIT_CLEAN


def cmd_run(args: argparse.Namespace) -> int:
    with _open_system(args.system, args.r, args.lam) as spec:
        inst, requests = _load_instance(args.graph, args.requests)
        mode = "full" if args.validate else "neighbors"
        alloc = Allocator(inst, spec, validate=mode)
        steps = []
        for i, vid in enumerate(requests, start=1):
            f = alloc.request(vid)
            steps.append(
                {
                    "step": i,
                    "vertex": vid,
                    "frequency": f.encode(),
                    "distinct_used": alloc.distinct_used(),
                }
            )
        doc = {
            "system": spec.name,
            "assignment": assignment_to_json(alloc.assignment_sets()),
            "steps": steps,
            "distinct_used": alloc.distinct_used(),
        }
        _write_json(args.out, doc)
        return EXIT_CLEAN


def cmd_adversary(args: argparse.Namespace) -> int:
    if args.mode == "universal":
        graph = harness.UniversalGraph(args.t_max)
        inst = graph.materialize()
        requests = list(graph.request_stream())
    else:
        inst, requests = harness.lower_bound_instance(
            args.theta, args.lam, scale_cap=args.scale_cap
        )
    _write_json(args.out_graph, inst.to_json())
    _write_text(args.out_requests, harness.requests_to_jsonl(requests))
    return EXIT_CLEAN


def cmd_opt(args: argparse.Namespace) -> int:
    inst, requests = _load_instance(args.graph, args.requests)
    for v, count in Counter(requests).items():
        inst.loads[v] = count
    if args.mode == "static":
        value = static_opt(inst)
        method = "static"
    else:
        value = brute_force_opt(inst, budget_cap=args.budget)
        method = "brute_force"
    _write_json(args.out, {"optimum": value, "method": method})
    return EXIT_CLEAN


def cmd_plot_sets(args: argparse.Namespace) -> int:
    with _open_system(args.system, args.r, args.lam) as spec:
        side = Side(args.side)
        # boundaries rendered as the exclusive-below / inclusive-above floor
        # pair: a row (k, pool, lo, hi) holds indices lo+1..hi; tokens and
        # integers need no CSV quoting
        lines = ["k,pool,lo,hi\n"]
        for k in range(0, args.t + 1):
            lines.extend(f"{k},{pool.token},{lo - 1},{hi - 1}\n"
                         for pool, lo, hi in spec.sets(side, args.t, k).bands)
        _write_text(args.out, "".join(lines))
        return EXIT_CLEAN


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing reads it and never
    changes it, and each call of ``main`` parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="freqalloc",
        description=(
            "Incremental frequency allocation on bipartite graphs: verify "
            "frequency-set families, replay allocations, generate "
            "adversarial instances, and falsify ratio claims."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--system",
            required=True,
            help="trivial | half | golden | plugin:PATH",
        )
        p.add_argument(
            "--r",
            help="claimed ratio, exact: e.g. 2, 3/2, 1.42, R0, 18/11-1/11*sqrt5",
        )
        p.add_argument("--lambda", dest="lam", type=int, help="claimed additive constant")

    p = sub.add_parser("verify", help="check the defining properties")
    add_system_flags(p)
    p.add_argument("--t-max", type=_positive_int, default=200)
    p.add_argument("--f2-t-max", type=_positive_int)
    p.add_argument("--lemma-t-max", type=_positive_int)
    p.add_argument(
        "--checks",
        default="f1,f2,competitiveness",
        help="comma list from f1,f2,competitiveness,lemmas",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("falsify", help="refute a claimed ratio below 10/7")
    add_system_flags(p)
    p.add_argument("--t-max", type=_positive_int, default=500)
    p.add_argument("--f2-t-max", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("run", help="replay a request stream on a graph")
    add_system_flags(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--requests", required=True)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("adversary", help="emit adversarial instances")
    adv = p.add_subparsers(dest="mode", required=True)
    pu = adv.add_parser("universal", help="truncated universal graph")
    pu.add_argument("--t-max", type=_positive_int, required=True)
    pu.add_argument("--out-graph", required=True)
    pu.add_argument("--out-requests", required=True)
    pu.set_defaults(func=cmd_adversary)
    pl = adv.add_parser("lower-bound", help="doubling-recurrence instance")
    pl.add_argument("--theta", type=_positive_int, required=True)
    pl.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    pl.add_argument(
        "--scale-cap", type=_positive_int, default=harness.SCALE_DEFAULT_CAP
    )
    pl.add_argument("--out-graph", required=True)
    pl.add_argument("--out-requests", required=True)
    pl.set_defaults(func=cmd_adversary)

    p = sub.add_parser("opt", help="static optimum of a loaded graph")
    omode = p.add_subparsers(dest="mode", required=True)
    po = omode.add_parser("static", help="closed-form optimum")
    po.add_argument("--graph", required=True)
    po.add_argument("--requests", required=True)
    po.add_argument("--out")
    po.set_defaults(func=cmd_opt)
    pb = omode.add_parser("brute", help="exhaustive-search optimum")
    pb.add_argument("--graph", required=True)
    pb.add_argument("--requests", required=True)
    pb.add_argument(
        "--budget", type=_positive_int, default=BRUTE_FORCE_DEFAULT_BUDGET
    )
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_opt)

    p = sub.add_parser(
        "plot-sets", help="band structure of a system's sets as CSV"
    )
    add_system_flags(p)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--side", default="A", choices=["A", "B"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot_sets)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, NotBipartiteError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except PluginFault as exc:
        sys.stderr.write(f"plugin fault: {exc}\n")
        return EXIT_INPUT
    except AllocationError as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return EXIT_VIOLATION
    except (harness.ResourceGuardError, BudgetExceededError,
            DigitLimitError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
