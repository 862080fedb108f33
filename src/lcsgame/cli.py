"""Command-line front end: solve, verify, qgraph, reduce, generate, bench.

Exit codes: 0 on success, 2 on domain errors (bad flags, malformed files,
capacity violations, a strategy that plays an illegal move under the chosen
variant), 3 when a state or time budget ran out, 4 on an internal error.
All reports are stable line-oriented text.
"""

from __future__ import annotations

import argparse
import sys

from .engine import (
    CONNECTED,
    PLAIN,
    Budget,
    BudgetExceededError,
    InternalError,
    Player,
    SkipBudget,
    StrategyError,
    TargetSet,
)
from .generators import FAMILIES, generate
from .graphs import (
    CapacityError,
    FormatError,
    format_graph,
    int_field,
    mask_of,
    read_graph,
    write_graph,
)
from .qgraph import cg_qgraph, read_tree, spider_tree, validate_tree, write_tree
from .reductions import (
    build_bipartite,
    build_planar,
    build_split,
    hex_from_document,
    read_cnf,
)
from .solver import DEFAULT_MAX_STATES, cg
from .strategies import builtin_strategy
from .engine import verify_strategy_exhaustive


def _read_vertex_set(path: str, n: int) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        verts = [int_field(x, lineno, f"a vertex of {path}")
                 for lineno, line in enumerate(fh, start=1)
                 for x in line.split("#", 1)[0].split()]
    for v in verts:
        if not 0 <= v < n:
            raise ValueError(
                f"{path}: vertex {v} is not in the graph's range 0..{n - 1}")
    return mask_of(verts)


def _parse_variant(spec: str, n: int):
    if spec == "plain":
        return PLAIN
    if spec == "connected":
        return CONNECTED
    if spec.startswith("target:"):
        return TargetSet(_read_vertex_set(spec[len("target:"):], n))
    if spec.startswith("skip:"):
        rest = spec[len("skip:"):]
        parts = rest.split(",", 2)
        if len(parts) != 3 or not parts[2].startswith("target:"):
            raise ValueError(
                "skip variant spec is skip:<a>,<b>,target:<file>")
        a, b = (int_field(x, None, "a skip budget <a> or <b>") for x in parts[:2])
        x = _read_vertex_set(parts[2][len("target:"):], n)
        return SkipBudget(a, b, x)
    raise ValueError(f"unknown variant {spec!r}")


def _cmd_solve(args) -> int:
    doc = read_graph(args.graph)
    variant = _parse_variant(args.variant, doc.graph.n)
    res = cg(doc.graph, variant, max_states=args.max_states,
             time_limit=args.time_limit, use_pruning=not args.no_pruning)
    print(f"c_g = {res.value}")
    print(f"states expanded = {res.states_expanded}")
    if args.pv:
        line = " ".join(str(m) for m in res.principal_variation)
        print(f"pv = {line}")
    return 0


def _cmd_verify(args) -> int:
    doc = read_graph(args.graph)
    variant = _parse_variant(args.variant, doc.graph.n)
    if args.alice:
        side, name = Player.ALICE, args.alice
    else:
        side, name = Player.BOB, args.bob
    strat = builtin_strategy(name, doc)
    value = verify_strategy_exhaustive(doc.graph, variant, strat, side,
                                       max_states=args.max_states,
                                       time_limit=args.time_limit)
    bound = "guarantees at least" if side is Player.ALICE else "concedes at most"
    print(f"{name} ({side.name.lower()}) {bound} {value}")
    return 0


def _cmd_qgraph(args) -> int:
    doc = read_graph(args.graph)
    tree = read_tree(args.tree)
    check = validate_tree(doc.graph, tree)
    if not check:
        print(f"tree invalid: {check.diagnostic}")
        return 2
    print("tree valid")
    value = cg_qgraph(doc.graph, tree, max_states=args.max_states,
                      time_limit=args.time_limit)
    print(f"c_g = {value}")
    return 0


def _cmd_reduce(args) -> int:
    if args.kind in ("bipartite", "split"):
        cnf = read_cnf(args.infile)
        out = (build_bipartite if args.kind == "bipartite" else build_split)(cnf)
    else:
        hx = hex_from_document(read_graph(args.infile))
        out = build_planar(hx)
    print(f"k = {out.k}, |V| = {out.g.n}")
    if args.out:
        write_graph(args.out, out.g, roles=out.role_map,
                    header=[f"reduction: {out.kind}", f"k: {out.k}"])
        print(f"wrote {args.out}")
    return 0


def _format_dot(fg) -> str:
    lines = ["graph g {"]
    for v in range(fg.graph.n):
        tag = fg.roles.get(v)
        label = f' [label="{v}:{tag}"]' if tag else ""
        lines.append(f"  v{v}{label};")
    for u, v in sorted(fg.graph.edges()):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _int_arg(text: str, what: str) -> int:
    """``text`` read by ``int`` (so a sign is allowed); otherwise a
    ``ValueError`` that names ``what``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _cmd_generate(args) -> int:
    params = {}
    for kv in args.params:
        if "=" not in kv:
            raise ValueError(f"parameters are k=v, got {kv!r}")
        key, val = kv.split("=", 1)
        params[key] = _int_arg(val, f"parameter {key}")
    fg = generate(args.family, **params)
    if args.emit_tree and not fg.family.startswith("spider"):
        raise ValueError("--emit-tree only applies to spider families")
    text = format_graph(fg.graph, roles=fg.roles, meta=fg.meta, header=fg.header)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} (n={fg.graph.n}, m={fg.graph.edge_count})")
    else:
        sys.stdout.write(text)
    if args.emit_tree:
        write_tree(args.emit_tree, spider_tree(fg))
        print(f"wrote {args.emit_tree}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_format_dot(fg))
        print(f"wrote {args.dot}")
    return 0


def _cmd_bench(args) -> int:
    from .acceptance import format_report, run_criteria
    if args.suite != "desk":
        raise ValueError(f"unknown suite {args.suite!r}")
    numbers = None
    if args.criteria:
        numbers = [_int_arg(x, "each --criteria entry") for x in args.criteria.split(",")]
    results = run_criteria(numbers, seed=args.seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lcsg",
        description="Maker-Breaker largest-connected-subgraph game toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_budget_flags(sp):
        sp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                        help="state budget before giving up (default 5e8)")
        sp.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock seconds before giving up")

    sp = sub.add_parser("solve", help="exact game value of a graph file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--variant", default="plain",
                    help="plain | connected | target:FILE | skip:a,b,target:FILE")
    sp.add_argument("--no-pruning", action="store_true")
    sp.add_argument("--pv", action="store_true",
                    help="also print the principal variation")
    add_budget_flags(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="guaranteed value of a named strategy")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--variant", default="plain")
    side = sp.add_mutually_exclusive_group(required=True)
    side.add_argument("--alice", help="strategy name for Alice")
    side.add_argument("--bob", help="strategy name for Bob")
    add_budget_flags(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("qgraph", help="evaluate a decomposition tree")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tree", required=True)
    add_budget_flags(sp)
    sp.set_defaults(fn=_cmd_qgraph)

    sp = sub.add_parser("reduce", help="build a hardness-reduction graph")
    sp.add_argument("--kind", required=True,
                    choices=("bipartite", "split", "planar"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("generate", help="emit a named graph family")
    sp.add_argument("family", choices=sorted(FAMILIES))
    sp.add_argument("params", nargs="*", help="family parameters as k=v")
    sp.add_argument("--out")
    sp.add_argument("--emit-tree",
                    help="also write the spider decomposition tree")
    sp.add_argument("--dot", help="also write a DOT rendering")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("bench", help="run the desk-scale acceptance suite")
    sp.add_argument("--suite", default="desk")
    sp.add_argument("--criteria",
                    help="comma-separated criterion numbers, each from 1 to 12 "
                         "(default: all)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "max_states" in args:
            # a bad budget fails before the command prints anything
            Budget(args.max_states, args.time_limit)
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, FormatError, CapacityError, OSError, StrategyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
