"""Command-line surface: graph generation, pipeline runs, verification,
the exact small-graph solver, bound tables, and the Monte Carlo lab.

Exit codes: 0 success (or verified irregular), 1 verified not
irregular, 2 stage failure, a generator that gave up (``RetryExhausted``)
or an argparse usage error, 3 parameter or input error, or too little
memory for the input (as for ``gen`` with n in the millions, whose
pairing table takes n*n bits).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InputFormatError, ParameterError, RetryExhausted, StageFailure
from .graphs import (
    Graph,
    _check_regular_args,
    generate_random_regular,
    read_edge_list,
    read_graph6,
    write_edge_list,
    write_graph6,
)
from .lab import binomial_tail_estimate, chernoff_bounds, condition_failure_rates
from .labeling import compute_budgets, read_weights_csv, weight_rows, write_weights_csv
from .partition import MODE_EMPIRICAL, MODE_STRICT, PipelineParams, log_power
from .pipeline import check_entry, run_pipeline, strict_degree_window
from .seeds import derive_seed
from .verify import exact_strength, is_irregular, regular_lower_bound

_SEED_ENV = "IRRSTRENGTH_SEED"

# named parameter choices: "headline" is the b=1, eps=1/12 setting whose
# guarantee window is d in [ln^8 n, n/ln^3 n]; "wide" takes both
# exponents down to 1/18 to stretch the window at the cost of the
# error-term quality
_PRESETS = {
    "headline": (1.0, 1.0 / 12.0),
    "wide": (1.0 / 18.0, 1.0 / 18.0),
}


def _default_seed() -> int:
    raw = os.environ.get(_SEED_ENV, "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ParameterError(f"{_SEED_ENV} must be an integer, got {raw!r}") from exc
    return 0


def _load_graph(path: str) -> Graph:
    if path.endswith((".g6", ".graph6")):
        # undecodable bytes come through as surrogates, so a non-ASCII byte
        # is reported with its line instead of failing the read
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line.isascii():
                    raise InputFormatError(f"{path}: line {lineno}: non-ASCII byte")
                if line:
                    return read_graph6(line)
        raise InputFormatError(f"{path}: no graph6 line found")
    return read_edge_list(path)


def _resolve_params(args: argparse.Namespace) -> PipelineParams:
    b, eps = args.b, args.eps
    if args.preset is not None:
        pb, peps = _PRESETS[args.preset]
        b = pb if b is None else b
        eps = peps if eps is None else eps
    if b is None or eps is None:
        raise ParameterError("provide --b and --eps, or pick a --preset")
    return PipelineParams(
        b=b,
        eps=eps,
        slack=args.slack,
        max_retries=args.retries,
        mode=args.mode,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generate_random_regular(args.n, args.d, args.seed)
    if args.format == "graph6":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(write_graph6(g) + "\n")
    else:
        write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges}")
    return 0


def _cmd_weight(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    if args.graph:
        g = _load_graph(args.graph)
        result = run_pipeline(g, params, args.seed)
    else:
        if args.n is None or args.d is None:
            raise ParameterError("provide --graph or both --n and --d")
        # parameters that need no graph are refused before pairing, which
        # takes seconds at n=5000; the generator's own refusals come first
        _check_regular_args(args.n, args.d)
        result = check_entry(args.n, args.d, params, args.seed)
        if result.failure_kind is None:
            g = generate_random_regular(args.n, args.d, derive_seed(args.seed, "graph"))
            result = run_pipeline(g, params, args.seed)
    if args.timings:
        for stage, seconds in result.timings:
            print(f"timing stage={stage} seconds={seconds:.3f}", file=sys.stderr)
    text = result.to_text()
    sys.stdout.write(text)
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if result.success and args.out_weights:
        write_weights_csv(
            g, result.state, args.out_weights,
            n=g.n, d=result.d, b=params.b, eps=params.eps, seed=args.seed,
        )
    if result.success:
        return 0
    return 3 if result.failure_kind == "parameter" else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    weights = read_weights_csv(args.weights, g)
    res = is_irregular(g, weights)
    sys.stdout.write(res.to_text())
    return 0 if res.irregular else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    res = exact_strength(g, k_max=args.kmax)
    sys.stdout.write(res.to_text())
    if res.witness is not None:
        sys.stdout.writelines(weight_rows(g, res.witness))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    lines = [f"n={n}", f"d={d}", f"b={args.b!r}", f"eps={args.eps!r}"]
    lines.append(f"lower_bound={regular_lower_bound(n, d)}")
    budgets = compute_budgets(n, d, args.b, args.eps)  # refuses n < 3, where ln n would divide by 0
    cap = (n / d) * (1.0 + 8.0 / log_power(n, args.b))
    lines.append(f"guarantee_cap={cap!r}")
    lines.extend(budgets.lines())
    lo, hi = strict_degree_window(n, args.b, args.eps)
    lines.append(f"window.low={lo!r}")
    lines.append(f"window.high={hi!r}")
    lines.append(f"window.contains_d={str(lo <= d <= hi).lower()}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_lab_chernoff(args: argparse.Namespace) -> int:
    upper, lower = chernoff_bounds(args.n, args.p, args.t)
    est = binomial_tail_estimate(args.n, args.p, args.t, args.trials, args.seed)
    header = "n,p,t,upper,lower,p_above,p_below,se_above,se_below,trials"
    row = (
        f"{args.n},{args.p!r},{args.t!r},{upper!r},{lower!r},{est.p_above!r},"
        f"{est.p_below!r},{est.se_above!r},{est.se_below!r},{est.trials}"
    )
    text = header + "\n" + row + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_lab_conditions(args: argparse.Namespace) -> int:
    # no check the lab makes reads the mode; empirical admits any slack >= 1
    params = PipelineParams(b=args.b, eps=args.eps, slack=args.slack, mode=MODE_EMPIRICAL)
    table = condition_failure_rates(
        args.n, args.d, params, trials=args.trials, seed=args.seed
    )
    text = table.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrstrength",
        description="Irregular edge weightings of d-regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random d-regular graph file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_w = sub.add_parser("weight", help="run the full weighting pipeline")
    p_w.add_argument("--graph", default=None, help="input graph file (edge list or .g6)")
    p_w.add_argument("--n", type=int, default=None)
    p_w.add_argument("--d", type=int, default=None)
    p_w.add_argument("--b", type=float, default=None)
    p_w.add_argument("--eps", type=float, default=None)
    p_w.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p_w.add_argument("--slack", type=float, default=1.0)
    p_w.add_argument("--mode", choices=[MODE_STRICT, MODE_EMPIRICAL], default=MODE_STRICT)
    p_w.add_argument("--seed", type=int, default=None)
    p_w.add_argument("--retries", type=int, default=100)
    p_w.add_argument("--out-weights", default=None)
    p_w.add_argument("--out-report", default=None)
    p_w.add_argument("--timings", action="store_true", help="print stage timings to stderr")
    p_w.set_defaults(func=_cmd_weight)

    p_v = sub.add_parser("verify", help="check a weighting for irregularity")
    p_v.add_argument("--graph", required=True)
    p_v.add_argument("--weights", required=True)
    p_v.set_defaults(func=_cmd_verify)

    p_e = sub.add_parser("exact", help="exact strength of a small graph")
    p_e.add_argument("--graph", required=True)
    p_e.add_argument("--kmax", type=int, default=16)
    p_e.set_defaults(func=_cmd_exact)

    p_b = sub.add_parser("bounds", help="lower bound, budgets, and degree window")
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--d", type=int, required=True)
    p_b.add_argument("--b", type=float, required=True)
    p_b.add_argument("--eps", type=float, required=True)
    p_b.set_defaults(func=_cmd_bounds)

    p_l = sub.add_parser("lab", help="Monte Carlo experiments")
    lab_sub = p_l.add_subparsers(dest="lab_command", required=True)

    p_lc = lab_sub.add_parser("chernoff", help="binomial tails vs the exponential bounds")
    p_lc.add_argument("--n", type=int, required=True)
    p_lc.add_argument("--p", type=float, required=True)
    p_lc.add_argument("--t", type=float, required=True)
    p_lc.add_argument("--trials", type=int, default=100000)
    p_lc.add_argument("--seed", type=int, default=None)
    p_lc.add_argument("--out", default=None)
    p_lc.set_defaults(func=_cmd_lab_chernoff)

    p_lf = lab_sub.add_parser("conditions", help="sampling-condition failure rates")
    p_lf.add_argument("--n", type=int, required=True)
    p_lf.add_argument("--d", type=int, required=True)
    p_lf.add_argument("--b", type=float, required=True)
    p_lf.add_argument("--eps", type=float, required=True)
    p_lf.add_argument("--slack", type=float, default=1.0)
    p_lf.add_argument("--trials", type=int, default=100)
    p_lf.add_argument("--seed", type=int, default=None)
    p_lf.add_argument("--out", default=None)
    p_lf.set_defaults(func=_cmd_lab_conditions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        try:
            args.seed = _default_seed()
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    try:
        return args.func(args)
    except (ParameterError, InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StageFailure, RetryExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
