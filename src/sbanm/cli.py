"""Command-line surface: simulate / fit / select / eval / build-net.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run echoes its resolved configuration and seed to standard error,
and all artifacts are written atomically.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import evaluate, io, simulate, vem
from .errors import DataError, NumericalError
from .rng import substream
from .svi import SviConfig

_EXP1_PRESETS = {
    2: {"prior_means": (0.0, 2.0), "noise_mu": (-1.0, 0.0)},
    3: {"prior_means": (-2.0, 0.0, 2.0), "noise_mu": (-3.0, -1.0, 1.0)},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_blocks(text: str):
    """'4' -> 4, '3-5' -> (3, 5)."""
    if "-" in text.lstrip("-"):
        lo, hi = text.split("-", 1)
        return (int(lo), int(hi))
    return int(text)


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sbanm")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic networks")
    sim.add_argument("--layers", type=int, required=True)
    sim.add_argument("--nodes", type=int, required=True)
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--blocks", type=_parse_blocks, help="block count or lo-hi range")
    group.add_argument("--experiment2", action="store_true",
                       help="fixed trivariate 4-block benchmark parameters")
    sim.add_argument("--candidates", type=int, default=1)
    sim.add_argument("--keep-frac", type=float, default=0.10)
    sim.add_argument("--seed", type=_parse_seed, default=0)
    sim.add_argument("--out", required=True)

    fit_p = sub.add_parser("fit", help="fit one network")
    _add_fit_flags(fit_p)
    fit_p.add_argument("--out", required=True)

    sel = sub.add_parser("select", help="fit a range of Q and report ICLs")
    _add_fit_flags(sel, blocks=False)
    sel.add_argument("--qmin", type=int, required=True)
    sel.add_argument("--qmax", type=int, required=True)

    ev = sub.add_parser("eval", help="compare a fit against ground truth")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--pred", required=True)

    bn = sub.add_parser("build-net", help="construct a network from raw data")
    bn.add_argument("--responses", required=True,
                    help="response CSV (fisher-agreement) or count network TSV (logit-strength)")
    bn.add_argument("--transform", choices=["fisher-agreement", "logit-strength"],
                    required=True)
    bn.add_argument("--out", required=True)
    return parser


def _add_fit_flags(p, blocks: bool = True):
    p.add_argument("--input", required=True)
    if blocks:
        p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol-elbo", type=float, default=1e-8)
    p.add_argument("--tol-tau", type=float, default=1e-6)
    p.add_argument("--damping", type=float, default=0.7)
    p.add_argument("--svi", action="store_true")
    p.add_argument("--svi-a", type=int, default=150)
    p.add_argument("--svi-kappa-m", type=float, default=2.0)
    p.add_argument("--svi-kappa-w", type=float, default=0.7)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--seed", type=_parse_seed, default=0)


def _echo_config(args) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "command")
    print(f"sbanm {args.command}: {pairs}", file=sys.stderr)


def _fit(args, net, Q: int) -> vem.FitResult:
    """Fit Q blocks with the command's settings; warn when the returned hard
    partition leaves blocks without a node, and when the ELBO fell between
    iterations by more than --tol-elbo times its previous magnitude."""
    cfg = vem.FitConfig(
        Q=Q,
        max_outer=args.max_iter,
        tol_elbo=args.tol_elbo,
        tol_tau=args.tol_tau,
        damping=args.damping,
        seed=args.seed,
    )
    svi = None
    if args.svi:
        svi = SviConfig(
            a=args.svi_a, kappa_m=args.svi_kappa_m, kappa_w=args.svi_kappa_w, seed=args.seed
        )
    result = vem.fit(net, cfg, svi=svi)
    sizes = np.bincount(result.hard_membership, minlength=Q)
    empty = ", ".join(str(q) for q in np.flatnonzero(sizes == 0))
    if empty:
        print(f"warning: Q={Q}: no node assigned to block(s) {empty}", file=sys.stderr)
    # Entry t of the trace is iteration t of the iteration log; the fit
    # stops on a non-finite ELBO term, so the trace is finite.
    trace = result.elbo_trace
    drop = -np.diff(trace) / np.abs(trace[:-1])
    dropped = ", ".join(str(t + 1) for t in np.flatnonzero(drop > args.tol_elbo))
    if dropped:
        print(f"warning: Q={Q}: ELBO decreased at iteration(s) {dropped} "
              f"(largest relative drop {drop.max():.2e})", file=sys.stderr)
    return result


def _write_candidate(out_dir, params, sizes, seed, rng) -> None:
    os.makedirs(out_dir, exist_ok=True)
    net, labels = simulate.gen_network(params, sizes, rng)
    io.write_network(net, os.path.join(out_dir, "net.tsv"))
    tau = np.zeros((net.n, params.Q))
    tau[np.arange(net.n), labels] = 1.0
    io.write_memberships(os.path.join(out_dir, "truth.csv"), labels, tau)
    io.write_params(os.path.join(out_dir, "params.json"), params, seed=seed)


def _cmd_simulate(args) -> int:
    if args.candidates < 1:
        raise DataError("--candidates must be at least 1")
    if args.experiment2:
        if args.layers != 3 or args.nodes != 300:
            raise DataError("--experiment2 requires --layers 3 --nodes 300")
        params, sizes = simulate.experiment2_spec()
        kept = list(range(args.candidates))
        candidates = [(params, sizes)] * args.candidates
    else:
        preset = _EXP1_PRESETS.get(args.layers)
        if preset is None:
            # Empty for --layers below 1, which SimSpec rejects.
            preset = {"prior_means": (0.0,) * args.layers, "noise_mu": (-1.0,) * args.layers}
        spec = simulate.SimSpec(
            n=args.nodes,
            K=args.layers,
            Q=args.blocks,
            prior_means=preset["prior_means"],
            noise_mu=preset["noise_mu"],
        )
        candidates = [
            simulate.draw_candidate(spec, substream(args.seed, "candidate", i))
            for i in range(args.candidates)
        ]
        kept = simulate.filter_separable([p for p, _ in candidates], args.keep_frac)
    print(f"kept candidates: {kept}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    for i in kept:
        params, sizes = candidates[i]
        out_dir = (
            args.out if len(kept) == 1 else os.path.join(args.out, f"cand{i:03d}")
        )
        _write_candidate(out_dir, params, sizes, args.seed, substream(args.seed, "network", i))
    return 0


def _cmd_fit(args) -> int:
    net = io.read_network(args.input)
    result = _fit(args, net, args.blocks)
    result.icl = evaluate.icl(net, result)
    os.makedirs(args.out, exist_ok=True)
    io.write_memberships(
        os.path.join(args.out, "memberships.csv"),
        result.hard_membership,
        result.state.tau,
        net.node_labels,
    )
    io.write_params(
        os.path.join(args.out, "params.json"),
        result.params,
        elbo=result.elbo,
        icl=result.icl,
        seed=args.seed,
    )
    if not result.converged:
        print("warning: fit did not converge; last iterate written", file=sys.stderr)
    return 0


def _cmd_select(args) -> int:
    if args.qmin < 1 or args.qmax < args.qmin:
        raise DataError("need 1 <= qmin <= qmax")
    net = io.read_network(args.input)
    rows = []
    for Q in range(args.qmin, args.qmax + 1):
        rows.append((Q, evaluate.icl(net, _fit(args, net, Q))))
    for Q, value in rows:
        print(f"{Q}\t{format(value, '.17g')}")
    best = max(rows, key=lambda r: r[1])[0]
    print(f"best\t{best}")
    return 0


def _cmd_eval(args) -> int:
    nodes_t, truth, _ = io.read_memberships(args.truth)
    nodes_p, pred, _ = io.read_memberships(args.pred)
    if nodes_t != nodes_p:
        raise DataError("truth and prediction files list different nodes")
    flag = evaluate.exact_recovery(truth, pred)
    print(f"ari\t{format(evaluate.ari(truth, pred), '.17g')}")
    print(f"nmi\t{format(evaluate.nmi(truth, pred), '.17g')}")
    print(f"exact_recovery\t{'true' if flag else 'false'}")
    return 0


def _cmd_build_net(args) -> int:
    if args.transform == "fisher-agreement":
        net = io.build_similarity_network(io.read_responses(args.responses))
    else:
        net = io.normalize_logit(io.read_network(args.responses))
    os.makedirs(args.out, exist_ok=True)
    io.write_network(net, os.path.join(args.out, "net.tsv"))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "select": _cmd_select,
    "eval": _cmd_eval,
    "build-net": _cmd_build_net,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_config(args)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"sbanm: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"sbanm: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"sbanm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
