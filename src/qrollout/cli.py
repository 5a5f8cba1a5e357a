"""Command-line entry point: circuit builders, validators, and table reports.

Every stochastic subcommand takes an explicit --seed; identical invocations
produce byte-identical output.  CSV artifacts start with a manifest comment
line (subcommand, parameters, seed, version) and a provenance line naming
how each numeric column was obtained (formula-predicted, measured, MC).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import bestarm as ba
from . import bounds as bd
from . import domains as dm
from . import oracle as orc
from . import rank_select as rs
from .circuit import dumps
from .emulator import EmulationError

CORRECTNESS_INSTANCES = (
    ("sway", 3, 2, None, None, 169, 3079, 9768, 0.271),
    ("sway", 5, 3, None, None, 667, 18258, 55597, 0.325),
    ("epi", 3, 2, 2, 2, 146, 2383, 6472, 0.891),
)
SCALING_GRID = ((5, 5), (7, 5), (10, 5), (10, 10), (20, 10))
REFERENCE_QUBITS = {
    ("sway", 5, 5): 916, ("sway", 7, 5): 1708, ("sway", 10, 5): 3363,
    ("sway", 10, 10): 6503, ("sway", 20, 10): 25189,
    ("epi", 5, 5): 767, ("epi", 7, 5): 1452, ("epi", 10, 5): 2893,
    ("epi", 10, 10): 5463, ("epi", 20, 10): 21409,
}


class _UsageError(Exception):
    """A value that only the domain can reject, reported like a parser
    error of the subcommand that took it (its usage line, exit 2)."""


def _manifest(args: argparse.Namespace) -> str:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "parser") and v is not None}
    params["version"] = __version__
    return "# manifest: " + json.dumps(params, sort_keys=True)


def _open(path: str, mode: str, option: str):
    """``open(path, mode)``, a file that cannot be opened being a usage
    error that names the option and the path."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise _UsageError(f"argument {option}: {path}: {exc.strerror}"
                          ) from None


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with _open(out, "w", "--out") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_spec(domain: str, m: int, horizon: int, threshold, rho):
    if domain == "epi":
        return dm.sir_spec(dm.SirConfig(
            m, horizon, 2 if threshold is None else threshold,
            2 if rho is None else rho))
    # the manifest records every given flag: refuse one that Sway ignores
    for flag, value in (("--T", threshold), ("--rho", rho)):
        if value is not None:
            raise _UsageError(f"argument {flag}: --domain sway has no "
                              f"{flag} (it is an epi parameter)")
    return dm.sway_spec(dm.SwayConfig(m=m, horizon=horizon))


def _default_board(domain: str, m: int) -> int:
    if domain == "sway":
        return 0
    board = 0
    center = (m // 2) * m + (m // 2)
    return dm.set_cell(board, center, dm.INFECTED)


def _load_board(args, domain: str, m: int) -> int:
    path = getattr(args, "board", None)
    if not path:
        return _default_board(domain, m)
    with _open(path, "r", "--board") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _UsageError(f"argument --board: {path}: not {exc.encoding} "
                              f"text (byte {exc.start})") from None
    cells = len("".join(text.split()))
    if cells != m * m:
        raise _UsageError(f"argument --board: {path} holds {cells} cells, "
                          f"not --m {m} squared ({m * m})")
    try:
        return dm.parse_board(text, "sir" if domain == "epi" else domain)
    except ValueError as exc:
        raise _UsageError(f"argument --board: {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_ranksel_validate(args) -> int:
    variants = ("scan", "blocked") if args.variant == "both" else (args.variant,)
    n = args.n
    ok = True
    lines = [_manifest(args)]
    for variant in variants:
        c = rs.build_scan(n) if variant == "scan" else rs.build_blocked(n)
        try:
            check = rs.exhaustive_check(c)
        except EmulationError as exc:
            raise _UsageError(f"argument --n: {exc}") from None
        ok = ok and check.passed
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{variant} n={n}: {check.pairs} (mask,rank) pairs, "
                     f"{check.mismatches} mismatches, {check.dirty} "
                     f"dirty-ancilla inputs: {status}")
    _emit(args, lines)
    return 0 if ok else 1


def cmd_ranksel_costs(args) -> int:
    lines = [_manifest(args),
             "# provenance: gates,depth,qubits = measured from built circuit",
             "n,w,variant,gates,depth,qubits"]
    n = 4
    while n <= args.n_max:
        for variant in ("scan", "blocked"):
            builder = (rs.builder_scan if variant == "scan"
                       else rs.builder_blocked)(n, record=False)
            rep = builder.report()
            lines.append(f"{n},{rs.width_for(n)},{variant},{rep.gate_count},"
                         f"{rep.depth},{rep.qubit_count}")
        n *= 2
    _emit(args, lines)
    return 0


def cmd_oracle_build(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    # a path that cannot be written costs no build; opening it to append
    # leaves an existing file as it is until the oracle is written
    existed = os.path.exists(args.out)
    _open(args.out, "a", "--out").close()
    if not existed:
        os.remove(args.out)
    oc = orc.compose(spec)
    with _open(args.out, "w", "--out") as fh:
        fh.write(dumps(oc.circuit))
    rep = oc.report
    print(f"wrote {args.out}: qubits={rep.qubit_count} gates={rep.gate_count} "
          f"depth={rep.depth}")
    return 0


def cmd_oracle_counts(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    oc = orc.compose(spec, record=False)
    lay = oc.layout
    lines = [_manifest(args),
             "# provenance: all counts measured from the builder; "
             "predicted columns from the per-call cost formulas",
             "quantity,value"]
    lines.append(f"g_index_per_pass,{oc.g_index:.6g}")
    lines.append(f"g_trans,{oc.trans_gates}")
    lines.append(f"g_eval,{oc.eval_gates}")
    predicted = orc.gate_cost_formula(spec, oc.g_index, oc.g_trans, oc.g_eval)
    lines.append(f"g_call_predicted,{predicted:.6g}")
    lines.append(f"g_call_measured,{oc.report.gate_count}")
    for key, val in lay.breakdown().items():
        lines.append(f"qubits_{key},{val}")
    _emit(args, lines)
    return 0


def cmd_oracle_validate(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    board = _load_board(args, args.domain, args.m)
    seeds = [args.seed + i for i in range(args.seeds)]
    rep = orc.branchwise_check(spec, seeds, board)
    lines = [_manifest(args)]
    if rep.passed:
        lines.append(f"branchwise agreement: PASS ({rep.n_branches} branches)")
    else:
        lines.append(f"branchwise agreement: FAIL seed={rep.seed} "
                     f"round={rep.round_index} register={rep.register}")
    _emit(args, lines)
    return 0 if rep.passed else 1


def cmd_domain_exact(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    board = _load_board(args, args.domain, args.m)
    lines = [_manifest(args)]
    try:
        value = dm.exact_value(spec, board)
    except dm.BudgetError as exc:
        lines.append(f"error: {exc}")
        _emit(args, lines)
        return 1
    lines.append("# provenance: value = exact distribution DP")
    lines.append(f"exact_value,{value:.10f}")
    _emit(args, lines)
    return 0


def cmd_domain_mc(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    board = _load_board(args, args.domain, args.m)
    p, half = dm.sample_payoff(spec, board, shots=args.shots, seed=args.seed)
    lines = [_manifest(args),
             "# provenance: value = seeded classical-rollout Monte Carlo",
             f"mc_value,{p:.10f}", f"ci95_half_width,{half:.10f}"]
    _emit(args, lines)
    return 0


def cmd_bestarm_separate(args) -> int:
    ks = [int(x) for x in args.k.split(",")]
    epss = [float(x) for x in args.eps.split(",")]
    rep = ba.separation_report(ks, epss, trials=args.trials, seed=args.seed)
    lines = [_manifest(args),
             "# provenance: pulls/calls/success = seeded Monte Carlo means; "
             "*_se = standard error of the mean over trials; "
             "lower_bound = (k-1)ln2/(288 eps^2)",
             "k,eps,classical_pulls,classical_pulls_se,classical_success,"
             "quantum_calls,quantum_calls_se,quantum_success,lower_bound"]
    for r in rep.rows:
        lines.append(f"{r.k},{r.eps:.6g},{r.classical_pulls:.3f},"
                     f"{r.classical_pulls_se:.3f},{r.classical_success:.4f},"
                     f"{r.quantum_calls:.3f},{r.quantum_calls_se:.3f},"
                     f"{r.quantum_success:.4f},{r.lower_bound:.6f}")
    lines.append(f"# slopes: classical_vs_k={rep.slope_classical_k:.4f} "
                 f"quantum_vs_k={rep.slope_quantum_k:.4f} "
                 f"classical_vs_inv_eps={rep.slope_classical_eps:.4f} "
                 f"quantum_vs_inv_eps={rep.slope_quantum_eps:.4f}")
    lines.append("# slope standard errors (delta method): "
                 f"classical_vs_k={rep.slope_classical_k_se:.4f} "
                 f"quantum_vs_k={rep.slope_quantum_k_se:.4f} "
                 f"classical_vs_inv_eps={rep.slope_classical_eps_se:.4f} "
                 f"quantum_vs_inv_eps={rep.slope_quantum_eps_se:.4f}")
    _emit(args, lines)
    return 0


def cmd_bounds_decay(args) -> int:
    model = bd.InfluenceModel(kappa=args.kappa, p=args.p, horizon=args.H)
    lines = [_manifest(args),
             "# provenance: exact rational evaluation of the path-counting "
             "bounds",
             "d,per_round,cumulative"]
    for d in range(1, args.d_max + 1):
        lines.append(f"{d},{bd.decay_per_round(model, d):.10g},"
                     f"{bd.decay_cumulative(model, d):.10g}")
    _emit(args, lines)
    return 0


def cmd_bounds_peripheral(args) -> int:
    ps = bd.peripheral_set(args.m, args.H)
    lines = [_manifest(args),
             f"radius,{ps.radius}",
             f"q_size,{len(ps.cells)}",
             f"nonempty_predicted,{ps.nonempty_predicted}",
             f"nonempty_actual,{ps.nonempty}"]
    _emit(args, lines)
    return 0


def cmd_bounds_lifting(args) -> int:
    spec = _make_spec(args.domain, args.m, args.H, args.T, args.rho)
    board = _load_board(args, args.domain, args.m)
    arms = args.arms
    codes = dm.board_codes(board, spec.n_cells)
    valid = int((codes == dm.EMPTY).sum())
    if arms > valid:
        raise _UsageError(f"argument --arms: {arms} arms need {arms} valid "
                          f"cells, the initial board has {valid}")
    moves = dm.default_first_moves(spec, board, arms)
    lines = [_manifest(args)]
    try:
        # the DP budget depends on the cell count only, so members fit too
        values = dm.arm_means(spec, board, arms, first_moves=moves)
    except dm.BudgetError as exc:
        lines.append(f"error: {exc}")
        _emit(args, lines)
        return 1
    best = max(range(arms), key=lambda j: values[j])
    gaps = [values[best] - v for j, v in enumerate(values) if j != best]
    eps = max(min(gaps) / 3.0 * 0.99, 1e-6)
    ps = bd.peripheral_set(args.m, args.H)
    cfg = tuple(codes.tolist())
    witness = bd.LiftingWitness(
        n_factors=spec.n_cells, alphabet=(0, 1, 2), base_config=cfg,
        best_arm=best, eps=eps,
        deltas={p: 0.0 for p in ps.cells},
        peripheral=frozenset(ps.cells),
        arm_supports=tuple(frozenset({mv}) for mv in moves))

    def value_oracle(config):
        return dm.arm_means(spec, dm.board_pack(config), arms,
                            first_moves=moves)

    rep = bd.check_lifting(witness, sample_count=args.samples,
                           value_oracle=value_oracle, seed=args.seed)
    lines += [f"family_size,{rep.family_size}",
              f"members_checked,{rep.members_checked}",
              f"structural_ok,{rep.structural_ok}",
              f"optimality_failures,{rep.optimality_failures}",
              f"result,{'PASS' if rep.passed else 'FAIL'}"]
    if rep.failure_reason:
        lines.append(f"reason,{rep.failure_reason}")
    _emit(args, lines)
    return 0 if rep.passed else 1


def cmd_tables_correctness(args) -> int:
    lines = [_manifest(args),
             "# provenance: qubits/depth/gates measured from built circuits; "
             "mc = seeded classical-rollout Monte Carlo (equal to the "
             "circuit MC at the same seed); exact = distribution DP for m=3, "
             f"reference MC ({args.ref_shots} shots) for m=5; ref_* columns "
             "are external comparison figures",
             "domain,instance,qubits,depth,gates,mc_payoff,mc_ci95,exact,"
             "exact_provenance,ref_qubits,ref_exact"]
    for (name, m, h, t, rho, pq, pd, pg, pex) in CORRECTNESS_INSTANCES:
        spec = _make_spec(name, m, h, t, rho)
        board = _default_board(name, m)
        oc = orc.compose(spec, record=False)
        rep = oc.report
        p, half = dm.sample_payoff(spec, board, shots=args.shots,
                                   seed=args.seed)
        try:
            exact = dm.exact_value(spec, board)
            prov = "dp-exact"
        except dm.BudgetError:
            exact, _ = dm.sample_payoff(spec, board, shots=args.ref_shots,
                                        seed=args.seed + 1)
            prov = f"mc-ref({args.ref_shots})"
        inst = f"{m}x{m} H={h}" + (f" T={t}" if t is not None else "")
        lines.append(f"{name},{inst},{rep.qubit_count},{rep.depth},"
                     f"{rep.gate_count},{p:.6f},{half:.6f},{exact:.6f},"
                     f"{prov},{pq},{pex}")
    _emit(args, lines)
    return 0


def cmd_tables_scaling(args) -> int:
    lines = [_manifest(args),
             "# provenance: qubits = closed-form layout (equals built "
             "registers); gates = builder tally; ref_qubits are external "
             "comparison figures",
             "domain,m,H,n,qubits,gates,ref_qubits,qubit_ratio"]
    for (m, h) in SCALING_GRID:
        for name in ("sway", "epi"):
            report = orc.compose(_make_spec(name, m, h, None, None),
                                 record=False).report
            qubits, gates = report.qubit_count, report.gate_count
            pq = REFERENCE_QUBITS[(name, m, h)]
            lines.append(f"{name},{m},{h},{m * m},{qubits},{gates},{pq},"
                         f"{qubits / pq:.4f}")
    _emit(args, lines)
    return 0


# ---------------------------------------------------------------------------
# parser

def _ranged(kind, ok, what: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse's message for a bad literal
    return parse


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    return _ranged(int, lambda v: v >= low, f"at least {low}")


def _comma_list(parse):
    """An argparse type: comma-separated values that each pass ``parse``,
    at least two of them distinct (a fitted slope needs two points).  The
    text is kept as given, so the manifest records it unchanged."""
    def check(text: str) -> str:
        if len({parse(item) for item in text.split(",")}) < 2:
            raise argparse.ArgumentTypeError(
                f"needs two distinct values, got {text}")
        return text
    check.__name__ = parse.__name__
    return check


_COUNT, _NONNEG = _int_at_least(1), _int_at_least(0)
_PROBABILITY = _ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_GAP = _ranged(float, lambda v: 0.0 < v <= 0.125, "in (0, 1/8]")
_RHO = _ranged(int, lambda v: 0 <= v <= dm.SIR_FACES,
               f"in [0, {dm.SIR_FACES}]")


def _add_domain_args(p):
    p.add_argument("--domain", required=True, choices=("sway", "epi"))
    p.add_argument("--m", type=_COUNT, required=True)
    p.add_argument("--H", type=_NONNEG, required=True)
    p.add_argument("--T", type=_NONNEG, default=None)
    p.add_argument("--rho", type=_RHO, default=None)
    p.add_argument("--board", default=None,
                   help="initial-configuration text file (symbols ./B/W or S/I/R)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qrollout",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ranksel").add_subparsers(dest="sub", required=True)
    p = g.add_parser("validate")
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--variant", choices=("scan", "blocked", "both"),
                   default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ranksel_validate, parser=p)
    p = g.add_parser("costs")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(4),
                   required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ranksel_costs, parser=p)

    g = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    p = g.add_parser("build")
    _add_domain_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle_build, parser=p)
    p = g.add_parser("counts")
    _add_domain_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_counts, parser=p)
    p = g.add_parser("validate")
    _add_domain_args(p)
    p.add_argument("--seeds", type=_COUNT, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_validate, parser=p)

    g = sub.add_parser("domain").add_subparsers(dest="sub", required=True)
    p = g.add_parser("exact")
    _add_domain_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_domain_exact, parser=p)
    p = g.add_parser("mc")
    _add_domain_args(p)
    p.add_argument("--shots", type=_COUNT, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_domain_mc, parser=p)

    g = sub.add_parser("bestarm").add_subparsers(dest="sub", required=True)
    p = g.add_parser("separate")
    p.add_argument("--k", type=_comma_list(_int_at_least(2)), required=True,
                   help="comma-separated arm counts")
    p.add_argument("--eps", type=_comma_list(_GAP), required=True,
                   help="comma-separated gaps")
    p.add_argument("--trials", type=_COUNT, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bestarm_separate, parser=p)

    g = sub.add_parser("bounds").add_subparsers(dest="sub", required=True)
    p = g.add_parser("decay")
    p.add_argument("--kappa", type=_int_at_least(2), required=True)
    p.add_argument("--p", type=_PROBABILITY, required=True)
    p.add_argument("--H", type=_NONNEG, required=True)
    p.add_argument("--d-max", dest="d_max", type=_COUNT, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_decay, parser=p)
    p = g.add_parser("peripheral")
    p.add_argument("--m", type=_COUNT, required=True)
    p.add_argument("--H", type=_NONNEG, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_peripheral, parser=p)
    p = g.add_parser("lifting")
    _add_domain_args(p)
    p.add_argument("--arms", type=_int_at_least(2), default=2)
    p.add_argument("--samples", type=_COUNT, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_lifting, parser=p)

    g = sub.add_parser("tables").add_subparsers(dest="sub", required=True)
    p = g.add_parser("correctness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shots", type=_COUNT, default=10_000)
    p.add_argument("--ref-shots", dest="ref_shots", type=_COUNT, default=200_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables_correctness, parser=p)
    p = g.add_parser("scaling")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables_scaling, parser=p)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        args.parser.error(str(exc))


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
