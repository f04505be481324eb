"""Command-line experiment runner.

Subcommands
-----------
simulate
    Integrate one measurement record in the HC chart and dump the
    trajectory with its closed-form endpoint cross-check.
moments
    Sweep the moment curves (Riccati integration vs closed forms).
distributions
    Tabulate the reduced-distribution summary functions, optionally
    with a weighted Monte Carlo estimate of the normalization.
povm
    Partition-function, completeness, and (with --paths) channel checks.
verify
    Run the full verification suite, or the checks named by --check;
    exit 0 iff every check run passes.

Each subcommand takes only the flags it reads, and --out and --format.
Every output file starts with a single JSON metadata line (version and
the subcommand's parameters) followed by data rows in CSV or JSON-lines
form.  In the subcommands that take --seed, all randomness derives from
it; verify's checks fix their own seeds and parameters.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__, dists, moments, paths, povm, verify

__all__ = ["main"]


def _metadata(args, **extra):
    """The run's parameters: every parsed flag but --out and --format."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("func", "command", "out", "format")}
    return {"artifact": "spqm", "version": __version__,
            "subcommand": args.command, **params, **extra}


def _write(out_path, metadata, header, rows, fmt):
    """One JSON metadata line, then data rows (CSV or JSON lines)."""
    buf = io.StringIO()
    buf.write(json.dumps(metadata) + "\n")
    if fmt == "csv":
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for row in rows:
            buf.write(json.dumps(dict(zip(header, row))) + "\n")
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _steps(args):
    n = int(round(args.t_final / args.dt))
    if n < 1 or abs(n * args.dt - args.t_final) > 1e-9 * args.dt:
        raise ValueError(f"t-final {args.t_final} is not a positive "
                         f"multiple of dt {args.dt}")
    return n


def _cmd_simulate(args):
    n = _steps(args)
    path = paths.sample_wiener(n, args.dt, args.kappa, args.seed)
    x = paths.propagate_sde(path, chart="hc")
    closed = paths.closed_form_hc(path)
    deviation = max(abs(x.nu[-1] - closed.nu), abs(x.mu[-1] - closed.mu),
                    abs(x.z[-1] - closed.z))
    header = ["k", "t", "re_dw", "im_dw", "re_nu", "im_nu", "r", "s", "psi",
              "re_mu", "im_mu"]
    dw = path.increments
    columns = [np.arange(n), args.dt * np.arange(1, n + 1), dw.real, dw.imag,
               x.nu[1:].real, x.nu[1:].imag, x.r[1:], x.s[1:], x.psi[1:],
               x.mu[1:].real, x.mu[1:].imag]
    meta = _metadata(args, closed_form_deviation=deviation)
    _write(args.out, meta, header,
           zip(*(column.tolist() for column in columns)), args.format)
    return 0


def _cmd_moments(args):
    steps = max(100, int(round(1000 * args.kappa * args.t_final)))
    times, n, m, q = moments.riccati_integrate(args.kappa, args.t_final, steps)
    kts = args.kappa * times
    ref = moments.analytic_moments(kts)
    dets = moments.analytic_determinant(kts)
    header = ["kT", "n", "m", "q", "n_closed", "q_closed", "det_closed"]
    rows = [[kts[i], n[i], m[i], q[i], ref.n[i], ref.q[i], dets[i]]
            for i in range(0, len(kts), max(1, len(kts) // 1000))]
    if rows[-1][0] != kts[-1]:
        rows.append([kts[-1], n[-1], m[-1], q[-1], ref.n[-1], ref.q[-1],
                     dets[-1]])
    _write(args.out, _metadata(args), header, rows, args.format)
    return 0


def _cmd_distributions(args):
    kts = np.linspace(args.t_final / 50, args.t_final, 50) * args.kappa
    triples = moments.analytic_moments(kts)
    header = ["kT", "sigma", "normalization", "n", "m", "q"]
    rows = [[kt, dists.sigma_width(kt), dists.normalization_factor(kt),
             triples.n[i], triples.m[i], triples.q[i]]
            for i, kt in enumerate(kts)]
    extra = {}
    if args.paths:
        n = _steps(args)
        est = dists.feynman_kac_estimate(
            "plain", "exp_neg_2s", "one", n_paths=args.paths, N=n,
            dt=args.dt, kappa=args.kappa, seed=args.seed)
        extra = {"fk_normalization": est.mean, "fk_stderr": est.stderr,
                 "fk_ess": est.ess, "fk_kish_ess": est.kish_ess,
                 "fk_closed_form": dists.normalization_factor(
                     args.kappa * args.t_final),
                 "fk_discrete_target": 1 / np.prod(moments.tilted_pivots(
                     n, args.dt, args.kappa)),
                 "fk_variance_finite": dists._variance_finite(
                     n, args.dt, args.kappa)}
    _write(args.out, _metadata(args, **extra), header, rows, args.format)
    return 0


def _cmd_povm(args):
    kt = args.kappa * args.t_final
    partition = povm.partition_function_check(kt, args.dim)
    completeness = povm.completeness_quadrature(kt, args.dim)
    report = {"partition_residual": partition["residual"],
              "partition_truncation_warning": partition["truncation_warning"],
              "completeness_deviation": completeness}
    if args.paths:
        rho = np.zeros((args.dim, args.dim), dtype=complex)
        rho[0, 0] = 1.0
        channel = povm.channel_monte_carlo(rho, kt, args.paths, args.dt,
                                           args.dim, args.seed)
        report.update(channel_trace_distance=channel.trace_distance,
                      channel_trace_mean=channel.trace_mean,
                      channel_trace_stderr=channel.trace_stderr,
                      channel_boundary_population=channel.metadata[
                          "boundary_population"])
    header = sorted(report)
    _write(args.out, _metadata(args), header, [[report[k] for k in header]],
           args.format)
    return 0


def _cmd_verify(args):
    if args.check:
        results = [verify.run_check(num) for num in args.check]
    else:
        results = verify.run_all()
    report = verify.format_report(results)
    print(report)
    if args.out:
        meta = _metadata(args)
        header = ["number", "name", "passed", "detail", "elapsed"]
        rows = [[r.number, r.name, r.passed, r.detail, r.elapsed]
                for r in results]
        _write(args.out, meta, header, rows, args.format)
    return 0 if all(r.passed for r in results) else 1


# Every flag of the CLI, keyed by dest.  A subcommand takes only the
# flags its handler reads, with its own defaults where they differ.
_FLAGS = {
    "kappa": dict(type=float, default=1.0, help="measurement rate"),
    "t_final": dict(type=float, default=1.0, help="final time"),
    "dt": dict(type=float, help="time step"),
    "dim": dict(type=int, default=24, help="Fock truncation dimension"),
    "paths": dict(type=int, default=0,
                  help="Monte Carlo path count, 0 skips the Monte Carlo"),
    "seed": dict(type=int, default=0,
                 help="master seed; all randomness derives from it"),
    "check": dict(type=int, action="append", metavar="N",
                  help="run only check N (repeatable; default: all)"),
    "out": dict(help="output file (default: stdout)"),
    "format": dict(choices=("csv", "json"), default="csv",
                   help="data-row format"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spqm",
        description="Simultaneous P&Q measurement: simulation and "
                    "verification of the Kraus-operator diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": ("integrate one measurement record", _cmd_simulate,
                     {"kappa": {}, "t_final": {}, "dt": {"required": True},
                      "seed": {}}),
        "moments": ("moment curves and closed forms", _cmd_moments,
                    {"kappa": {}, "t_final": {}}),
        # N = 50 steps by default: the e^{-2s} weight of --paths has
        # finite variance up to N = 76 at kappa dt = 0.01.
        "distributions": ("reduced-distribution summary functions",
                          _cmd_distributions,
                          {"kappa": {}, "t_final": {"default": 0.5},
                           "dt": {"default": 1e-2}, "paths": {}, "seed": {}}),
        "povm": ("POVM completeness and channel checks", _cmd_povm,
                 {"kappa": {}, "t_final": {}, "dt": {"default": 1e-3},
                  "dim": {}, "paths": {}, "seed": {}}),
        "verify": ("run the full verification suite", _cmd_verify,
                   {"check": {"choices": [n for n, _, _ in verify.CHECKS]}}),
    }
    for name, (help_text, handler, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for dest, overrides in {**flags, "out": {}, "format": {}}.items():
            spec = {**_FLAGS[dest], **overrides}
            if spec.get("default") is not None:
                spec["help"] += " (default %(default)s)"
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **spec)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    """Run one subcommand; errors on its input are usage errors.

    A --kappa, --t-final or --dt that is not positive and finite, a
    kappa T or a step count T/dt that overflows to inf, and any
    ValueError of the library (every typed error of the package
    subclasses it), is reported the way argparse reports its own
    errors: usage line, message, exit status 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    kappa, t_final, dt = (vars(args).get(dest)
                          for dest in ("kappa", "t_final", "dt"))
    for dest, value in (("kappa", kappa), ("t-final", t_final), ("dt", dt)):
        if value is not None and not 0 < value < np.inf:
            parser.error(f"--{dest} must be positive and finite, got {value}")
    if kappa is not None and t_final is not None and kappa * t_final == np.inf:
        parser.error(f"kappa T = {kappa} * {t_final} is not finite")
    if t_final is not None and dt is not None and t_final / dt == np.inf:
        parser.error(f"the step count T/dt = {t_final} / {dt} is not finite")
    try:
        return args.func(args)
    except ValueError as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
