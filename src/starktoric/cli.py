"""Command-line front end.

Subcommands: periods, profile, verify, flow, hill.  Exit codes are
stable across commands: 0 success, 1 verification failure, 2 usage or
domain error, 3 runtime numerical error.  All numeric output carries 17
significant digits so files round-trip to the in-memory doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .dynamics import IntegratorSpec, Scheme, flow_equivalence, integrate_regularized
from .errors import DomainError, NumericsError
from .levi_civita import RegularizedState
from .periods import OscillatorSelector, period_oracle, tau1, tau2
from .stark_model import hill_grid
from .toric_profile import profile_sample, verify_convexity

__all__ = ["main"]

_ROWS_PER_WRITE = 1024


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_rows(fh, columns) -> None:
    """Write equal-length numeric columns as CSV rows of 17-digit floats,
    formatting _ROWS_PER_WRITE rows at a time to bound the memory held."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(table), _ROWS_PER_WRITE):
        block = table[start:start + _ROWS_PER_WRITE].tolist()
        fh.write("".join(row % tuple(r) for r in block))


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"malformed {what}: {text!r}") from exc


def _parse_float_list(text: str, what: str) -> list[float]:
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise DomainError(f"empty {what} list")
    return [_parse_float(tok, what) for tok in items]


@contextmanager
def _output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _cmd_periods(args: argparse.Namespace) -> int:
    eps = _parse_float(args.eps, "eps")
    c = _parse_float(args.c, "c")
    wanted = {"plus": [OscillatorSelector.PLUS], "minus": [OscillatorSelector.MINUS]}.get(
        args.which, [OscillatorSelector.PLUS, OscillatorSelector.MINUS]
    )
    with _output(args.out) as fh:
        for sel in wanted:
            formula = tau1(eps, c) if sel is OscillatorSelector.PLUS else tau2(eps, c)
            # the oracle integral needs c > 0; at c = 0 both periods are exactly
            # the harmonic 2*pi, which serves as the oracle value
            oracle = period_oracle(eps, c, sel) if c > 0.0 else 2.0 * math.pi
            resid = abs(formula - oracle) / abs(oracle)
            name = "tau1" if sel is OscillatorSelector.PLUS else "tau2"
            fh.write(
                f"{name} {_fmt(formula)} oracle {_fmt(oracle)} "
                f"rel_residual {_fmt(resid)}\n"
            )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    eps = _parse_float(args.eps, "eps")
    profile = profile_sample(eps, args.samples)
    with _output(args.out) as fh:
        fh.write("c,x,y,slope,f_second\n")
        _write_rows(fh, [profile.cs, profile.xs, profile.ys, profile.slopes,
                         profile.second_derivs])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    eps_values = _parse_float_list(args.eps, "eps")
    tol = _parse_float(args.tol, "tol")
    certificates = [verify_convexity(eps, args.samples, tol) for eps in eps_values]
    with _output(args.out) as fh:
        json.dump([cert.to_dict() for cert in certificates], fh, indent=2)
        fh.write("\n")
    return 0 if all(cert.passed for cert in certificates) else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    eps = _parse_float(args.eps, "eps")
    init = _parse_float_list(args.init, "init")
    if len(init) != 4:
        raise DomainError("--init must be four comma-separated numbers z1,w1,z2,w2")
    state = RegularizedState(z=(init[0], init[2]), w=(init[1], init[3]))
    spec = IntegratorSpec(step=args.step, scheme=Scheme(args.scheme))
    if args.check_lc:
        deviation = flow_equivalence(state, eps, spec, args.duration)
        print(f"max_deviation {_fmt(deviation)}")
        return 0
    traj, phys = integrate_regularized(state, eps, spec, args.duration)
    z1, z2, w1, w2 = (traj.states[:, k] for k in range(4))
    energy = (
        0.5 * w1**2 + 0.5 * z1**2 + 0.5 * eps * z1**4
        + 0.5 * w2**2 + 0.5 * z2**2 - 0.5 * eps * z2**4
        - 2.0
    )
    with _output(args.out) as fh:
        fh.write("s,t,z1,w1,z2,w2,E\n")
        _write_rows(fh, [traj.times, phys, z1, w1, z2, w2, energy])
        fh.write(f"# energy_drift {_fmt(traj.energy_drift)}\n")
    return 0


def _cmd_hill(args: argparse.Namespace) -> int:
    eps = _parse_float(args.eps, "eps")
    grid = hill_grid(eps, args.resolution)
    print(f"components {grid.n_components}", file=sys.stderr)
    if np.isin(grid.labels[grid.bounded], grid.labels[grid.allowed & ~grid.bounded]).any():
        print("components unresolved at this resolution: the saddle neck between "
              "the bounded and unbounded cells is narrower than a cell", file=sys.stderr)
    centers = [_fmt(q) for q in grid.centers.tolist()]
    classes = np.where(grid.bounded, "B", np.where(grid.allowed, "U", "F"))
    with _output(args.out) as fh:
        fh.write("q1,q2,class\n")
        for q1, row in zip(centers, classes):
            fh.write("".join(f"{q1},{q2},{cls}\n" for q2, cls in zip(centers, row.tolist())))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starktoric",
        description="Stark-problem periods, moment-map profiles and convexity certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="period formulas vs the quadrature oracle")
    p.add_argument("--eps", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--which", choices=["plus", "minus", "both"], default="both")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("profile", help="sample the moment-map image to CSV")
    p.add_argument("--eps", required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", help="emit JSON convexity certificates")
    p.add_argument("--eps", required=True, help="one value or a comma-separated list")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--tol", default="1e-4")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flow", help="integrate the regularized flow to CSV")
    p.add_argument("--eps", required=True)
    p.add_argument("--init", required=True, help="z1,w1,z2,w2")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="yoshida4")
    p.add_argument("--check-lc", action="store_true",
                   help="print the regularized-vs-raw flow deviation instead of a CSV")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("hill", help="rasterize the accessible region to CSV")
    p.add_argument("--eps", required=True)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_hill)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
