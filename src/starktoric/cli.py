"""Command-line front end.

Subcommands: periods, profile, verify, flow, hill.  Exit codes are
stable across commands: 0 success, 1 verification failure, 2 usage error
or DomainError (an unwritable --out or a closed stdout too), 3
NumericsError or a size the machine cannot hold.  argparse converts every
number, so a malformed one is a usage error.  All numeric output
carries 17 significant digits so files round-trip to the in-memory
doubles.  ``--out`` is opened before any work, and a file written there
appears only when its command completes.

Importing this module loads no layer of the package but ``errors``, and not
numpy; each subcommand imports the layers it runs when it runs:

* periods: periods (with elliptic and stark_model), and quadrature for
  the oracle at c > 0;
* profile, verify: toric_profile, periods, elliptic and stark_model (verify: json);
* flow: dynamics, levi_civita, periods, elliptic and stark_model;
* hill: stark_model.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from .errors import DomainError, NumericsError

__all__ = ["main"]

_ROWS_PER_WRITE = 1024


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_rows(fh, columns) -> None:
    """Write equal-length numeric columns as CSV rows of 17-digit floats,
    formatting _ROWS_PER_WRITE rows at a time to bound the memory held."""
    import numpy as np

    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(table), _ROWS_PER_WRITE):
        block = table[start:start + _ROWS_PER_WRITE].tolist()
        fh.write("".join(row % tuple(r) for r in block))


def _float_list(text: str) -> list[float]:
    """argparse type of a comma-separated list of numbers; empty items are skipped."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _state(text: str) -> list[float]:
    """argparse type of the four numbers z1,w1,z2,w2 of a regularized state."""
    values = _float_list(text)
    if len(values) != 4:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated numbers z1,w1,z2,w2, got {len(values)}")
    return values


@contextmanager
def _output(path: str):
    """stdout for "-", else a file at path that the body's output replaces
    only when the body returns.

    A regular file, or none yet, is written as a sibling temporary file and
    renamed onto path, so an error leaves path as it was.  Anything else (a
    device such as /dev/null, a pipe, or a directory, which fails) is opened
    in place.
    """
    if path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)  # a symlink is written through
    regular = os.path.isfile(target) or not os.path.exists(target)
    tmp = f"{target}.{os.getpid()}.tmp" if regular else None
    try:
        fh = open(tmp or target, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        if tmp is not None:
            os.replace(tmp, target)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _cmd_periods(args: argparse.Namespace, fh) -> int:
    from .periods import OscillatorSelector, period_oracle, tau1, tau2

    wanted = {"plus": [OscillatorSelector.PLUS], "minus": [OscillatorSelector.MINUS]}.get(
        args.which, [OscillatorSelector.PLUS, OscillatorSelector.MINUS]
    )
    rows = []
    for sel in wanted:
        formula = (tau1 if sel is OscillatorSelector.PLUS else tau2)(args.eps, args.c)
        # the oracle integral needs c > 0; at c = 0 both periods are exactly
        # the harmonic 2*pi, which serves as the oracle value
        oracle = period_oracle(args.eps, args.c, sel) if args.c > 0.0 else 2.0 * math.pi
        resid = abs(formula - oracle) / abs(oracle)
        name = "tau1" if sel is OscillatorSelector.PLUS else "tau2"
        rows.append(f"{name} {_fmt(formula)} oracle {_fmt(oracle)} rel_residual {_fmt(resid)}\n")
    fh.writelines(rows)
    return 0


def _cmd_profile(args: argparse.Namespace, fh) -> int:
    from .toric_profile import profile_sample

    profile = profile_sample(args.eps, args.samples)
    fh.write("c,x,y,slope,f_second\n")
    _write_rows(fh, profile[1:])  # cs, xs, ys, slopes, second_derivs
    return 0


def _cmd_verify(args: argparse.Namespace, fh) -> int:
    import json

    from .toric_profile import verify_convexity

    certificates = [verify_convexity(eps, args.samples, args.tol) for eps in args.eps]
    json.dump([cert.to_dict() for cert in certificates], fh, indent=2)
    fh.write("\n")
    return 0 if all(cert.passed for cert in certificates) else 1


def _cmd_flow(args: argparse.Namespace, fh) -> int:
    from .dynamics import flow_equivalence, integrate_regularized
    from .levi_civita import RegularizedState, _total_energy

    eps, init = args.eps, args.init
    state = RegularizedState(z=(init[0], init[2]), w=(init[1], init[3]))
    if args.check_lc:
        deviation = flow_equivalence(state, eps, step=args.step, s_duration=args.duration)
        fh.write(f"max_deviation {_fmt(deviation)}\n")
        return 0
    traj, phys = integrate_regularized(state, eps, step=args.step, duration=args.duration)
    z1, z2, w1, w2 = (traj.states[:, k] for k in range(4))
    energy = _total_energy(eps, z1, z2, w1, w2)
    fh.write("s,t,z1,w1,z2,w2,E\n")
    _write_rows(fh, [traj.times, phys, z1, w1, z2, w2, energy])
    fh.write(f"# energy_drift {_fmt(traj.energy_drift)}\n")
    return 0


def _cmd_hill(args: argparse.Namespace, fh) -> int:
    import numpy as np

    from .stark_model import hill_grid

    grid = hill_grid(args.eps, args.resolution)
    print(f"components {grid.n_components}", file=sys.stderr)
    if grid.unresolved:
        print("components unresolved at this resolution: the saddle neck between "
              "the bounded and unbounded cells is narrower than a cell", file=sys.stderr)
    if not grid.bounded.any():
        print("no bounded cell: the bounded oval is smaller than a cell at this "
              "resolution", file=sys.stderr)
    centers = [_fmt(q) for q in grid.centers.tolist()]
    classes = np.where(grid.bounded, "B", np.where(grid.allowed, "U", "F"))
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
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--which", choices=["plus", "minus", "both"], default="both")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("profile", help="sample the moment-map image to CSV")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", help="emit JSON convexity certificates")
    p.add_argument("--eps", type=_float_list, required=True,
                   help="one value or a comma-separated list")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flow", help="integrate the regularized flow to CSV")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--init", type=_state, required=True, help="z1,w1,z2,w2")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3,
                   help="spaces the samples; with --check-lc, also the raw flow's step length")
    p.add_argument("--check-lc", action="store_true",
                   help="print the regularized-vs-raw flow deviation instead of a CSV")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("hill", help="rasterize the accessible region to CSV")
    p.add_argument("--eps", type=float, required=True)
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
        with _output(args.out) as fh:
            code = args.func(args, fh)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; what is still buffered goes to
        # /dev/null, so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write stdout: Broken pipe", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
