"""Command-line interface.

Subcommands:
  check-curve    validate a curve description file
  scan-mu        derivative side vs root side over a mu grid, CSV output
  lemma          numeric verification of the Cesaro closed-form table
  critical-line  critical-line assembly of r(s0, mu) for mu in {0, -1, -2}

Exit codes: 0 success; 1 tolerance failure (a result outside --tol, or a lemma
symbol with no classical limit); 2 invalid input: a usage error, or a ZetaffError
or OSError (an unreadable curve file, an unwritable --out, a closed stdout pipe),
which main alone reports, as "invalid input: <reason>" and never as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import sys

from . import cesaro, curve_model, deriv_side, root_side
from .errors import InvalidInputError, NoClimError, ValidationError, ZetaffError

EXIT_OK = 0
EXIT_TOL = 1
EXIT_INVALID = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_curve_file(path: str) -> curve_model.CurveZeta:
    """Parse a curve description file.

    Format: a header line ``q <int> genus <int>`` followed by one factor per
    line ``sigma0 tau0 nu``.  The two pole factors (nu = -1) may be listed
    but are appended automatically either way.  Any failure, an unreadable
    file included, raises InvalidInputError starting "invalid curve: ".
    """
    try:
        with open(path) as fh:
            return _parse_curve(fh.readlines())
    except (OSError, ZetaffError) as exc:
        raise InvalidInputError(f"invalid curve: {exc}") from exc


def _parse_curve(lines) -> curve_model.CurveZeta:
    header = None
    roots = []
    poles = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 4 or parts[0] != "q" or parts[2] != "genus":
                raise ZetaffError(f"line {lineno}: expected header 'q <int> genus <int>'")
            try:
                header = (int(parts[1]), int(parts[3]))
            except ValueError:
                raise ZetaffError(f"line {lineno}: q and genus must be integers")
            continue
        if len(parts) != 3:
            raise ZetaffError(f"line {lineno}: expected 'sigma0 tau0 nu'")
        try:
            sigma0, tau0, nu = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ZetaffError(f"line {lineno}: could not parse factor fields")
        if nu == 1:
            roots.append((sigma0, tau0))
        elif nu == -1:
            poles.append((sigma0, tau0))
        else:
            raise ZetaffError(f"line {lineno}: nu must be +1 or -1, got {nu}")
    if header is None:
        raise ZetaffError("empty curve file: missing header")
    q, genus = header
    for sigma0, tau0 in poles:
        if (sigma0, tau0) not in ((0.0, 0.0), (1.0, 0.0)):
            raise ZetaffError(
                f"pole factor ({sigma0}, {tau0}) must be (0, 0) or (1, 0)"
            )
    return curve_model.make_curve(q, genus, roots)


def cmd_check_curve(args) -> int:
    curve = parse_curve_file(args.curve)
    rng = random.Random(0)
    worst = 0.0
    for _ in range(10):
        s = complex(1.0 + 2.0 * rng.random(), -5.0 + 10.0 * rng.random())
        ok, residual = curve_model.check_functional_equation(curve, s, 1e-9)
        worst = max(worst, residual)
        if not ok:
            raise ValidationError(
                f"invalid curve: functional equation fails at s = {s}: residual {residual:.3g}"
            )
    n_roots = len(curve.root_factors())
    print(
        f"valid curve: q={curve.q} genus={curve.genus} "
        f"({n_roots} root factors + 2 poles); "
        f"worst functional-equation residual {worst:.3g}"
    )
    return EXIT_OK


def _mu_grid(mu_min: float, mu_max: float, mu_step: float):
    if not all(math.isfinite(v) for v in (mu_min, mu_max, mu_step)):
        raise ZetaffError(
            f"mu grid bounds and step must be finite, got {mu_min}, {mu_max}, {mu_step}"
        )
    if mu_step <= 0.0:
        raise ZetaffError(f"mu-step must be positive, got {mu_step}")
    if mu_min > mu_max:
        raise ZetaffError(f"empty mu grid: {mu_min} > {mu_max}")
    count = int(math.floor((mu_max - mu_min) / mu_step + 1e-9)) + 1
    mus = [mu_min + i * mu_step for i in range(count)]
    for mu in mus:
        if abs(mu - 1.0) <= 1e-9:
            raise ZetaffError("mu grid contains the singular point mu = 1")
    return mus


def cmd_scan_mu(args) -> int:
    s0 = complex(args.s0_re, args.s0_im)
    ctl = deriv_side.SeriesControl(n_terms=args.terms)
    mus = _mu_grid(args.mu_min, args.mu_max, args.mu_step)
    if args.curve:
        curve = parse_curve_file(args.curve)
        d = deriv_side.deriv_side_total(curve, s0, mus, ctl)
        r = root_side.root_side_total(curve, s0, mus, args.k).tolist()
    else:
        factor = curve_model.LambdaFactor(args.sigma0, args.tau0, 1)
        d = deriv_side.deriv_side_factor(args.q, factor, s0, mus, ctl)
        r = [res.value for res in root_side.root_side_em(factor, args.q, s0, mus, args.k)]
    sides = list(zip(d.tolist(), r))

    # opened only now, so that invalid input leaves no output file
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.write("mu,re_deriv,im_deriv,re_root,im_root,abs_diff,rel_diff\n")
        worst = 0.0
        for mu, (d, r) in zip(mus, sides):
            abs_diff = abs(d - r)
            rel_diff = abs_diff / (1.0 + abs(d))
            worst = max(worst, rel_diff)
            out.write(
                ",".join(
                    _fmt(v)
                    for v in (mu, d.real, d.imag, r.real, r.imag, abs_diff, rel_diff)
                )
                + "\n"
            )
    if worst > args.tol:
        print(f"worst rel_diff {worst:.3g} exceeds tol {args.tol:.3g}", file=sys.stderr)
        return EXIT_TOL
    return EXIT_OK


def cmd_lemma(args) -> int:
    s0 = complex(args.s0_re, args.s0_im)
    C = curve_model.vertical_spacing(args.q)
    t_max = args.t_max_periods * C
    dt = C / 128.0
    symbols = [args.symbol] if args.symbol else list(cesaro.LEMMA_SYMBOLS)
    rows = []
    all_pass = True
    for symbol in symbols:
        for direction in ("lower", "upper"):
            params = cesaro.LemmaParams(
                q=args.q,
                sigma0=args.sigma0,
                tau0=args.tau0,
                s0=s0,
                direction=direction,
                n=args.n,
            )
            try:
                res = cesaro.verify_lemma(symbol, params, t_max, dt, args.tol)
            except NoClimError as exc:
                print(
                    f"{symbol} {direction}: no classical limit "
                    f"(flatness {exc.residual_flatness:.3g})",
                    file=sys.stderr,
                )
                return EXIT_TOL
            rows.append(res)
            all_pass = all_pass and res.passed
    def cfmt(z: complex) -> str:
        return f"{z.real:.6g}{z.imag:+.6g}i"

    print(f"{'symbol':10s} {'dir':6s} {'closed_form':>26s} {'numeric':>26s} {'abs_diff':>10s}")
    for res in rows:
        print(
            f"{res.symbol:10s} {res.direction:6s} "
            f"{cfmt(res.closed_form):>26s} {cfmt(res.numeric):>26s} {res.abs_diff:>10.2e}"
        )
    passed = sum(res.passed for res in rows)
    print(f"{passed}/{len(rows)} within tol {args.tol:g}")
    return EXIT_OK if all_pass else EXIT_TOL


def cmd_critical_line(args) -> int:
    s0 = complex(args.s0_re, args.s0_im)
    C = curve_model.vertical_spacing(args.q)
    if args.random:
        rng = random.Random(args.seed)
        half = [rng.uniform(0.05 * C, 0.45 * C) for _ in range(args.g)]
        kappas = half + [C - k for k in half]
    elif args.kappas:
        kappas = args.kappas
    else:
        raise ZetaffError("provide --kappas or --random")
    cf = cesaro.make_counting(args.g, C, kappas)
    epsilons = [0.0] * (2 * args.g)
    results = [cesaro.r_critical_line(cf, s0, mu, epsilons) for mu in (0, -1, -2)]
    x_offline = None if args.offline is None else cesaro.x_epsilon_equispaced(args.offline)
    ok = True
    for res in results:
        print(f"r(s0, {res.mu:+d}) = {res.value}")
        for name, piece in res.pieces.items():
            print(f"  {name}: {piece}")
            ok = ok and abs(piece) <= args.tol
        if res.x_epsilon is not None:
            print(f"  X_eps: {res.x_epsilon}")
        ok = ok and abs(res.value) <= args.tol
    if x_offline is not None:
        print(f"off-line family at sigma0 = {args.offline}: X_eps = {x_offline}")
        print(
            "note: X_eps = 0 also holds for equi-spaced off-line roots, so "
            "X_eps = 0 alone does not imply the Riemann hypothesis here"
        )
        ok = ok and abs(x_offline) <= args.tol
    return EXIT_OK if ok else EXIT_TOL


def float_list(text: str) -> list:
    """argparse type of a comma-separated list of numbers."""
    return [float(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaff",
        description="generalised root identities for zeta functions of curves "
        "over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-curve", help="validate a curve description file")
    p.add_argument("--curve", required=True, help="curve description file")
    p.set_defaults(func=cmd_check_curve)

    p = sub.add_parser("scan-mu", help="scan the identity residual over a mu grid")
    p.add_argument("--curve", help="curve description file (else inline factor)")
    p.add_argument("--q", type=int, default=25)
    p.add_argument("--sigma0", type=float, default=0.6)
    p.add_argument("--tau0", type=float, default=3.0 * math.pi / 4.0)
    p.add_argument("--s0-re", type=float, default=5.1238)
    p.add_argument("--s0-im", type=float, default=0.0)
    p.add_argument("--mu-min", type=float, default=-1.45)
    p.add_argument("--mu-max", type=float, default=2.55)
    p.add_argument("--mu-step", type=float, default=0.1)
    p.add_argument(
        "--k", type=int, default=None,
        help="root-side truncation (default: chosen per factor and mu by the error model)",
    )
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_scan_mu)

    p = sub.add_parser("lemma", help="verify the Cesaro closed-form table")
    p.add_argument("--q", type=int, default=25)
    p.add_argument("--sigma0", type=float, default=0.6)
    p.add_argument("--tau0", type=float, default=3.0 * math.pi / 4.0)
    p.add_argument("--s0-re", type=float, default=5.1238)
    p.add_argument("--s0-im", type=float, default=0.0)
    p.add_argument("--symbol", choices=cesaro.LEMMA_SYMBOLS, help="single symbol")
    p.add_argument("--n", type=int, default=1, help="power n for alpha_n")
    p.add_argument("--t-max-periods", type=float, default=1e4)
    p.add_argument("--tol", type=float, default=5e-3)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("critical-line", help="critical-line r(s0, mu) assembly")
    p.add_argument("--q", type=int, default=25)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--kappas", type=float_list, help="comma-separated step positions in (0, C)")
    p.add_argument("--random", action="store_true", help="random symmetric kappas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s0-re", type=float, default=5.1238)
    p.add_argument("--s0-im", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--offline",
        type=float,
        help="also report X_eps for an equi-spaced off-line family at this sigma0",
    )
    p.set_defaults(func=cmd_critical_line)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe raises here, not at exit
        return code
    except (OSError, ZetaffError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the signal module docs' recipe: the flush at exit must not meet the pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
