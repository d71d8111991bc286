"""Command-line front end.

Subcommands map onto the library modules and emit deterministic CSV, JSON
(schema tag ``htbif/1``), or standalone SVG; repeated runs with identical
flags produce byte-identical files.  ``htbif --seed-check`` runs the full
acceptance suite at desk scale and prints one pass/fail line per criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import acceptance, linstab, nodal, perturbed, spectral, timemap
from .errors import ConvergenceError, DomainError, IntegrationError, NoSolutionError
from .model import CoeffFn, ModelParams, Profile, potential_F, w0_const, whole

__all__ = ["build_parser", "emit_diagram", "main"]

JSON_SCHEMA = "htbif/1"


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors with exit status 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require_directory(path: str) -> None:
    """DomainError unless the directory a file is to be written to exists."""
    out_dir = Path(path).resolve().parent
    if not out_dir.is_dir():
        raise DomainError(f"output directory {out_dir} does not exist")


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema": JSON_SCHEMA, **payload}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _add_model_flags(sp, need_mu=True, need_lam=False):
    sp.add_argument("--b", type=float, default=1.0, help="predation coefficient (> 0)")
    sp.add_argument("--d", type=float, default=1.0, help="predator self-limitation (> 0)")
    sp.add_argument("--mu", type=float, required=need_mu, default=50.0, help="predator growth rate")
    sp.add_argument("--lambda", dest="lam", type=float, required=need_lam, default=25.0,
                    help="prey growth rate (bifurcation parameter)")
    sp.add_argument("--eps", type=float, default=0.0, help="inverse saturation rate (>= 0)")
    sp.add_argument("--a", dest="coeff_a", default="const:1",
                    help="prey self-limitation coefficient, const:<v> or csv:<path>")
    sp.add_argument("--c", dest="coeff_c", default="const:1",
                    help="conversion coefficient, const:<v> or csv:<path>")


def build_parser() -> _Parser:
    parser = _Parser(prog="htbif", description=__doc__)
    parser.add_argument("--seed-check", action="store_true",
                        help="run the acceptance suite at desk scale and print a pass/fail table")
    sub = parser.add_subparsers(dest="subcommand")

    sp = sub.add_parser("eigencurves", help="root pairs of the eigencurves at the constant state")
    _add_model_flags(sp)
    sp.add_argument("--ell-max", type=int, default=None, help="largest mode number (default: auto)")
    sp.add_argument("-o", "--output", default="eigencurves.csv")

    sp = sub.add_parser("critical", help="mode thresholds mu_kappa")
    _add_model_flags(sp, need_mu=False)
    sp.add_argument("--kappa-max", type=int, default=3)
    sp.add_argument("-o", "--output", default="critical.csv")

    sp = sub.add_parser("timemap", help="half-period map samples over (0, w0)")
    _add_model_flags(sp, need_lam=True)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("-o", "--output", default="timemap.csv")

    sp = sub.add_parser("nodal", help="the two n-crossing solution profiles")
    _add_model_flags(sp, need_lam=True)
    sp.add_argument("--n", type=int, required=True, help="crossing count (>= 1)")
    sp.add_argument("--n-points", type=int, default=2001)
    sp.add_argument("-o", "--output", default="nodal.csv")

    sp = sub.add_parser("diagram", help="bifurcation diagram: constant branch plus solution loops")
    _add_model_flags(sp)
    sp.add_argument("--n-lambda", type=int, default=61, help="loop samples per mode")
    sp.add_argument("--ceiling", type=float, default=None,
                    help="clip level for the unbounded constant branch (default 4x its mid value)")
    sp.add_argument("-o", "--output", default="diagram.svg")
    sp.add_argument("--points-csv", default=None, help="loop point CSV (default: output with .csv)")

    sp = sub.add_parser("morse", help="Morse indices along the constant and nodal branches")
    _add_model_flags(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--n-lambda", type=int, default=25)
    sp.add_argument("--n-points", type=int, default=2001)
    sp.add_argument("-o", "--output", default="morse.csv")

    sp = sub.add_parser("bifdir", help="branch expansion check at a bifurcation point")
    _add_model_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--side", choices=("minus", "plus"), required=True)
    sp.add_argument("--n-points", type=int, default=2001)
    sp.add_argument("-o", "--output", default="bifdir.json")

    sp = sub.add_parser("perturb", help="Newton solves at eps from the 2n+1 limit seeds")
    _add_model_flags(sp, need_lam=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n-points", type=int, default=2001)
    sp.add_argument("-o", "--output", default="perturb.json")

    sp = sub.add_parser("census", help="coexistence-state census at (eps, lambda, mu)")
    _add_model_flags(sp, need_lam=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n-points", type=int, default=2001)
    sp.add_argument("-o", "--output", default="census.json")
    return parser


def _run_eigencurves(p, args):
    table = spectral.eigencurve_table(p, args.ell_max)
    _write_csv(args.output, ["mu", "ell", "lambda_minus", "lambda_plus", "is_real"],
               [(r.mu, r.ell, r.lambda_minus, r.lambda_plus, r.is_real) for r in table])


def _run_critical(p, args):
    kappa_max = whole(args.kappa_max, 0, "--kappa-max")
    _write_csv(args.output, ["kappa", "mu_kappa"],
               [(k, spectral.mu_threshold(k, p)) for k in range(kappa_max + 1)])


def _run_timemap(p, args):
    samples = whole(args.samples, 1, "--samples")
    w0 = w0_const(p)
    plane = timemap.PhasePlane(p)
    rows = []
    for j in range(1, samples + 1):
        s = plane.time_map(w0 * j / (samples + 1.0))
        rows.append((s.w_minus, s.w_plus, s.T, float(potential_F(s.w_minus, p))))
    _write_csv(args.output, ["w_minus", "w_plus", "T", "energy_level"], rows)


def _run_nodal(p, args):
    lower, upper = nodal.nodal_pair(args.n, p, args.n_points)
    x = lower.profile.x
    rows = zip(map(float, x), map(float, lower.profile.values), map(float, upper.profile.values))
    _write_csv(args.output, ["x", "w_lower", "w_upper"], rows)


def _run_morse(p, args):
    n = args.n
    rows = []
    for lam in spectral.window_lambdas(n, p, args.n_lambda):
        q = p.with_lam(lam)
        m_const = spectral.morse_index_w0(q.lam, q)
        rows.append((lam, "constant", m_const,
                     spectral.tau0(m_const - 1, q.lam, q), spectral.tau0(m_const, q.lam, q)))
        try:
            lower, upper = nodal.nodal_pair(n, q, args.n_points)
        except (NoSolutionError, ConvergenceError, IntegrationError) as exc:
            warnings.warn(f"morse skipped lam = {lam:g}: {exc}", stacklevel=2)
            continue
        for sol in (lower, upper):
            spec = linstab.sturm_spectrum(linstab.nodal_potential(sol.profile, q), n + 1)
            rows.append((lam, f"nodal-{sol.branch}", spec.morse_index,
                         float(spec.eigenvalues[n - 1]), float(spec.eigenvalues[n])))
    _write_csv(args.output, ["lambda", "branch", "morse_index", "tau_low", "tau_high"], rows)


def _run_bifdir(p, args):
    check = linstab.fit_expansion(args.n, args.side, p, args.n_points)
    _write_json(args.output, {
        "kind": "expansion_check",
        "n": check.n,
        "side": check.side,
        "eta1_estimate": check.eta1_estimate,
        "eta2_estimate": check.eta2_estimate,
        "eta2_closed_form": check.eta2_closed_form,
        "y1_l2_error": check.y1_l2_error,
    })


def _state_payload(s):
    return {
        "origin": s.origin,
        "residual_sup": s.residual_sup,
        "newton_iters": s.newton_iters,
        "w": [float(v) for v in s.w.values],
        "v": [float(v) for v in s.v.values],
    }


def _run_perturb(p, args):
    v_flat = Profile.constant(p.mu / p.d, args.n_points)
    seeds = nodal.limit_seeds(args.n, p, args.n_points)
    states = [perturbed.newton_solve(seed, v_flat, p, origin=origin) for origin, seed in seeds]
    _write_json(args.output, {
        "kind": "perturb",
        "eps": p.eps, "lambda": p.lam, "mu": p.mu,
        "states": [_state_payload(s) for s in states],
    })


def _run_census(p, args):
    result = perturbed.census(args.n, p, args.n_points)
    _write_json(args.output, {
        "kind": "census",
        "eps": result.eps, "lambda": result.lam, "mu": result.mu,
        "distinct_count": result.distinct_count,
        "shortfall": result.shortfall,
        "states": [_state_payload(s) for s in result.states],
    })


def _svg_points(xs, ys, to_px) -> str:
    return " ".join(f"{to_px(x, y)[0]:.3f},{to_px(x, y)[1]:.3f}" for x, y in zip(xs, ys))


def emit_diagram(c0_samples, loops, path: str, p: ModelParams, ceiling: float) -> None:
    """Standalone SVG: lam horizontal, solution measure vertical.

    ``c0_samples`` is a list of (lam, w0) pairs for the constant branch,
    clipped at the stated ceiling on the left (it is unbounded as lam tends
    to 0 and vanishes at the right end).  Each entry of ``loops`` is
    (n, [LoopPoint ...]); a loop is drawn closed, its lower arc from the
    starting amplitudes, its upper arc from the companion sup norms.
    No timestamps are embedded, so identical inputs give identical bytes.
    """
    width, height = 800.0, 560.0
    ml, mr, mt, mb = 65.0, 20.0, 20.0, 45.0
    lam_hi = p.bmu_over_d
    y_hi = ceiling

    def to_px(lam, w):
        px = ml + (width - ml - mr) * lam / lam_hi
        py = height - mb - (height - mt - mb) * min(w, y_hi) / y_hi
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" y2="{height - mb:g}" stroke="black"/>',
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" stroke="black"/>',
    ]
    for k in range(5):
        lam = lam_hi * k / 4.0
        x, _ = to_px(lam, 0.0)
        parts.append(f'<line x1="{x:.3f}" y1="{height - mb:g}" x2="{x:.3f}" y2="{height - mb + 5:g}" stroke="black"/>')
        parts.append(f'<text x="{x:.3f}" y="{height - mb + 18:g}" font-size="11" text-anchor="middle">{lam:.4g}</text>')
        w = y_hi * k / 4.0
        _, y = to_px(0.0, w)
        parts.append(f'<line x1="{ml - 5:g}" y1="{y:.3f}" x2="{ml:g}" y2="{y:.3f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8:g}" y="{y + 4:.3f}" font-size="11" text-anchor="end">{w:.4g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.3f}" y="{height - 8:g}" font-size="12" text-anchor="middle">lambda</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2:.3f}" font-size="12" text-anchor="middle" transform="rotate(-90 14 {(mt + height - mb) / 2:.3f})">solution measure</text>')

    if c0_samples:
        pts = _svg_points([s[0] for s in c0_samples], [s[1] for s in c0_samples], to_px)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>')

    colors = ("#1f6fb4", "#d95f02", "#2ca02c", "#9467bd", "#8c564b")
    for idx, (n, pts) in enumerate(loops):
        if not pts:
            continue
        color = colors[idx % len(colors)]
        lams = [q.lam for q in pts] + [q.lam for q in reversed(pts)]
        vals = [q.w_minus_lower for q in pts] + [q.sup_norm_upper for q in reversed(pts)]
        path_pts = _svg_points(lams, vals, to_px)
        parts.append(f'<polygon points="{path_pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        x, y = to_px(pts[len(pts) // 2].lam, pts[len(pts) // 2].sup_norm_upper)
        parts.append(f'<text x="{x:.3f}" y="{y - 6:.3f}" font-size="11" fill="{color}">loop {n}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _run_diagram(p, args):
    # trace_loop checks --n-lambda only where a mode window is open
    n_lambda = whole(args.n_lambda, 1, "--n-lambda")
    csv_path = args.points_csv or str(Path(args.output).with_suffix(".csv"))
    _require_directory(csv_path)
    if args.ceiling is not None and not args.ceiling > 0.0:
        raise DomainError(f"--ceiling must be positive, got {args.ceiling!r}")
    windows = spectral.mode_windows(p)
    ceiling = args.ceiling or 4.0 * w0_const(p.with_lam(0.5 * p.bmu_over_d))
    lam_lo = p.b * p.mu / (p.d * (1.0 + ceiling))  # where the constant branch hits the clip level
    c0 = []
    for lam in np.linspace(lam_lo, p.bmu_over_d * (1.0 - 1e-9), 256):
        c0.append((float(lam), w0_const(p.with_lam(float(lam)))))
    loops = [(root.ell, nodal.trace_loop(root.ell, p, n_lambda)) for root in windows]
    rows = []
    for n, pts in loops:
        for q in pts:
            rows.append((n, q.lam, q.w_minus_lower, q.sup_norm_lower, q.sup_norm_upper))
    # the CSV goes first, so a failed write leaves no SVG behind
    _write_csv(csv_path, ["n", "lambda", "w_minus_lower", "sup_norm_lower", "sup_norm_upper"], rows)
    emit_diagram(c0, loops, args.output, p, ceiling)


_HANDLERS = {
    "eigencurves": _run_eigencurves,
    "critical": _run_critical,
    "timemap": _run_timemap,
    "nodal": _run_nodal,
    "diagram": _run_diagram,
    "morse": _run_morse,
    "bifdir": _run_bifdir,
    "perturb": _run_perturb,
    "census": _run_census,
}


def main(argv=None) -> int:
    """Run one subcommand (or --seed-check); 0 on success, 1 on any error,
    reported as one stderr line.  Each warning the subcommand raises is one
    stderr line of the same form, and leaves the exit status alone."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.seed_check:
        results = acceptance.run_all()
        sys.stdout.write(acceptance.format_report(results))
        return 0 if all(r.passed for r in results) else 1
    if not args.subcommand:
        parser.print_help()
        return 1
    error = None
    with warnings.catch_warnings(record=True) as caught:  # the active filters still apply
        try:
            _require_directory(args.output)
            p = ModelParams(args.b, args.d, args.lam, args.mu, args.eps,
                            CoeffFn.from_spec(args.coeff_a), CoeffFn.from_spec(args.coeff_c))
            _HANDLERS[args.subcommand](p, args)
        except Exception as exc:
            error = exc
    for warning in caught:
        print(f"htbif {args.subcommand}: {warning.category.__name__}: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"htbif {args.subcommand}: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
