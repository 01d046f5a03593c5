"""Command-line front end: reproducible file-based runs of every subsystem.

Subcommands: audit, assemble, simulate, eigen, dof, pml, pic, genmesh.
All flags are long-form; outputs are deterministic for a fixed seed and
carry a schema or header line identifying the format.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import generators
from .audit import run_full_audit
from .dof import dof_audit
from .hodge import MaterialMap, assemble_galerkin_dual, assemble_hodge, write_coo
from .maxwell import (
    DiscreteCodifferential,
    apply_pec,
    eigenmodes,
    leapfrog_run,
    stable_timestep,
    write_trace,
)
from .mesh import classify_boundary, load_mesh, write_mesh
from .pic import conservation_report_json, verify_conservation
from .pml import reflection_sweep, write_sweep
from .whitney import WhitneyBasis


def _materials(args) -> MaterialMap:
    """The uniform materials of ``--eps`` and ``--mu``; call before any work."""
    _require_positive(("--eps", args.eps), ("--mu", args.mu))
    return MaterialMap(eps=args.eps, mu=args.mu)


def _add_mesh_arg(p, required=True):
    p.add_argument("--mesh", required=required, help="path to a declat-mesh file")


def _add_material_args(p):
    p.add_argument("--eps", type=float, default=1.0, help="uniform permittivity")
    p.add_argument("--mu", type=float, default=1.0, help="uniform permeability")


def _require_counts(*flags: tuple[str, int | None], least: int = 1) -> None:
    """Exit, before any work, on a count flag that is given but is below
    ``least``."""
    for flag, value in flags:
        if value is not None and value < least:
            raise SystemExit(f"{flag} must be at least {least}, got {value}")


def _require_positive(*flags: tuple[str, float | None]) -> None:
    """Exit, before any work, on a value flag that is given but is not a
    finite number above 0."""
    for flag, value in flags:
        if value is not None and not 0 < value < float("inf"):
            raise SystemExit(f"{flag} must be a finite number above 0, got {value!r}")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` and a newline to the file ``out``, or print it."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_genmesh(args) -> int:
    _require_counts(("--n", args.n), ("--ny", args.ny), ("--nz", args.nz))
    _require_counts(("--segments", args.segments), least=3)
    _require_positive(("--lx", args.lx), ("--ly", args.ly), ("--lz", args.lz))
    kind = args.kind
    if kind == "tet1":
        mesh = generators.single_tet()
    elif kind == "kuhn":
        mesh = generators.kuhn_cube()
    elif kind == "box":
        mesh = generators.box_mesh(args.n, args.ny, args.nz, lengths=(args.lx, args.ly, args.lz))
    elif kind == "annulus":
        mesh = generators.annulus_mesh(args.segments)
    else:
        raise SystemExit(f"unknown mesh kind {kind!r}")
    write_mesh(mesh, args.out)
    print(f"wrote {args.out}: N_V={mesh.n_vertices} N_E={mesh.n_edges} "
          f"N_F={mesh.n_faces} N_P={mesh.n_tets}")
    return 0


def cmd_audit(args) -> int:
    mesh = load_mesh(args.mesh)
    report = run_full_audit(mesh)
    _emit(report.to_json() if args.json else report.to_text(), args.out)
    return 0 if report.passed else 1


def cmd_assemble(args) -> int:
    materials = _materials(args)
    mesh = load_mesh(args.mesh)
    if args.which == "galerkin":
        base = Path(args.out)
        paths = [base.with_suffix(f".{which}{base.suffix}") for which in ("eps_inv", "mu")]
        for H, path in zip(assemble_galerkin_dual(mesh, materials), paths):
            write_coo(H, path)
        print(f"wrote {paths[0]} and {paths[1]}")
    else:
        H = assemble_hodge(mesh, materials, args.which)
        write_coo(H, args.out)
        print(f"wrote {args.out}: shape {H.shape} nnz {H.nnz}")
    return 0


def cmd_simulate(args) -> int:
    # A malformed spec, count or time step fails before any work.
    spec = re.fullmatch(r"exact|spai(?::(\d+))?", args.hodge_inverse)
    if spec is None:
        raise SystemExit(f"--hodge-inverse: unknown hodge_inverse {args.hodge_inverse!r}: "
                         "expected 'exact', 'spai' or 'spai:<level>'")
    _require_counts(("--steps", args.steps), ("--trace-every", args.trace_every))
    _require_counts(("--seed", args.seed), least=0)
    _require_positive(("--dt", args.dt), ("--dt-factor", args.dt_factor))
    materials = _materials(args)
    mesh = load_mesh(args.mesh)
    cls = classify_boundary(mesh)
    ops = apply_pec(mesh, cls, materials)
    if ops.n_edges == 0:
        raise SystemExit("mesh has no interior edges after PEC reduction")
    # One exact inverse serves the bound and, for an exact run, the loop.
    exact = DiscreteCodifferential(ops)
    bound = stable_timestep(ops, exact)
    dt = args.dt if args.dt is not None else args.dt_factor * bound
    if dt > bound and not args.force:
        raise SystemExit(
            f"dt={dt!r} exceeds the stability bound {bound!r}; use --force to override"
        )
    rng = np.random.default_rng(args.seed)
    E0 = rng.standard_normal(ops.n_edges) if args.init == "random" else None
    B0 = rng.standard_normal(ops.n_faces) if args.init == "random" else None
    codiff = exact if spec[0] == "exact" else DiscreteCodifferential(ops, int(spec[1] or 1))
    _, _, trace = leapfrog_run(codiff, dt, args.steps, E0, B0, trace_every=args.trace_every)
    write_trace(trace, args.out)
    print(f"wrote {args.out}: {args.steps} steps at dt={float(dt)!r} "
          f"(bound {float(bound)!r}); invariant drift/step {trace.drift_per_step():.3e}")
    return 0


def cmd_eigen(args) -> int:
    _require_counts(("--count", args.count))
    # The dense path never reads sigma, so a NaN would pass unseen there.
    if args.sigma is not None and not np.isfinite(args.sigma):
        raise SystemExit(f"--sigma must be a finite number, got {args.sigma!r}")
    materials = _materials(args)
    mesh = load_mesh(args.mesh)
    cls = classify_boundary(mesh)
    ops = apply_pec(mesh, cls, materials)
    res = eigenmodes(ops, count=args.count, sigma=args.sigma)
    report = dof_audit(mesh, cls)
    payload = {
        "schema": "declat-eigen-1",
        "k2": [float(v) for v in res.k2],
        "zero_mode_count_computed": res.zero_count,
        "zero_mode_count_certified": report.interior_counts["N_V_h"]
        + report.harmonic_1,
        "nonzero_mode_count_certified": report.theta_E,
        "zero_tol": res.zero_tol,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_dof(args) -> int:
    mesh = load_mesh(args.mesh)
    report = dof_audit(mesh)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_pml(args) -> int:
    if not args.sweep:
        raise SystemExit("pml currently supports --sweep")
    _require_counts(("--nx", args.nx), ("--nz", args.nz))
    _require_positive(("--length", args.length))
    # Checked before any mesh is built: at or below the cutoff kz is not
    # real, a source or window outside the guide drives or samples nothing,
    # a layer that starts outside it absorbs nothing, and a window that
    # reaches into the layer fits its decaying field as a standing wave.
    if not 1 < args.omega_factor < float("inf"):
        raise SystemExit(f"--omega-factor must be finite and above 1, got {args.omega_factor!r}")
    if not 0 < args.source_z < args.length:
        raise SystemExit(f"--source-z must lie between 0 and --length, got {args.source_z!r}")
    for flag, z in (("--window-lo", args.window_lo), ("--window-hi", args.window_hi)):
        if not 0 <= z <= args.length:
            raise SystemExit(f"{flag} must lie in [0, --length], got {z!r}")
    if not 0 < args.pml_start < args.length:
        raise SystemExit(f"--pml-start must lie between 0 and --length, got {args.pml_start!r}")
    if not args.window_lo < args.window_hi:
        raise SystemExit(f"--window-lo must lie below --window-hi, "
                         f"got {args.window_lo!r} and {args.window_hi!r}")
    if not args.window_hi <= args.pml_start:
        raise SystemExit(f"--window-hi must not exceed --pml-start, "
                         f"got {args.window_hi!r} and {args.pml_start!r}")
    try:
        omega_maxes = [float(x) for x in args.omega_maxes.split(",")]
        if not all(0 <= w < float("inf") for w in omega_maxes):
            raise ValueError
    except ValueError:
        raise SystemExit(f"--omega-maxes must be a comma-separated list of finite numbers "
                         f">= 0, got {args.omega_maxes!r}") from None
    rows = reflection_sweep(
        args.nx, args.nz, args.length, args.omega_factor * np.pi, omega_maxes,
        pml_start=args.pml_start, source_z=args.source_z,
        sample_z=np.linspace(args.window_lo, args.window_hi, 49),
    )
    write_sweep(rows, args.out)
    print(f"wrote {args.out}")
    for r in rows:
        print(f"  omega_max={r.omega_max_profile:g} |R|={r.reflection_mag:.4e}")
    return 0


def cmd_pic(args) -> int:
    _require_counts(("--paths", args.paths))
    _require_counts(("--seed", args.seed), least=0)
    _require_positive(("--tau", args.tau))
    if not np.isfinite(args.charge):
        raise SystemExit(f"--charge must be a finite number, got {args.charge!r}")
    if not np.isfinite(args.charge / args.tau):
        raise SystemExit(f"--charge/--tau must be a finite ratio, "
                         f"got {args.charge!r}/{args.tau!r}")
    mesh = load_mesh(args.mesh) if args.mesh else generators.box_mesh(3)
    basis = WhitneyBasis(mesh)
    rng = np.random.default_rng(args.seed)
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = hi - lo
    q, tau = args.charge, args.tau
    ends = lo + span * (0.02 + 0.96 * rng.random((args.paths, 2, 3)))
    # np.max, unlike max, keeps a NaN residual, which then fails the bound.
    worst = float(np.max([verify_conservation(basis, a, b, q, tau) for a, b in ends]))
    _emit(conservation_report_json(worst, q / tau, args.paths), args.out)
    return 0 if worst <= 1e-12 * abs(q / tau) else 1


@functools.cache  # parse_args leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="declat",
        description="discrete exterior calculus on tetrahedral lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmesh", help="write one of the shipped test meshes")
    p.add_argument("--kind", required=True,
                   choices=["tet1", "kuhn", "box", "annulus"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--nz", type=int, default=None)
    p.add_argument("--lx", type=float, default=1.0)
    p.add_argument("--ly", type=float, default=1.0)
    p.add_argument("--lz", type=float, default=1.0)
    p.add_argument("--segments", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_genmesh)

    p = sub.add_parser("audit", help="run the three-section lattice audit")
    _add_mesh_arg(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("assemble", help="assemble Hodge matrices to COO text")
    _add_mesh_arg(p)
    _add_material_args(p)
    p.add_argument("--which", default="eps", choices=["eps", "mu_inv", "galerkin"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("simulate", help="leapfrog run with energy trace")
    _add_mesh_arg(p)
    _add_material_args(p)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--dt-factor", type=float, default=0.9,
                   help="fraction of the stability bound when --dt is omitted")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--hodge-inverse", default="exact",
                   help="'exact', 'spai' or 'spai:<level>'")
    p.add_argument("--init", default="random", choices=["random", "zero"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("eigen", help="curl-curl eigenvalues and mode counts")
    _add_mesh_arg(p)
    _add_material_args(p)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("dof", help="degree-of-freedom audit report")
    _add_mesh_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dof)

    p = sub.add_parser("pml", help="absorbing-layer reflection sweep")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--nx", type=int, default=4)
    p.add_argument("--nz", type=int, default=24)
    p.add_argument("--length", type=float, default=6.0)
    p.add_argument("--omega-factor", type=float, default=1.4,
                   help="angular frequency in units of the cutoff pi")
    p.add_argument("--omega-maxes", default="0,2,4,8,12,16")
    p.add_argument("--pml-start", type=float, default=4.5)
    p.add_argument("--source-z", type=float, default=0.625)
    p.add_argument("--window-lo", type=float, default=1.2)
    p.add_argument("--window-hi", type=float, default=4.2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pml)

    p = sub.add_parser("pic", help="charge-conservation check on random paths")
    p.add_argument("--mesh", default=None)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pic)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
