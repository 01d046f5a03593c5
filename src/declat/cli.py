"""Command-line front end: reproducible file-based runs of every subsystem.

Subcommands: audit, assemble, simulate, eigen, dof, pml, pic, genmesh.
All flags are long-form; outputs are deterministic for a fixed seed and
carry a schema or header line identifying the format.
Exit codes: 0 pass, 1 a failed check or a refused run, 2 a bad or conflicting flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .mesh import MeshError, classify_boundary, load_mesh, write_mesh
from .pic import conservation_report_json, verify_conservation
from .pml import reflection_sweep, write_sweep
from .whitney import WhitneyBasis


def _rule(rule: str, parse, ok=lambda value: True):
    """An argparse ``type=`` keeping ``parse(text)`` if ``ok`` holds for it; any
    other text exits 2, naming the flag and stating ``rule``."""
    def checked(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return checked


def _inverse_level(spec: str) -> int | None:
    """The SPAI level of a ``spai[:k]`` spec (``spai`` is 1); None for ``exact``."""
    match = re.fullmatch(r"exact|spai(?::(\d+))?", spec)
    if match is None:
        raise ValueError(spec)
    return None if match[0] == "exact" else int(match[1] or 1)


_COUNT = _rule("an integer of at least 1", int, lambda n: n >= 1)
_SEED = _rule("an integer of at least 0", int, lambda n: n >= 0)
_SEGMENTS = _rule("an integer of at least 3", int, lambda n: n >= 3)
_FINITE = _rule("a finite number", float, math.isfinite)
_POSITIVE = _rule("a finite number above 0", float, lambda x: 0 < x < math.inf)
_ABOVE_ONE = _rule("a finite number above 1", float, lambda x: 1 < x < math.inf)
_RATES = _rule("a comma-separated list of finite numbers >= 0",
               lambda text: [float(w) for w in text.split(",")],
               lambda rates: all(0 <= w < math.inf for w in rates))
_INVERSE = _rule("'exact', 'spai' or 'spai:<level>'", _inverse_level)


def _check_pml(args) -> None:
    """Refuse pml flags that conflict: a source, layer or window outside the
    guide drives, absorbs or samples nothing, and a window that reaches into
    the layer fits its decaying field as a standing wave."""
    if not args.source_z < args.length:
        args.error(f"--source-z must lie below --length, got {args.source_z!r}")
    if not 0 <= args.window_lo < args.window_hi <= args.pml_start < args.length:
        args.error("need 0 <= --window-lo < --window-hi <= --pml-start < --length, got "
                   f"{args.window_lo!r}, {args.window_hi!r}, {args.pml_start!r}, {args.length!r}")


def _check_pic(args) -> None:
    """Refuse a charge over tau that overflows, which makes every residual NaN."""
    if not math.isfinite(args.charge / args.tau):
        args.error(f"--charge/--tau must be a finite ratio, got {args.charge!r}/{args.tau!r}")


def _add_mesh_arg(p):
    p.add_argument("--mesh", required=True, help="path to a declat-mesh file")


def _add_material_args(p):
    p.add_argument("--eps", type=_POSITIVE, default=1.0, help="uniform permittivity")
    p.add_argument("--mu", type=_POSITIVE, default=1.0, help="uniform permeability")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` and a newline to the file ``out``, or print it."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_genmesh(args) -> int:
    kind = args.kind
    if kind == "tet1":
        mesh = generators.single_tet()
    elif kind == "kuhn":
        mesh = generators.kuhn_cube()
    elif kind == "box":
        mesh = generators.box_mesh(args.n, args.ny, args.nz, lengths=(args.lx, args.ly, args.lz))
    else:
        mesh = generators.annulus_mesh(args.segments)
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
    materials = MaterialMap(eps=args.eps, mu=args.mu)
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
    materials = MaterialMap(eps=args.eps, mu=args.mu)
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
    level = args.hodge_inverse
    codiff = exact if level is None else DiscreteCodifferential(ops, level)
    _, _, trace = leapfrog_run(codiff, dt, args.steps, E0, B0, trace_every=args.trace_every)
    write_trace(trace, args.out)
    drift = trace.drift_per_step()
    drift = "not measured (too few trace rows)" if math.isnan(drift) else f"{drift:.3e}"
    print(f"wrote {args.out}: {args.steps} steps at dt={float(dt)!r} "
          f"(bound {float(bound)!r}); invariant drift/step {drift}")
    return 0


def cmd_eigen(args) -> int:
    materials = MaterialMap(eps=args.eps, mu=args.mu)
    mesh = load_mesh(args.mesh)
    cls = classify_boundary(mesh)
    report = dof_audit(mesh, cls)  # refuses a disconnected mesh before the solve
    res = eigenmodes(apply_pec(mesh, cls, materials), count=args.count, sigma=args.sigma)
    # The counts rest on the dof report's ranks: unproved ranks prove no count.
    proved = report.rank_certified
    payload = {
        "schema": "declat-eigen-2",
        "k2": [float(v) for v in res.k2],
        "zero_mode_count_computed": res.zero_count,
        "zero_mode_count_certified": report.interior_counts["N_V_h"] + report.harmonic_1
        if proved else None,
        "nonzero_mode_count_certified": report.theta_E if proved else None,
        "rank_certified": proved,
        "notes": report.notes,
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
    rows = reflection_sweep(
        args.nx, args.nz, args.length, args.omega_factor * np.pi, args.omega_maxes,
        pml_start=args.pml_start, source_z=args.source_z,
        sample_z=np.linspace(args.window_lo, args.window_hi, 49),
    )
    write_sweep(rows, args.out)
    print(f"wrote {args.out}")
    for r in rows:
        print(f"  omega_max={r.omega_max_profile:g} |R|={r.reflection_mag:.4e}")
    return 0


def cmd_pic(args) -> int:
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
    p.add_argument("--n", type=_COUNT, default=3)
    p.add_argument("--ny", type=_COUNT, default=None)
    p.add_argument("--nz", type=_COUNT, default=None)
    p.add_argument("--lx", type=_POSITIVE, default=1.0)
    p.add_argument("--ly", type=_POSITIVE, default=1.0)
    p.add_argument("--lz", type=_POSITIVE, default=1.0)
    p.add_argument("--segments", type=_SEGMENTS, default=8)
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
    p.add_argument("--dt", type=_POSITIVE, default=None)
    p.add_argument("--dt-factor", type=_POSITIVE, default=0.9,
                   help="fraction of the stability bound when --dt is omitted")
    p.add_argument("--steps", type=_COUNT, default=1000)
    p.add_argument("--hodge-inverse", type=_INVERSE, default="exact",
                   help="'exact', 'spai' or 'spai:<level>'")
    p.add_argument("--init", default="random", choices=["random", "zero"])
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--trace-every", type=_COUNT, default=1)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("eigen", help="curl-curl eigenvalues and mode counts")
    _add_mesh_arg(p)
    _add_material_args(p)
    p.add_argument("--count", type=_COUNT, default=8)
    p.add_argument("--sigma", type=_FINITE, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("dof", help="degree-of-freedom audit report")
    _add_mesh_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dof)

    p = sub.add_parser("pml", help="absorbing-layer reflection sweep")
    p.add_argument("--sweep", action="store_true", required=True)
    p.add_argument("--nx", type=_COUNT, default=4)
    p.add_argument("--nz", type=_COUNT, default=24)
    p.add_argument("--length", type=_POSITIVE, default=6.0)
    p.add_argument("--omega-factor", type=_ABOVE_ONE, default=1.4,
                   help="angular frequency in units of the cutoff pi")
    p.add_argument("--omega-maxes", type=_RATES, default="0,2,4,8,12,16")
    p.add_argument("--pml-start", type=_POSITIVE, default=4.5)
    p.add_argument("--source-z", type=_POSITIVE, default=0.625)
    p.add_argument("--window-lo", type=_FINITE, default=1.2)
    p.add_argument("--window-hi", type=_FINITE, default=4.2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pml, check=_check_pml, error=p.error)

    p = sub.add_parser("pic", help="charge-conservation check on random paths")
    p.add_argument("--mesh", default=None)
    p.add_argument("--paths", type=_COUNT, default=10000)
    p.add_argument("--seed", type=_SEED, default=7)
    p.add_argument("--charge", type=_FINITE, default=1.0)
    p.add_argument("--tau", type=_POSITIVE, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pic, check=_check_pic, error=p.error)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "check" in args:  # rules between two flags, refused like one flag's: exit 2
        args.check(args)
    try:
        return args.fn(args)
    except MeshError as err:  # a refused mesh: exit 1 with its message
        raise SystemExit(f"declat {args.command}: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
