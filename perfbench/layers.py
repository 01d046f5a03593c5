"""Which declat names are traced, and the per-layer metrics built from them.

Layers are declat's modules.  Each traced name becomes a span called
``<module>.<name>``; ``verify_conservation`` also keeps each path's
residual, for the particles check; ``WhitneyBasis.bary`` is only counted
(it runs ~70 times per particle path, so a span each would swamp what it
measures).  ``generators`` only makes inputs and is never traced.

``MOVES`` maps every per-layer metric of ``BENCHMARK.json`` to the
end-to-end metric and workload it should move; a group stays flat on the
workloads that bypass it.  ``EXACT`` names the counts that must repeat
exactly from one iteration to the next on the same input.
"""

from __future__ import annotations

from .tracer import Patch, Tracer

MODULES = ("mesh", "whitney", "dual", "hodge", "maxwell", "pic", "audit", "dof", "exact", "cli")

# target -> span name.  Targets are ``module:attribute`` (``Class.method``).
SPANS = {
    "declat.cli:main": "cli.main",
    "declat.mesh:load_mesh": "mesh.load_mesh",
    "declat.mesh:classify_boundary": "mesh.classify_boundary",
    "declat.mesh:SimplicialComplex.tet_neighbors": "mesh.tet_neighbors",
    "declat.mesh:SimplicialComplex.vertex_components": "mesh.vertex_components",
    "declat.whitney:WhitneyBasis.__init__": "whitney.WhitneyBasis",
    "declat.whitney:WhitneyBasis.locate": "whitney.locate",
    "declat.whitney:interpolate_at_points": "whitney.interpolate_at_points",
    "declat.dual:DualComplex.__init__": "dual.DualComplex",
    "declat.hodge:assemble_hodge": "hodge.assemble_hodge",
    "declat.hodge:check_spd": "hodge.check_spd",
    "declat.maxwell:apply_pec": "maxwell.apply_pec",
    "declat.maxwell:stable_timestep": "maxwell.stable_timestep",
    "declat.maxwell:leapfrog_run": "maxwell.leapfrog_run",
    "declat.maxwell:ampere_step": "maxwell.ampere_step",
    "declat.maxwell:hamiltonian": "maxwell.hamiltonian",
    "declat.maxwell:compare_inverse_modes": "maxwell.compare_inverse_modes",
    "declat.maxwell:write_trace": "maxwell.write_trace",
    "declat.pic:scatter_current": "pic.scatter_current",
    "declat.audit:run_full_audit": "audit.run_full_audit",
    "declat.audit:audit_first_kind": "audit.audit_first_kind",
    "declat.audit:audit_second_kind": "audit.audit_second_kind",
    "declat.audit:audit_hodge": "audit.audit_hodge",
    "declat.dof:dof_audit": "dof.dof_audit",
    "declat.exact:integer_rank": "exact.integer_rank",
    "declat.exact:gf2_rank": "exact.gf2_rank",
    "declat.exact:grounded_components": "exact.grounded_components",
}


def _spai_level(args, kwargs) -> int:
    pattern = args[1] if len(args) > 1 else kwargs.get("pattern", 0)
    return int(getattr(pattern, "level", pattern))


def patches(tracer: Tracer, only=None) -> list[Patch]:
    """Fresh patches that feed ``tracer``: all of them, or those whose span is in ``only``."""
    made = {name: Patch(t, lambda fn, n=name: tracer.wrap(fn, n)) for t, name in SPANS.items()}
    made["maxwell.splu"] = Patch(
        "declat.maxwell:splu",
        lambda fn: tracer.factoriser(fn, "maxwell.splu", "maxwell.lu_solve", "maxwell.lu_fill"),
        scope="module",
    )
    made["hodge.spai_inverse"] = Patch(
        "declat.hodge:spai_inverse",
        lambda fn: tracer.gauge_result(
            fn,
            lambda a, k: f"hodge.spai_inverse.L{_spai_level(a, k)}",
            lambda a, k, res: {f"hodge.spai_inverse.L{_spai_level(a, k)}.residual": res[1]},
        ),
    )
    made["pic.verify_conservation"] = Patch(
        "declat.pic:verify_conservation",
        lambda fn: tracer.gauge_result(fn, "pic.verify_conservation",
                                       lambda a, k, res: {"pic.verify_conservation.residual": res}),
    )
    made["whitney.bary"] = Patch("declat.whitney:WhitneyBasis.bary",
                                 lambda fn: tracer.counter(fn, "whitney.bary.calls"))
    return [p for name, p in made.items() if only is None or name in only]


SETUP_CAVITY = "setup_s on cavity"
TOTAL_CAVITY = "total_s and peak_rss_mb on cavity"
STEP_CAVITY = "ops_per_s (steps/s) on cavity"
TOTAL_SPAI = "total_s on spai"
TOTAL_AUDIT = "total_s on audit"
PATH_PARTICLES = "ops_per_s (paths/s) on particles"

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "mesh.load_mesh.s": SETUP_CAVITY,
    "mesh.classify_boundary.s": SETUP_CAVITY,
    "whitney.WhitneyBasis.s": SETUP_CAVITY,
    "hodge.assemble_hodge.s": SETUP_CAVITY,
    "maxwell.apply_pec.s": SETUP_CAVITY,
    "mesh.tet_neighbors.s": "setup_s on particles",
    "maxwell.stable_timestep.s": TOTAL_CAVITY,
    "maxwell.stable_timestep.solves": TOTAL_CAVITY,
    "maxwell.splu.s": TOTAL_CAVITY,
    "maxwell.splu.calls": TOTAL_CAVITY,
    "maxwell.lu_fill": TOTAL_CAVITY,
    "maxwell.lu_solve.s": STEP_CAVITY,
    "maxwell.lu_solve.calls": STEP_CAVITY,
    "maxwell.ampere_step.s": STEP_CAVITY,
    "maxwell.hamiltonian.s": STEP_CAVITY,
    "maxwell.hamiltonian.calls": STEP_CAVITY,
    "maxwell.leapfrog_run.self_s": STEP_CAVITY,
    "maxwell.write_trace.s": TOTAL_CAVITY,
    "hodge.spai_inverse.L1.s": TOTAL_SPAI,
    "hodge.spai_inverse.L2.s": TOTAL_SPAI,
    "hodge.spai_inverse.L3.s": TOTAL_SPAI,
    "hodge.spai_inverse.L1.residual": TOTAL_SPAI,
    "hodge.spai_inverse.L2.residual": TOTAL_SPAI,
    "hodge.spai_inverse.L3.residual": TOTAL_SPAI,
    "maxwell.compare_inverse_modes.self_s": TOTAL_SPAI,
    "exact.integer_rank.s": TOTAL_AUDIT,
    "exact.integer_rank.calls": TOTAL_AUDIT,
    "exact.gf2_rank.s": TOTAL_AUDIT,
    "exact.grounded_components.s": TOTAL_AUDIT,
    "mesh.vertex_components.s": TOTAL_AUDIT,
    "audit.audit_first_kind.s": TOTAL_AUDIT,
    "audit.audit_second_kind.s": TOTAL_AUDIT,
    "audit.audit_hodge.s": TOTAL_AUDIT,
    "hodge.check_spd.s": TOTAL_AUDIT,
    "dual.DualComplex.s": TOTAL_AUDIT,
    "dof.dof_audit.s": TOTAL_AUDIT,
    "pic.verify_conservation.s": PATH_PARTICLES,
    "pic.verify_conservation.p50_ms": PATH_PARTICLES,
    "pic.verify_conservation.p99_ms": PATH_PARTICLES,
    "pic.scatter_current.s": PATH_PARTICLES,
    "whitney.locate.s": PATH_PARTICLES,
    "whitney.locate.calls": PATH_PARTICLES,
    "whitney.bary.calls": PATH_PARTICLES,
    "whitney.interpolate_at_points.s": "total_s on particles",
    "cli.main.s": "total_s on cavity, audit and particles",
    **{f"{m}.self_s": "total_s on every workload that calls the layer" for m in MODULES},
    "bench.unattributed_s": "nothing: time outside every traced name",
    "trace.overhead_s": "nothing: traced minus untraced total_s",
    "trace.spans": "nothing: spans recorded, the source of the overhead",
}

EXACT = (
    "trace.spans",
    "maxwell.stable_timestep.solves",
    "maxwell.splu.calls",
    "maxwell.lu_fill",
    "maxwell.lu_solve.calls",
    "maxwell.hamiltonian.calls",
    "exact.integer_rank.calls",
    "whitney.locate.calls",
    "whitney.bary.calls",
    "hodge.spai_inverse.L1.residual",
    "hodge.spai_inverse.L2.residual",
    "hodge.spai_inverse.L3.residual",
)

ROOT = "bench.iteration"


def iteration_metrics(spans: list[list], lo: int, hi: int, counts, gauges, names,
                      scale: list[float]) -> dict:
    """The per-layer metrics ``names`` of one traced iteration: spans[lo:hi] and its counters.

    The iteration's calls into declat are the ``ROOT`` spans.  Self time is
    a span's duration minus that of its direct children, times the scale
    of its call (``scale[i - lo]``, see :mod:`perfbench.reference`), so the
    self times of all spans of an iteration add up to the iteration's
    scaled time.  A gauge's value is its mean over the iteration.
    """
    child = [0.0] * (hi - lo)
    for name, parent, start, end in spans[lo:hi]:
        if parent >= 0:
            child[parent - lo] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    solves_in_stable = 0
    for i in range(lo, hi):
        name, parent, start, end = spans[i]
        self_s[name] = self_s.get(name, 0.0) + ((end - start) - child[i - lo]) * scale[i - lo]
        calls[name] = calls.get(name, 0) + 1
        if name == "maxwell.lu_solve" and spans[parent][0] == "maxwell.stable_timestep":
            solves_in_stable += 1

    out = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if field in ("s", "self_s") and base in self_s:
            out[metric] = self_s[base]
        elif field == "calls" and base in calls:
            out[metric] = calls[base]
        elif metric in gauges:
            out[metric] = sum(gauges[metric]) / len(gauges[metric])
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(m + "."))
    out["maxwell.stable_timestep.solves"] = solves_in_stable
    out["bench.unattributed_s"] = self_s[ROOT]
    out["whitney.bary.calls"] = counts.get("whitney.bary.calls", 0)
    out["trace.spans"] = hi - lo
    return out
