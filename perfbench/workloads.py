"""The four benchmark workloads: seeded inputs, set-up, one iteration, checks.

Each workload writes its meshes as ``declat-mesh 1`` files (declat only
reads them), prepares its inputs in :meth:`Workload.setup` (timed apart as
``setup_s``), and repeats one *iteration* on the same inputs: the calls
into declat that :meth:`Workload.calls` lists, each timed on its own.  The
unit operation that gives ``ops_per_s`` and the median operation time is
a call of the traced name ``op_span``, worth ``op_units``, or, without
one, the whole iteration.  After the timed calls, :meth:`Workload.check`
checks their outputs through :meth:`Workload.expect`; each check counts
once as attempted and, if it fails, once as failed.

* ``cavity``: ``declat simulate`` with CLI defaults (exact inverse,
  ``trace_every=1``, dt = 0.9 x bound) but 2000 steps, on three seeded
  jittered n=6 boxes.  Operation: one leapfrog step (``leapfrog_run`` spans).
* ``spai``: the acceptance gate's ``compare_inverse_modes`` at SPAI levels
  1-3 on a seeded jittered n=4 box.  Operation: one level's comparison.
* ``audit``: ``declat audit`` then ``declat dof`` on kuhn, annulus8, a
  seeded jittered n=3 box and box4.  Operation: the four meshes' audit + dof.
* ``particles``: ``declat pic`` on a seeded jittered n=10 box, then
  ``interpolate_at_points`` at seeded points.  Operation: one path
  (``verify_conservation`` spans).

Left out: ``eigen`` (ARPACK's random start vector made identical input
take 7-60 s, and shift 0.95*2*pi^2 on a jittered n=10 box did not finish
in 500 s), ``pml`` (no open item touches it) and box20 meshes (a single
run takes minutes).  The cavity meshes are n=6, not n=10, and the time
loop runs 2000 steps, not the default 1000: the power iteration's solve
count varies with the jitter seed (888-1479 solves over three n=6
meshes), and with 1000 steps that alone moved total_s by up to 8% from
seed to seed; three meshes and the longer loop average it.  Audit keeps
box4, the mesh on which Bareiss elimination dominates.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import re
from pathlib import Path

import numpy as np


def _cli(argv: list[str]) -> int:
    """``declat.cli.main`` in-process, its stdout discarded."""
    from declat import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    op_names = ("", "")  # ops_per_s and the median operation time, as named here
    op_span: str | None = None  # the span of one operation; None: the iteration
    op_units = 1  # units of work in one operation

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def calls(self) -> list:
        """One iteration: argument-less calls into declat, in order."""
        raise NotImplementedError

    def check(self, outputs: list, gauges: dict[str, list]) -> None:
        """Check an iteration's outputs (what ``calls`` returned) and its tracer gauges."""
        raise NotImplementedError


class Cavity(Workload):
    name = "cavity"
    op_names = ("steps_per_s", "step_ms_p50")
    op_span = "maxwell.leapfrog_run"
    n, meshes, steps = 6, 3, 2000
    op_units = steps  # simulate makes one leapfrog_run call of --steps steps

    def make_inputs(self):
        from declat import generators
        from declat.mesh import write_mesh

        self.files = []
        for k in range(self.meshes):
            path = self.work / f"cavity{k}.mesh"
            write_mesh(generators.jittered_box_mesh(self.n, seed=1000 * self.seed + k), path)
            self.files.append(path)

    def setup(self):
        from declat.maxwell import apply_pec
        from declat.mesh import classify_boundary, load_mesh

        for path in self.files:
            mesh = load_mesh(path)
            apply_pec(mesh, classify_boundary(mesh))

    def calls(self):
        return [functools.partial(_cli, ["simulate", "--mesh", str(path), "--seed",
                                         str(self.seed + k), "--steps", str(self.steps),
                                         "--out", str(path.with_suffix(".csv"))])
                for k, path in enumerate(self.files)]

    def check(self, outputs, gauges):
        for path, rc in zip(self.files, outputs):
            self.expect(rc == 0, f"simulate {path.name} exited {rc}")
            self._check_trace(path.with_suffix(".csv"))

    def _check_trace(self, path: Path) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        steps = np.array([int(r["step"]) for r in rows], dtype=float)
        inv = np.array([float(r["H_invariant_J"]) for r in rows])
        divb = np.array([float(r["div_B_residual_rel"]) for r in rows])
        keep = steps > 0  # the step-0 invariant pairs B(0) with B(dt/2)
        drift = np.polyfit(steps[keep], inv[keep] / np.abs(inv[keep]).mean(), 1)[0]
        self.expect(len(rows) == self.steps + 1, f"{path.name}: {len(rows)} trace rows")
        self.expect(abs(drift) <= 1e-10, f"{path.name}: invariant drift {drift:.3e}/step")
        self.expect(float(divb.max()) <= 1e-12, f"{path.name}: div B {divb.max():.3e}")


class Spai(Workload):
    name = "spai"
    op_names = ("levels_per_s", "level_ms_p50")
    op_span = "maxwell.compare_inverse_modes"
    n, levels, steps = 4, (1, 2, 3), 200

    def make_inputs(self):
        from declat import generators
        from declat.mesh import write_mesh

        self.file = self.work / "spai.mesh"
        write_mesh(generators.jittered_box_mesh(self.n, seed=self.seed), self.file)

    def setup(self):
        from declat.maxwell import apply_pec
        from declat.mesh import classify_boundary, load_mesh

        mesh = load_mesh(self.file)
        self.ops = apply_pec(mesh, classify_boundary(mesh))

    def calls(self):
        from declat import maxwell

        def bound():
            self.dt_max = maxwell.stable_timestep(self.ops)

        def compare(level):
            return maxwell.compare_inverse_modes(self.ops, dt=0.5 * self.dt_max,
                                                 steps=self.steps, level=level,
                                                 dt_max=self.dt_max)

        return [bound] + [functools.partial(compare, level) for level in self.levels]

    def check(self, outputs, gauges):
        results = outputs[1:]
        for res in results:
            self.expect(res["within_envelope"],
                        f"level {res['level']}: divergence {res['max_divergence']:.3e} "
                        f"above envelope {res['max_envelope']:.3e}")
            self.expect(bool(np.all(np.isfinite(res["divergence"]))),
                        f"level {res['level']}: non-finite divergence")
        for a, b in zip(results, results[1:]):
            self.expect(b["residual"] <= a["residual"] + 1e-12,
                        f"residual rose from level {a['level']} ({a['residual']:.4e}) "
                        f"to {b['level']} ({b['residual']:.4e})")


class Audit(Workload):
    name = "audit"
    op_names = ("suites_per_s", "suite_ms_p50")
    # name -> first Betti number b1 (all are connected, with b2 = 0)
    genus = {"kuhn": 0, "annulus8": 1, "jittered3": 0, "box4": 0}

    def make_inputs(self):
        from declat import generators
        from declat.mesh import write_mesh

        meshes = {
            "kuhn": generators.kuhn_cube(),
            "annulus8": generators.annulus_mesh(8),
            "jittered3": generators.jittered_box_mesh(3, seed=self.seed),
            "box4": generators.box_mesh(4),
        }
        self.files = {}
        for name, mesh in meshes.items():
            self.files[name] = self.work / f"{name}.mesh"
            write_mesh(mesh, self.files[name])

    def setup(self):
        from declat.hodge import MaterialMap, assemble_hodge
        from declat.mesh import classify_boundary, load_mesh
        from declat.whitney import WhitneyBasis

        for path in self.files.values():
            mesh = load_mesh(path)
            classify_boundary(mesh)
            basis = WhitneyBasis(mesh)
            assemble_hodge(mesh, MaterialMap(), "eps", basis)
            assemble_hodge(mesh, MaterialMap(), "mu_inv", basis)

    # The meshes differ in cost by 500x, so the unit operation is the whole
    # suite (op_span None): a median over single meshes would be a middle mesh.

    def calls(self):
        out = []
        for name, path in self.files.items():
            out.append(functools.partial(_cli, ["audit", "--mesh", str(path), "--json",
                                                "--out", str(self.work / f"{name}.audit.json")]))
            out.append(functools.partial(_cli, ["dof", "--mesh", str(path), "--out",
                                                str(self.work / f"{name}.dof.json")]))
        return out

    def check(self, outputs, gauges):
        for k, name in enumerate(self.files):
            self._check(name, outputs[2 * k], outputs[2 * k + 1],
                        json.loads((self.work / f"{name}.audit.json").read_text()),
                        json.loads((self.work / f"{name}.dof.json").read_text()))

    def _check(self, name, rc_a, rc_d, audit, dof):
        self.expect(rc_a == 0 and audit["passed"], f"{name}: audit failed")
        self.expect(rc_d == 0 and dof["passed"], f"{name}: dof identities failed")
        self.expect(dof["rank_certified"] is True, f"{name}: rank not certified")
        # b0 from the audit's component check; relative harmonic dimensions
        # give b2 (h1_rel) and b1 (h2_rel) by Lefschetz duality.
        details = " ".join(c["detail"] for s in audit["sections"] for c in s["checks"])
        b0 = re.search(r"\bb0=(\d+)", details)
        h = dof["harmonic_dimensions"]
        betti = (int(b0.group(1)) if b0 else -1, h["h2_rel"], h["h1_rel"])
        expected = (1, self.genus[name], 0)
        self.expect(betti == expected, f"{name}: Betti {betti}, expected {expected}")


class Particles(Workload):
    name = "particles"
    op_names = ("paths_per_s", "path_ms_p50")
    op_span = "pic.verify_conservation"  # its span also gauges the path's residual
    n, paths, points = 10, 400, 400
    charge, tau = 1.0, 1.0

    def make_inputs(self):
        from declat import generators
        from declat.mesh import write_mesh

        self.file = self.work / "particles.mesh"
        write_mesh(generators.jittered_box_mesh(self.n, seed=self.seed), self.file)
        rng = np.random.default_rng(self.seed)
        self.at = 0.02 + 0.96 * rng.random((self.points, 3))
        self.field = rng.standard_normal(3)

    def setup(self):
        from declat.mesh import load_mesh
        from declat.whitney import Cochain, WhitneyBasis

        mesh = load_mesh(self.file)
        self.basis = WhitneyBasis(mesh)
        self.basis.neighbors  # point location needs the tet adjacency
        # De Rham cochain of a constant field: Whitney 1-forms reproduce it.
        tangents = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        self.cochain = Cochain(1, tangents @ self.field)

    def calls(self):
        from declat.whitney import interpolate_at_points

        return [
            functools.partial(_cli, ["pic", "--mesh", str(self.file), "--paths", str(self.paths),
                                     "--seed", str(self.seed), "--charge", repr(self.charge),
                                     "--tau", repr(self.tau), "--out", str(self.work / "pic.json")]),
            functools.partial(interpolate_at_points, self.basis, self.cochain, self.at),
        ]

    def check(self, outputs, gauges):
        rc, values = outputs
        residuals = gauges.get("pic.verify_conservation.residual", [])
        bound = 1e-12 * abs(self.charge / self.tau)
        report = json.loads((self.work / "pic.json").read_text())
        self.expect(rc == 0 and report["paths"] == self.paths, f"pic exited {rc}")
        self.expect(len(residuals) == self.paths, f"{len(residuals)} paths deposited")
        for residual in residuals:
            self.expect(residual <= bound, f"path residual {residual:.3e} > {bound:.1e}")
        self.expect(values.shape == (self.points, 3) and bool(np.all(np.isfinite(values))),
                    "interpolated values not finite")
        err = float(np.abs(values - self.field).max()) if values.shape == (self.points, 3) else np.inf
        self.expect(err <= 1e-9 * float(np.abs(self.field).max()),
                    f"constant field reproduced to {err:.3e}")


WORKLOADS = {w.name: w for w in (Cavity, Spai, Audit, Particles)}
