"""declat benchmark: one workload per run, or all four with ``--workload all``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cavity --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

The run imports declat from ``src/`` of the checkout that holds this file
(and fails with exit code 2 if it is not there), writes its seeded inputs
under ``.bench_work/``, sets up and runs the workload once untimed, then
repeats it on the same inputs for ``--seconds`` seconds, with set-ups
between the iterations.  Each call into declat is timed on its own, and
its outputs are checked after the iteration, untimed.  BLAS and OpenMP
pools are pinned to one thread before numpy loads.

Every time reported is *scaled*: a call's wall time times ``REF_SECONDS``
over the mean time of a fixed reference kernel run just before, during
(from a timer signal) and just after it (:mod:`perfbench.reference`).
The host's speed changed by up to 1.6x from run to run and within runs;
the scale cancels that, and leaves changes to declat as they are.  The
unscaled median is printed too.

``--trace 0`` reports the end-to-end metrics:

* ``total_s``: time of one iteration's calls into declat, median over the
  run's iterations;
* ``setup_s``: mesh file to ready inputs (load, classify, basis, assembly,
  PEC reduction where the workload uses them), median of set-ups spread
  over the run;
* ``peak_rss_mb``: peak resident set of this (fresh) process;
* ``ops_per_s``: throughput of the workload's unit operation (cavity:
  leapfrog step, spai: one level's trajectory comparison, audit: audit +
  dof on all four meshes, particles: one deposited path).

The summary lines above the JSON also give the median operation time
(``path_ms_p50`` on particles) and ``failed_frac``.

``--trace 1`` alternates traced and untraced iterations (at least two
traced ones, so that the exact-match counts of :data:`perfbench.layers.EXACT`
are compared) and reports the per-layer metrics of
:mod:`perfbench.layers` (means per traced iteration) plus
``trace.overhead_s`` (traced minus untraced mean ``total_s``); it also
writes every span (id, name, parent, start, end), each call's scale, the
counters and the per-layer values to
``.bench_work/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only if
every check passed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_SHARE = 0.05  # set-ups after each iteration: at least one, and this share of its time


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _src_error() -> str | None:
    src = ROOT / "src"
    if not (src / "declat" / "__init__.py").is_file():
        return f"no declat sources under {src}"
    return None


def _import_declat() -> str | None:
    """Put this checkout's ``src`` first on the path; return an error or None."""
    err = _src_error()
    if err:
        return err
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import declat.cli  # noqa: F401  (loads every module the patches rebind)

    if Path(declat.__file__).resolve().parent != (src / "declat").resolve():
        return f"imported declat from {declat.__file__}, not from {src}"
    return None


def load_spec() -> dict:
    """BENCHMARK.json, checked against the workloads and layers defined here."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from perfbench/workloads.py")
    if {m["name"] for m in spec["per_layer"]} != set(layers.MOVES):
        raise ValueError("BENCHMARK.json per_layer differs from perfbench/layers.py MOVES")
    return spec


def iteration(wl, ref: Reference, tracer: Tracer, only) -> dict:
    """Run one iteration's calls, each a root span, with a reference pass after each.

    Returns the span range, each call's ``(first span, end span, scale)``,
    the iteration's scaled seconds and its operations ``(scaled seconds,
    units)``.  The outputs are checked after the last call, untimed.
    """
    lo, counts, outputs, calls = len(tracer.spans), tracer.counts.copy(), [], []
    spans = tracer.spans
    tracer.gauges.clear()
    tracer.install(layers.patches(tracer, only))
    try:
        ref.sample()
        for fn in wl.calls():
            first = len(spans)
            outputs.append(tracer.wrap(fn, layers.ROOT)())
            ref.sample()
            calls.append((first, len(spans), ref.scale(spans[first][2], spans[first][3])))
    finally:
        tracer.uninstall()
    gauges = {k: list(v) for k, v in tracer.gauges.items()}
    wl.check(outputs, gauges)

    seconds = sum((spans[a][3] - spans[a][2]) * f for a, _, f in calls)
    if wl.op_span is None:
        ops = [(seconds, 1)]
    else:
        ops = [((end - start) * f, wl.op_units)
               for a, b, f in calls for name, _, start, end in spans[a:b] if name == wl.op_span]
    return {"span_range": (lo, len(spans)), "calls": calls, "seconds": seconds, "ops": ops,
            "raw_seconds": sum(spans[a][3] - spans[a][2] for a, _, _ in calls),
            "counts": tracer.counts - counts, "gauges": gauges}


def measure(wl, seconds: float, trace: bool):
    """Set up, then iterate for ``seconds``; return scaled set-up times and iterations.

    With ``trace``, iterations alternate traced (every patch, into one
    tracer whose spans are kept) and untraced (only the patch of the unit
    operation, into a throwaway tracer), starting with a traced one.
    """
    setups = []
    with Reference() as ref:

        def set_up(budget: float) -> None:
            spent = 0.0
            ref.sample()
            while True:
                t0 = ref.clock()
                wl.setup()
                t1 = ref.clock()
                ref.sample()
                spent += t1 - t0
                setups.append((t1 - t0) * ref.scale(t0, t1))
                if spent >= budget:
                    return

        # One untimed set-up and iteration first: the first pass through a
        # workload in a fresh process ran 10-20% slower (imports, memory
        # first touched).  The warm-up iteration is checked like any other.
        wl.setup()
        only = {wl.op_span} - {None}
        iteration(wl, ref, Tracer(ref.clock), only)
        tracer = Tracer(ref.clock)
        iters = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(iters) % 2 == 0
            rec = iteration(wl, ref, tracer if traced else Tracer(ref.clock),
                            None if traced else only)
            rec["traced"] = traced
            iters.append(rec)
            # Set-ups between iterations, so that setup_s samples the whole run.
            set_up(SETUP_SHARE * rec["raw_seconds"])
            n_traced = sum(r["traced"] for r in iters)
            enough = (len(iters) - n_traced >= (1 if trace else 2)
                      and n_traced >= (2 if trace else 0))
            est = statistics.median(r["raw_seconds"] for r in iters)
            if enough and time.perf_counter() + est > deadline:
                break
    return setups, iters, tracer


def end_to_end(spec, setups, iters) -> dict:
    plain = [r for r in iters if not r["traced"]]
    ops = [op for r in plain for op in r["ops"]]
    values = {
        "total_s": statistics.median(r["seconds"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": sum(u for _, u in ops) / sum(s for s, _ in ops),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec, wl, iters, tracer, trace_path: Path) -> dict:
    traced = [r for r in iters if r["traced"]]
    plain = [r for r in iters if not r["traced"]]
    names = [m["name"] for m in spec["per_layer"]]
    spans = tracer.spans
    for r in traced:
        lo, hi = r["span_range"]
        scale = [1.0] * (hi - lo)
        for a, b, f in r["calls"]:
            scale[a - lo:b - lo] = [f] * (b - a)
        r["layer"] = layers.iteration_metrics(spans, lo, hi, r["counts"], r["gauges"],
                                              names, scale)
    values = {name: sum(r["layer"].get(name, 0) for r in traced) / len(traced) for name in names}
    for name in layers.EXACT:
        seen = {r["layer"].get(name, 0) for r in traced}
        wl.expect(len(seen) == 1, f"{name} did not repeat exactly: {sorted(seen)}")
    path_ms = [1e3 * (end - start) * f
               for r in traced for a, b, f in r["calls"]
               for name, _, start, end in spans[a:b] if name == "pic.verify_conservation"]
    if len(path_ms) >= 2:
        cuts = statistics.quantiles(path_ms, n=100)
        values["pic.verify_conservation.p50_ms"] = cuts[49]
        values["pic.verify_conservation.p99_ms"] = cuts[98]
    traced_total = statistics.mean(r["seconds"] for r in traced)
    untraced_total = statistics.mean(r["seconds"] for r in plain)
    values["trace.overhead_s"] = traced_total - untraced_total

    self_sum = sum(values[f"{m}.self_s"] for m in layers.MODULES) + values["bench.unattributed_s"]
    print(f"  accounting: traced total_s {traced_total:.6f} = sum of self times {self_sum:.6f}"
          f" = untraced total_s {untraced_total:.6f} + overhead {values['trace.overhead_s']:.6f}")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "schema": "declat-perfbench-trace-2",
        "workload": wl.name,
        "seed": wl.seed,
        "iterations": {"traced": len(traced), "untraced": len(plain)},
        "span_fields": ["id", "name", "parent", "start_s", "end_s"],
        "spans": tracer.to_json_spans(),
        "call_fields": ["first_span", "end_span", "scale"],
        "calls": [list(c) for r in traced for c in r["calls"]],
        "counts": dict(tracer.counts),
        "per_layer": {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                  "moves": layers.MOVES[m["name"]],
                                  "exact": m["name"] in layers.EXACT}
                      for m in spec["per_layer"]},
        "untraced_total_s": untraced_total,
        "traced_total_s": traced_total,
    }) + "\n")
    print(f"  spans and counts written to {trace_path.relative_to(ROOT)}")
    out = {}
    for m in spec["per_layer"]:
        v = values[m["name"]]
        out[m["name"]] = {"value": int(v) if m["unit"] == "count" and v == int(v) else v,
                          "unit": m["unit"]}
    return out


def run_one(args) -> int:
    err = _import_declat()
    if err:
        return _fail(err)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"BENCHMARK.json: {exc}")

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    metrics = {}
    try:
        wl.make_inputs()
        setups, iters, tracer = measure(wl, args.seconds, bool(args.trace))
        plain = [r for r in iters if not r["traced"]]
        print(f"workload {wl.name} seed {wl.seed}: {len(setups)} set-ups, "
              f"{len(plain)} untraced + {len(iters) - len(plain)} traced iterations")
        print("  iteration seconds (scaled): " + " ".join(
            f"{r['seconds']:.4f}{'T' if r['traced'] else ''}" for r in iters))
        if args.trace:
            trace_path = ROOT / ".bench_work" / f"trace-{wl.name}-seed{wl.seed}.json"
            metrics = per_layer(spec, wl, iters, tracer, trace_path)
        else:
            metrics = end_to_end(spec, setups, iters)
            ops = [op for r in plain for op in r["ops"]]
            print(f"  {wl.op_names[1]} {statistics.median(1e3 * s / u for s, u in ops):.6g} ms"
                  " (median operation time)")
            print("  unscaled total_s {:.6g} s; median scale {:.4f}".format(
                statistics.median(r["raw_seconds"] for r in plain),
                statistics.median(f for r in plain for _, _, f in r["calls"])))
    except Exception:  # a raising workload is a failed operation, reported below
        wl.expect(False, traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_summary(wl, metrics)
    correct = wl.failed == 0
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_summary(wl, metrics) -> None:
    for name, m in metrics.items():
        label = f"{name} ({wl.op_names[0]})" if name == "ops_per_s" else name
        print(f"  {label:<44} {m['value']:.6g} {m['unit']}")
    frac = wl.failed / wl.attempted if wl.attempted else 0.0
    print(f"  failed_frac {frac:.6g} ({wl.failed} of {wl.attempted} checked operations)")
    for note in wl.notes:
        print(f"  FAILED: {note}")


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric; nonzero on any failure."""
    err = _src_error()
    if err:
        return _fail(err)
    worst = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False}
        if proc.returncode or not summary[name].get("correct"):
            worst = max(worst, proc.returncode, 1)
    print(json.dumps({"correct": worst == 0, "workloads": summary}))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
