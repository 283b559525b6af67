"""crossview benchmark: multi-view sampling with consistency blocks, and training.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sample-blocks --seed 0 --seconds 50 --trace 0

Workloads (defined in ``perfbench/workloads.json``, run config in
``perfbench/run_config.txt`` with the seed replaced by ``--seed``):

* ``sample-blocks``: closed loop, one client; each request samples one
  eval object with trained blocks attached and scores it.
* ``train``: closed loop of optimizer steps, ``pretrain_backbone`` then
  ``train_blocks`` per round.

``--trace 0`` measures end-to-end metrics with tracing off. ``--trace 1``
runs a fixed number of cycles twice, untraced and then traced, and
reports per-function span times, computed counts and the tracing
overhead (traced minus untraced); spans are written to
``.bench_work/trace-<workload>-seed<seed>.jsonl``. ``--repeat K`` runs the
workload K times in fresh processes with seeds ``seed .. seed+K-1`` and
prints the median, quartiles and spread of every end-to-end metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it name every
metric with its unit, including the workload-specific ones that are not
gated (stage step medians, quality scores, failed share).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Gated metrics, reported on every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "view_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Computed counts of the traced run: metric name -> (span name, count, unit).
COUNTS = {
    "engine.conv2d.gflop": ("engine.conv2d", "gflop", "GFLOP-computed"),
    "engine.conv3d.gflop": ("engine.conv3d", "gflop", "GFLOP-computed"),
    "engine.matmul.gflop": ("engine.matmul", "gflop", "GFLOP-computed"),
    "engine.backward.nodes": ("engine.backward", "nodes", "count"),
    "tensorio.save_tensor.mb": ("tensorio.save_tensor", "mb", "MB"),
    "tensorio.save_checkpoint.mb": ("tensorio.save_checkpoint", "mb", "MB"),
}
# Deterministic for a given seed; reported, not gated.
QUALITY_UNITS = {
    "psnr_db": "dB",
    "ssim": "index",
    "ms_ssim": "index",
    "reproj_rmse": "rgb",
    "backbone_loss_final": "mse",
    "block_loss_final": "mse",
}
SHARES = ("geometry.unproject_features", "geometry.warp_to_frustum")
SPAN_FIELDS = {"s": "s", "self_s": "s", "calls": "count", "failed": "count"}
OVERHEAD = {
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.latency_p50_delta_s": "s",
}


def tail(values):
    """(value, percentile) of the highest rank with at least ten samples beyond it."""
    if len(values) < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {len(values)}")
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values):
    """Median, quartiles and interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def per_layer_names():
    from tracing import TARGETS

    names = {}
    for span, _, _, _ in TARGETS:
        for field, unit in SPAN_FIELDS.items():
            names[f"{span}.{field}"] = unit
    for name, (_, _, unit) in COUNTS.items():
        names[name] = unit
    for span in SHARES:
        names[f"{span}.valid_share"] = "ratio"
    names.update(OVERHEAD)
    return names


def machine_facts():
    """nproc, numpy and BLAS versions, and the BLAS thread count in use."""
    import ctypes

    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def emit(name, value, unit, note=""):
    print(f"metric {name} {value!r} {unit}{'  ' + note if note else ''}")


def end_to_end(out, setup_times, kind, sample_steps):
    lat_tail, pct = tail(out.latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(out.latencies),
        "latency_tail_s": lat_tail,
        "view_steps_per_s": statistics.median(out.cycle_rates),
        "peak_rss_mb": _peak_rss_mb(),
    }
    unit_of = "request" if kind == "sample" else "optimizer step"
    work = f"views x {sample_steps} DDIM steps" if kind == "sample" else "view samples"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "latency_p50_s": f"median over {len(out.latencies)} {unit_of}s",
        "latency_tail_s": f"p{pct:.1f} over {len(out.latencies)} {unit_of}s, 10 beyond",
        "view_steps_per_s": f"{work} per busy second, median over "
                            f"{len(out.cycle_rates)} cycles",
    }
    for name, unit in END_TO_END.items():
        emit(name, values[name], unit, notes.get(name, ""))
    # Workload-specific metrics, reported but not gated.
    if kind == "train":
        emit("train_view_samples_per_s", values["view_steps_per_s"], "1/s")
        for stage, name in (("backbone", "backbone_step_p50_s"), ("blocks", "block_step_p50_s")):
            emit(name, statistics.median(out.stages[stage]), "s",
                 f"median over {len(out.stages[stage])} steps")
    for name, vals in out.quality.items():
        emit(name, statistics.fmean(vals), QUALITY_UNITS[name], f"mean over {len(vals)}")
    return values


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def per_layer(tracer, untraced, traced):
    from tracing import summarize

    summary = summarize(tracer)
    values = {}
    for name in per_layer_names():
        span, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            values[name] = summary.get(span, {}).get(field, 0)
    for name, (span, key, _) in COUNTS.items():
        values[name] = tracer.counts.get((span, key), 0.0)
    for span in SHARES:
        tokens = tracer.counts.get((span, "tokens"), 0.0)
        values[f"{span}.valid_share"] = (tracer.counts.get((span, "valid"), 0.0) / tokens
                                         if tokens else 0.0)
    values["trace.overhead_s"] = traced.busy_s - untraced.busy_s
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced.busy_s
    values["trace.latency_p50_delta_s"] = (statistics.median(traced.latencies)
                                          - statistics.median(untraced.latencies))
    return values


def trace_problems(workload, spec, values):
    """Layers that must do no work on this workload."""
    idle = []
    if spec["kind"] == "sample":
        idle += ["engine.backward", "optim.AdamW.step"]
    return [f"{span} ran {values[span + '.calls']} times on {workload}"
            for span in idle if values[span + ".calls"]]


def run(args, bench):
    from crossview.config import load_config
    from crossview.train import load_model

    import checks
    import workloads
    from tracing import Tracer, installed

    spec = bench["workloads"][args.workload]
    cfg = load_config(os.path.join(BENCH_DIR, bench["config_file"]), seed=args.seed)
    facts = machine_facts()
    print("machine " + " ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"workload {args.workload} loop {spec['loop']} clients {spec['clients']} "
          f"seed {args.seed} config_hash {cfg.content_hash()} "
          f"(seed-0 hash {bench['config_hash_seed0']})")
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        reps = 1 if args.trace else bench["setup_repeats"]
        setup_times = []
        for r in range(reps):
            t0 = time.perf_counter()
            art = workloads.setup(cfg, os.path.join(work, f"setup-{r}"))
            model = None
            if spec["kind"] == "sample" and not args.trace:
                model = load_model(art.blocks_dir, cfg, with_blocks=spec["with_blocks"])
            setup_times.append(time.perf_counter() - t0)
        for r in range(reps - 1):
            shutil.rmtree(os.path.join(work, f"setup-{r}"))
        # Run-level checks count as operations: one that finds a problem fails.
        run_checks = workloads.setup_checks(art)

        def one_pass(tracer=None, **limits):
            if spec["kind"] == "sample":
                return workloads.run_sampling(cfg, spec, args.seed, art, model,
                                              os.path.join(work, "gen"), tracer=tracer,
                                              **limits)
            out_root = os.path.join(work, "rounds")
            out = workloads.run_training(cfg, art, out_root, tracer=tracer, **limits)
            run_checks.append(checks.check_frozen_backbone(
                os.path.join(out_root, "backbone"), os.path.join(out_root, "blocks")))
            return out

        if spec["kind"] == "sample":
            params = load_model(art.blocks_dir, cfg, with_blocks=False)[0]
            first = next(workloads.cycles(spec, args.seed, art.eval_reader))[0]
            obj = workloads.subset_views(art.eval_reader.load_object(first.position),
                                         min(spec["views"]))
            run_checks.append(checks.check_identity(cfg, params, obj, first.seed))

        if args.trace:
            k = spec["trace_cycles"]
            untraced = one_pass(seconds=0, min_cycles=k, max_cycles=k)
            tracer = Tracer()
            with installed(tracer):
                traced = one_pass(tracer=tracer, seconds=0, min_cycles=k, max_cycles=k)
            os.makedirs(WORK, exist_ok=True)
            span_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_path)
            print(f"spans {len(tracer.names)} written to {span_path}")
            values = per_layer(tracer, untraced, traced)
            units = per_layer_names()
            for name, value in values.items():
                emit(name, value, units[name])
            run_checks.append(trace_problems(args.workload, spec, values))
            outs = (untraced, traced)
        else:
            out = one_pass(seconds=args.seconds, min_cycles=spec["min_cycles"])
            values = end_to_end(out, setup_times, spec["kind"], cfg.sample_steps)
            outs = (out,)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(o.attempted for o in outs) + len(run_checks)
    failed = sum(o.failed for o in outs) + sum(1 for p in run_checks if p)
    problems = [p for ps in run_checks for p in ps] + [p for o in outs for p in o.problems]
    emit("failed_share", failed / attempted, "ratio",
         f"{failed} failed of {attempted}: requests or steps, and "
         f"{len(run_checks)} run-level checks")
    for p in problems[:20]:
        print(f"check failed: {p}")
    print(f"checks {'passed' if not problems else f'{len(problems)} problems'}; "
          f"cycles {[o.cycles for o in outs]}")
    units = END_TO_END if not args.trace else per_layer_names()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def repeat(args):
    """Steadiness mode: K fresh runs, then median, quartiles and spread per metric."""
    bounds = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json, encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"run seed {args.seed + i} wall {time.perf_counter() - t0:.1f}s "
              f"correct {result['correct']} attempted {result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()))
    for name in END_TO_END:
        med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        print(f"steady {name} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f}"
              + (f" bound {bound} ({'ok' if sp < bound / 3 else 'WIDE'})" if bound else ""))
    print(f"all correct: {all(r['correct'] for r in runs)}")
    return 0


def main(argv=None):
    with open(os.path.join(BENCH_DIR, "workloads.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run K times and print quartiles")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crossview", "__init__.py")):
        print(f"error: no crossview sources under {SRC}", file=sys.stderr)
        return 3
    if args.repeat:
        return repeat(args)
    # One single-threaded process, as one serving worker per core would run.
    # The GEMMs here are too small to gain from a second BLAS thread, and a
    # spinning second thread makes timings depend on other load on the host.
    # BLAS reads these when numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import crossview

    if os.path.dirname(os.path.dirname(os.path.abspath(crossview.__file__))) != SRC:
        print(f"error: crossview imported from {crossview.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    return run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
