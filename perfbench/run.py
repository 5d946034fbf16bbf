"""Run one losscast benchmark workload and print its metrics.

    python3 perfbench/run.py --workload final-build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up its workload three times (``setup_s`` counts the imports, the
work a workload does once before its set-ups, and the median set-up), then
repeats whole rounds of the workload's ``losscast`` commands while another
round fits in ``--seconds``, checking each round's outputs. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced round, then
traced rounds, and reports the per-layer metrics. The last line of standard
output is the result as one JSON object. ``--workload all`` runs every
workload, each in a process of its own. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 3
# layer figures of the one-off set-up (the baseline fit) rather than of the rounds
ONCE_LAYERS = ("lawfit.fit_chinchilla.s", "lawfit.fit_chinchilla.calls")
NAMES = ("final-build", "curve-build", "query")

# per-command figures of the untraced report, and the cli layer of the traced one
COMMAND_METRICS = {
    "ingest_s": "s", "fit_s": "s", "train_neural_s": "s", "train_gbt_s": "s",
    "eval_s": "s", "curve_points_per_s": "points/s", "predict_neural_per_s": "configs/s",
    "predict_gbt_per_s": "configs/s", "sweep_neural_points_per_s": "points/s",
    "sweep_gbt_points_per_s": "points/s",
}


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "losscast", "cli.py")):
        print(f"perfbench: no losscast sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    env = environment()
    import workloads
    from tracing import Tracer

    import losscast
    if not os.path.abspath(losscast.__file__).startswith(src + os.sep):
        print(f"perfbench: imported losscast from {losscast.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    runner = workloads.Runner()
    setups = []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, runner)
        for _ in range(SETUPS):
            shutil.rmtree(wl.inputs, ignore_errors=True)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            mark = tracer.mark()
            tracer.install()
        t0 = time.perf_counter()
        wl.setup_once()
        once_s = import_s + time.perf_counter() - t0
        once_layers = None
        if tracer is not None:
            tracer.uninstall()
            once_layers = tracer.summary(mark)
        return measure(args, wl, runner, tracer, once_layers, workloads, env, once_s,
                       setups, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, runner, tracer, once_layers, workloads, env, once_s, setups,
            work) -> int:
    rounds, errors, failed = [], [], 0
    while True:
        traced = tracer is not None and len(rounds) > 0
        d = os.path.join(work, f"round{len(rounds)}")
        os.makedirs(d)
        if traced:
            mark = tracer.mark()
            tracer.install()
            runner.tracer = tracer
        t0 = time.perf_counter()
        try:
            times, rates, round_failed = wl.run_round(d)
        except workloads.CommandFailed as exc:
            errors.append(str(exc))
            failed += 1
            break
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        round_s = time.perf_counter() - t0
        layers = tracer.summary(mark) if traced else None
        errs = wl.check(d)
        errors += errs
        failed += round_failed
        shutil.rmtree(d)
        rounds.append({"traced": traced, "times": times, "rates": rates, "layers": layers,
                       "round_s": round_s})
        if errs:
            break
        # whole rounds, as many as come nearest to --seconds of measured time
        measured = sum(r["round_s"] for r in rounds)
        need_traced = tracer is not None and not any(r["traced"] for r in rounds)
        if measured + median([r["round_s"] for r in rounds]) / 2 >= args.seconds and not need_traced:
            break
    if not rounds:
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        return 1

    def command_figures(rs):
        """Median per command over rounds, and the one-off set-up's commands;
        0 for a command the workload lacks."""
        figures = [{**r["times"], **r["rates"], **wl.once_times} for r in rs]
        return {k: median([f[k] for f in figures if k in f]) for k in COMMAND_METRICS}

    plain = [r for r in rounds if not r["traced"]]
    pipeline = [sum(r["times"].values()) for r in plain]
    if tracer is None:
        metrics = {
            "setup_s": (once_s + median(setups), "s"),
            "pipeline_s": (median(pipeline), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report = {k: (v, COMMAND_METRICS[k]) for k, v in command_figures(plain).items() if v}
    else:
        traced = [r for r in rounds if r["traced"]]
        metrics = {k: (once_layers[k] if k in ONCE_LAYERS else
                       median([r["layers"][k] for r in traced]), u)
                   for k, u in tracer.UNITS.items()}
        for k, v in command_figures(traced).items():
            metrics[f"cli.{k}"] = (v, COMMAND_METRICS[k])
        traced_pipeline = median([sum(r["times"].values()) for r in traced])
        metrics["trace.overhead_s"] = (traced_pipeline - median(pipeline), "s")
        report = {}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    env["loadavg_1m_end"] = os.getloadavg()[0]
    attempted = runner.attempted
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced), {attempted} operations, {failed} failed")
    for k, (v, u) in list(metrics.items()) + list(report.items()):
        print(f"  {k:36s} {v:14.6g} {u}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "setups_s": setups, "once_s": once_s, "once_times": wl.once_times,
                   "rounds": [{k: r[k] for k in ("traced", "times", "rates", "layers", "round_s")}
                              for r in rounds],
                   "errors": errors, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own; a summary at the end."""
    results, status = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
