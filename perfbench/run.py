"""entlink benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload infer-paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  BLAS is pinned to one thread before
numpy loads.  The workload is set up a few times, then whole passes of its
batch job run until `--seconds` have passed (at least one), every second
pass followed by one more set-up; `setup_s` is the median set-up.  With
`--trace 1` one more pass runs under the tracer and the fixed-size layer
probes follow; the metrics printed are then the per-layer ones, the
tracer's overhead is the traced pass minus the untraced pass before it,
and a traced pass whose stage spans cover less than 95% of it counts as a
failed operation.  Metric names, units and directions come from
BENCHMARK.json at the checkout root.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  The full result
(environment, details, per-layer figures) and the spans are written under
`.bench_build/perfbench/`.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUPS = 3                  # set-ups before the first pass
SETUP_EVERY = 2             # then one more after every second pass
MIN_STAGE_COVERAGE = 0.95   # share of the traced pass its stage spans must cover


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def load_entlink():
    """Import entlink from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import entlink

    if Path(entlink.__file__).resolve().parent != (SRC / "entlink").resolve():
        raise ImportError(f"entlink imported from {entlink.__file__}, not {SRC}")


def run(args) -> dict:
    from probes import run_probes
    from tracing import Tracer, duration, layer_metrics, span_cost, stage_coverage
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, Path(tmp))
        for _ in range(SETUPS):
            workload.timed_set_up()
        started = time.perf_counter()
        while True:
            workload.run_pass(None)
            if len(workload.pass_s) % SETUP_EVERY == 0:
                workload.timed_set_up()
            if time.perf_counter() - started >= args.seconds:
                break
        metrics = workload.end_to_end()
        per_layer, spans = {}, []
        if args.trace:
            untraced_s = workload.pass_s[-1]
            tracer = Tracer()
            with tracer:
                with tracer.span("setup"):
                    workload.set_up()
                workload.run_pass(tracer)
            spans = tracer.spans
            roots = [s for s in spans if s["parent"] is None]
            pipeline = [s for s in roots if s["name"] == "pipeline"][-1]
            coverage = stage_coverage(spans, pipeline)
            if coverage < MIN_STAGE_COVERAGE:
                workload.fail(1, f"stage spans cover {coverage:.3f} of the traced pass, "
                                 f"below {MIN_STAGE_COVERAGE}")
            per_layer = layer_metrics(spans, roots)
            per_layer.update({
                "trace.pipeline_s": duration(pipeline),
                "trace.overhead_s": duration(pipeline) - untraced_s,
                "trace.span_cost_s": len(spans) * span_cost(),
                "trace.stage_coverage": coverage,
                "trace.spans": float(len(spans)),
            })
            per_layer.update(run_probes(args.seed, args.smoke))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"workload": workload, "end_to_end": metrics, "per_layer": per_layer,
            "spans": spans}


def select(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    out = {}
    for entry in spec_metrics:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} missing or not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_entlink()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    env = environment()
    outcome = run(args)
    workload = outcome["workload"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = outcome["per_layer"] if args.trace else outcome["end_to_end"]
    try:
        metrics = select(listed, chosen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "end_to_end": outcome["end_to_end"], "per_layer": outcome["per_layer"],
        "details": workload.details(), "failures": workload.failures,
        "result": result,
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (OUT / f"spans_{stem}.json").write_text(json.dumps(outcome["spans"]) + "\n")

    print(f"entlink benchmark: {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={env['git_sha'][:12]} numpy={env['numpy']} nproc={env['nproc']}")
    for name, value in sorted({**outcome["end_to_end"], **outcome["per_layer"]}.items()):
        unit = units.get(name, "")
        better = f" ({directions[name]} is better)" if name in directions else ""
        print(f"  {name:<42} {value:14.6f} {unit}{better}")
    for name, value in workload.details().items():
        print(f"  {name:<42} {value}")
    for failure in workload.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
