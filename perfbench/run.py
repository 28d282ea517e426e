"""Benchmark of the isoclinic construction chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is imported from src/, so it
need not be installed.  The workloads, metrics and reference figures are
described in perfbench/README.md.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # record files of a run, and the span files
SETUP_SAMPLES = 15  # processes whose set-up is timed; setup_s is their median
MIN_PASSES = 2  # records compares the bytes of two fresh generations
MB = 2**20
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads() -> None:
    """One caller, BLAS threads capped at the CPUs this process may use (nproc)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def import_program() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import isoclinic
    except ImportError as exc:
        print(f"perfbench: cannot import isoclinic from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(isoclinic.__file__).resolve().parent != ROOT / "src" / "isoclinic":
        print(f"perfbench: isoclinic was imported from {isoclinic.__file__}, not src/", file=sys.stderr)
        return False
    return True


def setup(workload, seed: int, workdir: Path, tracer) -> None:
    """Fields, inputs and a warm-up at the workload's own size."""
    import numpy as np
    from isoclinic import cli
    from isoclinic.gf import make_field

    for q, p, alpha in workload.orders:
        with tracer.span("gf.field") if tracer else nullcontext():
            field = make_field(p, alpha)
            field.chi(field.one)
    workload.prepare(workdir)
    # The chain once at q = 5 loads every code path.  The first large eigh
    # in a process costs about 0.6 s more than later ones, and a warm-up at
    # q = 5 does not remove that, so eigh and a product run at full size.
    cli.run_pipeline(3, 1e-9)
    m = np.random.default_rng(seed).standard_normal((workload.warm_size,) * 2)
    m += m.T
    np.linalg.eigh(m)
    m @ m


class Pass:
    def __init__(self, op_times: dict[str, float], failed: int, spans=()):
        self.op_times = op_times  # seconds per operation label
        self.attempted = len(op_times)
        self.failed = failed
        self.spans = spans


def best_times(passes: list[Pass]) -> dict[str, float]:
    """Each operation's fastest time over the passes of a run.

    On a shared host the speed of the same code drifts by up to a factor
    of two over tens of seconds (README, "Steadiness").  Contention only
    adds time, so the fastest of several repeats is the least disturbed
    estimate of a deterministic call's cost, and it is far steadier from
    run to run than the median.
    """
    return {label: min(p.op_times[label] for p in passes) for label in passes[0].op_times}


def one_pass(workload, rng: random.Random, errors: dict, tracer=None) -> Pass:
    times, failed = {}, 0
    for op in workload.ops(rng):
        t = time.perf_counter()
        ok = op.run(tracer)
        times[op.label] = time.perf_counter() - t
        if not ok:
            failed += 1
            errors.setdefault(op.label, op.error)
        if op.after is not None:
            op.after()
    workload.after_pass()
    return Pass(times, failed)


def setup_probe(args) -> float:
    """Set-up time of a fresh process, measured inside it as for this one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_checks(workload, seed: int) -> bool:
    import numpy as np

    import checks
    import selftest

    try:
        workload.check(np.random.default_rng(seed))
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed on {workload.name}: {exc}", file=sys.stderr)
        return False
    except Exception:
        traceback.print_exc()
        return False
    problems = selftest.failures()
    for line in problems:
        print(f"perfbench: selftest: {line}", file=sys.stderr)
    return not problems


def measure_end_to_end(args, workload, own_setup: float, errors: dict) -> tuple[list[Pass], dict]:
    import numpy as np

    rng = random.Random(args.seed)
    passes: list[Pass] = []
    setups = [own_setup]
    start = time.perf_counter()
    # the recorded pass at the end makes one more
    while len(passes) < MIN_PASSES - 1 or time.perf_counter() - start < args.seconds:
        passes.append(one_pass(workload, rng, errors))
        # The set-up probes are spread evenly over the run, between passes,
        # so that they do not all fall into one slow spell of the host.
        due = (len(setups) - 1) * args.seconds / (SETUP_SAMPLES - 1)
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= due:
            setups.append(setup_probe(args))
    # Read before the recorded pass, whose outputs are checked as it runs,
    # so that the memory of the checks does not count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    with workload.recording(np.random.default_rng(args.seed)):
        passes.append(one_pass(workload, rng, errors))
    setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_s": (sum(best_times(passes).values()), "s"),
    }
    return passes, metrics


def measure_layers(args, workload, tracer, errors: dict) -> tuple[list[Pass], dict]:
    import numpy as np

    import tracing

    setup_spans = list(tracer.spans)
    rng = random.Random(args.seed)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    # untraced and traced passes alternate, so the tracing overhead is
    # measured under the same conditions on both sides
    while not traced or len(plain) != len(traced) or time.perf_counter() - start < args.seconds:
        if len(plain) == len(traced):
            with workload.recording(np.random.default_rng(args.seed)) if not plain else nullcontext():
                plain.append(one_pass(workload, rng, errors))
            continue
        first = len(tracer.spans)
        with tracing.patched(tracer.wrap):
            p = one_pass(workload, rng, errors, tracer)
        p.spans = tracer.spans[first:]
        traced.append(p)
    meter = tracing.PeakMeter()
    with tracing.patched(meter.wrap, tracing.PEAK):
        memory = one_pass(workload, rng, errors)

    per_pass = []
    for p in traced:
        inclusive, own = tracing.span_times(p.spans)
        values = {f"{name}_s": own[name] for name in tracing.TRACED.values()}
        for name in ("cli.build_record", "cli.pipeline", "cli.generate", "cli.verify"):
            values[f"{name}_s"] = inclusive[name]
        values["cli.checks_s"] = inclusive["cli.verify"] - inclusive["export.parse"]
        per_pass.append(values)
    metrics = {name: (statistics.median(v[name] for v in per_pass), "s") for name in per_pass[0]}
    metrics["gf.field_s"] = (tracing.span_times(setup_spans)[0]["gf.field"], "s")
    for name in tracing.PEAK.values():
        metrics[f"{name}_peak_mb"] = (meter.peak_bytes[name] / MB, "MB")
    metrics["export.bytes_mb"] = (meter.serialized_bytes / MB, "MB")
    overhead = sum(best_times(traced).values()) - sum(best_times(plain).values())
    metrics["trace.overhead_s"] = (overhead, "s")

    spans = [dict(zip(("id", "parent", "op", "name", "start", "end"), s)) for s in tracer.spans]
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "plain_op_s": [p.op_times for p in plain],
        "traced_op_s": [p.op_times for p in traced],
        "spans": spans,
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace), encoding="utf-8")
    return plain + traced + [memory], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if not import_program():
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    errors: dict[str, str] = {}
    try:
        setup(workload, args.seed, workdir, tracer)
        own_setup = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            passes, metrics = measure_layers(args, workload, tracer, errors)
        else:
            passes, metrics = measure_end_to_end(args, workload, own_setup, errors)
        correct = run_checks(workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, seconds in sorted(best_times(passes).items(), key=lambda item: -item[1]):
        print(f"perfbench: fastest {label}: {seconds:.4f} s", file=sys.stderr)
    for label, error in sorted(errors.items()):
        print(f"perfbench: failed operation {label}: {error}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
