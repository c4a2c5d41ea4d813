"""Benchmark runner for flockpp: one workload per process.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  An untraced run (``--trace 0``) reports the end-to-end metrics, a
traced run (``--trace 1``) the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run (raw and scaled operation times, every check problem) goes to
``bench/results/``.  README.md describes the workloads, the metrics and the
speed calibration.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Duration of one calibration loop at the reference speed.  Operation
#: times are scaled by CAL_REF_S / (the loop's duration measured around them).
CAL_REF_S = 0.001

#: Calibration samples on each side of an operation that scale it.
CAL_WINDOW = 2


def calibration_loop():
    """A fixed pure-Python loop (dict and integer work, no flockpp code) whose
    duration tracks the speed the shared machine gives this process."""
    d = {}
    for i in range(6000):
        d[i * 7919 % 100003] = i
    s = 0
    for k in d:
        s += d[k]
    return s


class Clock:
    """Calibration samples in time order, and intervals placed between them.

    An interval recorded after sample ``k`` is scaled by the lower median
    of samples ``k - CAL_WINDOW + 1 .. k + CAL_WINDOW``: the ``CAL_WINDOW``
    samples just before it and the ``CAL_WINDOW`` just after it.
    """

    def __init__(self):
        self.samples = []
        for _ in range(CAL_WINDOW + 1):  # the first loops of a process run cold
            self.calibrate()

    def calibrate(self):
        t = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t)
        return len(self.samples) - 1

    def scale(self, k):
        window = self.samples[max(0, k - CAL_WINDOW + 1) : k + CAL_WINDOW + 1]
        return CAL_REF_S / sorted(window)[(len(window) - 1) // 2]


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "witness", "bounds", "sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import flockpp from this checkout's ``src`` and nowhere else."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "flockpp" / "__init__.py").is_file():
        sys.exit(f"bench: no flockpp sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import flockpp

    if Path(flockpp.__file__).resolve().parent != src / "flockpp":
        sys.exit(f"bench: imported flockpp from {flockpp.__file__}, not from {src}")


def time_imports():
    """Wall time of a fresh interpreter that imports flockpp, SETUP_REPEATS
    times.  Not scaled: importing is mostly mapping shared libraries and
    page faults, whose time does not follow the calibration loop."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import flockpp"
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t)
    return times


class Round:
    """One pass over every operation, in a seeded order.

    Only a round made with ``keep=True`` holds on to the outputs (for the
    reference checks); every round keeps a printable digest of each output,
    which later rounds must reproduce exactly.
    """

    def __init__(self, workload, ops, rng, clock, tracer=None, keep=False):
        self.clock = clock
        self.traced = tracer is not None
        self.raw = [0.0] * len(ops)
        self.cal = [0] * len(ops)
        self.outputs = [None] * len(ops)
        self.digests = [""] * len(ops)
        self.failed = 0
        if tracer is not None:
            tracer.install()
        order = list(enumerate(ops))
        rng.shuffle(order)
        for i, op in order:
            if tracer is not None:
                tracer.op = op.label
            gc.collect()
            k = clock.calibrate()
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
            self.raw[i] = time.perf_counter() - t
            self.cal[i] = k
            if isinstance(out, Exception) or workload.failed(out):
                self.failed += 1
                self.digests[i] = repr(out)
            else:
                self.digests[i] = repr(workload.key(out))
            if keep:
                self.outputs[i] = out
        clock.calibrate()
        if tracer is not None:
            tracer.uninstall()

    @property
    def scaled(self):
        return [t * self.clock.scale(k) for t, k in zip(self.raw, self.cal)]

    @property
    def wall(self):
        return sum(self.scaled)


def measure(workload, ops, seed, seconds, clock, tracers=(None,)):
    """Whole rounds, cycling through ``tracers`` (``None`` for an untraced
    round), until the next cycle would end after ``seconds``.

    A first round, not timed, runs before them: the first round after
    set-up runs cold (the allocator grows the heap), about 6% slower.  Its
    outputs are the ones the reference checks see.
    """
    from workloads import rng_for

    warm = Round(workload, ops, rng_for(workload.name, seed, "order/warm"), clock, keep=True)
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for tracer in tracers:
            rng = rng_for(workload.name, seed, f"order/{len(rounds)}")
            rounds.append(Round(workload, ops, rng, clock, tracer))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return warm, rounds


def check_outputs(workload, ops, rounds):
    """Reference checks on the first round; later rounds must repeat it."""
    first = rounds[0]
    ok = [
        i for i, o in enumerate(first.outputs)
        if not isinstance(o, Exception) and not workload.failed(o)
    ]
    problems = workload.check([ops[i] for i in ok], [first.outputs[i] for i in ok])
    for r, rnd in enumerate(rounds[1:], 2):
        for i in ok:
            if rnd.digests[i] != first.digests[i]:
                problems.append(f"{ops[i].label}: round {r} differs from round 1")
    return problems


def settle():
    """Collect garbage and freeze what set-up left, so that the collections
    an operation triggers scan only objects made after set-up."""
    gc.collect()
    gc.freeze()


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[args.workload]()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    def setup():
        warm_up(args.seed)
        return workload.setup(args.seed)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        ops = setup()
        setup_acc = tracer.snapshot()
        tracer.uninstall()
        settle()
        # Untraced and traced rounds alternate; their difference is the
        # tracing overhead.
        warm, rounds = measure(workload, ops, args.seed, args.seconds, Clock(), (None, tracer))
        untraced = statistics.median(r.wall for r in rounds if not r.traced)
        traced = [r for r in rounds if r.traced]
        traced_wall = statistics.median(r.wall for r in traced)
        metrics = layer_metrics(setup_acc, tracer.snapshot(), len(traced))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
        record["spans"] = len(tracer.spans)
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        write_json(f"{args.workload}-seed{args.seed}-spans.json", [
            {"group": s.group, "name": s.name, "op": s.op, "start": s.start - t0,
             "end": s.end - t0, "parent": s.parent, "inner": s.inner}
            for s in tracer.spans
        ])
    else:
        imports = time_imports()
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = setup()
            setups.append(time.perf_counter() - t)
        settle()
        warm, rounds = measure(workload, ops, args.seed, args.seconds, Clock())
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        op_times = [t for r in rounds for t in r.scaled]
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
            "wall_s": (statistics.median(r.wall for r in rounds), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "op_p90_s": (statistics.quantiles(op_times, n=10)[8], "s"),
            "peak_rss_mb": (peak_kib / 1024, "MiB"),
        }
        record.update(imports_s=imports, setups_s=setups, samples=len(op_times))

    rounds_all = [warm] + rounds
    attempted = len(ops) * len(rounds_all)
    failed = sum(r.failed for r in rounds_all)
    problems = check_outputs(workload, ops, rounds_all)
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    record.update(
        calibration_s=warm.clock.samples,
        rounds=[
            {"traced": r.traced, "wall_s": r.wall, "raw_wall_s": sum(r.raw),
             "ops": {ops[i].label: [r.raw[i], s] for i, s in enumerate(r.scaled)}}
            for r in rounds_all
        ],
        problems=problems,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    write_json(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps(result))
    return 0


def write_json(name, obj):
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w") as f:
        json.dump(obj, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
