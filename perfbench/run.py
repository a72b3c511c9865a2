#!/usr/bin/env python3
"""Benchmark of qgraded: one closed loop with a single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
./src and nothing else; the inputs are made from --seed.  Each workload
repeats whole passes over its inputs until at least --seconds have
passed, timing every verdict and checking it against the answer known
from how the input was built.  The last line of standard output is one
JSON object with the metrics named in BENCHMARK.json: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit
code is 0 only when every verdict, dimension, exit code and report was
as expected.

Workloads (the reason for each is in BENCHMARK.json):
  check-corpus  `qgraded check` in-process on every corpus descriptor
  beta-twisted  beta^1..beta^3 on twisted group algebras
  beta-dense    equivalence and beta^n after a dense change of basis
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the reference kernel is also timed every SAMPLE_EVERY_S seconds of work
SAMPLE_EVERY_S = 0.2
# set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS in all
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
# about the median time of reference_kernel() on the machine the bounds
# were set on (Python 3.11, 2 vCPUs); every time is reported at that speed
REFERENCE_S = 0.005
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qgraded; "
                "print(time.perf_counter() - t, qgraded.__file__)")


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import qgraded from ./src, refusing any other installed copy."""
    package = SRC / "qgraded"
    if not (package / "__init__.py").is_file():
        fail(f"{package} not found: run from the root of a qgraded checkout")
    sys.path.insert(0, str(SRC))
    import qgraded
    if Path(qgraded.__file__).resolve().parent != package.resolve():
        fail(f"imported qgraded from {qgraded.__file__}, not from {package}")
    import qgraded.cli  # noqa: F401  (the check-corpus entry point)
    return qgraded


def reference_kernel() -> int:
    """Fixed sparse elimination over standard-library Fractions with dict
    rows, the kind of work qgraded spends its time on, independent of the
    program under test.  It tracks the program's speed on a busy shared
    machine better than plain Fraction arithmetic, which slows down more
    than the program when the machine is busy."""
    rng = random.Random(5)
    rows = [{rng.randrange(40): Fraction(rng.randrange(1, 9),
                                         rng.randrange(1, 5))
             for _ in range(6)} for _ in range(25)]
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def reference_seconds() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Context that times the reference kernel every SAMPLE_EVERY_S
    seconds while the work inside it runs, from a SIGALRM handler that
    Python calls between the program's bytecodes.  So an input that runs
    for seconds is scaled by the speed measured during it, not only by the
    speed just before and after it.  `paused` is the time the samples
    took, which the caller takes off the work's own time."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, _signum, _frame):
        # a collection of the program's heap would count as kernel time
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.paused += took

    def __enter__(self):
        self.samples, self.paused = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, before: float, after: float) -> float:
        """REFERENCE_S over the mean kernel time around and during the
        work.  The mean, not the median: the kernel times fall into a fast
        and a slow group, and the work's time is set by how long each
        state lasted, which the mean follows."""
        return REFERENCE_S / statistics.fmean([before, after] + self.samples)


def import_seconds() -> float:
    """Time to import qgraded in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60,
                         check=True, cwd=ROOT)
    seconds, path = out.stdout.split()
    if Path(path).resolve().parent != (SRC / "qgraded").resolve():
        fail(f"import probe loaded qgraded from {path}")
    return float(seconds)


# -- workloads --------------------------------------------------------------


class CheckCorpus:
    """`qgraded check` with --report and the needed --expect flags, called
    in-process on every corpus descriptor."""

    min_passes = 6  # about 200 verdicts, so the tail is p95

    def __init__(self, qg, inputs, workdir: Path):
        self.qg = qg
        self.inputs = inputs
        self.workdir = workdir
        self.reports: dict[str, bytes] = {}
        self.report_mismatches = 0

    def setup(self, seed: int) -> list:
        checks = self.inputs.corpus_checks(ROOT / "corpus", seed)
        self.descs = [self.qg.descriptors.load_descriptor(str(c.path))
                      for c in checks]
        return checks

    def sizes(self, checks) -> dict:
        dims = sorted(d.algebra.dim for d in self.descs if d.algebra)
        orders = [d.group.order for d in self.descs if d.group.is_finite]
        return {"descriptors": len(checks), "algebra_dims": dims,
                "max_group_order": max(orders),
                "products": sum(len(d.algebra.products)
                                for d in self.descs if d.algebra)}

    def label(self, check) -> str:
        return check.name

    def decide(self, check) -> str | None:
        report = self.workdir / f"{check.name}.json"
        argv = ["check", str(check.path), "--report", str(report)]
        for token in check.expect:
            argv += ["--expect", token]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.qg.cli.main(argv)
        data = report.read_bytes()
        report.unlink()
        previous = self.reports.setdefault(check.name, data)
        if previous != data:
            self.report_mismatches += 1
            return "report differs from the first run's bytes"
        if code != 0:
            return f"exit code {code}"
        parsed = json.loads(data)
        rows = {r["id"]: r for r in parsed["checks"]}
        if parsed["passed"] is not True:
            return "report not passed"
        if rows.get("equivalence.agreement", {}).get("verdict") is not True:
            return "strong grading and Galois verdicts disagree"
        if rows.get("grading.strong", {}).get("verdict") is not \
                ("not-strong" not in check.expect):
            return "wrong strong-grading verdict"
        return None


class BetaSweep:
    """Equivalence check on each algebra, then beta^1..beta^n on the
    strongly graded ones; the generator decides which algebras."""

    min_passes = 1

    def __init__(self, qg, generate):
        self.qg = qg
        self.generate = generate

    def setup(self, seed: int) -> list:
        return self.generate(seed)

    def sizes(self, algebras) -> dict:
        def order(a):
            return len(a.algebra.group.elements())

        columns = [a.algebra.dim * order(a) ** n
                   for a in algebras for n in range(1, a.beta_max + 1)]
        return {"algebras": len(algebras),
                "strongly_graded": sum(a.strong for a in algebras),
                "dims": sorted(a.algebra.dim for a in algebras),
                "max_component_dim": max(
                    len(a.algebra.component(g))
                    for a in algebras for g in a.algebra.group.elements()),
                "beta_columns": sum(columns),
                "max_beta_columns": max(columns, default=0)}

    def label(self, item) -> str:
        return item.name

    def decide(self, item) -> str | None:
        galois = self.qg.galois
        algebra = item.algebra
        eq = galois.check_equivalence_theorem(algebra)
        if not eq.agree:
            return "strong grading and Galois verdicts disagree"
        if eq.strong.strong != item.strong:
            return f"strong-grading verdict {eq.strong.strong}"
        if not item.strong and eq.galois.kernel_witness is None \
                and eq.galois.cokernel_witness is None:
            return "non-bijective canonical map without a witness"
        order = len(algebra.group.elements())
        for n in range(1, item.beta_max + 1):
            bmap = galois.beta_n(algebra, n)
            want = algebra.dim * order ** n
            if (bmap.domain_dim, bmap.codomain_dim) != (want, want):
                return (f"beta^{n} is {bmap.domain_dim} -> "
                        f"{bmap.codomain_dim}, expected {want} -> {want}")
            if not bmap.is_bijective():
                return f"beta^{n} is not bijective"
        return None


def make_workload(name: str, qg, inputs, workdir: Path):
    if name == "check-corpus":
        if not (ROOT / "corpus").is_dir():
            fail(f"{ROOT / 'corpus'} not found")
        return CheckCorpus(qg, inputs, workdir)
    if name == "beta-twisted":
        return BetaSweep(qg, inputs.twisted_inputs)
    return BetaSweep(qg, inputs.dense_inputs)


# -- measurement -------------------------------------------------------------


class Loop:
    """Closed loop, one client: whole passes until `seconds` have passed
    and at least the workload's minimum number of passes is done.

    The speed one process gets from the shared CPU switches between a
    fast and a slow state, up to 1.75 times slower, within a second, so
    the reference kernel is timed before and after every input and, by a
    SpeedSampler, during it, and each verdict time is scaled by
    REFERENCE_S over the mean of those kernel times: times are reported
    at the reference speed, and a change to the program moves them as it
    moves the raw times.
    """

    def __init__(self, workload, items, tracer=None):
        self.workload = workload
        self.items = items
        self.tracer = tracer
        self.latencies: list[float] = []   # at the reference speed
        self.pass_rates: list[float] = []
        self.scales: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.sampler = SpeedSampler()

    def run(self, seconds: float):
        started = time.perf_counter()
        before = reference_seconds()
        while len(self.pass_rates) < self.workload.min_passes \
                or time.perf_counter() - started < seconds:
            for idx, item in enumerate(self.items):
                # every input starts from a collected heap, as it would in
                # a fresh `qgraded` process
                gc.collect()
                if self.tracer:
                    self.tracer.begin_input(
                        f"pass{len(self.pass_rates)}:{idx}")
                t0 = time.perf_counter()
                with self.sampler:
                    try:
                        problem = self.workload.decide(item)
                    except Exception:
                        problem = "exception:\n" + traceback.format_exc()
                elapsed = time.perf_counter() - t0 - self.sampler.paused
                after = reference_seconds()
                self.scales.append(self.sampler.scale(before, after))
                self.latencies.append(elapsed * self.scales[-1])
                before = after
                if self.tracer:
                    self.tracer.end_input()
                self.attempted += 1
                if problem:
                    self.failures.append(
                        f"{self.workload.label(item)}: {problem}")
            deciding = sum(self.latencies[-len(self.items):])
            self.pass_rates.append(len(self.items) / deciding)

    @property
    def decided_per_s(self) -> float:
        return statistics.median(self.pass_rates)


def tail(samples: list[float], guaranteed: int) -> tuple[int, float]:
    """(percentile, value) for the highest whole percentile, at least p50,
    whose nearest-rank sample has at least ten samples beyond it in every
    run: the percentile depends on the guaranteed sample count (minimum
    passes times inputs), not on how many passes a faster or slower
    program fits into the run.  Nearest rank, not interpolation: the
    verdict times of beta-twisted jump twofold right at p64, where an
    interpolated value would be a time that no input took."""
    p = max(50, math.floor(100 - 1000 / guaranteed))
    ordered = sorted(samples)
    return p, ordered[math.ceil(p * len(ordered) / 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(spec: list[dict], values: dict, attempted: int, failed: int,
         correct: bool):
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            fail(f"metric {m['name']} is not measured by this benchmark")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["check-corpus", "beta-twisted", "beta-dense"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_metric_spec()
    qg = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import inputs

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = make_workload(args.workload, qg, inputs, Path(tmp))
        if args.trace:
            return traced_run(args, spec, workload)
        return timed_run(args, spec, workload)


def timed_run(args, spec, workload) -> int:
    # each set-up is timed at the speed measured around and during it, as
    # each verdict is in Loop
    setups, scales = [], []
    sampler = SpeedSampler()
    started = time.perf_counter()
    before = reference_seconds()
    while len(setups) < SETUP_REPEATS \
            or time.perf_counter() - started < SETUP_SECONDS:
        elapsed = import_seconds()
        t0 = time.perf_counter()
        with sampler:
            items = workload.setup(args.seed)
        elapsed += time.perf_counter() - t0 - sampler.paused
        after = reference_seconds()
        scales.append(sampler.scale(before, after))
        setups.append(elapsed * scales[-1])
        before = after
    print(f"sizes {json.dumps(workload.sizes(items))}")

    loop = Loop(workload, items)
    loop.run(args.seconds)
    p, tail_s = tail(loop.latencies, workload.min_passes * len(items))
    failed = len(loop.failures)
    for line in loop.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"times at the reference speed: median scale "
          f"{statistics.median(scales):.4g} over {len(setups)} set-ups, "
          f"{statistics.median(loop.scales):.4g} over verdicts")
    print(f"{len(loop.pass_rates)} passes of {len(items)} inputs, "
          f"{len(loop.latencies)} verdict samples, tail is p{p}; "
          f"failed_ratio {failed / loop.attempted:.6g} "
          f"({failed} of {loop.attempted})")
    values = {
        "setup_s": statistics.median(setups),
        "decided_per_s": loop.decided_per_s,
        "verdict_p50_s": statistics.median(loop.latencies),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    emit(spec["end_to_end"], values, loop.attempted, failed, failed == 0)
    return 0 if failed == 0 else 1


def traced_run(args, spec, workload) -> int:
    from tracing import LAYER_TARGETS, Tracer

    items = workload.setup(args.seed)
    print(f"sizes {json.dumps(workload.sizes(items))}")
    untraced = Loop(workload, items)
    untraced.run(args.seconds)

    tracer = Tracer()
    tracer.install()
    try:
        traced_items = workload.setup(args.seed)
        tracer.phase = "pass"
        traced = Loop(workload, traced_items, tracer)
        traced.run(args.seconds)
    finally:
        left_wrapped = tracer.remove()
    trace_file = ROOT / ".perfbench-out" / \
        f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)

    failures = untraced.failures + traced.failures
    failures += [f"wrapper left in place after the traced run: {where}"
                 for where in left_wrapped]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = untraced.attempted + traced.attempted
    values = tracer.layer_metrics(len(traced.pass_rates))
    values["trace.overhead_decided_per_s"] = \
        traced.decided_per_s - untraced.decided_per_s
    print(f"untraced {untraced.decided_per_s:.6g}/s over "
          f"{len(untraced.pass_rates)} passes, traced "
          f"{traced.decided_per_s:.6g}/s over {len(traced.pass_rates)}; "
          f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
    if tracer.missing:
        print(f"not traced (absent from the program): "
              f"{', '.join(tracer.missing)}")
    if isinstance(workload, CheckCorpus):
        print(f"--report files of untraced and traced runs: "
              f"{len(workload.reports)} descriptors, "
              f"{workload.report_mismatches} byte differences")
    print("per-layer metrics (one set-up plus one pass) and their targets:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<34} -> {LAYER_TARGETS.get(m['name'], '?')}")
    emit(spec["per_layer"], values, attempted, len(failures), not failures)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
