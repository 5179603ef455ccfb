"""Benchmark for pkat: one workload, one seed, one run.

    python3 perfbench/run.py --workload big-model --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` every request is a
``python -m pkat.cli ... --json`` child process (closed loop, one client,
one request at a time) against this checkout's ``src/``, and the run
reports the end-to-end metrics.  With ``--trace 1`` the same request list
runs in this process through ``pkat.cli.main``, alternating untraced and
traced passes, and the run reports the per-layer metrics.  Either way
every output is checked against the reference semantics in
``reference.py`` after the timed region.  The second-to-last line of
stdout is a JSON report (provenance, sample counts, error rate, failing
requests); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import calib, procs, trace, verify, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
REQUEST_TIMEOUT = 60.0

END_TO_END = {
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{op}.{lat}": "ns" for op in ("lattice.meet_ns", "twist.wjoin_ns",
                                      "twist.wmeet_ns", "twist.classify_ns")
       for lat in ("luk3", "godel")},
    "twist.ops": "computed_ops",
    "relp.r_dot.calls": "count",
    "relp.r_dot.self_s": "s",
    "relp.r_dot.n_max": "states",
    "relp.r_plus.calls": "count",
    "relp.r_plus.self_s": "s",
    "relp.t_complement.calls": "count",
    "relp.r_star.calls": "count",
    "relp.r_star.self_s": "s",
    "relp.r_star.rounds": "count",
    "relp.r_star.rounds_ratio": "ratio",
    "relp.share": "ratio",
    "syntax.parse.self_s": "s",
    "syntax.sort_of.self_s": "s",
    "syntax.pretty.self_s": "s",
    "syntax.term_nodes": "count",
    "plts.load_model.self_s": "s",
    "plts.model_bytes": "bytes",
    "plts.model_to_dict.self_s": "s",
    "engine.evaluate.self_s": "s",
    "engine.hoare_check.self_s": "s",
    "engine.check_axiom.self_s": "s",
    "engine.find_boolean_witness.self_s": "s",
    "engine.instances": "count",
    "engine.instances_per_s": "1/s",
    "engine.weight_space.calls": "count",
    "engine.weight_space.self_s": "s",
    "engine.weight_space.calls_per_instance": "ratio",
    "engine.random_model.self_s": "s",
    "engine.equiv_random.self_s": "s",
    "engine.equiv_missed": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Checker:
    """Verifies outcomes after the timed region; identical outputs of one
    request are checked once."""

    def __init__(self):
        self.verifier = verify.Verifier()
        self.attempted = 0
        self.failures: list[dict] = []
        self._seen: dict[tuple, str | None] = {}

    def add(self, req, returncode, stdout, stderr, timed_out, where: str) -> None:
        self.attempted += 1
        digest = hashlib.sha1(stdout.encode()).hexdigest()
        key = (req["id"], returncode, timed_out, digest, verify.TRACEBACK in stderr)
        if key not in self._seen:
            error, payload = verify.outcome_error(returncode, stdout, stderr, timed_out)
            if error is None:
                error = self.verifier.check(req, payload, returncode)
            self._seen[key] = error
        error = self._seen[key]
        if error is not None:
            self.failures.append({"id": req["id"], "where": where, "error": error,
                                  "argv": req["argv"], "stderr": stderr[-400:]})


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_untraced(requests, seconds, workdir, checker) -> tuple[dict, dict]:
    python, env = sys.executable, dict(os.environ, PYTHONPATH=SRC)
    reference = [python, "-c", calib.REF_SCRIPT]

    def timed(argv):
        """Spawn the reference process, then ``argv``; the outcome and the
        calibration factor for it."""
        ref = procs.spawn(reference, env, workdir, REQUEST_TIMEOUT).seconds
        return procs.spawn(argv, env, workdir, REQUEST_TIMEOUT), calib.REF_PROCESS_SECONDS / ref

    setup_argv = [python, "-c", "import pkat.cli"]
    timed(setup_argv)  # bytecode, file cache
    setup_runs = [timed(setup_argv) for _ in range(SETUP_SAMPLES)]

    outcomes, passes = [], 0
    start = time.perf_counter()
    while passes == 0 or (
        time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for req in requests:
            outcomes.append((req, *timed([python, "-m", "pkat.cli", *req["argv"]])))
        passes += 1

    for k, (req, o, _) in enumerate(outcomes):
        checker.add(req, o.returncode, o.stdout, o.stderr, o.timed_out,
                    f"pass {k // len(requests) + 1}")
    raw = [o.seconds for _, o, _ in outcomes]
    times = [o.seconds * f for _, o, f in outcomes]
    size = len(requests)

    def pass_median(values):
        return statistics.median(sum(values[p * size:(p + 1) * size]) for p in range(passes))

    metrics = {
        "wall_s": pass_median(times),
        "req_p50_s": nearest_rank(times, 0.50),
        "req_p75_s": nearest_rank(times, 0.75),
        "setup_s": statistics.median(o.seconds * f for o, f in setup_runs),
        "peak_rss_mb": max(o.maxrss_kb for _, o, _ in outcomes) / 1024,
    }
    counts = {
        "passes": passes,
        "requests_per_pass": size,
        "req_percentile_samples": len(times),
        "req_p75_samples_beyond": len(times) - math.ceil(0.75 * len(times)),
        "setup_samples": len(setup_runs),
        "pass_s": [sum(times[p * size:(p + 1) * size]) for p in range(passes)],
        "raw": {
            "wall_s": pass_median(raw),
            "req_p50_s": nearest_rank(raw, 0.50),
            "req_p75_s": nearest_rank(raw, 0.75),
            "setup_s": statistics.median(o.seconds for o, _ in setup_runs),
            "reference_process_s": statistics.median(
                calib.REF_PROCESS_SECONDS / f for _, _, f in outcomes),
        },
    }
    return metrics, counts


def _in_process_pass(requests, main, recorder=None):
    """One pass through ``main``: outcomes, calibrated seconds, and the
    calibration factor of each request id."""
    outcomes, factors = [], {}
    for req in requests:
        factors[req["id"]] = calib.REF_SECONDS / calib.sample()
        if recorder is not None:
            recorder.request = req["id"]
        outcomes.append((req, trace.call_main(main, req["argv"])))
    seconds = sum(o[0] * factors[req["id"]] for req, o in outcomes)
    return outcomes, seconds, factors


def run_traced(requests, seconds, seed, checker) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    import pkat.cli

    main = pkat.cli.main
    metrics = trace.microbench(seed)
    plain_times, traced_times, rows = [], [], []
    start = time.perf_counter()
    while not rows or (time.perf_counter() - start) * (len(rows) + 1) / len(rows) <= seconds:
        plain, plain_s, _ = _in_process_pass(requests, main)
        plain_times.append(plain_s)

        recorder = trace.Recorder()
        with recorder.patched():
            traced, traced_s, factors = _in_process_pass(
                requests, recorder.wrap("cli.main", main), recorder)
        traced_times.append(traced_s)

        for where, outcomes in (("untraced", plain), ("traced", traced)):
            for req, (_, code, out, err) in outcomes:
                checker.add(req, code, out, err, False, f"{where} pass {len(rows) + 1}")
        stdout_bytes = sum(len(out.encode()) for _, (_, _, out, _) in traced)
        rows.append(trace.layer_metrics(recorder.reduce(factors), stdout_bytes,
                                        checker.verifier.missed))

    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times))
    counts = {
        "pairs": len(rows),
        "requests_per_pass": len(requests),
        "untraced_pass_s": plain_times,
        "traced_pass_s": traced_times,
        "bases": {
            "engine.weight_space.calls_per_instance":
                f"per engine.instances = {metrics['engine.instances']}",
            "relp.share": "relp self time over traced cli.main time",
            "relp.r_star.rounds_ratio": "rounds over the sum of n + 1 per star",
            "twist.ops": "computed as 2n^3 per r_dot plus n^2 per r_plus",
        },
    }
    return metrics, counts


def provenance(args, requests) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pkat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(requests),
        "load": "closed loop, one client, one request at a time",
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(git, ref_name)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Terminated(BaseException):
    """Raised on SIGTERM, so that the finally blocks reaping children run
    and an in-process request cannot swallow it as its exit."""


def _terminate(*_):
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pkat", "cli.py")):
        print(f"perfbench: no pkat sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    work_root = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    checker = Checker()
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, counts = run_traced(requests, args.seconds, args.seed, checker)
            units = PER_LAYER
        else:
            metrics, counts = run_untraced(requests, args.seconds, workdir, checker)
            units = END_TO_END
    except Terminated:
        return 143
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # left in place while another run uses it
        except OSError:
            pass

    failed = len(checker.failures)
    report = {
        "provenance": provenance(args, requests),
        "counts": counts,
        "error_rate": failed / checker.attempted,
        "equiv_missed": checker.verifier.missed,
        "failures": checker.failures[:50],
    }
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
