"""specdamp benchmark: one closed-loop client driving ``specdamp.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload beam-analyze --seed 1 --seconds 30 --trace 0

The workload's request list (see ``workloads.py``) is sent in passes, one
request at a time, until ``--seconds`` of measurement have elapsed.  Only
the ``cli.main`` call is timed.  A request fails on an unexpected exit
code, a missing or unparseable artifact, a missed deadline, or artifact
bytes that differ from its first pass; a failed request is charged the
workload's deadline (``workloads.DEADLINES_S``), so fixing a failure never
reads as a slowdown.  Every distinct artifact set is then checked by
``checker.py``, outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median pass
time; ``request_p50_s``, the median over the request list of each request's
median time across passes; ``setup_s``, the median of several fresh
interpreters importing specdamp and finishing a warm-up call, spread over
the run; and ``peak_rss_mb``.  Failure ratio and invariant violations are
printed too, on the lines before the result.  ``--trace 1`` alternates
untraced and traced passes (at least two of each), wraps the layers with
``tracer.py`` during the traced ones and reports the ``per_layer`` metrics
that ``BENCHMARK.json`` lists, the tracing overhead among them.  Traced
artifacts must match the untraced bytes, and every span's call count must
repeat exactly across the traced passes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when a failure or
violated check is not listed in ``ledger.json`` (defects the program had
when the benchmark was defined).  BLAS runs with one thread: on a
two-core machine extra threads measure the scheduler, not the program.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)

import checker  # noqa: E402
import setup_probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

def listed_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``.

    ``end_to_end`` names are computed in :func:`main`.  A ``per_layer`` name
    is ``<span>.<field>``: ``field`` is ``calls``, ``s`` (inclusive span
    time) or ``self_s`` (minus child spans), all per traced pass;
    ``per_request`` (the span's calls divided by the requests in a pass);
    or, for the span ``trace``, ``overhead_s``.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def time_setup(out_dir: str) -> float:
    """Seconds for a fresh interpreter to import specdamp and warm up."""
    probe = os.path.join(HERE, "setup_probe.py")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, probe, out_dir], cwd=ROOT, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


def read_artifacts(req, out_dir: str, stdout: str) -> dict[str, bytes]:
    if req.kind == "check":
        return {"stdout.txt": stdout.encode("utf-8")}
    arts = {}
    for name in checker.ARTIFACTS[req.kind]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                arts[name] = fh.read()
    return arts


def digest(arts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(arts):
        h.update(name.encode() + b"\0" + hashlib.sha256(arts[name]).digest())
    return h.hexdigest()


class Runner:
    """Sends one workload's requests in passes and records every outcome."""

    def __init__(self, cli, requests, work: str, deadline: float, tracer=None):
        self.cli = cli
        self.requests = requests
        self.deadline = deadline
        self.work = work
        self.tracer = tracer
        self.reference: dict[str, str] = {}  # rid -> digest of its first pass
        self.unique: dict[str, tuple] = {}  # digest -> (request, artifacts)
        self.passes: list[dict] = []

    def run_request(self, req, traced: bool, tag: str):
        out_dir = os.path.join(self.work, "out", req.rid)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [a.replace("{out}", out_dir) for a in req.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.begin(tag)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as exc:  # the program must never raise out of main
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.end()
        arts = read_artifacts(req, out_dir, stdout.getvalue())
        return code, elapsed, arts, stderr.getvalue()

    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        record = {"traced": traced, "times": [], "failures": [], "digests": {}, "wall_s": 0.0}
        for req in self.requests:
            code, elapsed, arts, err = self.run_request(req, traced, f"{index}:{req.rid}")
            reason = None
            if code != req.expected_exit:
                reason = ("exit_code", f"exit {code}, expected {req.expected_exit}: {err.strip()[:200]}")
            elif elapsed > self.deadline:
                reason = ("deadline", f"{elapsed:.3f} s > {self.deadline} s")
            else:
                d = digest(arts)
                ref = self.reference.setdefault(req.rid, d)
                if d != ref:
                    reason = ("repeat_bytes", "artifacts differ from the first pass")
                record["digests"][req.rid] = d
                self.unique.setdefault(d, (req, arts))
            if reason is not None:
                record["failures"].append((req.rid,) + reason)
                elapsed = self.deadline
            record["times"].append(elapsed)
            record["wall_s"] += elapsed
        self.passes.append(record)
        return record

    def inspect(self) -> dict[str, list[str]]:
        """Check every distinct artifact set; return violations per digest.

        Artifact errors become request failures of the passes that produced
        them.
        """
        violations, broken = {}, {}
        for d, (req, arts) in self.unique.items():
            try:
                violations[d] = checker.inspect(req, arts)
            except checker.ArtifactError as exc:
                broken[d] = str(exc)
        for record in self.passes:
            for i, req in enumerate(self.requests):
                d = record["digests"].get(req.rid)
                if d in broken:
                    record["failures"].append((req.rid, "artifact", broken[d]))
                    record["wall_s"] += self.deadline - record["times"][i]
                    record["times"][i] = self.deadline
        return violations


def load_ledger() -> set[tuple[str, str, str]]:
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["known_defects"]
    return {(e["workload"], e["request"], e["check"]) for e in entries}


def summarize(workload, runner, violations, ledger):
    """Failures, violations per pass and the findings not in the ledger."""
    attempted = failed = 0
    per_pass_violations = []
    findings = set()
    for record in runner.passes:
        attempted += len(runner.requests)
        failed += len(record["failures"])
        findings.update((workload, rid, kind) for rid, kind, _ in record["failures"])
        count = 0
        for rid, d in record["digests"].items():
            for name in violations.get(d, []):
                findings.add((workload, rid, name))
                count += 1
        count += sum(1 for f in record["failures"] if f[1] == "repeat_bytes")
        per_pass_violations.append(count)
    return attempted, failed, per_pass_violations, sorted(findings - ledger), sorted(findings & ledger)


def call_count_mismatches(per_pass: list[dict]) -> list[str]:
    """Spans whose call count is not the same in every traced pass."""
    spans = sorted({name for agg in per_pass for name in agg})
    return [
        name for name in spans
        if len({agg.get(name, {}).get("calls", 0) for agg in per_pass}) > 1
    ]


def layer_metrics(runner, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the spans whose call
    counts differ between those passes."""
    traced = [i for i, r in enumerate(runner.passes) if r["traced"]]
    plain = [r["wall_s"] for r in runner.passes if not r["traced"]]
    per_pass = [tracer.aggregate(f"{i}:") for i in traced]
    traced_wall = statistics.median(runner.passes[i]["wall_s"] for i in traced)

    def median(span, field):
        values = [agg.get(span, {}).get(field, 0) for agg in per_pass]
        return statistics.median_low(values) if field == "calls" else statistics.median(values)

    metrics = {}
    for name, unit in listed_metrics("per_layer").items():
        span, field = name.rsplit(".", 1)
        if (span, field) == ("trace", "overhead_s"):
            value = traced_wall - statistics.median(plain)
        elif field == "per_request":
            value = median(span, "calls") / len(runner.requests)
        else:
            value = median(span, field)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, call_count_mismatches(per_pass)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "specdamp")):
        print("perfbench: src/specdamp not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from specdamp import cli

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        requests = workloads.build(args.workload, args.seed, os.path.join(work, "configs"))
        if setup_probe.warm_up(os.path.join(work, "warm-up")) != 0:
            raise RuntimeError("in-process warm-up failed")

        tracer = tracing.Tracer() if args.trace else None
        deadline = workloads.DEADLINES_S[args.workload]
        runner = Runner(cli, requests, work, deadline, tracer)
        # Set-up probes are spread over the run (the first one before the
        # first request) so their median samples the same machine state as
        # the passes; their own time does not count towards --seconds.
        setup = []
        start = time.perf_counter()
        while True:
            measured = time.perf_counter() - start - sum(setup)
            while len(setup) < SETUP_REPEATS and measured >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(time_setup(os.path.join(work, f"setup-{len(setup)}")))
            traced = bool(args.trace) and len(runner.passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                runner.run_pass(traced)
            finally:
                if traced:
                    tracer.uninstall()
            enough = time.perf_counter() - start - sum(setup) >= args.seconds
            # A traced run needs two traced passes to compare call counts.
            if enough and (not args.trace or len(runner.passes) >= 4):
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(time_setup(os.path.join(work, f"setup-{len(setup)}")))
        violations = runner.inspect()
        if tracer is not None:
            tracer.write(os.path.join(WORK, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = load_ledger()
    attempted, failed, per_pass, unexpected, known = summarize(
        args.workload, runner, violations, ledger
    )
    plain = [r for r in runner.passes if not r["traced"]]
    if args.trace:
        metrics, unsteady = layer_metrics(runner, tracer)
        unexpected += [(args.workload, span, "call_count_repeat") for span in unsteady]
    request_medians = [statistics.median(r["times"][i] for r in plain) for i in range(len(requests))]
    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "request_p50_s": statistics.median(request_medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"perfbench: workload={args.workload} seed={args.seed} passes={len(runner.passes)} "
        f"requests/pass={len(requests)} deadline_s={deadline} blas_threads=1 nproc={os.cpu_count()}"
    )
    units = listed_metrics("end_to_end")
    for name, unit in units.items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} requests)")
    print(f"  invariant_violations = {statistics.median(per_pass):g} count (per pass)")
    for finding in known:
        print(f"  known defect (ledger): {finding[1]} {finding[2]}")
    for finding in unexpected:
        print(f"  UNEXPECTED: {finding[1]} {finding[2]}")
    for rid, kind, detail in runner.passes[0]["failures"]:
        print(f"  failure: {rid} {kind}: {detail}")
    walls = " ".join(f"{r['wall_s']:.4f}{'*' if r['traced'] else ''}" for r in runner.passes)
    print(f"  pass walls (s, * traced): {walls}")
    for req, median in zip(requests, request_medians):
        print(f"  request {req.rid}: median {median:.4f} s over {len(plain)} passes")

    if args.trace:
        same = all(f[1] != "repeat_bytes" for r in runner.passes if r["traced"] for f in r["failures"])
        print(f"  traced artifacts byte-identical to untraced: {same}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
