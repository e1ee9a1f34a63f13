"""End-to-end benchmark of the dominion package, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload compute-large --seed 1 --seconds 25 --trace 0

The load is a closed loop from this one process: one op in flight at a time,
no threads. A pass runs every op of the workload once; passes repeat until
`--seconds` have gone by (and at least two have run). Every op is checked
against its reference; an op fails when it exits non-zero, prints a
traceback, or disagrees with the reference, and only the last counts as a
wrong answer (`correct` is false). Set-up (reference loading, input
generation and one cold `python -m dominion` start) runs three times and its
median is `setup_s`.

With `--trace 1`, passes alternate untraced and traced, and the output holds
the per-layer metrics; `trace.overhead_s` is the traced minus the untraced
median pass time. The second-to-last line of stdout holds metadata; the last
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_RUNS = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170  # the whole run must end within 180 s, even if an op hangs


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    failed: bool
    wrong: bool
    note: str = ""


def verdict(returncode: int, stderr: str, matches: bool) -> tuple[bool, bool]:
    """(failed, wrong answer) for one op."""
    clean = returncode == 0 and "Traceback (most recent call last)" not in stderr
    return not (clean and matches), clean and not matches


@contextlib.contextmanager
def _deadline(seconds: float, on_expiry):
    def handler(signum, frame):
        on_expiry()

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _raise_timeout():
    raise TimeoutError("op exceeded the run's time limit")


class Runner:
    """Runs ops from one process; CLI ops in a child whose own rusage gives
    the op's peak RSS, in-process ops with this process's peak RSS."""

    def __init__(self, root: Path, tmp: Path):
        self.tmp = tmp
        self.end = perf_counter() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str((root / "src").resolve()), os.environ.get("PYTHONPATH")) if p
        )

    def time_left(self) -> float:
        return self.end - perf_counter()

    def run_cli(self, args, tracer=None) -> tuple[int, str, str, float, float]:
        """(returncode, stdout, stderr, seconds, peak RSS MB) of one CLI run."""
        out_path, err_path, spans_path = self.tmp / "stdout", self.tmp / "stderr", self.tmp / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "dominion", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *args]
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            try:
                with _deadline(self.time_left(), proc.kill):
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        if tracer is not None and spans_path.exists():
            tracer.add_child(spans_path, start, start + seconds)
            spans_path.unlink()
        return proc.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024

    def run_op(self, op: workloads.Op, tracer=None) -> Outcome:
        if op.call is None:
            code, stdout, stderr, seconds, rss = self.run_cli(op.argv, tracer)
            failed, wrong = verdict(code, stderr, code == 0 and op.check(stdout))
            note = stderr.strip().splitlines()[-1] if failed and stderr.strip() else ""
            return Outcome(seconds, rss, failed, wrong, note or (f"exit {code}" if failed else ""))
        start = perf_counter()
        try:
            with _deadline(self.time_left(), _raise_timeout):
                value = op.call()
        except Exception:  # the op failed; record it and go on with the run
            seconds = perf_counter() - start
            note = traceback.format_exc().strip().splitlines()[-1]
            return Outcome(seconds, _self_rss_mb(), True, False, note)
        seconds = perf_counter() - start
        failed, wrong = verdict(0, "", op.check(value))
        return Outcome(seconds, _self_rss_mb(), failed, wrong, "wrong answer" if wrong else "")


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    traced: bool
    wall: float
    outcomes: list


def setup(runner: Runner, workload: str, scale: str, seed: int) -> tuple[int, list]:
    """Reference loading, input generation and one cold start of the CLI."""
    index, ops = workloads.build(workload, scale, seed, runner.tmp)
    code, _, stderr, _, _ = runner.run_cli(["--help"])
    if code != 0:
        raise RuntimeError(f"`python -m dominion --help` exited {code}: {stderr.strip()}")
    return index, ops


def measure(runner: Runner, ops: list, seconds: float, tracer) -> tuple[list[Pass], list[str]]:
    """Closed-loop passes; with a tracer, every second pass is traced."""
    in_process = any(op.call is not None for op in ops)
    passes, kinds = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced and in_process:
            tracer.install()
        outcomes = []
        began = perf_counter()
        try:
            for op in ops:
                if runner.time_left() <= 0:
                    break
                if traced:
                    tracer.op = len(kinds)
                kinds.append(op.kind)
                outcomes.append((op, runner.run_op(op, tracer if traced else None)))
        finally:
            if traced and in_process:
                tracer.uninstall()
        passes.append(Pass(traced, perf_counter() - began, outcomes))
        if runner.time_left() <= 0:
            break
    return passes, kinds


def _quantiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else values * 9


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    timed = [p for p in passes if not p.traced]
    walls = [p.wall for p in timed]
    op_s = [o.seconds for p in timed for _, o in p.outcomes]
    everything = [o for p in passes for _, o in p.outcomes]
    quant = _quantiles(op_s)
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(op_s) / sum(walls),
        "vertices_per_s": sum(op.vertices for p in timed for op, _ in p.outcomes) / sum(walls),
        "op_p50_ms": quant[4] * 1e3,
        "op_p90_ms": quant[8] * 1e3,
        "peak_rss_mb": max(o.rss_mb for o in everything),
        "ok_op_share": sum(not o.failed for o in everything) / len(everything),
        "setup_s": statistics.median(setups),
    }


def _commit(root: Path) -> str | None:
    """HEAD of a git checkout at `root`, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "dominion").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def _meta(args, root: Path, pool_index: int, passes: list[Pass], setup_runs: int) -> dict:
    """Machine, code and input facts, sample counts, the first failure of
    each op kind, median op times, and the seed-commit baseline."""
    failures, op_seconds = {}, {}
    for p in passes:
        for op, o in p.outcomes:
            if o.failed:
                failures.setdefault(op.kind, o.note)
            if not p.traced:
                op_seconds.setdefault(op.kind, []).append(o.seconds)
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pool_index": pool_index,
        "scale": args.scale,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "samples": {
            "passes": sum(not p.traced for p in passes),
            "traced_passes": sum(p.traced for p in passes),
            "ops": sum(len(p.outcomes) for p in passes if not p.traced),
            "setup_runs": setup_runs,
        },
        "failures": failures,
        "op_median_s": {kind: statistics.median(t) for kind, t in op_seconds.items()},
        "baseline": baseline["workloads"].get(args.workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; tiny is for smoke tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dominion" / "__init__.py").is_file():
        print("error: run from the repository root; src/dominion is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workloads.import_package(root)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, tmp.relative_to(root))
        setups = []
        for _ in range(SETUP_RUNS):
            began = perf_counter()
            pool_index, ops = setup(runner, args.workload, args.scale, args.seed)
            setups.append(perf_counter() - began)
        tracer = tracing.Tracer() if args.trace else None
        # Keep the benchmark's own objects out of the measured ops' collections.
        gc.collect()
        gc.freeze()
        passes, kinds = measure(runner, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = [o for p in passes for _, o in p.outcomes]
    meta = _meta(args, root, pool_index, passes, len(setups))

    if args.trace:
        traced = [p for p in passes if p.traced]
        overhead = statistics.median(p.wall for p in traced) - statistics.median(
            p.wall for p in passes if not p.traced)
        values = tracing.layer_metrics(tracer.spans, len(traced), sum(len(p.outcomes) for p in traced), overhead)
        meta["layers_by_op"] = tracing.by_op_kind(tracer.spans, kinds)
        declared = spec["per_layer"]
    else:
        values = end_to_end(passes, setups)
        declared = spec["end_to_end"]
    result = {
        "correct": not any(o.wrong for o in everything),
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
