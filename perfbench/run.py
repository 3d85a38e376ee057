"""Benchmark of the trihex command-line tool.

    python3 perfbench/run.py --workload {emit,construct,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/trihex`.  The benchmark
drives `python -m trihex.cli` as a closed loop with one client: every
command is a fresh process, started only after the previous one has
exited, so at most one child runs at a time.  Each child is reaped with
os.wait4, which gives its own peak RSS.

--trace 0 measures set-up, then repeats the workload's command list while
another whole pass fits in --seconds (at least one pass), and reports the
end-to-end metrics.  --trace 1 measures set-up and one untraced pass, then
runs every command again under perfbench/tracer.py, which replays its
calls into each layer, and reports the per-layer metrics.  Every output
is checked; a failed command or check counts in `failed` and stays in the
timings.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Per-command records,
spans and the exact counts go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_ARGS = ("convert", "--int", "0", "--base", "2")   # a command that does no work
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0   # stop starting commands; a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_out": "count",
    "fractal.ifs_prefractal_s": "s", "fractal.squares_per_s": "1/s",
    "fractal.squares_built": "count", "fractal.iterate_last_s": "s",
    "fractal.canonicalise_s": "s", "fractal.alloc_peak_mb": "MiB",
    "fractal.by_digits_s": "s", "fractal.by_digits_keep_ratio": "ratio",
    "fractal.equal_s": "s", "fractal.to_json_s": "s", "fractal.from_json_s": "s",
    "fractal.member_s": "s", "fractal.member_states": "count",
    "fractal.member_states_per_s": "1/s", "fractal.member_alive_ratio": "ratio",
    "radix.digit_choices_s": "s", "radix.numeral_s": "s",
    "dimension.box_count_s": "s", "dimension.box_count_self_s": "s",
    "render.rasterize_s": "s", "render.write_pbm_s": "s", "render.write_svg_s": "s",
    "render.pbm_fill_ratio": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
NUMERAL_SPANS = ["radix.int_to_digits", "radix.digits_to_rational", "radix.parse_numeral",
                 "radix.format_numeral", "radix.add", "radix.carry_free"]


class DeadlinePassed(Exception):
    """The run is out of time; no further command is started."""


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: str
    timed_out: bool


class ChildRunner:
    """Starts one child at a time from the checkout root and reaps it with wait4."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.started = time.perf_counter()

    def run(self, argv: list[str]) -> Outcome:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise DeadlinePassed
        killed = threading.Event()
        err_path = WORK / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err, cwd=ROOT, env=self.env)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(min(COMMAND_TIMEOUT_S, left), kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode, out,
                       err_path.read_text(errors="replace"), killed.is_set())


def cli_argv(cmd: Command) -> list[str]:
    return [*cmd.args, "--out", str(WORK / cmd.out)] if cmd.out else list(cmd.args)


def judge(cmd: Command, res: Outcome, stdout: bytes) -> tuple[str | None, int]:
    """The fault in a finished command, or None, and the bytes it wrote."""
    if res.timed_out:
        return "timed out", 0
    if res.rc != 0:
        lines = res.stderr.strip().splitlines()
        return f"exit code {res.rc}: {lines[-1] if lines else ''}", 0
    data = stdout
    if cmd.out:
        if stdout:
            return "printed output besides --out", len(stdout)
        path = WORK / cmd.out
        data = path.read_bytes()
        path.unlink()
    try:
        fault = cmd.check(data)
    except Exception as exc:  # a malformed output can break the check itself
        fault = f"output check raised {exc!r}"
    return fault, len(stdout) + (len(data) if cmd.out else 0)


@dataclass
class Sample:
    cmd: int
    wall: float
    rss_mb: float
    fault: str | None
    bytes_out: int


def untraced(runner: ChildRunner, i: int, cmd: Command) -> Sample:
    try:
        res = runner.run([sys.executable, "-m", "trihex.cli", *cli_argv(cmd)])
    except DeadlinePassed:
        return Sample(i, 0.0, 0.0, "not started: run deadline passed", 0)
    fault, nbytes = judge(cmd, res, res.stdout)
    return Sample(i, res.wall, res.rss_mb, fault, nbytes)


def traced(runner: ChildRunner, i: int, cmd: Command, spans: list, counts: Counter,
           peaks: list) -> Sample:
    captured = WORK / "traced.stdout"
    try:
        res = runner.run([sys.executable, str(TRACER), str(captured), "--", *cli_argv(cmd)])
    except DeadlinePassed:
        return Sample(i, 0.0, 0.0, "not started: run deadline passed", 0)
    fault, nbytes = judge(cmd, res, captured.read_bytes() if res.rc == 0 else b"")
    if res.rc == 0:
        report = json.loads(res.stdout.splitlines()[-1])
        if report["rc"] != 0:
            fault = fault or f"cli.run returned {report['rc']}"
        spans.extend([i, *s] for s in report["spans"])
        counts.update(report["counts"])
        peaks.append(report["alloc_peak"])
        if report["counts"].get("bytes_out", 0) != nbytes:
            fault = fault or "tracer and benchmark disagree on bytes written"
    return Sample(i, res.wall, res.rss_mb, fault, nbytes)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def measure_setup(runner: ChildRunner, samples: list[Sample]) -> float:
    """Median wall time of a command that does no work, after one warm-up."""
    noop = Command(SETUP_ARGS, lambda data: None if data == b"[0]@2b0\n" else f"printed {data!r}")
    walls = []
    for k in range(SETUP_REPEATS + 1):
        s = untraced(runner, -1, noop)
        samples.append(s)
        if k:
            walls.append(s.wall)
    return statistics.median(walls)


def measure_import(runner: ChildRunner) -> float:
    """Median of `import trihex.cli` minus a bare interpreter start."""
    diffs = []
    for _ in range(IMPORT_REPEATS):
        walls = []
        for code in ("import trihex.cli", "pass"):
            res = runner.run([sys.executable, "-c", code])
            if res.rc != 0:
                raise SystemExit(f"python -c {code!r} failed: {res.stderr.strip()}")
            walls.append(res.wall)
        diffs.append(walls[0] - walls[1])
    return statistics.median(diffs)


def self_times(spans: list) -> tuple[dict, dict, dict]:
    """Totals and self times (span minus its children) by name, and totals
    by (command, name)."""
    dur = {(c, sid): end - start for c, sid, _, _, start, end in spans}
    child = defaultdict(float)
    for c, sid, parent, _, _, _ in spans:
        if parent is not None:
            child[(c, parent)] += dur[(c, sid)]
    total, own, per_cmd = defaultdict(float), defaultdict(float), defaultdict(float)
    for c, sid, _, name, _, _ in spans:
        total[name] += dur[(c, sid)]
        own[name] += dur[(c, sid)] - child[(c, sid)]
        per_cmd[(c, name)] += dur[(c, sid)]
    return total, own, per_cmd


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list, counts: Counter, peaks: list, import_s: float,
                      traced_wall: float, untraced_wall: float) -> dict:
    total, own, per_cmd = self_times(spans)
    dim_cmds = {c for c, name in per_cmd if name == "dimension.box_count_estimate"}
    box_self = sum((per_cmd[(c, "dimension.box_count_estimate")]
                    - per_cmd[(c, "fractal.ifs_prefractal")] for c in dim_cmds), 0.0)
    return {
        "cli.import_s": import_s,
        # cli.run minus the layer calls it makes, as replayed under `replay`
        "cli.self_s": total["cli.run"] - (total["replay"] - own["replay"]),
        "cli.bytes_out": counts["bytes_out"],
        "fractal.ifs_prefractal_s": total["fractal.ifs_prefractal"],
        "fractal.squares_per_s": ratio(counts["squares_built"], total["fractal.ifs_prefractal"]),
        "fractal.squares_built": counts["squares_built"],
        "fractal.iterate_last_s": total["fractal.iterate_last"],
        "fractal.canonicalise_s": total["fractal.canonicalise"],
        "fractal.alloc_peak_mb": max(peaks, default=0) / 2**20,
        "fractal.by_digits_s": total["fractal.prefractal_by_digits"],
        "fractal.by_digits_keep_ratio": ratio(counts["by_digits_kept"], counts["by_digits_scanned"]),
        "fractal.equal_s": total["fractal.equal"],
        "fractal.to_json_s": total["fractal.prefractal_to_json"],
        "fractal.from_json_s": total["fractal.prefractal_from_json"],
        "fractal.member_s": total["fractal.member"],
        "fractal.member_states": counts["member_states"],
        "fractal.member_states_per_s": ratio(counts["member_states"], total["fractal.member"]),
        "fractal.member_alive_ratio": ratio(counts["member_alive"], counts["member_states"]),
        "radix.digit_choices_s": total["radix.frac_digit_choices"],
        "radix.numeral_s": sum(total[name] for name in NUMERAL_SPANS),
        "dimension.box_count_s": total["dimension.box_count_estimate"],
        "dimension.box_count_self_s": box_self,
        "render.rasterize_s": total["render.rasterize"],
        "render.write_pbm_s": total["render.write_pbm"],
        "render.write_svg_s": total["render.write_svg"],
        "render.pbm_fill_ratio": ratio(counts["pbm_squares"], counts["pbm_pixels"]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
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
    return None


def source_digest() -> str:
    """SHA-256 over src/trihex: names the code measured when there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trihex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def stamp(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def check_counts_repeat(meta: dict, counts: Counter) -> str | None:
    """Exact counts must match any earlier run of the same code and seed."""
    path = WORK / f"counts-{meta['workload']}-{meta['seed']}-{meta['src_sha256'][:16]}.json"
    exact = dict(sorted(counts.items()))
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != exact:
            return f"exact counts differ from an earlier run with the same code and seed: {path}"
    else:
        path.write_text(json.dumps(exact))
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "trihex" / "cli.py").is_file():
        print(f"no trihex sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    meta = stamp(args)
    cmds = WORKLOADS[args.workload](args.seed)
    runner = ChildRunner()
    samples: list[Sample] = []
    problem = None   # a failed self-check of the exact counts

    setup_s = measure_setup(runner, samples)
    passes: list[list[Sample]] = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append([untraced(runner, i, c) for i, c in enumerate(cmds)])
        took = time.perf_counter() - t0
        if args.trace or time.perf_counter() - begin + took > args.seconds:
            break
    for p in passes:
        samples.extend(p)
    wall_s = statistics.median(sum(s.wall for s in p) for p in passes)
    e2e = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": max(s.rss_mb for s in samples)}
    # Each command's latency is its median over the passes.  The percentiles
    # are printed, not gated: only query has enough commands for a p90.
    latency = [statistics.median(p[i].wall for p in passes) for i in range(len(cmds))]
    beyond_p90 = len(latency) - math.ceil(0.9 * len(latency))

    if args.trace:
        spans: list = []
        counts: Counter = Counter()
        peaks: list = []
        import_s = measure_import(runner)
        tpass = [traced(runner, i, c, spans, counts, peaks) for i, c in enumerate(cmds)]
        samples.extend(tpass)
        for s, u in zip(tpass, passes[0]):
            if s.fault is None and u.fault is None and s.bytes_out != u.bytes_out:
                s.fault = "traced and untraced runs wrote different byte counts"
        metrics = per_layer_metrics(spans, counts, peaks, import_s,
                                    sum(s.wall for s in tpass), wall_s)
        units = PER_LAYER
        problem = check_counts_repeat(meta, counts)
        total, own, _ = self_times(spans)
        (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "meta": meta,
            "span_fields": ["command", "id", "parent", "name", "start", "end"],
            "spans": spans,
            "by_name": {n: {"total_s": total[n], "self_s": own[n]} for n in sorted(total)},
            "counts": counts,
            "commands": [c.label for c in cmds],
        }))
        for name in sorted(total):
            print(f"span {name:34s} total {total[name]:10.4f} s  self {own[name]:10.4f} s")
    else:
        metrics = e2e
        units = END_TO_END

    failed = [s for s in samples if s.fault]
    for s in failed[:20]:
        label = cmds[s.cmd].label if s.cmd >= 0 else " ".join(SETUP_ARGS)
        print(f"FAILED {label[:100]}: {s.fault}", file=sys.stderr)
    if problem:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in e2e.items():
        print(f"{name} = {value!r} {END_TO_END[name]}")
    print(f"cmd_p50_s = {nearest_rank(latency, 0.5)!r} s")
    print(f"cmd_p90_s = {nearest_rank(latency, 0.9)!r} s ({len(latency)} commands, "
          f"{beyond_p90} beyond p90, each the median of {len(passes)} pass(es))")
    print(f"error_rate = {len(failed) / len(samples)!r} ({len(failed)} of {len(samples)} commands)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]}")
    print("stamp " + json.dumps(meta))
    result = {
        "correct": not failed and not problem,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "meta": meta, "result": result, "end_to_end": e2e, "passes": len(passes),
        "commands": len(cmds), "latency_s": latency,
        "samples": [[s.cmd, s.wall, s.rss_mb, s.fault] for s in samples],
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
