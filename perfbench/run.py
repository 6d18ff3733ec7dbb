#!/usr/bin/env python3
"""End-to-end benchmark of the ultratree CLI, and a traced per-layer run.

    python3 perfbench/run.py --workload ultra_matrix --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
./src, nothing is installed.  Set-up generates the workload's inputs from
the seed, writes them to perfbench/.work/ and makes one warm-up CLI call; it
is repeated SETUPS times and its median is reported.  The untraced run
(--trace 0) then runs the workload's op list through `python3 -m
ultratree.cli` as a closed loop with one client, one subprocess at a time,
in whole passes while the next pass fits in --seconds (at least one pass),
and checks every output with checkers that do not use the package.  The
traced run (--trace 1) measures CLI start-up, makes one untraced CLI pass
for reference, then replays the ops in process with a span around every
public call (see spans.py) and reports per-layer metrics.

Times are scaled to a reference machine speed.  On a shared host the speed
of the whole machine drifts by a fifth within a minute, so after every
PROBE_EVERY ops the run also starts the bare interpreter (`python3 -c
pass`), which runs no code of the package.  An op's latency is multiplied by
REF_START_S over the median of the PROBE_WINDOW probes nearest to it; the
per-layer times use the median of all probes of the run.  Set-up is mostly
the generator's pure-Python work, which the start-up probe tracks poorly, so
each set-up's time is instead multiplied by REF_CALIBRATE_S over the mean of
calibrate() run just before and just after it.  The raw figures are printed
next to the scaled ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `correct` is false when an op that is not a listed known defect
fails; known-defect failures still count in `failed`.  `--workload all`
runs every workload in turn, each in a process of its own.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUPS = 5  # set-ups per run; setup_s is their median
STARTUP_CALLS = 11  # `ultratree --help` calls behind cli.startup_s
PROBE_EVERY = 2  # ops between two speed probes
PROBE_WINDOW = 15  # probes around an op that give its local speed
REF_START_S = 0.05  # start-up of the bare interpreter on the reference machine
REF_CALIBRATE_S = 0.035  # calibrate() on the reference machine (2-core Intel Xeon, Python 3.11)
OP_TIMEOUT_S = 60
RUN_LIMIT_S = 140  # no new op starts after this; a run must end within 180 s

# end-to-end metrics of the result line, as listed in BENCHMARK.json
END_TO_END = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# ROADMAP baseline rows the traced run reproduces: (op, span, row)
BASELINE_ROWS = (
    ("repr.csv.n100", "metrics.classify_metric", "classify() n=100"),
    ("repr.csv.n100", "representing.representing_tree", "representing_tree n=100"),
    ("repr.caterpillar.n100", "representing.representing_tree", "representing_tree caterpillar n=100"),
)


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_cli(argv, cwd: Path) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one CLI subprocess; the
    code is None when it timed out and was killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ultratree.cli", *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    dt = time.perf_counter() - t0
    return code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), dt


class Speed:
    """Start-up times of the bare interpreter, taken between ops."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REF_START_S / statistics.median(self.samples)

    def local_scale(self, anchor: int) -> float:
        """The same factor from the probes nearest to the one numbered anchor."""
        lo = max(0, min(anchor, len(self.samples)) - PROBE_WINDOW // 2)
        return REF_START_S / statistics.median(self.samples[lo : lo + PROBE_WINDOW])

    def describe(self) -> str:
        return (f"speed probe: bare interpreter start {statistics.median(self.samples):.4f} s "
                f"(median of n={len(self.samples)}); times scaled by {self.scale():.4f}")


def calibrate() -> float:
    """Seconds of a fixed pure-Python job of the generator's kind (random
    Fractions, strings, JSON), which runs no code of the package."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    json.dumps({f"v{i}": str(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))) for i in range(15000)})
    return time.perf_counter() - t0


def setup(workload: str, seed: int) -> tuple[gen.Workload, Path, float]:
    """Generate and write the inputs, then one warm-up CLI call."""
    t0 = time.perf_counter()
    w = gen.build(workload, seed)
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in w.files.items():
        (work / name).write_text(text, encoding="utf-8")
    code, _, err, _ = run_cli(["--help"], work)
    if code != 0:
        raise SystemExit(f"warm-up CLI call failed ({code}): {err.strip()[-300:]}")
    return w, work, time.perf_counter() - t0


def passes_within(seconds: float, t_start: float, one_pass) -> list:
    """Whole passes while the next one fits in `seconds`; at least one."""
    passes, pass_times, t_begin = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        pass_times.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if now - t_begin + statistics.mean(pass_times) > seconds:
            break
        if now - t_start + max(pass_times) > RUN_LIMIT_S:
            break
    return passes


def cli_pass(w: gen.Workload, work: Path, speed: Speed, t_start: float) -> list:
    """(exit code, stdout, stderr, seconds, number of the next probe) per op."""
    results = []
    for i, op in enumerate(w.ops):
        if time.perf_counter() - t_start > RUN_LIMIT_S:
            break  # the ops not started count as not attempted
        results.append(run_cli(op.argv, work) + (len(speed.samples),))
        if i % PROBE_EVERY == PROBE_EVERY - 1:
            speed.probe()
    return results


def judge(w: gen.Workload, passes) -> list[tuple[int, str | None]]:
    """(op index, failure reason or None) for every attempt.  The first pass
    goes through the checkers; later passes must repeat its result."""
    reasons = {}
    out = []
    for p, results in enumerate(passes):
        for i, (code, stdout, stderr, *_) in enumerate(results):
            if p == 0:
                why = check.check(w.ops[i], code, stdout, stderr, w.files.__getitem__)
                reasons[i] = why
            elif (code, stdout, bool(stderr)) != passes[0][i][:2] + (bool(passes[0][i][2]),):
                why = "output differs from the first pass"
            else:
                why = reasons[i]
            out.append((i, why))
    return out


def summarize(w: gen.Workload, verdicts) -> tuple[bool, int, int]:
    failed = [(i, why) for i, why in verdicts if why is not None]
    shown = set()
    for i, why in failed:
        op = w.ops[i]
        if (op.name, why) not in shown:
            shown.add((op.name, why))
            tag = f"known defect: {op.known_defect}" if op.known_defect else "FAIL"
            print(f"  {tag}\n    {op.name}: {why}")
    correct = all(w.ops[i].known_defect for i, _ in failed)
    return correct, len(verdicts), len(failed)


def show(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:38s} {value:14.6g} {unit:6s} {note}")


def untraced(w, work, seconds: float, setups: list[tuple[float, float]], speed: Speed) -> dict:
    """setups: (raw seconds, scaled seconds) per set-up."""
    t_start = time.perf_counter()
    passes = passes_within(seconds, t_start, lambda p: cli_pass(w, work, speed, t_start))
    verdicts = judge(w, passes)
    correct, attempted, failed = summarize(w, verdicts)
    raw = [r[3] for results in passes for r in results]
    lat = [r[3] * speed.local_scale(r[4]) for results in passes for r in results]
    ok = sum(why is None for _, why in verdicts)
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[-1]
    above = sum(x > p90 for x in lat)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (ok / sum(lat), f"raw {ok / sum(raw):.4g}; {ok} ops completed in {sum(raw):.2f} s of CLI time"),
        "latency_p50_s": (p50, f"raw {statistics.median(raw):.4g}; n={len(lat)}, {sum(x > p50 for x in lat)} above"),
        "latency_p90_s": (p90, f"raw {statistics.quantiles(raw, n=10)[-1]:.4g}; n={len(lat)}, {above} above"),
        "setup_s": (
            statistics.median(scaled for _, scaled in setups),
            f"raw {statistics.median(raw for raw, _ in setups):.4g}; median of n={SETUPS} set-ups, "
            "each scaled by calibrate() run before and after it",
        ),
        "peak_rss_mb": (rss, f"largest of the n={len(lat) + SETUPS} CLI child processes"),
    }
    print(f"end-to-end metrics, {len(passes)} pass(es) of {len(w.ops)} ops; {speed.describe()}:")
    for name, (value, note) in metrics.items():
        show(name, value, END_TO_END[name], note)
    show("failed_frac", failed / attempted, "1", f"{failed} of {attempted} ops (reported as attempted/failed)")
    if above < 10:
        print(f"  warning: only {above} samples above p90")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": END_TO_END[name]} for name, (v, _) in metrics.items()},
    }


def load_package():
    """The package under test, from ./src and nowhere else."""
    sys.path.insert(0, str(SRC))
    names = ("cli", "io", "errors", "metrics")
    mods = {n: importlib.import_module(f"ultratree.{n}") for n in names}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "ultratree":
        raise SystemExit(f"ultratree imported from {mods['cli'].__file__}, not {SRC}")
    return argparse.Namespace(**mods)


def traced(w, work, seconds: float, speed: Speed) -> dict:
    t_start = time.perf_counter()
    help_s = []
    for _ in range(STARTUP_CALLS):
        help_s.append(run_cli(["--help"], work)[3])
        speed.probe()
    startup = statistics.median(help_s)
    reference = cli_pass(w, work, speed, t_start)
    replayer = spans.Replayer(load_package())
    tr = replayer.tracer

    def replay_pass(p: int) -> list:
        tr.pass_no, results = p, []
        for i, op in enumerate(w.ops):
            results.append(replayer.run(i, op.argv) + (0.0, 0))
            if i % PROBE_EVERY == PROBE_EVERY - 1:
                speed.probe()
        return results

    cwd = os.getcwd()
    os.chdir(work)  # the ops name their inputs relative to the work dir
    try:
        passes = passes_within(seconds, t_start, replay_pass)
    finally:
        os.chdir(cwd)
    verdicts = judge(w, passes)
    correct, attempted, failed = summarize(w, verdicts)
    mismatch = sum(r[:2] != c[:2] or bool(r[2]) != bool(c[2]) for r, c in zip(passes[0], reference))

    k = speed.scale()
    layer = tr.layer_metrics()
    for name in spans.TIME_METRICS:
        layer[name] *= k
    layer["cli.startup_s"] = startup * k
    layer["cli.replay_mismatches"] = mismatch
    op_spans = [s for s in tr.spans if s["parent"] is None and s["name"].startswith("cli.") and s["pass"] == 0]
    traced_s = sum(s["end_ns"] - s["start_ns"] for s in op_spans) / 1e9
    untraced_s = sum(r[3] for r in reference) - startup * len(reference)
    layer["trace.overhead_frac"] = traced_s / untraced_s - 1

    units = dict.fromkeys(spans.TIME_METRICS, "s") | spans.REPORTED
    print(f"per-layer metrics, {len(passes)} traced pass(es) of {len(w.ops)} ops, median over passes of each "
          f"pass's total; * = printed only, not in the result line; {speed.describe()}:")
    for name in sorted(layer):
        show(name, layer[name], units.get(name, "count"), "" if name in spans.REPORTED else "*")
    print(f"  tracing overhead: traced op spans {traced_s:.3f} s against {untraced_s:.3f} s of CLI time "
          f"less {len(reference)} x {startup:.4f} s start-up (raw times)")

    self_t = tr.self_times()
    for op_name, span, row in BASELINE_ROWS:
        times = [t for s, t in zip(tr.spans, self_t) if s["name"] == span and w.ops[s["op"]].name == op_name]
        if times:
            med = statistics.median(times)
            print(f"  baseline row: {row}: {med:.3f} s raw, {med * k:.3f} s scaled (n={len(times)})")

    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{w.name}-{w.seed}.json"
    out.write_text(json.dumps({
        "workload": w.name, "seed": w.seed, "machine": machine_info(), "inputs_sha256": w.digest(),
        "speed_scale": k, "ops": [op.name for op in w.ops], "spans": tr.spans, "self_s": self_t,
    }), encoding="utf-8")
    print(f"  spans: {out.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in spans.REPORTED.items()},
    }


def run(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    speed = Speed()
    setups = []
    for _ in range(SETUPS):
        before = calibrate()
        w, work, seconds_raw = setup(workload, seed)
        scale = 2 * REF_CALIBRATE_S / (before + calibrate())
        setups.append((w, work, seconds_raw, seconds_raw * scale))
    digests = {w.digest() for w, *_ in setups}
    if len(digests) != 1:
        raise SystemExit("set-ups of one seed produced different inputs")
    w, work, *_ = setups[-1]
    print(f"workload {workload}, seed {seed}: {len(w.ops)} ops, {len(w.files)} input files, "
          f"inputs sha256 {digests.pop()}")
    print("machine: " + json.dumps(machine_info()))
    try:
        if trace_on:
            return traced(w, work, seconds, speed)
        return untraced(w, work, seconds, [(raw, scaled) for _, _, raw, scaled in setups], speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ultratree" / "cli.py").is_file():
        print(f"no ultratree sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))), flush=True)
        return 0
    # one process per workload, so peak_rss_mb covers that workload's children only
    for workload in gen.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run([sys.executable, __file__, *argv]).returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
