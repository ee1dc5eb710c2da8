#!/usr/bin/env python3
"""Campaign benchmark: times the `campaign` binary on one workload.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload campaign_cold --seed 1995 \
        --seconds 10 --trace 0

It builds `campaign`, the traced mirror and the calibration kernel in
`campaign_bench/tracer` (into `$CARGO_TARGET_DIR`, default `.bench_build`),
brings the workload to its timed start state three times (`setup_s` is
their median), then runs the campaign back to back for `--seconds`
seconds, one process at a time on one worker thread. The kernel runs
before the first campaign process and after each one; the end-to-end times
are scaled by it (see `scale`). Every run is checked (see
`check_campaign`); its wall, CPU, steal, peak RSS and calibration are
printed, and the last stdout line is one JSON object with the end-to-end
metrics (`--trace 0`) or the per-layer metrics of one extra traced run
(`--trace 1`). See README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1995
SETUPS = 3
# Timings are scaled to a host on which the calibration kernel
# (tracer/src/bin/calibrate.rs) takes this long; see `scale`.
CALIB_REF_S = 0.3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# The five-macro campaign of the cold and warm workloads: the 2 most
# frequent classes per macro against a 2x2 Monte-Carlo good space.
CAMPAIGN_KNOBS = {
    "DOTM_DEFECTS": "25000",
    "DOTM_MAX_CLASSES": "2",
    "DOTM_GS_COMMON": "2",
    "DOTM_GS_MM": "2",
}


class Workload:
    def __init__(self, knobs, warm, fig4):
        self.knobs = knobs
        # Warm: the store is filled during setup and every timed run
        # replays it; otherwise every timed run starts from an empty store.
        self.warm = warm
        # Fig. 4 panels at DEFAULT_SEED: (voltage, current, coverage) in
        # percent for (a) catastrophic and (b) non-catastrophic faults.
        self.fig4 = fig4

    def max_classes(self):
        n = int(self.knobs.get("DOTM_MAX_CLASSES", "0"))
        return n or None


CAMPAIGN_FIG4 = {"a": (86.6, 85.1, 100.0), "b": (55.7, 85.1, 100.0)}

WORKLOADS = {
    "campaign_cold": Workload(CAMPAIGN_KNOBS, warm=False, fig4=CAMPAIGN_FIG4),
    "campaign_warm": Workload(CAMPAIGN_KNOBS, warm=True, fig4=CAMPAIGN_FIG4),
    "ladder_dc": Workload(
        {"DOTM_MACROS": "ladder", "DOTM_MAX_CLASSES": "300"},
        warm=False,
        fig4={"a": (68.7, 33.0, 93.2), "b": (5.1, 0.0, 5.1)},
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "ok_frac": "fraction",
}

TRACER_METRICS = [
    "defects.sprinkle_s",
    "defects.classes",
    "goodspace.compile_s",
    "goodspace.nr_solves",
    "pipeline.class_eval_s",
    "pipeline.escalated_classes",
    "sim.nr_solves",
    "sim.nr_iterations",
    "sim.tran_steps",
    "sim.rejected_steps",
    "sim.singular_pivots",
    "sim.warm_hits",
    "sim.warm_misses",
    "sim.warm_hit_ratio",
    "sim.factor_reuse_hits",
    "sim.factor_refactor_fallbacks",
    "sim.factor_reuse_ratio",
    "sim.lockstep_prime_hits",
    "sim.newton_s",
    "sim.newton_calls",
    "sim.lu_s",
    "sim.assembly_s",
    "sim.batch_assembly_s",
    "sim.lockstep_s",
    "store.load_s",
    "store.loads",
    "store.hit_ratio",
    "store.write_s",
    "store.writes",
    "store.contains_s",
    "store.contains_calls",
    "journal.record_s",
    "journal.records",
]

HARNESS_METRICS = [
    "pipeline.class_p50_ms",
    "pipeline.class_tail_ms",
    "pipeline.class_tail_pct",
    "pipeline.classes_timed",
    "campaign.unattributed_s",
    "trace.wall_s",
    "trace.overhead_s",
    "host.steal_s",
    "host.calib_s",
]

PER_LAYER = TRACER_METRICS + HARNESS_METRICS

# The `dotm_serve::exit` contract; any other code classifies as io.
EXIT_NAMES = {
    0: "ok",
    1: "uncategorised",
    2: "usage",
    3: "stale-shard",
    4: "io",
    5: "interrupted",
}


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def exit_name(code):
    if code < 0:
        return f"signal {-code}"
    return EXIT_NAMES.get(code, "io")


# ---------------------------------------------------------------- statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / q2


def tail_percentile(n, beyond=10):
    """The highest whole percentile, from 50 to 99, whose nearest-rank sample
    leaves at least `beyond` samples above it; 0 when even the median
    does not."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return 0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def scale(calibs):
    """Factor that turns the times of one invocation into seconds on the
    reference host. The host's speed drifts over minutes and the kernel,
    run between the campaign processes, tracks it; the median keeps one
    disturbed calibration from moving the factor."""
    return CALIB_REF_S / median(calibs)


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no class evaluation was attempted")
    return failed / attempted


# ------------------------------------------------------------------- parsers


class FormatDrift(Exception):
    """A line the benchmark reads is missing or changed shape."""


MACRO_RE = re.compile(
    r"^  (\S+) +(\d+) faults / +(\d+) classes  store: loads=(\d+) hits=(\d+) "
    r"misses=(\d+) computed=(\d+) fingerprint=([0-9a-f]{16})$",
    re.M,
)
STORE_RE = re.compile(
    r"^campaign store accounting: loads=(\d+) mem_hits=(\d+) disk_hits=(\d+) "
    r"misses=(\d+) computed=(\d+) write_errors=(\d+) context_mismatches=(\d+) "
    r"hit_rate=[\d.]+%$",
    re.M,
)
OCCUPANCY_RE = re.compile(
    r"^campaign store occupancy: entries=(\d+) bytes=(\d+) name_digest=[0-9a-f]{16}$",
    re.M,
)
FIG4_RE = re.compile(
    r"^\((a|b) — [a-z-]+\)\n"
    r"  voltage detectable: +([\d.]+)%\n"
    r"  current detectable: +([\d.]+)%\n"
    r"  total fault coverage: +([\d.]+)%$",
    re.M,
)


def _count_line(text, label):
    m = re.search(r"^  " + re.escape(label) + r": +(\d+)$", text, re.M)
    if not m:
        raise FormatDrift(f"no '{label}' line in the accounting block")
    return int(m.group(1))


def parse_macros(text):
    """Per-macro report lines, in campaign order."""
    macros = [
        {
            "name": m.group(1),
            "faults": int(m.group(2)),
            "classes": int(m.group(3)),
            "loads": int(m.group(4)),
            "hits": int(m.group(5)),
            "misses": int(m.group(6)),
            "computed": int(m.group(7)),
            "fingerprint": m.group(8),
        }
        for m in MACRO_RE.finditer(text)
    ]
    if not macros:
        raise FormatDrift("no per-macro report line")
    return macros


def parse_store_line(text):
    m = STORE_RE.search(text)
    if not m:
        raise FormatDrift("no 'campaign store accounting' line")
    keys = ("loads", "mem_hits", "disk_hits", "misses", "computed", "write_errors",
            "context_mismatches")
    return dict(zip(keys, map(int, m.groups())))


def parse_occupancy(text):
    m = OCCUPANCY_RE.search(text)
    if not m:
        raise FormatDrift("no 'campaign store occupancy' line")
    return {"entries": int(m.group(1)), "bytes": int(m.group(2))}


def parse_accounting(text):
    return {
        "sim_failed": _count_line(text, "sim-failed classes"),
        "inject_failed": _count_line(text, "inject-failed classes"),
        "escalated": _count_line(text, "escalated classes"),
    }


def parse_fig4(text):
    panels = {m.group(1): tuple(float(g) for g in m.groups()[1:]) for m in FIG4_RE.finditer(text)}
    if sorted(panels) != ["a", "b"]:
        raise FormatDrift(f"expected Fig. 4 panels a and b, found {sorted(panels)}")
    return panels


def parse_campaign(text):
    out = {
        "macros": parse_macros(text),
        "store": parse_store_line(text),
        "occupancy": parse_occupancy(text),
        "fig4": parse_fig4(text),
    }
    out.update(parse_accounting(text))
    out["fingerprints"] = {m["name"]: m["fingerprint"] for m in out["macros"]}
    return out


def classes_evaluated(macros, max_classes):
    return sum(m["classes"] if max_classes is None else min(m["classes"], max_classes)
               for m in macros)


# ------------------------------------------------------------------ processes


def read_steal():
    """Host steal time so far, summed over all CPUs, in seconds."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class Child:
    """One finished child process, measured from spawn to reap."""

    def __init__(self, wall, cpu, rss_mb, steal, code, stdout):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.steal = steal
        self.code = code
        self.stdout = stdout


def run_child(argv, env, log_prefix):
    """Runs `argv` with stdout and stderr going to files, blocking in
    `wait4` until it exits; its rusage gives CPU time and peak RSS."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        steal0 = read_steal()
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
        steal = read_steal() - steal0
    with open(log_prefix + ".out", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        steal=steal,
        code=os.waitstatus_to_exitcode(status),
        stdout=stdout,
    )


def build(root):
    """Builds `campaign`, the tracer and the calibration kernel; returns
    their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "tracer", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dotm-bench", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"campaign_bench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return [os.path.join(release, name) for name in ("campaign", "campaign-tracer", "calibrate")]


def child_env(workload, seed, store):
    """The caller's environment without any `DOTM_*` knob, plus the
    workload's knobs, one worker thread, the seed and the store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOTM_")}
    env.update(workload.knobs)
    env.update(DOTM_THREADS="1", DOTM_SEED=str(seed), DOTM_STORE_DIR=store)
    return env


# -------------------------------------------------------------- correctness


class Tally:
    """Class evaluations attempted and failed, and every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last_classes = 1

    def add(self, label, classes, failed, problems):
        self.attempted += classes
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]
        self.last_classes = classes


def check_campaign(child, workload, seed, reference, warm_replay):
    """Gates one campaign run. Returns (parsed output or None, class
    evaluations, failed ones, problems). A run that exits non-zero or
    fails a check counts every class as failed; otherwise the sim-failed
    and inject-failed classes do."""
    problems = []
    if child.code != 0:
        problems.append(f"exit {child.code} ({exit_name(child.code)})")
    try:
        out = parse_campaign(child.stdout)
    except FormatDrift as e:
        return None, None, None, problems + [f"format drift: {e}"]
    classes = classes_evaluated(out["macros"], workload.max_classes())
    if reference is not None and out["fingerprints"] != reference:
        problems.append("fingerprints differ from the first setup run")
    if warm_replay and out["store"]["computed"] != 0:
        problems.append(f"computed={out['store']['computed']} on a warm store")
    if seed == DEFAULT_SEED and out["fig4"] != workload.fig4:
        problems.append(f"Fig. 4 panels {out['fig4']} != recorded {workload.fig4}")
    if problems:
        return out, classes, classes, problems
    soft = []
    if out["sim_failed"]:
        soft.append(f"sim-failed classes: {out['sim_failed']}")
    if out["inject_failed"]:
        soft.append(f"inject-failed classes: {out['inject_failed']}")
    return out, classes, min(classes, out["sim_failed"] + out["inject_failed"]), soft


def report_run(label, child, problems, calib=None):
    status = "ok" if not problems else "FAILED: " + "; ".join(problems)
    calibrated = "" if calib is None else f"calib_s={calib:.3f} "
    print(
        f"{label:<9} wall_s={child.wall:.3f} cpu_s={child.cpu:.3f} {calibrated}"
        f"steal_s={child.steal:.2f} rss_mb={child.rss_mb:.1f} exit={child.code} {status}",
        flush=True,
    )


# ---------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def traced_metrics(child, tally, reference, timed, calibs):
    """Gates the traced run and folds its output into per-layer metrics."""
    problems = []
    if child.code != 0:
        problems.append(f"exit {child.code} ({exit_name(child.code)})")
    try:
        traced = json.loads(child.stdout.strip().splitlines()[-1])
        metrics = {name: traced["metrics"][name] for name in TRACER_METRICS}
        gaps = traced["class_gaps_ms"]
        classes = traced["classes"]
    except (IndexError, KeyError, ValueError) as e:
        problems.append(f"tracer output unreadable: {e!r}")
        tally.add("traced", tally.last_classes, tally.last_classes, problems)
        report_run("traced", child, problems)
        return {name: 0.0 for name in PER_LAYER}
    if traced["fingerprints"] != reference:
        problems.append("traced fingerprints differ from the untraced runs")
    failed = classes if problems else min(classes, traced["sim_failed"] + traced["inject_failed"])
    if traced["sim_failed"] or traced["inject_failed"]:
        problems.append(f"sim-failed {traced['sim_failed']}, inject-failed {traced['inject_failed']}")
    tally.add("traced", classes, failed, problems)
    report_run("traced", child, problems)

    tail = tail_percentile(len(gaps))
    metrics["pipeline.class_p50_ms"] = median(gaps) if gaps else 0.0
    metrics["pipeline.class_tail_ms"] = percentile(gaps, tail) if tail else metrics["pipeline.class_p50_ms"]
    metrics["pipeline.class_tail_pct"] = tail
    metrics["pipeline.classes_timed"] = len(gaps)
    metrics["campaign.unattributed_s"] = child.wall - traced["layer_calls_s"]
    metrics["trace.wall_s"] = child.wall
    # The standalone good-space compile is the tracer's own extra work.
    metrics["trace.overhead_s"] = (
        child.wall - traced["standalone_goodspace_s"] - median([c.wall for c in timed])
    )
    metrics["host.steal_s"] = median([c.steal for c in timed])
    metrics["host.calib_s"] = median(calibs)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # A terminated harness still kills and reaps its running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("campaign_bench: run from the repository root (no Cargo.toml here)")
    campaign, tracer, calibrator = build(root)

    work = os.path.join(root, ".bench_work", args.workload)
    store = os.path.join(work, "store")
    logs = os.path.join(work, "logs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(logs)
    env = child_env(workload, args.seed, store)
    tally = Tally()

    def calibrate():
        child = run_child([calibrator], env, os.path.join(logs, f"calib{len(calibs)}"))
        if child.code != 0:
            sys.exit(f"campaign_bench: calibration kernel exited {child.code}")
        calibs.append(float(child.stdout.split()[0]))

    def campaign_run(label, reference, warm_replay):
        """One checked campaign process, then one calibration."""
        child = run_child([campaign], env, os.path.join(logs, label))
        calibrate()
        out, classes, failed, problems = check_campaign(
            child, workload, args.seed, reference, warm_replay)
        if out is None:
            classes = failed = tally.last_classes
        tally.add(label, classes, failed, problems)
        report_run(label, child, problems, calibs[-1])
        return child, out

    calibs = []
    calibrate()

    # Setup: one cold campaign at the workload's configuration, three
    # times. The last one leaves the store filled for the warm workload.
    setups = []
    reference = None
    for i in range(SETUPS):
        shutil.rmtree(store, ignore_errors=True)
        child, out = campaign_run(f"setup{i + 1}", reference, warm_replay=False)
        setups.append(child)
        if reference is None and out is not None:
            reference = out["fingerprints"]

    timed = []
    last_out = None
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        if not workload.warm:
            shutil.rmtree(store, ignore_errors=True)
        child, out = campaign_run(f"run{len(timed) + 1}", reference, workload.warm)
        timed.append(child)
        last_out = out or last_out

    if args.trace:
        if not workload.warm:
            shutil.rmtree(store, ignore_errors=True)
        child = run_child([tracer], env, os.path.join(logs, "traced"))
        metrics = traced_metrics(child, tally, reference, timed, calibs)
    else:
        factor = scale(calibs)
        metrics = {
            "wall_s": median([c.wall for c in timed]) * factor,
            "cpu_s": median([c.cpu for c in timed]) * factor,
            "setup_s": median([c.wall for c in setups]) * factor,
            "peak_rss_mb": median([c.rss_mb for c in timed]),
            "store_mb": last_out["occupancy"]["bytes"] / 1e6 if last_out else 0.0,
            "ok_frac": 1.0 - failed_frac(tally.attempted, tally.failed),
        }
    units = END_TO_END if not args.trace else {name: unit_of(name) for name in PER_LAYER}

    print(f"{args.workload} seed={args.seed}: {len(setups)} setups, {len(timed)} timed runs, "
          f"scale {scale(calibs):.4f} from {len(calibs)} calibrations, "
          f"{tally.failed}/{tally.attempted} class evaluations failed")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
