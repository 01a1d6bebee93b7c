#!/usr/bin/env python3
"""The repository benchmark: builds the workspace from source, runs one
workload (or all of them), checks that the outputs are correct, and prints
every metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --selftest                # tiny sizes: metric names, units, gates
    python3 perfbench/run.py --record-golden           # re-record the paper-small CSV digests

Run it from the repository root. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden" / "paper-small.json"
WORK = ROOT / ".bench_work"
WORKLOADS = ["paper-small", "ingest-recover", "fleet-similarity"]
# Per-layer metric prefixes each workload measures; the others read 0 there.
OWNS = {
    "paper-small": ("experiments.", "report.", "gwsim.", "paper-small."),
    "ingest-recover": ("ingest.", "durable.", "gwsim.", "ingest-recover."),
    "fleet-similarity": ("engine.", "motif.", "fleet-similarity."),
}
SETUP_BATCH = 7
# The held-out paper-small check runs every HELDOUT_STRIDE-th experiment,
# starting at seed % HELDOUT_STRIDE, on the held-out fleet seed.
HELDOUT_STRIDE = 9
TINY_IDS = ["fig1", "fig3", "fig7"]
# Every subprocess must end well inside the 180 s a run may take.
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the shipped `experiments` runner and the workload worker (`perfbench`)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no workspace sources next to {BENCH}; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "wtts-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def binary(name):
    return target_dir() / "release" / name


def git_describe():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


class Ledger:
    def __init__(self):
        self.ops = 0
        self.failures = []

    def check(self, ok, what):
        self.ops += 1
        if not ok:
            self.failures.append(what)
            if len(self.failures) <= 20:
                print(f"check failed: {what}", file=sys.stderr)


def spawn(cmd, cwd, log):
    """Runs `cmd` to completion; returns (exit status, wall s, peak RSS MiB).

    The peak RSS is the child's `ru_maxrss` from wait4, which Linux takes
    from the same high-water mark `/proc/<pid>/status` reports as VmHWM.
    """
    with open(log, "w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_worker(workload, args, extra=()):
    """Runs the Rust worker for one workload; returns (result, manifest, named)."""
    cmd = [
        str(binary("perfbench")), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(WORK),
    ] + (["--tiny"] if args.tiny else []) + list(extra)
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker did not finish within {TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} worker exited with {proc.returncode}")
    manifest, named = {}, {}
    for line in lines[:-1]:
        if line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
        elif line.startswith("named "):
            named = json.loads(line[len("named "):])
        else:
            print(line, file=sys.stderr)
    return json.loads(lines[-1]), manifest, named


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_csvs(results, golden, seed_key, ids, ledger, corrupt=False):
    """One check per CSV the experiments `ids` write, plus one per stray file."""
    recorded = golden["csvs"][seed_key]
    expected = {csv: digest for i in ids for csv, digest in recorded.get(i, {}).items()}
    if corrupt and expected:
        first = sorted(expected)[0]
        expected[first] = "0" * 64
    found = {p.name: p for p in results.iterdir()} if results.is_dir() else {}
    for csv, digest in sorted(expected.items()):
        path = found.get(csv)
        ledger.check(path is not None, f"{seed_key} seed: {csv} missing")
        if path is not None:
            ledger.check(sha256(path) == digest, f"{seed_key} seed: {csv} changed")
    for stray in sorted(set(found) - set(expected)):
        ledger.check(False, f"{seed_key} seed: unexpected file {stray}")


def run_runner(ids, outdir, ledger, golden, seed_key, seed=None, corrupt=False):
    """One run of the shipped runner over `ids` (`all` when `ids` is None);
    returns (wall s, peak RSS MiB)."""
    shutil.rmtree(outdir, ignore_errors=True)
    (outdir / "results").mkdir(parents=True)
    log = outdir / "runner.log"
    cmd = [str(binary("experiments")), "--small"]
    cmd += ["--seed", str(seed)] if seed is not None else []
    cmd += ids if ids is not None else ["all"]
    ids = ids if ids is not None else list(golden["csvs"]["default"])
    code, wall, rss = spawn(cmd, outdir, log)
    ledger.check(code == 0, f"{seed_key} seed: runner exited with {code} (see {log})")
    done = {
        line[1:].split(" done in ")[0]
        for line in log.read_text(errors="replace").splitlines()
        if line.startswith("[") and " done in " in line
    }
    for i in ids:
        ledger.check(i in done, f"{seed_key} seed: experiment {i} did not finish")
    check_csvs(outdir / "results", golden, seed_key, ids, ledger, corrupt)
    return wall, rss


def paper_small(args):
    """The analyst's job: `experiments --small all`, every table and figure
    of the paper on 24 gateways x 4 weeks, timed as the shipped runner runs.

    The timed input is fixed: the small fleet at the runner's default seed,
    whose CSV digests are recorded. `--seed` picks the slice of experiments
    re-run, after the timed passes, on the held-out fleet seed.
    """
    golden = json.loads(GOLDEN.read_text())
    heldout_seed = golden["seeds"]["heldout"]
    ids = list(golden["csvs"]["default"])
    timed = TINY_IDS if args.tiny else None
    corrupt = args.inject == "corrupt-digest"
    outdir = WORK / "paper-small"
    ledger = Ledger()

    setup = []

    def set_up():
        # Clean output directory, recorded digests, and one launch of the
        # runner (`--help` exits at once), so the timed pass starts warm. It
        # takes milliseconds, so a batch runs before and after each runner
        # launch and `setup_s` is the median over all of them.
        for _ in range(SETUP_BATCH):
            t = time.perf_counter()
            shutil.rmtree(outdir, ignore_errors=True)
            (outdir / "results").mkdir(parents=True)
            json.loads(GOLDEN.read_text())
            spawn([str(binary("experiments")), "--help"], outdir, outdir / "probe.log")
            setup.append(time.perf_counter() - t)

    manifest = {
        "workload": "paper-small",
        "seed": args.seed,
        "runner": "experiments --small " + (" ".join(timed) if timed else "all"),
        "fleet_seed": golden["seeds"]["default"],
        "gateways": 24,
        "weeks": 4,
        "experiments": len(timed or ids),
        "csvs": sum(len(golden["csvs"]["default"][i]) for i in timed or ids),
        "heldout_fleet_seed": heldout_seed,
        "runner_threads": os.cpu_count(),
    }
    if args.trace:
        # The traced replay alone: an untraced pass beside it would double a
        # run that already takes about a minute.
        tdir = WORK / "paper-small-traced"
        shutil.rmtree(tdir, ignore_errors=True)
        worker_args = argparse.Namespace(**{**vars(args), "seed": golden["seeds"]["default"]})
        worker_args.inject = None
        result, wmanifest, _ = run_worker(
            "paper-small", worker_args, ["--ids", ",".join(timed or ids), "--out", str(tdir)]
        )
        ledger.ops += result["attempted"]
        ledger.failures += ["traced pass: an experiment panicked"] * result["failed"]
        check_csvs(tdir / "results", golden, "default", timed or ids, ledger, corrupt)
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        manifest["traced_wall_s"] = wmanifest["traced_wall_s"]
        shutil.rmtree(tdir, ignore_errors=True)
        return ledger.ops, ledger.failures, metrics, manifest, {}

    set_up()
    walls, rss = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        wall, peak = run_runner(timed, outdir, ledger, golden, "default", corrupt=corrupt)
        walls.append(wall)
        rss.append(peak)
        set_up()
    paper_s = statistics.median(walls)

    # `robustness` builds its own fleets, so the fleet seed does not reach it.
    candidates = [i for i in ids if i != "robustness"]
    heldout = [i for k, i in enumerate(candidates) if k % HELDOUT_STRIDE == args.seed % HELDOUT_STRIDE]
    if args.tiny:
        heldout = TINY_IDS[:1]
    run_runner(heldout, outdir, ledger, golden, "heldout", seed=heldout_seed)
    set_up()
    shutil.rmtree(outdir, ignore_errors=True)

    manifest.update(heldout_experiments=heldout, passes=len(walls))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (paper_s, "s"),
        "peak_rss_mib": (rss[0], "MiB"),
    }
    named = {"paper_s": {"value": paper_s, "unit": "s"}}
    return ledger.ops, ledger.failures, metrics, manifest, named


def worker_workload(name):
    def run(args):
        result, manifest, named = run_worker(name, args)
        failures = [f"{name}: check failed"] * result["failed"]
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        return result["attempted"], failures, metrics, manifest, named

    return run


RUNNERS = {
    "paper-small": paper_small,
    "ingest-recover": worker_workload("ingest-recover"),
    "fleet-similarity": worker_workload("fleet-similarity"),
}


def run_workload(name, args):
    """Runs one workload; returns the contract result object."""
    e2e, layers = catalogue()
    ops, failures, metrics, manifest, named = RUNNERS[name](args)
    wanted = layers if args.trace else e2e
    for metric, (_, unit) in metrics.items():
        if metric not in wanted or wanted[metric] != unit:
            fail(f"{name} emitted {metric} [{unit}], which BENCHMARK.json does not declare")
    out = {}
    for metric, unit in wanted.items():
        if metric in metrics:
            out[metric] = {"value": metrics[metric][0], "unit": unit}
        elif args.trace and not metric.startswith(OWNS[name]):
            out[metric] = {"value": 0.0, "unit": unit}
        else:
            fail(f"{name} did not emit {metric}")
    manifest.update(
        nproc=os.cpu_count(), git_describe=git_describe(), run_seconds=args.seconds, trace=args.trace
    )
    print("manifest " + json.dumps(manifest))
    named.update(
        ops={"value": ops, "unit": "count"},
        ops_failed={"value": len(failures), "unit": "count"},
    )
    for metric, m in {**named, **out}.items():
        print(f"  {name:<17} {metric:<40} {m['value']:>18.6f} {m['unit']}")
    return {"correct": not failures, "attempted": ops, "failed": len(failures), "metrics": out}


def selftest(args):
    """Tiny sizes: every declared metric is emitted with its unit, and a
    corrupted digest or a forced mismatch lands in `failed`."""
    e2e, layers = catalogue()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            a = argparse.Namespace(seed=3, seconds=0.5, trace=trace, tiny=True, inject=None)
            r = run_workload(name, a)
            wanted = layers if trace else e2e
            if set(r["metrics"]) != set(wanted):
                problems.append(f"{name} trace={trace}: metric set differs from BENCHMARK.json")
            if any(r["metrics"][m]["unit"] != u for m, u in wanted.items()):
                problems.append(f"{name} trace={trace}: a unit differs from BENCHMARK.json")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{name} trace={trace}: not correct on the current code: {r}")
            if trace and r["metrics"][f"{name}.span_coverage"]["value"] < 0.9:
                problems.append(f"{name}: spans cover under 90% of the timed wall clock")
        inject = "corrupt-digest" if name == "paper-small" else "mismatch"
        a = argparse.Namespace(seed=3, seconds=0.5, trace=0, tiny=True, inject=inject)
        r = run_workload(name, a)
        if r["correct"] or r["failed"] < 1:
            problems.append(f"{name}: injected {inject} was not counted in failed")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def record_golden():
    """Records, for the default and the held-out fleet seed, which CSVs each
    experiment writes and their sha256, from the current code. The runner
    gives the digests; a traced replay gives the ownership and must write
    the same CSVs."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    seeds = golden.get("seeds", {"default": 0x5EED_2014_0317, "heldout": 20161017})
    csvs = {}
    for key, seed in seeds.items():
        outdir = WORK / f"record-{key}"
        shutil.rmtree(outdir, ignore_errors=True)
        (outdir / "results").mkdir(parents=True)
        code, _, _ = spawn(
            [str(binary("experiments")), "--small", "--seed", str(seed), "all"], outdir, outdir / "runner.log"
        )
        if code != 0:
            fail(f"runner failed for seed {seed}")
        digests = {p.name: sha256(p) for p in sorted((outdir / "results").iterdir())}
        shutil.rmtree(outdir)
        tdir = WORK / f"record-{key}-traced"
        shutil.rmtree(tdir, ignore_errors=True)
        a = argparse.Namespace(seed=seed, seconds=1, trace=1, tiny=False, inject=None)
        _, manifest, _ = run_worker("paper-small", a, ["--ids", "all", "--out", str(tdir)])
        traced = {p.name: sha256(p) for p in sorted((tdir / "results").iterdir())}
        shutil.rmtree(tdir)
        if traced != digests:
            fail(f"seed {seed}: the traced replay wrote different CSVs than the runner")
        owned = {}
        for pair in manifest["csv_owner"].split(";"):
            csv, owner = pair.split("=")
            if csv in owned.get(owner, {}) or any(csv in v for v in owned.values()):
                fail(f"seed {seed}: {csv} is written by more than one experiment")
            owned.setdefault(owner, {})[csv] = digests.pop(csv)
        if digests:
            fail(f"seed {seed}: no experiment owns {sorted(digests)}")
        csvs[key] = owned
    GOLDEN.write_text(json.dumps({
        "about": "per fleet seed: experiment -> {CSV: sha256} of `experiments --small --seed <seed> all`, "
                 "recorded from the code by `python3 perfbench/run.py --record-golden`",
        "seeds": seeds,
        "csvs": csvs,
    }, indent=1) + "\n")
    print(f"recorded {sum(len(v) for v in csvs['default'].values())} CSV digests per seed in {GOLDEN}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny input sizes (self-test)")
    p.add_argument("--inject", choices=("corrupt-digest", "mismatch"),
                   help="corrupt one expected value, to see the gate count it")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.selftest or args.record_golden):
        p.error("one of --workload, --selftest or --record-golden is required")
    build()
    WORK.mkdir(exist_ok=True)
    if args.selftest:
        return selftest(args)
    if args.record_golden:
        return record_golden()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    results = {name: run_workload(name, args) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
