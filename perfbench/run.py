"""End-to-end and per-layer benchmark of the `lowdisc` CLI.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 50 \
        --trace 0

Run from the repository root. Each workload is a fixed batch of
`python -m lowdisc.cli ...` invocations against this tree's `src`, run as
a closed loop from this one process: one child at a time, no concurrency.
Inputs are generated from `--seed` (see inputs.py) and the same seed is
passed as every CLI `--seed`. The batch repeats, invocation by
invocation, for `--seconds` (see timed_loop), with fresh-import probes
between invocations. Outputs are checked outside the timed loop: exit
codes, `lowdisc verify` on every primary artifact, the benchmark's own
recomputation of lift matrices and edge counts, and byte identity of
primary artifacts across batches, the traced pass and runs of one seed.

`--trace 0` prints the end-to-end metrics. `--trace 1` also runs every
invocation once more through traced_cli.py, which wraps lowdisc's layers
(spans.py), and prints the per-layer metrics. The last line of output is
one JSON object; a fuller record (per-invocation times, peak RSS, sha256
of every artifact, machine) is written to .perfbench/results/.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPS = 5
PROBES = {  # fresh-interpreter probes run between timed invocations
    "import": [sys.executable, "-c", "import lowdisc.cli"],
    "deps": [sys.executable, "-c", "import numpy, scipy.optimize"],
}
RUN_BUDGET_S = 170  # children still running then are killed; exit < 180 s
SUBCOMMANDS = ("lowdisc", "expander", "halfspace", "dist", "approx", "lift",
               "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Op(NamedTuple):
    argv: tuple
    outputs: tuple  # primary files written (manifests excluded)


def _op(*argv, extra=()):
    argv = tuple(str(a) for a in argv)
    return Op(argv, (argv[argv.index("--out") + 1],) + tuple(extra))


def _lowdisc(m, mode, seed):
    return _op("lowdisc", "--m", m, "--eps", "0.3", "--mode", mode,
               "--seed", seed, "--out", f"z_{mode}_{m}.json")


def _expander(n, seed):
    edges = (f"g_{n}.edges",) if n <= 100000 else ()  # CLI default limit
    return _op("expander", "--n", n, "--eps", "0.5", "--seed", seed,
               "--out", f"g_{n}.json", extra=edges)


def _halfspace(n, seed):
    return _op("halfspace", "--n", n, "--mode", "demo", "--c-prime", "0.05",
               "--seed", seed, "--out", f"h_{n}.json")


def _dist(m):
    return _op("dist", f"../inputs/z_{m}.json", "--out", f"dist_{m}.json")


def _approx(fn, *flags, out):
    return _op("approx", "--fn", fn, *flags, "--out", out)


def _lift(nvars, m_blk):
    return _op("lift", f"../inputs/master_{nvars}.json", "--k", 2,
               "--m-blk", m_blk, "--emit-matrix", f"lift_{nvars}.csv",
               "--out", f"lift_{nvars}.json", extra=(f"lift_{nvars}.csv",))


def _verify(path):
    return Op(("verify", path), ())


def plan(workload, seed):
    """(ops built during set-up, ops timed) for one workload and seed."""
    if workload == "construct":
        return (), (
            _lowdisc(100003, "practical", seed),   # random-search branch
            _lowdisc(1000003, "practical", seed),  # pipeline branch
            _lowdisc(1000003, "paper", seed),      # trivial set
            _expander(20011, seed),                # writes a 2.7M-line list
            _expander(100003, seed),               # edge list skipped
            _halfspace(24, seed),
            _halfspace(40, seed),
        )
    if workload == "analyze":
        return (), (
            _dist(10007),
            _approx("MAJ_12", "--degree", 3, out="approx_maj12.json"),
            _approx("../inputs/table_9.txt", "--degree", 4,
                    out="approx_t9.json"),
            _approx("../inputs/table_7.txt", "--kind", "threshold",
                    out="approx_t7.json"),
            _lift(8, 1),
            _lift(4, 2),
        )
    if workload == "verify":
        built = (
            _lowdisc(100003, "practical", seed),
            _expander(20011, seed),
            _halfspace(24, seed),
            _dist(4099),
            _approx("../inputs/table_9.txt", "--degree", 4,
                    out="approx_t9.json"),
            _lift(8, 1),
        )
        primaries = [op.outputs[0] for op in built]
        manifests = [f"{built[i].outputs[0]}.manifest.json" for i in (0, 1, 5)]
        return built, tuple(_verify(p) for p in primaries + manifests)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ children

class Child(NamedTuple):
    code: int
    seconds: float
    rss_mb: float
    stdout: bytes


class Runner:
    """Runs children one at a time, with one environment, a log directory
    and a deadline shared by the whole run."""

    def __init__(self, env, logs, deadline):
        self.env, self.logs, self.deadline = env, logs, deadline

    def spawn(self, cmd, cwd, name, stamp=None):
        """Run one child to completion; peak RSS comes from its own
        rusage. A child still running at the deadline is killed, and
        fails through its exit code."""
        log = os.path.join(self.logs, name)
        with open(f"{log}.out", "wb") as out, \
                open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter() if stamp is None else stamp
            p = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out,
                                 stderr=err, stdin=subprocess.DEVNULL)
            fd = os.pidfd_open(p.pid)
            try:
                timeout = max(0.0, self.deadline - time.perf_counter())
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
            if not ready:
                p.kill()
            _, status, usage = os.wait4(p.pid, 0)
            seconds = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        with open(f"{log}.out", "rb") as fh:
            stdout = fh.read()
        return Child(p.returncode, seconds, usage.ru_maxrss / 1024, stdout)


def cli_cmd(argv):
    return [sys.executable, "-m", "lowdisc.cli", *argv]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(op, child, cwd):
    """sha256 of each primary output (verify: of its stdout)."""
    if not op.outputs:
        return {"stdout": hashlib.sha256(child.stdout).hexdigest()}
    out = {}
    for name in op.outputs:
        path = os.path.join(cwd, name)
        out[name] = sha256_file(path) if os.path.exists(path) else None
    return out


class Batch(NamedTuple):
    wall_s: float
    children: list
    digests: list


def run_batch(runner, ops, cwd, trace_dir=None):
    """Run ops in order, one child at a time. Digests are taken after the
    timed loop so hashing never lands in wall_s."""
    children = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        name = f"{Path(cwd).name}-{i}"
        if trace_dir is None:
            children.append(runner.spawn(cli_cmd(op.argv), cwd, name))
        else:
            stamp = time.perf_counter()
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   os.path.join(trace_dir, f"{i}.json"), repr(stamp), *op.argv]
            children.append(runner.spawn(cmd, cwd, name, stamp=stamp))
    wall = time.perf_counter() - t0
    return Batch(wall, children, [digests(op, c, cwd)
                                  for op, c in zip(ops, children)])


# ---------------------------------------------------------------- checks

def verify_artifacts(runner, ops, cwd):
    """One `lowdisc verify` over every primary JSON artifact; returns the
    set of op indices whose artifact did not verify."""
    paths = {op.outputs[0]: i for i, op in enumerate(ops)
             if op.outputs and op.outputs[0].endswith(".json")}
    if not paths:
        return set()
    child = runner.spawn(cli_cmd(["verify", *paths]), cwd, "check-verify")
    passed = {line.rsplit(": ", 1)[0]
              for line in child.stdout.decode(errors="replace").splitlines()
              if line.endswith(": ok")}
    return {i for p, i in paths.items() if p not in passed}


def check_lift_matrix(cwd, op, inputs_dir):
    """Recompute the two-party sign matrix from the generated master
    halfspace, independently of lowdisc: entry (x, y) is the sign of
    den * sum_i w_i (1 - sum_j x_ij y_ij) - num, bits little-endian."""
    import numpy as np

    spec = json.loads(Path(inputs_dir, Path(op.argv[1]).name).read_text())
    m_blk = int(op.argv[op.argv.index("--m-blk") + 1])
    w = np.array([int(v) for v in spec["weights"]], dtype=np.int64)
    num = int(spec["threshold"]["num"])
    den = int(spec["threshold"]["den"])
    t = len(w) * m_blk
    idx = np.arange(2 ** t)
    bits = (idx[:, None] >> np.arange(t)[None, :]) & 1
    meet = (bits[:, None, :] * bits[None, :, :]).reshape(2 ** t, 2 ** t,
                                                         len(w), m_blk)
    arg = den * ((1 - meet.sum(axis=3)) @ w) - num
    want = np.where(arg > 0, 1, -1)
    got = np.loadtxt(os.path.join(cwd, op.outputs[1]), delimiter=",",
                     dtype=np.int64, ndmin=2)
    return got.shape == want.shape and bool((got == want).all())


def check_edge_list(cwd, op):
    graph = json.loads(Path(cwd, op.outputs[0]).read_text())
    with open(os.path.join(cwd, op.outputs[1]), "rb") as fh:
        lines = fh.read().count(b"\n")
    return lines == int(graph["order"]) * int(graph["degree"]) // 2


def own_checks(ops, cwd, inputs_dir):
    """Indices of ops whose outputs fail the benchmark's own checks."""
    bad = set()
    for i, op in enumerate(ops):
        try:
            if op.argv[0] == "lift":
                ok = check_lift_matrix(cwd, op, inputs_dir)
            elif op.argv[0] == "expander" and len(op.outputs) > 1:
                ok = check_edge_list(cwd, op)
            else:
                continue
        except (OSError, ValueError, KeyError):
            ok = False
        if not ok:
            bad.add(i)
    return bad


def ledger_check(workload, seed, ops, input_digests, batch):
    """Compare artifact digests with an earlier run of the same seed and
    plan in this checkout, or record them. Returns op indices that
    differ."""
    key = hashlib.sha256(json.dumps(
        [workload, seed, [op.argv for op in ops], input_digests],
        sort_keys=True).encode()).hexdigest()[:24]
    path = STATE / "digests" / f"{workload}-{seed}-{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return {i for i, d in enumerate(batch.digests) if d != before[i]}
    if all(c.code == 0 for c in batch.children):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(batch.digests, indent=1) + "\n")
    return set()


# ------------------------------------------------------------------ run

def machine():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)  # verify's manifest re-runs stay in the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # set-up compiled lowdisc already
    return env


def setup_once(seed, work):
    """Fresh work tree, bytecode compiled, inputs written. Compiling in
    this process (the children's interpreter) spares a process start,
    whose time drifts most on a shared machine."""
    if work.exists():
        shutil.rmtree(work)
    for sub in ("inputs", "logs", "tmp", "spans"):
        (work / sub).mkdir(parents=True)
    if not compileall.compile_dir(str(SRC / "lowdisc"), force=True,
                                  quiet=1):
        raise RuntimeError("lowdisc sources do not compile")
    inputs.write(seed, work / "inputs")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def timed_loop(runner, ops, work, run_dir, built, seconds):
    """The timed closed loop: the workload's invocations in order, over
    and over, one child at a time. After each invocation a pair of
    probes runs back to back, a fresh `import lowdisc.cli` and a fresh
    import of its third-party dependencies (in alternating order), so the
    probes sample the whole run. After at least one full batch, the next
    invocation starts only while it is expected (from its own last run)
    to end within `seconds`; once one does not fit, probe pairs alone fill
    the rest. The r-th run of each invocation forms batch r; the last
    batch may be partial. Returns (batches, their directories, probe
    seconds by probe name, pair k of each list run together)."""
    batches, dirs = [], []
    probes = {name: [] for name in PROBES}
    last = {}  # op index -> its latest seconds
    t_start = time.perf_counter()

    def fits(need):
        return time.perf_counter() - t_start + need <= seconds

    def probe_pair():
        k = len(probes["import"])
        for name in sorted(PROBES, reverse=k % 2 == 1):
            probes[name].append(runner.spawn(
                PROBES[name], str(work), f"{name}-{k}").seconds)

    for r in itertools.count():
        if built:
            cwd = run_dir
        else:
            cwd = work / f"batch{r}"
            cwd.mkdir()
        children, dig = [], []
        for i, op in enumerate(ops):
            if r and not fits(last[i]):
                break
            child = runner.spawn(cli_cmd(op.argv), str(cwd), f"b{r}-{i}")
            children.append(child)
            dig.append(digests(op, child, cwd))
            last[i] = child.seconds
            probe_pair()
        if children:
            batches.append(Batch(sum(c.seconds for c in children),
                                 children, dig))
            dirs.append(cwd)
        if len(children) < len(ops):
            break
    while fits(median(probes["import"]) + median(probes["deps"])):
        probe_pair()
    return batches, dirs, probes


def op_medians(ops, batches):
    """Each invocation's median wall time over the run's batches."""
    return [median([b.children[i].seconds for b in batches
                    if i < len(b.children)])
            for i in range(len(ops))]


def end_to_end(ops, setup_s, probes, batches):
    """(bounded end-to-end metrics, raw times). wall_s and the
    per-subcommand sums add up each invocation's median over the batches,
    so a burst of load on one invocation of one batch does not move them.
    The *_rel metrics divide by the time of a fresh `import numpy,
    scipy.optimize` taken right after (pair k of the probes follows the
    k-th timed invocation, batch by batch), which moves with the shared
    machine's speed at that moment but not with lowdisc: wall_rel sums,
    over the invocations, each one's median of invocation / deps ratios;
    import_rel is the median over pairs of import / deps."""
    med = op_medians(ops, batches)
    raw = {"wall_s": sum(med), "import_s": median(probes["import"]),
           "deps_s": median(probes["deps"])}
    raw.update({f"{sub}_s": sum(t for op, t in zip(ops, med)
                                if op.argv[0] == sub)
                for sub in SUBCOMMANDS})
    timed = [(i, c.seconds) for b in batches for i, c in enumerate(b.children)]
    ratios = {}
    for (i, t), d in zip(timed, probes["deps"]):
        ratios.setdefault(i, []).append(t / d)
    return {
        "wall_rel": (sum(median(r) for r in ratios.values()), "deps"),
        "import_rel": (median([i / d for i, d in zip(probes["import"],
                                                    probes["deps"])]),
                       "deps"),
        "peak_rss_mb": (max(c.rss_mb for b in batches for c in b.children),
                        "MB"),
        "setup_s": (setup_s, "s"),
    }, raw


def per_layer(trace_dir, ops, traced, untraced_wall, work_dir):
    """Per-layer metrics from the traced batch's span files."""
    fn_tot, self_tot, import_s, dump_s, reruns = {}, {}, 0.0, 0.0, 0
    trials = 0
    for i in range(len(ops)):
        path = os.path.join(trace_dir, f"{i}.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            head, sp = (json.loads(line) for line in fh)
        import_s += head["import_s"]
        dump_s += head["dump_s"]
        reruns += spans.count_nested(sp, "cli.main")
        trials += spans.count_children(sp, "discrepancy.random_search",
                                       "discrepancy.disc")
        functions, self_s = spans.summarize(sp)
        for layer, s in self_s.items():
            self_tot[layer] = self_tot.get(layer, 0.0) + s
        for name, f in functions.items():
            t = fn_tot.setdefault(name, {"calls": 0, "s": 0.0, "ok": 0,
                                         "attrs": {}})
            t["calls"] += f["calls"]
            t["s"] += f["s"]
            t["ok"] += f["ok"]
            for k, v in f["attrs"].items():
                t["attrs"][k] = t["attrs"].get(k, 0) + v

    def fn(name):
        return fn_tot.get(name, {"calls": 0, "s": 0.0, "ok": 0, "attrs": {}})

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, names in spans.TRACED.items():
        out[f"{layer}.self_s"] = self_tot.get(layer, 0.0)
        for name in names:
            f = fn(f"{layer}.{name}")
            out[f"{layer}.{name}.calls"] = f["calls"]
            out[f"{layer}.{name}.s"] = f["s"]
    disc, build = fn("discrepancy.disc"), fn("construction.build_low_disc_set")
    lp = fn("approximation.linprog")
    out.update({
        "discrepancy.disc.support_sum": disc["attrs"].get("support", 0),
        "discrepancy.disc.modulus_sum": disc["attrs"].get("modulus", 0),
        "discrepancy.random_search.trials": trials,
        "discrepancy.random_search.accept_ratio": ratio(
            fn("discrepancy.random_search")["ok"], trials),
        "construction.pipeline_accept_ratio": ratio(
            build["attrs"].get("pipeline_accepted", 0),
            build["attrs"].get("pipeline_tried", 0)),
        "expander.edges_written": 0,
        "expander.complete_fallbacks":
            fn("expander.build_expander")["attrs"].get("complete", 0),
        "distribution.table_cells":
            fn("distribution.exact_distribution")["attrs"].get("cells", 0),
        "approximation.linprog.nit": lp["attrs"].get("nit", 0),
        "approximation.linprog.rows": lp["attrs"].get("rows", 0),
        "approximation.linprog.success_ratio": ratio(
            lp["attrs"].get("success", 0), lp["calls"]),
        "halfspace.matrix_entries":
            fn("halfspace.two_party_matrix")["attrs"].get("entries", 0),
        "cli.import_s": import_s,
        "cli.bytes_written": 0,
        "cli.manifest_reruns": reruns,
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "trace.dump_s": dump_s,
        "trace.unaccounted_s": (traced.wall_s - import_s - dump_s
                                - sum(self_tot.values())),
    })
    for op in ops:
        for name in op.outputs + tuple(f"{n}.manifest.json"
                                       for n in op.outputs[:1]):
            path = os.path.join(work_dir, name)
            if os.path.exists(path):
                out["cli.bytes_written"] += os.path.getsize(path)
                if name.endswith(".edges"):
                    with open(path, "rb") as fh:
                        out["expander.edges_written"] += \
                            fh.read().count(b"\n")
    return out


def layer_units(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("construct", "analyze", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lowdisc" / "cli.py").is_file():
        print(f"error: no lowdisc sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work, deadline):
    built, ops = plan(args.workload, args.seed)
    runner = Runner(child_env(work / "tmp"), str(work / "logs"), deadline)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        setup_once(args.seed, work)
        setups.append(time.perf_counter() - t0)
    failed_builds = 0
    build_s = 0.0
    run_dir = work / "run"
    run_dir.mkdir()
    if built:
        # The verify workload reads artifacts built here; it runs in run_dir.
        batch = run_batch(runner, built, str(run_dir))
        build_s = batch.wall_s
        failed_builds = sum(c.code != 0 for c in batch.children)
    setup_s = median(setups) + build_s

    batches, dirs, probes = timed_loop(runner, ops, work, run_dir, built,
                                       args.seconds)

    traced = None
    if args.trace:
        cwd = run_dir if built else work / "traced"
        cwd.mkdir(exist_ok=True)
        traced = run_batch(runner, ops, str(cwd),
                           trace_dir=str(work / "spans"))
        dirs.append(cwd)

    # ---- output checks, outside every timed batch
    all_batches = batches + ([traced] if traced else [])
    bad = [set() for _ in all_batches]  # op indices failed, per batch
    for j, b in enumerate(all_batches):
        for i, c in enumerate(b.children):
            if c.code != 0 or (not ops[i].outputs
                               and not c.stdout.rstrip().endswith(b": ok")):
                bad[j].add(i)
            if b.digests[i] != batches[0].digests[i]:
                bad[j].add(i)
    input_digests = {p.name: sha256_file(p)
                     for p in sorted((work / "inputs").iterdir())}
    bad[0] |= ledger_check(args.workload, args.seed, ops, input_digests,
                           batches[0])
    if not built:
        last = max(j for j, b in enumerate(batches)
                   if len(b.children) == len(ops))
        bad[last] |= verify_artifacts(runner, ops, str(dirs[last]))
        bad[last] |= own_checks(ops, str(dirs[last]), str(work / "inputs"))
    attempted = sum(len(b.children) for b in all_batches) + len(built)
    failed = sum(len(s) for s in bad) + failed_builds

    e2e, raw = end_to_end(ops, setup_s, probes, batches)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "setup_s_samples": setups, "build_s": build_s,
        "probe_s_samples": probes,
        "attempted": attempted, "failed": failed,
        "failed_ops": [sorted(" ".join(ops[i].argv) for i in s) for s in bad],
        "batches": [{
            "wall_s": b.wall_s,
            "invocations": [{"argv": list(op.argv), "exit": c.code,
                             "seconds": c.seconds, "peak_rss_mb": c.rss_mb,
                             "sha256": d}
                            for op, c, d in zip(ops, b.children, b.digests)],
        } for b in all_batches],
    }

    mach = report["machine"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"batches {len(batches)}  closed loop, 1 client")
    print(f"  machine: {mach['nproc']} CPU {mach['cpu_model']}, "
          f"python {mach['python']}, numpy {mach['numpy']}, "
          f"scipy {mach['scipy']}, inherited thread env "
          f"{ {k: v for k, v in mach['thread_env_inherited'].items() if v} }")
    runs = [sum(i < len(b.children) for b in batches)
            for i in range(len(ops))]
    n_b = f"{min(runs)}" + (f"-{max(runs)}" if max(runs) > min(runs) else "")
    print(f"  {'wall_rel':<14}{e2e['wall_rel'][0]:10.4f} deps "
          f"sum of per-invocation medians of invocation / deps")
    print(f"  {'import_rel':<14}{e2e['import_rel'][0]:10.4f} deps "
          f"import_s / deps_s, median of {len(probes['deps'])} pairs")
    print(f"  {'peak_rss_mb':<14}{e2e['peak_rss_mb'][0]:10.1f} MB  "
          f"max of {sum(len(b.children) for b in batches)} children")
    print(f"  {'setup_s':<14}{e2e['setup_s'][0]:10.4f} s   "
          f"median of {SETUP_REPS} + {build_s:.4f} s artifact build")
    print(f"  {'wall_s':<14}{raw['wall_s']:10.4f} s   "
          f"sum of per-invocation medians of {n_b} runs")
    for name, n in (("import", "fresh `import lowdisc.cli`"),
                    ("deps", "fresh `import numpy, scipy.optimize`")):
        print(f"  {name + '_s':<14}{raw[name + '_s']:10.4f} s   "
              f"median of {len(probes[name])} {n}")
    for sub in SUBCOMMANDS:
        if raw[f"{sub}_s"]:
            print(f"  {sub + '_s':<14}{raw[sub + '_s']:10.4f} s   "
                  f"sum of per-invocation medians of {n_b} runs")
    print(f"  {'failed_ratio':<14}{failed / attempted:10.4f}     "
          f"{failed} of {attempted} operations")

    if args.trace:
        layer = per_layer(str(work / "spans"), ops, traced,
                          raw["wall_s"], str(dirs[-1]))
        layer.update(raw)
        metrics = {k: {"value": v, "unit": layer_units(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["metrics"] = metrics

    res = STATE / "results"
    res.mkdir(parents=True, exist_ok=True)
    res_path = res / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    res_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"  record: {res_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
