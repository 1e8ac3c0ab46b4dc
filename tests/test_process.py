"""The process entry point. `python -m lowdisc.cli` and the `lowdisc`
script both start at `cli.run`, which keeps the process's freed heap,
runs the atexit handlers, flushes stdout and stderr and leaves through
os._exit with main's code; `main` run in-process never exits and leaves
the allocator as it is. A process runs on one BLAS thread whatever its
caller sets."""

import atexit
import ctypes
import gc
import json
import os
import platform
import random
import re
import subprocess
import sys

import pytest

import lowdisc
from lowdisc import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lowdisc.__file__)))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def child_env(env=None):
    """`env` (default: this process's) with this lowdisc on PYTHONPATH and
    PYTHONUNBUFFERED unset, so the child's stdout is block-buffered and
    its tail is written by the exit path, as in a user's pipeline."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python(args, env=None, cwd=None):
    """The finished `python ARGS` process against this lowdisc, run in
    `cwd`, with its output captured as text, killed (TimeoutExpired) after
    120 s."""
    return subprocess.run([sys.executable, *map(str, args)],
                          env=child_env(env), cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def lowdisc_process(argv, env=None):
    return python(["-m", "lowdisc.cli", *argv], env)


def build_set(tmp_path):
    out = tmp_path / "z.json"
    assert cli.main(["lowdisc", "--m", "211", "--eps", "0.4", "--mode",
                     "practical", "--seed", "3", "--out", str(out)]) == 0
    return out


def tampered(tmp_path, genuine):
    d = json.loads(genuine.read_text())
    d["eps"] = 0.6
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(d))
    return out


def test_process_exit_codes(tmp_path):
    out = tmp_path / "z.json"
    p = lowdisc_process(["lowdisc", "--m", 211, "--eps", 0.4, "--mode",
                         "practical", "--seed", 3, "--out", out])
    assert p.returncode == 0, p.stderr
    assert re.fullmatch(r"m=211 branch=\w+ disc=[0-9.]+ n=\d+\n", p.stdout)
    assert lowdisc_process(["verify", out]).returncode == 0
    p = lowdisc_process(["verify", tampered(tmp_path, out)])
    assert p.returncode == 1 and "FAILED" in p.stdout
    p = lowdisc_process(["lowdisc", "--m", "many", "--eps", 0.4,
                         "--out", out])
    assert p.returncode == 2 and "invalid int value" in p.stderr
    p = lowdisc_process(["lowdisc", "--m", 997, "--eps", 2.0, "--out", out])
    assert p.returncode == 2 and p.stderr.startswith("error: ")


def test_exception_escaping_main_prints_its_traceback_and_exits_1():
    code = ("import lowdisc.cli as cli\n"
            "def boom(args, started):\n"
            "    raise RuntimeError('boom')\n"
            "cli._cmd_approx = boom\n"
            "cli.run()\n")
    p = python(["-c", code, "approx", "--fn", "MAJ_3", "--out", "unused"])
    assert p.returncode == 1
    assert "Traceback" in p.stderr and "RuntimeError: boom" in p.stderr


def test_run_runs_atexit_handlers_once_after_mains_output(tmp_path):
    code = ("import atexit, sys, lowdisc.cli as cli\n"
            "atexit.register(print, 'atexit out')\n"
            "atexit.register(print, 'atexit err', file=sys.stderr)\n"
            "cli.run()\n")
    z = build_set(tmp_path)
    bad = tampered(tmp_path, z)
    missing = tmp_path / "missing.json"
    for argv, code_, out in ((["verify", z], 0, f"{z}: ok\n"),
                             (["verify", bad], 1, f"{bad}: FAILED\n"),
                             (["verify", missing], 2, "")):
        p = python(["-c", code, *argv])
        assert p.returncode == code_, p.stderr
        assert p.stdout == out + "atexit out\n"
        assert p.stderr.endswith("\natexit err\n" if code_ else "atexit err\n")
        assert p.stderr.count("atexit err") == 1


def test_a_failed_flush_takes_the_interpreters_exit(tmp_path):
    # stdout is a pipe whose reader is gone: run's flush fails, and the
    # interpreter's own exit reports it (exit 120), as sys.exit does.
    z = build_set(tmp_path)
    r, w = os.pipe()
    os.close(r)
    with os.fdopen(w, "wb") as stdout:
        p = subprocess.run([sys.executable, "-m", "lowdisc.cli", "verify",
                            str(z)], env=child_env(), stdout=stdout,
                           stderr=subprocess.PIPE, text=True, timeout=120)
    assert p.returncode == 120 and "BrokenPipeError" in p.stderr


def test_piped_stdout_arrives_complete(tmp_path):
    # Longer than one stdout buffer, so the tail is flushed at exit.
    z = build_set(tmp_path)
    p = lowdisc_process(["verify"] + [z] * 400)
    assert p.returncode == 0, p.stderr
    assert len(p.stdout) > 3 * 8192
    assert p.stdout == f"{z}: ok\n" * 400


def test_piped_stderr_arrives_complete(tmp_path):
    bad = tampered(tmp_path, build_set(tmp_path))
    p = lowdisc_process(["verify"] + [bad] * 400)
    assert p.returncode == 1
    assert p.stdout == f"{bad}: FAILED\n" * 400
    lines = p.stderr.splitlines()
    assert len(p.stderr) > 3 * 8192 and len(lines) % 400 == 0
    assert lines == lines[:len(lines) // 400] * 400
    assert p.stderr.endswith("\n")


def test_import_runs_no_generated_code():
    # Every compile or exec event that `import lowdisc.cli` raises from
    # lowdisc's own frames, not through the import machinery loading a
    # module: a class statement that generates its methods (a dataclass)
    # raises them, a plain class does not.
    code = ("import sys, numpy, lowdisc\n"
            "pkg, events = lowdisc.__path__[0], []\n"
            "def hook(event, args):\n"
            "    if event not in ('compile', 'exec') or events is None:\n"
            "        return\n"
            "    f = sys._getframe(1)\n"
            "    while f is not None:\n"
            "        name = f.f_code.co_filename\n"
            "        if 'importlib' in name:\n"
            "            return\n"
            "        if name.startswith(pkg):\n"
            "            return events.append(f'{event} {name}:{f.f_lineno}')\n"
            "        f = f.f_back\n"
            "sys.addaudithook(hook)\n"
            "import lowdisc.cli\n"
            "found, events = events, None\n"
            "print(len(found), *found[:3])\n")
    p = python(["-c", code])
    assert p.returncode == 0, p.stderr
    assert p.stdout == "0\n"


def test_console_script_target_exits_with_mains_code(tmp_path):
    with open(PYPROJECT, encoding="utf-8") as fh:
        target = re.search(r'^lowdisc = "([\w.]+):(\w+)"$', fh.read(),
                           re.MULTILINE)
    assert target.groups() == ("lowdisc.cli", "run")
    # What the installed script runs: sys.exit(<target>()).
    script = (f"import sys\nfrom {target[1]} import {target[2]}\n"
              f"sys.exit({target[2]}())\n")
    z = build_set(tmp_path)
    for argv in (["verify", z], ["verify", tampered(tmp_path, z)],
                 ["verify", tmp_path / "missing.json"]):
        argv = list(map(str, argv))
        assert python(["-c", script, *argv]).returncode == cli.main(argv)


def test_main_in_process_freezes_nothing(tmp_path):
    # Nor does it run the atexit handlers or exit: only run does.
    before, ran = gc.get_freeze_count(), []
    atexit.register(ran.append, "atexit")
    try:
        z = build_set(tmp_path)
        assert cli.main(["verify", str(z), str(z) + ".manifest.json"]) == 0
    finally:
        atexit.unregister(ran.append)
    assert gc.get_freeze_count() == before and not ran


def test_approx_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A seeded 9-variable table at degree 4: on two or more cores its
    # minimax exchange's solves and products differ in their last bits
    # between one and two BLAS threads, unless the CLI pins one.
    rng = random.Random(77)
    table = tmp_path / "table_9.txt"
    table.write_text("".join(f"{rng.choice((1, -1))}\n" for _ in range(512)))
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            threads))
        out = tmp_path / f"approx_{threads}.json"
        p = lowdisc_process(["approx", "--fn", table, "--degree", 4,
                             "--out", out], env)
        assert p.returncode == 0, p.stderr
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


def peak_rss_mb(args, cwd):
    """The peak RSS (os.wait4's ru_maxrss) of the finished `python ARGS`
    process against this lowdisc, run in `cwd`, in MB. A child's
    ru_maxrss starts from its spawner's resident size, so a fresh
    launcher process spawns it, not this test process."""
    launcher = ("import os, subprocess, sys; "
                "c = subprocess.Popen([sys.executable, *sys.argv[1:]], "
                "stdout=subprocess.DEVNULL); "
                "_, status, usage = os.wait4(c.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    p = python(["-c", launcher, *args], cwd=cwd)
    exit_code, maxrss_kb = map(int, p.stdout.split())
    assert exit_code == 0, p.stderr
    return maxrss_kb / 1024


def test_large_text_artifacts_take_little_memory(tmp_path):
    # Above an `import lowdisc.cli` process. The expander's 29.6 MB edge
    # list at n = 20011 takes about 8 MB in blocks of 2^15 lines (38 MB
    # in blocks of 2048 vertices). The paper-mode trivial set at
    # m = 1000003 takes about 14 MB: its frequency vector is a stride-0
    # view of one count, and its 6.9 MB of element text is rendered,
    # hashed and written block by block (38 MB when the text was
    # rendered, quoted and written whole).
    base = peak_rss_mb(["-c", "import lowdisc.cli"], tmp_path)
    graph = peak_rss_mb(["-m", "lowdisc.cli", "expander", "--n", 20011,
                         "--eps", "0.5", "--seed", 1, "--out", "g.json"],
                        tmp_path)
    paper = peak_rss_mb(["-m", "lowdisc.cli", "lowdisc", "--m", 1000003,
                         "--eps", "0.3", "--mode", "paper", "--out",
                         "z.json"], tmp_path)
    assert os.path.getsize(tmp_path / "g.edges") > 29_000_000
    assert graph - base < 16, graph - base
    assert paper - base < 28, paper - base


def test_practical_disc_at_a_million_takes_little_memory(tmp_path):
    # Above an `import lowdisc.cli` process, the practical m = 1000003
    # build takes about 57 MB: numpy's irfft scratch, the two cached
    # kernel spectra, the transform buffer, the spectrum and the real
    # part. It took about 64 MB with int64 counts (8 MB for 270 ones),
    # an int64 Rader index table and a separate angle array.
    base = peak_rss_mb(["-c", "import lowdisc.cli"], tmp_path)
    practical = peak_rss_mb(["-m", "lowdisc.cli", "lowdisc", "--m", 1000003,
                             "--eps", "0.3", "--mode", "practical", "--seed",
                             1, "--out", "z.json"], tmp_path)
    assert practical - base < 61, practical - base


# A child that replaces ctypes.CDLL, before it imports lowdisc.cli, by a
# libc whose mallopt prints its arguments, then runs the code in argv[1].
RECORD_MALLOPT = (
    "import ctypes, sys\n"
    "class Libc:\n"
    "    def __init__(self, name):\n"
    "        assert name is None\n"
    "    def mallopt(self, param, value):\n"
    "        print('mallopt', param, value, flush=True)\n"
    "        return 1\n"
    "ctypes.CDLL = Libc\n"
    "import lowdisc.cli as cli\n"
    "exec(sys.argv[1])\n")


def test_only_run_keeps_the_freed_heap(tmp_path):
    z = build_set(tmp_path)
    p = python(["-c", RECORD_MALLOPT, "print(cli.main(sys.argv[2:]))",
                "verify", z, f"{z}.manifest.json"])
    assert p.returncode == 0, p.stderr
    assert "mallopt" not in p.stdout
    assert p.stdout.endswith(f"{z}.manifest.json: ok\n0\n")
    p = python(["-c", RECORD_MALLOPT, "sys.argv[1:2] = []; cli.run()",
                "verify", z])
    assert p.returncode == 0, p.stderr
    # M_MMAP_THRESHOLD at glibc's 64-bit maximum, then M_TRIM_THRESHOLD
    assert p.stdout == (f"mallopt -3 {32 << 20}\nmallopt -1 {1 << 30}\n"
                        f"{z}: ok\n")


def test_keep_freed_heap_without_mallopt_returns_quietly(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    def no_libc(name):
        raise OSError("no libc")

    for cdll in (NoMallopt, no_libc):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli._keep_freed_heap() is None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_practical_transform_reuses_the_freed_heap(tmp_path):
    # Each 2^20-point rfft or irfft of the m = 1000003 disc maps and unmaps
    # about 16 MB of numpy's scratch when malloc gives freed blocks back:
    # about 36,000 minor faults for the child, against about 17,000 when
    # the process keeps them.
    child = subprocess.Popen(
        [sys.executable, "-m", "lowdisc.cli", "lowdisc", "--m", "1000003",
         "--eps", "0.3", "--mode", "practical", "--seed", "1", "--out",
         "z.json"], env=child_env(), cwd=tmp_path, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_minflt < 25_000, usage.ru_minflt
