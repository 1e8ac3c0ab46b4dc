"""The process entry point. `python -m lowdisc.cli` and the `lowdisc`
script both start at `cli.run`, which exits with main's code after
freezing the heap; `main` run in-process freezes nothing. A process runs
on one BLAS thread whatever its caller sets."""

import gc
import json
import os
import random
import re
import subprocess
import sys

import lowdisc
from lowdisc import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lowdisc.__file__)))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def python(args, env=None):
    """The finished `python ARGS` process against this lowdisc, with its
    output captured as text, killed (TimeoutExpired) after 120 s."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


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


def test_run_freezes_the_heap_before_atexit_handlers_run(tmp_path):
    code = ("import atexit, gc, lowdisc.cli as cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "cli.run()\n")
    p = python(["-c", code, "verify", build_set(tmp_path)])
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[0].endswith(": ok")
    assert lines[1].startswith("frozen ") and int(lines[1].split()[1]) > 0


def test_piped_stdout_arrives_complete(tmp_path):
    # Longer than one stdout buffer, so the tail is flushed at exit.
    z = build_set(tmp_path)
    p = lowdisc_process(["verify"] + [z] * 400)
    assert p.returncode == 0, p.stderr
    assert len(p.stdout) > 3 * 8192
    assert p.stdout == f"{z}: ok\n" * 400


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
    before = gc.get_freeze_count()
    z = build_set(tmp_path)
    assert cli.main(["verify", str(z), str(z) + ".manifest.json"]) == 0
    assert gc.get_freeze_count() == before


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
