"""Reports do not depend on the hash seed or on where terms were allocated.

Terms hash by identity, so any iteration over a set or dict of terms that
leaked into output would show here: the same run in fresh interpreters with
different PYTHONHASHSEED values (and hence different string hashes and
allocation histories) must print the same bytes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, os, sys, tempfile
from piworkbench.cli import main
from piworkbench.harness import CheckSpec, GenConfig, Limits, generate_corpus, run_suite

cfg = GenConfig(seed=29, max_size=8, communication_bias=0.8, insert_success_probability=0.2)
checks = [
    CheckSpec("v-wbb", "bisim-validity", {"scheme": "boudol", "relation": "wbb"}),
    CheckSpec("v-ewb", "bisim-validity", {"scheme": "ht", "relation": "ewb"}),
    CheckSpec("crit-s", "criterion", {"scheme": "boudol", "criterion": "s", "depth": 2}),
    CheckSpec("div", "divergence", {"scheme": "ht", "depth": 3}),
    CheckSpec("l6", "lemma", {"lemma": "l6", "depth": 3}),
]
report = run_suite(generate_corpus(cfg, 10), checks, Limits(depth=5), {"seed": 29})
print(json.dumps(report.to_dict(), sort_keys=True))
with tempfile.TemporaryDirectory() as d:
    os.chdir(d)
    with open("t.pi", "w") as f:
        f.write("x!z\n")
    with open("enc.pi", "w") as f:
        f.write("(nu u)(x!u | u?(v).(v!z | 0))\n")
    for kind in ("wbb", "ewb"):
        print("exit", main(["check", "--kind", kind, "--depth", "8", "t.pi", "enc.pi"]))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_independent_of_hash_seed():
    first = _run("0")
    assert '"reports"' in first and "exit 0" in first and "exit 1" in first
    assert _run("1") == first
