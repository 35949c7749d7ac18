"""The correctness gate can fail: ``python3 -m pytest perfbench -q``.

A corrupted pin must count against ``ok_frac`` (and turn ``correct``
false) without crashing the run, and a checkout without the program's
source must fail without printing a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: The cheapest workload, and a seed it has pins for.
WORKLOAD, SEED = "campaign", 0


def test_a_wrong_pin_fails_its_group():
    result = common.Round(attempted=5)
    result.outputs = {"a": [1, 2.0], "b": {"x": 1}}
    result.group_ops = {"a": 3, "b": 2}
    right = {"a": common.digest([1, 2.0]), "b": common.digest({"x": 1})}
    assert common.check_pins("w", 1, result, {"w": {"1": right}}) == right
    assert result.failed == 0
    wrong = dict(right, a="0" * 64)
    common.check_pins("w", 1, result, {"w": {"1": wrong}})
    assert result.failed == 3 and len(result.failures) == 1


def test_digest_ignores_float_noise_below_nine_digits():
    assert common.digest([0.1 + 0.2]) == common.digest([0.3])
    assert common.digest([1.0000001]) != common.digest([1.0])


def _checkout(tmp_path: pathlib.Path, with_source: bool) -> pathlib.Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def _run(root: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_corrupted_pin_drops_ok_frac(tmp_path):
    root = _checkout(tmp_path, with_source=True)
    digests = root / "perfbench" / "digests.json"
    pins = json.loads(digests.read_text())
    group = pins[WORKLOAD][str(SEED)]
    first = sorted(group)[0]
    group[first] = "0" * 64
    digests.write_text(json.dumps(pins))

    proc = _run(root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "digest" in proc.stdout


def test_fails_without_program_source(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    proc = _run(root)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
