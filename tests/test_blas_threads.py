"""`textgcn evaluate` writes the same bytes at one and at two BLAS threads.

The thread pools are sized when numpy loads, so each thread count needs
its own process. The corpus is large enough that OpenBLAS splits the
score products (512-user blocks of 256-dim rows against 1,200 items)
across threads. Training is not covered: at this shape a 3-epoch `train`
writes different tensors and `log.jsonl` under one and two threads.
"""

import os
import subprocess
import sys
from pathlib import Path

from textgcn.cli import main

ROOT = Path(__file__).resolve().parent.parent
SYNTH = "clusters:4,users:1500,items:1200,seed:5"


def _evaluate(threads: int, workdir: Path) -> dict[str, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = ["evaluate", "--dataset", "data", "--model", "textgcn",
            "--embeddings", "emb/items.tge", "--layers", "2", "--out", "eval/report.json"]
    result = subprocess.run([sys.executable, "-m", "textgcn", *argv], cwd=workdir, env=env,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return {name: (workdir / "eval" / name).read_bytes()
            for name in ("report.json", "manifest.json")} | {"stdout": result.stdout}


def test_evaluate_identical_across_blas_thread_counts(tmp_path):
    assert main(["ingest", "--synthetic", SYNTH, "--out", str(tmp_path / "data")]) == 0
    assert main(["embed", "--dataset", str(tmp_path / "data"), "--out",
                 str(tmp_path / "emb" / "items.tge"), "--mock", "--dim", "256",
                 "--seed", "1"]) == 0
    one = _evaluate(1, tmp_path)
    two = _evaluate(2, tmp_path)
    assert one == two
