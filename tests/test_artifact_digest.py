"""tools/artifact_digest.py lists the same digests on every run of one source tree."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"


def test_artifact_digest_repeats(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    runs = [subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr[-2000:]
    assert runs[0].stdout == runs[1].stdout
    paths = [line.split("  ", 1)[1] for line in runs[0].stdout.splitlines()]
    assert paths[-1] == "<stdout>"
    for artifact in ("ckpt/manifest.json", "eval/mlp/report.json",
                     "eval/textgcn-files/manifest.json", "recs/mlp/recs.tsv",
                     "trials/summary.tsv", "ablation/ablation.tsv",
                     "ablation/one-tower_k-pos/manifest.json",
                     "ablation/one-tower_k-pos/shared.w1.tge",
                     "eval/mlp-one-tower/manifest.json", "ckpt-config/manifest.json",
                     "ckpt-config/log.jsonl", "emb-config/items.tge",
                     "emb-config/manifest.json", "raw/train.txt", "raw/val.txt",
                     "raw/test.txt", "raw/titles.tsv", "emb-http/items.tge",
                     "emb-http/items.tge.ids", "data-exhausted/manifest.json",
                     "data-exhausted/train.txt"):
        assert artifact in paths
    # 40 titles in batches of 16: one cache segment per batch
    assert sum(p.startswith("emb-cache/") and p.endswith(".tgc") for p in paths) == 3
    assert "emb-http/manifest.json" not in paths    # it records the server's port
    assert list(tmp_path.iterdir()) == []     # the work directory is removed
