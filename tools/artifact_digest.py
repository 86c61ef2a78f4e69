"""Hash every artifact and the stdout of one short CLI pipeline run.

Usage: python tools/artifact_digest.py [SRC]

Imports textgcn from SRC (default: this checkout's ``src/``) and runs, in a
fresh temporary directory and with relative paths only: ``ingest
--synthetic`` twice (once with every home pool running out), ``ingest
--dataset`` on a small raw dataset with a repeated
pair, a comment line, a blank line and a bare user line, ``embed --mock``
with flags and again with a ``--config`` file, ``embed --endpoint --cache``
against a loopback server the tool starts (its vectors hold 17-digit
doubles, ``-0.0``, JSON integers and float32 subnormals), ``diffuse``, a short
``train``, ``train --ablation`` and ``train --config``, ``evaluate`` for
every model tag (``textgcn`` both from raw embeddings and from the diffused
files, ``mlp`` on the two-tower and on a one-tower checkpoint),
``recommend`` with and without the checkpoint, each asking for one user
twice, and ``tune --stage broad`` over a small space file followed by
``tune --stage pos`` into the same records directory. The tool writes the
raw dataset, the space and the config files itself. A flag next to each
config file overrides one of its settings. It prints one ``sha256  path``
line per file the run left (the input files, every trial record,
``summary.tsv`` and the cache segments among them), except the endpoint
run's ``manifest.json``, which records the server's port, then one for the
concatenated stdout of the commands, where the endpoint URL is echoed as
``{endpoint}``.

Two source trees that print the same lines produce byte-identical outputs
for these commands: run it on a parent and on a change and diff the two
listings. Output directories are created before each command, so trees
whose ``--out`` needs an existing directory run too.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.server
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

SYNTH = "clusters:2,users:60,items:40,seed:3,min_degree:5,max_degree:8"
# 5 items per cluster against degrees of 8 to 12, all home: every home pool runs out
SYNTH_EXHAUSTED = "clusters:4,users:40,items:20,seed:4,purity:1,min_degree:8,max_degree:12"
USERS = "u0,u3,u0"
INPUTS = {
    "space.json": '{"values": {"d_out": [8, 16], "n_layers": [1, 2]}}\n',
    "cfg.json": '{"seed": 2, "lr": 0.01, "max_epochs": 3, "d_out": 8, "neg_samples": 16, '
                '"batch_users": 16, "pos_k": null, "tower_mode": "one"}\n',
    # one embed config serves both modes: --mock reads only dim and seed
    "embed-cfg.json": '{"dim": 8, "seed": 5, "endpoint": "http://127.0.0.1:1/v1", '
                      '"model": "m"}\n',
    # ingest --dataset reports the repeated pair (a, x) and drops c, who has no train item
    "raw/train.txt": "# raw interactions\na x y x\n\nb y z\nc\n",
    "raw/val.txt": "a z\n",
    "raw/test.txt": "b x\nc y\n",
    "raw/titles.tsv": "x\tfirst title\ny\tsecond title\nz\tthird title\n",
}
TRAIN = ["--seed", "1", "--max-epochs", "3", "--out-dim", "8", "--neg", "16", "--batch", "16"]
COMMANDS = [
    ["ingest", "--synthetic", SYNTH, "--out", "data"],
    ["ingest", "--synthetic", SYNTH_EXHAUSTED, "--out", "data-exhausted"],
    ["ingest", "--dataset", "raw"],
    ["embed", "--dataset", "data", "--out", "emb/items.tge", "--mock", "--dim", "16",
     "--seed", "3"],
    ["embed", "--dataset", "data", "--out", "emb-config/items.tge", "--mock",
     "--config", "embed-cfg.json", "--seed", "3"],
    ["embed", "--dataset", "data", "--out", "emb-http/items.tge", "--endpoint", "{endpoint}",
     "--model", "m", "--batch-size", "16", "--cache", "emb-cache"],
    ["diffuse", "--dataset", "data", "--embeddings", "emb/items.tge", "--layers", "2",
     "--out", "diffused"],
    # depth 1, so commands that default to the checkpoint's depth differ from depth 2
    ["train", "--dataset", "data", "--embeddings", "emb/items.tge", "--out", "ckpt",
     "--layers", "1", *TRAIN],
    ["train", "--dataset", "data", "--embeddings", "emb/items.tge", "--out", "ablation",
     "--ablation", "--layers", "1", *TRAIN],
    ["train", "--dataset", "data", "--embeddings", "emb/items.tge", "--out", "ckpt-config",
     "--config", "cfg.json", "--lr", "0.002"],
    ["evaluate", "--dataset", "data", "--model", "random", "--seed", "4",
     "--out", "eval/random/report.json"],
    ["evaluate", "--dataset", "data", "--model", "pop", "--out", "eval/pop/report.json"],
    ["evaluate", "--dataset", "data", "--model", "textgcn", "--embeddings", "emb/items.tge",
     "--out", "eval/textgcn/report.json"],
    ["evaluate", "--dataset", "data", "--model", "textgcn",
     "--user-emb", "diffused/user_final.tge", "--item-emb", "diffused/item_final.tge",
     "--out", "eval/textgcn-files/report.json"],
    ["evaluate", "--dataset", "data", "--model", "mlp", "--checkpoint", "ckpt",
     "--embeddings", "emb/items.tge", "--out", "eval/mlp/report.json"],
    ["evaluate", "--dataset", "data", "--model", "mlp", "--checkpoint",
     "ablation/one-tower_k-pos", "--embeddings", "emb/items.tge",
     "--out", "eval/mlp-one-tower/report.json"],
    ["recommend", "--dataset", "data", "--embeddings", "emb/items.tge", "--users", USERS,
     "--k", "5", "--out", "recs/plain/recs.tsv"],
    ["recommend", "--dataset", "data", "--embeddings", "emb/items.tge", "--checkpoint", "ckpt",
     "--users", USERS, "--k", "5", "--out", "recs/mlp/recs.tsv"],
    ["tune", "--dataset", "data", "--embeddings", "emb/items.tge", "--stage", "broad",
     "--space", "space.json", "--records", "trials", *TRAIN],
    ["tune", "--dataset", "data", "--embeddings", "emb/items.tge", "--stage", "pos",
     "--quantiles", "0.25,0.5", "--records", "trials", *TRAIN],
]


# records the endpoint URL, whose port differs from run to run
UNLISTED = {"emb-http/manifest.json"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _title_vector(title: str) -> list:
    """A 17-digit double, -0.0, a JSON integer and a float32 subnormal, from the title."""
    digest = hashlib.sha256(title.encode("utf-8")).digest()
    return [int.from_bytes(digest[:8], "little") / 2 ** 64 - 0.5, -0.0, digest[8] - 128,
            (digest[9] + 1) * 1e-42]


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """The embeddings protocol: each input title answered with its ``_title_vector``."""

    def do_POST(self):
        titles = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["input"]
        body = json.dumps({"data": [{"index": i, "embedding": _title_vector(t)}
                                    for i, t in enumerate(titles)]}).encode("ascii")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def digest_lines(main) -> list[str]:
    """Run COMMANDS through ``main`` in the current directory; one line per artifact."""
    stdout = io.StringIO()
    for name, text in INPUTS.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text(text, encoding="utf-8")
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    endpoint = f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    try:
        for argv in COMMANDS:
            if "--out" in argv:
                Path(argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
            stdout.write("$ textgcn " + " ".join(argv) + "\n")
            with contextlib.redirect_stdout(stdout):
                code = main([arg.format(endpoint=endpoint) for arg in argv])
            if code != 0:
                raise SystemExit(f"textgcn {' '.join(argv)} exited {code}")
    finally:
        server.shutdown()
        server.server_close()
    files = sorted(p for p in Path(".").rglob("*")
                   if p.is_file() and p.as_posix() not in UNLISTED)
    lines = [f"{_sha256(p.read_bytes())}  {p.as_posix()}" for p in files]
    return lines + [f"{_sha256(stdout.getvalue().encode('utf-8'))}  <stdout>"]


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    os.environ["TEXTGCN_EMBED_API_KEY"] = "digest-key"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src.resolve()))
    from textgcn.cli import main as textgcn_main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            lines = digest_lines(textgcn_main)
        finally:
            os.chdir(cwd)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
