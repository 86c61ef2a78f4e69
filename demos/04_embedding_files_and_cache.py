"""Embedding persistence, the content-addressed cache, and the HTTP client.

Spins up a toy in-process endpoint speaking the JSON embeddings protocol,
fetches vectors through the real HTTP client (with batching and retries),
and shows that the cache, one segment file per fetched batch, makes the
second fetch free. Also demonstrates
the binary vector container and its sidecar ID file.
"""

import http.server
import json
import tempfile
import threading
from pathlib import Path

import numpy as np

from textgcn.corpus import ItemCatalog
from textgcn.embeddings import (SEGMENT_SUFFIX, VectorCache, fetch_embeddings, load_ids,
                                load_matrix, mock_embed, save_matrix)

workdir = Path(tempfile.mkdtemp(prefix="textgcn-emb-"))


# ------------------------------------------------------- toy endpoint
class ToyEmbedder(http.server.BaseHTTPRequestHandler):
    """Deterministic 8-dim vectors; the response arrives intentionally shuffled."""

    calls = 0

    def do_POST(self):
        type(self).calls += 1
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = []
        for index, title in enumerate(payload["input"]):
            rng = np.random.default_rng(len(title))
            data.append({"index": index,
                         "embedding": rng.standard_normal(8).round(4).tolist()})
        body = json.dumps({"data": data[::-1]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


server = http.server.HTTPServer(("127.0.0.1", 0), ToyEmbedder)
threading.Thread(target=server.serve_forever, daemon=True).start()
endpoint = f"http://127.0.0.1:{server.server_port}/v1/embeddings"
print(f"toy endpoint at {endpoint}\n")

# --------------------------------------------------------- first fetch
catalog = ItemCatalog(["alpha ray", "beta glow", "gamma pulse",
                       "delta wave", "alpha ray"])          # duplicate title
cache = VectorCache(workdir / "cache")
matrix = fetch_embeddings(catalog, endpoint, model="toy-embedder",
                          batch_size=2, cache=cache, api_key="demo-key")
print(f"fetched {matrix.shape[0]} rows in {ToyEmbedder.calls} requests "
      f"(duplicate titles share one vector)")
assert np.array_equal(matrix[0], matrix[4])

# -------------------------------------------------------- cached refetch
before = ToyEmbedder.calls
again = fetch_embeddings(catalog, endpoint, model="toy-embedder",
                         batch_size=2, cache=cache, api_key="demo-key")
print(f"refetch made {ToyEmbedder.calls - before} requests, "
      f"byte-identical: {again.tobytes() == matrix.tobytes()}")
segments = sorted((workdir / "cache").glob(f"*{SEGMENT_SUFFIX}"))
print(f"cache: {len(segments)} segment files, one per fetched batch, "
      f"for {len(set(catalog.titles))} distinct titles\n")
server.shutdown()

# -------------------------------------------------- binary container
path = workdir / "items.tge"
save_matrix(matrix, path, ids=[f"item-{k}" for k in range(5)])
loaded = load_matrix(path)
print(f"container round trip bit-exact: {loaded.tobytes() == matrix.tobytes()}")
print(f"sidecar IDs: {load_ids(path)}")
with open(path, "rb") as fh:
    print(f"header bytes: {fh.read(16).hex(' ')}  (magic TGE1, version, rows, dim)\n")

# ------------------------------------------------------- mock embedder
# Offline stand-in: token-hashed unit vectors, stable across machines.
offline = mock_embed(catalog, dim=8, seed=0)
print("mock embedder cosine(alpha ray, beta glow): "
      f"{float(offline[0] @ offline[1]):.3f}")
print("mock embedder cosine(alpha ray, alpha ray): "
      f"{float(offline[0] @ offline[4]):.3f}")
