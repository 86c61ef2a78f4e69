"""Loopback embedding endpoint speaking the JSON embeddings protocol.

One server thread inside the benchmark process. Each title's vector is a
hash of the title (``inputs.title_vector``) and its JSON fragment is
rendered once up front, so answering a request is a lookup and a join and
the endpoint costs little next to the client. ``POST /v1/embeddings``
answers; ``POST /refuse`` answers 403 to everything. The server counts the
requests and titles it serves and the requests it refuses.
"""

from __future__ import annotations

import http.server
import json
import threading

from inputs import title_vector


class EmbeddingEndpoint:
    def __init__(self, titles: set[str], dim: int):
        self.vectors = {t: title_vector(t, dim) for t in titles}
        self.fragments = {t: self._render(v) for t, v in self.vectors.items()}
        self.requests = 0
        self.titles_served = 0
        self.refused = 0
        endpoint = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                payload = self.rfile.read(int(self.headers["Content-Length"]))
                if self.path != "/v1/embeddings":
                    endpoint.refused += 1
                    self._reply(403, b'{"error": "refused"}')
                    return
                titles = json.loads(payload)["input"]
                endpoint.requests += 1
                endpoint.titles_served += len(titles)
                body = '{"data": [%s]}' % ", ".join(
                    '{"index": %d, %s}' % (i, endpoint.fragments[t])
                    for i, t in enumerate(titles))
                self._reply(200, body.encode("ascii"))

            def _reply(self, status: int, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address
        self.url = f"http://{host}:{port}/v1/embeddings"
        self.refuse_url = f"http://{host}:{port}/refuse"

    @staticmethod
    def _render(vector) -> str:
        return f'"embedding": {json.dumps(vector.tolist())}'

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
