import http.server
import json
import threading
import time

import numpy as np
import pytest

from textgcn.corpus import ItemCatalog
from textgcn.embeddings import (EmbeddingServiceError, VectorCache, cache_key,
                                fetch_embeddings, load_ids, load_matrix, mock_embed,
                                save_matrix)
from textgcn.errors import DataError


def test_save_load_roundtrip(tmp_path, rng):
    m = rng.standard_normal((7, 5)).astype(np.float32)
    path = tmp_path / "m.tge"
    save_matrix(m, path, ids=[f"i{k}" for k in range(7)])
    again = load_matrix(path)
    assert again.dtype == np.float32
    assert np.array_equal(m, again)
    assert again.tobytes() == m.tobytes()
    assert again.flags.writeable
    assert load_ids(path) == [f"i{k}" for k in range(7)]


@pytest.mark.parametrize("shape", [(0, 4), (3, 4), (0, 0)])
def test_save_load_roundtrip_of_shape(tmp_path, rng, shape):
    # a zero-row file, such as an empty catalog's, reads back like any other
    m = rng.standard_normal(shape).astype(np.float32)
    path = tmp_path / "m.tge"
    save_matrix(m, path)
    again = load_matrix(path)
    assert again.shape == shape and again.tobytes() == m.tobytes()


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "x.tge"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError, match="not an embedding file"):
        load_matrix(path)


def test_load_truncated(tmp_path, rng):
    path = tmp_path / "m.tge"
    save_matrix(rng.standard_normal((4, 4)).astype(np.float32), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_matrix(path)


@pytest.mark.parametrize("cut, match", [
    (lambda raw: raw[:16], "truncated"),
    (lambda raw: raw[:10], "not an embedding file"),
    # a header claiming 2**32 - 1 rows is refused before any allocation
    (lambda raw: raw[:8] + b"\xff\xff\xff\xff" + raw[12:], "truncated"),
], ids=["header-only", "mid-header", "huge-header"])
def test_load_cut_at_header(tmp_path, rng, cut, match):
    path = tmp_path / "m.tge"
    save_matrix(rng.standard_normal((4, 4)).astype(np.float32), path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(DataError, match=match):
        load_matrix(path)


def test_save_rejects_nonfinite():
    bad = np.array([[1.0, np.inf]], dtype=np.float32)
    with pytest.raises(DataError, match="non-finite"):
        save_matrix(bad, "/dev/null")


class TestMockEmbed:
    def test_identical_titles_identical_rows(self):
        catalog = ItemCatalog(["same words", "other thing", "same words"])
        m = mock_embed(catalog, dim=16, seed=1)
        assert np.array_equal(m[0], m[2])
        assert not np.array_equal(m[0], m[1])

    def test_unit_norms(self):
        catalog = ItemCatalog([f"title number {k}" for k in range(50)])
        m = mock_embed(catalog, dim=32, seed=0)
        norms = np.linalg.norm(m.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_deterministic_across_calls(self):
        catalog = ItemCatalog(["a b c", "d e"])
        a = mock_embed(catalog, dim=8, seed=5)
        b = mock_embed(catalog, dim=8, seed=5)
        assert a.tobytes() == b.tobytes()

    def test_seed_change_decorrelates(self):
        # derived check: with dim=64, old/new vectors of the same title
        # should be near-orthogonal for >= 99% of 1000 titles
        titles = [f"unique title {k}" for k in range(1000)]
        catalog = ItemCatalog(titles)
        a = mock_embed(catalog, dim=64, seed=0).astype(np.float64)
        b = mock_embed(catalog, dim=64, seed=1).astype(np.float64)
        cos = np.sum(a * b, axis=1)
        assert np.mean(np.abs(cos) < 0.5) >= 0.99

    def test_shared_words_attract(self):
        catalog = ItemCatalog(["genre0 itemA", "genre0 itemB", "genre1 itemC"])
        m = mock_embed(catalog, dim=64, seed=3).astype(np.float64)
        same = float(m[0] @ m[1])
        cross = float(m[0] @ m[2])
        assert same > cross + 0.2


class FakeEndpoint:
    """Deterministic vectors per title; scrambles response order; can fail."""

    def __init__(self, dim=4, fail_first=0):
        self.dim = dim
        self.requests: list[list[str]] = []
        self.fail_first = fail_first

    def vector(self, title: str) -> list[float]:
        rng = np.random.default_rng(abs(hash(title)) % (2 ** 32))
        return rng.standard_normal(self.dim).astype(np.float32).tolist()

    def __call__(self, url: str, payload: dict) -> dict:
        if self.fail_first > 0:
            self.fail_first -= 1
            raise ConnectionError("flaky")
        titles = payload["input"]
        self.requests.append(list(titles))
        data = [{"index": i, "embedding": self.vector(t)}
                for i, t in enumerate(titles)]
        return {"data": list(reversed(data))}


def test_fetch_cache_contract(tmp_path):
    cache = VectorCache(tmp_path / "cache")
    endpoint = FakeEndpoint()
    for title in ("a", "b", "c"):
        cache.put(cache_key("m", title), np.asarray(endpoint.vector(title), np.float32))
    catalog = ItemCatalog(["a", "b", "c", "d", "e"])
    fake = FakeEndpoint()
    m = fetch_embeddings(catalog, "http://x", "m", batch_size=16, cache=cache, post=fake)
    assert fake.requests == [["d", "e"]]
    assert m.shape == (5, 4)

    # second call: everything cached, zero requests, byte-identical
    fake2 = FakeEndpoint()
    m2 = fetch_embeddings(catalog, "http://x", "m", batch_size=16, cache=cache, post=fake2)
    assert fake2.requests == []
    assert m2.tobytes() == m.tobytes()


def test_fetch_row_order_respects_catalog(tmp_path):
    catalog = ItemCatalog(["z", "y", "x", "w"])
    fake = FakeEndpoint()
    m = fetch_embeddings(catalog, "http://x", "m", batch_size=2, post=fake)
    assert fake.requests == [["z", "y"], ["x", "w"]]
    for row, title in enumerate(catalog.titles):
        assert np.allclose(m[row], fake.vector(title))


def test_fetch_duplicate_titles_single_request(tmp_path):
    catalog = ItemCatalog(["dup", "dup", "solo"])
    fake = FakeEndpoint()
    m = fetch_embeddings(catalog, "http://x", "m", batch_size=16, post=fake)
    assert fake.requests == [["dup", "solo"]]
    assert np.array_equal(m[0], m[1])


@pytest.mark.parametrize("setting", [{"concurrency": 0}, {"concurrency": -3},
                                     {"batch_size": 0}])
def test_fetch_rejects_a_setting_below_one(setting):
    fake = FakeEndpoint()
    with pytest.raises(DataError, match="batch_size and concurrency must be >= 1"):
        fetch_embeddings(ItemCatalog(["a", "b", "c"]), "http://x", "m", post=fake, **setting)
    assert fake.requests == []


def test_fetch_mixed_dims_error():
    class MixedDims(FakeEndpoint):
        def __call__(self, url, payload):
            data = [{"index": i, "embedding": [0.0] * (3 + i)}
                    for i in range(len(payload["input"]))]
            return {"data": data}

    catalog = ItemCatalog(["a", "b"])
    with pytest.raises(EmbeddingServiceError, match="inconsistent embedding dimension"):
        fetch_embeddings(catalog, "http://x", "m", post=MixedDims())


def test_fetch_retries_then_succeeds():
    fake = FakeEndpoint(fail_first=2)
    sleeps = []
    catalog = ItemCatalog(["a"])
    m = fetch_embeddings(catalog, "http://x", "m", post=fake,
                         max_attempts=3, backoff=0.5, sleep=sleeps.append)
    assert m.shape == (1, 4)
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_fetch_exhausted_retries_error():
    fake = FakeEndpoint(fail_first=99)
    catalog = ItemCatalog(["a"])
    with pytest.raises(EmbeddingServiceError, match="after 3 attempts"):
        fetch_embeddings(catalog, "http://x", "m", post=fake,
                         max_attempts=3, sleep=lambda s: None)


class StatusEndpoint(FakeEndpoint):
    """Answers every request with one HTTP error status."""

    def __init__(self, status):
        super().__init__()
        self.status = status
        self.calls = 0

    def __call__(self, url, payload):
        self.calls += 1
        raise EmbeddingServiceError(f"HTTP {self.status} from {url}", status=self.status)


def test_fetch_client_error_not_retried():
    fake = StatusEndpoint(401)
    sleeps = []
    with pytest.raises(EmbeddingServiceError, match="HTTP 401") as info:
        fetch_embeddings(ItemCatalog(["a"]), "http://x", "m", post=fake,
                         max_attempts=3, sleep=sleeps.append)
    assert info.value.status == 401
    assert fake.calls == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [408, 429, 503])
def test_fetch_transient_status_retried(status):
    fake = StatusEndpoint(status)
    sleeps = []
    with pytest.raises(EmbeddingServiceError, match="after 3 attempts"):
        fetch_embeddings(ItemCatalog(["a"]), "http://x", "m", post=fake,
                         max_attempts=3, backoff=0.5, sleep=sleeps.append)
    assert fake.calls == 3
    assert sleeps == [0.5, 1.0]


class RetryAfterEndpoint(FakeEndpoint):
    """Fails its first request with one status and Retry-After delay, then answers."""

    def __init__(self, status, retry_after):
        super().__init__()
        self.failure = EmbeddingServiceError(f"HTTP {status}", status=status,
                                             retry_after=retry_after)

    def __call__(self, url, payload):
        failure, self.failure = self.failure, None
        if failure is not None:
            raise failure
        return super().__call__(url, payload)


@pytest.mark.parametrize("status, retry_after, slept", [
    (429, 7.0, 7.0), (503, 0.0, 0.0)])
def test_fetch_sleeps_retry_after(status, retry_after, slept):
    sleeps = []
    fetch_embeddings(ItemCatalog(["a"]), "http://x", "m",
                     post=RetryAfterEndpoint(status, retry_after),
                     max_attempts=3, backoff=0.5, sleep=sleeps.append)
    assert sleeps == [slept]


@pytest.mark.parametrize("concurrency", [1, 3])
def test_fetch_failure_keeps_earlier_batches_cached(tmp_path, concurrency):
    titles = [f"title {k}" for k in range(10)]
    catalog = ItemCatalog(titles)
    cache = VectorCache(tmp_path / "cache")

    class FailsOnThirdBatch(FakeEndpoint):
        def __call__(self, url, payload):
            if "title 4" in payload["input"]:
                raise ConnectionError("down")
            return super().__call__(url, payload)

    with pytest.raises(EmbeddingServiceError):
        fetch_embeddings(catalog, "http://x", "m", batch_size=2, cache=cache,
                         post=FailsOnThirdBatch(), concurrency=concurrency,
                         max_attempts=1)
    for title in titles[:4]:
        assert cache.get(cache_key("m", title)) is not None
    # concurrent batches after the failing one are kept if they had started
    missing = [t for t in titles if cache.get(cache_key("m", t)) is None]
    assert missing[:2] == titles[4:6]
    if concurrency == 1:
        assert missing == titles[4:]

    fake = FakeEndpoint()
    m = fetch_embeddings(catalog, "http://x", "m", batch_size=2, cache=cache, post=fake)
    assert [t for request in fake.requests for t in request] == missing
    for row, title in enumerate(titles):
        assert np.allclose(m[row], fake.vector(title))


def test_fetch_concurrent_failure_keeps_batches_that_return_later(tmp_path):
    # batch 1 fails at 0.2 s while batches 2-4 take 0.15 s each on two workers:
    # batch 2 returns before the failure, batches 3 and 4 after it (4 starts as
    # the failing worker frees up), and batch 5 has not started and is cancelled
    titles = [f"title {k}" for k in range(10)]
    cache = VectorCache(tmp_path / "cache")

    class SlowFirstBatchFails(FakeEndpoint):
        def __call__(self, url, payload):
            first = "title 0" in payload["input"]
            time.sleep(0.2 if first else 0.15)
            if first:
                raise ConnectionError("down")
            return super().__call__(url, payload)

    fake = SlowFirstBatchFails()
    with pytest.raises(EmbeddingServiceError, match="down"):
        fetch_embeddings(ItemCatalog(titles), "http://x", "m", batch_size=2, cache=cache,
                         post=fake, concurrency=2, max_attempts=1)
    returned = sorted(t for request in fake.requests for t in request)
    assert set(titles[2:6]) <= set(returned)
    assert not set(titles[8:]) & set(returned)
    assert [t for t in titles if cache.get(cache_key("m", t)) is not None] == returned


def test_cache_put_ignores_stale_tmp_name(tmp_path):
    cache = VectorCache(tmp_path / "c")
    key = cache_key("m", "t")
    # the cache makes its directory on the first put
    (cache.directory / f"{key}.tmp").mkdir(parents=True)
    vec = np.arange(3, dtype=np.float32)
    cache.put(key, vec)
    assert np.array_equal(cache.get(key), vec)
    assert sorted(p.name for p in cache.directory.iterdir()) == [key, f"{key}.tmp"]


def test_fetch_concurrent_batches_keep_order(tmp_path):
    titles = [f"title {k}" for k in range(9)]
    catalog = ItemCatalog(titles)
    fake = FakeEndpoint()
    m = fetch_embeddings(catalog, "http://x", "m", batch_size=2, post=fake,
                         concurrency=3)
    assert sorted(t for req in fake.requests for t in req) == sorted(titles)
    for row, title in enumerate(titles):
        assert np.allclose(m[row], fake.vector(title))


def test_cache_is_content_addressed(tmp_path):
    # same title under a different external item ID must hit the cache
    cache = VectorCache(tmp_path / "c")
    vec = np.arange(4, dtype=np.float32)
    cache.put(cache_key("m", "the title"), vec)
    assert np.array_equal(cache.get(cache_key("m", "the title")), vec)
    assert cache.get(cache_key("other-model", "the title")) is None


class _Handler(http.server.BaseHTTPRequestHandler):
    status = 200
    retry_after: str | None = None
    authorization: str | None = None   # the last request's header

    def do_POST(self):
        type(self).authorization = self.headers.get("Authorization")
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        if self.status != 200:
            body = b"quota exceeded"
            self.send_response(self.status)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
        else:
            data = [{"index": i, "embedding": [float(i), 1.0]}
                    for i in range(len(payload["input"]))]
            body = json.dumps({"data": data}).encode()
            self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    server.shutdown()
    server.server_close()


def test_fetch_over_real_http(http_endpoint):
    _Handler.status = 200
    catalog = ItemCatalog(["one", "two", "three"])
    m = fetch_embeddings(catalog, http_endpoint, "m", api_key="k")
    assert m.shape == (3, 2)
    assert m[1].tolist() == [1.0, 1.0]


def test_fetch_sends_only_the_key_it_is_given(http_endpoint, monkeypatch):
    # the library reads no environment variable; the CLI passes the key in
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "from-env")
    fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m")
    assert _Handler.authorization is None
    fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m", api_key="k")
    assert _Handler.authorization == "Bearer k"


def test_fetch_http_error_surfaces_body(http_endpoint):
    _Handler.status = 429
    try:
        catalog = ItemCatalog(["one"])
        with pytest.raises(EmbeddingServiceError, match="quota exceeded"):
            fetch_embeddings(catalog, http_endpoint, "m", api_key="k",
                             max_attempts=1, sleep=lambda s: None)
    finally:
        _Handler.status = 200


@pytest.mark.parametrize("status, header, slept", [
    (429, "3", 3.0),
    (503, " 2 ", 2.0),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),   # HTTP-date: the backoff
    (503, "soon", 0.5),
    (500, "3", 0.5),   # only 429 and 503 carry a delay to honour
])
def test_fetch_over_http_honours_retry_after(http_endpoint, status, header, slept):
    _Handler.status, _Handler.retry_after = status, header
    sleeps = []
    try:
        with pytest.raises(EmbeddingServiceError, match="after 2 attempts"):
            fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m", api_key="k",
                             max_attempts=2, backoff=0.5, sleep=sleeps.append)
    finally:
        _Handler.status, _Handler.retry_after = 200, None
    assert sleeps == [slept]
