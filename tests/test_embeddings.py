import gc
import hashlib
import http.server
import json
import math
import os
import struct
import threading
import time
import warnings

import numpy as np
import orjson
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from textgcn.corpus import ItemCatalog, load_split
from textgcn import embeddings
from textgcn.cli import main
from textgcn.embeddings import (SEGMENT_SUFFIX, EmbeddingServiceError, VectorCache,
                                cache_key, fetch_embeddings, load_ids, load_matrix,
                                mock_embed, save_matrix)
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
    cache.put([cache_key("m", title) for title in ("a", "b", "c")],
              np.asarray([endpoint.vector(title) for title in ("a", "b", "c")], np.float32))
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
    cache.put([key], vec[None])
    assert np.array_equal(cache.get(key), vec)
    names = {p.name for p in cache.directory.iterdir()}
    assert (cache.directory / f"{key}.tmp").is_dir()
    [segment] = names - {f"{key}.tmp"}
    assert segment.endswith(SEGMENT_SUFFIX)


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
    cache.put([cache_key("m", "the title")], vec[None])
    assert np.array_equal(cache.get(cache_key("m", "the title")), vec)
    assert cache.get(cache_key("other-model", "the title")) is None


@pytest.mark.parametrize("data", [
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 2, "embedding": [1.0, 2.0]}],
    [{"embedding": [1.0, 2.0]}, {"index": 1, "embedding": [1.0, 2.0]}],
    [{"index": 0, "embedding": "AAAA"}, {"index": 1, "embedding": [1.0, 2.0]}],
    [{"index": -1, "embedding": [1.0, 2.0]}, {"index": 0, "embedding": [1.0, 2.0]}],
    [{"index": 0, "embedding": [[1.0, 2.0]]}, {"index": 1, "embedding": [[1.0, 2.0]]}],
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 0, "embedding": [1.0, 2.0]}],
    ["a", {"index": 1, "embedding": [1.0, 2.0]}],
    # JSON numbers only, each finite and within float32 range
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": ["1.5", 2.0]}],
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": [True, 2.0]}],
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": [1e39, 2.0]}],
    [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": [math.nan, 2.0]}],
], ids=["index-out-of-range", "index-missing", "base64-embedding", "negative-index",
        "2-d-embedding", "repeated-index", "entry-not-an-object", "numeric-string",
        "bool", "beyond-float32", "nan"])
def test_bad_response_entry_is_a_service_error(tmp_path, data):
    cache = VectorCache(tmp_path / "c")
    with pytest.raises(EmbeddingServiceError, match="response entry [01]"):
        fetch_embeddings(ItemCatalog(["a", "b"]), "http://x", "m", cache=cache,
                         post=lambda url, payload: {"data": data})
    assert not cache.directory.exists()


def _fill(directory, titles, batch_size):
    """Fetch ``titles`` through a cache in ``directory``; returns the endpoint used."""
    fake = FakeEndpoint()
    fetch_embeddings(ItemCatalog(titles), "http://x", "m", batch_size=batch_size,
                     cache=VectorCache(directory), post=fake)
    return fake


def test_cache_writes_one_segment_per_batch(tmp_path):
    fake = _fill(tmp_path / "c", [f"title {k}" for k in range(100)], 8)
    names = os.listdir(tmp_path / "c")
    assert len(names) == len(fake.requests) == 13
    assert all(name.endswith(SEGMENT_SUFFIX) for name in names)


def test_deleting_a_segment_forgets_exactly_its_batch(tmp_path):
    directory = tmp_path / "c"
    titles = [f"title {k}" for k in range(10)]
    first = _fill(directory, titles, 3)
    segments = sorted(directory.iterdir())
    segments[1].unlink()
    kept = {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in segments[:1] + segments[2:]}
    cache = VectorCache(directory)
    missing = [t for t in titles if cache.get(cache_key("m", t)) is None]
    assert missing in first.requests
    assert _fill(directory, titles, 3).requests == [missing]
    # the rerun adds one segment and rewrites none
    assert len(os.listdir(directory)) == 4
    assert {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in kept} == kept


def test_warm_fetch_opens_each_segment_once(tmp_path, monkeypatch):
    titles = [f"title {k}" for k in range(100)]
    _fill(tmp_path / "c", titles, 8)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(embeddings, "open", counting_open, raising=False)
    assert _fill(tmp_path / "c", titles, 8).requests == []
    assert sorted(opened) == sorted(os.listdir(tmp_path / "c"))
    assert len(opened) == 13


def test_two_caches_on_one_directory_each_add_segments(tmp_path):
    keys = [cache_key("m", title) for title in ("a", "b")]
    one, two = VectorCache(tmp_path / "c"), VectorCache(tmp_path / "c")
    assert one.get(keys[1]) is None         # one loads its index before either writes
    one.put(keys[:1], np.ones((1, 3), np.float32))
    two.put(keys[1:], np.full((1, 3), 2.0, np.float32))
    assert len(os.listdir(tmp_path / "c")) == 2
    assert one.get(keys[0]).tolist() == [1.0] * 3   # a put joins a loaded index
    fresh = VectorCache(tmp_path / "c")
    assert fresh.get(keys[0]).tolist() == [1.0] * 3
    assert fresh.get(keys[1]).tolist() == [2.0] * 3


def test_a_key_in_two_segments_reads_from_the_lowest_name(tmp_path):
    directory = tmp_path / "c"
    key = cache_key("m", "t")
    writer = VectorCache(directory)
    assert writer.get(key) is None
    value_of = {}
    for value in range(5):
        before = set(os.listdir(directory)) if directory.exists() else set()
        writer.put([key], np.full((1, 2), value, np.float32))
        [name] = set(os.listdir(directory)) - before
        value_of[name] = float(value)
    want = value_of[min(value_of)]
    for cache in (writer, VectorCache(directory), VectorCache(directory)):
        assert cache.get(key).tolist() == [want, want]


def test_cache_ignores_files_it_did_not_write(tmp_path):
    directory = tmp_path / "c"
    key = cache_key("m", "t")
    VectorCache(directory).put([key], np.ones((1, 2), np.float32))
    (directory / ".0123456789abcdef.tmp").write_bytes(b"torn")
    (directory / ("0" * 64 + SEGMENT_SUFFIX)).mkdir()
    (directory / ("1" * 64)).mkdir()
    (directory / "notes.txt").write_text("not a cache entry")
    (directory / f"{key}.tge").write_bytes(b"junk")
    cache = VectorCache(directory)
    assert cache.get(key).tolist() == [1.0, 1.0]
    assert cache.get("0" * 64) is None and cache.get("1" * 64) is None


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:-1],
    lambda raw: raw[:24],
    lambda raw: raw[:16] + np.float32(np.nan).tobytes() + raw[20:],
], ids=["key-table-cut", "rows-cut", "non-finite"])
def test_corrupt_segment_is_a_data_error(tmp_path, capsys, monkeypatch, corrupt):
    dataset = tmp_path / "ds"
    assert main(["ingest", "--synthetic", "clusters:2,users:30,items:24,seed:3",
                 "--out", str(dataset)]) == 0
    titles = load_split(dataset).catalog.titles
    _fill(tmp_path / "c", titles, 64)
    [segment] = (tmp_path / "c").iterdir()
    segment.write_bytes(corrupt(segment.read_bytes()))
    with pytest.raises(DataError, match=segment.name):
        VectorCache(tmp_path / "c").get(cache_key("m", titles[0]))
    monkeypatch.setenv("TEXTGCN_EMBED_API_KEY", "k")
    capsys.readouterr()
    # the error is raised before any request is sent
    assert main(["embed", "--dataset", str(dataset), "--out", str(tmp_path / "x.tge"),
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                 "--cache", str(tmp_path / "c")]) == 2
    assert segment.name in capsys.readouterr().err


def test_per_vector_entries_of_earlier_versions_are_hits(tmp_path):
    directory = tmp_path / "c"
    directory.mkdir()
    endpoint = FakeEndpoint()
    titles = ["a", "b", "c"]
    for title in titles:
        vec = np.asarray(endpoint.vector(title), np.float32)
        save_matrix(vec[None], directory / cache_key("m", title))
    fake = FakeEndpoint()
    m = fetch_embeddings(ItemCatalog(titles), "http://x", "m", cache=VectorCache(directory),
                         post=fake)
    assert fake.requests == []
    assert m.tolist() == [endpoint.vector(title) for title in titles]
    # a per-vector entry holds exactly one row
    save_matrix(np.ones((2, 4), np.float32), directory / cache_key("m", "d"))
    with pytest.raises(DataError, match=cache_key("m", "d")):
        VectorCache(directory).get(cache_key("m", "d"))


class _Handler(http.server.BaseHTTPRequestHandler):
    status = 200
    retry_after: str | None = None
    body: bytes | None = None          # a 200 answer's body in place of the vectors
    authorization: str | None = None   # the last request's header
    calls = 0

    def do_POST(self):
        type(self).calls += 1
        type(self).authorization = self.headers.get("Authorization")
        n = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(n))
        if self.body is not None:
            body = self.body
            self.send_response(200)
        elif self.status != 200:
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


@pytest.mark.parametrize("body", [
    b'{"data": [{"index": 0, "embedding": [1.0, 2',
    b'{"data": [{"index": 0, "embedding": [NaN, 2.0]}]}',
    b'{"data": [{"index": 0, "embedding": [Infinity, 2.0]}]}',
    b'{"data": [{"index": 0, "embedding": [1e400, 2.0]}]}',
    b'{"data": [{"index": 0, "embedding": [1.0, 2.0]}], "model": "\xff"}',
], ids=["truncated", "nan", "infinity", "beyond-float64", "not-utf-8"])
def test_fetch_undecodable_body_is_not_retried(http_endpoint, body):
    _Handler.body, _Handler.calls = body, 0
    sleeps = []
    try:
        with pytest.raises(EmbeddingServiceError,
                           match=f"undecodable JSON body in HTTP 200 from {http_endpoint}: "):
            fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m", api_key="k",
                             max_attempts=3, sleep=sleeps.append)
    finally:
        _Handler.body = None
    assert (_Handler.calls, sleeps) == (1, [])


def test_fetch_body_that_is_not_an_object(http_endpoint):
    _Handler.body = b"[]"
    try:
        with pytest.raises(EmbeddingServiceError, match="returned 0 vectors for 1 inputs"):
            fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m", max_attempts=1)
    finally:
        _Handler.body = None


# the JSON texts of one embedding, each parsed by the provider's JSON reader
EDGE_NUMBERS = [
    # shortest float32 reprs: largest, smallest normal, smallest subnormal, a tenth
    "3.4028235e+38", "1.1754944e-38", "1e-45", "0.1", "-16777216.0",
    # 17-digit doubles, some half-way between two float32 values
    "0.10000000000000001", "-1.0000000596046448", "3.4028234663852886e+38",
    "1.4012984643248171e-45", "2.2250738585072014e-308",
    # double subnormals, and one that underflows to 0
    "5e-324", "2.2250738585072009e-308", "-4.9406564584124654e-324", "1e-400",
    "-0.0", "0.0",
    # JSON integers, within and beyond int64 and uint64
    "0", "-3", "16777217", "9007199254740993", "-9223372036854775808",
    "18446744073709551615", "36893488147419103233",
]


def test_fetch_over_http_keeps_every_bit(http_endpoint):
    body = ('{"data": [{"index": 0, "embedding": [%s]}]}' % ", ".join(EDGE_NUMBERS)).encode()
    _Handler.body = body
    try:
        m = fetch_embeddings(ItemCatalog(["one"]), http_endpoint, "m")
    finally:
        _Handler.body = None
    want = np.array(json.loads(body)["data"][0]["embedding"], dtype=np.float32)
    assert m.tobytes() == want[None].tobytes()


def _bits(values: list) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_orjson_parses_finite_floats_like_json(values):
    for text in (repr, "{:.17g}".format, "{:.25e}".format,
                 lambda v: str(np.float32(v)) if abs(v) < 3.4e38 else repr(v)):
        doc = "[" + ", ".join(map(text, values)) + "]"
        assert _bits(orjson.loads(doc)) == _bits(json.loads(doc))


def _title_vector(title: str) -> list[float]:
    digest = hashlib.sha256(title.encode()).digest()
    return [int.from_bytes(digest[k:k + 8], "little") / 2 ** 64 - 0.5 for k in (0, 8, 16)]


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """Answers each title with its own vector over HTTP/1.1 keep-alive connections."""

    protocol_version = "HTTP/1.1"
    clients: list = []   # (host, port) of each request's connection

    def do_POST(self):
        self.clients.append(self.client_address)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = [{"index": i, "embedding": _title_vector(t)}
                for i, t in enumerate(payload["input"])]
        body = json.dumps({"data": data}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("concurrency", [1, 3])
def test_fetch_sends_every_batch_over_one_session(concurrency, monkeypatch):
    opened, closed = [], []

    class RecordingSession(requests.Session):
        def __init__(self):
            super().__init__()
            opened.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(requests, "Session", RecordingSession)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _KeepAliveHandler.clients = []
    titles = [f"title {k}" for k in range(12)]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = fetch_embeddings(ItemCatalog(titles),
                                 f"http://127.0.0.1:{server.server_port}/v1/embeddings", "m",
                                 batch_size=2, concurrency=concurrency)
            gc.collect()
    finally:
        server.shutdown()
        server.server_close()
    assert m.tobytes() == np.array([_title_vector(t) for t in titles], np.float32).tobytes()
    assert len(_KeepAliveHandler.clients) == 6
    # batches reuse kept-alive connections: at most one per thread
    assert 1 <= len(set(_KeepAliveHandler.clients)) <= concurrency
    # one session for the whole fetch, closed on return: no socket left for the collector
    assert len(opened) == 1 and closed == opened
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
