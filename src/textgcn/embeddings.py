"""Item-title embeddings: binary persistence, caching, fetching, mocking.

Vectors are stored row-major float32 in a small binary container (magic
``TGE1``) with an optional ``.ids`` sidecar listing the external item ID of
each row. Fetched vectors are kept exactly as the provider returned them;
no re-normalization happens at ingestion. The cache is content-addressed
by (model name, title), so renaming an item without changing its title is
a cache hit. Every file, cache entries included, is written whole by
``files.write_atomic``: an interrupted write never leaves a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import Callable

import numpy as np
import requests

from .corpus import ItemCatalog
from .errors import DataError
from .files import write_atomic

MAGIC = b"TGE1"
FORMAT_VERSION = 1
DEFAULT_BATCH_SIZE = 256
API_KEY_ENV = "TEXTGCN_EMBED_API_KEY"
ENDPOINT_ENV = "TEXTGCN_EMBED_URL"


class EmbeddingServiceError(RuntimeError):
    """Embedding endpoint failure that survived all retries.

    ``status`` is the HTTP status code when the endpoint answered with one;
    ``retry_after`` is the delay in seconds a 429 or 503 answer asked for
    in its ``Retry-After`` header, when it gave one as delay-seconds.
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _retryable(err: Exception) -> bool:
    """False only for an HTTP 4xx answer other than 408 and 429."""
    status = err.status if isinstance(err, EmbeddingServiceError) else None
    return status is None or status in (408, 429) or not 400 <= status < 500


def validate_matrix(matrix: np.ndarray) -> np.ndarray:
    """Coerce to contiguous float32 rows and require finite values."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise DataError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise DataError("non-finite value in embedding matrix")
    return matrix


def save_matrix(matrix: np.ndarray, path: str | Path, ids: list[str] | None = None) -> None:
    """Write a float32 matrix in the TGE1 container; bit-exact round trip."""
    matrix = validate_matrix(matrix)
    n_rows, dim = matrix.shape
    if ids is not None and len(ids) != n_rows:
        raise DataError("sidecar ID count does not match row count")
    with write_atomic(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<III", FORMAT_VERSION, n_rows, dim))
        fh.write(matrix)
    if ids is not None:
        with write_atomic(str(path) + ".ids") as fh:
            fh.write("".join(f"{i}\n" for i in ids))


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a TGE1 file into one new writable float32 array (no second copy)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != MAGIC:
            raise DataError(f"{path}: not an embedding file")
        version, n_rows, dim = struct.unpack("<III", header[4:])
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported embedding file version {version}")
        # checked before allocating, so a corrupt header cannot ask for a huge array
        if os.fstat(fh.fileno()).st_size < 16 + n_rows * dim * 4:
            raise DataError(f"{path}: truncated embedding file")
        matrix = np.empty((n_rows, dim), dtype="<f4")
        # a zero-size array has no byte view, and nothing to read
        if matrix.size and fh.readinto(memoryview(matrix).cast("B")) < matrix.nbytes:
            raise DataError(f"{path}: truncated embedding file")
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: non-finite value in embedding file")
    return matrix


def load_ids(path: str | Path) -> list[str]:
    return Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()


def cache_key(model: str, title: str) -> str:
    """Content hash of (model, title); 256-bit hex."""
    return hashlib.sha256(f"{model}\x1f{title}".encode("utf-8")).hexdigest()


class VectorCache:
    """Directory of per-key vector files, made on the first put."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def get(self, key: str) -> np.ndarray | None:
        path = self.directory / key
        return load_matrix(path)[0] if path.exists() else None

    def put(self, key: str, vector: np.ndarray) -> None:
        save_matrix(vector.reshape(1, -1), self.directory / key)


def _post_json(url: str, payload: dict, api_key: str | None, timeout: float = 60.0) -> dict:
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    resp = requests.post(url, data=json.dumps(payload), headers=headers, timeout=timeout)
    if not 200 <= resp.status_code < 300:
        # only the delay-seconds form is read; an HTTP-date falls back to the backoff
        value = resp.headers.get("Retry-After", "").strip()
        retry_after = (float(value) if resp.status_code in (429, 503) and value.isdecimal()
                       else None)
        raise EmbeddingServiceError(f"HTTP {resp.status_code} from {url}: {resp.text[:500]}",
                                    status=resp.status_code, retry_after=retry_after)
    return resp.json()


def _embed_batch(
    post: Callable[[str, dict], dict],
    endpoint: str,
    model: str,
    titles: list[str],
    max_attempts: int,
    backoff: float,
    sleep: Callable[[float], None],
) -> list[np.ndarray]:
    """One request with retries; vectors reordered by the response index.

    A 4xx answer other than 408 and 429 is raised at once: repeating the
    request cannot change it. Before a retry it sleeps the failure's
    ``retry_after`` when it has one, else the exponential backoff.
    """
    payload = {"model": model, "input": list(titles)}
    last_err: Exception | None = None
    for attempt in range(max_attempts):
        try:
            body = post(endpoint, payload)
            break
        except Exception as err:  # noqa: BLE001 - retried, re-raised below
            if not _retryable(err):
                raise
            last_err = err
            if attempt + 1 < max_attempts:
                delay = err.retry_after if isinstance(err, EmbeddingServiceError) else None
                sleep(backoff * (2 ** attempt) if delay is None else delay)
    else:
        raise EmbeddingServiceError(
            f"embedding request failed after {max_attempts} attempts: {last_err}"
        ) from last_err
    data = body.get("data")
    if not isinstance(data, list) or len(data) != len(titles):
        raise EmbeddingServiceError(
            f"endpoint returned {0 if not isinstance(data, list) else len(data)} "
            f"vectors for {len(titles)} inputs"
        )
    out: list[np.ndarray | None] = [None] * len(titles)
    for entry in data:
        idx = int(entry["index"])
        out[idx] = np.asarray(entry["embedding"], dtype=np.float32)
    if any(v is None for v in out):
        raise EmbeddingServiceError("response indices do not cover all inputs")
    return out  # type: ignore[return-value]


def fetch_embeddings(
    catalog: ItemCatalog,
    endpoint: str,
    model: str,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cache: VectorCache | None = None,
    api_key: str | None = None,
    concurrency: int = 1,
    post: Callable[[str, dict], dict] | None = None,
    max_attempts: int = 3,
    backoff: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
) -> np.ndarray:
    """Fetch one vector per catalog title, consulting the cache first.

    Only titles missing from the cache are sent (deduplicated, batched);
    the returned matrix always follows catalog order. Each batch's vectors
    go into the cache as soon as that batch returns, so a failed run keeps
    what it already paid for: with ``concurrency > 1`` a failure cancels
    the batches not yet started, keeps those still running that return,
    then raises the first failure.
    ``post`` is the transport and exists mainly so tests can inject a fake
    endpoint; without it, ``api_key`` is sent as a bearer token when given.
    No environment variable is read here: the CLI reads ``API_KEY_ENV``.
    """
    if batch_size < 1 or concurrency < 1:
        raise DataError("batch_size and concurrency must be >= 1")
    if post is None:
        post = lambda url, payload: _post_json(url, payload, api_key)

    keys = [cache_key(model, t) for t in catalog.titles]
    vectors: dict[str, np.ndarray] = {}
    if cache is not None:
        for key in keys:
            if key not in vectors:
                hit = cache.get(key)
                if hit is not None:
                    vectors[key] = hit

    missing: list[tuple[str, str]] = []
    seen = set(vectors)
    for key, title in zip(keys, catalog.titles):
        if key not in seen:
            seen.add(key)
            missing.append((key, title))

    batches = [missing[i:i + batch_size] for i in range(0, len(missing), batch_size)]

    def run(batch: list[tuple[str, str]]) -> list[np.ndarray]:
        return _embed_batch(post, endpoint, model, [t for _, t in batch],
                            max_attempts, backoff, sleep)

    def store(batch: list[tuple[str, str]], vecs: list[np.ndarray]) -> None:
        for (key, _), vec in zip(batch, vecs):
            vectors[key] = vec
            if cache is not None:
                cache.put(key, vec)

    if concurrency > 1 and len(batches) > 1:
        failure: BaseException | None = None
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = {pool.submit(run, batch): batch for batch in batches}
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                if future.exception() is None:
                    store(futures[future], future.result())
                elif failure is None:
                    failure = future.exception()
                    for pending in futures:
                        pending.cancel()
        if failure is not None:
            raise failure
    else:
        for batch in batches:
            store(batch, run(batch))

    dims = {v.shape[0] for v in vectors.values()}
    if len(dims) > 1:
        raise EmbeddingServiceError(f"inconsistent embedding dimension: {sorted(dims)}")
    matrix = np.stack([vectors[k] for k in keys]) if keys else np.zeros((0, 0), np.float32)
    return validate_matrix(matrix)


def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(f"{seed}\x1f{token}".encode("utf-8"), digest_size=16).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def mock_embed(catalog: ItemCatalog, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic stand-in for the embedding service.

    Each whitespace token hashes to a pseudo-random unit vector (blake2b
    keyed by the seed, expanded through PCG64); a title embeds as the
    normalized mean of its token vectors. Identical titles give identical
    rows, and titles sharing words land near each other, mimicking how a
    text model places related titles. Reproducible across platforms: the
    only float work is a fixed-order mean over explicitly seeded draws.
    """
    if dim < 2:
        raise DataError("mock embedding dim must be >= 2")
    token_vecs: dict[str, np.ndarray] = {}
    rows = np.zeros((catalog.n_items, dim), dtype=np.float64)
    for pos, title in enumerate(catalog.titles):
        tokens = title.split()
        acc = np.zeros(dim, dtype=np.float64)
        for tok in tokens:
            vec = token_vecs.get(tok)
            if vec is None:
                vec = _token_vector(tok, dim, seed)
                token_vecs[tok] = vec
            acc += vec
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            raise DataError(f"title at index {pos} produced a zero vector")
        rows[pos] = acc / norm
    return rows.astype(np.float32)
