"""Item-title embeddings: binary persistence, caching, fetching, mocking.

Vectors are stored row-major float32 in a small binary container (magic
``TGE1``) with an optional ``.ids`` sidecar listing the external item ID of
each row. Fetched vectors are kept exactly as the provider returned them;
no re-normalization happens at ingestion. The cache is content-addressed
by (model name, title), so renaming an item without changing its title is
a cache hit; it holds one immutable segment file per fetched batch. Every
file, cache segments included, is written whole by ``files.write_atomic``:
an interrupted write never leaves a torn one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import struct
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import Callable

import numpy as np
import orjson
import requests
from requests.adapters import HTTPAdapter

from .corpus import ItemCatalog
from .errors import DataError
from .files import write_atomic

MAGIC = b"TGE1"
FORMAT_VERSION = 1
DEFAULT_BATCH_SIZE = 256
API_KEY_ENV = "TEXTGCN_EMBED_API_KEY"
ENDPOINT_ENV = "TEXTGCN_EMBED_URL"
SEGMENT_SUFFIX = ".tgc"
# cache file names: a segment's content hash plus the suffix, or (the
# per-vector layout of earlier versions) a bare key
_CACHE_NAME = re.compile(rf"[0-9a-f]{{64}}(?:{re.escape(SEGMENT_SUFFIX)})?")
_KEY_TABLE = re.compile(rb"(?:[0-9a-f]{64}\n)*")


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
    """True for a failure with no HTTP status, and for HTTP 408, 429 and 5xx."""
    status = err.status if isinstance(err, EmbeddingServiceError) else None
    return status is None or status in (408, 429) or status >= 500


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
    if ids is not None and len(ids) != len(matrix):
        raise DataError("sidecar ID count does not match row count")
    with write_atomic(path, "wb") as fh:
        _write_rows(fh, matrix)
    if ids is not None:
        with write_atomic(str(path) + ".ids") as fh:
            fh.write("".join(f"{i}\n" for i in ids))


def _write_rows(fh, matrix: np.ndarray) -> None:
    fh.write(MAGIC + struct.pack("<III", FORMAT_VERSION, *matrix.shape))
    fh.write(matrix)


def _read_header(fh, path: str | Path) -> tuple[int, int]:
    """(rows, dim) of the TGE1 file open at offset 0; its size must hold them."""
    header = fh.read(16)
    if len(header) < 16 or header[:4] != MAGIC:
        raise DataError(f"{path}: not an embedding file")
    version, n_rows, dim = struct.unpack("<III", header[4:])
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported embedding file version {version}")
    # checked before allocating, so a corrupt header cannot ask for a huge array
    if os.fstat(fh.fileno()).st_size < 16 + n_rows * dim * 4:
        raise DataError(f"{path}: truncated embedding file")
    return n_rows, dim


def _read_rows(fh, path: str | Path) -> np.ndarray:
    """The finite rows of the TGE1 file open at offset 0, in one new float32 array."""
    n_rows, dim = _read_header(fh, path)
    matrix = np.empty((n_rows, dim), dtype="<f4")
    # a zero-size array has no byte view, and nothing to read
    if matrix.size and fh.readinto(memoryview(matrix).cast("B")) < matrix.nbytes:
        raise DataError(f"{path}: truncated embedding file")
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: non-finite value in embedding file")
    return matrix


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a TGE1 file into one new writable float32 array (no second copy)."""
    with open(path, "rb") as fh:
        return _read_rows(fh, path)


def load_ids(path: str | Path) -> list[str]:
    return Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()


def cache_key(model: str, title: str) -> str:
    """Content hash of (model, title); 256-bit hex."""
    return hashlib.sha256(f"{model}\x1f{title}".encode("utf-8")).hexdigest()


def _is_key_table(table: bytes, n_rows: int) -> bool:
    return len(table) == 65 * n_rows and _KEY_TABLE.fullmatch(table) is not None


def _read_cache_file(path: Path) -> tuple[list[str], np.ndarray]:
    """The keys and read-only rows of one cache file, from one open.

    A segment's keys are the table after its rows; a per-vector entry's key
    is its name, and it holds exactly one row.
    """
    with open(path, "rb") as fh:
        rows = _read_rows(fh, path)
        table = fh.read()
    if path.suffix == SEGMENT_SUFFIX:
        if not _is_key_table(table, len(rows)):
            raise DataError(f"{path}: truncated or corrupt cache segment")
        keys = table.decode("ascii").split()
    elif len(rows) != 1:
        raise DataError(f"{path}: a per-vector cache entry holds {len(rows)} rows")
    else:
        keys = [path.name]
    rows.setflags(write=False)
    return keys, rows


class VectorCache:
    """Directory of immutable segments, one file per stored batch, made on the first put.

    A segment is a TGE1 container whose rows are followed by a key table, one
    64-hex key per line; it is named by a hash of its content plus
    ``SEGMENT_SUFFIX``. No file is rewritten and there is no index file, so
    deleting a segment forgets exactly its vectors, and two processes filling
    one cache never write the same file. The first ``get`` reads every
    segment, its key table and its rows, opening each file once; a segment
    that cannot be read is a ``DataError`` naming it, for every key, until
    it is deleted. A key stored in several files is read from the
    lowest-sorting name. A one-row TGE1 file named by its 64-hex key, the
    per-vector layout of earlier versions, is read as that key's entry; any
    other file or directory is ignored.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # key -> (name of the file it was read from, its read-only row)
        self._index: dict[str, tuple[str, np.ndarray]] | None = None

    @staticmethod
    def _add(index: dict[str, tuple[str, np.ndarray]], name: str, keys: list[str],
             rows: np.ndarray) -> None:
        for key, row in zip(keys, rows):
            if key not in index or name < index[key][0]:
                index[key] = (name, row)

    def get(self, key: str) -> np.ndarray | None:
        """The key's vector (read-only), or None."""
        if self._index is None:
            index: dict[str, tuple[str, np.ndarray]] = {}
            if self.directory.is_dir():
                with os.scandir(self.directory) as entries:
                    for entry in entries:
                        if _CACHE_NAME.fullmatch(entry.name) and entry.is_file():
                            self._add(index, entry.name, *_read_cache_file(Path(entry.path)))
            self._index = index
        found = self._index.get(key)
        return None if found is None else found[1]

    def put(self, keys: list[str], vectors: np.ndarray) -> None:
        """Write one new segment holding row i of ``vectors`` under ``keys[i]``."""
        rows = validate_matrix(vectors)
        table = "".join(f"{key}\n" for key in keys).encode("utf-8")
        if not _is_key_table(table, len(rows)):
            raise DataError(f"need one 64-hex cache key per row, got {len(keys)} keys "
                            f"for {len(rows)} rows")
        digest = hashlib.sha256(table)
        digest.update(rows)
        path = self.directory / (digest.hexdigest() + SEGMENT_SUFFIX)
        with write_atomic(path, "wb") as fh:
            _write_rows(fh, rows)
            fh.write(table)
        if self._index is not None:
            frozen = rows.copy()
            frozen.setflags(write=False)
            self._add(self._index, path.name, keys, frozen)


def _post_json(session: requests.Session, url: str, payload: dict, api_key: str | None,
               timeout: float = 60.0):
    """POST ``payload`` as JSON; the decoded body of a 2xx answer.

    The body must be strict UTF-8 JSON: ``NaN``, ``Infinity`` and a number
    beyond float64 range do not decode. An undecodable body carries its
    2xx status, so it is not retried.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    resp = session.post(url, data=json.dumps(payload), headers=headers, timeout=timeout)
    if not 200 <= resp.status_code < 300:
        # only the delay-seconds form is read; an HTTP-date falls back to the backoff
        value = resp.headers.get("Retry-After", "").strip()
        retry_after = (float(value) if resp.status_code in (429, 503) and value.isdecimal()
                       else None)
        raise EmbeddingServiceError(f"HTTP {resp.status_code} from {url}: {resp.text[:500]}",
                                    status=resp.status_code, retry_after=retry_after)
    try:
        return orjson.loads(resp.content)
    except orjson.JSONDecodeError as err:
        raise EmbeddingServiceError(f"undecodable JSON body in HTTP {resp.status_code} "
                                    f"from {url}: {err}", status=resp.status_code) from err


@contextlib.contextmanager
def http_transport(api_key: str | None, concurrency: int):
    """A ``post(url, payload)`` sending every request over one HTTP session, closed on exit.

    ``api_key`` goes out as a bearer token when given. The session keeps up to
    ``concurrency`` connections alive, so that many threads can share it and
    each request after a host's first can skip the TCP (and TLS) handshake.
    """
    with requests.Session() as session:
        adapter = HTTPAdapter(pool_maxsize=concurrency)
        session.mount("http://", adapter)
        session.mount("https://", adapter)
        yield lambda url, payload: _post_json(session, url, payload, api_key)


def _embed_batch(
    post: Callable[[str, dict], dict],
    endpoint: str,
    model: str,
    titles: list[str],
    max_attempts: int,
    backoff: float,
    sleep: Callable[[float], None],
) -> np.ndarray:
    """One request with retries; rows reordered by the response index.

    Only a failure with no HTTP status (in transport) and an HTTP 408, 429 or
    5xx answer are retried; any other answer, such as a 401 or a 2xx whose
    body does not decode, is raised at once: repeating the request cannot
    change it. Before a retry it sleeps the failure's
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
    data = body.get("data") if isinstance(body, dict) else None
    if not isinstance(data, list) or len(data) != len(titles):
        raise EmbeddingServiceError(
            f"endpoint returned {0 if not isinstance(data, list) else len(data)} "
            f"vectors for {len(titles)} inputs"
        )
    # as many entries as inputs, each at a distinct index in range: all are covered
    out: list[np.ndarray | None] = [None] * len(titles)
    for pos, entry in enumerate(data):
        idx = entry.get("index") if isinstance(entry, dict) else None
        if type(idx) is not int or not 0 <= idx < len(titles) or out[idx] is not None:
            raise EmbeddingServiceError(
                f"response entry {pos}: index {idx!r} is missing, out of range or repeated")
        emb = entry.get("embedding")
        # JSON numbers only: numpy would turn "1.5" or true into a float
        if type(emb) is not list or not set(map(type, emb)) <= {int, float}:
            raise EmbeddingServiceError(
                f"response entry {pos}: embedding is not a list of numbers")
        try:
            with np.errstate(over="ignore"):   # beyond float32 range becomes inf
                vec = np.array(emb, dtype=np.float32)
        except OverflowError:                  # an int beyond float64 range
            vec = None
        if vec is None or not np.isfinite(vec).all():
            raise EmbeddingServiceError(
                f"response entry {pos}: embedding holds a value that is not finite "
                "or beyond float32 range")
        out[idx] = vec
    return _stack(out)  # type: ignore[arg-type]


def _stack(vectors: list[np.ndarray]) -> np.ndarray:
    dims = sorted({v.shape[0] for v in vectors})
    if len(dims) > 1:
        raise EmbeddingServiceError(f"inconsistent embedding dimension: {dims}")
    return np.stack(vectors)


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
    endpoint; without it, every batch goes through one ``http_transport``
    (shared by the threads, closed on return) and ``api_key`` is sent as a
    bearer token when given.
    No environment variable is read here: the CLI reads ``API_KEY_ENV``.
    """
    if batch_size < 1 or concurrency < 1:
        raise DataError("batch_size and concurrency must be >= 1")

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

    def store(batch: list[tuple[str, str]], rows: np.ndarray) -> None:
        batch_keys = [key for key, _ in batch]
        if cache is not None:
            cache.put(batch_keys, rows)
        vectors.update(zip(batch_keys, rows))

    transport = (http_transport(api_key, concurrency) if post is None
                 else contextlib.nullcontext(post))
    with transport as send:
        def run(batch: list[tuple[str, str]]) -> np.ndarray:
            return _embed_batch(send, endpoint, model, [t for _, t in batch],
                                max_attempts, backoff, sleep)

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

    matrix = _stack([vectors[k] for k in keys]) if keys else np.zeros((0, 0), np.float32)
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
