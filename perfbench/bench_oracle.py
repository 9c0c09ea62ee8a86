"""Output checks that share no code with the library under test.

Artifacts are read with this file's own parsers, and the expected values
come from dense numpy algebra over the raw page-term frequencies in
``index.tsv``:

    T = (1 + ln f) * ln(N / df)     page x term tfidf, 0 where f = 0
    M = rownorm(T)                  the ESA concept space
    D = rownorm(T @ M.T)            every page's baseline concept vector

``rownorm`` leaves zero rows at zero. A baseline vector must equal its row
of D, and relatedness(a, b) the clipped cosine of columns a and b of M,
each within TOL.
"""

from __future__ import annotations

import os
import struct

import numpy as np

TOL = 1e-12

_ENTRY = np.dtype([("dim", "<u4"), ("weight", "<f8")])


def read_esvs(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse an ESVS vector set into {key: (dims, weights)}."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"ESVS":
        raise ValueError(f"{path}: not an ESVS file")
    (count,) = struct.unpack_from("<Q", buf, 4)
    offset = 12
    out = {}
    for _ in range(count):
        (key,) = struct.unpack_from("<Q", buf, offset)
        if buf[offset + 8:offset + 12] != b"ESAV":
            raise ValueError(f"{path}: entry {key} is not an ESAV record")
        _version, _tag, nnz = struct.unpack_from("<HBQ", buf, offset + 12)
        offset += 8 + 4 + 11
        entries = np.frombuffer(buf, dtype=_ENTRY, count=nnz, offset=offset)
        offset += nnz * _ENTRY.itemsize
        out[key] = (entries["dim"].astype(np.int64), entries["weight"].copy())
    if offset != len(buf):
        raise ValueError(f"{path}: {len(buf) - offset} trailing bytes")
    return out


def _rownorm(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    return np.divide(a, norms, out=np.zeros_like(a), where=norms > 0)


class ConceptSpace:
    """T and M rebuilt from an ``index.tsv`` (rows: page, term id, frequency)."""

    def __init__(self, index_tsv_path):
        rows = []
        page_ids = set()
        with open(index_tsv_path, encoding="utf-8") as fh:
            for line in fh:
                pid, tid, f = line.rstrip("\n").split("\t")
                page_ids.add(int(pid))
                if tid != "-":
                    rows.append((int(pid), int(tid), int(f)))
        self.page_ids = sorted(page_ids)
        row_of = {pid: i for i, pid in enumerate(self.page_ids)}
        n_terms = 1 + max((r[1] for r in rows), default=-1)
        freqs = np.zeros((len(self.page_ids), n_terms))
        for pid, tid, f in rows:
            freqs[row_of[pid], tid] = f
        present = freqs > 0
        df = present.sum(axis=0)
        idf = np.log(len(self.page_ids) / np.maximum(df, 1))
        self.tfidf = np.where(present, (1.0 + np.log(np.where(present, freqs, 1.0))) * idf, 0.0)
        self.concepts = _rownorm(self.tfidf)

    def baseline_rows(self, page_ids) -> np.ndarray:
        """Expected baseline concept vectors of the given pages, densely."""
        rows = [self.page_ids.index(pid) for pid in page_ids]
        return _rownorm(self.tfidf[rows] @ self.concepts.T)

    def relatedness(self, a: int, b: int) -> float:
        va, vb = self.concepts[:, a], self.concepts[:, b]
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(min(1.0, max(0.0, va @ vb / (na * nb))))


def check_baseline(cache_dir, space: ConceptSpace, sample: list[int]) -> list[str]:
    """Compare the sampled pages' rows of ``baseline.esvs`` with D."""
    vectors = read_esvs(os.path.join(cache_dir, "baseline.esvs"))
    if sorted(vectors) != space.page_ids:
        return ["baseline.esvs does not hold exactly the indexed pages"]
    expected = space.baseline_rows(sample)
    problems = []
    for pid, want in zip(sample, expected):
        dims, weights = vectors[pid]
        got = np.zeros(len(space.page_ids))
        got[dims] = weights
        err = float(np.max(np.abs(got - want)))
        if not err <= TOL:
            problems.append(f"baseline vector of page {pid} is off by {err:.3g}")
    return problems


def check_unit_or_zero(path) -> list[str]:
    """Every vector in the set has finite, non-negative weights and norm 1 or 0."""
    problems = []
    for key, (_dims, weights) in read_esvs(path).items():
        norm = float(np.linalg.norm(weights))
        if not (np.all(np.isfinite(weights)) and np.all(weights >= 0)) or (
                len(weights) and abs(norm - 1.0) > 1e-9):
            problems.append(f"{os.path.basename(path)}: vector {key} is not unit or zero")
    return problems
