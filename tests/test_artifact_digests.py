"""Golden artifact bytes: serialized structures must not change.

``tests/data/artifact_sha256.json`` holds the SHA-256 of
``serialize.to_bytes`` for one fitted structure of every CLI kind, plus
the block kind at delta = 1/floor(log2 n), 1/2 and 1, and the simple kind
on A6 and PSL(2,11) (built outside the corpus); and, per non-block
kind, one SHA-256 over the artifacts of every corpus group of order at
most 512 that the kind applies to, which pins each decomposition choice.
Regenerate it only when an artifact format change is intended:

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from gtool import serialize
from gtool.corpus import applicable_kinds

GOLDEN = Path(__file__).parent / "data" / "artifact_sha256.json"

CASES = [
    ("S4", "block", {"delta": "1/4"}),
    ("S4", "block", {"delta": "1/2"}),
    ("S4", "block", {"delta": "1"}),
    ("C60", "cyclic", {}),
    ("C7:C3", "zgroup", {}),
    ("A4", "composite", {}),
    ("A5", "simple", {}),
    ("C2xC4xC9", "fm-abelian", {}),
    ("Q8xC2xC5", "fm-hamiltonian", {}),
    ("C7:C3", "fm-zgroup", {}),
    ("A4", "fm-semidirect", {}),
    # 2-byte element ids (n = 360) and the simple-delegate layout
    ("C5", "simple", {}),
    ("C360", "cyclic", {}),
    ("C360", "composite", {}),
    ("C360", "fm-semidirect", {}),
    # 2-byte element ids in the nonabelian simple layout (n = 360, 660)
    ("A6", "simple", {}),
    ("PSL(2,11)", "simple", {}),
]


def _case_id(name, kind, params):
    extra = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}/{kind}" + (f"[{extra}]" if extra else "")


def _build(name, kind, params):
    from conftest import build_rep, build_table
    return build_rep(build_table(name), kind, **params)


def _digest(rep):
    return hashlib.sha256(serialize.to_bytes(rep)).hexdigest()


@pytest.mark.parametrize("name, kind, params", CASES,
                         ids=[_case_id(*c) for c in CASES])
def test_artifact_bytes_match_golden(name, kind, params):
    golden = json.loads(GOLDEN.read_text())[_case_id(name, kind, params)]
    rep = _build(name, kind, params)
    assert _digest(rep) == golden
    # scalar queries read through views of the arrays; the bytes must not
    # change
    for x in range(1, rep.n_ + 1):
        rep.multiply(x, rep.n_ + 1 - x)
    assert _digest(rep) == golden


CORPUS_KINDS = ("cyclic", "composite", "zgroup", "simple", "fm-abelian",
                "fm-hamiltonian", "fm-zgroup", "fm-semidirect")


def _corpus_digest(kind, rep_of):
    from conftest import small_entries
    h = hashlib.sha256()
    for e in small_entries(512):
        if kind in applicable_kinds(e):
            h.update(e.name.encode() + b"\0")
            h.update(serialize.to_bytes(rep_of(e.name, kind)))
    return h.hexdigest()


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_corpus_artifacts_match_golden(kind, corpus):
    golden = json.loads(GOLDEN.read_text())[f"corpus/{kind}"]
    assert _corpus_digest(kind, corpus.rep) == golden


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {_case_id(*c): _digest(_build(*c)) for c in CASES}
    for kind in CORPUS_KINDS:
        digests[f"corpus/{kind}"] = _corpus_digest(
            kind, lambda name, k: _build(name, k, {}))
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
