"""Output bytes of small fixed-seed runs, pinned by SHA-256.

A change that alters any emitted byte on purpose updates these digests and
says so in CHANGES.md; any other digest change is a regression.  Run this
file as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digests in the layout of GOLDEN, ready to paste, so that the diff
shows exactly which digests moved.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import e1_model, lf1_model, s3_model
from mtcpp.harness import RunConfig, run

SEED = 20261018

#: label -> (task, model builder or None, settings)
JOBS = {
    "laws-s3": ("laws", s3_model, dict(n_max=10)),
    "compare-two-type": ("compare-two-type", None, dict(two_type=(0.3, 0.7, 0.5, 1.0), n_max=8)),
    "validate-lf": ("validate", lf1_model, dict(samples=2000, horizon=8, n_max=3)),
    "validate-e1": ("validate", e1_model, dict(samples=2000, horizon=6, n_max=3)),
    "simulate-lf-1": ("simulate", lf1_model, dict(samples=1, horizon=6)),
    "simulate-lf-300": ("simulate", lf1_model, dict(samples=300, horizon=6)),
    "dchain-e1": ("dchain", e1_model, dict(samples=1000, horizon=8, n_max=3)),
    # the finite-support shuffled sampler on the forest path
    "simulate-e1": ("simulate", e1_model, dict(samples=300, horizon=6)),
    # the LF shuffled sampler, the LF survival rows and the forest KS sample
    "dchain-lf-uniform": (
        "dchain", lf1_model, dict(samples=1000, horizon=6, n_max=3, ordering="uniform")
    ),
}

GOLDEN = {
    "compare-two-type": {
        "compare.csv": "ef126cf1a072b22c22cc3067824e80143c37bae0be6d4c2fb9eea928c7beaaa4",
        "report.json": "dc09c42b9afbe180b5695d7c8ff12b89725243ca5887dce983d4c4269eb8e7a0",
    },
    "dchain-e1": {
        "compare.csv": "33f82fd810c47ebb370920764afd49523d6ce1cd5b2fc839eff45cc5bb9b4b0f",
        "estimates.csv": "f893c17ed3f06415e79b889c621c58e5488608ae3e8b18252ce20cc43fccafae",
        "report.json": "9197dd2ee118345f5ba8b4d5335d40805c1e90f79241ea2763645eeb926870ee",
    },
    "dchain-lf-uniform": {
        "compare.csv": "d9447fe3c0593ff5836479749f7a1f52db496a68ce06389479c990fdf6ca5e84",
        "estimates.csv": "1772c4d5b41f3ebee7f196223b633f2db33f4e3b2d2fbe30d1fa5c0b08acbee6",
        "report.json": "240e0fdc1e52d220a3bb74fa6f187fc1a17bd8d0ece5179c5bf968a81333c3c7",
    },
    "laws-s3": {
        "laws.csv": "d1c2806693469f2cf4e2d91fe06802ce66a2181f4c79786e9bdbd0fad271592a",
        "report.json": "3f84bbad8c8036d8d40352f1b0674cd11fd68a8172a4843a27c47b0056a191c7",
    },
    "simulate-e1": {
        "records.csv": "2bc97c01822e93b905dc8c72e9a9c45b4461358e0c887e0d0d91e9de917e13ab",
        "report.json": "7ede5a9f6e2818ed6e80c7096eee6e1071347184e1275ee6208dfc8b61e36381",
        "tree.tsv": "b4c0c5e7556af23cd4145b39de90719f0e94a8c4149c92095184289c00051451",
    },
    "simulate-lf-1": {
        "records.csv": "8fb91338ff50e0be365149a6f3f0d8247fbead48136d0b4ee94ab31b4d0be429",
        "report.json": "ee463621d6b72e3d02b069e1738377843fcec1eab76189d71760131f445159f0",
        "tree.tsv": "b434d3a808c019bec32cb7ee0ab9d1cb132678c6cae08ee30f8b7b55d320e12b",
    },
    "simulate-lf-300": {
        "records.csv": "8d79f1c1801eb16759962474a200f08c5c942c3e6d106640cbd83eba1b126e68",
        "report.json": "48a2aa15bc9a536545cae9005ec0b1e0f9187910927b7a8ce359212b93d280d6",
        "tree.tsv": "5d75ae8ed1a9eb84d88fc919b997929c859f1a15f6b2a3ba8ff5b8e5235f4b6d",
    },
    "validate-e1": {
        "estimates.csv": "c2addeabf5e1bc0a7534b31e188066ef654a5730610525b9f06a90d376a17df8",
        "laws.csv": "7827082ff10616f6cf1488ba7eec2797c43421336c986667028d7ed5d807a9bd",
        "report.json": "2284db2ec2b2bb58d722b6175fd303836b02ecbd1bf2e69a1999d7d1319f2fe9",
    },
    "validate-lf": {
        "estimates.csv": "1a78fc45a63f964d58deff23b6556bd97f3a3020cf80e86868a841be313237dc",
        "laws.csv": "a72cc3b01b53e20cf7a228ebebc33f83199d221fd2bdf02d9312d6f312889dc2",
        "report.json": "b7237569daa340cd0ff77d4a95b69ece65780a46e2e2e4f74c323f0a555353c6",
    },
}


def _run_job(label, out_dir) -> int:
    task, build, settings = JOBS[label]
    model = None if build is None else build()
    return run(RunConfig(task=task, seed=SEED, out_dir=str(out_dir), model=model, **settings))


def _digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("label", sorted(JOBS))
def test_output_bytes_are_pinned(label, tmp_path):
    assert _run_job(label, tmp_path) == 0
    assert _digests(tmp_path) == GOLDEN[label]


def print_golden() -> int:
    """Run every job and print GOLDEN as the current code would pin it;
    returns 1 if some job exited with a nonzero status."""
    failed = []
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for label in sorted(JOBS):
            out = Path(tmp) / label
            if _run_job(label, out) != 0:
                failed.append(label)
            print(f'    "{label}": {{')
            for name, digest in _digests(out).items():
                print(f'        "{name}": "{digest}",')
            print("    },")
    print("}")
    if failed:
        print(f"jobs that did not exit 0: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(print_golden())
