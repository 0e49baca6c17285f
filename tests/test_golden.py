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
        "compare.csv": "2205acb70466e4f5cd8c3f40aad1a83ad57db87bc035981d82a57391539332b9",
        "estimates.csv": "f893c17ed3f06415e79b889c621c58e5488608ae3e8b18252ce20cc43fccafae",
        "report.json": "9c0020d59e3059422e0e75669b264826292dea5f3366197665175955c394936c",
    },
    "dchain-lf-uniform": {
        "compare.csv": "60dd543d0fb70f292668e35f979ac1d2215bf300133bf63cf5789de769cdd04d",
        "estimates.csv": "1772c4d5b41f3ebee7f196223b633f2db33f4e3b2d2fbe30d1fa5c0b08acbee6",
        "report.json": "1b7dc899e1f202909560feaef70b9a5e3506e043f0135ba2258f4edee2fdda93",
    },
    "laws-s3": {
        "laws.csv": "d1c2806693469f2cf4e2d91fe06802ce66a2181f4c79786e9bdbd0fad271592a",
        "report.json": "3f84bbad8c8036d8d40352f1b0674cd11fd68a8172a4843a27c47b0056a191c7",
    },
    "simulate-e1": {
        "records.csv": "e9e5532c19a5e56f2c6010160a0410a7498b9d7fabd526c232f69f98c4983053",
        "report.json": "ab6714002f4f6271bbae8eab808601561e666bbfd4e47df14abeff959fd1d618",
        "tree.tsv": "0188f26d9f6771b90fb7ec2e40f3e18898ebd46858aa364a23da83c85d3ab1f9",
    },
    "simulate-lf-1": {
        "records.csv": "1cf3f21569fd9a361146494a31244e958a3cdc8d105684637f0a4d23a9d8265a",
        "report.json": "48ede874d8d2ad3b97d9f331ca6497390e577cdcd4ee71d63683b850f35ac24a",
        "tree.tsv": "69c25070b1f4aaa6ef68743b91ecac49dc2a8d14c6131a0df1f4ca9be2ba3b14",
    },
    "simulate-lf-300": {
        "records.csv": "3978d2452d30141929f93b310c5117a0533c8eb3a221332a3870c1c2d71ba3b7",
        "report.json": "018d85859154314aafb1327b169bb17a9aa80ffba02aa31a43ad35fb7947fb56",
        "tree.tsv": "4227d04de7045475fb5ff3df57bdac900b6a1e2ec12129843f7e64ca20c543b0",
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
