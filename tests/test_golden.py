"""Output bytes of small fixed-seed runs, pinned by SHA-256.

A change that alters any emitted byte on purpose updates these digests and
says so in CHANGES.md; any other digest change is a regression.
"""

import hashlib

import pytest

from mtcpp.harness import RunConfig, run

#: label -> (task, model fixture or None, settings)
JOBS = {
    "laws-s3": ("laws", "s3", dict(n_max=10)),
    "compare-two-type": ("compare-two-type", None, dict(two_type=(0.3, 0.7, 0.5, 1.0), n_max=8)),
    "validate-lf": ("validate", "lf1", dict(samples=2000, horizon=8, n_max=3)),
    "validate-e1": ("validate", "e1", dict(samples=2000, horizon=6, n_max=3)),
    "simulate-lf-1": ("simulate", "lf1", dict(samples=1, horizon=6)),
    "simulate-lf-300": ("simulate", "lf1", dict(samples=300, horizon=6)),
    "dchain-e1": ("dchain", "e1", dict(samples=1000, horizon=8, n_max=3)),
}

GOLDEN = {
    "compare-two-type": {
        "compare.csv": "ef126cf1a072b22c22cc3067824e80143c37bae0be6d4c2fb9eea928c7beaaa4",
        "report.json": "dc09c42b9afbe180b5695d7c8ff12b89725243ca5887dce983d4c4269eb8e7a0",
    },
    "dchain-e1": {
        "compare.csv": "34fc6db26c70cf86afce2c773ae5a6cacd9f684e47ad7db6f5b239d26c0e3ba0",
        "estimates.csv": "8108981c40d61d4d3ecc4ea1f38114005d083988ce94b74ba6f17ae81dd075b8",
        "report.json": "0858b484394fb69c0bde3127e1f480243d5fbd965c5a52eebdb7f5e25295f13e",
    },
    "laws-s3": {
        "laws.csv": "d1c2806693469f2cf4e2d91fe06802ce66a2181f4c79786e9bdbd0fad271592a",
        "report.json": "3f84bbad8c8036d8d40352f1b0674cd11fd68a8172a4843a27c47b0056a191c7",
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
        "estimates.csv": "a48b8814b5add436cb30565feb30ccebdb4ce6e33d290959c85635c6bc5447e1",
        "laws.csv": "a72cc3b01b53e20cf7a228ebebc33f83199d221fd2bdf02d9312d6f312889dc2",
        "report.json": "6d12ef3fb16cc226b59bed4eb131819b444f0b492d5a5b8ef4ed4aacc0067bc7",
    },
}


def _digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("label", sorted(JOBS))
def test_output_bytes_are_pinned(label, request, tmp_path):
    task, fixture, settings = JOBS[label]
    model = None if fixture is None else request.getfixturevalue(fixture)
    cfg = RunConfig(task=task, seed=20261018, out_dir=str(tmp_path), model=model, **settings)
    assert run(cfg) == 0
    assert _digests(tmp_path) == GOLDEN[label]
