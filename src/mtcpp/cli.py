"""Command-line entry point.

    mtcpp <task> --config cfg.json --seed 7 --samples 100000 \
                 --horizon 30 --out results/

Tasks: simulate, laws, validate, compare-two-type, dchain.  The model
comes from exactly one source: a config file's "model" block, or one of
--model-lf / --model-spec pointing at a JSON file.  Command-line flags
override config-file settings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import SchemaError
from .harness import TASKS, RunConfig, run
from .lf import LFParams
from .model import ORDERINGS, ModelSpec

_CONFIG_KEYS = {
    "seed",
    "samples",
    "horizon",
    "ordering",
    "root_type",
    "n_max",
    "task",
    "out",
    "model",
    "two_type",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcpp",
        description="Coalescent structure of multi-type branching populations.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", metavar="PATH", help="JSON settings file")
    model = parser.add_mutually_exclusive_group()
    model.add_argument(
        "--model-lf", metavar="PATH", help="linear-fractional parameter JSON"
    )
    model.add_argument(
        "--model-spec", metavar="PATH", help="finite-support offspring JSON"
    )
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--samples", type=int, help="Monte Carlo sample count")
    parser.add_argument("--horizon", type=int, metavar="T", help="tree depth")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--ordering", choices=ORDERINGS)
    parser.add_argument("--root-type", type=int)
    parser.add_argument("--n-max", type=int, help="deepest reported generation")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("config file must hold a JSON object")
    if "init_mode" in doc:
        raise SchemaError(
            "config key 'init_mode' was removed: the chain has one start, the "
            "leftmost standing individual of a depth-T tree conditioned on survival"
        )
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _model_from_config(doc: dict):
    block = doc.get("model")
    if block is None:
        return None
    if not isinstance(block, dict) or len(block) != 1:
        raise SchemaError("config 'model' must be {'lf': {...}} or {'spec': {...}}")
    (kind, payload), = block.items()
    if kind == "lf":
        return LFParams.from_json(json.dumps(payload))
    if kind == "spec":
        return ModelSpec.from_json(json.dumps(payload))
    raise SchemaError(f"unknown model kind {kind!r}; use 'lf' or 'spec'")


def _two_type_from_config(doc: dict):
    block = doc.get("two_type")
    if block is None:
        return None
    if not isinstance(block, dict) or set(block) != {"g", "p", "h1", "m"}:
        raise SchemaError("config 'two_type' needs exactly the keys g, p, h1, m")
    values = tuple(block[key] for key in ("g", "p", "h1", "m"))
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise SchemaError(f"config 'two_type' values must be numbers, got {block}")
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"config 'two_type' values must be finite, got {block}")
    return values


def build_config(argv: list[str]) -> RunConfig:
    """Merge config file and flags into a validated run description."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for resource
        # guards here, so malformed invocations leave with the input code
        if exc.code not in (0, None):
            sys.exit(1)
        raise
    doc = _load_config_file(args.config) if args.config else {}
    settings = {
        "task": args.task,
        "seed": args.seed if args.seed is not None else doc.get("seed"),
        "samples": args.samples if args.samples is not None else doc.get("samples"),
        "horizon": args.horizon if args.horizon is not None else doc.get("horizon"),
        "out_dir": args.out if args.out is not None else doc.get("out"),
        "ordering": args.ordering if args.ordering is not None else doc.get("ordering"),
        "root_type": (
            args.root_type if args.root_type is not None else doc.get("root_type")
        ),
        "n_max": args.n_max if args.n_max is not None else doc.get("n_max"),
    }
    if settings["seed"] is None:
        raise SchemaError("a master seed is required (--seed or config 'seed')")
    if settings["out_dir"] is None:
        raise SchemaError("an output directory is required (--out or config 'out')")
    settings = {k: v for k, v in settings.items() if v is not None}

    model = _model_from_config(doc)
    if args.model_lf is not None or args.model_spec is not None:
        if model is not None:
            raise SchemaError(
                "multiple model sources: drop the config 'model' block or the flag"
            )
        if args.model_lf is not None:
            with open(args.model_lf) as fh:
                model = LFParams.from_json(fh.read())
        else:
            with open(args.model_spec) as fh:
                model = ModelSpec.from_json(fh.read())
    two_type = _two_type_from_config(doc)
    return RunConfig(model=model, two_type=two_type, **settings)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
    except SchemaError as exc:
        print(f"mtcpp: {exc}", file=sys.stderr)
        sys.exit(1)
    except OSError as exc:
        print(f"mtcpp: {exc}", file=sys.stderr)
        sys.exit(4)
    status = run(config)
    if status != 0:
        print(f"mtcpp: task {config.task} exited with status {status}", file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
