"""Command line front end.

Every subcommand takes a scene, given either as a path to a scene JSON
file or as a model spec like ``kashiwara_point`` or
``kashiwara_point(d0=0, d1=4)``.  Output is byte deterministic; exit
status is 0 for success, 1 for a failed verification, 2 for invalid
input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .calculus import ConstructibleFunction, dual, euler_integral, indicator
from .complexes import Simplex
from .errors import ModelError, SceneError, SceneSyntaxError
from .indices import hyperfunction_dimension, hyperfunction_index, parity_index, solution_index
from .scenes import Scene, build_model, list_models, parse_scene

_MODEL_SPEC = re.compile(r"^([A-Za-z_]\w*)(?:\((.*)\))?$")


def _parse_params(raw: str, context: str) -> dict[str, int]:
    params: dict[str, int] = {}
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, eq, value = piece.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ModelError(f"cannot parse parameter {piece!r} in {context}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ModelError(f"parameter {key!r} needs an integer, got {value!r}") from None
    return params


def load_scene(spec: str) -> Scene:
    """A scene file path, or a model spec such as name(k=v, ...)."""
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as err:
            raise SceneSyntaxError(f"scene file is not UTF-8 text: {err.reason}") from None
        return parse_scene(text)
    match = _MODEL_SPEC.match(spec)
    if match is None:
        raise ModelError(f"no scene file {spec!r}, and it does not look like a model spec")
    name, raw = match.group(1), match.group(2)
    return build_model(name, **_parse_params(raw or "", f"model spec {spec!r}"))


def _parse_at(raw: str) -> Simplex:
    vertices = [v for v in re.split(r"[,\s]+", raw.strip()) if v]
    if not vertices:
        raise ModelError("--at needs at least one vertex name")
    return Simplex(vertices)


def _json_out(obj) -> int:
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


def _value_rows(phi, include_zeros: bool) -> list[tuple[Simplex, int]]:
    if include_zeros:
        return [(s, phi.value(s)) for s in phi.ambient.ordered()]
    return list(phi.items)


def _print_table(phi, include_zeros: bool) -> None:
    for s, v in _value_rows(phi, include_zeros):
        print(f"{s}\t{v}")


def _table_json(phi, include_zeros: bool) -> list[dict]:
    return [
        {"at": list(s.vertices), "value": v}
        for s, v in _value_rows(phi, include_zeros)
    ]


def _scene_function(scene: Scene, spec: str, allow_hyper: bool) -> tuple[str, ConstructibleFunction]:
    if spec == "solution_index":
        return spec, solution_index(scene.cycle, scene.ambient)
    if spec == "hyperfunction_index" and allow_hyper:
        return spec, hyperfunction_index(scene.pair, scene.cycle)
    prefix, _, sub_name = spec.partition(":")
    if prefix == "indicator" and sub_name:
        return spec, indicator(scene.subcomplex(sub_name))
    choices = "solution_index or indicator:NAME"
    if allow_hyper:
        choices = "solution_index, hyperfunction_index or indicator:NAME"
    raise ModelError(f"unknown function {spec!r}; use {choices}")


def _cmd_check(scene: Scene, args) -> int:
    strata = sorted(st.name for st in scene.cycle)
    conj = scene.pair.conjugation is not None
    if args.json:
        return _json_out({
            "scene": scene.name,
            "valid": True,
            "vertices": len(scene.ambient.vertices),
            "simplices": len(scene.ambient),
            "dimension": scene.ambient.dim,
            "real_form": {
                "name": scene.real_form_name,
                "simplices": len(scene.pair.real_form.simplices),
                "complex_dim": scene.pair.complex_dim,
                "conjugation": conj,
            },
            "strata": strata,
            "probes": len(scene.pair.probes),
            "checks": list(scene.expect.checks),
        })
    print(f"scene: {scene.name}")
    print(
        f"complex: {len(scene.ambient.vertices)} vertices, "
        f"{len(scene.ambient)} simplices, dimension {scene.ambient.dim}"
    )
    print(
        f"real form: {scene.real_form_name} "
        f"({len(scene.pair.real_form.simplices)} simplices), "
        f"complex_dim {scene.pair.complex_dim}, "
        f"conjugation {'present' if conj else 'none'}"
    )
    print(f"strata: {', '.join(strata) if strata else 'none'}")
    print(f"probes: {len(scene.pair.probes)}")
    print(f"declared checks: {', '.join(scene.expect.checks) if scene.expect.checks else 'none'}")
    print("ok")
    return 0


def _cmd_index(scene: Scene, args) -> int:
    phi = solution_index(scene.cycle, scene.ambient)
    return _function_output(scene, "solution_index", phi, args)


def _cmd_parity(scene: Scene, args) -> int:
    alpha = parity_index(scene.pair, scene.cycle)
    return _function_output(scene, "parity_index", alpha, args)


def _cmd_dual(scene: Scene, args) -> int:
    label, phi = _scene_function(scene, args.function, allow_hyper=False)
    return _function_output(scene, f"dual[{label}]", dual(phi), args)


def _function_output(scene: Scene, label: str, phi, args) -> int:
    if args.at is not None:
        at = _parse_at(args.at)
        value = phi.value(at)
        if args.json:
            return _json_out({
                "scene": scene.name, "function": label,
                "at": list(at.vertices), "value": value,
            })
        print(value)
        return 0
    if args.json:
        return _json_out({
            "scene": scene.name, "function": label,
            "values": _table_json(phi, args.all),
        })
    _print_table(phi, args.all)
    return 0


def _cmd_hyperdim(scene: Scene, args) -> int:
    hyper = hyperfunction_index(scene.pair, scene.cycle)
    dimension = None
    if all(st.smooth for st in scene.cycle):
        dimension = hyperfunction_dimension(scene.pair, scene.cycle)
    if args.at is not None:
        at = _parse_at(args.at)
        value = hyper.value(at)
        if args.json:
            return _json_out({
                "scene": scene.name, "at": list(at.vertices),
                "hyperfunction_index": value,
                "hyperfunction_dimension": None if dimension is None else dimension.value(at),
            })
        print(value)
        return 0
    if args.json:
        return _json_out({
            "scene": scene.name,
            "hyperfunction_index": _table_json(hyper, args.all),
            "hyperfunction_dimension": None if dimension is None else _table_json(dimension, args.all),
        })
    print("hyperfunction_index:")
    _print_table(hyper, args.all)
    if dimension is None:
        print("hyperfunction_dimension: not applicable (singular stratum)")
    else:
        print("hyperfunction_dimension:")
        _print_table(dimension, args.all)
    return 0


def _cmd_integrate(scene: Scene, args) -> int:
    label, phi = _scene_function(scene, args.function, allow_hyper=True)
    value = euler_integral(phi)
    if args.json:
        return _json_out({"scene": scene.name, "function": label, "value": value})
    print(value)
    return 0


def _cmd_verify(scene: Scene, args) -> int:
    report = scene.verify(seed=args.seed)
    if args.json:
        _json_out(report.to_json_obj())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_models(args) -> int:
    if args.action == "list":
        if args.json:
            return _json_out([
                {
                    "name": info.name,
                    "summary": info.summary,
                    "params": [
                        {
                            "name": p.name, "default": p.default,
                            "minimum": p.minimum, "meaning": p.meaning,
                        }
                        for p in info.params
                    ],
                }
                for info in list_models()
            ])
        for info in list_models():
            print(f"{info.name}: {info.summary}")
            for p in info.params:
                print(f"  {p.name}={p.default} (min {p.minimum}): {p.meaning}")
        return 0
    # emit
    if args.name is None:
        raise ModelError("models emit needs a model name")
    params: dict[str, int] = {}
    for piece in args.params:
        params.update(_parse_params(piece, f"parameter {piece!r}"))
    scene = build_model(args.name, **params)
    sys.stdout.write(scene.canonical_text)
    return 0


def _add_scene_command(sub, name: str, help_text: str, at: bool = True):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("scene", help="scene file or model spec like name(k=v, ...)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if at:
        p.add_argument("--at", help="evaluate at one simplex: comma or space separated vertices")
        p.add_argument("--all", action="store_true", help="include zero values in tables")
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfcalc",
        description="exact local index calculations on finite simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_scene_command(sub, "check", "parse and validate a scene, print a summary", at=False)
    _add_scene_command(sub, "index", "solution index on the ambient complex")
    _add_scene_command(sub, "hyperdim", "hyperfunction index and dimension on the real form")
    _add_scene_command(sub, "parity", "mod-2 parity function on the real form")

    p = _add_scene_command(sub, "dual", "combinatorial dual of a scene function")
    p.add_argument(
        "--function", default="solution_index",
        help="solution_index (default) or indicator:NAME",
    )

    p = _add_scene_command(sub, "integrate", "Euler integral of a scene function", at=False)
    p.add_argument(
        "--function", default="solution_index",
        help="solution_index (default), hyperfunction_index or indicator:NAME",
    )

    p = _add_scene_command(sub, "verify", "run every check and report", at=False)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized identities")

    p = sub.add_parser("models", help="list built-in models or emit one as a scene file")
    p.add_argument("action", nargs="?", choices=("list", "emit"), default="list")
    p.add_argument("name", nargs="?", help="model name (emit only)")
    p.add_argument("params", nargs="*", help="parameter overrides like k=4 (emit only)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    args = parser.parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models(args)
        scene = load_scene(args.scene)
        handler = {
            "check": _cmd_check,
            "index": _cmd_index,
            "hyperdim": _cmd_hyperdim,
            "parity": _cmd_parity,
            "dual": _cmd_dual,
            "integrate": _cmd_integrate,
            "verify": _cmd_verify,
        }[args.command]
        return handler(scene, args)
    except (SceneError, ModelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
